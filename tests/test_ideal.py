"""Groebner engine: bases, normal forms, membership certificates (with
saturation multipliers), elimination, determinism."""

import random

import pytest

import curvelim.ideal as ideal
from curvelim.exactpoly import (
    Polynomial,
    PolyError,
    VarTable,
    block_order,
    grevlex_order,
    lex_order,
    parse_polynomial,
)
from curvelim.ideal import (
    Certificate,
    GeneratorSet,
    Limits,
    NOT_MEMBER,
    Relation,
    ResourceExhausted,
    SaturationRecord,
    eliminate,
    groebner,
    membership,
    normal_form,
    verify_spolys,
)
from tests_evaluation import evaluate

VT = VarTable(["t", "u", "x", "y", "z"])


def poly(text, table=VT):
    return parse_polynomial(text, table)


def gens(table, **kw):
    return GeneratorSet(table, [Relation(k, v) for k, v in kw.items()])


def contains_one(gb) -> bool:
    """Whether the basis holds a nonzero constant, so its ideal is the unit ideal."""
    return any(not p.is_zero() and p.total_degree() == 0 for p in gb.polys)


class TestGroebner:
    def test_lex_example(self):
        table = VarTable(["y", "x"])
        gs = gens(table, g1=poly("x - 1", table), g2=poly("y - x", table))
        gb = groebner(gs, lex_order())
        assert set(gb.printed()) == {"y - 1", "x - 1"}

    def test_principal_ideal(self):
        gs = gens(VT, g=poly("4*x^2 - 6"))
        gb = groebner(gs)
        assert gb.printed() == ["2*x^2 - 3"]

    def test_unit_ideal(self):
        gb = groebner(gens(VT, a=poly("x"), b=poly("x + 1")))
        assert contains_one(gb)
        assert gb.printed() == ["1"]

    def test_spoly_property_and_provenance(self):
        rng = random.Random(2)
        for _ in range(15):
            gs = gens(VT, **{f"g{i}": p for i, p in enumerate(_random_system(rng))})
            gb = groebner(gs)
            assert verify_spolys(gb)
            for p in gb.polys:  # every element, inter-reduced or not, is in the ideal
                cert = membership(p, gs)
                assert isinstance(cert, Certificate) and cert.power == 0

    def test_determinism(self):
        gs1 = gens(VT, a=poly("x^2 + y"), b=poly("x*y - 1"), c=poly("y^2 - x"))
        gs2 = gens(VT, a=poly("x^2 + y"), b=poly("x*y - 1"), c=poly("y^2 - x"))
        assert groebner(gs1).printed() == groebner(gs2).printed()

    def test_resource_ceiling(self):
        gs = gens(VT, a=poly("x^3 - 2*x*y"), b=poly("x^2*y - 2*y^2 + x"))
        with pytest.raises(ResourceExhausted):
            groebner(gs, limits=Limits(max_basis=1, max_pairs=2))

    @pytest.mark.parametrize("ceiling", [{"max_basis": 0}, {"max_pairs": 0},
                                         {"max_basis": -1}])
    def test_ceiling_below_one_rejected(self, ceiling):
        with pytest.raises(ValueError, match="at least 1"):
            Limits(**ceiling)

    def test_wrong_tail_reduction_raises(self, monkeypatch):
        # x - y reduces to x - z over y - z; a division that returns another
        # remainder breaks the division identity that keeps it in the ideal
        run = ideal._Buchberger([poly("x - y"), poly("y - z")], grevlex_order(), Limits())
        while run.advance():
            pass
        assert [p.to_text() for p in run.reduced_basis()] == ["y - z", "x - z"]
        real_divide = ideal._divide

        def wrong(p, basis, order):
            scale, red, fac = real_divide(p, basis, order)
            return scale, red if red == p else red + poly("z"), fac

        monkeypatch.setattr(ideal, "_divide", wrong)
        with pytest.raises(PolyError, match="internal error"):
            run.reduced_basis()


class TestSpolyGuard:
    # z^2 - t, x*y - u, x^2 - y, u*x - y^2, y^3 - u^2: of the 10 pairs, 6 have
    # coprime leading monomials
    def _basis(self):
        gb = groebner(gens(VT, a=poly("x^2 - y"), b=poly("x*y - u"), c=poly("z^2 - t")))
        assert gb.printed() == ["z^2 - t", "x*y - u", "x^2 - y", "u*x - y^2", "y^3 - u^2"]
        return gb

    def test_coprime_pairs_are_not_reduced(self, monkeypatch):
        gb = self._basis()
        calls = []
        real_divide = ideal._divide

        def counting(p, basis, order):
            calls.append(p)
            return real_divide(p, basis, order)

        monkeypatch.setattr(ideal, "_divide", counting)
        assert verify_spolys(gb)
        assert len(calls) == 4

    def test_basis_missing_an_element_fails(self):
        gb = self._basis()
        k = gb.printed().index("u*x - y^2")
        lost = ideal.GroebnerBasis(gb.gens, gb.order, gb.polys[:k] + gb.polys[k + 1:],
                                   gb.degree_bound)
        assert not verify_spolys(lost)


class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        g = poly("x^2 + y - 1")
        gb = groebner(gens(VT, g=g))
        rem, _ = normal_form(g, gb)
        assert rem.is_zero()

    def test_division_by_hand(self):
        gb = groebner(gens(VT, g=poly("x - 1")))
        rem, factors = normal_form(poly("x^2"), gb)
        assert rem == poly("1")
        assert factors[0] == poly("x + 1")

    def test_no_leading_term_division(self):
        gb = groebner(gens(VT, g=poly("x")))
        rem, factors = normal_form(poly("y"), gb)
        assert rem == poly("y")
        assert all(f.is_zero() for f in factors)


class TestMembership:
    def test_zero_in_every_ideal(self):
        cert = membership(Polynomial.zero(VT), gens(VT, g=poly("x")))
        assert isinstance(cert, Certificate)
        assert cert.pairs == {}

    def test_distinct_variables(self):
        assert membership(poly("x"), gens(VT, g=poly("y"))) == NOT_MEMBER

    def test_certificate_identity_checked(self):
        with pytest.raises(PolyError):
            Certificate(poly("x^2"), {"g": (poly("x"), poly("x - 1"))})  # wrong cofactor

    def test_minimal_power(self):
        gs = gens(VT, g=poly("x^2*y"))
        sat = [SaturationRecord("x_nz", poly("x"), "planted")]
        cert = membership(poly("y"), gs, saturations=sat)
        assert cert != NOT_MEMBER
        assert cert.power == 2
        assert cert.multiplier == poly("x")

    def test_power_bound_respected(self):
        gs = gens(VT, g=poly("x^5*y"))
        sat = [SaturationRecord("x_nz", poly("x"), "planted")]
        assert membership(poly("y"), gs, saturations=sat, max_power=3) == NOT_MEMBER

    def test_negative_power_bound_rejected(self):
        # no power would be tried, so a member would read as a refutation
        with pytest.raises(ValueError, match="max_power"):
            membership(poly("x*y"), gens(VT, g=poly("x")), max_power=-1)

    def test_negative_rests_on_a_checked_basis(self):
        # y^2 - x is the S-polynomial of the two generators; x is not a member
        gs = gens(VT, g1=poly("x^2 - y"), g2=poly("x*y - 1"))
        assert membership(poly("x"), gs) == NOT_MEMBER
        assert membership(poly("y^2 - x"), gs) != NOT_MEMBER

    def test_lost_s_pair_raises(self, monkeypatch):
        real_push = ideal.heappush

        def lossy_push(queue, entry):
            if entry[1:] != (0, 1):
                real_push(queue, entry)

        monkeypatch.setattr(ideal, "heappush", lossy_push)
        gs = gens(VT, g1=poly("x^2 - y"), g2=poly("x*y - 1"))
        with pytest.raises(PolyError, match="internal error"):
            membership(poly("y^2 - x"), gs)

    def test_basis_of_a_smaller_ideal_raises(self, monkeypatch):
        # the run's elements minus one still pass the S-polynomial check, so
        # the generators must also reduce to zero
        real_basis = ideal.GroebnerBasis

        def dropping(gens, order, polys, degree_bound=None):
            return real_basis(gens, order, polys[:-1], degree_bound)

        monkeypatch.setattr(ideal, "GroebnerBasis", dropping)
        gs = gens(VT, g1=poly("x"), g2=poly("y"))
        with pytest.raises(PolyError, match="internal error"):
            membership(poly("z"), gs)

    def test_guard_of_a_non_homogeneous_run_is_not_truncated(self, monkeypatch):
        # x*y - 1 is not weighted-homogeneous, so the run is unbounded and the
        # guard checks every pair, though the target x weighs 1: truncated at
        # its weight it would skip the lost pair, of lcm x^2*y, and refute
        bounds = []
        real_verify = ideal.verify_spolys

        def recording(gb):
            bounds.append(gb.degree_bound)
            return real_verify(gb)

        monkeypatch.setattr(ideal, "verify_spolys", recording)
        gs = gens(VT, g1=poly("x^2 - y"), g2=poly("x*y - 1"))
        assert membership(poly("x"), gs) == NOT_MEMBER
        assert bounds == [None]
        real_push = ideal.heappush

        def lossy_push(queue, entry):
            if entry[1:] != (0, 1):
                real_push(queue, entry)

        monkeypatch.setattr(ideal, "heappush", lossy_push)
        with pytest.raises(PolyError, match="internal error"):
            membership(poly("x"), gs)

    def test_derivation_step_shape(self):
        # a derivative image certifies the printed relation with a unit cofactor
        from curvelim.frame import EquationRegistry, load_paper_symbols, load_rule_tables
        sym = load_paper_symbols()
        reg = EquationRegistry(sym)
        d1 = load_rule_tables(sym)["D1"]
        img = d1.apply(reg.poly("eq_3_11"))
        gs = GeneratorSet(sym.table, [Relation("d1_img", img)])
        cert = membership(reg.poly("eq_3_30"), gs)
        assert cert != NOT_MEMBER
        assert cert.pairs["d1_img"] == Polynomial.const(sym.table, -1)


class TestDerivedBound:
    """``membership`` queries its Buchberger run at the weight of the target
    it tries, m**k * p, exactly when the target and the multiplier are
    weighted-homogeneous."""

    def _bounds(self, monkeypatch):
        bounds = []
        real = ideal._Buchberger.cofactors

        def recording(run, target, bound):
            bounds.append(bound)
            return real(run, target, bound)

        monkeypatch.setattr(ideal._Buchberger, "cofactors", recording)
        return bounds

    def test_homogeneous_target_gets_its_weight_per_power(self, monkeypatch):
        bounds = self._bounds(monkeypatch)
        sat = SaturationRecord("x", poly("x"), "test")
        cert = membership(poly("y"), gens(VT, g=poly("x^2*y")), saturations=[sat])
        assert cert != NOT_MEMBER and cert.power == 2
        assert bounds == [1, 2, 3]

    @pytest.mark.parametrize("target, multiplier", [("y + 1", "x"), ("y", "x + 1")])
    def test_inhomogeneous_target_or_multiplier_is_unbounded(self, monkeypatch,
                                                             target, multiplier):
        bounds = self._bounds(monkeypatch)
        sat = SaturationRecord("m", poly(multiplier), "test")
        assert membership(poly(target), gens(VT, g=poly("x^2*y")),
                          saturations=[sat]) == NOT_MEMBER
        assert bounds == [None] * 9  # powers 0 to max_power


class TestBasisReuse:
    """A cache dict shared by calls keeps one Buchberger run per generator
    polynomials, order and ceilings, whatever the ids and degree bounds: a
    later call continues it instead of starting a new one."""

    def _counting(self, monkeypatch):
        built = []
        real = ideal._Buchberger.__init__

        def counting(run, polys, order, limits):
            built.append((polys, order))
            real(run, polys, order, limits)

        monkeypatch.setattr(ideal._Buchberger, "__init__", counting)
        return built

    def test_hit_over_renamed_ids_matches_a_cold_call(self, monkeypatch):
        target = poly("y^2 - x")
        cold = membership(target, gens(VT, a=poly("x^2 - y"), b=poly("x*y - 1")))
        built = self._counting(monkeypatch)
        cache = {}
        first = membership(target, gens(VT, g1=poly("x^2 - y"), g2=poly("x*y - 1")),
                           cache=cache)
        hit = membership(target, gens(VT, a=poly("x^2 - y"), b=poly("x*y - 1")),
                         cache=cache)
        assert len(built) == 1
        assert sorted(first.pairs) == ["g1", "g2"] and sorted(hit.pairs) == ["a", "b"]
        assert hit.digest() == cold.digest()

    def test_elimination_hit_over_renamed_ids(self, monkeypatch):
        built = self._counting(monkeypatch)
        cache = {}
        out1 = eliminate(gens(VT, g1=poly("x - t"), g2=poly("y - t^2")), ["t"], cache=cache)
        out2 = eliminate(gens(VT, p=poly("x - t"), q=poly("y - t^2")), ["t"], cache=cache)
        assert len(built) == 1
        assert [r.poly for r in out1] == [r.poly for r in out2]

    def test_other_order_is_a_miss_other_bound_a_hit(self, monkeypatch):
        built = self._counting(monkeypatch)
        cache = {}
        g = poly("x - t")
        eliminate(gens(VT, g=g), ["t"], cache=cache)
        eliminate(gens(VT, g=g), ["x"], cache=cache)
        membership(g, gens(VT, g=g), cache=cache)                 # bound 1
        membership(poly("t*x - t^2"), gens(VT, g=g), cache=cache)  # bound 2: the same run
        membership(poly("x^2 - t*x"), gens(VT, g=g), cache=cache)  # bound 2 again
        assert len(built) == 3

    def test_ceilings_are_part_of_the_key(self):
        cache = {}
        gs = gens(VT, a=poly("x^3 - 2*x*y"), b=poly("x^2*y - 2*y^2 + x"))
        assert membership(poly("x^3 - 2*x*y"), gs, cache=cache) != NOT_MEMBER
        with pytest.raises(ResourceExhausted):
            membership(poly("x^3 - 2*x*y"), gs, limits=Limits(max_basis=1), cache=cache)

    def test_equal_ceilings_share_one_run(self, monkeypatch):
        # Limits is a value: the defaults spelled out are the same key
        assert Limits() == Limits(4000, 200000) and Limits() != Limits(max_basis=1)
        assert hash(Limits()) == hash(Limits(4000, 200000))
        built = self._counting(monkeypatch)
        cache = {}
        gs = gens(VT, a=poly("x^2 - y"), b=poly("x*y - 1"))
        membership(poly("y^2 - x"), gs, cache=cache)
        membership(poly("y^2 - x"), gs, limits=Limits(4000, 200000), cache=cache)
        assert len(built) == 1 and len(cache) == 1

    def test_a_run_that_hits_a_ceiling_leaves_the_cache(self):
        # x*y is in the ideal, but only after more pairs than the ceiling
        # allows; the run must not serve a later call half-built
        cache = {}
        gs = gens(VT, a=poly("x^3 - 2*x*y"), b=poly("x^2*y - 2*y^2 + x"))
        with pytest.raises(ResourceExhausted):
            membership(poly("x*y"), gs, limits=Limits(max_pairs=2), cache=cache)
        assert cache == {}
        assert membership(poly("x*y"), gs, limits=Limits(max_pairs=3), cache=cache) != NOT_MEMBER

    def test_not_member_on_a_cached_basis_runs_both_guards(self, monkeypatch):
        checked = []
        real_verify, real_spans = ideal.verify_spolys, ideal._spans_generators

        def verify(gb):
            checked.append(("verify_spolys", gb.gens.ids()))
            return real_verify(gb)

        def spans(gb):
            checked.append(("_spans_generators", gb.gens.ids()))
            return real_spans(gb)

        monkeypatch.setattr(ideal, "verify_spolys", verify)
        monkeypatch.setattr(ideal, "_spans_generators", spans)
        cache = {}
        membership(poly("x^2 - y"), gens(VT, g1=poly("x^2 - y"), g2=poly("x*y - 1")),
                   cache=cache)
        assert checked == []
        gs = gens(VT, a=poly("x^2 - y"), b=poly("x*y - 1"))
        assert membership(poly("x"), gs, cache=cache) == NOT_MEMBER
        assert checked == [("verify_spolys", ["a", "b"]), ("_spans_generators", ["a", "b"])]

    def test_not_member_over_several_powers_checks_the_last_bound_once(self, monkeypatch):
        # y, x*y, ..., x^3*y are tried at weights 1 to 4; the check at weight
        # 4 covers the smaller ones, so the basis is checked once, there
        bounds = []
        real_verify = ideal.verify_spolys

        def verify(gb):
            bounds.append(gb.degree_bound)
            return real_verify(gb)

        monkeypatch.setattr(ideal, "verify_spolys", verify)
        sat = [SaturationRecord("x_nz", poly("x"), "planted")]
        assert membership(poly("y"), gens(VT, g=poly("x^5*y")), saturations=sat,
                          max_power=3) == NOT_MEMBER
        assert bounds == [4]

    def test_lost_s_pair_in_a_cached_basis_raises(self, monkeypatch):
        # the basis cached by the first claim lost the pair whose S-polynomial
        # is the second target; the guard still refuses the negative
        real_push = ideal.heappush

        def lossy_push(queue, entry):
            if entry[1:] != (0, 1):
                real_push(queue, entry)

        monkeypatch.setattr(ideal, "heappush", lossy_push)
        cache = {}
        gs = gens(VT, g1=poly("x^2 - y"), g2=poly("x*y - 1"))
        assert membership(poly("x^2 - y"), gs, cache=cache) != NOT_MEMBER
        monkeypatch.setattr(ideal, "heappush", real_push)
        with pytest.raises(PolyError, match="internal error"):
            membership(poly("y^2 - x"), gens(VT, a=poly("x^2 - y"), b=poly("x*y - 1")),
                       cache=cache)


class TestEliminate:
    def test_parametrized_curve(self):
        gs = gens(VT, g1=poly("x - t"), g2=poly("y - t^2"))
        out = eliminate(gs, ["t"])
        target = poly("y - x^2")
        polys = [r.poly for r in out]
        assert any(p == target or p == -target for p in polys)

    def test_absent_variable(self):
        out = eliminate(gens(VT, g=poly("x")), ["y"])
        assert [r.poly for r in out] == [poly("x")]

    def test_soundness_on_parametrization(self):
        gs = gens(VT, g1=poly("x - t^2"), g2=poly("y - t^3"))
        out = eliminate(gs, ["t"])
        rng = random.Random(4)
        for r in out:
            for _ in range(10):
                tval = rng.randint(-6, 6)
                point = {"t": tval, "x": tval ** 2, "y": tval ** 3, "u": 0, "z": 0}
                assert evaluate(r.poly, point) == 0

    def test_gauss_system_elimination(self):
        from curvelim.frame import EquationRegistry, load_paper_symbols
        sym = load_paper_symbols()
        reg = EquationRegistry(sym)
        gs = GeneratorSet(sym.table, [
            Relation(i, reg.poly(i))
            for i in ("eq_3_43", "eq_3_44", "eq_3_45", "eq_3_46", "eq_3_47",
                      "eq_3_3", "eq_3_11")
        ])
        # the block-order run out at weight 6, the weight of the targets: its
        # elements free of the w's generate the elimination ideal up to it
        front = ["w243", "w342", "w432"]
        run = ideal._Buchberger([r.poly for r in gs], block_order(sym.table, front), Limits())
        run.raise_bound(6)
        while run.advance():
            pass
        assert run.bound == 6
        out = GeneratorSet(sym.table, [Relation(f"elim_{n}", p) for n, p in enumerate(run.basis)
                                       if not set(front) & p.variables()])
        assert 0 < len(out) < len(run.basis)
        for target in ("eq_3_48", "eq_3_49"):
            cert = membership(reg.poly(target), out)
            assert cert != NOT_MEMBER, target


class TestMacaulayAgreement:
    def test_small_systems(self):
        from tests_macaulay import macaulay_member
        rng = random.Random(20)
        checked = 0
        for _ in range(30):
            system = _random_system(rng)
            gs = gens(VT, **{f"g{i}": p for i, p in enumerate(system)})
            if rng.random() < 0.5:
                cofs = [_random_small(rng) for _ in system]
                target = Polynomial.zero(VT)
                for cf, g in zip(cofs, system):
                    target = target + cf * g
                if target.is_zero():
                    continue
            else:
                target = _random_small(rng)
                if target.is_zero():
                    continue
            cert = membership(target, gs)
            agree = macaulay_member(target, system)
            if cert == NOT_MEMBER:
                assert not agree[0], (target.to_text(), [g.to_text() for g in system])
            else:
                maxdeg = max((c.total_degree() for c in cert.pairs.values()), default=0)
                ok, _ = macaulay_member(target, system, degree=maxdeg)
                assert ok
            checked += 1
        assert checked >= 20


def _random_system(rng):
    out = []
    for _ in range(rng.randint(1, 3)):
        p = _random_small(rng)
        if not p.is_zero():
            out.append(p)
    if not out:
        out = [poly("x + y")]
    return out


def _random_small(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * len(VT)
        for n in ("x", "y", "z"):
            mono[VT.index[n]] = rng.randint(0, 2)
        if sum(mono) > 2:
            continue
        terms[tuple(mono)] = rng.randint(-4, 4)
    return Polynomial(VT, terms)
