"""Moving-frame layer: symbol table, registry, rule tables, consistency."""

import ast
import random
from pathlib import Path

import pytest

from curvelim.exactpoly import Polynomial, PolyError
from curvelim.frame import (
    DIRECTIONS,
    EquationRegistry,
    PERM_2_3,
    PERM_2_4,
    load_paper_axioms,
    load_paper_symbols,
    load_rule_tables,
    nondegeneracy_records,
    permute_polynomial,
    permuted_saturation_ids,
)
from curvelim.pipeline import Config, StageRunner


@pytest.fixture(scope="module")
def symbols():
    return load_paper_symbols()


@pytest.fixture(scope="module")
def registry(symbols):
    return EquationRegistry(symbols)


@pytest.fixture(scope="module")
def rules(symbols):
    return load_rule_tables(symbols)


class TestSymbolTable:
    def test_eliminated_curvature_absent(self, symbols):
        assert "lam1" not in symbols.table

    def test_product_symbol_present_with_definition(self, symbols, registry):
        assert "K" in symbols.table
        assert registry.poly("K_def") == symbols.poly("K - lam2*lam3*lam4")
        assert registry.poly("s_def") == symbols.poly("s - (u2 + u3 + u4)")

    def test_deterministic_load(self):
        a = load_paper_symbols()
        b = load_paper_symbols()
        assert a.table == b.table
        assert a.annotations == b.annotations

    def test_weights(self, symbols):
        t = symbols.table
        assert t.weights[t.index["H"]] == 1
        assert t.weights[t.index["h1"]] == 2
        assert t.weights[t.index["K"]] == 3


class TestAxioms:
    def test_all_axioms_parse_nonzero(self, symbols):
        axioms = load_paper_axioms(symbols)
        assert len(axioms) == 10
        for ax in axioms:
            assert not ax.poly.is_zero()
            assert ax.citation and ax.quote

    def test_trace_relation(self, registry):
        assert registry.poly("eq_3_11") == registry.symbols.poly("lam2 + lam3 + lam4 - 6*H")

    def test_codazzi_relation(self, registry):
        assert registry.poly("eq_3_47") == registry.symbols.poly(
            "(lam3 - lam4)*w243 - (lam2 - lam4)*w342")

    def test_scalar_curvature_relation(self, registry):
        assert registry.poly("eq_3_3") == registry.symbols.poly(
            "lam2^2 + lam3^2 + lam4^2 - (12*c + 12*H^2 - R)")

    def test_no_orphan_symbols(self, symbols, registry):
        for eid in registry.ids():
            if registry.entry(eid).text is None:
                continue
            for v in registry.poly(eid).variables():
                assert v in symbols.table

    def test_registry_weighted_homogeneous(self, registry):
        for eid in registry.ids():
            if registry.entry(eid).text is not None:
                assert registry.poly(eid).is_weighted_homogeneous(), eid

    def test_nondegeneracy_records(self, symbols):
        recs = {r.sid: r for r in nondegeneracy_records(symbols)}
        assert "h1_nonzero" in recs
        for sid in ("lam2_m_lam3", "lam2_m_lam4", "lam3_m_lam4",
                    "lam2_m_lam1", "lam3_m_lam1", "lam4_m_lam1"):
            assert sid in recs
            assert not recs[sid].multiplier.is_zero()

    def test_big_relation_transcription_complete(self, symbols, registry):
        # all 32 printed coefficient groups, no extras
        expected = {
            "H^10": 2040217600,
            "R*H^8": 659304960, "c*H^8": -4882549760,
            "c^2*H^6": 3730891264, "c*R*H^6": -1021023488, "R^2*H^6": 69428224,
            "c^3*H^4": -987669696, "c*R^2*H^4": -55470688,
            "c^2*R*H^4": 407658368, "R^3*H^4": 2493816,
            "c^4*H^2": 115086816, "c^3*R*H^2": -55092024, "c^2*R^2*H^2": 9593272,
            "c*R^3*H^2": -716326, "R^4*H^2": 19162,
            "H^7*K": -74403840,
            "c*H^5*K": 105242112, "R*H^5*K": -15432192,
            "R^2*H^3*K": -927984, "c*R*H^3*K": 12200976, "c^2*H^3*K": -38310432,
            "c^3*H*K": 11289096, "c^2*R*H*K": -4544436, "c*R^2*H*K": 602004,
            "R^3*H*K": -26364,
            "H^4*K^2": 403200,
            "c*H^2*K^2": 133488, "R*H^2*K^2": 16632,
            "H*K^3": 8640,
            "c^2*K^2": 186732, "R*c*K^2": -54990, "R^2*K^2": 3978,
        }
        p = registry.poly("eq_3_62")
        assert len(p.terms) == len(expected) == 32
        for mono_text, coeff in expected.items():
            ((mono, _),) = symbols.poly(mono_text).terms.items()
            assert p.terms.get(mono) == coeff, mono_text


class TestRuleTables:
    def test_trace_derivative_matches_printed(self, symbols, registry, rules):
        img = rules["D1"].apply(registry.poly("eq_3_11"))
        assert img == -registry.poly("eq_3_30")
        # no row of the trace's chain names an undetermined derivative
        opaque = set().union(*(t.opaque() for t in rules.values()))
        assert not any(row.variables() & opaque
                       for _, _, row in rules["D1"].chain(registry.poly("eq_3_11")))

    def test_transverse_direction_kills_H(self, symbols, rules):
        img = rules["D2"].apply(symbols.poly("H"))
        assert img.is_zero()

    def test_constants(self, symbols, rules):
        img = rules["D1"].apply(symbols.poly("c*R"))
        assert img.is_zero()

    def test_fresh_symbol_minted_deterministically(self, symbols, rules):
        img1 = rules["D2"].apply(symbols.poly("u2"))
        img2 = rules["D2"].apply(symbols.poly("u2"))
        assert img1 == img2 == symbols.poly("d2_u2_1")
        ((sym, _, row),) = rules["D2"].chain(symbols.poly("u2"))
        assert sym == "u2" and row.variables() == {"d2_u2_1"} <= rules["D2"].opaque()

    def test_opaque_symbols_pinned(self, rules):
        # read from the rows, so a typo in a row cannot pass as a new
        # undetermined derivative
        d2 = {"d2_u2_1", "d2v3", "d2v4"}
        assert rules["D1"].opaque() == set()
        assert rules["D2"].opaque() == d2
        assert rules["D3"].opaque() == {PERM_2_3[v] for v in d2} == \
            {"d3_u3_1", "d3o223", "d3o443"}
        assert rules["D4"].opaque() == {PERM_2_4[v] for v in d2} == \
            {"d4_u4_1", "d4o224", "d4o334"}

    def test_chain_skips_zero_rows(self, symbols, rules):
        # D2 kills H and c, so only u3 contributes to D2(H*u3 + c)
        p = symbols.poly("H*u3 + c")
        assert [(sym, d) for sym, d, _ in rules["D2"].chain(p)] == [("u3", symbols.poly("H"))]
        assert rules["D2"].apply(p) == symbols.poly("H*(u3 - u2)*v3")

    def test_missing_rule_is_error(self, symbols, rules):
        with pytest.raises(PolyError):
            rules["D1"].apply(symbols.poly("w243"))

    def test_leibniz_property(self, symbols, rules):
        rng = random.Random(31)
        names = ["H", "lam2", "lam3", "u2", "u3", "h1"]
        d1 = rules["D1"]
        for _ in range(40):
            p = _random_frame_poly(symbols, rng, names)
            q = _random_frame_poly(symbols, rng, names)
            lhs = d1.apply(p * q)
            ap = d1.apply(p)
            aq = d1.apply(q)
            assert lhs == ap * q + p * aq

    def test_permutation_tables_consistent(self, symbols, rules):
        # the direction-3 rule on lam2 is the 2<->3 image of the direction-2
        # rule on lam3, and the direction-4 rule on lam3 the 2<->4 image
        assert permute_polynomial(rules["D2"].rules["lam3"], PERM_2_3) == \
            rules["D3"].rules["lam2"]
        assert permute_polynomial(rules["D2"].rules["lam3"], PERM_2_4) == \
            rules["D4"].rules["lam3"]
        assert permute_polynomial(rules["D2"].rules["u3"], PERM_2_3) == \
            rules["D3"].rules["u2"]

    def test_defined_quantities_differentiate_consistently(self, registry, rules):
        # every operator's K and s rules are the Leibniz images of their
        # definitions, so the defining relations map to 0
        for name in ("D1", "D2", "D3", "D4"):
            for eid in ("K_def", "s_def"):
                img = rules[name].apply(registry.poly(eid))
                assert img.is_zero(), (name, eid)

    def test_defined_rows_as_once_typed(self, symbols, rules):
        # the computed K and s rows of D1 and D2 equal the text the tables
        # once stored for them
        typed = {
            ("D1", "K"): "lam3*lam4*(lam2 + 2*H)*u2 + lam2*lam4*(lam3 + 2*H)*u3"
                         " + lam2*lam3*(lam4 + 2*H)*u4",
            ("D1", "s"): "u2^2 + u3^2 + u4^2 - 2*H*(lam2 + lam3 + lam4) + 3*c",
            ("D2", "K"): "lam3*lam4*((lam2 - lam3)*v3 + (lam2 - lam4)*v4)"
                         " + lam2*lam4*(-(lam2 - lam3)*v3) + lam2*lam3*(-(lam2 - lam4)*v4)",
            ("D2", "s"): "d2_u2_1 + (u3 - u2)*v3 + (u4 - u2)*v4",
        }
        for (name, sym), text in typed.items():
            assert rules[name].rules[sym] == symbols.poly(text), (name, sym)

    def test_transverse_rows_as_once_typed(self, symbols, rules):
        # D1's direction-3/4 rows, computed through DIRECTIONS, equal the text
        # the table once stored for them
        typed = {"o223": "u2*o223", "o443": "u4*o443", "o224": "u2*o224", "o334": "u3*o334"}
        for sym, text in typed.items():
            assert rules["D1"].rules[sym] == symbols.poly(text), sym

    def test_permuted_saturation_ids(self, symbols):
        # the table lemma32 once carried by hand for the ids it permutes
        by_hand = {
            3: {"lam2_m_lam4": "lam3_m_lam4", "lam3_m_lam4": "lam2_m_lam4"},
            4: {"lam2_m_lam3": "lam3_m_lam4", "lam3_m_lam4": "lam2_m_lam3"},
        }
        records = nondegeneracy_records(symbols)
        for k, perm in DIRECTIONS.items():
            derived = permuted_saturation_ids(records, perm)
            for sid in ("lam2_m_lam3", "lam2_m_lam4", "lam3_m_lam4"):
                assert derived[sid] == by_hand.get(k, {}).get(sid, sid), (k, sid)

    def test_permutations_are_involutions(self, symbols):
        rng = random.Random(17)
        for perm in (PERM_2_3, PERM_2_4):
            for _ in range(20):
                p = _random_frame_poly(symbols, rng,
                                       ["lam2", "lam3", "lam4", "u2", "u3", "u4",
                                        "v3", "v4", "o223", "o443", "H"])
                assert permute_polynomial(permute_polynomial(p, perm), perm) == p

    def test_permutation_must_be_a_bijection(self, symbols):
        # a map that sends two variables to one would merge their exponents
        p = symbols.poly("u2*u3 + v3")
        for mapping in ({"u2": "u3"}, {"u2": "v9", "v9": "u2"}, {"v9": "v9"}):
            with pytest.raises(ValueError):
                permute_polynomial(p, mapping)


class TestConsistency:
    def test_all_checks_pass(self):
        run = StageRunner.paper("consistency", Config())
        run.rule_consistency()
        records = run.result.records
        assert len(records) == 5
        for rec in records:
            assert rec.status == "consistent", (rec.sid, rec.details)

    def test_rule_identities_zero(self, symbols, rules):
        # the printed second-derivative restatements expand to the zero
        # polynomial under the rules
        d1 = rules["D1"]
        mk = symbols.poly
        lam1 = mk("-2*H")
        d1_lam1 = d1.apply(lam1)
        for lam_name, u_name in (("lam2", "u2"), ("lam3", "u3"), ("lam4", "u4")):
            lam, u = symbols.var(lam_name), symbols.var(u_name)
            first = d1.apply(lam)
            second = d1.apply(first)
            combo = (second + u * d1_lam1 + 2 * (lam1 - lam) * u * u
                     + (lam1 - lam) * (lam1 * lam + mk("c")))
            assert combo.is_zero()

    def test_sign_convention_pinned(self, symbols, rules, registry):
        # flipping the sign of the principal-curvature rule must break (3.30)
        img = rules["D1"].apply(registry.poly("eq_3_11"))
        assert img != registry.poly("eq_3_30")
        assert img == -registry.poly("eq_3_30")


def test_index_permutations_stay_in_frame():
    # the e3/e4 symmetry is stated once, by the permutation maps in frame.py;
    # every other module reaches it through DIRECTIONS
    import curvelim.frame as frame
    package = Path(frame.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "frame.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("PERM_2_3", "PERM_2_4"):
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


def test_frame_takes_only_saturation_records_from_ideal():
    # frame.py holds the paper's data; the stage runner does the algebra on it
    import curvelim.frame as frame
    imported = [alias.name for node in ast.walk(ast.parse(Path(frame.__file__).read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "ideal"
                for alias in node.names]
    assert imported == ["SaturationRecord"]


def _random_frame_poly(symbols, rng, names):
    table = symbols.table
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * len(table)
        for n in rng.sample(names, k=min(2, len(names))):
            mono[table.index[n]] = rng.randint(0, 2)
        terms[tuple(mono)] = rng.randint(-5, 5)
    p = Polynomial(table, terms)
    if p.is_zero():
        return symbols.poly("H")
    return p
