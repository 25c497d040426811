"""Pipeline stages, printed matching, the endgame eliminator, and the script
format."""

import ast
import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest

import curvelim.exactpoly as exactpoly
import curvelim.frame as frame
import curvelim.ideal as ideal
import curvelim.oracle as oracle
import curvelim.pipeline as pipeline
from curvelim.exactpoly import DomainError, VarTable, parse_polynomial
from curvelim.frame import EquationRegistry, load_paper_symbols
from curvelim.ideal import Certificate, Limits
from curvelim.pipeline import (
    Config,
    ScriptError,
    StageRunner,
    chain_after_3_60,
    endgame_eliminate,
    match_printed,
    run_builtin,
    run_lemma31,
    run_lemma32,
    run_endgame,
    run_script,
)


@pytest.fixture(scope="module")
def symbols():
    return load_paper_symbols()


@pytest.fixture(scope="module")
def lemma32_result():
    return run_lemma32(Config())


@pytest.fixture(scope="module")
def theorem33_run():
    return run_builtin("theorem33", Config())


class TestMatchPrinted:
    def test_scalar_multiple(self, symbols):
        t = symbols.poly("4*s*h1 + 48*H^3")
        status, details = match_printed(2 * t, t)
        assert status == "matched-up-to-content"
        assert details["content_constant"] == "2"

    def test_sign(self, symbols):
        t = symbols.poly("u2 - u3")
        status, details = match_printed(-t, t)
        assert status == "matched-up-to-content"

    def test_planted_defect(self, symbols):
        t = symbols.poly("4*s*h1 + 48*H^3")
        status, details = match_printed(t + symbols.poly("H"), t)
        assert status == "mismatch"
        assert details["diff_term_count"] >= 1

    def test_exact(self, symbols):
        t = symbols.poly("u2")
        assert match_printed(t, t)[0] == "matched"


class TestEndgameEliminate:
    def test_two_by_two(self, symbols):
        p, q = symbols.poly("K - H"), symbols.poly("K + H")
        elim, trace = endgame_eliminate(p, q)
        assert elim == symbols.poly("H")  # content-normalized 2*H
        assert trace["mode"] == "sylvester-resultant"

    def test_common_factor(self, symbols):
        elim, _ = endgame_eliminate(symbols.poly("K^2"), symbols.poly("K"))
        assert elim.is_zero()

    def test_degenerate_rejected(self, symbols):
        with pytest.raises(DomainError):
            endgame_eliminate(symbols.poly("H"), symbols.poly("K"))

    def test_eliminant_and_samples_over_the_paper_table(self, symbols, theorem33_run):
        # the samples are specialised over the eliminant's own variables and
        # equal those of the eliminant over the paper table, which it stays on
        stage = run_endgame(Config(seed=7), theorem33_run.stages[0])
        elim = stage.derived["eliminant"]
        assert elim.table == symbols.table
        assert elim.degree_in("H") == 40 and len(elim.terms) == 190
        assert elim.coeff_in("H", 40) == symbols.poly("3281523844472221106566866083194283577311232")
        rng = random.Random(7)
        expected = []
        for cval in (-1, 0, 1):
            at_c = elim.substitute("c", cval)
            for _ in range(5):
                rval = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
                spec = at_c.substitute("R", rval)
                expected.append({"c": cval, "R": str(rval),
                                 "status": "zero" if spec.is_zero() else "nonzero",
                                 "H_degree": spec.degree_in("H")})
        (rec,) = [r for r in stage.records if r.sid == "eliminant_samples"]
        assert rec.details["samples"] == expected

    @pytest.mark.parametrize("pair, status, degree", [
        (("K - H", "K + H"), "nonzero", 1),  # an eliminant free of c and R
        (("K^2", "K"), "zero", -1),
    ])
    def test_samples_of_an_eliminant_without_c_or_r(self, symbols, pair, status, degree):
        derived = dict(zip(("eq_3_62_derived", "eq_3_65_derived"), map(symbols.poly, pair)))
        stage = run_endgame(Config(), pipeline.StageResult("theorem33", derived=derived))
        (rec,) = [r for r in stage.records if r.sid == "eliminant_samples"]
        assert [(s["status"], s["H_degree"]) for s in rec.details["samples"]] == \
            [(status, degree)] * 15


class TestLemma31:
    def test_all_green(self):
        res = run_lemma31(Config())
        assert res.verdict() == "success"
        claimed = {r.sid for r in res.records if r.status == "verified"}
        # the five elimination families are all present
        for fam, count in (("eq_3_12", 4), ("eq_3_13", 3), ("eq_3_14", 6),
                           ("eq_3_15", 6), ("eq_3_16", 6)):
            assert sum(1 for s in claimed if s.startswith(fam)) == count

    def test_saturation_powers_minimal(self):
        res = run_lemma31(Config())
        for r in res.records:
            assert r.multiplier_power <= 1


class TestLemma32:
    def test_verdict(self, lemma32_result):
        assert lemma32_result.verdict() == "success"

    def test_branches_close_in_all_directions(self, lemma32_result):
        closed = [r.sid for r in lemma32_result.records if r.status == "branch-closed"]
        assert len(closed) == 6  # two hypotheses per direction, three directions

    def test_conclusions_exported(self, lemma32_result):
        concluded = {r.details["conclusion"] for r in lemma32_result.records
                     if r.kind == "case_split"}
        assert concluded == {f"{name} = 0" for name in
                             ("v3", "v4", "o223", "o443", "o224", "o334")}

    def test_fresh_symbol_cancels(self, lemma32_result):
        recs = {r.sid: r for r in lemma32_result.records}
        assert recs["eq_3_33"].details.get("fresh_symbol_cancelled") is True
        assert recs["eq_3_33"].fresh_cancelled == ["d2_u2_1"]

    def test_branch_closure_uses_unit_certificate(self, lemma32_result):
        ident = lemma32_result.identities["branch_v3_nonzero_close"]
        assert ident.target.total_degree() == 0 and not ident.target.is_zero()
        assert ident.power >= 1  # saturated by e_1(H)

    def test_derived_images_match_printed(self, lemma32_result):
        recs = {r.sid: r for r in lemma32_result.records}
        for sid in ("match_eq_3_30", "match_eq_3_34", "match_eq_3_35",
                    "e3_match_eq_3_34", "e4_match_eq_3_35"):
            assert recs[sid].status == "matched-up-to-content", sid


def _runs_built(mp):
    """Record the key of every Buchberger run built: its generator
    polynomials, order and ceilings."""
    keys = []
    real = ideal._Buchberger.__init__

    def recording(run, polys, order, limits):
        keys.append((polys, order, limits))
        real(run, polys, order, limits)

    mp.setattr(ideal._Buchberger, "__init__", recording)
    return keys


class TestBasisReuse:
    def test_lemma32_builds_each_basis_once(self, monkeypatch):
        # the case branches re-claim the same algebra under new ids, and the
        # e3/e4 replays carry the e2 certificates over; the stage's cache
        # builds each run once, for 25 claims.  The 6 eliminations are
        # certified members and build none
        runs = _runs_built(monkeypatch)
        assert run_lemma32(Config()).verdict() == "success"
        assert len(set(runs)) == len(runs)
        assert len(runs) == 15

    def test_theorem33_builds_each_basis_once(self, theorem33_work):
        # the eq_3_55 consistency check and the eq_3_55 claim share one run
        runs = theorem33_work["runs"]
        assert len(set(runs)) == len(runs)
        assert len(runs) == 13


# every arithmetic operator of ``Fraction``
_FRACTION_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                 "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__pos__",
                 "__neg__", "__abs__"]


@pytest.fixture(scope="module")
def theorem33_work():
    """A theorem33 replay: the key of each Buchberger run built (``runs``),
    and for each ``membership`` call its generator ids, the number of
    ``_divide`` calls and the number of ``Fraction`` operations made while
    it ran (``claims``)."""
    claims = []
    divides = [0]
    fraction_ops = [0]
    real_membership, real_divide = ideal.membership, ideal._divide

    def counting(*args):
        divides[0] += 1
        return real_divide(*args)

    def counted(real):
        def op(*args):
            fraction_ops[0] += 1
            return real(*args)
        return op

    def recording(p, gens, *args, **kwargs):
        before = divides[0], fraction_ops[0]
        cert = real_membership(p, gens, *args, **kwargs)
        claims.append((gens.ids(), divides[0] - before[0], fraction_ops[0] - before[1]))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        runs = _runs_built(mp)
        mp.setattr(pipeline, "membership", recording)
        mp.setattr(ideal, "_divide", counting)
        for name in _FRACTION_OPS:
            mp.setattr(Fraction, name, counted(getattr(Fraction, name)))
        assert run_builtin("theorem33", Config()).verdict() == "documented-discrepancy"
    return {"runs": runs, "claims": claims}


class TestGroebnerWork:
    def test_eq_3_60_basis_reduces_each_element_once(self, theorem33_work):
        # the claim stops at its certificate: one division per generator
        # (11), one per S-pair the run takes before the target's remainder
        # is zero (3, each adding an element), and 4 of the target (one
        # first, then one after each new element whose leading monomial
        # divides a term of the remainder); the full 26-element basis, with
        # its inter-reduction, made 69
        (count,) = [n for ids, n, _ in theorem33_work["claims"] if "t60" in ids]
        assert count == 18

    def test_eq_3_60_basis_runs_in_integers(self, theorem33_work):
        # fraction-free division, integral S-polynomials and integer
        # provenance: no Fraction operation in the whole claim; the
        # cofactors are made rational at the end by Fraction's constructor
        (ops,) = [n for ids, _, n in theorem33_work["claims"] if "t60" in ids]
        assert ops == 0


class TestEndgameWork:
    def test_eliminate_k_runs_three_steps_and_two_divisions(self, theorem33_run, monkeypatch):
        # K-degrees 3 and 4: the subresultant chain makes one pseudo-remainder
        # per degree step and divides the second and third by g*h**delta; the
        # Sylvester determinant by Bareiss made 91 exact divisions.  The
        # chain runs over the four variables the pair uses, H, R, c and K,
        # not the paper table's 30
        derived = theorem33_run.stages[0].derived
        calls = {"exact_divide": 0, "pseudo_rem": 0}
        widths = []
        for name in calls:
            real = getattr(exactpoly.Polynomial, name)

            def counting(poly, *args, _real=real, _name=name):
                calls[_name] += 1
                if _name == "pseudo_rem":
                    widths.append(len(poly.table))
                return _real(poly, *args)
            monkeypatch.setattr(exactpoly.Polynomial, name, counting)
        endgame_eliminate(derived["eq_3_62_derived"], derived["eq_3_65_derived"])
        assert calls == {"exact_divide": 2, "pseudo_rem": 3}
        assert widths == [4, 4, 4]


class TestStageIndependence:
    def test_theorem_chain_does_not_need_lemma31(self, theorem33_run):
        # the main stage re-verifies its inputs from axioms plus the exported
        # conclusions; running it standalone gives the same verdict
        res = theorem33_run
        assert res.stages[0].verdict() == "documented-discrepancy"
        steps = {r.sid: r.status for r in res.stages[0].records}
        assert steps["eq_3_53"] == "verified"
        assert steps["match_eq_3_62"] == "mismatch-documented"


class TestPrintedChain:
    def test_printed_3_60_inherits_through_the_same_chain(self):
        # the chain after (3.60), run on the printed (3.60) as a hypothesis,
        # reaches the printed (3.61), (3.62) and (3.64) and a nonzero eliminant
        run = StageRunner.paper("printed", Config())
        for rid in ("eq_3_53", "eq_3_59", "K_def", "s_def"):
            run.assume(rid, run.printed(rid), "", "")
        printed_60 = run.printed("eq_3_60")
        run.assume("eq_3_60_derived", printed_60, "", "")
        assert chain_after_3_60(run, printed_60) is not None
        records = {r.sid: r for r in run.result.records}
        assert records["match_eq_3_61"].status == "matched"
        assert records["match_eq_3_62"].status == "matched-up-to-content"
        assert records["match_eq_3_62"].details["content_constant"] == "1/2"
        assert records["match_eq_3_64"].status == "matched"
        endgame = {r.sid: r for r in run_endgame(Config(), run.result).records}
        assert endgame["eliminant_nonzero"].status == "nonzero"
        assert endgame["eliminant_nonzero"].details["H_degree"] == 40
        assert endgame["eliminate_K"].details["resultant_terms"] == 190


class TestCertificates:
    def test_every_identity_is_a_certificate(self, lemma32_result, theorem33_run):
        # claims, chain-rule images, the (3.61) resultant and the (3.62)/(3.65)
        # chain derivatives all carry the one certificate type
        stages = [lemma32_result] + theorem33_run.stages
        idents = [i for s in stages for i in s.identities.values()]
        assert {"eq_3_61_derived", "eq_3_62_derived", "eq_3_65_derived",
                "t60"} <= set(theorem33_run.stages[0].identities)
        assert all(isinstance(i, Certificate) for i in idents)


class TestEliminateW:
    def test_members_of_the_elimination_ideal(self, theorem33_run):
        recs = {r.sid: r for r in theorem33_run.stages[0].records}
        assert recs["eliminate_w"].status == "verified"
        assert recs["eliminate_w"].details["members"] == ["eq_3_48", "eq_3_49"]

    def test_corrupted_member_fails_the_step(self, monkeypatch):
        patched = [frame.RegistryEntry(e.eid, e.text.replace("24*H^2", "25*H^2"), e.citation,
                                       e.quote, e.role, e.note)
                   if e.eid == "eq_3_48" else e for e in frame._REGISTRY]
        monkeypatch.setattr(frame, "_REGISTRY", patched)
        rr = run_builtin("theorem33", Config(trials=2))
        recs = {r.sid: r for r in rr.stages[0].records}
        assert recs["eq_3_48"].status == "not-member"
        assert recs["eliminate_w"].status == "failure"
        assert "eq_3_48" in recs["eliminate_w"].details["error"]
        assert rr.verdict() == "failure"


_ET = VarTable(["t", "x", "y"])


@pytest.mark.parametrize("claimed, via, error", [
    (("y - x^2", ["g1", "g2"], []), ["g1", "g2"], None),
    (None, ["g1", "g2"], "m is not certified"),
    (("y", ["h"], ["x_nz"]), ["h"], "m is certified at multiplier power 2"),
    (("y - x^2", ["g1", "g2"], []), ["g1"], "m is certified over ['g2'], outside ['g1']"),
    (("x - t", ["g1"], []), ["g1"], "m contains an eliminated variable"),
], ids=["member", "uncertified", "saturated", "outside-via", "not-eliminated"])
def test_eliminated_members(claimed, via, error):
    # t is eliminated from <x - t, y - t^2>; y - x^2 = g2 - (x + t)*g1 is a
    # member.  "m" is added unclaimed, or claimed over the given relations
    # and saturations (y is in <x^2*y> only at power 2 of x)
    def p(text):
        return parse_polynomial(text, _ET)

    run = pipeline.StageRunner("custom", Config(trials=2), _ET,
                               [ideal.SaturationRecord("x_nz", p("x"), "test")])
    for rid, text in (("g1", "x - t"), ("g2", "y - t^2"), ("h", "x^2*y")):
        run.add(rid, p(text))
    if claimed is None:
        run.add("m", p("y - x^2"))
    else:
        target, claim_via, sats = claimed
        assert run.claim("m", p(target), claim_via, sats) is not None
    run.eliminated_members("elim", ["m"], via, ["t"])
    rec = run.result.records[-1]
    assert (rec.sid, rec.kind, rec.details["members"]) == ("elim", "eliminate_vars", ["m"])
    if error is None:
        assert rec.status == "verified" and "error" not in rec.details
    else:
        assert rec.status == "failure" and error in rec.details["error"]


def test_builtin_replay_finishes_no_groebner_basis(monkeypatch):
    # every elimination of the replay is a certified member, and every claim
    # stops at its certificate, so no basis is finished
    def refuse(*args, **kwargs):
        raise AssertionError("the built-in replay finished a Groebner basis")

    for module, name in ((ideal, "groebner"), (ideal, "eliminate"), (pipeline, "eliminate")):
        monkeypatch.setattr(module, name, refuse)
    rr = run_builtin("all", Config())
    assert rr.verdict() == "documented-discrepancy"
    assert len(rr.oracle) == 137


def _corrupt(monkeypatch, eid, extra_text):
    """Append ``extra_text`` to the printed transcription of ``eid``."""
    patched = [frame.RegistryEntry(e.eid, e.text + extra_text, e.citation, e.quote, e.role, e.note)
               if e.eid == eid else e for e in frame._REGISTRY]
    monkeypatch.setattr(frame, "_REGISTRY", patched)


@pytest.mark.parametrize("make, field", [
    (lambda: Limits(), "max_basis"),
    (lambda: oracle.SpotCheckConfig(), "trials"),
    (lambda: ideal.SaturationRecord("h", load_paper_symbols().poly("h1"), "e_1(H) != 0"),
     "multiplier"),
    (lambda: frame._REGISTRY[0], "text"),
    (lambda: frame.load_paper_axioms(load_paper_symbols())[0], "poly"),
    (lambda: ideal.Relation("r", load_paper_symbols().poly("h1")), "poly"),
    (lambda: Config(), "limits"),
], ids=["Limits", "SpotCheckConfig", "SaturationRecord", "RegistryEntry", "Axiom",
        "Relation", "Config"])
def test_shared_records_refuse_assignment(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


@pytest.mark.parametrize("make, field", [
    (lambda: oracle.SpotCheckResult("c", 2), "failures"),
    (lambda: pipeline.RunResult([], Config()), "oracle"),
    (lambda: pipeline.StepRecord("s", "assume", "c", "q", "assumed"), "fresh_minted"),
    (lambda: pipeline.StepRecord("s", "assume", "c", "q", "assumed"), "fresh_cancelled"),
], ids=["SpotCheckResult", "RunResult", "StepRecord-minted", "StepRecord-cancelled"])
def test_mutable_records_get_a_fresh_list_each(make, field):
    first, second = make(), make()
    getattr(first, field).append("x")
    assert getattr(second, field) == []


class TestFailedStepsAreRecords:
    @pytest.mark.parametrize("stage", ["lemma32", "theorem33"])
    def test_trace_relation_without_a_rule(self, monkeypatch, stage):
        # D1 has no rule for w243, so differentiating (3.11) fails and the
        # match that compares its image has nothing to compare
        _corrupt(monkeypatch, "eq_3_11", " + w243")
        rr = run_builtin(stage, Config(trials=2))
        recs = {r.sid: r for r in rr.stages[0].records}
        assert rr.verdict() == "failure"
        assert recs["d1_eq_3_11"].status == "failure"
        assert recs["match_eq_3_30"].status == "failure"

    def test_corrupted_printed_eq_3_34(self, monkeypatch):
        _corrupt(monkeypatch, "eq_3_34", " + v3*v4")
        rr = run_builtin("lemma32", Config(trials=2))
        recs = {r.sid: r for r in rr.stages[0].records}
        assert rr.verdict() == "failure"
        assert recs["match_eq_3_34"].status == "mismatch-documented"
        assert recs["match_eq_3_34"].details["registry_id"] == "eq_3_34"
        assert recs["eq_3_34"].status == "not-member"
        assert recs["match_eq_3_35"].status == "failure"

    @pytest.mark.parametrize("eid, later", [("eq_3_11", "d1_eq_3_11"),
                                             ("eq_3_33", "e4_eq_3_33"),
                                             ("eq_3_40", "branch_v3_nonzero_eq_3_41")])
    def test_unparseable_transcription(self, monkeypatch, eid, later):
        # the transcription is parsed inside the step that uses it, so the
        # parse error is that step's failure and the stage runs to its end
        _corrupt(monkeypatch, eid, " +* v3")
        rr = run_builtin("lemma32", Config(trials=2))
        recs = {r.sid: r for r in rr.stages[0].records}
        assert rr.verdict() == "failure"
        assert recs[eid].status == recs[later].status == "failure"
        assert "position" in recs[eid].details["error"]
        assert recs["e4_lambda_const"].status == "annotation"

    def test_unparseable_paper_axiom(self, monkeypatch):
        # each paper axiom is parsed inside its assume step
        _corrupt(monkeypatch, "eq_3_24", " +* v3")
        rr = run_builtin("theorem33", Config(trials=2))
        recs = {r.sid: r for r in rr.stages[0].records}
        assert recs["eq_3_24"].status == "failure"
        assert "position" in recs["eq_3_24"].details["error"]
        assert recs["eq_3_25"].status == "assumed"
        assert rr.verdict() == "failure"

    def test_lost_s_pair_is_a_failure_not_a_refutation(self, monkeypatch):
        # Groebner loses the pair of x^2 - y and x*y - 1, whose S-polynomial
        # is the target; without the check on the basis the claim would read
        # not-member
        real_push = ideal.heappush

        def lossy_push(queue, entry):
            if entry[1:] != (0, 1):
                real_push(queue, entry)

        monkeypatch.setattr(ideal, "heappush", lossy_push)
        text = """
SYMBOLS x y
AXIOM g1 | x^2 - y | toy | x^2 = y
AXIOM g2 | x*y - 1 | toy | x*y = 1
STAGE toy
STEP s1 assume g1
STEP s2 assume g2
STEP s3 assert_member y^2 - x USING g1,g2
"""
        result = run_script(text, Config())
        rec = {r.sid: r for r in result.stages[0].records}["s3"]
        assert rec.status == "failure"
        assert "internal error" in rec.details["error"]
        assert result.verdict() == "failure"

    def test_ceiling_reaches_rule_consistency(self):
        rr = run_builtin("theorem33", Config(trials=2, limits=Limits(max_basis=1)))
        recs = {r.sid: r for r in rr.stages[0].records}
        assert recs["eq_3_55"].status == "resource-fail"
        assert recs["consistency_eq_3_55"].status == "resource-fail"
        assert rr.verdict() == "resource-fail"

    def test_records_are_made_only_by_the_step_path(self):
        # no StepRecord is built, and no stage's records are written, outside
        # StageRunner; StageResult's constructor only starts the list
        tree = ast.parse(Path(pipeline.__file__).read_text())
        runner, result = (next(n for n in tree.body
                               if isinstance(n, ast.ClassDef) and n.name == name)
                          for name in ("StageRunner", "StageResult"))
        init = next(n for n in result.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__")
        inside = {id(n) for n in ast.walk(runner)} | {id(n) for n in ast.walk(init)}
        offenders = []
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "StepRecord"):
                offenders.append(f"line {node.lineno}: StepRecord(")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [node.func] if isinstance(node, ast.Call) else [])
            for target in targets:
                if any(isinstance(a, ast.Attribute) and a.attr == "records"
                       for a in ast.walk(target)):
                    offenders.append(f"line {node.lineno}: writes into records")
        assert offenders == []


class TestOracleInVerdict:
    def test_library_run_reports_the_sweep(self):
        rr = run_builtin("lemma31", Config(trials=5))
        rep = rr.report()
        assert rep["oracle"]["checked"] == len(rr.identities()) > 0
        assert rep["oracle"]["trials"] == 5 and rep["oracle"]["failed"] == []
        assert rep["verdict"] == "success"

    @staticmethod
    def _failing(monkeypatch, bad):
        """Make the spot check labelled ``bad`` fail.  The sweep calls
        ``oracle.check_certificate`` once per certificate, with keyword
        arguments after the certificate."""
        real = oracle.check_certificate

        def one_fails(cert, **kwargs):
            res = real(cert, **kwargs)
            if kwargs["label"] == bad:
                res.failures.append({"label": bad})
            return res

        monkeypatch.setattr(oracle, "check_certificate", one_fails)

    def test_oracle_failure_fails_the_verdict(self, monkeypatch):
        bad = "lemma31.eq_3_12_w111"
        self._failing(monkeypatch, bad)
        rr = run_builtin("lemma31", Config(trials=2))
        assert rr.verdict() == "failure"
        assert rr.report()["oracle"]["failed"] == [bad]

    def test_oracle_failure_outranks_a_documented_discrepancy(self, monkeypatch):
        # theorem33 alone reads documented-discrepancy; a failed spot check
        # sits above that rung of the ladder
        bad = "theorem33.eq_3_53"
        self._failing(monkeypatch, bad)
        rr = run_builtin("theorem33", Config(trials=2))
        assert rr.stages[0].verdict() == "documented-discrepancy"
        assert rr.report()["oracle"]["failed"] == [bad]
        assert rr.verdict() == "failure"
        assert rr.report()["verdict"] == "failure"


class TestScriptFormat:
    def test_empty_script(self):
        result = run_script("", Config())
        assert result.stages == []
        assert result.verdict() == "success"

    def test_unknown_axiom_id_named(self):
        text = "SYMBOLS x y\nSTAGE s\nSTEP a assume nope\n"
        with pytest.raises(ScriptError) as err:
            run_script(text, Config())
        assert "nope" in str(err.value)

    def test_parse_error_carries_line(self):
        with pytest.raises(ScriptError) as err:
            run_script("SYMBOLS x\nGARBAGE\n")
        assert err.value.line == 2

    def test_small_script_runs(self):
        text = """
# toy elimination: a parabola from its parametrization
SYMBOLS t x y
AXIOM ax1 | x - t | toy | x = t
AXIOM ax2 | y - t^2 | toy | y = t^2
STAGE toy
STEP s1 assume ax1
STEP s2 assume ax2
STEP s3 eliminate_vars t FROM ax1,ax2
STEP s4 assert_member y - x^2 USING ax1,ax2
STEP s5 assert_nonzero ax1
STEP s6 annotate parabola verified
"""
        result = run_script(text, Config())
        assert result.verdict() == "success"
        statuses = {r.sid: r.status for r in result.stages[0].records}
        assert statuses["s4"] == "verified"
        assert statuses["s5"] == "nonzero"

    def test_paper_symbols_script(self):
        text = """
SYMBOLS paper
STAGE demo
STEP a1 assume eq_3_11
STEP a2 derive D1 eq_3_11
STEP a3 assert_member @eq_3_30 USING a2
STEP a4 match_printed a3 @eq_3_30
"""
        result = run_script(text, Config())
        assert result.verdict() == "success"
        statuses = {r.sid: r.status for r in result.stages[0].records}
        assert statuses["a3"] == "verified"
        assert statuses["a4"] == "matched"

    def test_registry_target_carries_the_registry_citation(self, theorem33_run):
        text = """
SYMBOLS paper
STAGE demo
STEP a assume eq_3_11
STEP d derive D1 eq_3_11
STEP c assert_member @eq_3_30 USING d
STEP m match_printed c @eq_3_30
"""
        records = {r.sid: r for r in run_script(text, Config()).stages[0].records}
        (replay,) = [r for r in theorem33_run.stages[0].records if r.sid == "eq_3_30"]
        cited = (replay.citation, replay.quote)
        assert cited[0] == "eq (3.30)" and cited[1]
        assert (records["c"].citation, records["c"].quote) == cited
        assert (records["m"].citation, records["m"].quote) == cited

    @pytest.mark.parametrize("text", [
        "SYMBOLS x\nAXIOM ax | x | toy | x\nSTAGE s\nSTEP a assume ax\n"
        "STEP m match_printed ax @eq_3_30\n",
        "SYMBOLS paper\nSTAGE s\nSTEP a assume eq_3_11\nSTEP b assume eq_3_3\n"
        "STEP m match_printed eq_3_11 @eq_9_99\n",
    ], ids=["custom-symbols", "unknown-id"])
    def test_match_printed_bad_registry_id_names_line(self, text):
        with pytest.raises(ScriptError) as err:
            run_script(text, Config())
        assert err.value.line == 5
        assert "unknown registry id" in str(err.value)

    def test_saturation_directive(self):
        text = """
SYMBOLS a b
SATURATION a_nz | a | planted nonzero
STAGE s
AXIOM ax | a*b | toy | ab
STEP s1 assume ax
STEP s2 assert_member b USING ax SAT a_nz
"""
        with pytest.raises(ScriptError):
            run_script(text + "\nSYMBOLS again\n")
        result = run_script(text, Config())
        rec = result.stages[0].records[-1]
        assert rec.status == "verified"
        assert rec.multiplier_power == 1


class TestReportShape:
    def test_report_fields(self, lemma32_result):
        from curvelim.pipeline import RunResult
        rr = RunResult([lemma32_result], Config())
        rep = rr.report()
        assert set(rep) >= {"engine_version", "seed", "stages", "verdict",
                            "canonical_digest"}
        stage = rep["stages"][0]
        assert set(stage) >= {"name", "steps"}
        step = stage["steps"][0]
        for key in ("id", "citation", "quote", "status", "certificate_digest",
                    "multiplier_power", "timing_ms"):
            assert key in step

    def test_canonical_digest_ignores_timing(self, lemma32_result):
        import json
        from curvelim.pipeline import RunResult, canonical_digest
        rr = RunResult([lemma32_result], Config())
        rep = rr.report()
        clone = json.loads(json.dumps(rep))
        clone["stages"][0]["steps"][0]["timing_ms"] = 123456
        assert canonical_digest(clone) == rep["canonical_digest"]


class TestScriptResolution:
    """A script is resolved, every stage of it, before any stage runs: shape
    errors raise ScriptError naming their line, while a relation that is
    unknown or never produced, and a transcription that does not parse, are
    read inside the step and become failure records."""

    TWO_STAGES = ("SYMBOLS x y\nAXIOM ax | x | toy | x\n"
                  "STAGE one\nSTEP a assume ax\nSTEP b assert_member x*y USING ax\n"
                  "STAGE two\n")

    def _counting_membership(self, monkeypatch):
        calls = []
        real = pipeline.membership

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "membership", counted)
        return calls

    def test_unknown_axiom_in_a_later_stage_raises_before_any_membership(self, monkeypatch):
        calls = self._counting_membership(monkeypatch)
        with pytest.raises(ScriptError) as err:
            run_script(self.TWO_STAGES + "STEP c assume ghost\n", Config(trials=2))
        assert err.value.line == 7 and "ghost" in str(err.value)
        assert calls == []
        run_script(self.TWO_STAGES + "STEP c assume ax\n", Config(trials=2))
        assert len(calls) == 1

    @pytest.mark.parametrize("text", [
        "SYMBOLS x y\nAXIOM ax | x | toy | x\nSTAGE s\nSTEP a assume ax\n"
        "STEP c assert_member y USING ax\nSTEP d assert_nonzero c\n",
        "SYMBOLS x y\nAXIOM ax | x | toy | x\nSTAGE s\nSTEP a assume ax\n"
        "STEP c assert_member y USING ax\nSTEP d eliminate_vars x FROM ax,c\n",
        "SYMBOLS x y\nAXIOM ax | x | toy | x\nSTAGE s\nSTEP a assume ax\n"
        "STEP c assert_member y USING ax\nSTEP d assert_member x*y USING ax,c\n",
        "SYMBOLS paper\nSTAGE s\nSTEP a assume eq_3_11\nSTEP d derive D1 c\n",
        "SYMBOLS paper\nSTAGE s\nSTEP a assume eq_3_11\nSTEP d match_printed c @eq_3_30\n",
    ], ids=["assert_nonzero", "eliminate_vars", "assert_member", "derive", "match_printed"])
    def test_missing_relation_is_a_failure_record(self, text):
        result = run_script(text, Config(trials=2))
        recs = {r.sid: r for r in result.stages[0].records}
        assert recs["d"].status == "failure"
        assert "'c'" in recs["d"].details["error"]
        assert result.verdict() == "failure"

    def test_unparseable_transcription_is_a_failure_record(self, monkeypatch):
        _corrupt(monkeypatch, "eq_3_30", " +* v3")
        text = ("SYMBOLS paper\nSTAGE s\nSTEP a1 assume eq_3_11\nSTEP a2 derive D1 eq_3_11\n"
                "STEP a3 assert_member @eq_3_30 USING a2\nSTEP a4 match_printed a2 @eq_3_30\n")
        result = run_script(text, Config(trials=2))
        statuses = {r.sid: r.status for r in result.stages[0].records}
        assert statuses == {"eq_3_11": "assumed", "a2": "verified",
                            "a3": "failure", "a4": "failure"}

    def test_unparseable_paper_axiom_is_a_failure_record(self, monkeypatch):
        _corrupt(monkeypatch, "eq_3_24", " +* v3")
        text = "SYMBOLS paper\nSTAGE s\nSTEP a assume eq_3_24\nSTEP b assume eq_3_25\n"
        result = run_script(text, Config(trials=2))
        statuses = {r.sid: r.status for r in result.stages[0].records}
        assert statuses == {"eq_3_24": "failure", "eq_3_25": "assumed"}
        assert result.verdict() == "failure"

    def test_derive_records_the_opaque_symbols_of_a_computed_row(self):
        # D2's row of s is computed from s_def and brings in d2_u2_1
        text = ("SYMBOLS paper\nAXIOM t | s*h1 | toy | s h1 vanishes\n"
                "STAGE s\nSTEP a1 assume t\nSTEP a2 derive D2 t\n")
        recs = {r.sid: r for r in run_script(text, Config(trials=2)).stages[0].records}
        assert recs["a2"].status == "verified"
        assert "d2_u2_1" in recs["a2"].certificate.target.variables()
        assert recs["a2"].fresh_minted == ["d2_u2_1"]

    @pytest.mark.parametrize("text, opaque", [
        ("SYMBOLS d2_x y\nAXIOM ax | d2_x - y | toy | d2_x = y\n"
         "STAGE s\nSTEP a assume ax\nSTEP b assert_member d2_x - y USING ax\n", None),
        ("SYMBOLS paper\nSTAGE s\nSTEP a assume eq_3_24\n"
         "STEP b assert_member @eq_3_24 USING eq_3_24\n", ["d2v3", "d3o223"]),
    ], ids=["custom-symbols", "paper"])
    def test_opaque_symbols_in_a_claim_target_are_the_rule_tables(self, text, opaque):
        # a custom script has no rule tables, so a d2_ name is no opaque symbol
        recs = {r.sid: r for r in run_script(text, Config(trials=2)).stages[0].records}
        assert recs["b"].status == "verified"
        assert recs["b"].details.get("fresh_symbols_in_target") == opaque

    def test_script_axiom_shadows_a_paper_axiom(self):
        text = ("SYMBOLS paper\nAXIOM eq_3_11 | H | mine | H vanishes\n"
                "STAGE s\nSTEP a assume eq_3_11\nSTEP b assume eq_3_3\n")
        recs = run_script(text, Config(trials=2)).stages[0].records
        assert [(r.sid, r.citation, r.status) for r in recs] == [
            ("eq_3_11", "mine", "assumed"), ("eq_3_3", "eq (3.3) with (3.2)", "assumed")]

    def test_paper_axiom_keeps_the_replay_note(self, theorem33_run):
        text = "SYMBOLS paper\nSTAGE s\nSTEP a assume eq_3_29\n"
        (rec,) = run_script(text, Config(trials=2)).stages[0].records
        (replayed,) = [r for r in theorem33_run.stages[0].records if r.sid == "eq_3_29"]
        assert replayed.details["note"]
        assert (rec.citation, rec.quote, rec.details) == \
            (replayed.citation, replayed.quote, {"note": replayed.details["note"]})

    def test_script_may_not_rebind_a_paper_saturation(self):
        text = ("SYMBOLS paper\nSATURATION mine | lam2 | mine\n"
                "SATURATION h1_nonzero | lam2 | mine\nSTAGE s\nSTEP a assume eq_3_11\n")
        with pytest.raises(ScriptError) as err:
            run_script(text, Config(trials=2))
        assert err.value.line == 3
        assert "'h1_nonzero' rebinds a paper saturation" in str(err.value)

    def test_step_timings_ignore_a_wall_clock_running_backwards(self, monkeypatch):
        clock = iter(range(10 ** 9, 0, -1000))
        monkeypatch.setattr(pipeline.time, "time", lambda: next(clock))
        text = ("SYMBOLS x y\nAXIOM ax | x | toy | x\nSTAGE s\nSTEP a assume ax\n"
                "STEP b assert_member x*y USING ax\nSTEP c annotate done\n")
        recs = run_script(text, Config(trials=2)).stages[0].records
        assert len(recs) == 3
        assert all(r.timing_ms >= 0 for r in recs)

    @pytest.mark.parametrize("arg", ["", " a b"], ids=["none", "two"])
    def test_assert_nonzero_takes_one_relation(self, arg):
        text = ("SYMBOLS x\nAXIOM a | x | toy | x\nAXIOM b | x | toy | x\n"
                f"STAGE s\nSTEP d assert_nonzero{arg}\n")
        with pytest.raises(ScriptError) as err:
            run_script(text, Config(trials=2))
        assert err.value.line == 5
        assert "assert_nonzero wants one relation id" in str(err.value)

    @pytest.mark.parametrize("text, line, words", [
        ("SYMBOLS x\nSTAGE s\nSTEP a annotate one\nSTAGE t\nSTAGE s\n", 5, "duplicate STAGE"),
        ("SYMBOLS x\nSTAGE s\nSTEP a annotate one\nSTEP a annotate two\n", 4, "duplicate step"),
        ("SYMBOLS x y\nWEIGHTS 1\n", 2, "WEIGHTS gives 1 weights for 2"),
        ("WEIGHTS 1 2\nSYMBOLS x y z\n", 1, "WEIGHTS gives 2 weights for 3"),
        ("SYMBOLS paper\nWEIGHTS 1\n", 2, "WEIGHTS needs a custom SYMBOLS"),
        ("# no SYMBOLS line: the paper world\nWEIGHTS 1\n", 2, "WEIGHTS needs a custom SYMBOLS"),
        ("# a repeated name\nSYMBOLS x y x\n", 2, "duplicate variable names"),
        ("SYMBOLS x y\nWEIGHTS 1 -1\n", 2, "WEIGHTS must be nonnegative"),
        ("SYMBOLS x y\nWEIGHTS 1 1\nWEIGHTS 2 1\nAXIOM a | x*y | t | q\nSTAGE s\n"
         "STEP s1 assume a\nSTEP s2 assert_member x^2*y USING a\n", 3, "duplicate WEIGHTS line"),
        ("SYMBOLS x y\nAXIOM a | x | toy | x\nAXIOM a | y | toy | y\n"
         "STAGE s\nSTEP s1 assume a\n", 3, "duplicate AXIOM id 'a'"),
        ("SYMBOLS x y\nSATURATION n | x | toy\nSATURATION n | y | toy\n", 3,
         "duplicate SATURATION id 'n'"),
        ("SYMBOLS a b\nAXIOM prod | a*b | toy | ab\nSTAGE s\nSTEP s1 assume prod\n"
         "STEP s2 assert_member b USING prod SAT\n", 5, "SAT wants saturation ids"),
    ], ids=["stage", "step", "weights-short", "weights-first", "weights-paper",
            "weights-default-paper", "symbols-repeated", "weights-negative",
            "weights-repeated", "axiom-repeated", "saturation-repeated", "sat-dangling"])
    def test_shape_errors_name_their_line(self, text, line, words):
        with pytest.raises(ScriptError) as err:
            run_script(text)
        assert err.value.line == line
        assert words in str(err.value)

    @pytest.mark.parametrize("poly", ["0", "x - x"], ids=["zero", "cancelled"])
    def test_zero_saturation_names_its_line(self, poly):
        text = (f"SYMBOLS x\nAXIOM a | x | toy | x\nSATURATION z | {poly} | zero\n"
                "STAGE s\nSTEP s1 assume a\n")
        with pytest.raises(ScriptError) as err:
            run_script(text, Config(trials=2))
        assert err.value.line == 3
        assert "'z' is zero" in str(err.value)

    def test_an_axiom_id_may_record_once_per_stage(self):
        text = ("SYMBOLS x\nAXIOM ax | x | toy | x\nSTAGE s\nSTEP a assume ax\n"
                "STEP b annotate between\nSTEP ax annotate again\n"
                "STAGE t\nSTEP a assume ax\n")
        with pytest.raises(ScriptError) as err:
            run_script(text, Config(trials=2))
        assert err.value.line == 6 and "duplicate record id 'ax'" in str(err.value)
        rr = run_script(text.replace("STEP ax annotate", "STEP c annotate"),
                        Config(trials=2))
        assert rr.verdict() == "success"

    @pytest.mark.parametrize("steps, failed", [
        (["STEP e eliminate_vars x FROM a1,a2", "STEP e_1 assert_member y^2 - 1 USING a2"],
         "e_1"),
        (["STEP e_1 assert_member y^2 - 1 USING a2", "STEP e eliminate_vars x FROM a1,a2"],
         "e"),
    ], ids=["claim-after-elimination", "elimination-after-claim"])
    def test_a_taken_relation_id_fails_the_step(self, steps, failed):
        # eliminate_vars adds <sid>_1, ...; a relation id is never silently kept
        text = "\n".join(["SYMBOLS x y", "AXIOM a1 | x - y | toy | x = y",
                          "AXIOM a2 | y^2 - 1 | toy | y^2 = 1", "STAGE s",
                          "STEP s1 assume a1", "STEP s2 assume a2", *steps]) + "\n"
        records = {r.sid: r for r in run_script(text, Config(trials=2))
                   .stages[0].records}
        assert records[failed].status == "failure"
        assert "duplicate relation id 'e_1'" in records[failed].details["error"]
        assert all(r.status in pipeline.GOOD_STATUSES
                   for sid, r in records.items() if sid != failed)

    def test_same_step_id_in_two_stages_is_allowed(self):
        text = "SYMBOLS x\nSTAGE s\nSTEP a annotate one\nSTAGE t\nSTEP a annotate two\n"
        assert [len(s.records) for s in run_script(text).stages] == [1, 1]

    def test_documented_step_kinds_are_the_interpreted_ones(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "script-format.md"
        section = doc.read_text().split("## Step kinds", 1)[1].split("\n## ", 1)[0]
        documented = {line.split()[2] for line in section.splitlines()
                      if line.startswith("STEP ")}
        assert documented == pipeline._STEP_KINDS


def _digested(report: dict) -> int:
    return sum(1 for stage in report["stages"] for step in stage["steps"]
               if step["certificate_digest"])


class TestCertificatesOnRecords:
    """Each certificate lives on its step record, so the sweep checks every
    one exactly once, whatever the step ids."""

    def test_lemma31_checks_every_digest(self):
        rep = run_builtin("lemma31", Config(trials=2)).report()
        assert rep["oracle"]["checked"] == _digested(rep) > 0

    def test_example_script_checks_every_digest(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "example.ds").read_text()
        rep = run_script(text, Config(trials=2)).report()
        assert rep["oracle"]["checked"] == _digested(rep) > 0

    def test_a_zero_image_keeps_its_certificate(self):
        # D1 maps K_def to zero; the chain-rule identity behind the zero
        # image is a certificate like any other, so the sweep checks it
        text = "SYMBOLS paper\nSTAGE zero\nSTEP K_def assume K_def\nSTEP d derive D1 K_def\n"
        rep = run_script(text, Config(trials=2)).report()
        (step,) = [s for s in rep["stages"][0]["steps"] if s["id"] == "d"]
        assert step["details"]["image"] == "0"
        assert step["details"]["spot_check"]["verdict"] == "pass"
        assert rep["oracle"]["checked"] == _digested(rep) == 1

    def _repeated(self, cfg):
        table = VarTable(["x", "y"])
        mk = lambda t: parse_polynomial(t, table)
        run = pipeline.StageRunner("rep", cfg, table)
        run.assume("ax", mk("x"), "toy", "x")
        run.claim("c", mk("x*y"), ["ax"])
        run.claim("c", mk("x^2"), ["ax"])
        return run

    def test_a_repeated_step_id_keeps_both_certificates(self):
        cfg = Config(trials=2)
        run = self._repeated(cfg)
        oracle_results = pipeline._spot_check([run.result], cfg.oracle_config())
        rr = pipeline.RunResult([run.result], cfg, oracle_results)
        rep = rr.report()
        assert rep["oracle"]["checked"] == _digested(rep) == 2
        assert [res.label for res in rr.oracle] == ["rep.c", "rep.c"]
        assert all("spot_check" in r.details for r in run.result.records[1:])

    def test_a_bad_certificate_under_a_repeated_id_is_caught(self):
        cfg = Config(trials=2)
        run = self._repeated(cfg)
        first = run.result.records[1]
        bad = copy.copy(first.certificate)   # x*y = (y + 1)*x, planted past the constructor
        bad.pairs = {"ax": bad.pairs["ax"] + 1}
        first.certificate = bad
        rr = pipeline.RunResult([run.result], cfg,
                                pipeline._spot_check([run.result], cfg.oracle_config()))
        assert rr.oracle_failures() == ["rep.c"]
        assert [r.details["spot_check"]["verdict"] for r in run.result.records[1:]] == [
            "fail", "pass"]
        assert rr.verdict() == "failure"

    def test_identities_is_a_read_only_view(self, lemma32_result):
        view = lemma32_result.identities
        assert set(view) == {r.sid for r in lemma32_result.records if r.certificate}
        with pytest.raises(TypeError):
            view["planted"] = view["eq_3_30"]
        assert "certificate" not in lemma32_result.records[0].as_dict()
