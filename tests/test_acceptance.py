"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criterion 1 deliberately asserts the full documented-discrepancy contract: the
printed big H-K relation (and the two relations feeding it) carry a
transcription whose coefficient on e_1(H) in the printed (3.60) is not
derivable; the engine must fail the match with a term diff, keep its own
certificate chain oracle-confirmed, and never silently substitute.  See
/docs/discrepancy.md for the analysis.
"""

import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from curvelim.exactpoly import Polynomial, VarTable, parse_polynomial, resultant
from curvelim.frame import EquationRegistry, load_paper_symbols
from curvelim.ideal import GeneratorSet, NOT_MEMBER, Relation, membership
from curvelim.oracle import SpotCheckConfig, check_certificate, check_certificates
from curvelim.pipeline import (
    Config,
    canonical_digest,
    match_printed,
    run_builtin,
    run_script,
)
from tests_digest import canonical_digest as reference_digest
from tests_resultant import poly_gcd

_RESULTS = []

# sha256 of the JSON list of (stage, id, kind, status, multiplier_power,
# certificate_digest) over every step of the seed-0 replay, in order.  It pins
# each certificate's cofactors: a change to the engine that moves a cofactor
# path changes it, and must be listed in CHANGES.md with the new value.
REPLAY_CERTIFICATES_SHA256 = "ec9b9f69538517774c6fbedd77236a4fe00fa35afcbb9ca1d7fd408e7841ca43"

# the seed-0 replay report's canonical digest, the one `curvelim verify
# --canonical --seed 0` writes into its report.  It pins every report field but
# the timings: a change that moves any must be listed in CHANGES.md with the
# new value.
REPLAY_REPORT_DIGEST = "9e26ee4784b7f0440a3fea07d5b3ef4420a4e70d045b5086ee2e5ff4d905c357"

# the canonical digest of the seed-0 report on docs/example.ds, which pins the
# script path's report the way the one above pins the replay's
EXAMPLE_REPORT_DIGEST = "31c764b7200503a7db534aa45c3db967f2f993b880b9cbc1b954b9b81abc4e35"


def _report(criterion, ok, note):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {note}"
    _RESULTS.append(line)
    print("\n" + line)
    assert ok, line


_ELAPSED = {}   # fixture name -> wall time of its run


@pytest.fixture(scope="module")
def full_run():
    t0 = time.time()
    rr = run_builtin("all", Config(seed=0, trials=100))
    _ELAPSED["full_run"] = time.time() - t0
    return rr


def _stage(rr, name):
    return next(s for s in rr.stages if s.name == name)


def _records(stage):
    return {r.sid: r for r in stage.records}


class TestCriterion1:
    def test_big_relation_reproduction(self, full_run):
        th = _stage(full_run, "theorem33")
        recs = _records(th)
        reg = EquationRegistry(load_paper_symbols())

        # the embedded transcription carries the printed coefficient groups
        p62 = reg.poly("eq_3_62")
        sym = reg.symbols

        def coeff(mono_text):
            probe = sym.poly(mono_text)
            ((mono, _),) = probe.terms.items()
            return p62.terms.get(mono, 0)

        assert coeff("H^10") == 2040217600
        assert coeff("H^7*K") == -74403840
        assert coeff("H*K^3") == 8640
        assert coeff("c^2*K^2") == 186732
        assert coeff("R*c*K^2") == -54990
        assert coeff("R^2*K^2") == 3978

        # the engine derived and certified its own polynomial in H, K
        derived = th.derived["eq_3_62_derived"]
        assert set(derived.variables()) <= {"H", "K", "c", "R"}
        assert derived.degree_in("K") == 3 and derived.degree_in("H") == 10
        assert recs["eq_3_62_derived"].status == "verified"

        # documented-discrepancy contract: the match fails with a term diff,
        # the run is marked failed, and the certificate chain re-verifies
        m = recs["match_eq_3_62"]
        assert m.status == "mismatch-documented"
        assert m.details["diff_term_count"] >= 1 and m.details["diff_terms"]
        assert th.verdict() == "documented-discrepancy"
        cert = th.identities["eq_3_62_derived"]
        res = check_certificate(cert, cfg=SpotCheckConfig(seed=0, trials=100))
        assert res.verdict == "pass"

        ok = _ELAPSED.get("full_run") is not None
        _report(1, ok and th.verdict() == "documented-discrepancy",
                "big H-K relation derived and certified; printed transcription"
                " differs (printed-coefficient slip inherited from (3.60)): run fails with a"
                " term diff and the certificate chain is oracle-confirmed")

    def test_runtime_under_60s(self):
        t0 = time.time()
        run_builtin("theorem33", Config(seed=0))
        elapsed = time.time() - t0
        _report("1-runtime", elapsed < 60.0, f"theorem33 in {elapsed:.1f}s (< 60s)")


class TestCriterion2:
    MATCHED_IDS = {
        "lemma32": ["eq_3_30", "eq_3_33", "eq_3_34", "eq_3_35",
                    "branch_v3_nonzero_eq_3_36", "branch_v3_nonzero_eq_3_37",
                    "branch_v3_nonzero_disp_3_38", "branch_v3_nonzero_eq_3_38",
                    "branch_v3_nonzero_eq_3_39", "eq_3_40",
                    "branch_v3_nonzero_eq_3_41", "branch_v3_nonzero_eq_3_42a",
                    "branch_v3_nonzero_eq_3_42b", "branch_v3_nonzero_eq_3_42c"],
        "theorem33": ["eq_3_43", "eq_3_44", "eq_3_45", "eq_3_48", "eq_3_49",
                      "eq_3_53", "eq_3_54", "eq_3_55", "eq_3_59"],
    }
    RULE_IDENTITIES = ["consistency_eq_3_50", "consistency_eq_3_51",
                       "consistency_eq_3_52"]
    DOCUMENTED = ["match_eq_3_60", "match_eq_3_61", "match_eq_3_64"]

    def test_intermediate_equations(self, full_run):
        problems = []
        for stage_name, ids in self.MATCHED_IDS.items():
            stage = _stage(full_run, stage_name)
            recs = _records(stage)
            for sid in ids:
                rec = recs.get(sid)
                if rec is None or rec.status != "verified":
                    problems.append(f"{stage_name}.{sid}: {rec.status if rec else 'absent'}")
                    continue
                if sid in stage.identities:
                    chk = check_certificate(stage.identities[sid],
                                            cfg=SpotCheckConfig(seed=0, trials=25))
                    if chk.verdict != "pass":
                        problems.append(f"{stage_name}.{sid}: oracle fail")
        th = _records(_stage(full_run, "theorem33"))
        for sid in self.RULE_IDENTITIES:
            if th[sid].status != "consistent":
                problems.append(sid)
        for sid in self.DOCUMENTED:
            rec = th[sid]
            if rec.status != "mismatch-documented" or not rec.details.get("diff_terms"):
                problems.append(f"{sid}: expected documented mismatch")
        # the certified counterparts of the documented equations
        for sid in ("eq_3_60_derived", "eq_3_61_derived", "eq_3_64_derived"):
            if th[sid].status != "verified":
                problems.append(sid)
        _report(2, not problems,
                "printed equations (3.30)-(3.59) matched with certificates;"
                " (3.60), (3.61), (3.64) are certificate-backed with documented"
                " printed-coefficient discrepancies"
                + (f"; problems: {problems}" if problems else ""))


class TestCriterion3:
    def test_branch_closure(self, full_run):
        l32 = _stage(full_run, "lemma32")
        recs = _records(l32)
        closed = [sid for sid, r in recs.items() if r.status == "branch-closed"]
        expected = {f"{pre}branch_{hyp}_close"
                    for pre, hyps in (("", ("v3_nonzero", "v4_nonzero")),
                                      ("e3_", ("o223_nonzero", "o443_nonzero")),
                                      ("e4_", ("o224_nonzero", "o334_nonzero")))
                    for hyp in hyps}
        ok = set(closed) == expected and l32.verdict() == "success"
        # unit certificates saturated by the nonzero derivative of H
        for sid in expected:
            ident = l32.identities[sid]
            assert ident.target.total_degree() == 0
            assert ident.power >= 1
        _report(3, ok, f"all {len(expected)} branches (three frame directions)"
                       " reach the unit ideal after the nondegeneracy saturations")

    def test_runtime_under_60s(self):
        t0 = time.time()
        from curvelim.pipeline import run_lemma32
        run_lemma32(Config(seed=0))
        elapsed = time.time() - t0
        _report("3-runtime", elapsed < 60.0, f"lemma32 in {elapsed:.1f}s (< 60s)")


class TestCriterion4:
    def test_endgame(self, full_run):
        eg = _stage(full_run, "endgame")
        recs = _records(eg)
        nz = recs["eliminant_nonzero"]
        samples = recs["eliminant_samples"].details["samples"]
        elim = eg.derived["eliminant"]
        ok = (nz.status == "nonzero"
              and nz.details["H_degree"] == elim.degree_in("H") > 0
              and nz.details["leading_coefficient"]
              and set(elim.variables()) <= {"H", "c", "R"}
              and len(samples) == 15
              and {s["c"] for s in samples} == {-1, 0, 1}
              and all("status" in s for s in samples))
        _report(4, ok,
                f"K eliminated: nonzero polynomial of H-degree"
                f" {nz.details['H_degree']} over Z[c,R]; leading coefficient and"
                f" 15 seeded sample statuses recorded"
                f" ({sum(1 for s in samples if s['status'] == 'nonzero')}/15 nonzero)")

    def test_runtime_under_10min(self, full_run):
        # the full run includes the endgame; its elapsed time bounds it
        elapsed = _ELAPSED["full_run"]
        _report("4-runtime", elapsed < 600.0,
                f"entire pipeline (endgame included) in {elapsed:.1f}s (< 600s)")


class TestCriterion5:
    def test_oracle_suite(self, full_run):
        cfg = SpotCheckConfig(seed=0, trials=100)
        idents = full_run.identities()
        failures = []
        bound_violations = []
        for label, ident in idents.items():
            res = check_certificate(ident, cfg=cfg, label=label)
            if res.verdict != "pass":
                failures.append(label)
            if res.per_trial_bound >= Fraction(1, 2 ** 40):
                bound_violations.append(label)
        ok = not failures and not bound_violations and len(idents) >= 100
        _report(5, ok,
                f"{len(idents)} certificates x 100 seeded spot checks"
                f" (prime 2^64-59 > 2^61, seed 0): {len(failures)} failures;"
                f" per-trial false-accept bound < 2^-40 for all")

    def test_certificates_pinned(self, full_run):
        rows = [(s.name, r.sid, r.kind, r.status, r.multiplier_power, r.certificate_digest)
                for s in full_run.stages for r in s.records]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        _report("5-certificates", digest == REPLAY_CERTIFICATES_SHA256,
                f"{len(rows)} step records, statuses, multiplier powers and certificate"
                f" digests as pinned (sha256 {digest[:16]})")

    def test_report_pinned(self, full_run):
        digest = full_run.report()["canonical_digest"]
        _report("5-report", digest == REPLAY_REPORT_DIGEST,
                f"replay report's canonical digest as pinned (sha256 {digest[:16]})")

    def test_example_script_report_pinned(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "example.ds").read_text()
        digest = run_script(text, Config(seed=0)).report()["canonical_digest"]
        _report("5-example-report", digest == EXAMPLE_REPORT_DIGEST,
                f"docs/example.ds report's canonical digest as pinned (sha256 {digest[:16]})")

    def test_byte_reproducibility(self, tmp_path):
        from curvelim.cli import main
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["verify", "--stage", "theorem33", "--canonical",
                       "--seed", "0", "--trials", "5", "--report", str(path)])
            assert rc == 1
        ok = a.read_bytes() == b.read_bytes()
        da = json.loads(a.read_text())["canonical_digest"]
        _report("5-reproducibility", ok,
                f"two same-seed canonical runs byte-identical (digest {da[:16]})")


class TestCanonicalDigest:
    """The digest of the edited levels' copies against the JSON round trip's."""

    def test_matches_the_reference_on_the_reports(self, full_run):
        text = (Path(__file__).resolve().parent.parent / "docs" / "example.ds").read_text()
        for result in (full_run, run_builtin("lemma32", Config(seed=0)),
                       run_script(text, Config(seed=0))):
            report = result.report()
            assert report["canonical_digest"] == reference_digest(report)
            report["stages"][-1]["steps"][-1]["timing_ms"] += 1000   # timings do not count
            assert canonical_digest(report) == report["canonical_digest"]

    @pytest.mark.parametrize("report", [
        {"seed": 0, "stages": [{"name": "s", "verdict": "success"}], "verdict": "success"},
        {"stages": [{"name": "s", "steps": [{"id": "a", "status": "verified"},
                                            {"id": "b", "timing_ms": 7}]}]},
        {"stages": [], "canonical_digest": "stale"},
        {"verdict": "success"},
        {"stages": [{"name": "s", "steps": [
            {"id": "a", "quote": "\\lambda_2\u2260\u03bb_3 \u2014 (3.60)", "timing_ms": 3}]}]},
        {"a \"key\"\n": "a\\b\u0001",
         "stages": [{"name": "s", "\u00e9\t": "\"c\"\r", "steps": [
             {"id": "a", "details": {"a \"key\"\n\t": "a\\b\u0001\"c\"\r"}}]}]},
        {"stages": [{"name": "s", "steps": [
            {"id": "a", "details": {"spot_check": {"per_trial_bound": 0.1 / 3}}}]}]},
        {"stages": [{"name": "s", "steps": []}]},
        {"seed": 0, "stages": [], "verdict": "success"},
        {"stages": [{"name": "s", "extra": {"z": [1, 2.5, None, True]}, "steps": [
            {"id": "a", "timing_ms": 1}]}]},
    ], ids=["stage-without-steps", "step-without-timing", "no-stages", "no-stages-key",
            "non-ascii-quote", "json-escapes", "float", "empty-steps", "empty-stages",
            "stage-extra-key"])
    def test_matches_the_reference_on_partial_reports(self, report):
        before = json.dumps(report, sort_keys=True)
        assert canonical_digest(report) == reference_digest(report)
        assert json.dumps(report, sort_keys=True) == before    # the report is not edited

    def test_digest_is_hashed_step_by_step(self, full_run):
        # the report's text (about 145 KB) is never held at once
        report = full_run.report()
        tracemalloc.start()
        try:
            canonical_digest(report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000, peak


class TestSweepWork:
    def test_replay_sweep_makes_each_prefix_and_power_once(self, full_run, monkeypatch):
        from test_oracle import _recording_sweeps, sweep_work

        sweeps = _recording_sweeps(monkeypatch)
        results = check_certificates(list(full_run.identities().items()),
                                     SpotCheckConfig(seed=0, trials=100))
        assert len(results) == 137
        (sweep,) = sweeps
        assert sweep_work(sweep) == (334, 38, 55)


class TestCriterion6:
    def test_ring_axioms(self):
        table = VarTable(["x", "y", "z"])
        rng = random.Random(60)
        cases = 0
        for _ in range(340):
            p = _rand(table, rng)
            q = _rand(table, rng)
            r = _rand(table, rng)
            one = Polynomial.const(table, 1)
            zero = Polynomial.zero(table)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert p + zero == p and p * one == p
            cases += 6
        _report("6-ring", cases >= 1000, f"{cases} randomized ring-axiom cases, 0 failures")

    def test_resultant_common_factor(self):
        table = VarTable(["x", "y"])
        rng = random.Random(61)
        planted = coprime = 0
        while planted < 100 or coprime < 100:
            f = _rand_uni(table, rng)
            g = _rand_uni(table, rng)
            h = _rand_uni(table, rng)
            if min(f.degree_in("x"), g.degree_in("x"), h.degree_in("x")) < 1:
                continue
            if planted < 100:
                assert resultant(f * g, f * h, "x").is_zero()
                planted += 1
            if coprime < 100 and poly_gcd(f, g).total_degree() == 0:
                assert not resultant(f, g, "x").is_zero()
                coprime += 1
        _report("6-resultant", planted + coprime >= 200,
                f"{planted} planted common factors vanish, {coprime} coprime"
                " pairs give nonzero resultants")

    def test_macaulay_agreement(self):
        from tests_macaulay import macaulay_member
        table = VarTable(["x", "y", "z", "w"])
        rng = random.Random(62)
        agreements = 0
        while agreements < 100:
            system = []
            for _ in range(rng.randint(1, 3)):
                p = _rand(table, rng, max_deg=2)
                if not p.is_zero():
                    system.append(p)
            if not system:
                continue
            gens = GeneratorSet(table, [Relation(f"g{i}", p)
                                        for i, p in enumerate(system)])
            if rng.random() < 0.5:
                target = Polynomial.zero(table)
                for g in system:
                    target = target + _rand(table, rng, max_deg=2) * g
            else:
                target = _rand(table, rng, max_deg=3)
            if target.is_zero() or target.total_degree() > 4:
                continue
            cert = membership(target, gens)
            if cert == NOT_MEMBER:
                ok, _ = macaulay_member(target, system)
                assert not ok, "Groebner says no, Macaulay says yes"
            else:
                maxdeg = max((c.total_degree() for c in cert.pairs.values()), default=0)
                ok, _ = macaulay_member(target, system, degree=maxdeg)
                assert ok, "Groebner says yes, Macaulay disagrees at covering degree"
            agreements += 1
        _report("6-macaulay", agreements >= 100,
                f"{agreements} random small systems: Groebner membership agrees"
                " with the Macaulay-matrix brute force")


class TestCriterion7:
    def test_transcription_corruptions(self, full_run):
        reg = EquationRegistry(load_paper_symbols())
        printed = reg.poly("eq_3_62")
        derived = _stage(full_run, "theorem33").derived["eq_3_62_derived"]
        rng = random.Random(70)
        monos = sorted(printed.terms)
        hits = 0
        for i in range(10):
            mono = monos[rng.randrange(len(monos))]
            delta = rng.choice([1, -1, 7])
            corrupted = printed + Polynomial(printed.table, {mono: delta})
            status, details = match_printed(corrupted, printed)
            assert status == "mismatch"
            assert details["diff_term_count"] == 1, "diff not localized"
            # and the corruption also breaks the (already documented) comparison
            # against the derived polynomial in a way that names the term
            status2, details2 = match_printed(derived, corrupted)
            assert status2 == "mismatch"
            hits += 1
        _report("7-transcription", hits >= 10,
                f"{hits} single-coefficient corruptions of the embedded"
                " transcription each produce a one-term localized diff")

    def test_certificate_corruptions(self, full_run):
        idents = full_run.identities()
        labels = sorted(idents)[:: max(1, len(idents) // 12)][:12]
        rng = random.Random(71)
        caught = 0
        for label in labels:
            ident = idents[label]
            if not ident.pairs:
                continue
            key = sorted(ident.pairs)[rng.randrange(len(ident.pairs))]

            class Corrupted:
                target = ident.target
                multiplier = ident.multiplier
                power = ident.power
                pairs = {k: (v + Polynomial.const(v.table, 1) if k == key else v)
                         for k, v in ident.pairs.items()}

                @staticmethod
                def generator_poly(rid):
                    return ident.generator_poly(rid)

            res = check_certificate(Corrupted(), cfg=SpotCheckConfig(seed=0, trials=20),
                                    label=f"corrupted:{label}")
            assert res.verdict == "fail" and res.failures, label
            caught += 1
        _report("7-certificates", caught >= 10,
                f"{caught} certificates with one corrupted cofactor each:"
                " every corruption caught with a witness point")

    def test_full_run_with_corrupted_registry(self, monkeypatch):
        import curvelim.frame as frame
        idx = next(i for i, e in enumerate(frame._REGISTRY) if e.eid == "eq_3_62")
        entry = frame._REGISTRY[idx]
        corrupted = frame.RegistryEntry(
            entry.eid, entry.text.replace("8640*H*K^3", "8641*H*K^3"),
            entry.citation, entry.quote, entry.role, entry.note)
        patched = list(frame._REGISTRY)
        patched[idx] = corrupted
        monkeypatch.setattr(frame, "_REGISTRY", patched)
        rr = run_builtin("theorem33", Config(seed=0))
        recs = _records(rr.stages[0])
        m = recs["match_eq_3_62"]
        ok = (m.status == "mismatch-documented"
              and any("K^3" in t for t in m.details["diff_terms"]))
        _report("7-full-run", ok,
                "corrupting one printed coefficient end-to-end still fails the"
                " match and the diff names the corrupted monomial")


def teardown_module(module):
    print("\n" + "=" * 72)
    for line in _RESULTS:
        print(line)
    print("=" * 72)


def _rand(table, rng, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) if rng.random() < 0.7 else 0
                     for _ in range(len(table)))
        if sum(mono) > max_deg:
            continue
        terms[mono] = rng.randint(-9, 9)
    return Polynomial(table, terms)


def _rand_uni(table, rng):
    deg = rng.randint(1, 2)
    terms = {}
    for d in range(deg + 1):
        mono = [0] * len(table)
        mono[table.index["x"]] = d
        coeff = rng.randint(-4, 4)
        if d == deg and coeff == 0:
            coeff = 1
        terms[tuple(mono)] = coeff
    return Polynomial(table, terms)
