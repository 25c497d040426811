"""Randomized modular spot-check oracle: determinism, soundness direction,
planted corruption detection, the compiled evaluator and its independence."""

import ast
import gc
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvelim.oracle as oracle
from curvelim.exactpoly import Polynomial, VarTable, parse_polynomial
from curvelim.ideal import Certificate, GeneratorSet, Relation, membership
from curvelim.oracle import (
    DEFAULT_PRIME,
    OracleError,
    SpotCheckConfig,
    check_certificate,
    is_probable_prime,
)
from tests_evaluation import evaluate, point_values

VT = VarTable(["x", "y", "z"])


def poly(text):
    return parse_polynomial(text, VT)


def sample_point(cfg, trial, variables):
    """The point of one trial, by variable name, from the oracle's word-by-word
    reference derivation."""
    values = point_values(cfg.seed, trial, variables, cfg.prime,
                          oracle._rejection_limit(cfg.prime))
    return dict(zip(variables, values))


class TestConfig:
    def test_default_prime_is_prime_and_large(self):
        assert DEFAULT_PRIME > 2 ** 61
        assert is_probable_prime(DEFAULT_PRIME)

    def test_bad_modulus_rejected(self):
        with pytest.raises(OracleError):
            SpotCheckConfig(prime=2 ** 61 - 1)   # prime but too small
        with pytest.raises(OracleError):
            SpotCheckConfig(prime=2 ** 62)       # not prime
        with pytest.raises(OracleError):
            SpotCheckConfig(trials=0)


class _Claimed:
    """A certificate-shaped claim, true or not: target equals the sum of
    cofactor * generator over ``pairs`` (id -> (cofactor, generator))."""

    multiplier = None
    power = 0

    def __init__(self, target, pairs):
        self.target = target
        self.pairs = {rid: cof for rid, (cof, _) in pairs.items()}
        self._gens = {rid: gen for rid, (_, gen) in pairs.items()}

    def generator_poly(self, rid):
        return self._gens[rid]


def _certificate(target, pairs):
    """An exact Certificate over the generators named in ``pairs``."""
    return Certificate(target, pairs)


class TestIdentity:
    def test_true_identity_passes(self):
        cert = _certificate(poly("(x + 1)^2"), {"g": (poly("x + 1"), poly("x + 1"))})
        res = check_certificate(cert, cfg=SpotCheckConfig(trials=100))
        assert res.verdict == "pass"
        assert res.trials == 100

    def test_planted_non_identity_fails_with_witness(self):
        res = check_certificate(_Claimed(poly("x^2"), {"g": (poly("1"), poly("x"))}),
                                cfg=SpotCheckConfig(trials=100))
        assert res.verdict == "fail"
        w = res.failures[0]
        assert int(w["residue"]) != 0
        # witness confirmed at three further primes
        assert len(w["confirmations"]) == 3
        assert all(c["residue"] != 0 for c in w["confirmations"])

    def test_per_trial_bound(self):
        cert = _certificate(poly("x^3*y^2"), {"g": (poly("x*y"), poly("x^2*y"))})
        res = check_certificate(cert, cfg=SpotCheckConfig(trials=1))
        assert res.total_degree == 5
        assert res.per_trial_bound == Fraction(res.total_degree, DEFAULT_PRIME)
        assert res.per_trial_bound < Fraction(1, 2 ** 40)


class TestPowerColumns:
    def test_high_exponent_identity_passes(self):
        cert = _certificate(poly("x^2000 - y"), {"g": (poly("1"), poly("x^2000 - y"))})
        res = check_certificate(cert, cfg=SpotCheckConfig(trials=150))
        assert res.verdict == "pass"

    def test_high_exponent_witness_confirmed(self):
        cfg = SpotCheckConfig(trials=3)
        res = check_certificate(_Claimed(poly("x^2000"), {"g": (poly("1"), poly("x^1999"))}),
                                cfg=cfg)
        assert res.verdict == "fail" and len(res.failures) == 3
        for w in res.failures:
            point = {v: int(x) for v, x in w["point"].items()}
            diff = poly("x^2000 - x^1999")
            assert int(w["residue"]) == evaluate(diff, point, modulus=cfg.prime)
            for c in w["confirmations"]:
                q = c["prime"]
                assert c["residue"] == evaluate(diff, {v: x % q for v, x in point.items()},
                                                modulus=q) != 0

    def test_columns_match_pow_and_far_powers_keep_one_column(self):
        prime = DEFAULT_PRIME
        base = [3, 5, prime - 2]
        memo = oracle._Monomials({0: base}.__getitem__, prime)
        for e in (2, 5, 2000, 2003, 12, 4):
            assert memo[(0, e),] == [pow(a, e, prime) for a in base]
        # each power by one pow per entry of x's own column, and nothing between
        assert sorted(memo) == [((0, e),) for e in (1, 2, 4, 5, 12, 2000, 2003)]
        assert memo[(0, 1),] is base

    def test_product_of_1500_variables_passes(self):
        # the prefix of 1499 factors is built one factor at a time, without
        # recursion, so no recursion limit applies
        table = VarTable([f"x{i}" for i in range(1500)])
        q = parse_polynomial("*".join(table.names) + " + x0^2", table)
        cert = _Claimed(q, {"g": (parse_polynomial("1", table), q)})
        assert check_certificate(cert, cfg=SpotCheckConfig(trials=5)).verdict == "pass"


class TestDeterminism:
    def test_point_sequences_reproducible(self):
        cfg = SpotCheckConfig(seed=42)
        a = sample_point(cfg, 3, ["x", "y"])
        b = sample_point(cfg, 3, ["x", "y"])
        assert a == b
        c = sample_point(SpotCheckConfig(seed=43), 3, ["x", "y"])
        assert a != c

    def test_verdicts_reproducible(self):
        cfg = SpotCheckConfig(seed=7, trials=20)
        for cert in (_certificate(poly("x*y"), {"g": (poly("y"), poly("x"))}),
                     _Claimed(poly("x*y"), {"g": (poly("x"), poly("x"))})):
            r1 = check_certificate(cert, cfg=cfg, label="again")
            r2 = check_certificate(cert, cfg=cfg, label="again")
            assert r1.as_dict() == r2.as_dict()
        assert r1.verdict == "fail" and r1.failures


class TestCertificates:
    def _certificate(self):
        gs = GeneratorSet(VT, [Relation("g1", poly("x - 1")),
                               Relation("g2", poly("y - x"))])
        return membership(poly("y^2 - 1"), gs)

    def test_zero_target_trivial_pass(self):
        gs = GeneratorSet(VT, [Relation("g", poly("x"))])
        cert = membership(Polynomial.zero(VT), gs)
        res = check_certificate(cert, cfg=SpotCheckConfig(trials=10))
        assert res.verdict == "pass"

    def test_real_certificate_passes(self):
        cert = self._certificate()
        res = check_certificate(cert, cfg=SpotCheckConfig(trials=100))
        assert res.verdict == "pass"

    def test_corrupted_cofactor_fails(self):
        cert = self._certificate()

        class Corrupted:
            target = cert.target
            multiplier = cert.multiplier
            power = cert.power
            pairs = {k: (v + poly("1") if i == 0 else v)
                     for i, (k, v) in enumerate(sorted(cert.pairs.items()))}

            def generator_poly(self, rid):
                return cert.generator_poly(rid)

        res = check_certificate(Corrupted(), cfg=SpotCheckConfig(trials=50))
        assert res.verdict == "fail"
        assert res.failures


class _PlantedCofactor:
    """A certificate whose first cofactor is off by ``delta``."""

    def __init__(self, cert, delta):
        self.target = cert.target
        self.multiplier = cert.multiplier
        self.power = cert.power
        self.pairs = {k: (v + delta if i == 0 else v)
                      for i, (k, v) in enumerate(sorted(cert.pairs.items()))}
        self.generator_poly = cert.generator_poly


class TestCertificateWitness:
    def test_witness_confirmed_at_three_primes(self):
        gs = GeneratorSet(VT, [Relation("g1", poly("x - 1")),
                               Relation("g2", poly("y - x"))])
        cert = membership(poly("y^2 - 1"), gs)
        bad = _PlantedCofactor(cert, poly("z"))
        res = check_certificate(bad, cfg=SpotCheckConfig(trials=5))
        assert res.verdict == "fail" and len(res.failures) == 5
        rid = sorted(bad.pairs)[0]
        diff = poly("z") * bad.generator_poly(rid)   # rhs - lhs of the planted identity
        for w in res.failures:
            assert int(w["residue"]) != 0
        # a report keeps the first three witnesses, and only they are confirmed
        for w in res.failures[:3]:
            assert [c["prime"] for c in w["confirmations"]] == list(oracle._extra_primes())
            point = {v: int(x) for v, x in w["point"].items()}
            for c in w["confirmations"]:
                q = c["prime"]
                assert c["residue"] != 0
                assert c["residue"] == evaluate(-diff, {v: x % q for v, x in point.items()},
                                                modulus=q)
        assert all(w["confirmations"] == [] for w in res.failures[3:])

    def test_witnesses_across_blocks(self):
        # 250 trials walk three blocks; every trial fails, in trial order, at
        # the point the counter-mode derivation gives for that trial
        gs = GeneratorSet(VT, [Relation("g1", poly("x - 1")),
                               Relation("g2", poly("y - x"))])
        bad = _PlantedCofactor(membership(poly("y^2 - 1"), gs), poly("z"))
        cfg = SpotCheckConfig(seed=3, trials=250)
        res = check_certificate(bad, cfg=cfg, label="blocks")
        assert [w["trial"] for w in res.failures] == list(range(250))
        rid = sorted(bad.pairs)[0]
        diff = poly("z") * bad.generator_poly(rid)   # rhs - lhs of the planted identity
        for w in res.failures:
            point = sample_point(cfg, w["trial"], ["x", "y", "z"])
            assert w["point"] == {v: str(x) for v, x in point.items()}
            assert int(w["residue"]) == evaluate(-diff, point, modulus=cfg.prime) != 0
        assert [len(w["confirmations"]) for w in res.failures] == [3] * 3 + [0] * 247
        assert all(c["residue"] != 0 for w in res.failures[:3] for c in w["confirmations"])

    def test_operands_over_different_tables_rejected(self):
        other = parse_polynomial("x^2 - 1", VarTable(["x", "w"]))
        cert = _Claimed(other, {"g1": (poly("x + 1"), poly("x - 1"))})
        with pytest.raises(OracleError):
            check_certificate(cert, cfg=SpotCheckConfig(trials=1))


def _word(seed, var, trial, limit=None):
    """Word trial % 100 of the variable's SHAKE-256 stream for the block of
    100 trials, read big-endian; at or above ``limit``, the counter-keyed
    redraw.  No certificate label enters the key."""
    block, k = divmod(trial, 100)
    stream = hashlib.shake_256(f"{seed}|{var}|{block}".encode()).digest(1600)
    x = int.from_bytes(stream[16 * k:16 * k + 16], "big")
    counter = 0
    while limit is not None and x >= limit:
        counter += 1
        redraw = hashlib.shake_256(f"{seed}|{var}|{trial}|{counter}".encode())
        x = int.from_bytes(redraw.digest(16), "big")
    return x


class TestPointDerivation:
    def test_residues_pinned(self):
        # one SHAKE-256 stream per variable and block of 100 trials, keyed
        # by (seed, variable, block)
        pinned = {
            "H": 14617367087848974939,
            "lam2": 10065103855340368458,
            "w243": 13446889871559849298,
        }
        assert {v: _word(11, v, 7) % DEFAULT_PRIME for v in pinned} == pinned
        assert sample_point(SpotCheckConfig(seed=11), 7, ["H", "lam2", "w243"]) == pinned
        assert _word(11, "H", 207) % DEFAULT_PRIME == 2166028831751433683
        assert sample_point(SpotCheckConfig(seed=11), 207, ["H"]) == {"H": 2166028831751433683}
        assert _word(0, "a", 0) % DEFAULT_PRIME == 2786768390957895017
        assert sample_point(SpotCheckConfig(), 0, ["a"]) == {"a": 2786768390957895017}

    def test_rejection_follows_the_counter(self):
        # a limit of 2**127 rejects about half the draws, so the counter moves
        limit, prime = 1 << 127, DEFAULT_PRIME
        variables = [f"v{i}" for i in range(12)]
        expected = [_word(3, var, 5, limit) % prime for var in variables]
        assert point_values(3, 5, variables, prime, limit) == expected


class TestConstantCertificate:
    def test_true_constant_identity_passes(self):
        cert = _certificate(poly("2"), {"g": (poly("2"), poly("1"))})
        res = check_certificate(cert, cfg=SpotCheckConfig(trials=150))
        assert res.verdict == "pass" and res.trials == 150

    def test_false_constant_identity_fails_every_trial(self):
        res = check_certificate(_Claimed(poly("2"), {"g": (poly("1"), poly("1"))}),
                                cfg=SpotCheckConfig(trials=150))
        assert [w["trial"] for w in res.failures] == list(range(150))
        for w in res.failures:
            assert w["point"] == {}
            assert int(w["residue"]) == 1
        for w in res.failures[:3]:
            assert [c["residue"] for c in w["confirmations"]] == [1, 1, 1]
        assert all(w["confirmations"] == [] for w in res.failures[3:])


class _CountingShake:
    """Stands in for the oracle's SHAKE-256 constructor and counts its stream
    calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, data):
        self.calls += 1
        return hashlib.shake_256(data)


class TestPointStability:
    def test_value_ignores_the_other_variables(self):
        cfg = SpotCheckConfig(seed=5)
        for trial in (0, 99, 100, 341):
            alone = sample_point(cfg, trial, ["y"])
            assert sample_point(cfg, trial, ["x", "y", "z"])["y"] == alone["y"]
        # the same in the sweep: a claim in y alone, and one in x, y and z
        narrow = check_certificate(_Claimed(poly("y"), {"g": (poly("1"), poly("1"))}),
                                   cfg=SpotCheckConfig(seed=5, trials=120), label="ctx")
        wide = check_certificate(_Claimed(poly("y + x*z"), {"g": (poly("1"), poly("x*z"))}),
                                 cfg=SpotCheckConfig(seed=5, trials=120), label="ctx")
        assert len(narrow.failures) == len(wide.failures) == 120
        assert [w["point"]["y"] for w in narrow.failures] == \
            [w["point"]["y"] for w in wide.failures]

    def test_witnesses_ignore_the_trial_count(self):
        gs = GeneratorSet(VT, [Relation("g1", poly("x - 1")),
                               Relation("g2", poly("y - x"))])
        bad = _PlantedCofactor(membership(poly("y^2 - 1"), gs), poly("z"))
        short = check_certificate(bad, cfg=SpotCheckConfig(seed=9, trials=100), label="count")
        long = check_certificate(bad, cfg=SpotCheckConfig(seed=9, trials=250), label="count")
        assert len(short.failures) == 100 and len(long.failures) == 250
        assert long.failures[:100] == short.failures

    def test_one_stream_per_variable_and_block(self, monkeypatch):
        counting = _CountingShake()
        monkeypatch.setattr(oracle, "shake_256", counting)
        cert = _certificate(poly("x*y*z"), {"g": (poly("z"), poly("x*y"))})
        res = check_certificate(cert, cfg=SpotCheckConfig(trials=250))
        assert res.verdict == "pass"
        assert counting.calls == 3 * 3   # three variables, blocks of 100, 100 and 50

    def test_column_matches_the_reference_under_rejection(self):
        # a limit of 2**127 sends the column through the word-by-word redraws
        limit, prime = 1 << 127, DEFAULT_PRIME
        for block, n in ((0, 100), (2, 37)):
            column = oracle._column(3, "v0", block, n, prime, limit)
            assert column == [point_values(3, 100 * block + k, ["v0"], prime, limit)[0]
                              for k in range(n)]


@pytest.fixture(scope="module")
def lemma32_items():
    """lemma32's (label, certificate) pairs, in the order of its sweep."""
    from curvelim.pipeline import Config, run_builtin
    return list(run_builtin("lemma32", Config(trials=1)).identities().items())


class _Counting:
    """Wraps an oracle function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def sweep_work(sweep):
    """The memo keys of two or more factors, the one-factor keys of exponent
    2 or more, and the variable columns that a sweep made."""
    keys = [key for memo in sweep.monomials.values() for key in memo]
    return (sum(len(key) > 1 for key in keys),
            sum(len(key) == 1 and key[0][1] > 1 for key in keys),
            len(sweep.variables))


def _recording_sweeps(monkeypatch):
    """Record every ``_Sweep`` that the oracle makes."""
    sweeps = []

    class Recording(oracle._Sweep):
        def __init__(self, *args):
            super().__init__(*args)
            sweeps.append(self)

    monkeypatch.setattr(oracle, "_Sweep", Recording)
    return sweeps


class TestSweep:
    def test_sweep_matches_lone_checks(self, lemma32_items):
        cfg = SpotCheckConfig(trials=250)
        swept = oracle.check_certificates(lemma32_items, cfg)
        alone = [check_certificate(cert, cfg=cfg, label=label) for label, cert in lemma32_items]
        assert [r.as_dict() for r in swept] == [r.as_dict() for r in alone]
        assert [r.label for r in swept] == [label for label, _ in lemma32_items]

    def test_planted_cofactor_fails_alone(self):
        # three certificates over the same two generators; only the middle
        # one carries a bad cofactor
        gs = GeneratorSet(VT, [Relation("g1", poly("x - 1")),
                               Relation("g2", poly("y - x"))])
        bad = _PlantedCofactor(membership(poly("y^2 - 1"), gs), poly("z"))
        items = [("good.a", membership(poly("x^2 - 1"), gs)), ("bad", bad),
                 ("good.b", membership(poly("y^2 - 1"), gs))]
        cfg = SpotCheckConfig(seed=4, trials=150)
        res = oracle.check_certificates(items, cfg)
        assert [r.verdict for r in res] == ["pass", "fail", "pass"]
        assert [w["trial"] for w in res[1].failures] == list(range(150))
        for w in res[1].failures:
            assert w["label"] == "bad" and int(w["residue"]) != 0
        for w in res[1].failures[:3]:
            assert [c["prime"] for c in w["confirmations"]] == list(oracle._extra_primes())
            assert all(c["residue"] != 0 for c in w["confirmations"])
        assert all(w["confirmations"] == [] for w in res[1].failures[3:])
        assert res[1].failures == check_certificate(bad, cfg=cfg, label="bad").failures

    def test_hash_colliding_operands_keep_their_columns(self, monkeypatch):
        # hash(-1) == hash(-2), so -x and -2*x have keys of one hash; a hit
        # on the hash alone would give -2*x the column of -x and fail b
        assert hash(frozenset(poly("-x").terms.items())) == \
            hash(frozenset(poly("-2*x").terms.items()))
        columns = _Counting(oracle._columns)
        monkeypatch.setattr(oracle, "_columns", columns)
        items = [("a", _Claimed(poly("-x"), {"g": (poly("1"), poly("-x"))})),
                 ("b", _Claimed(poly("-2*x"), {"g": (poly("2"), poly("-x"))}))]
        res = oracle.check_certificates(items, SpotCheckConfig(trials=20))
        assert [r.verdict for r in res] == ["pass", "pass"]
        assert columns.calls == 4   # -x, 1, -2*x and 2

    def test_same_terms_over_other_tables_keep_their_columns(self, monkeypatch):
        # "x" over (x, y, z) and "y" over (y, x, z) have one term dict
        yxz = VarTable(["y", "x", "z"])
        assert poly("x").terms == parse_polynomial("y", yxz).terms
        columns = _Counting(oracle._columns)
        monkeypatch.setattr(oracle, "_columns", columns)
        other = {"g": (parse_polynomial("y", yxz), parse_polynomial("x", yxz))}
        items = [("a", _Claimed(poly("x"), {"g": (poly("1"), poly("x"))})),
                 ("b", _Claimed(parse_polynomial("x*y", yxz), other))]
        res = oracle.check_certificates(items, SpotCheckConfig(trials=20))
        assert [r.verdict for r in res] == ["pass", "pass"]
        assert columns.calls == 5   # x and 1; x*y, y and x over (y, x, z)

    def test_prime_above_a_machine_word(self):
        # kept columns are lists, not 64-bit words, for a prime above 2**64
        prime = 2 ** 89 - 1
        gs = GeneratorSet(VT, [Relation("g1", poly("x - 1")),
                               Relation("g2", poly("y - x"))])
        items = [("good", membership(poly("x^2 - 1"), gs)),
                 ("bad", _PlantedCofactor(membership(poly("y^2 - 1"), gs), poly("z")))]
        cfg = SpotCheckConfig(trials=120, prime=prime)
        good, bad = oracle.check_certificates(items, cfg)
        assert good.verdict == "pass" and len(bad.failures) == 120
        assert max(int(x) for w in bad.failures for x in w["point"].values()) >= 2 ** 64

    def test_every_column_is_released(self, monkeypatch, lemma32_items):
        sweeps = _recording_sweeps(monkeypatch)
        oracle.check_certificates(lemma32_items, SpotCheckConfig(trials=250))
        check_certificate(lemma32_items[0][1], cfg=SpotCheckConfig(trials=150))
        assert len(sweeps) == 2
        for sweep in sweeps:
            assert sweep.columns == {}

    def test_a_sweep_leaves_no_reference_cycle(self, lemma32_items):
        # the sweep and its memo of monomial columns are freed on return by
        # reference counting, not left to the cyclic collector
        gc.collect()
        gc.disable()
        try:
            oracle.check_certificates(lemma32_items, SpotCheckConfig())
            assert gc.collect() == 0
            check_certificate(lemma32_items[0][1], cfg=SpotCheckConfig(trials=150))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_one_stream_per_variable_and_one_column_per_operand(self, monkeypatch,
                                                               lemma32_items):
        counting = _CountingShake()
        monkeypatch.setattr(oracle, "shake_256", counting)
        columns = _Counting(oracle._columns)
        monkeypatch.setattr(oracle, "_columns", columns)
        for trials, blocks in ((100, 1), (250, 3)):
            counting.calls = columns.calls = 0
            res = oracle.check_certificates(lemma32_items, SpotCheckConfig(trials=trials))
            assert all(r.verdict == "pass" for r in res)
            assert counting.calls == 17 * blocks     # distinct variables, a stream per block
            assert columns.calls == 146              # distinct operands, over all trials

    def test_each_prefix_and_power_is_made_once(self, monkeypatch, lemma32_items):
        # the sweep's work, pinned as division counts are: a change that
        # loses the sharing across operands and checks fails here
        sweeps = _recording_sweeps(monkeypatch)
        oracle.check_certificates(lemma32_items, SpotCheckConfig())
        (sweep,) = sweeps
        assert sweep_work(sweep) == (42, 3, 17)

    def test_shared_columns_match_exactpoly(self, monkeypatch, lemma32_items):
        # every distinct operand's column, at the point every check of the
        # sweep reads, against the engine's own modular evaluation
        cfg = SpotCheckConfig(seed=2)
        seen = {}
        real = oracle._Sweep.column

        def recording(self, q, powers):
            col = real(self, q, powers)
            seen.setdefault((q.table.names, frozenset(q.terms.items())), (q, col))
            return col

        monkeypatch.setattr(oracle._Sweep, "column", recording)
        oracle.check_certificates(lemma32_items, cfg)
        assert len(seen) == 146
        for trial in (0, 57, 99):
            for q, col in seen.values():
                point = sample_point(cfg, trial, q.table.names)
                assert col[trial] == evaluate(q, point, modulus=cfg.prime)


VT5 = VarTable(["a", "b", "c", "d", "e"])
_fraction = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))
_poly5 = st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(VT5)), _fraction,
                         min_size=0, max_size=8).map(lambda terms: Polynomial(VT5, terms))
_prime = st.sampled_from([DEFAULT_PRIME, *oracle._extra_primes()])


@settings(max_examples=50, deadline=None)
@given(_poly5, _prime, st.data())
def test_compiled_evaluation_matches_exactpoly(p, prime, data):
    x = data.draw(st.lists(st.integers(0, prime - 1), min_size=len(VT5), max_size=len(VT5)))
    expected = evaluate(p, dict(zip(VT5.names, x)), modulus=prime)
    memo = oracle._Monomials(lambda i: [x[i]], prime)
    assert oracle._columns(oracle._compile(p, prime), memo, 1, prime) == [expected]


VT1 = VarTable(["s"])
_tables = st.sampled_from([VT5, VT1])


@st.composite
def _columns_case(draw):
    table = draw(_tables)
    n = len(table)
    constant = st.dictionaries(st.just((0,) * n), _fraction, max_size=1)
    general = st.dictionaries(st.tuples(*[st.integers(0, 5)] * n), _fraction, max_size=8)
    p = Polynomial(table, draw(st.one_of(constant, general)))
    prime = draw(_prime)
    points = draw(st.lists(st.lists(st.integers(0, prime - 1), min_size=n, max_size=n),
                           min_size=1, max_size=7))
    return p, prime, points


@settings(max_examples=50, deadline=None)
@given(_columns_case())
def test_column_kernel_matches_exactpoly_at_each_point(case):
    p, prime, points = case
    memo = oracle._Monomials(lambda i: [x[i] for x in points], prime)
    expected = [evaluate(p, dict(zip(p.table.names, x)), modulus=prime) for x in points]
    assert oracle._columns(oracle._compile(p, prime), memo, len(points), prime) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(_poly5, min_size=2, max_size=4), _prime, st.data())
def test_one_memo_shared_by_several_polynomials(polys, prime, data):
    # prefixes and powers made for one polynomial are read by the next
    points = data.draw(st.lists(st.lists(st.integers(0, prime - 1), min_size=len(VT5),
                                         max_size=len(VT5)), min_size=1, max_size=5))
    memo = oracle._Monomials(lambda i: [x[i] for x in points], prime)
    for p in polys:
        expected = [evaluate(p, dict(zip(VT5.names, x)), modulus=prime) for x in points]
        assert oracle._columns(oracle._compile(p, prime), memo, len(points), prime) == expected


def test_oracle_imports_nothing_from_curvelim():
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracle.py"
            names = [node.module]
        else:
            continue
        assert not any(n == "curvelim" or n.startswith("curvelim.") for n in names), names
