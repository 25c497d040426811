"""Checks of the span tracer: rebinding, restoring and self-time accounting.

    python3 -m pytest perfbench/tests/check_tracer.py -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402

from curvelim import cli, exactpoly, ideal, pipeline  # noqa: E402


def snapshot():
    return {(owner, attr): value for owner in tracer._owners()
            for attr, value in list(vars(owner).items())}


def test_uninstall_restores_every_curvelim_attribute():
    before = snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert pipeline.membership is not before[(ideal, "membership")]
        assert cli.run_builtin is pipeline.run_builtin
        assert exactpoly.Polynomial.__rmul__ is exactpoly.Polynomial.__mul__
        assert exactpoly.Polynomial.__mul__ is not before[(exactpoly.Polynomial, "__mul__")]
    finally:
        t.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_install_twice_is_refused():
    t = tracer.Tracer()
    t.install()
    try:
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()


def traced(argvs):
    t = tracer.Tracer()
    t.install()
    try:
        for argv in argvs:
            assert t.root(lambda: cli.main(argv)) == 0
    finally:
        t.uninstall()
    return t.rows


def test_self_times_add_up_to_the_root_span(capsys):
    rows = traced([["poly", "groebner", "x^2-y, x*y-1"]])
    m = tracer.layer_metrics(rows)
    root = next(r for r in rows if r[2] == "bench.op")
    assert tracer.accounted_s(m) == pytest.approx(root[6] - root[3], rel=1e-9)
    assert m["ideal.groebner.calls"] == 1 and m["ideal.groebner.basis_max"] == 3
    assert m["exactpoly.leading_term.calls"] > 0 and m["cli.self_s"] > 0


def test_repeated_groebner_input_is_counted(capsys):
    argv = ["poly", "groebner", "x^2-y, x*y-1"]
    m = tracer.layer_metrics(traced([argv, argv, ["poly", "groebner", "x-y"]]))
    assert m["ideal.groebner.calls"] == 3
    assert m["ideal.groebner.repeat_share"] == pytest.approx(1 / 3)


def test_self_time_subtracts_children_and_bookkeeping():
    rows = [
        (1, 0, "bench.op", 0.0, 0.0, 10.0, 10.0, None),
        (2, 1, "ideal.membership", 1.0, 1.5, 5.0, 5.5, False),
        (3, 2, "exactpoly.mul", 2.0, 2.0, 3.0, 3.0, 4),
        (4, 1, "ideal.membership", 6.0, 6.0, 7.0, 7.0, "ResourceExhausted"),
        (5, 4, "ideal.groebner", 6.0, 6.0, 7.0, 7.0, "ResourceExhausted"),
    ]
    own = tracer.self_times(rows)
    assert own == {1: 4.5, 2: 2.5, 3: 1.0, 4: 0.0, 5: 1.0}
    m = tracer.layer_metrics(rows)
    assert m["trace.wrapper_s"] == 1.0
    assert m["exactpoly.mul.term_products"] == 4
    assert m["ideal.resource_fail"] == 1  # the groebner failure surfaces once
    assert tracer.accounted_s(m) == 10.0
