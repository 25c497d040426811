"""The benchmark's span tracer (``perfbench/tracer.py``) names curvelim
functions by module and attribute path.  These tests load it as it is and
check that every name still resolves and that installing and uninstalling it
leaves every curvelim attribute as it was, so a rename or move in the engine
fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for _, name, *_ in module.TARGETS:
        importlib.import_module(name)
    return module


def _snapshot(tracer):
    return {(owner, attr): value for owner in tracer._owners()
            for attr, value in list(vars(owner).items())}


def test_every_target_resolves(tracer):
    for span, module, path, _, _ in tracer.TARGETS:
        assert callable(tracer._resolve(module, path)), (span, module, path)


def test_install_then_uninstall_restores_every_attribute(tracer):
    targets = [(module, path) for _, module, path, _, _ in tracer.TARGETS]
    originals = [tracer._resolve(module, path) for module, path in targets]
    before = _snapshot(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        for (module, path), original in zip(targets, originals):
            assert tracer._resolve(module, path) is not original, (module, path)
    finally:
        t.uninstall()
    after = _snapshot(tracer)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_groebner_spans_count_the_bases_built(tracer, monkeypatch):
    # membership reaches its Buchberger runs through the stage cache, and
    # only a finished basis is an ideal.groebner span: the case branches'
    # eliminations are certified members, so there is none.  A claim's basis
    # work is membership's own time, and the e3/e4 claims carried over from
    # e2 make no membership call
    import curvelim.pipeline as pipeline

    runners = []
    real_init = pipeline.StageRunner.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        runners.append(self)

    monkeypatch.setattr(pipeline.StageRunner, "__init__", recording_init)
    t = tracer.Tracer()
    t.install()
    try:
        result = pipeline.run_lemma32(pipeline.Config())
    finally:
        t.uninstall()
    assert result.verdict() == "success"
    spans = {name: [row for row in t.rows if row[2] == name]
             for name in ("ideal.groebner", "ideal.eliminate", "ideal.membership")}
    assert len(spans["ideal.groebner"]) == len(spans["ideal.eliminate"]) == 0
    assert len(spans["ideal.membership"]) == 25
    assert sum(len(r.bases) for r in runners) == 15


def test_sweep_reaches_each_check_once(tracer):
    # the tracer wraps oracle.check_certificate and reads its cfg; a sweep
    # must still make one such call per certificate
    from curvelim import oracle
    from curvelim.pipeline import Config, run_builtin

    items = list(run_builtin("lemma32", Config(trials=1)).identities().items())
    assert len(items) == 82
    t = tracer.Tracer()
    t.install()
    try:
        results = oracle.check_certificates(items, oracle.SpotCheckConfig(trials=5))
    finally:
        t.uninstall()
    assert all(r.verdict == "pass" for r in results)
    rows = [row for row in t.rows if row[2] == "oracle.check_certificate"]
    assert [row[7] for row in rows] == [
        [5 * (1 + (1 if cert.power and cert.multiplier is not None else 0)
              + 2 * len(cert.pairs)), True]
        for _, cert in items]
