"""Command-line front end: exit codes, report schema, algebra utilities."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvelim.frame as frame
from curvelim.cli import main
from curvelim.exactpoly import VarTable, parse_polynomial

pytestmark = pytest.mark.usefixtures("tmp_path")

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "docs", "example.ds")


def run_cli(argv):
    return main(argv)


class TestPoly:
    def test_resultant(self, capsys):
        assert run_cli(["poly", "resultant", "K-H", "K+H", "K"]) == 0
        assert capsys.readouterr().out.strip() == "2*H"

    def test_reduce(self, capsys):
        assert run_cli(["poly", "reduce", "x^2", "x-1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_groebner_unit(self, capsys):
        assert run_cli(["poly", "groebner", "x,x+1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_parse_error_exit_2(self, capsys):
        assert run_cli(["poly", "resultant", "x +* 1", "x", "x"]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize("argv, message", [
        (["resultant", "x+1", "y", "x"], "resultant requires positive degree"),
        (["reduce", "x^2", ""], "empty generator set"),
    ], ids=["resultant-degree", "reduce-no-divisors"])
    def test_algebra_error_is_not_a_parse_error(self, capsys, argv, message):
        assert run_cli(["poly"] + argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("gens", [",", ""])
    def test_groebner_without_generators_exit_2(self, capsys, gens):
        assert run_cli(["poly", "groebner", gens]) == 2
        assert "empty generator set" in capsys.readouterr().err


class TestVerify:
    def test_unknown_stage_exit_2(self, tmp_path):
        rc = run_cli(["verify", "--stage", "nosuch",
                      "--report", str(tmp_path / "r.json")])
        assert rc == 2

    def test_corrupt_script_exit_2(self, tmp_path):
        script = tmp_path / "bad.ds"
        script.write_text("SYMBOLS x\nNOT_A_DIRECTIVE\n")
        rc = run_cli(["verify", "--script", str(script),
                      "--report", str(tmp_path / "r.json")])
        assert rc == 2

    def test_script_with_unknown_axiom_exit_2(self, tmp_path, capsys):
        script = tmp_path / "bad2.ds"
        script.write_text("SYMBOLS x y\nSTAGE s\nSTEP a assume ghost\n")
        rc = run_cli(["verify", "--script", str(script),
                      "--report", str(tmp_path / "r.json")])
        assert rc == 2
        assert "ghost" in capsys.readouterr().err

    def test_successful_stage_exit_0_and_schema(self, tmp_path, capsys):
        path = tmp_path / "l31.json"
        rc = run_cli(["verify", "--stage", "lemma31", "--report", str(path),
                      "--trials", "5"])
        assert rc == 0
        rep = json.loads(path.read_text())
        assert set(rep) >= {"engine_version", "seed", "stages", "verdict"}
        assert rep["verdict"] == "success"
        for stage in rep["stages"]:
            assert set(stage) >= {"name", "steps"}
            for step in stage["steps"]:
                for key in ("id", "citation", "quote", "status",
                            "certificate_digest", "multiplier_power", "timing_ms"):
                    assert key in step

    def test_report_written_even_on_failure(self, tmp_path):
        path = tmp_path / "t33.json"
        rc = run_cli(["verify", "--stage", "theorem33", "--report", str(path),
                      "--trials", "2"])
        assert rc == 1
        rep = json.loads(path.read_text())
        assert rep["verdict"] == "documented-discrepancy"

    def test_report_written_when_a_step_fails(self, tmp_path, monkeypatch):
        patched = [frame.RegistryEntry(e.eid, e.text + " + v3*v4", e.citation, e.quote,
                                       e.role, e.note)
                   if e.eid == "eq_3_34" else e for e in frame._REGISTRY]
        monkeypatch.setattr(frame, "_REGISTRY", patched)
        path = tmp_path / "l32.json"
        rc = run_cli(["verify", "--stage", "lemma32", "--report", str(path),
                      "--trials", "2"])
        assert rc == 1
        rep = json.loads(path.read_text())
        assert rep["verdict"] == "failure"
        steps = {s["id"]: s["status"] for s in rep["stages"][0]["steps"]}
        assert steps["eq_3_34"] == "not-member"

    @pytest.mark.parametrize("eid", ["eq_3_33", "eq_3_40"])
    def test_report_written_when_a_transcription_does_not_parse(self, tmp_path,
                                                                monkeypatch, eid):
        patched = [frame.RegistryEntry(e.eid, e.text + " +* v3", e.citation, e.quote,
                                       e.role, e.note)
                   if e.eid == eid else e for e in frame._REGISTRY]
        monkeypatch.setattr(frame, "_REGISTRY", patched)
        path = tmp_path / "l32.json"
        rc = run_cli(["verify", "--stage", "lemma32", "--report", str(path),
                      "--trials", "2"])
        assert rc == 1
        rep = json.loads(path.read_text())
        assert rep["verdict"] == "failure"
        steps = {s["id"]: s["status"] for s in rep["stages"][0]["steps"]}
        assert steps[eid] == "failure"

    def test_unused_unparseable_transcription_spares_other_stages(self, tmp_path,
                                                                  monkeypatch):
        # theorem33 and paper-symbol scripts never use (3.33), so its broken
        # transcription fails only the lemma32 step that parses it
        from curvelim.pipeline import Config, run_builtin, run_script
        patched = [frame.RegistryEntry(e.eid, e.text + " +* v3", e.citation, e.quote,
                                       e.role, e.note)
                   if e.eid == "eq_3_33" else e for e in frame._REGISTRY]
        monkeypatch.setattr(frame, "_REGISTRY", patched)
        assert run_builtin("theorem33", Config(trials=2)).verdict() == "documented-discrepancy"
        script = "SYMBOLS paper\nSTAGE s\nSTEP a assume eq_3_11\n"
        assert run_script(script, Config(trials=2)).verdict() == "success"
        path = tmp_path / "l32.json"
        assert run_cli(["verify", "--stage", "lemma32", "--report", str(path),
                        "--trials", "2"]) == 1
        steps = {s["id"]: s["status"] for s in json.loads(path.read_text())["stages"][0]["steps"]}
        assert steps["eq_3_33"] == "failure"

    def test_good_script_exit_0(self, tmp_path):
        script = tmp_path / "ok.ds"
        script.write_text(
            "SYMBOLS t x y\n"
            "AXIOM ax1 | x - t | toy | x = t\n"
            "AXIOM ax2 | y - t^2 | toy | y = t^2\n"
            "STAGE toy\n"
            "STEP s1 assume ax1\n"
            "STEP s2 assume ax2\n"
            "STEP s3 assert_member y - x^2 USING ax1,ax2\n")
        path = tmp_path / "toy.json"
        rc = run_cli(["verify", "--script", str(script), "--report", str(path),
                      "--trials", "3"])
        assert rc == 0

    def test_env_report_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVELIM_REPORT_DIR", str(tmp_path))
        rc = run_cli(["verify", "--stage", "lemma31", "--trials", "2"])
        assert rc == 0
        assert (tmp_path / "report.json").exists()

    def test_resource_ceiling_exit_3(self, tmp_path):
        path = tmp_path / "squeezed.json"
        rc = run_cli(["verify", "--stage", "lemma31", "--report", str(path),
                      "--max-basis", "1", "--trials", "1"])
        assert rc == 3
        rep = json.loads(path.read_text())
        assert any(s["verdict"] == "resource-fail" for s in rep["stages"])

    def test_bad_oracle_setting_rejected_before_any_stage(self, tmp_path, monkeypatch,
                                                          capsys):
        import curvelim.cli as cli

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "run_builtin", no_stage)
        path = tmp_path / "r.json"
        assert run_cli(["verify", "--modulus", "4", "--report", str(path)]) == 2
        assert "bad oracle configuration" in capsys.readouterr().err
        assert not path.exists()

    def test_negative_max_power_rejected_before_any_stage(self, tmp_path, monkeypatch,
                                                          capsys):
        import curvelim.cli as cli

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "run_builtin", no_stage)
        path = tmp_path / "r.json"
        assert run_cli(["verify", "--stage", "lemma31", "--max-power", "-1",
                        "--report", str(path)]) == 2
        assert "max_power must be at least 0" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("flag, value", [("--max-basis", "0"), ("--max-pairs", "-1"),
                                             ("--max-basis", "-1")])
    def test_ceiling_below_one_rejected_before_any_stage(self, tmp_path, monkeypatch,
                                                         capsys, flag, value):
        import curvelim.cli as cli

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "run_builtin", no_stage)
        path = tmp_path / "r.json"
        assert run_cli(["verify", "--stage", "lemma31", flag, value, "--trials", "2",
                        "--report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad configuration: ") and "at least 1" in err
        ceilings = {"max_basis": 4000, "max_pairs": 200000, flag[2:].replace("-", "_"): value}
        assert "Limits(max_basis={max_basis}, max_pairs={max_pairs})".format(**ceilings) in err
        assert not path.exists()

    @pytest.mark.parametrize("lines, line, words", [
        (["SATURATION z | 0 | zero"], 2, "'z' is zero"),
        (["SATURATION z | x - x | zero"], 2, "'z' is zero"),
        (["AXIOM a | x | toy | x", "AXIOM a | y | toy | y"], 3, "duplicate AXIOM id 'a'"),
        (["SATURATION n | x | toy", "SATURATION n | y | toy"], 3,
         "duplicate SATURATION id 'n'"),
    ], ids=["zero-saturation", "cancelled-saturation", "duplicate-axiom",
            "duplicate-saturation"])
    def test_malformed_script_exit_2_before_any_stage(self, tmp_path, capsys, lines,
                                                      line, words):
        script = tmp_path / "bad.ds"
        script.write_text("\n".join(["SYMBOLS x y", *lines,
                                      "STAGE s", "STEP s1 annotate none"]) + "\n")
        path = tmp_path / "bad.json"
        assert run_cli(["verify", "--script", str(script), "--report", str(path),
                        "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert f"script error: line {line}: " in err and words in err
        assert not path.exists()
        assert os.listdir(tmp_path) == ["bad.ds"]   # and no temporary report file

    def test_undecodable_script_exit_2(self, tmp_path, capsys):
        script = tmp_path / "bad.ds"
        script.write_bytes(b"\xff\xfe\x00x")
        path = tmp_path / "r.json"
        assert run_cli(["verify", "--script", str(script), "--report", str(path)]) == 2
        assert "cannot read script: " in capsys.readouterr().err
        assert not path.exists()

    def _unwritable_report_path_exit_2(self, tmp_path, capsys, monkeypatch, argv, entry):
        # a directory at the report path is found before anything runs
        import curvelim.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError(f"{entry} was called")

        monkeypatch.setattr(cli, entry, no_run)
        path = tmp_path / "dir"
        path.mkdir()
        assert run_cli(["verify", *argv, "--trials", "2", "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert "cannot write report: " in captured.err and captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["dir"]
        assert os.listdir(path) == []

    def test_unwritable_report_path_exit_2(self, tmp_path, capsys, monkeypatch):
        self._unwritable_report_path_exit_2(tmp_path, capsys, monkeypatch,
                                            ["--stage", "lemma31"], "run_builtin")

    def test_unwritable_report_path_runs_no_script(self, tmp_path, capsys, monkeypatch):
        self._unwritable_report_path_exit_2(tmp_path, capsys, monkeypatch,
                                            ["--script", EXAMPLE], "run_script")

    def test_example_script(self, tmp_path):
        rc = run_cli(["verify", "--script", EXAMPLE,
                      "--report", str(tmp_path / "toy.json"), "--trials", "3"])
        assert rc == 0


class TestOneRendering:
    """``verify`` prints what ``report`` prints of the file it wrote, followed
    by its ``report written to`` line, and takes its defaults from Config."""

    def _verify_then_report(self, capsys, argv, path):
        rc = run_cli(["verify", *argv, "--report", str(path)])
        verified = capsys.readouterr().out.splitlines(keepends=True)
        assert verified[-1] == f"report written to {path}\n"
        assert run_cli(["report", str(path)]) == 0
        assert "".join(verified[:-1]) == capsys.readouterr().out
        return rc, verified[:-1]

    def test_one_stage(self, tmp_path, capsys):
        rc, _ = self._verify_then_report(capsys, ["--stage", "lemma31", "--trials", "2"],
                                         tmp_path / "l31.json")
        assert rc == 0

    def test_replay(self, tmp_path, capsys):
        rc, lines = self._verify_then_report(capsys, ["--canonical", "--trials", "2"],
                                             tmp_path / "all.json")
        assert rc == 1
        assert "mismatches: 4\n" in lines

    def test_failure_records_are_named(self, tmp_path, capsys):
        script = tmp_path / "reader.ds"
        script.write_text("SYMBOLS x y\nAXIOM ax | x | toy | x vanishes\nSTAGE s\n"
                          "STEP a assume ax\nSTEP c assert_member y USING ax\n"
                          "STEP d assert_nonzero c\n")
        rc, lines = self._verify_then_report(capsys, ["--script", str(script), "--trials", "2"],
                                             tmp_path / "reader.json")
        assert rc == 1
        assert "  not-member s.c\n" in lines
        assert "  failure s.d: relations not in the knowledge ideal: ['c']\n" in lines

    def test_verify_defaults_are_config_defaults(self):
        from curvelim.cli import build_parser
        from curvelim.pipeline import Config
        args = build_parser().parse_args(["verify"])
        config = Config()
        assert (args.seed, args.trials, args.modulus, args.max_power) == (
            config.seed, config.trials, config.modulus, config.max_power)
        assert (args.max_basis, args.max_pairs) == (config.limits.max_basis,
                                                    config.limits.max_pairs)

    def test_verify_has_no_format_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--format", "text", "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "r.json").exists()


class TestReportCommand:
    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli(["report", str(tmp_path / "nope.json")]) == 2

    def test_undecodable_report_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00x")
        assert run_cli(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert "cannot read report: " in captured.err and captured.out == ""

    def test_empty_report(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"stages": [], "verdict": "success"}))
        assert run_cli(["report", str(path)]) == 0
        assert "no steps" in capsys.readouterr().out

    @pytest.mark.parametrize("text, words, fmt", [
        ("[]", "the top level is not a JSON object", "text"),
        ('{"stages":[{"steps":[{}]}]}', "KeyError: 'status'", "text"),
        ('{"stages":[{"steps":[{}]}]}', "KeyError: 'status'", "json"),
    ], ids=["list", "step-without-status", "step-without-status-json"])
    def test_json_that_is_not_a_report_exit_2(self, tmp_path, capsys, text, words, fmt):
        path = tmp_path / "other.json"
        path.write_text(text)
        assert run_cli(["report", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not a curvelim report: ") and words in captured.err

    def test_summary_counts(self, tmp_path, capsys):
        path = tmp_path / "l31.json"
        assert run_cli(["verify", "--stage", "lemma31", "--report", str(path),
                        "--trials", "2"]) == 0
        capsys.readouterr()
        assert run_cli(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stage lemma31: success" in out
        assert "mismatches: 0" in out
        assert "certificate digests:" in out


class TestScriptReports:
    def test_failed_claim_then_its_reader_writes_the_report(self, tmp_path):
        script = tmp_path / "reader.ds"
        script.write_text(
            "SYMBOLS x y\n"
            "AXIOM ax | x | toy | x vanishes\n"
            "STAGE s\n"
            "STEP a assume ax\n"
            "STEP c assert_member y USING ax\n"
            "STEP d assert_nonzero c\n"
            "STEP e annotate the run goes on\n")
        path = tmp_path / "reader.json"
        rc = run_cli(["verify", "--script", str(script), "--report", str(path),
                      "--trials", "2"])
        assert rc == 1
        rep = json.loads(path.read_text())
        steps = {s["id"]: s for s in rep["stages"][0]["steps"]}
        assert steps["c"]["status"] == "not-member"
        assert steps["d"]["status"] == "failure"
        assert "'c'" in steps["d"]["details"]["error"]
        assert steps["e"]["status"] == "annotation"
        assert rep["verdict"] == "failure"

    def test_rebound_paper_saturation_exit_2_naming_the_line(self, tmp_path, capsys):
        script = tmp_path / "rebind.ds"
        script.write_text("SYMBOLS paper\nSATURATION h1_nonzero | lam2 | mine\n"
                          "STAGE s\nSTEP a assume eq_3_11\n")
        path = tmp_path / "r.json"
        assert run_cli(["verify", "--script", str(script), "--report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "script error: line 2: " in err and "'h1_nonzero'" in err
        assert not path.exists()

    @pytest.mark.parametrize("second", ["STEP b assume ax",
                                        "STEP ax assert_member x^2 - y^2 USING ax"],
                             ids=["assumed-twice", "claim-under-an-axiom-id"])
    def test_repeated_record_id_exit_2_naming_the_line(self, tmp_path, capsys, second):
        # an assume records under its axiom id, so a later step may not reuse it
        script = tmp_path / "twice.ds"
        script.write_text("SYMBOLS x y\nAXIOM ax | x^2 - y^2 | toy | q\nSTAGE s\n"
                          f"STEP a assume ax\n{second}\n")
        path = tmp_path / "twice.json"
        assert run_cli(["verify", "--script", str(script), "--report", str(path),
                        "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert "script error: line 5: duplicate record id 'ax' in stage 's'" in err
        assert not path.exists()

    def test_weights_under_paper_symbols_exit_2_naming_the_line(self, tmp_path, capsys):
        script = tmp_path / "weights.ds"
        script.write_text("SYMBOLS paper\nSTAGE s\nWEIGHTS 1 2\n")
        path = tmp_path / "w.json"
        rc = run_cli(["verify", "--script", str(script), "--report", str(path)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
        assert not path.exists()


SRC = os.path.join(os.path.dirname(__file__), "..", "src")

_PROBE = """
import json, sys
{prelude}
loaded_at_start = [m for m in {modules!r} if m in sys.modules]
from curvelim import cli
rc = cli.main(sys.argv[1:])
print(json.dumps({{"loaded_at_start": loaded_at_start,
                  "loaded": [m for m in {modules!r} if m in sys.modules], "rc": rc}}))
"""


def _fresh_verify(argv, prelude="", modules=("_hashlib",)):
    """``main(argv)`` in a fresh interpreter, after ``prelude``: its exit code
    and which of ``modules`` (OpenSSL's ``_hashlib`` by default) were loaded
    at start-up and at the end."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = _PROBE.format(prelude=prelude, modules=list(modules))
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestHashes:
    """SHA-256 and SHAKE-256 come from CPython's builtin modules, so a verify
    process maps no OpenSSL; ``hashlib``, where they are missing, gives the
    same bytes."""

    def test_verify_loads_no_openssl(self, tmp_path):
        probe = _fresh_verify(["verify", "--stage", "lemma31", "--trials", "2",
                               "--report", str(tmp_path / "r.json")])
        assert not probe["loaded_at_start"], "the interpreter loads OpenSSL at start-up"
        assert not probe["loaded"] and probe["rc"] == 0

    def test_verify_imports_no_dataclasses(self, tmp_path):
        # nor what ``dataclasses`` pulls in
        probe = _fresh_verify(["verify", "--stage", "lemma31", "--trials", "2",
                               "--report", str(tmp_path / "r.json")],
                              modules=("dataclasses", "inspect", "ast", "dis"))
        assert probe["loaded_at_start"] == [], "the interpreter loads them at start-up"
        assert probe["loaded"] == [] and probe["rc"] == 0

    def test_no_module_imports_dataclasses(self):
        for path in Path(SRC, "curvelim").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module]
                else:
                    continue
                assert "dataclasses" not in names, path.name

    def test_hashlib_fallback_gives_the_same_report(self, tmp_path):
        argv = ["verify", "--canonical", "--seed", "0", "--stage", "lemma31"]
        lean, fallback = tmp_path / "lean.json", tmp_path / "fallback.json"
        assert run_cli([*argv, "--report", str(lean)]) == 0
        probe = _fresh_verify([*argv, "--report", str(fallback)], prelude=(
            "for name in ('_sha2', '_sha256', '_sha3'):\n    sys.modules[name] = None"))
        assert probe["loaded"] and probe["rc"] == 0     # the fallback's hashlib
        assert fallback.read_bytes() == lean.read_bytes()

    def test_lean_hashes_match_hashlib(self):
        from curvelim.ideal import GeneratorSet, Relation, membership, sha256
        from curvelim.oracle import shake_256

        seed, var, block = 7, "x", 2
        key = f"{seed}|{var}|{block}".encode()    # an oracle stream's key
        assert shake_256(key).digest(1600) == hashlib.shake_256(key).digest(1600)
        table = VarTable(["x", "y"])
        gens = GeneratorSet(table, [Relation("g", parse_polynomial("x - y", table))])
        text = membership(parse_polynomial("x^2 - y^2", table), gens).identity_text()
        assert "cofactor[g]" in text
        assert sha256(text.encode()).hexdigest() == hashlib.sha256(text.encode()).hexdigest()
