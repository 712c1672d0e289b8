"""Command-line behavior: exit codes, JSON schema, determinism, file I/O."""

import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
from importlib import resources

import pytest

from hypmid import cli


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_path(name: str) -> str:
    return str(resources.files("hypmid") / "corpus" / name)


class TestMidpoint:
    def test_vertical_case_json(self, capsys):
        code, out, _ = run(capsys, "midpoint", "--model", "h2", "--x", "0,1", "--y", "0,4")
        assert code == 0
        payload = json.loads(out)
        assert payload["z"] == pytest.approx([0.0, 2.0], abs=1e-12)
        for key in ("model", "x", "y", "method", "z", "residual_rho", "residual_carrier", "trace"):
            assert key in payload
        assert all({"kind", "inputs", "produces", "label"} <= set(step) for step in payload["trace"])

    def test_disk_diameter_plain(self, capsys):
        code, out, _ = run(capsys, "midpoint", "--model", "b2", "--x", "0,0", "--y", "0.8,0", "--plain")
        assert code == 0
        assert out.startswith("z = 0.5,0")

    def test_equal_moduli_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "midpoint", "--model", "b2",
            "--x", "0.5,0", "--y", "0.353553390593,0.353553390593", "--method", "I",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["reason"] == "EqualModuli"
        assert "fallback" in payload

    def test_usage_error_exit_64(self, capsys):
        code, _, err = run(capsys, "midpoint", "--model", "h2", "--x", "0,1")
        assert code == 64
        assert "usage" in err

    def test_bad_point_syntax(self, capsys):
        code, _, err = run(capsys, "midpoint", "--model", "h2", "--x", "zap", "--y", "0,1")
        assert code == 64

    @pytest.mark.parametrize("method", ["V", "angles"])
    def test_method_model_lacks_is_usage_error(self, capsys, method):
        code, out, err = run(capsys, "midpoint", "--model", "h2", "--x", "0,1", "--y", "1,1", "--method", method)
        assert code == 64
        assert err.startswith("error: ") and method in err
        assert out == ""

    def test_outside_domain_is_error(self, capsys):
        code, _, err = run(capsys, "midpoint", "--model", "h2", "--x", "0,-1", "--y", "0,1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("x", ["inf,1", "nan,1"])
    def test_non_finite_h2_point_is_outside_domain(self, capsys, x):
        code, out, err = run(capsys, "midpoint", "--model", "h2", "--x", x, "--y", "0,1")
        assert code == 1
        assert err.startswith("error: ") and err.rstrip().endswith("is not in the h2 domain")
        assert "Traceback" not in err and out == ""


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "h2", "--samples", "50", "--seed", "42")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_seeded_reproducibility(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "b2", "--samples", "40", "--seed", "7")
        code2, out2, _ = run(capsys, "verify", "--suite", "b2", "--samples", "40", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_zero_samples_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", "0")
        assert code == 64

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_bad_tol_usage_error(self, capsys, value):
        code, out, err = run(capsys, "verify", "--suite", "h2", "--samples", "5", "--tol", value)
        assert code == 64
        assert out == ""
        assert "error: --tol must be finite and positive" in err

    def test_each_suite_runs_only_its_models_checks(self, capsys):
        lines = {}
        for suite in ("h2", "b2", "all"):
            _, out, _ = run(capsys, "verify", "--suite", suite, "--samples", "20", "--seed", "3")
            lines[suite] = out.splitlines()[:-1]  # the checks, without the summary line
        assert not any("b2" in line for line in lines["h2"])
        assert not any("h2" in line for line in lines["b2"])
        assert sorted(lines["h2"] + lines["b2"]) == sorted(lines["all"])


class TestScript:
    def test_run_corpus_file(self, capsys):
        code, out, _ = run(capsys, "script", "run", corpus_path("b2_method_i.hgc"))
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert "z =" in out

    def test_run_with_bind(self, capsys):
        code, out, _ = run(
            capsys, "script", "run", corpus_path("h2_method_iii.hgc"),
            "--bind", "x=0.7071067811865476,0.7071067811865476",
        )
        assert code == 0

    def test_run_with_unknown_bind(self, capsys):
        code, _, err = run(capsys, "script", "run", corpus_path("h2_case1.hgc"), "--bind", "nope=1,2")
        assert code == 1
        assert "nope" in err

    def test_fmt_idempotent(self, capsys, tmp_path):
        src = (resources.files("hypmid") / "corpus" / "b2_chain.hgc").read_text(encoding="utf-8")
        work = tmp_path / "work.hgc"
        work.write_text(src, encoding="utf-8")
        code, out1, _ = run(capsys, "script", "fmt", str(work))
        assert code == 0
        work.write_text(out1, encoding="utf-8")
        code, out2, _ = run(capsys, "script", "fmt", str(work))
        assert out1 == out2

    def test_fmt_write_in_place(self, capsys, tmp_path):
        work = tmp_path / "w.hgc"
        work.write_text("point   x =(0.5,0.0)\n", encoding="utf-8")
        code, out, _ = run(capsys, "script", "fmt", str(work), "--write")
        assert code == 0 and out == ""
        assert work.read_text(encoding="utf-8") == "point x = (0.5, 0.0)\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "script", "run", "/nonexistent/x.hgc")
        assert code == 1

    def test_parse_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.hgc"
        bad.write_text("point x = (0.5,\n", encoding="utf-8")
        code, _, err = run(capsys, "script", "run", str(bad))
        assert code == 1
        assert "line 1" in err


class TestRender:
    def test_render_method_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25", "--method", "I"]
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text(encoding="utf-8")
        assert "S¹(w,r_w)" in text

    def test_render_h2_case1_has_aux_circles(self, capsys, tmp_path):
        out = tmp_path / "c.svg"
        code, _, _ = run(capsys, "render", "--model", "h2", "--x", "0,1", "--y", "0,4", "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").count("stroke-dasharray") >= 3

    def test_render_script(self, capsys, tmp_path):
        out = tmp_path / "s.svg"
        code, _, _ = run(capsys, "render", "--script", corpus_path("b2_case1.hgc"), "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_zero_canvas_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "--model", "h2", "--x", "0,1", "--y", "0,4",
            "--out", str(tmp_path / "z.svg"), "--size", "0",
        )
        assert code == 64

    @pytest.mark.parametrize("method", ["V", "angles"])
    def test_method_model_lacks_is_usage_error(self, capsys, tmp_path, method):
        out = tmp_path / "m.svg"
        code, _, err = run(
            capsys, "render", "--model", "h2", "--x", "0,1", "--y", "1,1", "--method", method, "--out", str(out),
        )
        assert code == 64
        assert err.startswith("error: ") and method in err
        assert not out.exists()

    def test_inapplicable_method_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "--model", "b2", "--x", "0.5,0", "--y", "0,0.5",
            "--method", "I", "--out", str(tmp_path / "z.svg"),
        )
        assert code == 2


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("HYPMID_TOL", "1e-6")
    tol = cli.default_tolerance()
    assert tol.eps_incidence == 1e-6
    monkeypatch.delenv("HYPMID_TOL")
    assert cli.default_tolerance().eps_incidence == 1e-9


@pytest.mark.parametrize("value", ["abc", "1e-15"])
def test_bad_tolerance_env_is_usage_error(monkeypatch, capsys, value):
    # "1e-15" is below eps_degenerate, which Tolerance refuses
    monkeypatch.setenv("HYPMID_TOL", value)
    code, out, err = run(capsys, "midpoint", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25")
    assert code == 64
    assert out == ""
    assert err.startswith("error: HYPMID_TOL=")
    assert "Traceback" not in err


def test_cli_import_loads_only_what_midpoint_runs():
    # a fresh interpreter, so that no other test has imported the lazy modules
    probe = textwrap.dedent(
        """
        import sys
        before = set(sys.modules)
        from hypmid import cli
        lazy = ("dataclasses", "hypmid.script", "hypmid.render", "hypmid.sweeps", "hypmid.constructions.reports")
        print(sorted(m for m in lazy if m in sys.modules and m not in before))
        print(cli.main(["verify", "--suite", "h2", "--samples", "5"]))
        print("hypmid.sweeps" in sys.modules, "dataclasses" in set(sys.modules) - before)
        """
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert "h2 vertical case vs oracle" in proc.stdout
    assert lines[-2:] == ["0", "True False"]


def test_json_output_is_sorted_and_stable(capsys):
    code1, out1, _ = run(capsys, "midpoint", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25")
    code2, out2, _ = run(capsys, "midpoint", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25")
    assert out1 == out2
    payload = json.loads(out1)
    assert math.isclose(payload["residual_rho"], 0.0, abs_tol=1e-9)
