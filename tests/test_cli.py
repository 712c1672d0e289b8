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


# a negative first coordinate in --x, then in --y; argparse alone reads these as options
NEGATIVE_FIRST = [("-0.5,0.2", "0.1,0.3"), ("0.5,0.2", "-0.1,-0.3")]


# a method asked for a pair it refuses, outside its case or (last) by a refusal the method raises itself:
# (model, method, x, y, refusal, auto's method id)
GENERIC_B2, EQUAL_B2, DIAMETER_B2 = ("0.5,0", "0,0.25"), ("0.5,0.1", "0.1,0.5"), ("0.5,0", "-0.25,0")
MISMATCHES = [
    ("b2", "case1", *GENERIC_B2, "NotOnDiameter", "b2-I"),
    ("b2", "case1", *EQUAL_B2, "NotOnDiameter", "b2-equal-moduli"),
    ("b2", "I", *DIAMETER_B2, "CollinearWithOrigin", "b2-case1"),
    ("b2", "equal", *DIAMETER_B2, "CollinearWithOrigin", "b2-case1"),
    ("b2", "angles", *DIAMETER_B2, "CollinearWithOrigin", "b2-case1"),
    ("b2", "equal", *GENERIC_B2, "ModuliDiffer", "b2-I"),
    ("b2", "I", *EQUAL_B2, "EqualModuli", "b2-equal-moduli"),
    ("h2", "case1", "0,1", "1,2", "NotVerticallyAligned", "h2-III"),
    ("h2", "III", "0,1", "0,4", "VerticalCarrier", "h2-case1"),
    ("h2", "I", "0,1", "1,1", "ParallelChord", "h2-III"),  # L(x,y) parallel to the boundary
]

# a generic b2 pair on which method I's chords L(x,y), L(x^*,y^*) are parallel
PARALLEL_CHORDS_B2 = ("--x", "0.5,0", "--y", "-0.4711111703357424,0.16749407507845504")


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

    @pytest.mark.parametrize(
        "model, method, x, y, reason, auto_id", MISMATCHES, ids=[f"{m[0]}-{m[1]}-{m[4]}" for m in MISMATCHES]
    )
    def test_method_outside_its_case_exits_2(self, capsys, model, method, x, y, reason, auto_id):
        code, out, err = run(capsys, "midpoint", "--model", model, "--x", x, "--y", y, "--method", method)
        assert code == 2, err
        payload = json.loads(out)
        assert payload["error"] == "MethodInapplicable" and payload["reason"] == reason
        assert payload["fallback"]["method"] == auto_id
        _, auto_out, _ = run(capsys, "midpoint", "--model", model, "--x", x, "--y", y)
        assert payload["fallback"] == {**json.loads(auto_out), "requested_method": method}

    def test_refusal_without_fallback_when_auto_refuses_too(self, capsys):
        # moduli 1.5e-12 apart: a generic pair whose method I chords are parallel, and auto routes to I
        code, out, err = run(capsys, "midpoint", "--model", "b2", *PARALLEL_CHORDS_B2, "--method", "I")
        assert code == 2, err
        payload = json.loads(out)
        assert payload["reason"] == "ParallelLines"
        assert "fallback" not in payload
        assert run(capsys, "midpoint", "--model", "b2", *PARALLEL_CHORDS_B2, "--method", "II")[0] == 0

    def test_usage_error_exit_64(self, capsys):
        code, _, err = run(capsys, "midpoint", "--model", "h2", "--x", "0,1")
        assert code == 64
        assert "usage" in err

    def test_bad_point_syntax(self, capsys):
        code, _, err = run(capsys, "midpoint", "--model", "h2", "--x", "zap", "--y", "0,1")
        assert code == 64

    @pytest.mark.parametrize("x, y", NEGATIVE_FIRST, ids=["x", "y"])
    def test_negative_first_coordinate(self, capsys, x, y):
        args = ("midpoint", "--model", "b2", "--plain")
        code, out, err = run(capsys, *args, "--x", x, "--y", y)
        assert code == 0, err
        assert run(capsys, *args, f"--x={x}", f"--y={y}") == (0, out, "")

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

    def test_run_outputs_circle_line_and_geodesics(self, capsys, tmp_path):
        src = tmp_path / "curves.hgc"
        src.write_text(
            "point x = (0.5, 1.0)\npoint y = (1.5, 2.0)\ncircle C = circle(x, 0.5)\nline L = line(x, y)\n"
            "geodesic G = geodesic(h2, x, y)\ngeodesic V = geodesic(h2, x, (0.5, 3.0))\n"
            "output C\noutput L\noutput G\noutput V\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "script", "run", str(src))
        assert code == 0, err
        values = {}
        for line in out.splitlines():
            name, _, text = line.partition(" = ")
            values[name] = json.loads(text)
        assert values["C"] == {"center": [0.5, 1.0], "radius": 0.5}
        # G's carrier is the circle about (2.5, 0) through x, V's the vertical line x1 = 0.5
        assert values["G"] == {"center": [pytest.approx(2.5, abs=1e-12), 0.0], "radius": pytest.approx(math.sqrt(5.0))}
        for name, normal, point in (("L", (1.0, -1.0), (1.5, 2.0)), ("V", (1.0, 0.0), (0.5, 3.0))):
            assert set(values[name]) == {"normal", "offset"}
            n, c = values[name]["normal"], values[name]["offset"]
            assert abs(n[0] * normal[1] - n[1] * normal[0]) <= 1e-12 and math.hypot(*n) == pytest.approx(1.0)
            assert n[0] * point[0] + n[1] * point[1] == pytest.approx(c, abs=1e-12)

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

    def test_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.hgc"
        bad.write_bytes("point é = (0.5, 0.0)\n".encode("latin-1"))
        code, _, err = run(capsys, "script", "run", str(bad))
        assert code == 1
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("bind", ["x=0.5", "novalue"])
    def test_malformed_bind_is_usage_error(self, capsys, bind):
        code, _, err = run(capsys, "script", "run", corpus_path("h2_case1.hgc"), "--bind", bind)
        assert code == 64
        assert "argument --bind" in err


class TestRender:
    def test_render_method_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25", "--method", "I"]
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text(encoding="utf-8")
        assert "S¹(w,r_w)" in text

    @pytest.mark.parametrize("x, y", NEGATIVE_FIRST, ids=["x", "y"])
    def test_negative_first_coordinate(self, capsys, tmp_path, x, y):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ("render", "--model", "b2", "--method", "II")
        code, _, err = run(capsys, *args, "--x", x, "--y", y, "--out", str(out1))
        assert code == 0, err
        assert run(capsys, *args, f"--x={x}", f"--y={y}", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_render_h2_script_draws_its_geodesic(self, capsys, tmp_path):
        from hypmid.render import DEFAULT_STYLES

        out = tmp_path / "g.svg"
        code, _, err = run(capsys, "render", "--script", corpus_path("h2_method_iii.hgc"), "--out", str(out))
        assert code == 0, err
        # the circle named carrier is the script's only one drawn in the carrier style
        assert out.read_text(encoding="utf-8").count(f'style="{DEFAULT_STYLES["carrier"]}"') == 1

    def test_script_with_failing_assertion(self, capsys, tmp_path):
        src, out = tmp_path / "f.hgc", tmp_path / "f.svg"
        src.write_text("point x = (0.5, 0.0)\nassert equals(x, origin)\noutput x\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "script", "run", str(src))
        assert code == 1
        fail_line = [line for line in stdout.splitlines() if line.startswith("FAIL line 2: ")]
        assert len(fail_line) == 1
        code, _, err = run(capsys, "render", "--script", str(src), "--out", str(out))
        assert code == 1
        assert err.splitlines() == fail_line
        assert out.read_text(encoding="utf-8").startswith("<?xml")

    def test_missing_script_file(self, capsys, tmp_path):
        out = tmp_path / "x.svg"
        code, _, err = run(capsys, "render", "--script", str(tmp_path / "missing.hgc"), "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and "missing.hgc" in err
        assert not out.exists()

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

    def test_case1_on_generic_pair_exit_2(self, capsys, tmp_path):
        out = tmp_path / "z.svg"
        code, _, err = run(
            capsys, "render", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25", "--method", "case1", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("method inapplicable: NotOnDiameter: ")
        assert not out.exists()


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


def test_python_dash_m_hypmid_prints_what_main_prints(capsys):
    argv = ["midpoint", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25", "--plain"]
    code, out, _ = run(capsys, *argv)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hypmid", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert code == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_json_output_is_sorted_and_stable(capsys):
    code1, out1, _ = run(capsys, "midpoint", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25")
    code2, out2, _ = run(capsys, "midpoint", "--model", "b2", "--x", "0.5,0", "--y", "0,0.25")
    assert out1 == out2
    payload = json.loads(out1)
    assert math.isclose(payload["residual_rho"], 0.0, abs_tol=1e-9)
