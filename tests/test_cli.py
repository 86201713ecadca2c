import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetazeros
from zetazeros.cli import main


def run(*argv):
    return main(list(argv))


def test_eval_value(capsys):
    assert run("eval", "ezd(2)", "--at", "2") == 0
    out = capsys.readouterr().out
    assert f"{math.pi**4 / 120:.10f}"[:12] in out or "0.81174242528" in out


def test_eval_multiple_points(capsys):
    assert run("eval", "zeta(s)", "--at", "2", "--at", "0.5+14.134725i",
               "--at", "3i", "--at", "2 + 1i") == 0
    out = capsys.readouterr().out
    assert out.count("F(") == 4
    assert "F(0.5+14.1347j)" in out and "F(0+3j)" in out and "F(2+1j)" in out


def test_eval_pole_exit_3(capsys):
    assert run("eval", "zeta(s)", "--at", "1") == 3
    # A value that overflows a float is an evaluation error too.
    for text, at in (("xi(s)", "700"), ("dirichlet[(1,-800)]", "1")):
        assert run("eval", text, "--at", at) == 3, text
        assert "evaluation error (OverflowError)" in capsys.readouterr().err


def test_eval_syntax_exit_2(capsys):
    assert run("eval", "zeta(s", "--at", "2") == 2
    assert run("eval", "frob(s)", "--at", "2") == 2
    for text in ("zeta(s/0)", "hurwitz(s,1/0)", "barnes(2,1/0)", "zeta(1/0*s)", "zeta(s/2.5)"):
        assert run("eval", text, "--at", "2") == 2, text
    # a digit outside ASCII is a syntax error with its position, not a bare ValueError
    capsys.readouterr()
    assert run("eval", "zeta(s)^\u00b2", "--at", "2") == 2
    assert "syntax error: unexpected character '\u00b2' (at position 8)" in capsys.readouterr().err
    # structural parameters outside the family's range are usage errors
    for text in ("ezd(0)", "ezd(13)", "barnes(13,1/2)", "sphere(17)", "symmat(4,Ln,+1,+1)"):
        assert run("eval", text, "--at", "2.3") == 2, text


def test_usage_error_exit_2(tmp_path, capsys):
    cfg = tmp_path / "mordell.cfg"
    cfg.write_text("r = 2\nm = 3\nlambda = 1 0  0 1  1 1\nshifts = 0 0\noffset = from_one\n")
    for argv in (("density", "zeta(s)", "--sigma0", "0.55", "--T", ""),
                 ("eval", "zeta(s)", "--at", "foo"),
                 ("eval", "--config", str(cfg), "--at-tuple", "2;x"),
                 # eval would drop part of these: an expression and --at go
                 # without --config, --at-tuple only with it.
                 ("eval", "zeta(s)", "--at", "2", "--at-tuple", "2;2;2"),
                 ("eval", "--at-tuple", "2;2;2"),
                 ("eval", "--config", str(cfg), "--at-tuple", "2;2;2", "--at", "2"),
                 ("eval", "zeta(s)", "--config", str(cfg), "--at-tuple", "2;2;2"),
                 ("eval", "--config", str(cfg))):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2, argv
    for value in ("-1", "0"):
        assert run("zeros", "zeta(s)", "--rect", "0.4,0.6,14,15",
                   "--zero-tol", value) == 2, value
    assert "zero_tol must be > 0" in capsys.readouterr().err


def test_non_finite_geometry_exit_2(capsys):
    # Points and scan bounds the engine cannot sample are usage errors.
    for argv in (("eval", "zeta(s)", "--at", "1e400"),
                 ("eval", "zeta(s)", "--at", "nan"),
                 ("eval", "zeta(s)", "--at", "2+1e400i"),
                 ("eval", "zeta(s)", "--at", "inf"),
                 ("eval", "zeta(s)", "--at", "-inf"),
                 ("zeros", "zeta(s)", "--rect", "0.5,inf,1,2")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2, argv
    err = capsys.readouterr().err
    assert "non-finite complex point 'inf'" in err
    assert "non-finite complex point '-inf'" in err
    assert "non-finite rectangle" in err
    for extra in (("--T", "inf"), ("--T", "nan"), ("--T", "10", "--sigma-cap", "inf")):
        assert run("density", "zeta(s)", "--sigma0", "0.55", *extra) == 2, extra
        assert "must be finite" in capsys.readouterr().err


def test_zeros_json_schema(tmp_path, capsys):
    out = tmp_path / "zeros.json"
    assert run("zeros", "zeta(s)", "--rect", "0.4,0.6,14,14.5",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"expr", "rect", "zeros", "unresolved", "manifest"}
    assert payload["rect"] == [0.4, 0.6, 14.0, 14.5]
    (zero,) = payload["zeros"]
    assert set(zero) == {"re", "im", "residual", "mult"}
    assert abs(zero["re"] - 0.5) < 1e-9
    assert zero["mult"] == 1
    man = payload["manifest"]
    assert man["artifact_version"]
    assert man["manifest_hash"].startswith("sha256:")
    assert man["contour_config"] == {"zero_tol": 1e-8}
    assert run("zeros", "zeta(s)", "--rect", "0.4,0.6,14,14.5", "--zero-tol", "1e-10",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["manifest"]["contour_config"] == {"zero_tol": 1e-10}


@pytest.mark.parametrize("head, option, value, code", [
    (("eval", "zeta(s)"), "--at", "-0.5+14i", 0),
    (("eval", "zeta(s)", "--at", "0.5+14.134725i"), "--at", "-2", 0),
    (("zeros", "zeta(s)"), "--rect", "-1,0.2,1,2", 0),
    (("density", "zeta(s)", "--sigma0", "0.55"), "--T", "-1,10", 0),
    # Any negative s_1 is outside this family's convergence region: exit 3,
    # an evaluation error, not a usage error.
    (("eval", "--config", "{cfg}"), "--at-tuple", "-1;2;3", 3),
])
def test_values_beginning_with_a_dash(head, option, value, code, tmp_path, capsys):
    # "--opt -v" and "--opt=-v" give the same output and exit code.
    cfg = tmp_path / "mordell.cfg"
    cfg.write_text("r = 2\nm = 3\nlambda = 1 0  0 1  1 1\nshifts = 0 0\noffset = from_one\n")
    head = [a.format(cfg=cfg) for a in head]
    outputs = []
    for tail in ((option, value), (f"{option}={value}",)):
        assert run(*head, *tail) == code, tail
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_zeros_majorant_past_the_bernoulli_table_exit_3(capsys):
    # The segment majorant of zeta(200*s) here would read past B_68.
    assert run("zeros", "zeta(200*s)", "--rect=-0.05,-0.04,0.001,0.002") == 3
    assert "the Bernoulli table stops at B_68" in capsys.readouterr().err


def test_zeros_lifts_a_bottom_edge_on_the_real_poles(tmp_path, capsys):
    # README's example: t_lo = 0 meets the poles at s = 1/2 and 1, so the scan
    # starts at t = 1e-3, and the payload and the manifest say so.
    out = tmp_path / "zeros.json"
    assert run("zeros", "zeta(s)^2-zeta(2*s)", "--rect", "0.55,2,0,100",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["rect"] == payload["manifest"]["rect"] == [0.55, 2.0, 0.001, 100.0]
    assert len(payload["zeros"]) == 13
    assert payload["unresolved"] == []


@pytest.mark.parametrize("tol, target", [((), 1e-12), (("--tol", "1e-10"), 1e-10)])
def test_manifest_eval_config(tol, target, tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert run("eval", "zeta(s)", "--at", "2", "--json", str(out), *tol) == 0
    assert json.loads(out.read_text())["manifest"]["eval_config"] == {
        "em_order": 12, "max_terms": 10000000, "pole_guard": 1e-08, "target_abs_err": target}


def test_density_scan_over_the_budget_exit_3(capsys):
    assert run("density", "zeta(s)", "--sigma0", "0.55", "--T", "1e12") == 3
    assert "density scan evaluation budget exhausted" in capsys.readouterr().err


def test_zeros_zero_free_region(tmp_path, capsys):
    out = tmp_path / "zeros.json"
    assert run("zeros", "zeta(s)", "--rect", "2,3,0,50", "--out", str(out),
               "--strict") == 0
    payload = json.loads(out.read_text())
    assert payload["zeros"] == []
    assert payload["unresolved"] == []


def test_zeros_byte_stability(tmp_path, capsys):
    out = tmp_path / "zz.json"
    assert run("zeros", "zeta(s)", "--rect", "0.4,0.6,14,14.5", "--out", str(out)) == 0
    first = out.read_bytes()
    assert run("zeros", "zeta(s)", "--rect", "0.4,0.6,14,14.5", "--out", str(out)) == 0
    assert out.read_bytes() == first


def test_density_csv(tmp_path, capsys):
    out = tmp_path / "density.csv"
    assert run("density", "zeta(s)^2-zeta(2*s)", "--sigma0", "0.55",
               "--T", "50,100", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "T,count,slope"
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert [r[0] for r in rows] == ["50", "100"]
    counts = [int(r[1]) for r in rows]
    assert counts == sorted(counts)
    assert any(l.startswith("# zetazeros") for l in lines)
    assert any(l.startswith("# manifest sha256:") for l in lines)


def test_density_repeated_T(tmp_path, capsys):
    out = tmp_path / "density.csv"
    assert run("density", "zeta(s)^2-zeta(2*s)", "--sigma0", "0.55",
               "--T", "50,50,100", "--out", str(out)) == 0
    rows = [l.split(",")[:2] for l in out.read_text().splitlines()
            if not l.startswith(("#", "T,"))]
    assert rows == [["50", "3"], ["50", "3"], ["100", "13"]]


def test_density_byte_stability(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run("density", "zeta(s)", "--sigma0", "0.55", "--T", "25",
               "--out", str(out)) == 0
    first = out.read_bytes()
    assert run("density", "zeta(s)", "--sigma0", "0.55", "--T", "25",
               "--out", str(out)) == 0
    assert out.read_bytes() == first


def test_density_incomplete_strict_exit_4(capsys):
    # sphere(16)'s samples here have abs_err above their values, so the scan
    # stops incomplete: a warning, and exit 4 under --strict.
    assert run("density", "sphere(16)", "--sigma0", "0.6", "--T", "25",
               "--sigma-cap", "0.9", "--strict") == 4
    assert "warning: scan incomplete" in capsys.readouterr().err


def test_density_zeta_count_zero(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run("density", "zeta(s)", "--sigma0", "0.55", "--T", "100",
               "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "T,"))]
    assert rows == ["100,0,0"]


def test_verify_suites_exit_codes(capsys):
    assert run("verify", "symmetry") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert run("verify", "identities") == 0
    assert run("verify", "oracles") == 0
    capsys.readouterr()
    assert run("verify", "all") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "56 checks, 0 failure(s)"


def test_eval_family_config(tmp_path, capsys):
    cfg = tmp_path / "mordell.cfg"
    cfg.write_text(
        "r = 2\nm = 3\nlambda = 1 0  0 1  1 1\nshifts = 0 0\noffset = from_one\n"
    )
    assert run("eval", "--config", str(cfg), "--at-tuple", "2;2;2") == 0
    out = capsys.readouterr().out
    val = float(out.split("=")[1].split("+")[0])
    assert abs(val - math.pi**6 / 2835) < 1e-4


def test_eval_json_output(tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert run("eval", "zeta(s)", "--at", "2", "--json", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["expr"] == "zeta(s)"
    assert abs(payload["values"][0]["re"] - math.pi**2 / 6) < 1e-10
    assert "manifest" in payload


def test_module_entry_point():
    src = str(Path(zetazeros.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "zetazeros", "eval", "zeta(s)", "--at", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "1.6449340668" in done.stdout
