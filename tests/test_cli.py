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
    assert run("eval", "zeta(s)", "--at", "2", "--at", "0.5+14.134725i") == 0
    assert capsys.readouterr().out.count("F(") == 2


def test_eval_pole_exit_3(capsys):
    assert run("eval", "zeta(s)", "--at", "1") == 3


def test_eval_syntax_exit_2(capsys):
    assert run("eval", "zeta(s", "--at", "2") == 2
    assert run("eval", "frob(s)", "--at", "2") == 2
    for text in ("zeta(s/0)", "hurwitz(s,1/0)", "barnes(2,1/0)", "zeta(1/0*s)", "zeta(s/2.5)"):
        assert run("eval", text, "--at", "2") == 2, text
    # structural parameters outside the family's range are usage errors
    for text in ("ezd(0)", "ezd(13)", "barnes(13,1/2)", "sphere(17)", "symmat(4,Ln,+1,+1)"):
        assert run("eval", text, "--at", "2.3") == 2, text


def test_usage_error_exit_2(tmp_path, capsys):
    cfg = tmp_path / "mordell.cfg"
    cfg.write_text("r = 2\nm = 3\nlambda = 1 0  0 1  1 1\nshifts = 0 0\noffset = from_one\n")
    for argv in (("density", "zeta(s)", "--sigma0", "0.55", "--T", ""),
                 ("eval", "zeta(s)", "--at", "foo"),
                 ("eval", "--config", str(cfg), "--at-tuple", "2;x")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2, argv
    for value in ("-1", "0"):
        assert run("zeros", "zeta(s)", "--rect", "0.4,0.6,14,15",
                   "--zero-tol", value) == 2, value
    assert "zero_tol must be > 0" in capsys.readouterr().err


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


def test_density_byte_stability(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run("density", "zeta(s)", "--sigma0", "0.55", "--T", "25",
               "--out", str(out)) == 0
    first = out.read_bytes()
    assert run("density", "zeta(s)", "--sigma0", "0.55", "--T", "25",
               "--out", str(out)) == 0
    assert out.read_bytes() == first


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
