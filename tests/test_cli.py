from __future__ import annotations

import hashlib
import json
import os

import pytest

from qsagms import __version__
from qsagms.cli import main

from .conftest import CODES_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- build-code ----------------------------------------------------------------


def test_build_code_toy(tmp_path, capsys):
    out = tmp_path / "toy.qpc"
    code, stdout, _ = run_cli(
        capsys, "build-code", "--ell", "3", "--a", "0,1", "--b", "0,2",
        "--out", str(out),
    )
    assert code == 0
    assert "[[6,2]] m=6 dc=4 dv=4" in stdout
    assert out.exists()


def test_build_code_gb_126_28(tmp_path, capsys):
    out = tmp_path / "gb.qpc"
    code, stdout, _ = run_cli(
        capsys, "build-code", "--ell", "63",
        "--a", "0,1,14,16,22", "--b", "0,3,13,20,42", "--out", str(out),
    )
    assert code == 0
    assert "[[126,28]] m=126 dc=10" in stdout


def test_build_code_missing_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-code", "--ell", "3", "--a", "0,1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_build_code_invalid_exponent(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "build-code", "--ell", "3", "--a", "0,7", "--b", "0",
        "--out", str(tmp_path / "x.qpc"),
    )
    assert code == 2
    assert "exponent" in stderr


# -- validate ------------------------------------------------------------------


def test_validate_shipped_code(capsys):
    code, stdout, _ = run_cli(capsys, "validate", str(CODES_DIR / "gb-126-28.qpc"))
    assert code == 0
    assert "[[126,28]]" in stdout


def test_validate_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "bad.qpc"
    bad.write_text("QPC 1\nn=2 m=1\n0: 0:X 0:Z\n")
    code, _, stderr = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "line 3" in stderr


def test_validate_anticommuting_rows(tmp_path, capsys):
    bad = tmp_path / "anti.qpc"
    bad.write_text("QPC 1\nn=1 m=2\n0: 0:X\n1: 0:Z\n")
    code, _, stderr = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "commute" in stderr


def test_validate_missing_file(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "validate", str(tmp_path / "none.qpc"))
    assert code == 3


def _simulate(capsys, tmp_path, code_file):
    return run_cli(
        capsys, "simulate", "--code", str(code_file), "--decoder", "ms",
        "--eps", "0.1", "--seed", "1", "--out", str(tmp_path / "r"),
    )


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_non_utf8_code_file_is_invalid(tmp_path, capsys, command):
    bad = tmp_path / "bad.qpc"
    bad.write_bytes(b"\xff\xfeQPC 1\n")
    if command == "validate":
        code, stdout, stderr = run_cli(capsys, "validate", str(bad))
        assert stderr.startswith("invalid: ")
    else:
        code, stdout, stderr = _simulate(capsys, tmp_path, bad)
        assert stderr.startswith("error: invalid code file: ")
    assert code == 1
    assert "not UTF-8" in stderr and "Traceback" not in stderr
    assert stdout == ""


#: Valid stabilizer matrices the decoder cannot run: qubit 2 has no check,
#: and check 1 has no qubit.
UNDECODABLE = {
    "isolated-qubit": "QPC 1\nn=3 m=2\n0: 0:Z 1:Z\n1: 1:Z\n",
    "empty-check": "QPC 1\nn=2 m=2\n0: 0:Z 1:Z\n1:\n",
}


@pytest.mark.parametrize("text", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_simulate_rejects_undecodable_code(tmp_path, capsys, text):
    code_file = tmp_path / "code.qpc"
    code_file.write_text(text)
    code, stdout, _ = run_cli(capsys, "validate", str(code_file))
    assert code == 0 and "[[" in stdout  # a valid stabilizer matrix
    code, stdout, stderr = _simulate(capsys, tmp_path, code_file)
    assert code == 1
    assert stderr.startswith("error: invalid code file: graph has isolated")
    assert "digest" not in stdout
    assert not (tmp_path / "r").exists()


# -- simulate ------------------------------------------------------------------


def test_simulate_rejects_unstable_gain(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
        "--decoder", "sagms", "--alpha-max", "0.95", "--eta", "1.10",
        "--eps", "0.1", "--seed", "1", "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert "alpha_max*eta_unsat <= 1" in stderr


@pytest.mark.parametrize("eps0", ["1.5", "nan"])
def test_simulate_rejects_bad_fixed_eps0(tmp_path, capsys, eps0):
    out = tmp_path / "r"
    code, _, stderr = run_cli(
        capsys, "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
        "--decoder", "ms", "--eps", "0.1", "--eps0", eps0, "--seed", "1",
        "--out", str(out),
    )
    assert code == 2
    assert "epsilon0 in (0, 1)" in stderr
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_rejects_aliasing_seed(tmp_path, capsys, seed):
    out = tmp_path / "r"
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
        "--decoder", "ms", "--eps", "0.1", "--seed", seed, "--out", str(out),
    )
    assert code == 2
    assert "seed must lie in [0, 2**64)" in stderr
    assert stdout == ""
    assert not out.exists()


def test_simulate_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
            "--decoder", "ms", "--eps", "0.1", "--out", str(tmp_path / "r"),
        ])
    assert exc.value.code == 2


def test_simulate_smoke_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
        "--decoder", "sms", "--alpha", "0.5", "--eps", "0.3,0.4",
        "--lmax", "2", "--target-failures", "20", "--max-frames", "5000",
        "--seed", "42", "--out", str(out),
    )
    assert code == 0
    assert "config digest:" in stdout
    assert "wilson95=" in stdout
    assert (out / "results.json").exists()
    assert (out / "fer.tsv").exists()
    results = json.loads((out / "results.json").read_text())
    assert len(results) == 2
    assert results[0]["version"] == __version__


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    args = [
        "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
        "--decoder", "ms", "--eps", "0.4", "--lmax", "2",
        "--target-failures", "10", "--max-frames", "2000", "--seed", "9",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "fer.tsv").read_bytes() == (out2 / "fer.tsv").read_bytes()


@pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
def test_simulate_code_id_hashes_the_parsed_bytes(tmp_path, capsys, piped):
    # a pipe can be read once, so the digest must come from the parsed bytes
    data = (CODES_DIR / "gb-6-2.qpc").read_bytes()
    if piped:
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        path, name = f"/dev/fd/{read_end}", str(read_end)
    else:
        path, name = str(CODES_DIR / "gb-6-2.qpc"), "gb-6-2.qpc"
    out = tmp_path / "r"
    try:
        code, _, _ = run_cli(
            capsys, "simulate", "--code", path, "--decoder", "ms", "--eps", "0.4",
            "--lmax", "1", "--target-failures", "5", "--max-frames", "600",
            "--seed", "3", "--out", str(out),
        )
    finally:
        if piped:
            os.close(read_end)
    assert code == 0
    code_id = json.loads((out / "results.json").read_text())[0]["config"]["code_id"]
    assert code_id == f"{name}:{hashlib.sha256(data).hexdigest()[:16]}"


def test_simulate_eps_range_parsing(tmp_path, capsys):
    out = tmp_path / "r"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
        "--decoder", "ms", "--eps", "0.2:0.4:3", "--lmax", "1",
        "--target-failures", "5", "--max-frames", "1000", "--seed", "4",
        "--out", str(out),
    )
    assert code == 0
    lines = (out / "fer.tsv").read_text().strip().split("\n")
    eps = [float(l.split("\t")[0]) for l in lines]
    assert len(eps) == 3 and eps[0] == pytest.approx(0.2) and eps[-1] == pytest.approx(0.4)
    # log-spaced midpoint
    assert eps[1] == pytest.approx((0.2 * 0.4) ** 0.5)


def test_simulate_missing_code_file(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "--code", str(tmp_path / "none.qpc"),
        "--decoder", "ms", "--eps", "0.1", "--seed", "1",
        "--out", str(tmp_path / "r"),
    )
    assert code == 3


# -- analyze -------------------------------------------------------------------


def test_analyze_alpha_star(capsys):
    code, stdout, _ = run_cli(
        capsys, "analyze", "alpha-star", "--L0", "3.2958", "--dc", "10,16"
    )
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 2
    values = {}
    for line in lines:
        fields = dict(part.split("=") for part in line.split())
        values[int(fields["dc"])] = float(fields["alpha_star_approx"])
        assert "alpha_star_exact" in fields
    assert values[10] == pytest.approx(0.333, abs=0.005)
    assert values[16] == pytest.approx(0.179, abs=0.005)


def test_analyze_delta_alpha(capsys):
    code, stdout, _ = run_cli(
        capsys, "analyze", "delta-alpha", "--L0", "3.2958",
        "--dc-ref", "10", "--dc-new", "16",
    )
    assert code == 0
    value = float(stdout.strip().split("=")[1])
    assert value == pytest.approx(0.155, abs=0.005)


def test_analyze_opcount(capsys):
    code, stdout, _ = run_cli(capsys, "analyze", "opcount", "--dc", "10")
    assert code == 0
    lines = stdout.strip().split("\n")
    table = {l.split()[0]: l.split()[1:] for l in lines[1:]}
    assert table["bp4"] == ["8", "9", "0", "19", "207"]
    assert table["ms"] == ["0", "9", "8", "0", "17"]
    assert table["sms"] == ["0", "10", "8", "0", "18"]
    assert table["sagms"] == ["3", "11", "9", "0", "23"]


def test_analyze_transfer_stdout(capsys):
    code, stdout, _ = run_cli(
        capsys, "analyze", "transfer", "--dc", "4", "--alpha", "0.85",
        "--alpha-eff", "0.65", "--kappa", "0.05:3:20",
    )
    assert code == 0
    blocks = [b for b in stdout.split("# variant=") if b.strip()]
    assert len(blocks) == 4
    for block in blocks:
        rows = [l for l in block.strip().split("\n")[1:] if l]
        assert len(rows) == 20
        for row in rows:
            x, y = (float(v) for v in row.split())
            assert 0.05 <= x <= 3.0


def test_analyze_transfer_files(tmp_path, capsys):
    prefix = tmp_path / "curves"
    code, stdout, _ = run_cli(
        capsys, "analyze", "transfer", "--dc", "4", "--kappa", "0.5,1,2",
        "--out", str(prefix),
    )
    assert code == 0
    for name in ("ms", "sms", "sagms", "bp4"):
        text = (tmp_path / f"curves_{name}.txt").read_text().strip()
        assert len(text.split("\n")) == 3


def test_analyze_bad_degree(capsys):
    code, _, stderr = run_cli(capsys, "analyze", "opcount", "--dc", "1")
    assert code == 2


# -- version and usage ------------------------------------------------------------


def test_version(capsys):
    code, stdout, _ = run_cli(capsys, "version")
    assert code == 0
    assert stdout.strip() == __version__


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--frobnicate", "x"])
    assert exc.value.code == 2


def test_help_lists_protocol_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    assert "default: 500" in stdout  # target failures
    assert "default: 20000000" in stdout  # frame cap
    assert "default: 0.3" in stdout  # alpha-min
    assert "default: 1.1" in stdout  # eta


def test_simulate_fixed_prior_mode(tmp_path, capsys):
    out = tmp_path / "mis"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--code", str(CODES_DIR / "gb-6-2.qpc"),
        "--decoder", "ms", "--eps", "0.3", "--eps0", "0.1", "--lmax", "2",
        "--target-failures", "10", "--max-frames", "2000", "--seed", "6",
        "--out", str(out),
    )
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results[0]["point"]["epsilon"] == pytest.approx(0.3)
    assert results[0]["point"]["epsilon0"] == pytest.approx(0.1)
    assert results[0]["config"]["epsilon0_mode"] == "fixed"


def test_log_level_env(monkeypatch, capsys):
    monkeypatch.setenv("QSAGMS_LOG", "nonsense")
    code, _, stderr = run_cli(capsys, "version")
    assert code == 0
    assert "unknown QSAGMS_LOG" in stderr
