"""End-to-end checks of the photonbell command line."""

import json

import numpy as np
import pytest

from photonbell import ConsistencyError
from photonbell.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invalid_arguments_exit_2(tmp_path, capsys):
    out = str(tmp_path / "f.csv")
    assert main(["fig1", "--r", "-1", "--out", out]) == 2
    assert main(["violation-dist", "--r0", "0.1", "--seed", "3"]) == 2
    assert main(["smax", "--parties", "4", "--unreduced", "--restarts", "2"]) == 2
    assert main(["fig3", "--seed", "-5", "--out", out]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["fig3", "--out", out])  # --seed is required
    assert info.value.code == 2
    capsys.readouterr()


def test_nonfinite_tolerances_exit_2(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    for value in ("nan", "inf", "0"):
        assert main(["eta", "--parties", "2", "--tolerance", value]) == 2
        fig2 = ["fig2", "--n-list", "2", "--delta-max", "0", "--restarts", "1"]
        assert main(fig2 + ["--eta-tolerance", value, "--out", str(out)]) == 2
        assert main(["smax", "--parties", "2", "--tolerance", value]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "tolerance must be finite and > 0" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    capsys.readouterr()


def test_chsh_footnote(capsys):
    code, out, err = run(["chsh-footnote"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chsh=1.88561808316 bound=2"
    assert lines[1] == "no violation"
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["command"] == "chsh-footnote"
    assert "timestamp" in manifest
    assert manifest["derived"]["verdict"] == "no violation"


def test_fig1_csv_layout_and_determinism(tmp_path, capsys):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    argv = ["fig1", "--grid", "24", "--deltas", "0,0.5", "--out"]
    assert run(argv + [out_a], capsys)[0] == 0
    assert run(argv + [out_b], capsys)[0] == 0
    text = (tmp_path / "a.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: ") :])
    assert manifest["command"] == "fig1"
    assert "timestamp" not in manifest
    assert lines[1] == "delta,phi_bar,S"
    assert len(lines) == 2 + 2 * 24
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "0"
    # closed form at r=0.1, width 0, offset 0
    assert abs(float(first[2]) - 1.0194069502603166) < 1e-11
    # reruns with identical parameters are byte-identical
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fig1_json_format(tmp_path, capsys):
    out = str(tmp_path / "f.json")
    code, _, _ = run(
        ["fig1", "--grid", "24", "--deltas", "0.3", "--format", "json", "--out", out],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "f.json").read_text())
    assert payload["columns"] == ["delta", "phi_bar", "S"]
    assert len(payload["rows"]) == 24
    assert payload["manifest"]["parameters"]["r"] == 0.1


def test_fig2_small_run(tmp_path, capsys):
    out = str(tmp_path / "fig2.csv")
    code, _, _ = run(
        [
            "fig2",
            "--n-list",
            "2",
            "--delta-max",
            "0",
            "--delta-step",
            "0.05",
            "--restarts",
            "4",
            "--eta-tolerance",
            "0.02",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "fig2.csv").read_text().strip().splitlines()
    assert lines[1] == "N,delta,s_max,eta_threshold"
    assert len(lines) == 3
    n, delta, s_max, eta = lines[2].split(",")
    assert n == "2" and delta == "0"
    assert abs(float(s_max) - 1.3442) < 1e-2
    assert 0.78 < float(eta) < 0.89


def test_fig3_files_and_reproducibility(tmp_path, capsys):
    argv = [
        "fig3",
        "--m-list",
        "1",
        "--samples",
        "30",
        "--bins",
        "10",
        "--restarts",
        "4",
        "--delta",
        "0.4",
        "--eta",
        "0.9",
        "--seed",
        "7",
        "--out",
    ]
    out_a = str(tmp_path / "hist.json")
    out_b = str(tmp_path / "again.json")
    code, out_text, _ = run(argv + [out_a], capsys)
    assert code == 0
    assert out_text.startswith("m=1 fraction_violating=")
    payload = json.loads((tmp_path / "hist_m1.json").read_text())
    derived = payload["manifest"]["derived"]
    assert set(derived) == {"r", "r_prime", "optimizer_best_s"}
    assert payload["histogram"]["n_samples"] == 30
    assert payload["histogram"]["metadata"]["pair_count"] == 1
    assert run(argv + [out_b], capsys)[0] == 0
    assert (tmp_path / "hist_m1.json").read_bytes() == (
        tmp_path / "again_m1.json"
    ).read_bytes()


def test_smax_stdout_and_report(tmp_path, capsys):
    out = str(tmp_path / "smax.json")
    code, out_text, err = run(
        ["smax", "--parties", "2", "--pin-phases", "--restarts", "4", "--out", out],
        capsys,
    )
    assert code == 0
    assert out_text.startswith("s_max=1.344")
    assert "converged=true" in out_text
    payload = json.loads((tmp_path / "smax.json").read_text())
    assert abs(payload["report"]["best_s"] - 1.3442) < 1e-3
    assert payload["manifest"]["parameters"]["pin_phases"] is True
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["derived"]["best_s"] == pytest.approx(1.3442, abs=1e-3)


def test_eta_reports_nonviolable_case(capsys):
    code, out_text, _ = run(
        ["eta", "--parties", "1", "--tolerance", "0.02", "--restarts", "2"], capsys
    )
    assert code == 0
    assert out_text.strip() == "no violation at unit efficiency"


def test_violation_dist_with_pinned_amplitudes(tmp_path, capsys):
    out = str(tmp_path / "dist.json")
    code, out_text, _ = run(
        [
            "violation-dist",
            "--r0",
            "0.1",
            "--r1",
            "-0.5",
            "--pairs",
            "2",
            "--delta",
            "0.3",
            "--eta",
            "0.9",
            "--samples",
            "25",
            "--bins",
            "8",
            "--seed",
            "11",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    assert out_text.startswith("fraction_violating=")
    payload = json.loads((tmp_path / "dist.json").read_text())
    assert payload["manifest"]["parameters"]["r1"] == -0.5
    assert payload["manifest"]["derived"] == {}
    assert payload["histogram"]["metadata"]["n_samples"] == 25


def test_correlators_stdout_table(capsys):
    code, out_text, _ = run(
        ["correlators", "--parties", "2", "--r0", "0", "--r1", "0.6"], capsys
    )
    assert code == 0
    lines = out_text.strip().splitlines()
    assert lines[0] == "index,settings,xi"
    assert len(lines) == 6
    assert lines[1].split(",")[:2] == ["0", "00"]
    assert float(lines[1].split(",")[2]) == -1.0
    # index 1 = party 1 displaced, party 2 counting
    index, bits, xi = lines[2].split(",")
    assert (index, bits) == ("1", "10")
    expected = -np.exp(-0.36) * (1 - 0.36)
    assert abs(float(xi) - expected) < 1e-11
    assert lines[5].startswith("# S = ")


def test_consistency_failure_exits_3(monkeypatch, capsys):
    def boom(_rho):
        raise ConsistencyError("forced failure")

    monkeypatch.setattr("photonbell.cli.chsh_horodecki", boom)
    code, _, err = run(["chsh-footnote"], capsys)
    assert code == 3
    assert "numerical consistency failure" in err


def test_io_failure_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "no_such_dir" / "f.csv")
    code, _, err = run(
        ["fig1", "--grid", "24", "--deltas", "0", "--out", missing], capsys
    )
    assert code == 1
    assert "i/o error" in err
