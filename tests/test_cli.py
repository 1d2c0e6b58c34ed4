"""End-to-end checks of the photonbell command line."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photonbell
from photonbell import (
    ConsistencyError,
    OptimizationSpec,
    averaged_correlator_table,
    maximize_bell,
)
from photonbell.cli import build_parser, main


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
    for parties in ("0", "-1"):
        dist = ["violation-dist", "--parties", parties, "--r0", "0.1", "--r1", "0.2"]
        assert main(dist + ["--seed", "1"]) == 2
        assert "n_modes must be >= 1" in capsys.readouterr().err
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


def test_cheap_argument_errors_exit_before_any_search(tmp_path, monkeypatch, capsys):
    def no_search(_spec):
        raise AssertionError("maximize_bell ran before the arguments were checked")

    monkeypatch.setattr("photonbell.cli.maximize_bell", no_search)
    out = str(tmp_path / "f.json")
    fig2 = ["fig2", "--n-list", "9", "--delta-max", "0", "--out", out]
    assert main(fig2 + ["--eta-tolerance", "nan"]) == 2
    assert main(["fig3", "--bins", "0", "--seed", "1", "--out", out]) == 2
    assert main(["violation-dist", "--bins", "0", "--seed", "1"]) == 2
    assert main(["violation-dist", "--samples", "0", "--seed", "1"]) == 2
    assert main(["violation-dist", "--pairs", "0", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "tolerance must be finite and > 0" in err
    assert "bins must be >= 1" in err


def test_fig2_rejects_bad_width_grids_before_any_search(tmp_path, monkeypatch, capsys):
    # non-finite flags are named, and an oversized grid is refused before
    # it is built (a 1e-300 step would ask for ~1e300 widths)
    def no_search(_spec):
        raise AssertionError("maximize_bell ran before the arguments were checked")

    monkeypatch.setattr("photonbell.cli.maximize_bell", no_search)
    out = tmp_path / "fig2.csv"
    fig2 = ["fig2", "--n-list", "2", "--out", str(out)]
    cases = (
        (["--delta-step", "nan"], "--delta-step must be finite and > 0"),
        (["--delta-step", "inf"], "--delta-step must be finite and > 0"),
        (["--delta-step", "0"], "--delta-step must be finite and > 0"),
        (["--delta-max", "nan"], "--delta-max must be finite and >= 0"),
        (["--delta-max", "inf"], "--delta-max must be finite and >= 0"),
        (["--delta-max", "-0.1"], "--delta-max must be finite and >= 0"),
        (["--delta-step", "1e-300"], "exceeds 10000 widths"),
        (["--delta-max", "1e6", "--delta-step", "1"], "exceeds 10000 widths"),
    )
    for flags, message in cases:
        assert main(fig2 + flags) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_count_flags_rejected_before_any_search(tmp_path, monkeypatch, capsys):
    # non-finite or fractional integer lists, and party or pair counts whose
    # tables would exceed the entry budget, exit 2 naming the flag before
    # any search or table build
    class Reached(Exception):
        pass

    def reached(*_args, **_kwargs):
        raise Reached

    for name in (
        "maximize_bell",
        "threshold_efficiency",
        "violation_distribution",
        "averaged_correlator_table",
    ):
        monkeypatch.setattr(f"photonbell.cli.{name}", reached)
    out = str(tmp_path / "out")
    finite = "must hold finite integers"
    budget = "table entries, more than 33554432"
    bad_lists = (
        (["fig2", "--n-list", "inf"], "--n-list " + finite),
        (["fig2", "--n-list", "nan"], "--n-list " + finite),
        (["fig2", "--n-list", "2,2.5"], "--n-list " + finite),
        (["fig3", "--m-list", "inf", "--seed", "7"], "--m-list " + finite),
        (["fig3", "--m-list", "1e30", "--seed", "7"], "--m-list must lie in [1, 1024]"),
    )
    oversized = (
        (["fig2", "--n-list", "2,40", "--delta-max", "0"], "--n-list 40 with"),
        (["fig2", "--n-list", "1e30", "--delta-max", "0"], "--n-list 10000000"),
        (["fig3", "--parties", "40", "--seed", "7"], "--parties 40 with --m-list"),
        (["smax", "--parties", "40"], "--parties 40 with --restarts 8"),
        (["eta", "--parties", "40"], "--parties 40 with --restarts 6"),
        (["violation-dist", "--parties", "40", "--seed", "7"], "--parties 40 with"),
        (["correlators", "--parties", "40", "--r0", "0", "--r1", "0.2"], "--parties 40"),
    )

    def refused(argv):
        if argv[0] in ("fig2", "fig3"):
            argv = argv + ["--out", out]
        assert main(argv) == 2, argv
        return capsys.readouterr().err

    for argv, message in bad_lists:
        assert message in refused(argv), argv
    for argv, flags in oversized:
        err = refused(argv)
        assert flags in err and budget in err, argv
    assert not list(tmp_path.iterdir())
    # each command sizes its own largest table: one 2^22 table for
    # correlators, the 64-point scan at N=18 for a pinned search, at two
    # transmissions for a threshold
    for argv in (
        ["correlators", "--parties", "22", "--r0", "0", "--r1", "0.2"],
        ["smax", "--parties", "18", "--pin-phases"],
        ["eta", "--parties", "18"],
    ):
        with pytest.raises(Reached):
            main(argv)
    # exact counts of 2^2-entry tables at N=2: one for correlators, a
    # pinned search's 64 start points, at two transmissions for a threshold
    # search, and a pinned histogram's 3 frequencies x 2 pairs, complex
    boundaries = (
        (["correlators", "--parties", "2", "--r0", "0", "--r1", "0.2"], 1),
        (["smax", "--parties", "2", "--pin-phases"], 64),
        (["eta", "--parties", "2"], 128),
        (["fig2", "--n-list", "2", "--delta-max", "0", "--out", out], 128),
        (["violation-dist", "--pairs", "2", "--r0", "0.1", "--r1", "-0.5"], 12),
    )
    for argv, tables in boundaries:
        if argv[0] == "violation-dist":
            # one sample and one bin stay inside the smallest budget
            argv = argv + ["--seed", "7", "--samples", "1", "--bins", "1"]
        monkeypatch.setattr("photonbell.cli.MAX_TABLE_ENTRIES", 4 * tables - 1)
        assert main(argv) == 2, argv
        assert f"needs {tables} x 2^2 table entries" in capsys.readouterr().err, argv
        monkeypatch.setattr("photonbell.cli.MAX_TABLE_ENTRIES", 4 * tables)
        with pytest.raises(Reached):
            main(argv)


def test_histogram_and_grid_sizes_rejected_before_any_allocation(tmp_path, monkeypatch, capsys):
    # samples x N frame-center entries, bins + 1 edges and grid x widths
    # rows beyond the entry budget exit 2 naming the flag, before any
    # search, table build or center draw; huge values never allocate
    class Reached(Exception):
        pass

    def reached(*_args, **_kwargs):
        raise Reached

    for name in (
        "maximize_bell",
        "violation_distribution",
        "pair_symbolic_tables",
        "best_pair_values_over_centers",
        "_phase_grid",
    ):
        monkeypatch.setattr(f"photonbell.cli.{name}", reached)
    out = str(tmp_path / "out")
    pinned = ["violation-dist", "--r0", "0.1", "--r1", "-0.5", "--seed", "7"]
    huge = str(10**18)
    for argv, flag in (
        (pinned + ["--samples", huge], f"--samples {huge} with --parties 2"),
        (pinned + ["--bins", huge], f"--bins {huge}"),
        (["fig3", "--samples", huge, "--seed", "7", "--out", out], f"--samples {huge}"),
        (["fig3", "--bins", huge, "--seed", "7", "--out", out], f"--bins {huge}"),
        (["fig1", "--grid", huge, "--out", out], f"--grid {huge} with 5 --deltas"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert flag in err and "more than 33554432" in err, argv
    assert not list(tmp_path.iterdir())
    # exact boundaries under a budget of 120 entries: 40 samples x 3
    # parties, 119 bins, 24 grid points x 5 widths
    monkeypatch.setattr("photonbell.cli.MAX_TABLE_ENTRIES", 120)
    cases = (
        (pinned + ["--parties", "3", "--samples"], 40, "--samples 41 with --parties 3"),
        (pinned + ["--samples", "1", "--bins"], 119, "--bins 120 needs 121 entries"),
        (["fig1", "--out", out, "--grid"], 24, "--grid 25 with 5 --deltas needs 125"),
    )
    for argv, largest, message in cases:
        with pytest.raises(Reached):
            main(argv + [str(largest)])
        assert main(argv + [str(largest + 1)]) == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "value, text",
    [
        (0.1 + 0.2, "0.3"),
        (np.float64(1.0194069502603166), "1.01940695026"),
        (np.float32(0.1), "0.10000000149"),
        (2.5e-17, "2.5e-17"),
        (123456789012345.0, "1.23456789012e+14"),
        (7, "7"),
        (np.int64(-3), "-3"),
        (True, "true"),
        (np.bool_(False), "false"),
        ("0011", "0011"),
        (float("nan"), "nan"),
        (np.float64("inf"), "inf"),
        (-np.inf, "-inf"),
        (-0.0, "-0"),
        (np.float64(-0.0), "-0"),
    ],
)
def test_csv_value_bytes(value, text):
    # the bytes of every scalar type a data row can hold
    from photonbell.cli import _csv_lines, _fmt

    assert _fmt(value) == text
    assert list(_csv_lines([(value, value)])) == [f"{text},{text}\n"]


IMPORT_GUARD = """
import json, sys
import photonbell, photonbell.cli
heavy = ("scipy.optimize", "scipy.stats")
loaded = {"import": [m for m in heavy if m in sys.modules]}
code = [
    photonbell.cli.main(["fig1", "--grid", "8", "--out", sys.argv[1]]),
    photonbell.cli.main(
        ["violation-dist", "--r0", "0.1", "--r1", "-0.5", "--pairs", "2",
         "--samples", "20", "--seed", "3"]
    ),
]
loaded["runs"] = [m for m in heavy if m in sys.modules]
report = photonbell.maximize_bell(
    photonbell.OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2)
)
print(json.dumps({"loaded": loaded, "code": code, "report": report.to_json_dict()}))
"""


def test_import_and_searchless_commands_skip_scipy(tmp_path):
    # a fresh interpreter: importing the package, fig1 and a pinned
    # violation-dist never load scipy.optimize or scipy.stats; the first
    # search loads the simplex on demand and matches an in-process search
    src = str(Path(photonbell.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "fig1.csv")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["loaded"] == {"import": [], "runs": []}
    assert result["code"] == [0, 0]
    spec = OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2)
    assert result["report"] == maximize_bell(spec).to_json_dict()


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


def test_single_party_never_violates(capsys):
    # one party has no Bell inequality to violate: S = 1 exactly
    code, out_text, err = run(["smax", "--parties", "1", "--restarts", "2"], capsys)
    assert code == 0
    assert out_text.startswith("s_max=1 ")
    assert json.loads(err.strip().splitlines()[-1])["derived"]["best_s"] == 1.0
    code, out_text, err = run(["eta", "--parties", "1", "--restarts", "2"], capsys)
    assert code == 0
    assert out_text.strip() == "no violation at unit efficiency"
    derived = json.loads(err.strip().splitlines()[-1])["derived"]
    assert derived == {"eta_threshold": 1.0, "violable": False}


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


def _embedded_manifest(path):
    text = Path(path).read_text()
    if text.startswith("# manifest: "):
        return json.loads(text.splitlines()[0][len("# manifest: ") :])
    return json.loads(text)["manifest"]


def _subcommand_dests():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {action.dest for action in sub._actions if action.dest != "help"}
        for name, sub in commands.choices.items()
    }


def test_manifest_parameters_are_every_flag_but_out_and_seed(tmp_path, capsys):
    # Each subcommand's embedded parameters carry one key per argparse
    # dest except --out and --seed; fig3 adds its per-file pair count and
    # stream seed.  The stderr line is the embedded manifest plus a
    # timestamp.
    cases = {
        "fig1": (["--grid", "24", "--deltas", "0,0.5"], "fig1.csv"),
        "fig2": (
            ["--n-list", "2", "--delta-max", "0", "--restarts", "1", "--eta-tolerance", "0.02"],
            "fig2.csv",
        ),
        "fig3": (
            ["--m-list", "1", "--samples", "30", "--bins", "10", "--restarts", "4", "--seed", "7"],
            "hist.json",
        ),
        "smax": (["--parties", "2", "--pin-phases", "--restarts", "4"], "smax.json"),
        "eta": (["--parties", "1", "--tolerance", "0.02", "--restarts", "2"], "eta.json"),
        "violation-dist": (
            ["--r0", "0.1", "--r1", "-0.5", "--pairs", "2", "--samples", "25", "--seed", "11"],
            "dist.json",
        ),
        "chsh-footnote": ([], None),
        "correlators": (["--parties", "2", "--r0", "0", "--r1", "0.6"], "c.csv"),
    }
    dests = _subcommand_dests()
    assert set(cases) == set(dests)
    for command, (flags, name) in cases.items():
        argv = [command, *flags]
        if name is not None:
            argv += ["--out", str(tmp_path / name)]
        code, _, err = run(argv, capsys)
        assert code == 0, command
        logged = json.loads(err.strip().splitlines()[-1])
        assert logged.pop("timestamp")
        if name is not None:
            embedded_path = tmp_path / name
            if command == "fig3":
                embedded_path = tmp_path / "hist_m1.json"
            assert _embedded_manifest(embedded_path) == logged, command
        expected = dests[command] - {"out", "seed"}
        if command == "fig3":
            expected |= {"pair_count", "stream_seed"}
        assert set(logged["parameters"]) == expected, command
        assert logged["command"] == command


@pytest.mark.parametrize(
    "argv, out, written",
    [
        (
            ["fig3", "--m-list", "1", "--samples", "30", "--bins", "10", "--seed", "7"],
            "hist.json",
            "hist_m1.json",
        ),
        (
            ["violation-dist", "--pairs", "2", "--samples", "25", "--seed", "11"],
            "dist.json",
            "dist.json",
        ),
    ],
)
def test_manifest_tells_restart_counts_apart(tmp_path, capsys, argv, out, written):
    # --restarts shapes the optimizer's amplitude pair, hence the
    # histogram, so runs that differ only in it must carry different
    # manifests.
    manifests = []
    for restarts in ("1", "2"):
        folder = tmp_path / restarts
        folder.mkdir()
        flags = ["--restarts", restarts, "--out", str(folder / out)]
        assert run(argv + flags, capsys)[0] == 0
        manifests.append(_embedded_manifest(folder / written))
    assert manifests[0] != manifests[1]
    assert [m["parameters"]["restarts"] for m in manifests] == [1, 2]


@pytest.mark.filterwarnings("error")
def test_very_wide_noise_damps_every_coherence(capsys):
    # A width whose square overflows leaves only the unrotated entries of
    # the state, as a width of 1e3 already does, without a numpy warning.
    code, out_text, _ = run(
        ["smax", "--parties", "2", "--delta", "1e200", "--restarts", "2"], capsys
    )
    assert code == 0
    assert out_text.startswith("s_max=1 ")
    tables = []
    for width in ("1e3", "1e200"):
        argv = ["correlators", "--parties", "3", "--r0", "0.1", "--r1", "-0.4"]
        code, out_text, _ = run(argv + ["--delta", width], capsys)
        assert code == 0
        tables.append(out_text)
    assert tables[0] == tables[1]


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


@pytest.mark.parametrize("parties", [1, 12])
def test_correlators_files_match_one_shot_dumps(tmp_path, capsys, parties):
    # rows are streamed to the file; the bytes are those of one json.dumps
    # of the whole payload and of the csv lines joined in one string
    argv = ["correlators", "--parties", str(parties), "--r0", "0.1", "--r1", "-0.4"]
    argv += ["--delta", "0.2", "--eta", "0.9"]
    table = averaged_correlator_table(parties, 0.1, -0.4, [0.0] * (parties - 1), 0.2, 0.9)
    rows = [
        [index, format(index, f"0{parties}b")[::-1], value]
        for index, value in enumerate(table.tolist())
    ]
    json_path, csv_path = tmp_path / "c.json", tmp_path / "c.csv"
    assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    assert main(argv + ["--format", "csv", "--out", str(csv_path)]) == 0
    capsys.readouterr()
    text = json_path.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["rows"] == [[i, bits, float(format(v, ".12g"))] for i, bits, v in rows]
    lines = csv_path.read_text().split("\n")
    assert lines[0].startswith("# manifest: {")
    expected = [f"{i},{bits},{format(v, '.12g')}" for i, bits, v in rows]
    assert lines[1:] == ["index,settings,xi", *expected, ""]


RSS_PROBE = """
import json, resource, sys
from photonbell.cli import build_parser, main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "growth": after - before}))
"""


def test_correlators_stream_in_table_sized_memory(tmp_path):
    # A fresh interpreter reports how far its peak RSS grows over one
    # N=18 json run.  The table is 2 MiB; materialised rows cost about
    # 300 B each, so the whole table as rows would add some 100 MiB.
    n = 18
    out = tmp_path / "c.json"
    src = str(Path(photonbell.__file__).resolve().parents[1])
    argv = ["correlators", "--parties", str(n), "--r0", "0.1", "--r1", "-0.4"]
    done = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, *argv, "--format", "json", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in bytes or KiB
    table_bytes = 8 * 2**n
    assert result["growth"] * unit <= 8 * table_bytes
    with out.open() as handle:
        rows = json.load(handle)["rows"]
    assert len(rows) == 2**n
    assert rows[-1][:2] == [2**n - 1, "1" * n]


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
