"""End-to-end checks of the photonbell command line."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photonbell
import photonbell.cli as cli
from photonbell import (
    ConsistencyError,
    OptimizationSpec,
    averaged_correlator_table,
    maximize_bell,
    threshold_efficiency,
)
from photonbell.cli import build_parser, main

from helpers import row_round12, write_rows_oracle


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, seed):
    # the commands check seeds with the library's own seed check, before
    # any search or sampling
    out = str(tmp_path / "h.json")
    for argv in (
        ["fig3", "--samples", "10", "--restarts", "1", "--out", out],
        ["violation-dist", "--r0", "0.1", "--r1", "-0.5", "--samples", "10"],
    ):
        code, out_text, err = run(argv + ["--seed", seed], capsys)
        assert code == 2 and out_text == ""
        assert ("seed must be >= 0" if seed == "-1" else "seed must be < 2**64") in err
    assert not (tmp_path / "h_m1.json").exists()


def test_invalid_arguments_exit_2(tmp_path, capsys):
    out = str(tmp_path / "f.csv")
    assert main(["fig1", "--r", "-1", "--out", out]) == 2
    assert main(["violation-dist", "--r0", "0.1", "--seed", "3"]) == 2
    assert main(["smax", "--parties", "19", "--unreduced"]) == 2
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
    # non-finite, fractional or repeated integer lists, and party or pair
    # counts whose tables would exceed the entry budget, exit 2 naming the
    # flag before any search or table build
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
        (["fig2", "--n-list", "2,2"], "--n-list repeats a party count"),
        (["fig2", "--n-list", "2,4,2"], "--n-list repeats a party count"),
        (["fig3", "--m-list", "inf", "--seed", "7"], "--m-list " + finite),
        (["fig3", "--m-list", "1e30", "--seed", "7"], "--m-list must lie in [1, 1024]"),
        (["fig3", "--m-list", "1,1", "--seed", "7"], "--m-list repeats a pair count"),
        (["fig3", "--m-list", "2,3,2", "--seed", "7"], "--m-list repeats a pair count"),
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
    # correlators, the 64-point scan at N=18 for a search, at two
    # transmissions for a threshold
    for argv in (
        ["correlators", "--parties", "22", "--r0", "0", "--r1", "0.2"],
        ["smax", "--parties", "18"],
        ["eta", "--parties", "18"],
    ):
        with pytest.raises(Reached):
            main(argv)
    # exact counts of 2^2-entry tables at N=2: one for correlators, a
    # search's 64 start points, at two transmissions for a threshold
    # search, and a pinned histogram's 3 frequencies x 2 pairs, complex
    boundaries = (
        (["correlators", "--parties", "2", "--r0", "0", "--r1", "0.2"], 1),
        (["smax", "--parties", "2"], 64),
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


def test_party_one_pair_search_fits_the_budget_to_18_parties(monkeypatch, capsys):
    # smax --unreduced scans 96 four-coordinate points: 96 x 2^18
    # entries fit the budget, 96 x 2^19 do not
    class Reached(Exception):
        pass

    def reached(_spec):
        raise Reached

    monkeypatch.setattr("photonbell.cli.maximize_bell", reached)
    with pytest.raises(Reached):
        main(["smax", "--parties", "18", "--unreduced"])
    assert main(["smax", "--parties", "19", "--unreduced"]) == 2
    assert "needs 96 x 2^19 table entries" in capsys.readouterr().err


FRAME = ["--r0", "0.1", "--r1", "-0.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["smax", "--parties", "2", "--delta", "-1"], "--delta must be finite and >= 0"),
        (["eta", "--parties", "2", "--delta", "nan"], "--delta must be finite and >= 0"),
        (["fig3", "--delta", "-0.1", "--seed", "7"], "--delta must be finite and >= 0"),
        (["violation-dist", "--delta", "inf", "--seed", "7"], "--delta must be finite and >= 0"),
        (["correlators", "--parties", "2", *FRAME, "--delta", "inf"], "--delta must be finite"),
        (["smax", "--parties", "2", "--eta", "1.5"], "--eta must lie in [0, 1]"),
        (["fig3", "--eta", "nan", "--seed", "7"], "--eta must lie in [0, 1]"),
        (["violation-dist", "--eta", "2", "--seed", "7"], "--eta must lie in [0, 1]"),
        (["correlators", "--parties", "2", *FRAME, "--eta", "-1"], "--eta must lie in [0, 1]"),
        (
            ["correlators", "--parties", "3", *FRAME, "--centers", "1,2,3"],
            "--centers must hold 2 values, got 3",
        ),
        (["correlators", "--parties", "3", *FRAME, "--centers", "1,nan"], "--centers must be finite"),
        (["correlators", "--parties", "3", *FRAME, "--centers", "1,inf"], "--centers must be finite"),
        (
            ["correlators", "--parties", "3", *FRAME, "--centers", "1,x"],
            "--centers must be a comma-separated list of numbers",
        ),
        (["fig1", "--deltas", "0,x"], "--deltas must be a comma-separated list of numbers"),
        (["fig1", "--deltas", "0,nan"], "--deltas must be finite and >= 0"),
        (["fig1", "--deltas", "0,inf"], "--deltas must be finite and >= 0"),
        (["fig1", "--deltas", "0,-0.1"], "--deltas must be finite and >= 0"),
        (["fig1", "--deltas", ","], "--deltas must be nonempty"),
        (["fig2", "--n-list", "2,x"], "--n-list must be a comma-separated list of numbers"),
        (["fig3", "--m-list", "1,x", "--seed", "7"], "--m-list must be a comma-separated list"),
    ],
)
def test_frame_flags_named_before_any_search(tmp_path, monkeypatch, capsys, argv, message):
    # the noise width, the efficiency, the centers and the list flags are
    # checked at their flags, before any search, table or histogram, like
    # --r0/--r1
    def reached(*_args, **_kwargs):
        raise AssertionError("work started before the frame flags were checked")

    for name in (
        "maximize_bell",
        "threshold_efficiency",
        "violation_distribution",
        "averaged_correlator_table",
    ):
        monkeypatch.setattr(f"photonbell.cli.{name}", reached)
    out = tmp_path / "o.json"
    code, out_text, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2 and out_text == ""
    assert message in err
    assert not list(tmp_path.iterdir())


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
    from photonbell.cli import _fmt, _write_rows

    assert _fmt(value) == text
    out = io.StringIO()
    assert _write_rows(out, "csv", [([value], [value])])
    assert out.getvalue() == f"{text},{text}\n"


# one column per scalar type a data row can hold, two rows each
SPECIAL_COLUMNS = [
    [0.1 + 0.2, -2.5e-17],
    [np.float64(1.0194069502603166), np.float64(-0.0)],
    np.array([0.1, -1.5e30], dtype=np.float32),
    [123456789012345.0, 1e16],
    [float("nan"), float("nan")],
    [np.inf, -np.inf],
    [-0.0, 0.0],
    [7, -3],
    np.array([-3, 2**40], dtype=np.int64),
    [True, False],
    np.array([False, True]),
    ["0011", 'a "quoted"\tstr\u00e9'],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, 2, 5, 9])
def test_column_writer_matches_row_oracle(tmp_path, monkeypatch, fmt, rows):
    # every special value, through chunks of 4 rows: none, a part, one
    # whole chunk and several with a short last one
    from photonbell import cli

    monkeypatch.setattr(cli, "CHUNK_ROWS", 4)
    columns = [np.resize(np.asarray(column), rows) for column in SPECIAL_COLUMNS]
    header = [f"c{i}" for i in range(len(columns))]
    manifest = {"command": "test", "parameters": {"rows": rows}}
    written, expected = tmp_path / "written", tmp_path / "expected"
    cli._write_table(written, fmt, header, cli._chunked(*columns), manifest)
    row_values = [tuple(column[i] for column in columns) for i in range(rows)]
    write_rows_oracle(expected, fmt, header, row_values, manifest)
    assert written.read_bytes() == expected.read_bytes()


def test_column_writer_refuses_unwritable_dtypes():
    from photonbell.cli import _cells

    for column in (np.array([1 + 2j]), np.array([None]), np.array([b"01"])):
        with pytest.raises(TypeError):
            _cells(column, "csv")


def _json_float_fuzz_columns():
    """Float columns that reach every branch of a json cell, and its edges."""
    rng = np.random.default_rng(41)
    exponents = np.arange(-1074, 1024)
    signs = rng.choice([-1.0, 1.0], exponents.size)
    # every binade, subnormals included, at random mantissas
    every_binade = signs * np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents)
    # decimals of 1..12 digits at exponents -6..16: fixed point, the 1e-4
    # and 1e12 switches to an exponent, and the integral values between
    digits = rng.integers(1, 13, 4000)
    mantissas = np.floor(rng.uniform(0.1, 1.0, digits.size) * 10.0**digits)
    decimals = mantissas * 10.0 ** (rng.integers(-6, 17, digits.size) - digits)
    carries = [
        sign * scale * nines
        for nines in (0.9999999999995, 0.99999999999949, 9.9999999999995, 0.99999999999995)
        for scale in 10.0 ** np.arange(-6, 17)
        for sign in (-1.0, 1.0)
    ]
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.0**-1022]
    integers = np.concatenate([np.arange(-50, 51), 2.0 ** np.arange(30, 64), [2**53 + 1.0]])
    exponent_11_to_16 = rng.uniform(1.0, 10.0, 600) * 10.0 ** rng.integers(11, 17, 600)
    mixed = np.concatenate(
        [rng.uniform(-1.0, 1.0, 3000), every_binade, decimals, carries, specials, integers]
    )
    rng.shuffle(mixed)
    return {
        "every binade": every_binade,
        "decimals": decimals,
        "carries": np.array(carries),
        "specials": np.array(specials),
        "integers": integers,
        "exponents 11 to 16": exponent_11_to_16,
        "mixed": mixed,
        "float32": rng.normal(size=500).astype(np.float32) * np.float32(1e3),
        "empty": np.array([]),
    }


@pytest.mark.parametrize("kind", list(_json_float_fuzz_columns()))
def test_json_float_cells_equal_the_encoder_of_rounded_floats(kind):
    # a json float cell used to be the encoder's text of the float that
    # format(v, ".12g") parses to; the .12g text stands in for it wherever
    # it is fixed point with a point, and must give the same string
    column = _json_float_fuzz_columns()[kind]
    expected = [json.dumps(row_round12(v)) for v in column.tolist()]
    assert cli._cells(column, "json") == expected


def _repeating_float_columns():
    """Float columns that repeat values, with the bit patterns that must stay apart."""
    rng = np.random.default_rng(43)
    nan_payload = np.array([np.nan]).view(np.int64) | 1
    specials = np.array(
        [0.0, -0.0, np.nan, *nan_payload.view(float), -np.nan, np.inf, -np.inf,
         5e-324, -5e-324, 1e-310, 2.0**-1022, 1.0, -1.0, 1e16, 1e-5, 1.5e300, 123456789012.5]
    )
    phases = np.arange(72) * (2.0 * np.pi / 72)
    mixed = np.concatenate([np.repeat(specials, 7), np.tile(phases, 5), rng.normal(size=200)])
    rng.shuffle(mixed)
    wide = np.stack([mixed, mixed[::-1]], axis=1)
    return {
        "mixed": mixed,
        "widths": np.repeat([0.0, 0.2, 0.4, 0.7, 1.0], 720),
        "float32": np.repeat(rng.normal(size=40).astype(np.float32), 9),
        "strided": mixed[::3],
        "reversed": mixed[::-1],
        "matrix column": wide[:, 1],
        "one value": np.full(50, -0.0),
        "distinct": rng.normal(size=300),
    }


@pytest.mark.parametrize("kind", list(_repeating_float_columns()))
def test_float_cells_of_distinct_values_equal_per_value_cells(kind):
    # a float column is formatted once per distinct bit pattern and spread
    # back; each cell must equal the text of its own value
    column = _repeating_float_columns()[kind]
    values = column.tolist()
    assert cli._cells(column, "csv") == [format(v, ".12g") for v in values]
    assert cli._cells(column, "json") == [json.dumps(row_round12(v)) for v in values]


IMPORT_GUARD = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import photonbell, photonbell.cli
fig1, fig2 = sys.argv[1:3]
code = [
    photonbell.cli.main(["fig1", "--grid", "8", "--out", fig1]),
    photonbell.cli.main(
        ["violation-dist", "--r0", "0.1", "--r1", "-0.5", "--pairs", "2",
         "--samples", "20", "--seed", "3"]
    ),
    photonbell.cli.main(
        ["fig2", "--n-list", "2", "--delta-max", "0.1", "--delta-step", "0.1",
         "--out", fig2]
    ),
]
report = photonbell.maximize_bell(
    photonbell.OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2)
)
threshold = photonbell.threshold_efficiency(2, 0.2, restarts=2)
print(json.dumps({
    "code": code,
    "report": report.to_json_dict(),
    "threshold": [threshold.efficiency, threshold.violable],
}))
"""


def test_import_and_searchless_commands_skip_scipy(tmp_path):
    # a fresh interpreter in which SciPy cannot be imported: the package,
    # fig1, violation-dist, a reduced fig2 and both searches run, and the
    # searches match the in-process ones
    src = str(Path(photonbell.__file__).resolve().parents[1])
    outputs = [str(tmp_path / "fig1.csv"), str(tmp_path / "fig2.csv")]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, *outputs],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == [0, 0, 0]
    spec = OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2)
    assert result["report"] == maximize_bell(spec).to_json_dict()
    threshold = threshold_efficiency(2, 0.2, restarts=2)
    assert result["threshold"] == [threshold.efficiency, threshold.violable]
    assert (tmp_path / "fig2.csv").read_text().count("\n") == 4


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


def test_fig1_refuses_repeated_widths(tmp_path, capsys):
    # a repeated width would write its block twice
    out = tmp_path / "f.csv"
    for deltas in ("0,0", "0.3,0.1,0.3"):
        code, _, err = run(["fig1", "--grid", "8", "--deltas", deltas, "--out", str(out)], capsys)
        assert code == 2
        assert "--deltas repeats a noise width" in err
    assert not out.exists()


def test_fig1_refuses_non_finite_or_non_positive_r(tmp_path, capsys):
    # the --r check names the flag: nan and inf passed "r <= 0" and failed
    # later with the strategy's settings message
    out = tmp_path / "f.csv"
    for r in ("nan", "inf", "-inf", "0", "-1"):
        code, _, err = run(["fig1", f"--r={r}", "--grid", "8", "--out", str(out)], capsys)
        assert code == 2
        assert "r must be finite and > 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("violation-dist", "r0", "nan"),
        ("violation-dist", "r1", "inf"),
        ("correlators", "r0", "nan"),
        ("correlators", "r1", "-inf"),
    ],
)
def test_amplitude_flags_refuse_non_finite_values(tmp_path, capsys, command, flag, value):
    # each amplitude is checked at its flag, like fig1's --r: the message
    # names the flag, and amplitudes of either sign stay allowed
    amplitudes = {"r0": "0.1", "r1": "-0.5", flag: value}
    out = tmp_path / "o.json"
    argv = [command, "--parties", "3", "--r0=" + amplitudes["r0"], "--r1=" + amplitudes["r1"]]
    if command == "violation-dist":
        argv += ["--samples", "10", "--seed", "1"]
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert f"--{flag} must be finite" in err
    assert ">= 0" not in err
    assert not out.exists()


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
        ["smax", "--parties", "2", "--restarts", "4", "--out", out],
        capsys,
    )
    assert code == 0
    assert out_text.startswith("s_max=1.344")
    assert "converged=true" in out_text
    payload = json.loads((tmp_path / "smax.json").read_text())
    assert abs(payload["report"]["best_s"] - 1.3442) < 1e-3
    assert "pin_phases" not in payload["manifest"]["parameters"]
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["derived"]["best_s"] == pytest.approx(1.3442, abs=1e-3)


def test_default_smax_pins_the_centers(capsys):
    # the joint center search, the default before, printed s_max=1 here
    code, out_text, err = run(["smax", "--parties", "2", "--delta", "1.25"], capsys)
    assert code == 0
    assert out_text == (
        "s_max=1.09012158181 r=0.435131148004 r_prime=-0.0774275030975 "
        "centers=[0] converged=true\n"
    )
    assert "pin_phases" not in json.loads(err.strip().splitlines()[-1])["parameters"]


def test_phase_flags_are_gone(tmp_path, capsys):
    # smax and fig2 search with every center at 0 and accept no phase flag
    for argv in (
        ["smax", "--parties", "2", "--pin-phases"],
        ["fig2", "--n-list", "2", "--joint-phases", "--out", str(tmp_path / "f.csv")],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not list(tmp_path.iterdir())


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
        "smax": (["--parties", "2", "--restarts", "4"], "smax.json"),
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


def test_huge_amplitudes_are_photon_counting(tmp_path, capsys):
    # An amplitude whose square overflows clicks with certainty, as an
    # amplitude of 1e3 already does, without a numpy warning.
    tables = []
    for r0 in ("1e3", "1e200"):
        argv = ["correlators", "--parties", "2", "--r0", r0, "--r1", "0.2"]
        code, out_text, _ = run(argv, capsys)
        assert code == 0
        tables.append(out_text)
    assert tables[0] == tables[1]
    assert tables[1].splitlines()[-1] == "# S = 1"
    out = tmp_path / "fig1.csv"
    code, _, _ = run(["fig1", "--r", "1e200", "--out", str(out)], capsys)
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 5 * 720
    assert {row.split(",")[-1] for row in rows} == {"1"}


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


def test_correlators_json_needs_out(monkeypatch, capsys):
    # without --out the table prints as csv, so --format json alone is
    # refused with exit 2, before any table is built, naming both flags
    def no_table(*_args):
        raise AssertionError("a table was built before the flags were checked")

    monkeypatch.setattr("photonbell.cli.averaged_correlator_table", no_table)
    argv = ["correlators", "--parties", "3", "--r0", "0.1", "--r1", "0.2", "--format", "json"]
    code, out_text, err = run(argv, capsys)
    assert code == 2 and out_text == ""
    assert "--format json" in err and "--out" in err


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


FIG1 = ["fig1"]
FIG1_SMALL = ["fig1", "--r", "0.13", "--deltas", "0,0.3,0.77", "--grid", "360"]
REDUCED_FIG2 = ["fig2", "--n-list", "2,4", "--delta-max", "0.2", "--delta-step", "0.1"]
CORRELATORS = ["correlators", "--parties", "12", "--r0", "0.1", "--r1", "-0.4"]
CORRELATORS += ["--delta", "0.2", "--eta", "0.9"]
CENTERS = ["--centers", "0.3,-1.1,0.7,2.0,0.05,-0.4,1.3,0.9,-2.2,0.6,0.15"]
JSON = ["--format", "json"]
STDOUT = ["--out", "-"]  # marks a correlators table printed to stdout

# sha256 of each output file, or of stdout, as recorded with the
# row-at-a-time writer that the column writer replaced.  The manifests
# hold the package version, so a version bump changes them.  The fig2
# manifests no longer hold a joint_phases key; their rows kept their bytes.
GOLDEN_OUTPUTS = [
    pytest.param(
        FIG1,
        "bbb7ce80d7080dd656e9da29586d27f46509b775e92a7aede7ebc2a94afe0d47",
        id="fig1-csv",
    ),
    pytest.param(
        FIG1 + JSON,
        "284e3bd77ceae2dae04cc58abcf01d2db2b36428c5a4ccfbbf9a66abca7958f5",
        id="fig1-json",
    ),
    pytest.param(
        FIG1_SMALL,
        "1d98b995074a77b2b221b7386159f8f4daef05ac0e79719d854e59ff87802a77",
        id="fig1-small-csv",
    ),
    pytest.param(
        FIG1_SMALL + JSON,
        "4bc1d4477178c05e7ee07a7d0b807ae119a16333bbf2e18100aa70d8b18c9a9a",
        id="fig1-small-json",
    ),
    pytest.param(
        REDUCED_FIG2,
        "c3ab754b690cf7822db7159cfc662d4318bcf0051a8c8eedc00bbb008b0f8664",
        id="fig2-csv",
    ),
    pytest.param(
        REDUCED_FIG2 + JSON,
        "dc86226c43cd3ee958af0639ceb25708b4c12279fc05a1cbd80d5860c4ec93c9",
        id="fig2-json",
    ),
    pytest.param(
        CORRELATORS,
        "db959ce1d95e3d1e9f38142abce465c614af7ea6bdc81f071f4e3720495863ab",
        id="correlators-csv",
    ),
    pytest.param(
        CORRELATORS + JSON,
        "0dc1b0fb56f29e20355e7adc7fb755c107067c7094a057a294512f82382f77f4",
        id="correlators-json",
    ),
    pytest.param(
        CORRELATORS + STDOUT,
        "10d916c91a6f0870b08589d28f0df7af0162806f6df2d0aea635daef8a6c4ab2",
        id="correlators-stdout",
    ),
    pytest.param(
        CORRELATORS + CENTERS,
        "39ab679a53c84a8bf5d678512f2b5097afb5ceb88aee5f256db9c392965c5ed9",
        id="correlators-centers-csv",
    ),
    pytest.param(
        CORRELATORS + CENTERS + JSON,
        "e3d211516f95a0c287cb410af579b8afc18658b5fe0ff627b330b6182b90fb90",
        id="correlators-centers-json",
    ),
    pytest.param(
        CORRELATORS + CENTERS + STDOUT,
        "8b0bb672e11c1863625b61904cc0deb980ae79089dd9c5790ede7d7aae9409ee",
        id="correlators-centers-stdout",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_OUTPUTS)
def test_outputs_keep_their_golden_bytes(tmp_path, capsys, argv, digest):
    to_stdout = argv[-2:] == STDOUT
    path = tmp_path / "out"
    code, out_text, _ = run(argv[:-2] if to_stdout else argv + ["--out", str(path)], capsys)
    assert code == 0
    data = out_text.encode("utf-8") if to_stdout else path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


GOLDEN = {param.id: param.values for param in GOLDEN_OUTPUTS}


def _golden_digest(name, path, capsys):
    argv, digest = GOLDEN[name]
    code, _, _ = run(argv + ["--out", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_parser_is_built_once_and_survives_a_bad_argument(tmp_path, capsys):
    # main builds its parser on the first call and reuses it; an argparse
    # error on that parser leaves it fit for the next call, whose output
    # keeps its golden bytes; build_parser still returns a fresh parser
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["fig1", "--grid", "many"])
    assert info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert cli._parser.cache_info().currsize == 1
    _golden_digest("fig1-csv", tmp_path / "fig1.csv", capsys)
    assert cli._parser.cache_info().misses == 1
    assert build_parser() is not cli._parser()
    assert build_parser() is not build_parser()


def test_reused_parser_keeps_each_subcommand_defaults(tmp_path, capsys):
    # subcommands parsed back to back through one parser keep their own
    # defaults: flags set in one call do not carry into the next
    parser = cli._parser()
    first = parser.parse_args(["fig1", "--r", "0.5", "--grid", "9", "--out", "a"])
    second = parser.parse_args(["fig1", "--out", "b"])
    assert (first.r, first.grid) == (0.5, 9)
    assert (second.r, second.grid) == (0.1, 720)
    dist = parser.parse_args(["violation-dist", "--pairs", "4", "--seed", "1"])
    assert not hasattr(dist, "grid") and dist.r0 is None and dist.pairs == 4
    assert not hasattr(parser.parse_args(["fig1", "--out", "c"]), "pairs")
    _golden_digest("fig1-small-json", tmp_path / "small.json", capsys)
    _golden_digest("correlators-centers-json", tmp_path / "correlators.json", capsys)
    _golden_digest("fig1-csv", tmp_path / "fig1.csv", capsys)
    _golden_digest("correlators-csv", tmp_path / "correlators.csv", capsys)


def test_correlators_csv_streams_in_table_sized_memory(tmp_path):
    # the csv twin of the json probe above, with the same bound
    n = 18
    out = tmp_path / "c.csv"
    src = str(Path(photonbell.__file__).resolve().parents[1])
    argv = ["correlators", "--parties", str(n), "--r0", "0.1", "--r1", "-0.4"]
    done = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, *argv, "--format", "csv", "--out", str(out)],
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
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 2**n
    assert lines[-1].split(",")[:2] == [str(2**n - 1), "1" * n]


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
