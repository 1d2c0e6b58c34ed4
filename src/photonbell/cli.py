"""Command line producing machine-readable data for the Bell analysis.

Subcommands cover the standard datasets of the split-single-photon Bell
study: ``fig1`` sweeps the Bell value of the vacuum-probe strategy over
the relative-phase circle for several noise widths, ``fig2`` tabulates the
optimized Bell value and the loss threshold against the noise width,
``fig3`` histograms best-pair Bell values over random frames, and the
remaining commands expose single optimizer runs, threshold searches,
distribution runs, the two-qubit benchmark check and raw correlation
tables.

Every run logs a manifest (command, parameters, seed, library version,
derived values, timestamp) to stderr as one JSON line.  The parameters
are every flag except ``--out`` and ``--seed``, taken from the parsed
arguments, with list flags and defaulted values as the run used them;
all manifests are built by ``_manifest`` and logged by ``_log``.  Output
files embed the same manifest without the timestamp, so a rerun with
identical parameters produces byte-identical files.  Numbers in data
files carry 12 significant digits.

Exit codes: 0 on success, 1 on I/O failure, 2 on invalid arguments, 3 on
a numerical consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    _frame_scan_row_count,
    best_pair_values_over_centers,
    pair_symbolic_tables,
    paired_strategy,
    violation_distribution,
)
from .fock_core import TWO_PI, ConsistencyError, w_state
from .optimize import (
    OptimizationSpec,
    _scan_table_count,
    averaged_correlator_table,
    maximize_bell,
    threshold_efficiency,
)
from .phase_noise import child_seed
from .wwzb import CorrelatorTable, chsh_horodecki, wwzb_value

__all__ = ["build_parser", "main"]

FIG1_DEFAULT_WIDTHS = "0,0.2,0.4,0.7,1.0"
FIG2_DEFAULT_PARTIES = "2,4,9"
FIG3_DEFAULT_PAIRS = "1,3,5"

# Most noise widths one fig2 run may tabulate; every width is a full search.
FIG2_MAX_WIDTHS = 10_000

# Most 8 B entries one batched table build may hold, 256 MiB: a search's
# start-cloud scan, a histogram's offset-symbolic coefficients (real rows,
# counted twice: the stacked rows plus their transform), its frame centers
# and values or its bin edges, a fig1 sweep or a correlators table.
MAX_TABLE_ENTRIES = 2**25

# Most setting pairs a histogram may step through; the certainty frontier
# uses eight.
MAX_PAIRS = 1024


def _manifest(args, seed=None, derived=None, **parsed) -> dict:
    """The manifest one run embeds in its output files.

    Its parameters are every flag in ``args`` except --out and --seed
    (the checked seed has its own key).  ``parsed`` gives the values the
    run used where they differ from the raw flags (parsed lists,
    resolved amplitudes, default centers) and adds per-file values.
    """
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "func", "out", "seed")
    }
    parameters.update(parsed)
    return {
        "command": args.command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "derived": derived or {},
    }


def _log(manifest: dict) -> None:
    """Print the manifest, timestamped, to stderr as one JSON line."""
    stamped = dict(manifest, timestamp=datetime.now(timezone.utc).isoformat())
    print(json.dumps(stamped, sort_keys=True), file=sys.stderr)


def _fmt(value) -> str:
    # Floats, np.float64 among them, are nearly every value written.
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _round12(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(format(float(value), ".12g"))


def _write_json(path, manifest: dict, **body) -> None:
    """Write one JSON document: the manifest beside the ``body`` keys."""
    document = json.dumps({"manifest": manifest, **body}, indent=2, sort_keys=True)
    Path(path).write_text(document + "\n", encoding="utf-8")


def _csv_lines(rows):
    for row in rows:
        yield ",".join(map(_fmt, row)) + "\n"


# Compact encoder whose item separator is the newline and indent that
# json.dumps(..., indent=2) puts between the scalars of a row under "rows".
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_row(row) -> str:
    """One row of scalars as ``json.dumps(..., indent=2)`` lays it out under "rows"."""
    return "    [\n      " + _ROW_ENCODER.encode([_round12(v) for v in row])[1:-1] + "\n    ]"


def _write_rows(path, fmt, header, rows, manifest) -> None:
    """Write ``rows``, any iterable of rows, one row at a time.

    The bytes equal those of one ``json.dumps(payload, indent=2,
    sort_keys=True)`` of the whole table (csv: manifest comment, header,
    lines), but no row outlives its own write.
    """
    with open(path, "w", encoding="utf-8") as out:
        if fmt == "csv":
            manifest_line = "# manifest: " + json.dumps(manifest, sort_keys=True)
            out.write(manifest_line + "\n" + ",".join(header) + "\n")
            out.writelines(_csv_lines(rows))
            return
        payload = {"manifest": manifest, "columns": list(header), "rows": []}
        # "rows" sorts last, so the dump ends in '"rows": []' and the newline
        # and brace closing the object.
        out.write(json.dumps(payload, indent=2, sort_keys=True)[: -len("[]\n}")])
        separator = "[\n"
        for row in rows:
            out.write(separator + _json_row(row))
            separator = ",\n"
        out.write("[]\n}\n" if separator == "[\n" else "\n  ]\n}\n")


def _parse_floats(text: str, name: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of numbers")
    if not values:
        raise ValueError(f"{name} must be nonempty")
    return values


def _parse_ints(text: str, name: str):
    values = _parse_floats(text, name)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"{name} must hold finite integers")
    return [int(v) for v in values]


def _check_entries(tables: int, parties: int, sized_by: str) -> None:
    """Reject tables x 2^parties entries beyond MAX_TABLE_ENTRIES.

    ``sized_by`` names the flags.  A party count past the budget's
    exponent is refused before 2^parties is formed.
    """
    if (
        parties >= MAX_TABLE_ENTRIES.bit_length()
        or tables * 2**parties > MAX_TABLE_ENTRIES
    ):
        raise ValueError(
            f"{sized_by} needs {tables} x 2^{parties} table entries, "
            f"more than {MAX_TABLE_ENTRIES}"
        )


def _check_search(spec: OptimizationSpec, flag: str, threshold=False) -> None:
    """Reject a search whose start-cloud scan would exceed the table budget."""
    _check_entries(
        _scan_table_count(spec, threshold),
        spec.n_parties,
        f"{flag} {spec.n_parties} with --restarts {spec.restarts}",
    )


def _check_histogram_tables(parties: int, pair_counts, pair_flag: str) -> None:
    """Reject pair counts beyond MAX_PAIRS and oversized frame-scan tables."""
    if not all(1 <= m <= MAX_PAIRS for m in pair_counts):
        raise ValueError(f"{pair_flag} must lie in [1, {MAX_PAIRS}]")
    m = max(pair_counts)
    # the stacked real coefficients plus their transform
    _check_entries(
        2 * _frame_scan_row_count(parties, m),
        parties,
        f"--parties {parties} with {pair_flag} {m}",
    )


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def _check_count(count: int, sized_by: str) -> None:
    """Reject an array of ``count`` float entries beyond MAX_TABLE_ENTRIES."""
    if count > MAX_TABLE_ENTRIES:
        raise ValueError(f"{sized_by} needs {count} entries, more than {MAX_TABLE_ENTRIES}")


def _check_histogram_size(samples: int, bins: int, parties: int) -> None:
    """Reject empty or oversized histograms before any center is drawn.

    A histogram holds samples x (N - 1) frame centers and samples Bell
    values, and bins + 1 edges.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    _check_count(samples * parties, f"--samples {samples} with --parties {parties}")
    _check_count(bins + 1, f"--bins {bins}")


def _phase_grid(count: int) -> np.ndarray:
    if count < 2:
        raise ValueError("grid must have at least 2 points")
    return np.arange(count) * TWO_PI / count


def cmd_fig1(args) -> int:
    """Bell value of the vacuum-probe strategy over the phase circle.

    Every party measures amplitudes (0, r) at one local phase; the second
    correlator row then depends only on the relative phase, swept on a
    uniform grid for each noise width.  CSV columns: delta, phi_bar, S.
    """
    if args.r <= 0.0:
        raise ValueError("r must be > 0")
    widths = _parse_floats(args.deltas, "deltas")
    if any(w < 0 for w in widths):
        raise ValueError("deltas must be >= 0")
    _check_count(args.grid * len(widths), f"--grid {args.grid} with {len(widths)} --deltas")
    grid = _phase_grid(args.grid)
    strategy = paired_strategy(2, 0.0, args.r, 1)
    tables = pair_symbolic_tables(w_state(2), strategy)
    rows = []
    for width in widths:
        values = best_pair_values_over_centers(tables, grid[:, None], width)
        rows.extend((width, phi, s) for phi, s in zip(grid, values))
    manifest = _manifest(args, deltas=widths)
    _write_rows(args.out, args.format, ("delta", "phi_bar", "S"), rows, manifest)
    _log(manifest)
    return 0


def cmd_fig2(args) -> int:
    """Optimized Bell value and loss threshold against the noise width.

    For each party count and width, maximizes the frame-averaged Bell
    value over the signed amplitude pair and finds the transmission
    threshold as the smallest crossing efficiency over the same search
    (``--eta-tolerance`` is that search's stopping tolerance).  CSV
    columns: N, delta, s_max, eta_threshold (NaN when no loss level
    violates).
    """
    parties = _parse_ints(args.parties, "--n-list")
    if any(n < 1 for n in parties):
        raise ValueError("--n-list must hold party counts >= 1")
    if not (np.isfinite(args.delta_step) and args.delta_step > 0.0):
        raise ValueError("--delta-step must be finite and > 0")
    if not (np.isfinite(args.delta_max) and args.delta_max >= 0.0):
        raise ValueError("--delta-max must be finite and >= 0")
    if args.delta_max / args.delta_step + 0.5 > FIG2_MAX_WIDTHS:
        raise ValueError(f"--delta-max / --delta-step exceeds {FIG2_MAX_WIDTHS} widths")
    if not (np.isfinite(args.eta_tolerance) and args.eta_tolerance > 0.0):
        raise ValueError("eta tolerance must be finite and > 0")
    for n in parties:
        spec = OptimizationSpec(
            n, 0.0, optimize_phases=args.joint_phases, restarts=args.restarts
        )
        _check_search(spec, "--n-list")
        _check_search(replace(spec, optimize_phases=False), "--n-list", threshold=True)
    widths = np.arange(0.0, args.delta_max + 0.5 * args.delta_step, args.delta_step)
    rows = []
    for n in parties:
        for width in widths:
            report = maximize_bell(
                OptimizationSpec(
                    n_parties=n,
                    width=float(width),
                    optimize_phases=args.joint_phases,
                    restarts=args.restarts,
                )
            )
            threshold = threshold_efficiency(
                n,
                float(width),
                tolerance=args.eta_tolerance,
                restarts=args.restarts,
            )
            eta = threshold.efficiency if threshold.violable else float("nan")
            rows.append((n, float(width), report.best_s, eta))
    manifest = _manifest(args, parties=parties)
    _write_rows(
        args.out, args.format, ("N", "delta", "s_max", "eta_threshold"), rows, manifest
    )
    _log(manifest)
    return 0


def _stem_with_suffix(path: str, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + suffix + p.suffix))


def _pinned_optimum(args):
    """Pinned-phase optimum for centered frames, the amplitudes of a histogram."""
    spec = OptimizationSpec(
        n_parties=args.parties,
        width=args.delta,
        efficiency=args.eta,
        optimize_phases=False,
        restarts=args.restarts,
    )
    _check_search(spec, "--parties")
    return maximize_bell(spec)


def cmd_fig3(args) -> int:
    """Best-pair Bell-value histograms over uniformly random frames.

    Amplitudes are the optimizer's signed pair for centered frames at the
    given width and efficiency (recorded in the manifest, never
    hard-coded).  One histogram JSON is written per pair count, suffixed
    ``_m{m}``, each sampled from an independent child stream of the seed;
    the violating fraction per pair count is printed to stdout.
    """
    pair_counts = _parse_ints(args.m_list, "--m-list")
    _check_histogram_tables(args.parties, pair_counts, "--m-list")
    _check_histogram_size(args.samples, args.bins, args.parties)
    seed = _check_seed(args.seed)
    report = _pinned_optimum(args)
    derived = {
        "r": _round12(report.r),
        "r_prime": _round12(report.r_prime),
        "optimizer_best_s": _round12(report.best_s),
    }
    for m in pair_counts:
        stream = child_seed(seed, m)
        histogram = violation_distribution(
            args.parties,
            (report.r, report.r_prime),
            args.delta,
            args.eta,
            m,
            args.samples,
            seed=stream,
            n_bins=args.bins,
        )
        manifest = _manifest(
            args, seed, derived, m_list=pair_counts, pair_count=m, stream_seed=stream
        )
        out = _stem_with_suffix(args.out, f"_m{m}")
        _write_json(out, manifest, histogram=histogram.to_json_dict())
        _log(manifest)
        print(f"m={m} fraction_violating={_fmt(histogram.fraction_violating)}")
    return 0


def cmd_smax(args) -> int:
    """One optimizer run; prints the maximum and the signed amplitudes."""
    spec = OptimizationSpec(
        n_parties=args.parties,
        width=args.delta,
        efficiency=args.eta,
        optimize_phases=not args.pin_phases,
        shared_amplitudes=not args.unreduced,
        restarts=args.restarts,
        tolerance=args.tolerance,
    )
    _check_search(spec, "--parties")
    report = maximize_bell(spec)
    manifest = _manifest(args, derived={"best_s": _round12(report.best_s)})
    centers = ",".join(_fmt(c) for c in report.phase_centers)
    print(
        f"s_max={_fmt(report.best_s)} r={_fmt(report.r)} "
        f"r_prime={_fmt(report.r_prime)} centers=[{centers}] "
        f"converged={_fmt(report.converged)}"
    )
    if args.out:
        _write_json(args.out, manifest, report=report.to_json_dict())
    _log(manifest)
    return 0


def cmd_eta(args) -> int:
    """Threshold transmission above which the Bell inequality is violated."""
    # threshold_efficiency searches the pinned-phase coordinates
    spec = OptimizationSpec(
        args.parties, args.delta, optimize_phases=False, restarts=args.restarts
    )
    _check_search(spec, "--parties", threshold=True)
    result = threshold_efficiency(
        args.parties,
        args.delta,
        tolerance=args.tolerance,
        restarts=args.restarts,
    )
    derived = {"eta_threshold": _round12(result.efficiency), "violable": result.violable}
    manifest = _manifest(args, derived=derived)
    if result.violable:
        print(f"eta_threshold={_fmt(result.efficiency)}")
    else:
        print("no violation at unit efficiency")
    if args.out:
        _write_json(args.out, manifest, **derived)
    _log(manifest)
    return 0


def cmd_violation_dist(args) -> int:
    """Histogram of best-pair Bell values for one pair count.

    Give both --r0 and --r1 (signed amplitudes) to pin the strategy, or
    neither to use the optimizer's centered-frame pair.
    """
    seed = _check_seed(args.seed)
    _check_histogram_tables(args.parties, [args.pairs], "--pairs")
    _check_histogram_size(args.samples, args.bins, args.parties)
    given = (args.r0 is not None) + (args.r1 is not None)
    if given == 1:
        raise ValueError("give both --r0 and --r1, or neither")
    if given == 2:
        r0, r1 = args.r0, args.r1
        derived = {}
    else:
        report = _pinned_optimum(args)
        r0, r1 = report.r, report.r_prime
        derived = {"r": _round12(r0), "r_prime": _round12(r1)}
    histogram = violation_distribution(
        args.parties,
        (r0, r1),
        args.delta,
        args.eta,
        args.pairs,
        args.samples,
        seed=seed,
        n_bins=args.bins,
    )
    manifest = _manifest(args, seed, derived, r0=r0, r1=r1)
    print(f"fraction_violating={_fmt(histogram.fraction_violating)}")
    if args.out:
        _write_json(args.out, manifest, histogram=histogram.to_json_dict())
    _log(manifest)
    return 0


def cmd_chsh_footnote(args) -> int:
    """CHSH reach of the benchmark two-qubit state.

    The state mixes the symmetric one-excitation Bell state (weight 2/3)
    with |00> (weight 1/3); its best CHSH value stays below 2, so this
    state alone cannot show the nonlocality the full analysis targets.
    """
    psi = np.zeros(4)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    rho = (2.0 / 3.0) * np.outer(psi, psi)
    rho[0, 0] += 1.0 / 3.0
    value = chsh_horodecki(rho)
    verdict = "no violation" if value <= 2.0 else "violation"
    print(f"chsh={_fmt(value)} bound=2")
    print(verdict)
    _log(_manifest(args, derived={"chsh": _round12(value), "verdict": verdict}))
    return 0


def cmd_correlators(args) -> int:
    """Frame-averaged correlation table of the single-phase strategy.

    Row index bit k-1 selects party k's setting (party 1 in the least
    significant bit); the ``settings`` column spells the bits party 1
    first.  The final comment row carries the Bell value of the table.
    """
    _check_entries(1, args.parties, f"--parties {args.parties}")
    centers = (
        _parse_floats(args.centers, "centers")
        if args.centers
        else [0.0] * (args.parties - 1)
    )
    table = averaged_correlator_table(
        args.parties, args.r0, args.r1, centers, args.delta, args.eta
    )
    result = wwzb_value(CorrelatorTable(args.parties, table))
    rows = (
        (index, format(index, f"0{args.parties}b")[::-1], value)
        for index, value in enumerate(table)
    )
    manifest = _manifest(args, derived={"s": _round12(result.s_value)}, centers=centers)
    if args.out:
        _write_rows(args.out, args.format, ("index", "settings", "xi"), rows, manifest)
    else:
        print("index,settings,xi")
        sys.stdout.writelines(_csv_lines(rows))
    print(f"# S = {_fmt(result.s_value)}")
    _log(manifest)
    return 0


def _add_output_flags(sub, default_format="csv"):
    sub.add_argument("--out", required=True, help="output file path")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help="output format (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonbell",
        description="Bell-violation datasets for a single photon split over "
        "N modes, measured by displaced click/no-click detection.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    fig1 = commands.add_parser(
        "fig1", help="phase sweep of the vacuum-probe strategy"
    )
    fig1.add_argument("--r", type=float, default=0.1, help="probe amplitude")
    fig1.add_argument(
        "--deltas",
        default=FIG1_DEFAULT_WIDTHS,
        help="comma-separated noise widths (default %(default)s)",
    )
    fig1.add_argument(
        "--grid", type=int, default=720, help="phase grid points (default 720)"
    )
    _add_output_flags(fig1)
    fig1.set_defaults(func=cmd_fig1)

    fig2 = commands.add_parser(
        "fig2", help="optimized Bell value and loss threshold vs noise width"
    )
    fig2.add_argument(
        "--n-list",
        dest="parties",
        metavar="N_LIST",
        default=FIG2_DEFAULT_PARTIES,
        help="comma-separated party counts (default %(default)s)",
    )
    fig2.add_argument("--delta-max", type=float, default=1.5)
    fig2.add_argument("--delta-step", type=float, default=0.05)
    fig2.add_argument("--restarts", type=int, default=6)
    fig2.add_argument("--eta-tolerance", type=float, default=1e-4)
    fig2.add_argument(
        "--joint-phases",
        action="store_true",
        help="optimize offset centers jointly instead of pinning them to 0",
    )
    _add_output_flags(fig2)
    fig2.set_defaults(func=cmd_fig2)

    fig3 = commands.add_parser(
        "fig3", help="Bell-value histograms over uniformly random frames"
    )
    fig3.add_argument("--m-list", default=FIG3_DEFAULT_PAIRS)
    fig3.add_argument("--parties", type=int, default=2)
    fig3.add_argument("--delta", type=float, default=0.4)
    fig3.add_argument("--eta", type=float, default=0.9)
    fig3.add_argument("--samples", type=int, default=10_000)
    fig3.add_argument("--bins", type=int, default=60)
    fig3.add_argument("--restarts", type=int, default=6)
    fig3.add_argument("--seed", type=int, required=True)
    fig3.add_argument("--out", required=True, help="output stem; _m{m} is appended")
    fig3.set_defaults(func=cmd_fig3)

    smax = commands.add_parser("smax", help="single optimizer run")
    smax.add_argument("--parties", type=int, required=True)
    smax.add_argument("--delta", type=float, default=0.0)
    smax.add_argument("--eta", type=float, default=1.0)
    smax.add_argument("--pin-phases", action="store_true")
    smax.add_argument(
        "--unreduced",
        action="store_true",
        help="per-party amplitude pairs (spot check, at most 3 parties)",
    )
    smax.add_argument("--restarts", type=int, default=8)
    smax.add_argument("--tolerance", type=float, default=1e-6)
    smax.add_argument("--out", default=None, help="optional JSON report path")
    smax.set_defaults(func=cmd_smax)

    eta = commands.add_parser("eta", help="threshold transmission search")
    eta.add_argument("--parties", type=int, required=True)
    eta.add_argument("--delta", type=float, default=0.0)
    eta.add_argument("--tolerance", type=float, default=1e-4)
    eta.add_argument("--restarts", type=int, default=6)
    eta.add_argument("--out", default=None, help="optional JSON report path")
    eta.set_defaults(func=cmd_eta)

    dist = commands.add_parser(
        "violation-dist", help="best-pair Bell-value histogram for one pair count"
    )
    dist.add_argument("--parties", type=int, default=2)
    dist.add_argument("--r0", type=float, default=None)
    dist.add_argument("--r1", type=float, default=None)
    dist.add_argument("--pairs", type=int, default=1)
    dist.add_argument("--delta", type=float, default=0.0)
    dist.add_argument("--eta", type=float, default=1.0)
    dist.add_argument("--samples", type=int, default=10_000)
    dist.add_argument("--bins", type=int, default=60)
    dist.add_argument("--restarts", type=int, default=6)
    dist.add_argument("--seed", type=int, required=True)
    dist.add_argument("--out", default=None, help="optional histogram JSON path")
    dist.set_defaults(func=cmd_violation_dist)

    footnote = commands.add_parser(
        "chsh-footnote", help="CHSH reach of the benchmark two-qubit state"
    )
    footnote.set_defaults(func=cmd_chsh_footnote)

    correlators = commands.add_parser(
        "correlators", help="frame-averaged correlation table"
    )
    correlators.add_argument("--parties", type=int, required=True)
    correlators.add_argument("--r0", type=float, required=True)
    correlators.add_argument("--r1", type=float, required=True)
    correlators.add_argument(
        "--centers", default=None, help="comma-separated offset centers (default 0)"
    )
    correlators.add_argument("--delta", type=float, default=0.0)
    correlators.add_argument("--eta", type=float, default=1.0)
    correlators.add_argument("--out", default=None)
    correlators.add_argument("--format", choices=("csv", "json"), default="csv")
    correlators.set_defaults(func=cmd_correlators)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
