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
derived values, timestamp) to stderr as one JSON line.  Output files embed
the same manifest without the timestamp, so a rerun with identical
parameters produces byte-identical files.  Numbers in data files carry 12
significant digits.

Exit codes: 0 on success, 1 on I/O failure, 2 on invalid arguments, 3 on
a numerical consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .experiments import (
    best_pair_values_over_centers,
    pair_symbolic_tables,
    paired_strategy,
    violation_distribution,
)
from .fock_core import TWO_PI, ConsistencyError, w_state
from .optimize import (
    OptimizationSpec,
    averaged_correlator_table,
    maximize_bell,
    threshold_efficiency,
)
from .phase_noise import child_seed
from .wwzb import CorrelatorTable, chsh_horodecki, wwzb_value

__all__ = ["RunManifest", "build_parser", "main"]

FIG1_DEFAULT_WIDTHS = "0,0.2,0.4,0.7,1.0"
FIG2_DEFAULT_PARTIES = "2,4,9"
FIG3_DEFAULT_PAIRS = "1,3,5"


@dataclass(frozen=True)
class RunManifest:
    """Provenance record attached to every command run.

    The embedded form (inside output files) omits the timestamp so that
    identical reruns are byte-identical; the logged form (stderr) keeps it.
    """

    command: str
    parameters: dict
    seed: Optional[int]
    version: str
    derived: dict
    timestamp: str

    def embed_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
            "derived": self.derived,
        }

    def log_dict(self) -> dict:
        out = self.embed_dict()
        out["timestamp"] = self.timestamp
        return out


def _new_manifest(command, parameters, seed=None, derived=None) -> RunManifest:
    return RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        version=__version__,
        derived=derived or {},
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _log_manifest(manifest: RunManifest) -> None:
    print(json.dumps(manifest.log_dict(), sort_keys=True), file=sys.stderr)


def _fmt(value) -> str:
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


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_rows(path, fmt, header, rows, manifest) -> None:
    if fmt == "csv":
        lines = ["# manifest: " + json.dumps(manifest.embed_dict(), sort_keys=True)]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "manifest": manifest.embed_dict(),
            "columns": list(header),
            "rows": [[_round12(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_text(path, text)


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
    if any(v != int(v) for v in values):
        raise ValueError(f"{name} must hold integers")
    return [int(v) for v in values]


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


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
    grid = _phase_grid(args.grid)
    strategy = paired_strategy(2, 0.0, args.r, 1)
    tables = pair_symbolic_tables(w_state(2), strategy)
    rows = []
    for width in widths:
        values = best_pair_values_over_centers(tables, grid[:, None], width)
        rows.extend((width, phi, s) for phi, s in zip(grid, values))
    manifest = _new_manifest(
        "fig1",
        {"r": args.r, "deltas": widths, "grid": args.grid, "format": args.format},
    )
    _write_rows(args.out, args.format, ("delta", "phi_bar", "S"), rows, manifest)
    _log_manifest(manifest)
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
    parties = _parse_ints(args.n_list, "parties")
    if any(n < 1 for n in parties):
        raise ValueError("party counts must be >= 1")
    if args.delta_step <= 0 or args.delta_max < 0:
        raise ValueError("need delta_step > 0 and delta_max >= 0")
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
    manifest = _new_manifest(
        "fig2",
        {
            "parties": parties,
            "delta_max": args.delta_max,
            "delta_step": args.delta_step,
            "restarts": args.restarts,
            "eta_tolerance": args.eta_tolerance,
            "joint_phases": args.joint_phases,
            "format": args.format,
        },
    )
    _write_rows(
        args.out, args.format, ("N", "delta", "s_max", "eta_threshold"), rows, manifest
    )
    _log_manifest(manifest)
    return 0


def _stem_with_suffix(path: str, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + suffix + p.suffix))


def cmd_fig3(args) -> int:
    """Best-pair Bell-value histograms over uniformly random frames.

    Amplitudes are the optimizer's signed pair for centered frames at the
    given width and efficiency (recorded in the manifest, never
    hard-coded).  One histogram JSON is written per pair count, suffixed
    ``_m{m}``, each sampled from an independent child stream of the seed;
    the violating fraction per pair count is printed to stdout.
    """
    pair_counts = _parse_ints(args.m_list, "pair counts")
    if any(m < 1 for m in pair_counts):
        raise ValueError("pair counts must be >= 1")
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    seed = _check_seed(args.seed)
    report = maximize_bell(
        OptimizationSpec(
            n_parties=args.parties,
            width=args.delta,
            efficiency=args.eta,
            optimize_phases=False,
            restarts=args.restarts,
        )
    )
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
        manifest = _new_manifest(
            "fig3",
            {
                "parties": args.parties,
                "delta": args.delta,
                "eta": args.eta,
                "pair_count": m,
                "samples": args.samples,
                "bins": args.bins,
                "stream_seed": stream,
            },
            seed=seed,
            derived=derived,
        )
        payload = {
            "manifest": manifest.embed_dict(),
            "histogram": histogram.to_json_dict(),
        }
        out = _stem_with_suffix(args.out, f"_m{m}")
        _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _log_manifest(manifest)
        print(f"m={m} fraction_violating={_fmt(histogram.fraction_violating)}")
    return 0


def cmd_smax(args) -> int:
    """One optimizer run; prints the maximum and the signed amplitudes."""
    report = maximize_bell(
        OptimizationSpec(
            n_parties=args.parties,
            width=args.delta,
            efficiency=args.eta,
            optimize_phases=not args.pin_phases,
            shared_amplitudes=not args.unreduced,
            restarts=args.restarts,
            tolerance=args.tolerance,
        )
    )
    manifest = _new_manifest(
        "smax",
        {
            "parties": args.parties,
            "delta": args.delta,
            "eta": args.eta,
            "pin_phases": args.pin_phases,
            "unreduced": args.unreduced,
            "restarts": args.restarts,
            "tolerance": args.tolerance,
        },
        derived={"best_s": _round12(report.best_s)},
    )
    centers = ",".join(_fmt(c) for c in report.phase_centers)
    print(
        f"s_max={_fmt(report.best_s)} r={_fmt(report.r)} "
        f"r_prime={_fmt(report.r_prime)} centers=[{centers}] "
        f"converged={_fmt(report.converged)}"
    )
    if args.out:
        payload = {"manifest": manifest.embed_dict(), "report": report.to_json_dict()}
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _log_manifest(manifest)
    return 0


def cmd_eta(args) -> int:
    """Threshold transmission above which the Bell inequality is violated."""
    result = threshold_efficiency(
        args.parties,
        args.delta,
        tolerance=args.tolerance,
        restarts=args.restarts,
    )
    manifest = _new_manifest(
        "eta",
        {
            "parties": args.parties,
            "delta": args.delta,
            "tolerance": args.tolerance,
            "restarts": args.restarts,
        },
        derived={
            "eta_threshold": _round12(result.efficiency),
            "violable": result.violable,
        },
    )
    if result.violable:
        print(f"eta_threshold={_fmt(result.efficiency)}")
    else:
        print("no violation at unit efficiency")
    if args.out:
        payload = {
            "manifest": manifest.embed_dict(),
            "eta_threshold": _round12(result.efficiency),
            "violable": result.violable,
        }
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _log_manifest(manifest)
    return 0


def cmd_violation_dist(args) -> int:
    """Histogram of best-pair Bell values for one pair count.

    Give both --r0 and --r1 (signed amplitudes) to pin the strategy, or
    neither to use the optimizer's centered-frame pair.
    """
    seed = _check_seed(args.seed)
    given = (args.r0 is not None) + (args.r1 is not None)
    if given == 1:
        raise ValueError("give both --r0 and --r1, or neither")
    if given == 2:
        r0, r1 = args.r0, args.r1
        derived = {}
    else:
        report = maximize_bell(
            OptimizationSpec(
                n_parties=args.parties,
                width=args.delta,
                efficiency=args.eta,
                optimize_phases=False,
                restarts=args.restarts,
            )
        )
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
    manifest = _new_manifest(
        "violation-dist",
        {
            "parties": args.parties,
            "r0": r0,
            "r1": r1,
            "delta": args.delta,
            "eta": args.eta,
            "pairs": args.pairs,
            "samples": args.samples,
            "bins": args.bins,
        },
        seed=seed,
        derived=derived,
    )
    print(f"fraction_violating={_fmt(histogram.fraction_violating)}")
    if args.out:
        payload = {
            "manifest": manifest.embed_dict(),
            "histogram": histogram.to_json_dict(),
        }
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _log_manifest(manifest)
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
    manifest = _new_manifest(
        "chsh-footnote", {}, derived={"chsh": _round12(value), "verdict": verdict}
    )
    _log_manifest(manifest)
    return 0


def cmd_correlators(args) -> int:
    """Frame-averaged correlation table of the single-phase strategy.

    Row index bit k-1 selects party k's setting (party 1 in the least
    significant bit); the ``settings`` column spells the bits party 1
    first.  The final comment row carries the Bell value of the table.
    """
    centers = (
        _parse_floats(args.centers, "centers")
        if args.centers
        else [0.0] * (args.parties - 1)
    )
    table = averaged_correlator_table(
        args.parties, args.r0, args.r1, centers, args.delta, args.eta
    )
    result = wwzb_value(CorrelatorTable(args.parties, table))
    rows = [
        (index, format(index, f"0{args.parties}b")[::-1], value)
        for index, value in enumerate(table)
    ]
    manifest = _new_manifest(
        "correlators",
        {
            "parties": args.parties,
            "r0": args.r0,
            "r1": args.r1,
            "centers": centers,
            "delta": args.delta,
            "eta": args.eta,
            "format": args.format,
        },
        derived={"s": _round12(result.s_value)},
    )
    if args.out:
        _write_rows(args.out, args.format, ("index", "settings", "xi"), rows, manifest)
    else:
        print("index,settings,xi")
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    print(f"# S = {_fmt(result.s_value)}")
    _log_manifest(manifest)
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
