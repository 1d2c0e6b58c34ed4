"""The three benchmark workloads: seeded inputs, timed cases and output checks.

Every workload is a list of cases run in order; one pass runs each case
once.  A run cycles through ``VARIANTS`` seeded input sets (pass p uses
variant p mod VARIANTS), so the seed changes widths, efficiencies, frame
centers and amplitudes while the amount of work per pass stays fixed.

Each case returns its raw output.  ``summary`` reduces it to the numbers
the case produced (Bell values, thresholds, widths), which are recorded
next to the timings.  The first time a variant's case runs, ``check``
verifies the output through an independent route; every later repeat must
reproduce the first summary exactly.

Why each workload exists:

* ``search``: optimizer searches.  ``fock_core.correlator`` and the
  ``optimize`` search loops do most of the work; joint phases send tables
  through the general 2^N-correlator route instead of the symmetric one.
* ``frames``: frame scans.  ``phase_noise`` and ``experiments`` do the
  work and the correlator does none.  The same quantity is computed per
  sample (``violation_distribution``) and batched
  (``best_pair_values_over_centers``), so rerouting one cannot hide a cost
  to the other.  Two CLI commands run through ``cli.main``.
* ``many-parties``: symmetric-route tables for N = 12..22 plus one
  distinct-centers table at N = 10.  ``wwzb`` and table materialisation
  dominate; the working set grows from in-cache to about the size of the
  last-level cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import photonbell as pb
import photonbell.cli

VARIANTS = 4
TWO_PI = 2.0 * np.pi
BELL_TOL = 1e-9


class CheckFailed(Exception):
    """A case's output disagrees with its independent check."""


@dataclass
class Case:
    name: str
    params: dict
    run: Callable[[], object]
    # Input-defined output of the case: searches answered, frame centers
    # evaluated or table entries, depending on the workload.
    items: int
    # Per-key absolute tolerance used against the recorded reference
    # values; keys absent here are recorded but not compared.
    reference_tol: dict = field(default_factory=dict)


def _rng(seed: int, variant: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, variant, stream])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- search

SEARCH_SIZES = {
    "full": {"big_n": 9, "restarts": 1, "eta_tol": 2e-2, "width_tol": 0.05},
    "tiny": {"big_n": 4, "restarts": 1, "eta_tol": 1e-1, "width_tol": 0.2},
}


def search_cases(seed: int, variant: int, size: str, workdir: Path) -> list:
    sz = SEARCH_SIZES[size]
    rng = _rng(seed, variant, 0)
    cases = []
    for n, joint, restarts in (
        (2, False, 2),
        (sz["big_n"], False, sz["restarts"]),
        (3, True, sz["restarts"]),
    ):
        params = {
            "n": n,
            "width": float(rng.uniform(0.1, 0.3)),
            "efficiency": float(rng.uniform(0.92, 1.0)),
            "joint_phases": joint,
            "restarts": restarts,
        }
        spec = pb.optimize.OptimizationSpec(
            n_parties=n,
            width=params["width"],
            efficiency=params["efficiency"],
            optimize_phases=joint,
            restarts=restarts,
        )
        kind = "joint" if joint else "pinned"
        cases.append(
            Case(
                f"maximize_bell.n{n}_{kind}",
                params,
                lambda spec=spec: pb.optimize.maximize_bell(spec),
                items=1,
                reference_tol={"best_s": 1e-6},
            )
        )
    width = float(rng.uniform(0.1, 0.3))
    for n in (2, 4):
        params = {"n": n, "width": width, "tolerance": sz["eta_tol"], "restarts": 1}
        cases.append(
            Case(
                f"threshold_efficiency.n{n}",
                params,
                lambda p=params: pb.optimize.threshold_efficiency(
                    p["n"], p["width"], tolerance=p["tolerance"], restarts=p["restarts"]
                ),
                items=1,
                reference_tol={"efficiency": sz["eta_tol"], "violable": 0},
            )
        )
    params = {
        "n": 2,
        "efficiency": 0.9,
        "pairs": 8,
        "grid_density": 360,
        "width_tolerance": sz["width_tol"],
        "restarts": 1,
    }
    cases.append(
        Case(
            "certainty_frontier.n2_m8",
            params,
            lambda p=params: pb.optimize.certainty_frontier(
                p["n"],
                p["efficiency"],
                [p["pairs"]],
                grid_density=p["grid_density"],
                width_tolerance=p["width_tolerance"],
                restarts=p["restarts"],
            ),
            items=1,
            reference_tol={"width": sz["width_tol"]},
        )
    )
    return cases


def search_summary(case: Case, out) -> dict:
    if case.name.startswith("maximize_bell"):
        return {
            "best_s": out.best_s,
            "r": out.r,
            "r_prime": out.r_prime,
            "phase_centers": list(out.phase_centers),
            "converged": bool(out.converged),
        }
    if case.name.startswith("threshold_efficiency"):
        return {"efficiency": out.efficiency, "violable": bool(out.violable)}
    ((pairs, width),) = out
    return {"pairs": int(pairs), "width": float(width)}


def search_check(case: Case, out, summary: dict, earlier: dict) -> None:
    p = case.params
    if case.name.startswith("maximize_bell"):
        symbolic = pb.experiments.bell_value_averaged(
            pb.fock_core.lossy_w_state(p["n"], p["efficiency"]),
            pb.experiments.two_setting_strategy(p["n"], out.r, out.r_prime),
            pb.phase_noise.PhaseModel(tuple(out.phase_centers), p["width"]),
        ).s_value
        _require(
            abs(symbolic - out.best_s) <= BELL_TOL,
            f"best_s {out.best_s!r} but symbolic route gives {symbolic!r}",
        )
        if p["n"] == 2:
            _require(out.best_s <= math.sqrt(2.0) + BELL_TOL, "S above sqrt(2) at N=2")
    elif case.name == "threshold_efficiency.n4":
        eta2 = earlier["threshold_efficiency.n2"]
        _require(eta2["violable"] and summary["violable"], "threshold not violable")
        _require(
            summary["efficiency"] < eta2["efficiency"] < 1.0,
            f"thresholds out of order: eta(4)={summary['efficiency']!r}, "
            f"eta(2)={eta2['efficiency']!r}",
        )
    elif case.name.startswith("certainty_frontier"):
        width = summary["width"]
        _require(math.isfinite(width) and 0.0 <= width <= 2.0, f"frontier width {width!r}")


# ---------------------------------------------------------------- frames

FRAMES_SIZES = {
    "full": {"samples": (400, 200, 400), "batched": 100_000, "grid": 720, "cli_samples": 200},
    "tiny": {"samples": (20, 10, 20), "batched": 500, "grid": 36, "cli_samples": 10},
}


def _quiet_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return pb.cli.main(argv)


def _cli_case(argv: list, out_path: Path):
    def run():
        code = _quiet_cli(argv)
        return code, out_path.read_bytes()

    return run


def frames_cases(seed: int, variant: int, size: str, workdir: Path) -> list:
    sz = FRAMES_SIZES[size]
    rng = _rng(seed, variant, 1)
    r0 = float(rng.uniform(0.45, 0.65))
    r1 = -float(rng.uniform(0.1, 0.25))
    cases = []
    for (n, m), samples in zip(((2, 5), (3, 5), (2, 1)), sz["samples"]):
        params = {
            "n": n,
            "pairs": m,
            "amplitudes": [r0, r1],
            "width": float(rng.uniform(0.2, 0.5)),
            "efficiency": float(rng.uniform(0.85, 1.0)),
            "samples": samples,
            "seed": int(rng.integers(0, 2**63)),
        }
        cases.append(
            Case(
                f"violation_distribution.n{n}_m{m}",
                params,
                lambda p=params: pb.experiments.violation_distribution(
                    p["n"],
                    tuple(p["amplitudes"]),
                    p["width"],
                    p["efficiency"],
                    p["pairs"],
                    p["samples"],
                    seed=p["seed"],
                ),
                items=samples,
                reference_tol={"min_s": BELL_TOL, "max_s": BELL_TOL, "fraction_violating": 1.0 / samples},
            )
        )

    params = {
        "n": 3,
        "pairs": 5,
        "amplitudes": [r0, r1],
        "width": float(rng.uniform(0.2, 0.5)),
        "efficiency": float(rng.uniform(0.85, 1.0)),
        "centers": sz["batched"],
        "center_seed": int(rng.integers(0, 2**63)),
    }
    centers = np.random.default_rng(params["center_seed"]).uniform(
        0.0, TWO_PI, size=(params["centers"], params["n"] - 1)
    )
    cases.append(
        Case(
            "best_pair_values_over_centers.n3_m5",
            params,
            lambda p=params, c=centers: _batched_pair_values(p, c),
            items=params["centers"],
            reference_tol={"min_s": BELL_TOL, "max_s": BELL_TOL, "mean_s": BELL_TOL},
        )
    )

    widths = sorted(float(w) for w in rng.uniform(0.0, 1.0, 4))
    fig1_path = workdir / f"fig1-{variant}.csv"
    params = {"r": float(rng.uniform(0.05, 0.2)), "deltas": [0.0] + widths, "grid": sz["grid"]}
    argv = [
        "fig1",
        "--r", repr(params["r"]),
        "--deltas", ",".join(repr(w) for w in params["deltas"]),
        "--grid", str(params["grid"]),
        "--out", str(fig1_path),
    ]
    cases.append(
        Case(
            "cli.fig1",
            dict(params, argv=argv),
            _cli_case(argv, fig1_path),
            items=params["grid"] * len(params["deltas"]),
            reference_tol={"rows": 0, "s_min": BELL_TOL, "s_max": BELL_TOL, "s_mean": BELL_TOL},
        )
    )

    dist_path = workdir / f"violation-dist-{variant}.json"
    params = {
        "n": 2,
        "pairs": 3,
        "amplitudes": [r0, r1],
        "width": float(rng.uniform(0.2, 0.5)),
        "efficiency": float(rng.uniform(0.85, 1.0)),
        "samples": sz["cli_samples"],
        "seed": int(rng.integers(0, 2**63)),
    }
    argv = [
        "violation-dist",
        "--parties", str(params["n"]),
        "--r0", repr(r0),
        "--r1", repr(r1),
        "--pairs", str(params["pairs"]),
        "--delta", repr(params["width"]),
        "--eta", repr(params["efficiency"]),
        "--samples", str(params["samples"]),
        "--seed", str(params["seed"]),
        "--out", str(dist_path),
    ]
    cases.append(
        Case(
            "cli.violation_dist",
            dict(params, argv=argv),
            _cli_case(argv, dist_path),
            items=params["samples"],
            reference_tol={
                "min_s": BELL_TOL,
                "max_s": BELL_TOL,
                "fraction_violating": 1.0 / params["samples"],
            },
        )
    )
    return cases


def _fig1_values(data: bytes) -> np.ndarray:
    lines = data.decode("utf-8").splitlines()
    return np.array([float(line.rsplit(",", 1)[1]) for line in lines[2:]])


def frames_summary(case: Case, out) -> dict:
    if case.name.startswith("violation_distribution"):
        return {
            "min_s": out.min_s,
            "max_s": out.max_s,
            "fraction_violating": out.fraction_violating,
            "counts_sha256": hashlib.sha256(np.asarray(out.counts).tobytes()).hexdigest(),
        }
    if case.name.startswith("best_pair"):
        return {
            "min_s": float(out.min()),
            "max_s": float(out.max()),
            "mean_s": float(out.mean()),
            "fraction_violating": float(np.count_nonzero(out > 1.0) / out.size),
        }
    code, data = out
    summary = {"exit_code": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    if case.name == "cli.fig1":
        values = _fig1_values(data)
        summary.update(
            rows=int(values.size),
            s_min=float(values.min()),
            s_max=float(values.max()),
            s_mean=float(values.mean()),
        )
    else:
        hist = json.loads(data)["histogram"]
        summary.update(
            min_s=hist["min_s"],
            max_s=hist["max_s"],
            fraction_violating=hist["fraction_violating"],
        )
    return summary


def _batched_pair_values(p: dict, centers: np.ndarray) -> np.ndarray:
    r0, r1 = p["amplitudes"]
    strategy = pb.experiments.paired_strategy(p["n"], r0, r1, p["pairs"])
    tables = pb.experiments.pair_symbolic_tables(
        pb.fock_core.lossy_w_state(p["n"], p["efficiency"]), strategy
    )
    return pb.experiments.best_pair_values_over_centers(tables, centers, p["width"])


def _check_histogram_stats(p: dict, min_s, max_s, fraction) -> None:
    """Histogram statistics must match the batched route on the same centers.

    ``violation_distribution`` draws its centers from ``seed`` alone, in
    sample order, uniformly on [0, 2*pi).
    """
    centers = np.random.default_rng(p["seed"]).uniform(
        0.0, TWO_PI, size=(p["samples"], p["n"] - 1)
    )
    values = _batched_pair_values(p, centers)
    _require(abs(values.min() - min_s) <= BELL_TOL, f"min_s {min_s!r} vs {values.min()!r}")
    _require(abs(values.max() - max_s) <= BELL_TOL, f"max_s {max_s!r} vs {values.max()!r}")
    low = np.count_nonzero(values > 1.0 + BELL_TOL) / p["samples"]
    high = np.count_nonzero(values > 1.0 - BELL_TOL) / p["samples"]
    _require(low <= fraction <= high, f"fraction_violating {fraction!r} vs [{low}, {high}]")


def frames_check(case: Case, out, summary: dict, earlier: dict) -> None:
    p = case.params
    if case.name.startswith("violation_distribution"):
        _require(int(np.sum(out.counts)) == p["samples"], "histogram counts do not sum to samples")
        _check_histogram_stats(p, out.min_s, out.max_s, out.fraction_violating)
    elif case.name.startswith("best_pair"):
        # Spot-check the batch against the per-center symbolic average.
        r0, r1 = p["amplitudes"]
        state = pb.fock_core.lossy_w_state(p["n"], p["efficiency"])
        strategy = pb.experiments.paired_strategy(p["n"], r0, r1, p["pairs"])
        centers = np.random.default_rng(p["center_seed"]).uniform(
            0.0, TWO_PI, size=(p["centers"], p["n"] - 1)
        )
        for i in np.linspace(0, p["centers"] - 1, 8).astype(int):
            model = pb.phase_noise.PhaseModel(tuple(centers[i]), p["width"])
            slow = pb.experiments.best_pair_bell_value(state, strategy, model=model)[0].s_value
            _require(abs(slow - out[i]) <= BELL_TOL, f"center {i}: {out[i]!r} vs {slow!r}")
    else:
        _require(summary["exit_code"] == 0, f"exit code {summary['exit_code']}")
        code, again = _cli_case(p["argv"], Path(p["argv"][-1]))()
        _require(code == 0 and again == out[1], "CLI output bytes differ between repeats")
        if case.name == "cli.fig1":
            _require(summary["rows"] == p["grid"] * len(p["deltas"]), "fig1 row count")
            strategy = pb.experiments.paired_strategy(2, 0.0, p["r"], 1)
            tables = pb.experiments.pair_symbolic_tables(pb.fock_core.w_state(2), strategy)
            grid = np.arange(p["grid"]) * TWO_PI / p["grid"]
            expect = np.concatenate(
                [pb.experiments.best_pair_values_over_centers(tables, grid[:, None], w) for w in p["deltas"]]
            )
            # The file carries 12 significant digits.
            _require(
                np.max(np.abs(_fig1_values(out[1]) - expect)) <= 1e-10,
                "fig1 S column disagrees with the batched route",
            )
        else:
            _check_histogram_stats(
                p, summary["min_s"], summary["max_s"], summary["fraction_violating"]
            )


# ---------------------------------------------------------------- many-parties

# Largest table the O(4^N) oracle wwzb_value_naive accepts.
NAIVE_MAX_PARTIES = 10

MANY_SIZES = {
    "full": {"symmetric": (12, 14, 16, 18, 20, 22), "distinct": 10},
    "tiny": {"symmetric": (11, 12), "distinct": 4},
}


def _bell_of_table(p: dict):
    table = pb.optimize.averaged_correlator_table(
        p["n"], p["r0"], p["r1"], p["centers"], p["width"], p["efficiency"]
    )
    correlators = pb.wwzb.CorrelatorTable(p["n"], table)
    return correlators, pb.wwzb.wwzb_value(correlators)


def many_parties_cases(seed: int, variant: int, size: str, workdir: Path) -> list:
    sz = MANY_SIZES[size]
    rng = _rng(seed, variant, 2)
    cases = []
    for n in sz["symmetric"] + (sz["distinct"],):
        symmetric = n != sz["distinct"]
        params = {
            "n": n,
            "r0": float(rng.uniform(0.05, 0.4)),
            "r1": -float(rng.uniform(0.3, 0.8)),
            "width": float(rng.uniform(0.0, 0.4)),
            "efficiency": float(rng.uniform(0.85, 1.0)),
        }
        if symmetric:
            params["centers"] = [float(rng.uniform(0.0, TWO_PI))] * (n - 1)
        else:
            params["centers"] = [float(c) for c in rng.uniform(0.0, TWO_PI, n - 1)]
        cases.append(
            Case(
                f"{'symmetric' if symmetric else 'distinct'}.n{n}",
                params,
                lambda p=params: _bell_of_table(p),
                items=2**n,
                reference_tol={"s_value": BELL_TOL},
            )
        )
    return cases


def many_parties_summary(case: Case, out) -> dict:
    _, result = out
    return {"s_value": result.s_value, "dominant_r": int(result.dominant_r)}


def _popcount(values: np.ndarray) -> np.ndarray:
    counts = np.zeros(values.shape, dtype=np.int64)
    while np.any(values):
        counts += values & 1
        values = values >> 1
    return counts


def krawtchouk_bell_value(values: np.ndarray, n: int) -> float:
    """Bell value of a table that depends only on (s_1, weight of s_2..s_N).

    The Walsh-Hadamard transform of such a table depends only on r_1 and
    w = weight(r_2..r_N) and equals sum over (s_1, k) of
    (-1)^(r_1 s_1) K_k(w) xi(s_1, k), with K_k the binary Krawtchouk
    polynomial of length N-1; each (r_1, w) class holds C(N-1, w) indices.
    """
    rest = n - 1
    xi = [[values[s1 | (((1 << k) - 1) << 1)] for k in range(rest + 1)] for s1 in range(2)]
    total = []
    for w in range(rest + 1):
        kraw = [
            sum((-1) ** j * math.comb(w, j) * math.comb(rest - w, k - j) for j in range(k + 1))
            for k in range(rest + 1)
        ]
        for r1 in range(2):
            t = math.fsum(
                (-1) ** (r1 * s1) * kraw[k] * float(xi[s1][k])
                for s1 in range(2)
                for k in range(rest + 1)
            )
            total.append(math.comb(rest, w) * abs(t))
    return math.fsum(total) / 2**n


def many_parties_check(case: Case, out, summary: dict, earlier: dict) -> None:
    correlators, result = out
    n = case.params["n"]
    if n <= NAIVE_MAX_PARTIES:
        naive = pb.wwzb.wwzb_value_naive(correlators).s_value
        _require(abs(naive - result.s_value) <= BELL_TOL, f"S {result.s_value!r} vs naive {naive!r}")
        return
    values = correlators.values
    index = np.arange(values.size)
    classes = (index & 1) | (((1 << _popcount(index >> 1)) - 1) << 1)
    _require(np.array_equal(values, values[classes]), "symmetric table is not weight-symmetric")
    oracle = krawtchouk_bell_value(values, n)
    _require(
        abs(oracle - result.s_value) <= BELL_TOL,
        f"S {result.s_value!r} vs Krawtchouk {oracle!r}",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable
    summary: Callable
    check: Callable
    item_name: str


WORKLOADS = {
    "search": Workload("search", search_cases, search_summary, search_check, "searches"),
    "frames": Workload("frames", frames_cases, frames_summary, frames_check, "frame centers"),
    "many-parties": Workload(
        "many-parties", many_parties_cases, many_parties_summary, many_parties_check, "table entries"
    ),
}
