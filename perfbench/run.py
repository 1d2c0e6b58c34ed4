"""Benchmark of the photonbell pipeline: one workload, one run.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The load is a closed loop:
one caller in one process, with BLAS/OpenMP pools capped at one thread.
A pass runs every case of the workload once (see ``workloads.py``); passes
repeat until ``--seconds`` have elapsed.

``--trace 0`` prints the end-to-end metrics: the median pass time
(``wall_s``), the median over passes of input-defined output per second
(``items_per_s``), the median of three fresh-interpreter set-ups (import
of photonbell plus input generation, ``setup_s``) and the peak resident
set (``peak_rss_mb``).
``--trace 1`` spends half the time on untraced passes, then traces one
pass per input variant and prints the per-layer metrics of those passes,
with ``trace_overhead_frac`` against the untraced passes.  Every printed
value is a number: a ratio whose base is zero on the workload, or a metric
of a name the package no longer defines, prints 0, and the record line
names it as ``undefined`` or ``absent``.

Times are in calibrated seconds.  On a shared 2-core host the speed of a
core drifts by about 25% over tens of seconds, with steal time near zero,
so it is the core that slows, not the scheduling.  A fixed pure-Python
loop is timed just before and just after every case; each case's wall time
is scaled by ``CALIBRATION_NOMINAL_S`` over the mean of the two, which
cancels the drift (on a 2-core 2.0 GHz Xeon guest, run-to-run spread of
``wall_s`` dropped from 20-26% to about 4%).  Raw wall times are kept in
the record.  Per-layer ``self_s`` values are raw seconds.

The last stdout line is the result object; the line before it is a
record of the machine, versions, inputs, tail latency, failures and every
Bell value and threshold the run produced.  Spans of a traced run are
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
# A tail percentile is reported only with this many passes beyond it.
TAIL_BEYOND = 10
# Duration of calibration_s() on an idle core of a 2.0 GHz Xeon host.
CALIBRATION_NOMINAL_S = 2.0e-3


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package sources)."""


def prepare() -> None:
    """Cap thread pools and import photonbell from this checkout's ``src``."""
    os.environ.update(THREAD_CAPS)
    src = ROOT / "src"
    if not (src / "photonbell" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import photonbell

    if src.resolve() not in Path(photonbell.__file__).resolve().parents:
        raise SetupError(f"photonbell imported from {photonbell.__file__}, not {src}")


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: the current speed of this core."""
    start = perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return perf_counter() - start


def calibrated(seconds: float, before: float) -> float:
    """``seconds`` just measured, rescaled to the nominal core speed.

    ``before`` is a calibration taken just before the measurement; the
    mean of it and one taken now sets the scale.
    """
    return seconds * CALIBRATION_NOMINAL_S * 2.0 / (before + calibration_s())


def build_variants(workload, seed: int, size: str, workdir: Path) -> list:
    from workloads import VARIANTS

    return [workload.cases(seed, v, size, workdir) for v in range(VARIANTS)]


class Run:
    """Pass loop state: timings, first summaries, failures.

    ``walls`` holds calibrated pass times, ``raw_walls`` the wall clock and
    ``rates`` each pass's items per calibrated second.
    """

    def __init__(self, workload, variants):
        self.workload = workload
        self.variants = variants
        self.walls: list = []
        self.raw_walls: list = []
        self.rates: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.summaries: dict = {}

    def fail(self, variant: int, case, message: str) -> None:
        """Count one failed case execution."""
        self.failed += 1
        self.failures.append(f"variant {variant} {case.name}: {message}")

    def run_pass(self, index: int) -> float:
        from workloads import CheckFailed

        variant = index % len(self.variants)
        earlier: dict = {}
        wall = raw = 0.0
        items = 0
        for case in self.variants[variant]:
            self.attempted += 1
            before = calibration_s()
            start = perf_counter()
            try:
                out = case.run()
            except Exception as exc:  # a raising case is a counted failure
                self.fail(variant, case, f"raised {exc!r}")
                continue
            finally:
                elapsed = perf_counter() - start
                raw += elapsed
                wall += calibrated(elapsed, before)
            items += case.items
            key = (variant, case.name)
            try:
                summary = self.workload.summary(case, out)
                if key not in self.summaries:
                    self.workload.check(case, out, summary, earlier)
                    self.summaries[key] = summary
                elif summary != self.summaries[key]:
                    raise CheckFailed(f"repeat gave {summary}, first run {self.summaries[key]}")
                earlier[case.name] = summary
            except CheckFailed as exc:
                self.fail(variant, case, str(exc))
            except Exception as exc:  # a check that cannot run is a failure too
                self.fail(variant, case, f"check raised {exc!r}")
            del out
        self.walls.append(wall)
        self.raw_walls.append(raw)
        self.rates.append(items / wall)
        return wall

    def run_for(self, seconds: float, min_passes: int) -> None:
        start = perf_counter()
        index = 0
        while index < min_passes or perf_counter() - start < seconds:
            self.run_pass(index)
            index += 1

    def compare_reference(self, reference: dict) -> None:
        """Default-seed outputs against values recorded at an earlier commit."""
        for variant, cases in enumerate(self.variants):
            recorded = reference.get(str(variant), {})
            for case in cases:
                got = self.summaries.get((variant, case.name))
                want = recorded.get(case.name)
                if got is None:
                    continue  # the case already failed
                if want is None:
                    self.fail(variant, case, "no reference value recorded")
                    continue
                wrong = [
                    f"{key}={got[key]!r}, reference {want[key]!r}"
                    for key, tol in case.reference_tol.items()
                    if not abs(got[key] - want[key]) <= tol
                ]
                if wrong:
                    self.fail(variant, case, "; ".join(wrong))


def setup_seconds(workload: str, seed: int, size: str) -> list:
    """Calibrated and raw set-up times of fresh interpreters.

    Each interpreter imports photonbell and builds the workload's inputs,
    timing itself and calibrating its own core (see ``probe_setup``).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        command = [
            sys.executable, str(Path(__file__)), "--probe-setup",
            "--workload", workload, "--seed", str(seed), "--size", size,
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout))
    return times


def probe_setup(args) -> None:
    """Print this interpreter's set-up time, raw and calibrated."""
    before = calibration_s()
    start = perf_counter()
    prepare()
    from workloads import WORKLOADS

    build_variants(WORKLOADS[args.workload], args.seed, args.size, OUT_DIR / "probe")
    raw = perf_counter() - start
    print(json.dumps({"raw_s": raw, "calibrated_s": calibrated(raw, before)}))


def tail(walls: list):
    """The pass time with TAIL_BEYOND passes above it, and its percentile."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    return {"value": sorted(walls)[n - TAIL_BEYOND - 1], "percentile": 100.0 * (n - TAIL_BEYOND) / n}


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "photonbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # a source checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=False,
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
    }


def results_of(run: Run) -> dict:
    """Every case's inputs and produced values, by variant."""
    out = {}
    for variant, cases in enumerate(run.variants):
        out[str(variant)] = {
            case.name: {
                "params": {k: v for k, v in case.params.items() if k != "argv"},
                "values": run.summaries.get((variant, case.name)),
            }
            for case in cases
        }
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def benchmark(args) -> tuple:
    """Run one workload; returns (result, record)."""
    import tracing
    from workloads import VARIANTS, WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = provenance(args)
    try:
        setup = setup_seconds(args.workload, args.seed, args.size)
        record["setup_runs"] = setup
        run = Run(workload, build_variants(workload, args.seed, args.size, workdir))
        phase = args.seconds / 2 if args.trace else args.seconds
        run.run_for(phase, VARIANTS)
        untraced = list(run.walls)

        if args.trace:
            # The last untraced pass of each variant: warm, and nearest in time.
            baseline = sum(untraced[-VARIANTS:])
            first_traced = len(run.walls)
            with tracing.Tracer() as tracer:
                traced = [run.run_pass(i) for i in range(VARIANTS)]
            record["traced_raw_pass_s"] = run.raw_walls[first_traced:]
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            overhead = sum(traced) / baseline - 1.0
            metrics, unmeasured = {}, {}
            for name, (value, unit) in sorted(tracing.layer_metrics(tracer).items()):
                if value is None or isinstance(value, str):
                    # The result line holds numbers only: a ratio over zero
                    # calls, or a name the package no longer has, reads 0
                    # and the record says which it was.
                    unmeasured[name] = "undefined" if value is None else value
                    value = 0
                metrics[name] = metric(value, unit)
            metrics["trace_overhead_frac"] = metric(overhead, "fraction")
            record["traced_pass_s"] = traced
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            record["counts"] = dict(sorted(tracer.counts.items()))
            record["absent"] = sorted(tracer.absent)
            record["metrics_reading_0_unmeasured"] = unmeasured
        else:
            metrics = {
                "wall_s": metric(statistics.median(untraced), "s"),
                "items_per_s": metric(statistics.median(run.rates[: len(untraced)]), "1/s"),
                "setup_s": metric(statistics.median(t["calibrated_s"] for t in setup), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
            }

        if args.seed == DEFAULT_SEED and args.size == "full":
            reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
            run.compare_reference(reference)
            record["reference"] = "compared"
        else:
            record["reference"] = "not compared (not the default seed and size)"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        passes=len(untraced),
        pass_s=untraced,
        raw_pass_s=run.raw_walls[: len(untraced)],
        calibration_nominal_s=CALIBRATION_NOMINAL_S,
        wall_s_median=statistics.median(untraced),
        wall_s_tail=tail(untraced),
        items_per_pass=sum(c.items for c in run.variants[0]),
        item_name=workload.item_name,
        attempted=run.attempted,
        failed=run.failed,
        failed_frac=run.failed / run.attempted,
        failures=run.failures[:20],
        results=results_of(run),
    )
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, record


def write_reference(args) -> None:
    """Record the default-seed values of the current code as the reference."""
    from workloads import VARIANTS, WORKLOADS

    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, build_variants(workload, DEFAULT_SEED, "full", workdir))
        for index in range(VARIANTS):
            run.run_pass(index)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.failures:
        raise SystemExit("not recording a reference from failing cases:\n" + "\n".join(run.failures))
    data[args.workload] = {
        str(v): {
            case.name: {k: run.summaries[(v, case.name)][k] for k in case.reference_tol}
            for case in cases
        }
        for v, cases in enumerate(run.variants)
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "frames", "many-parties"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every case, for the self-test",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record this code's default-seed values as the reference",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (math.isfinite(args.seconds) and args.seconds >= 0):
        parser.error("--seconds must be finite and >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            probe_setup(args)
            return 0
        prepare()
        if args.write_reference:
            write_reference(args)
            return 0
        result, record = benchmark(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
