"""Self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny size through run.py,
untraced once and traced twice, and checks that the result line has the
contract's keys, that every metric prints as a finite number with its unit,
that the traced work counts repeat exactly, and that a deliberately
perturbed Bell value in each workload is counted as a failed case.  Exits 0
when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that count work rather than time it.
COUNT_UNITS = {"count", "bytes", "ratio", "fraction"}
EXCLUDED_COUNTS = {"trace_overhead_frac"}


def result_of(workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(Path(run.__file__)), "--workload", workload,
        "--seed", "1", "--seconds", "0", "--size", "tiny", "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result: dict, expected: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    names = [m["name"] for m in expected]
    assert sorted(result["metrics"]) == sorted(names), (label, sorted(result["metrics"]))
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (label, m, got)
        value = got["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (label, m, got)
        assert math.isfinite(value), (label, m, got)


def check_workload(workload: str) -> None:
    untraced = result_of(workload, 0)
    check_result(untraced, BENCHMARK["end_to_end"], f"{workload} trace 0")
    for name, got in untraced["metrics"].items():
        assert isinstance(got["value"], float) and got["value"] > 0, (workload, name, got)

    first, second = result_of(workload, 1), result_of(workload, 1)
    for result in (first, second):
        check_result(result, BENCHMARK["per_layer"], f"{workload} trace 1")
    counts = [
        m["name"] for m in BENCHMARK["per_layer"]
        if m["unit"] in COUNT_UNITS and m["name"] not in EXCLUDED_COUNTS
    ]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a == b, f"{workload}: {name} changed between traced runs: {a} vs {b}"


def perturbed_failures(workload_name: str, module: str, attr: str, perturb) -> list:
    """Failures counted when ``module.attr`` returns perturbed results."""
    import tracing
    from workloads import VARIANTS, WORKLOADS

    original = getattr(sys.modules[module], attr)

    def wrong(*args, **kwargs):
        return perturb(original(*args, **kwargs))

    workdir = run.OUT_DIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name]
    bench = run.Run(workload, run.build_variants(workload, 1, "tiny", workdir))
    undo = tracing.rebind(original, wrong)
    try:
        for index in range(VARIANTS):
            bench.run_pass(index)
    finally:
        tracing.restore(undo)
        shutil.rmtree(workdir, ignore_errors=True)
    return bench.failures


def check_perturbations() -> None:
    bump = 1e-6
    cases = (
        ("search", "photonbell.optimize", "maximize_bell", " maximize_bell.",
         lambda report: dataclasses.replace(report, best_s=report.best_s + bump)),
        ("frames", "photonbell.experiments", "violation_distribution", " violation_distribution.",
         lambda hist: dataclasses.replace(hist, max_s=hist.max_s + bump)),
        ("many-parties", "photonbell.wwzb", "wwzb_value", " symmetric.",
         lambda result: dataclasses.replace(result, s_value=result.s_value + bump)),
    )
    for workload, module, attr, case, perturb in cases:
        failures = perturbed_failures(workload, module, attr, perturb)
        assert any(case in f for f in failures), (
            f"{workload}: perturbed {attr} was not counted as a failure of{case}: {failures}"
        )


def main() -> int:
    run.prepare()
    for entry in BENCHMARK["workloads"]:
        check_workload(entry["name"])
        print(f"ok {entry['name']}: metrics, units and repeated counts")
    check_perturbations()
    print("ok perturbed Bell values are counted as failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
