"""Spans and counts around the calls into each photonbell layer.

Nothing inside the package is edited.  While a :class:`Tracer` is
installed, every module binding of a traced function (for example
``photonbell.optimize.correlator`` as well as
``photonbell.fock_core.correlator``) is replaced by a wrapper that records
a span (name, parent, start, end) and the work counts read from the call's
arguments or result.  Constructions of the validated value classes are
counted by wrapping the class ``__init__``, which every binding shares.
Spans stay in memory until the run writes them out.

A traced name that the package no longer defines is recorded as absent,
and every metric derived from it reads ``"absent"`` here (``run.py`` prints
such a metric as 0 and names it in its record).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ABSENT = "absent"


def _correlator_work(args, result):
    n = args["state"].n_modes
    return {"fock_core.correlator.pair_terms": n * (n - 1) // 2}


def _maximize_work(args, result):
    return {
        "optimize.objective_evals": int(result.evaluations),
        "optimize.maximize_bell.converged": int(bool(result.converged)),
    }


def _wwzb_work(args, result):
    return {"wwzb.table_entries": 2 ** int(args["table"].n_parties)}


def _average_work(args, result):
    return {"phase_noise.terms_averaged": len(args["poly"].terms)}


def _centers_work(args, result):
    centers = np.atleast_2d(np.asarray(args["centers"], dtype=float))
    return {"experiments.best_pair_values_over_centers.centers": len(centers)}


def _distribution_work(args, result):
    return {"experiments.violation_distribution.samples": int(args["n_samples"])}


def _cli_work(args, result):
    argv = list(args.get("argv") or [])
    if "--out" not in argv:
        return {}
    path = Path(argv[argv.index("--out") + 1])
    return {"cli.bytes_written": path.stat().st_size if path.exists() else 0}


# (module, attribute, span name, count hook)
FUNCTIONS = (
    ("photonbell.fock_core", "correlator", "fock_core.correlator", _correlator_work),
    ("photonbell.optimize", "maximize_bell", "optimize.maximize_bell", _maximize_work),
    (
        "photonbell.optimize",
        "averaged_correlator_table",
        "optimize.averaged_correlator_table",
        None,
    ),
    ("photonbell.optimize", "threshold_efficiency", "optimize.threshold_efficiency", None),
    ("photonbell.optimize", "certainty_frontier", "optimize.certainty_frontier", None),
    ("photonbell.wwzb", "wwzb_value", "wwzb.wwzb_value", _wwzb_work),
    (
        "photonbell.phase_noise",
        "average_polynomial",
        "phase_noise.average_polynomial",
        _average_work,
    ),
    ("photonbell.phase_noise", "damped_polynomial", "phase_noise.damped_polynomial", None),
    (
        "photonbell.experiments",
        "symbolic_correlators",
        "experiments.symbolic_correlators",
        None,
    ),
    (
        "photonbell.experiments",
        "best_pair_values_over_centers",
        "experiments.best_pair_values_over_centers",
        _centers_work,
    ),
    (
        "photonbell.experiments",
        "violation_distribution",
        "experiments.violation_distribution",
        _distribution_work,
    ),
    ("photonbell.cli", "main", "cli.main", _cli_work),
)

# (module, class, counter name)
CLASSES = (
    ("photonbell.fock_core", "ModeObservable", "fock_core.observables_built"),
    ("photonbell.fock_core", "SubspaceState", "fock_core.states_built"),
    ("photonbell.wwzb", "CorrelatorTable", "wwzb.tables_built"),
    ("photonbell.phase_noise", "PhaseModel", "phase_noise.models_built"),
)


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    work: dict = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lookup(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def rebind(original, replacement) -> list:
    """Point every photonbell module binding of ``original`` at ``replacement``.

    Returns the (module, name, original) triples that undo the change.
    """
    undo = []
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "photonbell" or key.startswith("photonbell.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class Tracer:
    """Records spans and counts while installed; restores every binding on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: set = set()
        self._stack: list = []
        self._restore: list = []

    def _wrap_function(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, name, perf_counter())
            spans.append(span)
            stack.append(span.span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.work = hook(signature.bind(*args, **kwargs).arguments, result)
                counts.update(span.work)
            return result

        return traced

    def _wrap_init(self, init, counter):
        counts = self.counts

        @functools.wraps(init)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return init(*args, **kwargs)

        return counted

    def __enter__(self):
        for module_name, attr, name, hook in FUNCTIONS:
            original = _lookup(module_name, attr)
            if not callable(original):
                self.absent.add(name)
                continue
            self._restore += rebind(original, self._wrap_function(original, name, hook))
        for module_name, attr, counter in CLASSES:
            cls = _lookup(module_name, attr)
            init = cls.__dict__.get("__init__") if isinstance(cls, type) else None
            if init is None:
                self.absent.add(counter)
                continue
            cls.__init__ = self._wrap_init(init, counter)
            self._restore.append((cls, "__init__", init))
        return self

    def __exit__(self, *exc):
        restore(self._restore)
        self._restore.clear()
        return False

    def write(self, path) -> None:
        """Write the spans as columns; span i has id i, ``parent`` -1 is a root."""
        names = sorted({span.name for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        columns = {
            "names": names,
            "name": [code[span.name] for span in self.spans],
            "parent": [span.parent for span in self.spans],
            "start": [span.start for span in self.spans],
            "end": [span.end for span in self.spans],
            "work": {span.span_id: span.work for span in self.spans if span.work},
            "absent": sorted(self.absent),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(columns, f)


def _ratio(numerator, denominator):
    """numerator/denominator; None when the base is 0, absent when either is."""
    if ABSENT in (numerator, denominator):
        return ABSENT
    return numerator / denominator if denominator else None


# Frame centers are evaluated by these two; a call nested inside the other
# (a later route may batch the per-sample one) must not be counted twice.
FRAME_SPANS = {
    "experiments.violation_distribution": "experiments.violation_distribution.samples",
    "experiments.best_pair_values_over_centers": (
        "experiments.best_pair_values_over_centers.centers"
    ),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of everything recorded: metric name -> (value, unit).

    ``.calls`` counts spans, ``.self_s`` sums span time minus the time of
    direct child spans.  Ratios carry None when their base is zero.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.duration
        if span.parent >= 0:
            self_s[spans[span.parent].name] -= span.duration

    def ancestors(span):
        while span.parent >= 0:
            span = spans[span.parent]
            yield span.name

    def known(name, value):
        return ABSENT if name in tracer.absent else value

    def searches_under(parent):
        nested = sum(
            1 for s in spans if s.name == "optimize.maximize_bell" and parent in ancestors(s)
        )
        return known(parent, known("optimize.maximize_bell", _ratio(nested, calls[parent])))

    frames = busy = 0
    for s in spans:
        if s.name in FRAME_SPANS and not FRAME_SPANS.keys() & set(ancestors(s)):
            frames += (s.work or {}).get(FRAME_SPANS[s.name], 0)
            busy += s.duration
    frames_per_s = _ratio(frames, busy)
    for name in FRAME_SPANS:
        frames_per_s = known(name, frames_per_s)

    counts = tracer.counts
    built = {"fock_core.observables_built", "fock_core.states_built"}
    validations = ABSENT if built & tracer.absent else sum(counts[k] for k in built)
    evals = known("optimize.maximize_bell", counts["optimize.objective_evals"])
    searches = known("optimize.maximize_bell", calls["optimize.maximize_bell"])
    converged = known("optimize.maximize_bell", counts["optimize.maximize_bell.converged"])

    out = {}
    for name in (
        "fock_core.correlator",
        "optimize.maximize_bell",
        "optimize.averaged_correlator_table",
        "optimize.threshold_efficiency",
        "optimize.certainty_frontier",
        "wwzb.wwzb_value",
        "phase_noise.average_polynomial",
        "phase_noise.damped_polynomial",
        "experiments.symbolic_correlators",
        "experiments.best_pair_values_over_centers",
        "experiments.violation_distribution",
        "cli.main",
    ):
        out[f"{name}.calls"] = (known(name, calls[name]), "count")
        out[f"{name}.self_s"] = (known(name, self_s[name]), "s")
    for key, source, unit in (
        ("fock_core.correlator.pair_terms", "fock_core.correlator", "count"),
        ("fock_core.observables_built", "fock_core.observables_built", "count"),
        ("fock_core.states_built", "fock_core.states_built", "count"),
        ("wwzb.table_entries", "wwzb.wwzb_value", "count"),
        ("wwzb.tables_built", "wwzb.tables_built", "count"),
        ("phase_noise.terms_averaged", "phase_noise.average_polynomial", "count"),
        ("phase_noise.models_built", "phase_noise.models_built", "count"),
        (
            "experiments.best_pair_values_over_centers.centers",
            "experiments.best_pair_values_over_centers",
            "count",
        ),
        ("cli.bytes_written", "cli.main", "bytes"),
    ):
        out[key] = (known(source, counts[key]), unit)
    out["fock_core.validations_per_eval"] = (_ratio(validations, evals), "ratio")
    out["optimize.objective_evals"] = (evals, "count")
    out["optimize.converged_frac"] = (_ratio(converged, searches), "fraction")
    out["optimize.searches_per_threshold"] = (
        searches_under("optimize.threshold_efficiency"), "ratio")
    out["optimize.searches_per_frontier"] = (
        searches_under("optimize.certainty_frontier"), "ratio")
    out["experiments.frames_per_s"] = (frames_per_s, "1/s")
    return out
