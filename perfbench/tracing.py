"""Out-of-program tracing: wrap each layer's public entry points.

The program is not edited.  :func:`install` replaces the entry points
listed in :data:`ENTRY_POINTS` with wrappers that record a span (layer, start,
end, parent) and, for some layers, a work count.  Module-level functions
are replaced in *every* ``repro`` module that bound them by name, since
several modules import them with ``from ... import name``.

Spans stay in memory.  Process-pool workers are forked from the traced
process and inherit the wrappers; after the fork a worker drops the
parent's buffer, and whenever its outermost span closes it appends its
spans to a per-process file in the spool directory, which
:meth:`Tracer.collect` merges.  Workers are terminated rather than shut
down cleanly, so they cannot wait until exit to write.

A layer's self time is its spans' duration minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# A finished span: (process token, span id, parent id, layer, start, end,
# counts or None).
Span = Tuple[str, int, Optional[int], str, float, float, Optional[Dict[str, int]]]


class Tracer:
    """Span buffer of one process tree; off until :attr:`enabled` is set."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._root_pid = os.getpid()
        self._token = str(self._root_pid)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self._token = f"{os.getpid()}-{os.urandom(4).hex()}"

    def wrap(
        self,
        layer: str,
        fn: Callable,
        count: Optional[Callable[[tuple, dict, Any], Dict[str, int]]] = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per call while enabled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append(span_id)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (tracer._token, span_id, parent, layer, start, end, counts)
                )
                if not stack and os.getpid() != tracer._root_pid:
                    tracer._spill()

        return traced

    def _spill(self) -> None:
        """Append a worker's finished spans to its per-process file."""
        path = self.spool_dir / f"worker-{self._token}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> Tuple[List[Span], List[Span]]:
        """(this process's spans, merged worker spans); both buffers reset."""
        own, self.spans = self.spans, []
        workers: List[Span] = []
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                workers.extend(tuple(json.loads(line)) for line in handle)
            path.unlink()
        return own, workers


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self time: span durations minus direct-child coverage."""
    covered: Dict[Tuple[str, int], float] = defaultdict(float)
    for token, _sid, parent, _layer, start, end, _n in spans:
        if parent is not None:
            covered[(token, parent)] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for token, sid, _parent, layer, start, end, _n in spans:
        totals[layer] += (end - start) - covered[(token, sid)]
    return dict(totals)


def counts(spans: List[Span]) -> Dict[str, int]:
    """Span calls per layer plus every recorded work count, summed."""
    totals: Dict[str, int] = defaultdict(int)
    for _token, _sid, _parent, layer, _start, _end, n in spans:
        totals[f"{layer}.calls"] += 1
        for key, value in (n or {}).items():
            totals[f"{layer}.{key}"] += value
    return dict(totals)


def _campaign_counts(args, kwargs, result) -> Dict[str, int]:
    return {"computed": result.computed, "reused": result.reused}


def _get_many_counts(args, kwargs, result) -> Dict[str, int]:
    return {"keys": len(args[1]), "hits": len(result)}


def _broadcast_counts(args, kwargs, result) -> Dict[str, int]:
    return {"broadcasts": result.n_broadcasts}


def _batch_counts(args, kwargs, result) -> Dict[str, int]:
    return {"seed_runs": len(result)}


_IDEAL_RESULT = "repro.ideal.simulator:CampaignResult."

#: (layer, entry point as ``module:qualname``, work-count extractor).
ENTRY_POINTS = (
    ("experiments.figure", "repro.experiments.spec:ExperimentSpec.run", None),
    ("experiments.render", "repro.experiments.spec:ExperimentResult.render", None),
    ("runners.campaign", "repro.runners.campaign:run_campaign", _campaign_counts),
    ("runners.cache_get", "repro.runners.cache:ResultCache.get_many",
     _get_many_counts),
    ("runners.cache_put", "repro.runners.cache:ResultCache.put", None),
    ("runners.journal", "repro.runners.journal:CampaignJournal._append", None),
    ("runners.journal", "repro.runners.journal:CampaignJournal.discard", None),
    ("runners.dispatch", "repro.runners.backends:SerialBackend.execute", None),
    ("runners.dispatch", "repro.runners.backends:ProcessPoolBackend.execute", None),
    # Task bodies: run in the measuring process (serial) or as the root
    # span of a pool worker.
    ("runners.dispatch", "repro.runners.backends:_evaluate_leased_task", None),
    ("runners.dispatch", "repro.runners.backends:_evaluate_lease_chunk", None),
    # What the pool loop blocks on while workers compute.
    ("runners.wait", "repro.runners.backends:wait", None),
    ("scenarios.realize", "repro.scenarios.spec:ScenarioSpec.realize", None),
    ("ideal.kernel", "repro.ideal.simulator:IdealSimulator.run_campaign",
     _broadcast_counts),
    *(
        ("ideal.analyze", _IDEAL_RESULT + method, None)
        for method in (
            "reliability",
            "mean_coverage",
            "joules_per_update",
            "joules_per_update_per_node",
            "mean_per_hop_latency",
            "nodes_at_distance",
            "mean_hops_at_distance",
            "mean_latency_at_distance",
        )
    ),
    ("detailed.setup", "repro.detailed.simulator:DetailedSimulator.__init__", None),
    ("detailed.batched", "repro.detailed.batched:run_batch", _batch_counts),
    ("detailed.reference", "repro.detailed.simulator:DetailedSimulator.run_reference",
     None),
    ("detailed.analyze", "repro.runners.points:_summarize_detailed", None),
    ("percolation.bond",
     "repro.percolation.threshold:estimate_critical_bond_fraction", None),
    ("analysis.bootstrap", "repro.analysis.bootstrap:bootstrap_mean_samples", None),
    ("analysis.bootstrap", "repro.analysis.bootstrap:bootstrap_ci95", None),
    ("analysis.frontier", "repro.analysis.objectives:operating_points", None),
    ("analysis.frontier", "repro.analysis.pareto:pareto_frontier", None),
    ("analysis.frontier", "repro.analysis.selectors:knee_index", None),
    ("analysis.frontier", "repro.analysis.selectors:epsilon_constraint_index",
     None),
)

#: Layer span names, in report order.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, current value) of ``module:qualname``."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def install(spool_dir: Path) -> Tuple[Tracer, List[str]]:
    """Wrap every entry point; returns the (disabled) tracer and misses.

    Entry points the program no longer has are skipped and returned, so
    a refactor that removes one reports that layer as 0 rather than
    breaking the benchmark.  Call once per process, before any pool is
    created.
    """
    importlib.import_module("repro.cli")  # binds the figure modules' names
    Path(spool_dir).mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spool_dir)
    resolved = []
    missing = []
    for layer, target, count in ENTRY_POINTS:
        try:
            resolved.append((layer, count, *_resolve(target)))
        except (ImportError, AttributeError):
            missing.append(target)
    for layer, count, owner, attr, original in resolved:
        if isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(layer, owner.__dict__[attr], count))
            continue
        # A function: replace it wherever a module bound it by name.
        wrapped = tracer.wrap(layer, original, count)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    return tracer, missing
