"""Metrics registry: counters, gauges and histograms in one snapshot.

The registry is the single sink for run-level quantities: the engine's
:class:`~repro.core.engine.EngineStats` counters and cache hit/miss
pairs are *absorbed* into it at the end of a run
(:meth:`MetricsRegistry.absorb_stats`), and the hot loop feeds two
live histograms (recompute latency, active-queue depth) while metrics
are enabled. Snapshots export as plain JSON (``--metrics``) for offline
bench attribution.

Metric names follow Prometheus conventions: ``repro_`` prefix,
``_total`` suffix for counters, ``_seconds`` for durations.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: default histogram buckets for sub-second latencies (seconds).
LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: default buckets for queue depths / counts.
DEPTH_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000)


class Counter:
    """Monotone counter."""

    __slots__ = ("name", "help", "value", "labels")
    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: dict | None = None) -> None:
        self.name = name
        self.help = help
        self.value = 0
        self.labels = dict(labels) if labels else None

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (or be set once at the end)."""

    __slots__ = ("name", "help", "value", "labels")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: dict | None = None) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.labels = dict(labels) if labels else None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram (cumulative on export)."""

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets=LATENCY_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # final slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, ending at +Inf."""
        rows: list[tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            running += bucket_count
            rows.append((bound, running))
        rows.append((math.inf, self.count))
        return rows


class MetricsRegistry:
    """Create-or-get access to named metrics plus exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get(self, name: str, factory, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{factory.__name__.lower()}"
            )
        return metric

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        return self._get(name, Counter, help=help, labels=labels)

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        return self._get(name, Gauge, help=help, labels=labels)

    def histogram(self, name: str, help: str = "", buckets=LATENCY_BUCKETS) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    # ------------------------------------------------------------------
    # EngineStats absorption
    # ------------------------------------------------------------------
    #: EngineStats counter field -> (metric name, help). The registry is
    #: the superset: everything EngineStats counts appears here.
    _STAT_COUNTERS = {
        "candidate_pairs": ("repro_candidate_pairs_total", "candidate pairs examined by blocking"),
        "pair_nodes": ("repro_pair_nodes_total", "pair nodes created in the dependency graph"),
        "value_nodes": ("repro_value_nodes_total", "value nodes created in the dependency graph"),
        "recomputations": ("repro_recomputations_total", "pair-node similarity recomputations"),
        "merges": ("repro_merges_total", "reconciliation (merge) decisions"),
        "non_merges": ("repro_non_merges_total", "non-merge (negative) decisions"),
        "premerged_unions": ("repro_premerged_unions_total", "key-agreement pre-merges"),
        "constraint_pairs": ("repro_constraint_pairs_total", "a-priori distinct pairs installed"),
        "fusions": ("repro_fusions_total", "graph node fusions during enrichment"),
        "queue_front_pushes": ("repro_queue_front_pushes_total", "strong-boolean queue-front activations"),
        "queue_back_pushes": ("repro_queue_back_pushes_total", "queue-back activations"),
        "skipped_weak_fanout": ("repro_weak_fanout_skips_total", "weak-edge bundles pruned by the fan-out ceiling"),
        "prefilter_skips": ("repro_prefilter_skips_total", "comparator calls skipped by the upper-bound prefilter"),
        "task_retries": ("repro_task_retries_total", "classes re-scored serially after a worker-pool failure"),
        "queue_compactions": ("repro_queue_compactions_total", "active-queue deque compactions"),
    }

    #: (hits field, misses field) -> cache name for hit/miss pairs.
    _STAT_CACHES = {
        "values": ("values_cache_hits", "values_cache_misses"),
        "contacts": ("contacts_cache_hits", "contacts_cache_misses"),
        "feature": ("feature_cache_hits", "feature_cache_misses"),
        "pair_memo": ("pair_memo_hits", "pair_memo_misses"),
    }

    def absorb_stats(self, stats) -> None:
        """Fold an :class:`~repro.core.engine.EngineStats` into the
        registry: counters, phase gauges and per-cache hits/misses."""
        for attr, (name, help_text) in self._STAT_COUNTERS.items():
            counter = self.counter(name, help_text)
            counter.value = getattr(stats, attr)
        self.gauge("repro_build_seconds", "graph build wall-clock").set(
            round(stats.build_seconds, 6)
        )
        self.gauge("repro_iterate_seconds", "fixpoint iteration wall-clock").set(
            round(stats.iterate_seconds, 6)
        )
        self.gauge("repro_parallel_workers", "worker processes used by the build").set(
            stats.parallel_workers
        )
        self.gauge("repro_graph_nodes", "total dependency-graph nodes").set(
            stats.graph_nodes
        )
        self.gauge("repro_degradations", "degradation events recorded").set(
            len(stats.degradations)
        )
        for cache_name, (hits_attr, misses_attr) in self._STAT_CACHES.items():
            hits = getattr(stats, hits_attr)
            misses = getattr(stats, misses_attr)
            self.counter(
                f"repro_{cache_name}_cache_hits_total", f"{cache_name} cache hits"
            ).value = hits
            self.counter(
                f"repro_{cache_name}_cache_misses_total", f"{cache_name} cache misses"
            ).value = misses

    def absorb_run_info(self, **labels: str) -> Gauge:
        """Record run identity (dataset id, algorithm, ...) as the
        conventional ``repro_run_info`` gauge with value 1; the labels
        are free-form strings and land verbatim in the JSON snapshot.
        """
        info = self.gauge("repro_run_info", "run identity labels (constant 1)")
        info.labels = {key: str(value) for key, value in labels.items()}
        info.set(1)
        return info

    def cache_hit_rates(self) -> dict[str, float | None]:
        """hit/(hit+miss) per absorbed cache; ``None`` when untouched."""
        rates: dict[str, float | None] = {}
        for cache_name in self._STAT_CACHES:
            hits_metric = self._metrics.get(f"repro_{cache_name}_cache_hits_total")
            misses_metric = self._metrics.get(f"repro_{cache_name}_cache_misses_total")
            if hits_metric is None or misses_metric is None:
                continue
            total = hits_metric.value + misses_metric.value
            rates[cache_name] = round(hits_metric.value / total, 4) if total else None
        return rates

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready snapshot of every metric."""
        out: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.kind == "histogram":
                out[name] = {
                    "type": "histogram",
                    "help": metric.help,
                    "count": metric.count,
                    "sum": round(metric.sum, 9),
                    "buckets": {
                        ("+Inf" if math.isinf(bound) else repr(bound)): cumulative
                        for bound, cumulative in metric.cumulative()
                    },
                }
            else:
                entry = {
                    "type": metric.kind,
                    "help": metric.help,
                    "value": metric.value,
                }
                if metric.labels:
                    entry["labels"] = dict(metric.labels)
                out[name] = entry
        return out

    def write(self, path: str | Path) -> Path:
        """Write the JSON snapshot to *path*."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2) + "\n")
        return path
