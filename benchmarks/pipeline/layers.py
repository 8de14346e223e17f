"""Per-layer timing for the pipeline benchmark, taken from outside ``src/``.

A :class:`LayerProbe` wraps the public functions the pipeline calls — one
wrapper per layer boundary — and records a span per call into its own
standalone :class:`repro.obs.trace.Tracer`.  The process-global
``tracer()`` stays off, so no in-program span switches on and the traced
rounds run the same code as the untraced ones plus the wrappers.  Counts
the program already keeps (``phase.simulate.classify``,
``sim.batch.contend_s``, ``sim.memo.*``, ``campaign.cache.*``) are read
as registry deltas over the traced rounds.

Wrappers are installed only while a traced round runs
(:meth:`LayerProbe.installed`) and removed afterwards, so untraced
rounds pay nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter

#: (module, class or None, attribute, span name) of every wrapped call.
BOUNDARIES = (
    ("repro.workloads.base", "Workload", "generate", "workloads.generate"),
    ("repro.core.campaign", None, "analyze_trace", "profiler.analyze"),
    ("repro.core.campaign", None, "simulate_batch", "nmcsim.simulate"),
    ("repro.core.campaign", "SimulationCampaign", "run", "campaign.run"),
    ("repro.core.campaign", "CampaignCache", "__init__", "campaign.cache_load"),
    ("repro.core.campaign", "CampaignCache", "save", "campaign.cache_save"),
    ("repro.core.pipeline", "NapelTrainer", "train", "ml.train"),
    ("repro.core.pipeline", None, "grid_search", "ml.grid_search"),
    ("repro.core.predictor", "NapelModel", "predict_labels",
     "predictor.predict"),
)

#: Span name of one client-side request in the serve workload.
CLIENT_SPAN = "serve.client.request"


def _count(counts: Counter, span: str, args: tuple, result) -> None:
    """Work counts of one wrapped call (the span's size, not its time)."""
    if span == "workloads.generate":
        counts["workloads.generate_calls"] += 1
        counts["workloads.trace_instr"] += len(result)
    elif span == "profiler.analyze":
        counts["profiler.analyze_calls"] += 1
        counts["profiler.instr"] += len(args[0])
    elif span == "nmcsim.simulate":
        counts["nmcsim.points"] += len(args[0])
        counts["nmcsim.instr"] += sum(len(point[0]) for point in args[0])
    elif span == "ml.train":
        counts["ml.train_rows"] += len(args[1])
        counts["ml.fit_ipc_s"] += result.stage_seconds.get("fit_ipc", 0.0)
        counts["ml.fit_energy_s"] += result.stage_seconds.get(
            "fit_energy", 0.0
        )
    elif span == "ml.grid_search":
        counts["ml.grid_search_calls"] += 1
    elif span == "predictor.predict":
        counts["predictor.rows"] += len(result[0])


class LayerProbe:
    """Spans at each layer boundary, kept in memory until the run ends."""

    def __init__(self) -> None:
        from repro.obs.trace import Tracer

        self.tracer = Tracer()
        self.tracer.enable()
        self.counts: Counter = Counter()
        #: Registry activity (counters, timer seconds, histogram sums)
        #: accumulated over the traced rounds.
        self.registry: Counter = Counter()
        #: (start_us, end_us) of each traced round's timed part.
        self.windows: list[tuple[float, float]] = []

    def _wrap(self, fn, span: str):
        tracer, counts = self.tracer, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(span):
                result = fn(*args, **kwargs)
            _count(counts, span, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        from repro.obs import metrics

        restore = []
        for module_name, cls_name, attr, span in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span))
            restore.append((owner, attr, original))
        before = metrics().snapshot()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            delta = metrics().diff(before)
            for name, value in delta["counters"].items():
                self.registry[name] += value
            for name, stat in delta["timers"].items():
                self.registry[f"timer:{name}"] += stat["total_s"]
            for name, hist in delta["histograms"].items():
                self.registry[f"hist:{name}"] += hist["sum"]

    def mark_window(self, start_monotonic: float, end_monotonic: float) -> None:
        """Declare one traced round's timed part (for layer coverage)."""
        self.windows.append((
            self.tracer.to_ts_us(start_monotonic),
            self.tracer.to_ts_us(end_monotonic),
        ))

    def client_span(
        self, start_monotonic: float, end_monotonic: float, *,
        lane: int, request_id: str, label: str, status: int,
    ) -> None:
        """One serve request as the load generator saw it."""
        self.tracer.complete(
            CLIENT_SPAN,
            self.tracer.to_ts_us(start_monotonic),
            (end_monotonic - start_monotonic) * 1e6,
            cat="serve",
            args={"request_id": request_id, "class": label,
                  "status": status},
            tid=lane,
        )

    # ------------------------------------------------------------ readout

    def coverage(self) -> float:
        """Share of the traced rounds' wall time inside layer spans.

        The union of span intervals over every lane, clipped to each
        round's timed part, divided by the total timed wall time.
        """
        events = [
            (e["ts"], e["ts"] + e["dur"])
            for e in self.tracer.to_json_dict()["traceEvents"]
            if e.get("ph") == "X"
        ]
        covered = wall = 0.0
        for lo, hi in self.windows:
            wall += hi - lo
            clipped = sorted(
                (max(a, lo), min(b, hi)) for a, b in events
                if b > lo and a < hi
            )
            reach = lo
            for a, b in clipped:
                if b > reach:
                    covered += b - max(a, reach)
                    reach = b
        return covered / wall if wall else 0.0

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer values, averaged per traced round."""
        from repro.obs.trace import summarize_trace

        spans = {
            s["name"]: s
            for s in summarize_trace(self.tracer.to_json_dict(), top=10**6)
        }
        n = max(1, rounds)

        def total_s(name: str) -> float:
            return spans[name]["total_us"] / 1e6 / n if name in spans else 0.0

        def per_round(key: str) -> float:
            return self.counts[key] / n

        def ratio(hits: str, misses: str) -> float:
            h, m = self.registry[hits], self.registry[misses]
            return h / (h + m) if h + m else 0.0

        reg = self.registry
        analyze_s = total_s("profiler.analyze")
        simulate_s = total_s("nmcsim.simulate")
        predict_s = total_s("predictor.predict")
        return {
            "workloads.generate_s": total_s("workloads.generate"),
            "workloads.generate_calls": per_round("workloads.generate_calls"),
            "workloads.trace_minstr": per_round("workloads.trace_instr") / 1e6,
            "profiler.analyze_s": analyze_s,
            "profiler.analyze_calls": per_round("profiler.analyze_calls"),
            "profiler.us_per_instr": (
                analyze_s * 1e6 / per_round("profiler.instr")
                if self.counts["profiler.instr"] else 0.0
            ),
            "nmcsim.simulate_s": simulate_s,
            "nmcsim.points": per_round("nmcsim.points"),
            "nmcsim.sim_minstr": per_round("nmcsim.instr") / 1e6,
            "nmcsim.minstr_per_s": (
                per_round("nmcsim.instr") / 1e6 / simulate_s
                if simulate_s else 0.0
            ),
            "nmcsim.classify_s": reg["timer:phase.simulate.classify"] / n,
            "nmcsim.contend_s": reg["hist:sim.batch.contend_s"] / n,
            "nmcsim.events_memo_hit_ratio": ratio(
                "sim.memo.events.hits", "sim.memo.events.misses"
            ),
            "nmcsim.classify_memo_hit_ratio": ratio(
                "sim.memo.classify.hits", "sim.memo.classify.misses"
            ),
            "campaign.run_self_s": (
                spans["campaign.run"]["self_us"] / 1e6 / n
                if "campaign.run" in spans else 0.0
            ),
            "campaign.cache_load_s": total_s("campaign.cache_load"),
            "campaign.cache_save_s": total_s("campaign.cache_save"),
            "campaign.cache_hit_ratio": ratio(
                "campaign.cache.hits", "campaign.cache.misses"
            ),
            "campaign.trace_reuse": reg["campaign.trace_reuse"] / n,
            "ml.train_s": total_s("ml.train"),
            "ml.fit_ipc_s": per_round("ml.fit_ipc_s"),
            "ml.fit_energy_s": per_round("ml.fit_energy_s"),
            "ml.grid_search_s": total_s("ml.grid_search"),
            "ml.grid_search_calls": per_round("ml.grid_search_calls"),
            "ml.train_rows": per_round("ml.train_rows"),
            "predictor.predict_s": predict_s,
            "predictor.rows": per_round("predictor.rows"),
            "predictor.us_per_row": (
                predict_s * 1e6 / per_round("predictor.rows")
                if self.counts["predictor.rows"] else 0.0
            ),
            "bench.layer_coverage_frac": self.coverage(),
        }
