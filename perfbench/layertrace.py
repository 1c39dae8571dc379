"""Per-layer tracing from outside the program.

The benchmark never edits ``repro``; instead :class:`Tracer` replaces each
layer's public functions *at the binding the caller looks up* with a
timing wrapper and restores them afterwards.  ``analyze`` is imported by
name into ``repro.batch.methods`` and ``repro.serve.app``, so those two
module attributes are wrapped -- wrapping ``repro.analysis.analyze`` alone
would see no call at all.  The same holds for ``solve_scenario`` and the
busy-period compilers, bound by name in ``repro.analysis.reduced``.  The
span stack is not shared between threads: every wrapped call of a traced
pass runs on the thread that opened it.

Each wrapper records a span: its duration is charged to the span's name,
and subtracted from the enclosing span so that *self time* (span time minus
child spans) can be reported per layer.  Spans are aggregated in memory as
they close (count, total, self) rather than kept one by one: a traced
campaign pass closes ~10^5 scenario spans.

Counts that the program already keeps -- ``fixed_point_stats()``,
``phase_cache_stats()`` -- are read as deltas around the traced region
or around each analysis call, never re-derived.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable

#: Every wrapped binding, as ``(module, attribute path, layer)``.  A span
#: is named after its binding (``module.attribute``), so a binding that
#: never fires -- a stale ``from X import f`` -- shows as zero calls.  Only
#: bindings some workload reaches are listed: the ``exact`` (static
#: offsets) analysis method and the campaign-side store are on none.
BINDINGS = (
    ("repro.batch.campaign", "random_system", "gen"),
    ("repro.gen.random_transactions", "scale_system_utilization", "gen"),
    ("repro.batch.methods", "analyze", "schedulability"),
    ("repro.serve.app", "analyze", "schedulability"),
    ("repro.analysis.schedulability", "utilization_prefilter",
     "schedulability"),
    ("repro.analysis.schedulability", "response_bound_prefilter",
     "schedulability"),
    ("repro.analysis.schedulability", "holistic_analysis", "holistic"),
    ("repro.analysis.reduced", "solve_scenario", "scenario"),
    ("repro.analysis.busy", "ViewProjector.views", "busy"),
    ("repro.analysis.reduced", "compile_w_rows", "busy"),
    ("repro.analysis.reduced", "compile_w_transaction_star", "busy"),
    ("repro.batch.campaign", "Campaign.run", "campaign"),
    ("repro.batch.campaign", "CampaignResult.save_json", "campaign"),
    ("repro.serve.app", "system_hash", "canonical"),
    ("repro.serve.app", "analysis_config_hash", "canonical"),
    ("repro.batch.store", "canonical_json", "canonical"),
    ("repro.batch.store", "ResultStore.get", "store"),
    ("repro.batch.store", "ResultStore.put", "store"),
    ("repro.serve.schemas", "AnalyzeRequest.parse", "serve"),
    ("repro.serve.app", "_json", "serve"),
    ("repro.serve.testclient", "call_asgi", "serve"),
    ("repro.batch.dispatch", "CampaignDispatcher.run", "dispatch"),
    ("repro.batch.dispatch", "LocalBackend.launch", "dispatch"),
    ("repro.batch.campaign", "StreamingMerger.add", "merge"),
    ("repro.batch.campaign", "StreamingMerger.finish", "merge"),
    ("repro.batch.transport", "SharedDirTransport.stage_out", "transport"),
    ("repro.batch.transport", "SharedDirTransport.pull", "transport"),
)

CAMPAIGN_RUN = "repro.batch.campaign.Campaign.run"
SAVE_JSON = "repro.batch.campaign.CampaignResult.save_json"
#: A result save inside an open ``Campaign.run`` span is a checkpoint
#: write, recorded under this span name instead of :data:`SAVE_JSON`.
CHECKPOINT = SAVE_JSON + ":checkpoint"

SPAN_LAYER = {f"{module}.{path}": layer for module, path, layer in BINDINGS}
SPAN_LAYER[CHECKPOINT] = "checkpoint"


class Tracer:
    """Span recorder that installs wrappers and removes them on exit."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Counts that are not span counts (phase-cache hits/misses,
        #: outer iterations, transport bytes).
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, child seconds]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def active(self, name: str) -> bool:
        """Whether a span called *name* is open on the current stack."""
        return any(frame[0] == name for frame in self._stack)

    def wrap(
        self,
        name: str | Callable[[], str],
        fn: Callable,
        *,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """A timing wrapper of *fn* recording spans called *name*.

        *name* may be a callable resolved when the span opens (used to
        tell checkpoint writes from plain result saves).  ``before(*args)``
        returns a token handed to ``after(token, result, *args)`` once the
        call has returned.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name() if callable(name) else name
            token = before(*args) if before is not None else None
            frame = [span, 0.0]
            tracer._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                tracer._stack.pop()
                tracer.calls[span] += 1
                tracer.total_s[span] += dur
                tracer.self_s[span] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if after is not None:
                after(token, result, *args)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name, **hooks) -> None:
        """Replace ``owner.attr`` by a wrapper (classmethods included)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            new = self.wrap(name, raw, **hooks)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(
            s for span, s in self.self_s.items() if SPAN_LAYER[span] == layer
        )

    def layer_total_s(self, layer: str) -> float:
        return sum(
            t for span, t in self.total_s.items()
            if SPAN_LAYER[span] == layer
        )

    def layer_calls(self, layer: str) -> int:
        return sum(
            c for span, c in self.calls.items() if SPAN_LAYER[span] == layer
        )

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def merge(self, data: dict) -> None:
        """Fold in another tracer's :meth:`to_dict` (a shard child's)."""
        for key, target in (
            ("calls", self.calls),
            ("total_s", self.total_s),
            ("self_s", self.self_s),
            ("counts", self.counts),
        ):
            for span, value in data.get(key, {}).items():
                target[span] += value


def install(tracer: Tracer) -> None:
    """Wrap every binding of :data:`BINDINGS`."""
    from repro.analysis.busy import phase_cache_stats

    counts = tracer.counts

    # Phase-cache deltas are taken around each analysis because the
    # campaign clears the cache (and its counters) between cells.
    def phase_before(*_args):
        return phase_cache_stats()

    def phase_after(token, _result, *_args):
        hits, misses = phase_cache_stats()
        counts["busy.phase_hits"] += hits - token[0]
        counts["busy.phase_misses"] += misses - token[1]

    def outer_after(_token, result, *_args):
        counts["holistic.outer_iterations"] += result.outer_iterations

    # The shared-dir transport moves no bytes itself; the bytes are those
    # of the files it hands across the shard boundary.
    def transfer_after(_token, _result, transport, _host, name):
        path = transport.work_dir / name
        if path.is_file():
            counts["transport.bytes"] += path.stat().st_size

    phase = {"before": phase_before, "after": phase_after}
    hooks = {
        "repro.batch.methods.analyze": phase,
        "repro.serve.app.analyze": phase,
        "repro.analysis.schedulability.holistic_analysis":
            {"after": outer_after},
        "repro.batch.transport.SharedDirTransport.stage_out":
            {"after": transfer_after},
        "repro.batch.transport.SharedDirTransport.pull":
            {"after": transfer_after},
    }

    def save_span() -> str:
        return CHECKPOINT if tracer.active(CAMPAIGN_RUN) else SAVE_JSON

    for module_name, path, _layer in BINDINGS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        span = f"{module_name}.{path}"
        tracer.patch(owner, attr, save_span if span == SAVE_JSON else span,
                     **hooks.get(span, {}))


def record_fixed_point(tracer: Tracer, before) -> None:
    """Add the ``fixed_point_stats()`` delta since *before* to the counts."""
    from repro.util.fixedpoint import fixed_point_stats

    delta = fixed_point_stats().delta(before)
    for f in dataclasses.fields(delta):
        tracer.counts[f"fp.{f.name}"] += getattr(delta, f.name)


def layer_metrics(tracer: Tracer, extras: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    *extras* carries what the spans cannot see -- cell counts of the
    result, the dispatch report's accounting, the service's own hit count
    -- and overrides the span-derived value of the same name.  Layers a
    workload does not exercise read 0.
    """
    calls, total, counts = tracer.calls, tracer.total_s, tracer.counts
    phase = counts["busy.phase_hits"] + counts["busy.phase_misses"]
    metrics = {
        "gen.calls": tracer.layer_calls("gen"),
        "gen.self_s": tracer.layer_self_s("gen"),
        "schedulability.calls": calls["repro.batch.methods.analyze"]
            + calls["repro.serve.app.analyze"],
        "schedulability.self_s": tracer.layer_self_s("schedulability"),
        "schedulability.prefilter_accepts": counts["fp.prefilter_accepts"],
        "holistic.calls": tracer.layer_calls("holistic"),
        "holistic.self_s": tracer.layer_self_s("holistic"),
        "holistic.outer_iterations": counts["holistic.outer_iterations"],
        "holistic.task_solves": counts["fp.outer_task_solves"],
        "holistic.task_skips": counts["fp.outer_task_skips"],
        "scenario.calls": tracer.layer_calls("scenario"),
        "scenario.self_s": tracer.layer_self_s("scenario"),
        "scenario.evaluations": counts["fp.evaluations"],
        "scenario.diverged": counts["fp.diverged"],
        "busy.compiles": calls["repro.analysis.reduced.compile_w_rows"]
            + calls["repro.analysis.reduced.compile_w_transaction_star"],
        "busy.compile_s": tracer.layer_total_s("busy"),
        "busy.phase_cache_hit_ratio":
            counts["busy.phase_hits"] / phase if phase else 0.0,
        "campaign.self_s": tracer.layer_self_s("campaign"),
        "campaign.cells_solved": 0,
        "campaign.cells_inferred": 0,
        "campaign.checkpoint_writes": calls[CHECKPOINT],
        "campaign.checkpoint_s": total[CHECKPOINT],
        "canonical.calls": tracer.layer_calls("canonical"),
        "canonical.self_s": tracer.layer_self_s("canonical"),
        "store.gets": calls["repro.batch.store.ResultStore.get"],
        "store.hits": 0,
        "store.puts": calls["repro.batch.store.ResultStore.put"],
        "store.get_s": total["repro.batch.store.ResultStore.get"],
        "store.put_s": total["repro.batch.store.ResultStore.put"],
        "serve.parse_s": total["repro.serve.schemas.AnalyzeRequest.parse"],
        "serve.encode_s": total["repro.serve.app._json"],
        "serve.app_s": total["repro.serve.testclient.call_asgi"],
        "serve.http_ms": 0.0,
        "dispatch.launches": calls["repro.batch.dispatch.LocalBackend.launch"],
        "dispatch.relaunches": 0,
        "dispatch.launch_overhead_s": 0.0,
        "dispatch.slot_idle_s": 0.0,
        "dispatch.merge_s": tracer.layer_total_s("merge"),
        "transport.transfers": tracer.layer_calls("transport"),
        "transport.bytes": counts["transport.bytes"],
        "transport.retries": 0,
        "trace.overhead_ratio": 0.0,
    }
    metrics.update(extras)
    metrics["store.hit_ratio"] = (
        metrics["store.hits"] / metrics["store.gets"]
        if metrics["store.gets"] else 0.0
    )
    return metrics
