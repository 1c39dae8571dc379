"""CI perf smoke and schema checks for ``BENCH_campaign.json``.

Two layers of protection for the throughput numbers the ROADMAP tracks:

* **Schema** -- the committed bench JSON must keep the structure the
  campaign benchmark writes (so downstream tooling and the next re-anchor
  can rely on it), and the recorded speedups must meet the ISSUE 2
  acceptance floor plus the ISSUE 3 distributed-execution blocks
  (``sharding`` with its >= 1.8x aggregate pin, ``wide_view``), the
  ISSUE 4 ``verdict_mode`` block (verdict-mode
  pipeline >= 2.5x the exact pipeline on the reference sweep, with the
  benchmark itself asserting >= 3x at measurement time), and the ISSUE 6
  ``result_store`` block (cold-vs-warmed store accounting; the speedup
  ratio is disk-bound and deliberately not gated).
* **Perf smoke** -- a few-second re-measurement of the reference sweep
  that fails when its throughput regresses more than 30% below the
  recorded reference.  Both figures are measured in units of a fixed
  calibration kernel timed in the same phase (see
  ``calibrated_throughput`` in ``benchmarks/bench_campaign_engine.py``),
  so a slow minute of a shared host cancels instead of failing the gate;
  a companion test injects a slowdown and checks that the gate trips.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.batch import (
    Campaign,
    CampaignSpec,
    linspace_levels,
    register_method,
    resolve_method,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCH_campaign.json"

sys.path.insert(0, str(ROOT / "benchmarks"))
from bench_campaign_engine import calibrated_throughput  # noqa: E402

#: Fields every run entry of the bench JSON must carry.
RUN_FIELDS = {
    "method",
    "warm_start",
    "kernel",
    "scheduler",
    "systems",
    "wall_time_s",
    "systems_per_second",
    "evaluations_total",
    "outer_iterations_total",
    "task_solves",
    "task_skips",
}

SPEEDUP_FIELDS = {
    "vs_pr1_recorded",
    "dirty_set_evaluations_saved",
    "warm_vs_cold_evaluations",
    "gauss_seidel_vs_jacobi_evaluations",
}

#: Allowed regression below the recorded reference throughput.
REGRESSION_MARGIN = 0.30

#: CPU time the injected slowdown spins per analysis, as a share of the
#: analysis's own CPU time: 1/(1 + 0.75) leaves ~57% of the analysis
#: throughput, a drop of >= 35% for the sweep once its generation and
#: bookkeeping (not slowed) are counted in.
SLOWDOWN_SPIN = 0.75


@pytest.fixture(scope="module")
def payload() -> dict:
    return json.loads(BENCH.read_text())


#: Fields of the ISSUE 3 sharding block.
SHARDING_FIELDS = {
    "shards",
    "unsharded_wall_s",
    "shard_wall_s",
    "shard_systems",
    "aggregate_systems_per_second",
    "aggregate_speedup",
}


#: Fields of the ISSUE 4 verdict_mode block.
VERDICT_EXACT_FIELDS = {"wall_time_s", "systems_per_second",
                        "evaluations_total"}
VERDICT_FIELDS = VERDICT_EXACT_FIELDS | {
    "cells", "inferred_cells", "solved_cells", "ceiling_exits",
    "prefilter_classified",
}

#: Committed floor for the recorded verdict-vs-exact speedup; the
#: benchmark asserts the full >= 3x at measurement time, the schema pin
#: keeps a margin for cross-machine drift of the committed numbers.
VERDICT_SPEEDUP_FLOOR = 2.5


class TestBenchSchema:
    def test_top_level_keys(self, payload):
        assert {
            "description", "sweep", "pr1_reference", "runs", "speedups",
            "sharding", "wide_view", "verdict_mode", "result_store",
            "calibration",
        } <= set(payload)

    def test_sweep_block(self, payload):
        sweep = payload["sweep"]
        assert {"levels", "systems_per_cell", "base"} <= set(sweep)
        assert sweep["systems_per_cell"] >= 1
        assert len(sweep["levels"]) >= 2

    def test_levels_on_stable_decimal_grid(self, payload):
        """The ISSUE 2 float-drift fix: no 0.6000000000000001 keys."""
        levels = payload["sweep"]["levels"]
        assert levels == [round(v, 10) for v in levels]
        assert levels == list(
            linspace_levels(levels[0], levels[-1], len(levels))
        )

    def test_runs_schema(self, payload):
        runs = payload["runs"]
        assert "gs_warm_cached" in runs
        for name, run in runs.items():
            missing = RUN_FIELDS - set(run)
            assert not missing, f"{name} lacks {sorted(missing)}"
            assert run["systems"] > 0
            assert run["wall_time_s"] > 0
            assert run["systems_per_second"] == pytest.approx(
                run["systems"] / run["wall_time_s"], rel=1e-6
            )

    def test_speedups_schema(self, payload):
        assert SPEEDUP_FIELDS <= set(payload["speedups"])

    def test_recorded_speedup_meets_acceptance(self, payload):
        """The ISSUE 2 acceptance floor, pinned on the committed numbers."""
        assert payload["speedups"]["dirty_set_evaluations_saved"] > 0.0

    def test_pr1_reference_block(self, payload):
        ref = payload["pr1_reference"]
        assert ref["systems_per_second"] == pytest.approx(350.96, abs=0.01)
        assert ref["evaluations_total"] == 34392

    def test_sharding_block(self, payload):
        """ISSUE 3 acceptance: the recorded 2-shard reference sweep must
        deliver >= 1.8x aggregate throughput over the single-host run."""
        sharding = payload["sharding"]
        missing = SHARDING_FIELDS - set(sharding)
        assert not missing, sorted(missing)
        assert sharding["shards"] == 2
        assert len(sharding["shard_wall_s"]) == 2
        assert all(w > 0 for w in sharding["shard_wall_s"])
        # Aggregate throughput models two hosts running side by side:
        # total systems / slowest shard wall.
        assert sharding["aggregate_speedup"] == pytest.approx(
            sharding["unsharded_wall_s"] / max(sharding["shard_wall_s"]),
            rel=1e-6,
        )
        assert sharding["aggregate_speedup"] >= 1.8

    def test_verdict_mode_block(self, payload):
        """ISSUE 4 acceptance: the verdict-mode pipeline on the reference
        sweep, recorded against the exact pipeline, with the >= 2.5x
        schema floor (the benchmark gates >= 3x when it runs)."""
        block = payload["verdict_mode"]
        assert {"exact", "verdict", "verdict_vs_exact"} <= set(block)
        assert VERDICT_EXACT_FIELDS <= set(block["exact"])
        assert VERDICT_FIELDS <= set(block["verdict"])
        verdict = block["verdict"]
        assert verdict["cells"] == (
            verdict["solved_cells"] + verdict["inferred_cells"]
        )
        # The pruning really engaged: a majority of the sweep's cells were
        # inferred from monotone level pruning, not solved.
        assert verdict["inferred_cells"] > 0
        # Early exits engaged too.
        assert verdict["ceiling_exits"] > 0
        # And the whole pipeline pays off end to end.
        assert block["verdict_vs_exact"] == pytest.approx(
            block["exact"]["wall_time_s"] / verdict["wall_time_s"], rel=1e-6
        )
        assert block["verdict_vs_exact"] >= VERDICT_SPEEDUP_FLOOR

    def test_result_store_block(self, payload):
        """ISSUE 6: cold-vs-warmed store on the reference sweep.  The
        ratio itself is disk-latency-bound, so only the accounting
        invariants are pinned, not a speedup floor."""
        block = payload["result_store"]
        assert {"cold", "warm", "warm_vs_cold", "entries",
                "store_bytes"} <= set(block)
        assert block["cold"]["store_misses"] == block["entries"]
        assert block["warm"]["store_hits"] == block["entries"]
        assert block["entries"] > 0
        assert block["store_bytes"] > 0
        for leg in ("cold", "warm"):
            assert block[leg]["wall_time_s"] > 0
            assert block[leg]["systems_per_second"] > 0

    def test_wide_view_block(self, payload):
        wide = payload["wide_view"]
        assert {"scalar", "vector", "vector_vs_scalar"} <= set(wide)
        for kernel in ("scalar", "vector"):
            assert wide[kernel]["wall_time_s"] > 0
            assert wide[kernel]["systems_per_second"] > 0
        # Identical fixed points: the kernels may differ only in speed.
        assert wide["scalar"]["evaluations_total"] == \
            wide["vector"]["evaluations_total"]
        # The ROADMAP claim behind the preset: on wide views the vector
        # kernel wins outright.
        assert wide["vector_vs_scalar"] > 1.0


def _gate(payload: dict, method: str = "gauss_seidel") -> tuple[float, float]:
    """``(measured, floor)``: the recorded sweep run under *method*, in
    systems per calibration-kernel call, against the recorded figure
    less :data:`REGRESSION_MARGIN`."""
    sweep = payload["sweep"]
    base = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in sweep["base"].items()
    }
    spec = CampaignSpec(
        grid={"utilization": tuple(sweep["levels"])},
        base=base,
        methods=(method,),
        systems_per_cell=sweep["systems_per_cell"],
        seed=3,
        warm_start=True,
    )
    measured = calibrated_throughput(Campaign(spec))["systems_per_kernel"]
    reference = payload["calibration"]["systems_per_kernel"]
    return measured, (1.0 - REGRESSION_MARGIN) * reference


class TestPerfSmoke:
    def test_throughput_within_margin_of_reference(self, payload):
        """Re-measure the recorded sweep; fail on a >30% throughput drop."""
        measured, floor = _gate(payload)
        assert measured >= floor, (
            f"campaign throughput regressed: {measured:.2f} systems per "
            f"calibration-kernel call vs floor {floor:.2f} "
            f"({REGRESSION_MARGIN:.0%} below the recorded "
            f"{payload['calibration']['systems_per_kernel']:.2f})"
        )

    def test_gate_fails_on_injected_slowdown(self, payload):
        """A method that spins a fixed share of each analysis's CPU time
        cuts the sweep's throughput by >= 35%; the gate must catch it."""
        inner = resolve_method("gauss_seidel").fn

        def slowed(system, warm_start):
            t0 = time.process_time()
            outcome = inner(system, warm_start)
            now = time.process_time()
            until = now + SLOWDOWN_SPIN * (now - t0)
            while time.process_time() < until:
                pass
            return outcome

        register_method("test_slowed_gauss_seidel", slowed,
                        supports_warm_start=True)
        measured, floor = _gate(payload, "test_slowed_gauss_seidel")
        assert measured < floor, (
            f"an injected slowdown passed the gate: {measured:.2f} "
            f"systems per calibration-kernel call vs floor {floor:.2f}"
        )
