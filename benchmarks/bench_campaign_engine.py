"""Campaign engine throughput across the kernel and scheduler axes.

Runs the reference utilization sweep under every interesting combination
of the two PR 2 axes -- interference *kernel* (scalar reference closures
vs the NumPy vector kernel vs the size-adaptive auto default) and outer
*scheduler* (Jacobi, full Gauss-Seidel and chain-aware dirty-set
Gauss-Seidel) -- and records systems-analyzed-per-second plus the
evaluation accounting in ``BENCH_campaign.json`` at the repository root.

ISSUE 3 additions, recorded alongside the kernel x scheduler matrix:

* ``sharding`` -- the reference sweep split ``--shard 0/2`` / ``1/2``;
  aggregate throughput models two hosts running side by side
  (total systems / slowest shard wall) and must reach >= 1.8x the
  single-shard run; the shard union is asserted bit-identical to it.
* ``wide_view`` -- the vector-vs-scalar kernel speedup on the
  ``wide_view_spec`` generator preset (>= 100 batched jobs per Eq. 15
  call), where ``kernel="auto"`` selects the vector kernel.

ISSUE 4 addition:

* ``verdict_mode`` -- the reference sweep analyzed with the ``verdict``
  method (deadline-ceiling early exits + pre-filters + monotone level
  pruning/bisection along each chain) against the exact ``gauss_seidel``
  baseline.  Verdicts are asserted identical cell for cell; the
  acceptance criterion is >= 3x systems/sec.

ISSUE 6 addition:

* ``result_store`` -- the reference sweep cold (filling a fresh
  content-addressed store) vs fully warmed (every cell served from
  disk), both asserted bit-identical to the storeless run.  Non-gating:
  the warm/cold ratio depends on disk latency, not on this code.

Perf gate reference:

* ``calibration`` -- the reference sweep's throughput in units of a fixed
  calibration kernel (see :func:`calibrated_throughput`), the figure
  ``tests/test_perf_smoke.py`` re-measures the same way and gates on.

PR 1's recorded numbers are pinned in ``PR1_REFERENCE`` below (they were
re-measured against PR 1's actual code on this hardware within 3% before
being frozen here).  Each configuration is timed best-of-N to damp
scheduler noise.

Caveat on "the same sweep": PR 2 batched the generator's RNG draws (one
call per parameter family), which changes the random stream, so the same
seeds now draw *statistically identical but not bit-identical* systems.
Throughput comparisons against PR 1 therefore compare equal-distribution
workloads, not the very same 84 systems; within-tree comparisons (every
assertion below) are unaffected.
"""

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro.analysis import AnalysisConfig
from repro.batch import (
    Campaign,
    CampaignSpec,
    holistic_method,
    linspace_levels,
    merge_campaign_results,
    register_method,
)
from repro.gen import campaign_base, wide_view_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_campaign.json"

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
from hostspeed import kernel as calibration_kernel  # noqa: E402

#: PR 1's ``gs_warm_cached`` reference run on this sweep, as recorded in
#: the BENCH_campaign.json committed by PR 1.
PR1_REFERENCE = {
    "method": "gauss_seidel",
    "systems": 84,
    "wall_time_s": 0.23934251199989376,
    "systems_per_second": 350.9614706477104,
    "evaluations_total": 34392,
    "outer_iterations_total": 175,
}

BASE = {
    "n_platforms": 3,
    "n_transactions": 4,
    "tasks_per_transaction": (2, 4),
}
LEVELS = linspace_levels(0.30, 0.95, 14)
REPEATS = 3
#: Replicates per grid cell of the matrix sweep / the sharding sweep.
SYSTEMS_PER_CELL = 6
SHARD_REPLICATES = 64
#: Sweep runs (each flanked by calibration-kernel calls) per
#: :func:`calibrated_throughput` measurement.
CALIBRATION_PAIRS = 9

#: Extra method variants spanning the kernel/scheduler matrix; the
#: built-in ``gauss_seidel`` (dirty set + auto kernel) is the new default
#: and ``gauss_seidel_full`` the dirty-set ablation.
VARIANTS = {
    "gs_kernel_scalar": AnalysisConfig(
        method="reduced", update="gauss_seidel", kernel="scalar"
    ),
    "gs_kernel_vector": AnalysisConfig(
        method="reduced", update="gauss_seidel", kernel="vector"
    ),
}


def _spec(method: str, warm: bool) -> CampaignSpec:
    return CampaignSpec(
        grid={"utilization": LEVELS},
        base=BASE,
        methods=(method,),
        systems_per_cell=SYSTEMS_PER_CELL,
        seed=3,
        warm_start=warm,
    )


#: The kernel x scheduler matrix: name -> (method, warm, kernel, scheduler).
MATRIX = {
    # The headline configuration: dirty-set Gauss-Seidel, auto kernel,
    # warm-start chaining, driver caches on.
    "gs_warm_cached": ("gauss_seidel", True, "auto", "gs_incremental"),
    # Kernel axis (same scheduler, forced kernels).
    "gs_warm_scalar": ("gs_kernel_scalar", True, "scalar", "gs_incremental"),
    "gs_warm_vector": ("gs_kernel_vector", True, "vector", "gs_incremental"),
    # Scheduler axis (auto kernel unless noted).
    "gs_full_warm": ("gauss_seidel_full", True, "auto", "gs_full"),
    "gs_cold_cached": ("gauss_seidel", False, "auto", "gs_incremental"),
    "jacobi_cold": ("reduced", False, "auto", "jacobi"),
}


def _matrix_runs() -> dict:
    """Best-of-REPEATS walls of every matrix configuration, interleaved
    (the speedup asserts compare *ratios*; see :func:`_interleaved_best`)."""
    campaigns = {
        name: Campaign(_spec(method, warm))
        for name, (method, warm, _k, _s) in MATRIX.items()
    }
    # The headline speedup assert rides on this block's ratios: give the
    # best-of minimum two extra samples over the satellite blocks.
    best = _interleaved_best(
        {name: lambda c=c: c.run(workers=1) for name, c in campaigns.items()},
        repeats=REPEATS + 2,
    )
    runs = {}
    for name, (method, warm, kernel, scheduler) in MATRIX.items():
        wall, result = best[name]
        acc = result.accounting()
        runs[name] = {
            "method": method,
            "warm_start": warm,
            "kernel": kernel,
            "scheduler": scheduler,
            "systems": acc["systems"],
            "wall_time_s": wall,
            "systems_per_second": acc["systems"] / wall,
            "evaluations_total": acc["evaluations_total"],
            "outer_iterations_total": acc["outer_iterations_total"],
            "task_solves": sum(
                c.extras.get("fp_task_solves", 0) for c in result.cells
            ),
            "task_skips": sum(
                c.extras.get("fp_task_skips", 0) for c in result.cells
            ),
            "schedulable": [int(c.schedulable) for c in result.cells],
        }
    return runs


def _interleaved_best(fns: dict, repeats: int | None = None) -> dict:
    """Best-of-*repeats* walls for several configurations, interleaved.

    Ratios between configurations are what the acceptance asserts check,
    and this container's throughput drifts by +-30% over tens of seconds
    -- measuring each configuration's block sequentially bakes that drift
    into the ratio.  Rotating through the configurations each repeat makes
    every configuration sample the same machine phases, so their best-of
    walls stay comparable.  Returns ``{name: (wall, result)}``.
    """
    if repeats is None:
        repeats = REPEATS  # read at call time so --quick can shrink it
    for fn in fns.values():  # warm interpreter/caches per config
        fn()
    best: dict = {name: None for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
            if best[name] is None or wall < best[name][0]:
                best[name] = (wall, result)
    return best


def _measure_sharding(spec: CampaignSpec) -> dict:
    """The reference sweep as a 2-shard deployment.

    Each shard runs on one (simulated) host; aggregate throughput is
    total systems / slowest shard wall -- the moment the union is ready.
    The union itself is asserted bit-identical to the unsharded run.

    The sweep runs with 64 replicates (64 chains) instead of the
    matrix's 6: the hash partition balances chain *counts* within one,
    but per-chain analysis cost varies with the drawn systems (heavy
    chains hit divergent high-utilization levels), so a 6-chain sweep
    can land a 2:1 wall-time split on two hosts.  A few dozen chains --
    still tiny by distributed-campaign standards -- let the cost
    imbalance average out, which is the regime the shard flag exists
    for (at 64 chains the seed-3 split balances to < 1%).
    """
    spec = CampaignSpec.from_dict(
        {**spec.to_dict(), "systems_per_cell": SHARD_REPLICATES}
    )
    campaign = Campaign(spec)
    # max(shard walls) is biased upward by per-run scheduler noise (it
    # takes the worse of two noisy samples); extra best-of repeats debias
    # each wall before the max.
    best = _interleaved_best(
        {
            "full": lambda: campaign.run(workers=1),
            "shard0": lambda: campaign.run(workers=1, shard=(0, 2)),
            "shard1": lambda: campaign.run(workers=1, shard=(1, 2)),
        },
        repeats=REPEATS + 2,
    )
    full_wall, full = best["full"]
    shard_walls = [best["shard0"][0], best["shard1"][0]]
    parts = [best["shard0"][1], best["shard1"][1]]
    assert merge_campaign_results(parts).metrics() == full.metrics()
    aggregate_speedup = full_wall / max(shard_walls)
    return {
        "shards": 2,
        "unsharded_wall_s": full_wall,
        "shard_wall_s": shard_walls,
        "shard_systems": [p.n_systems for p in parts],
        "aggregate_systems_per_second": full.n_systems / max(shard_walls),
        "aggregate_speedup": aggregate_speedup,
    }


def calibrated_throughput(campaign: Campaign) -> dict:
    """Inline sweep throughput in units of a fixed calibration kernel.

    On a shared host the same work runs at very different speeds from
    one minute to the next, so a throughput recorded in one phase and
    re-measured in another moves by +-30% with no code change.  Here
    every ``campaign.run(workers=1)`` is flanked by calls of perfbench's
    calibration kernel (pure Python, no repro code, see
    ``perfbench/hostspeed.py``); one sample is the run's CPU time over
    the mean of its two flanking kernel times, and the figure is the
    median sample.  A slow phase of the host stretches the sweep and its
    neighbouring kernel calls alike and cancels; a slower program moves
    only the sweep.  On a 2-vCPU VM the median of flanked samples spread
    by ~+-10% from one measurement to the next where a ratio of separate
    best-of walls spread by ~+-20%.  The collector is frozen during the
    timing, so a caller's large heap (a test session's) does not tax the
    sweep's allocations more than the kernel's.

    ``systems_per_kernel`` is systems analyzed per kernel call's worth
    of CPU time (higher is faster).
    """
    campaign.run(workers=1)  # warm interpreter and caches
    calibration_kernel()

    def cpu_time(fn):
        t0 = time.process_time()
        out = fn()
        return time.process_time() - t0, out

    gc.collect()
    gc.freeze()
    try:
        before, _ = cpu_time(calibration_kernel)
        samples = []
        for _ in range(CALIBRATION_PAIRS):
            sweep_s, result = cpu_time(lambda: campaign.run(workers=1))
            after, _ = cpu_time(calibration_kernel)
            samples.append(sweep_s / ((before + after) / 2))
            before = after
    finally:
        gc.unfreeze()
    sweep_over_kernel = statistics.median(samples)
    return {
        "systems": result.n_systems,
        "pairs": CALIBRATION_PAIRS,
        "sweep_over_kernel": sweep_over_kernel,
        "systems_per_kernel": result.n_systems / sweep_over_kernel,
    }


def _measure_verdict_mode(spec: CampaignSpec) -> dict:
    """Exact vs verdict-mode throughput on the reference sweep.

    Same spec, two methods: ``gauss_seidel`` (the PR 3 exact pipeline) and
    ``verdict`` (early-exit solves, pre-filters, monotone level pruning).
    Every cell's verdict must agree; the verdict run additionally reports
    how many cells were *inferred* by the pruning instead of solved.
    """
    exact_c = Campaign(
        CampaignSpec.from_dict({**spec.to_dict(), "methods": ["gauss_seidel"]})
    )
    verdict_c = Campaign(
        CampaignSpec.from_dict({**spec.to_dict(), "methods": ["verdict"]})
    )
    best = _interleaved_best(
        {
            "exact": lambda: exact_c.run(workers=1),
            "verdict": lambda: verdict_c.run(workers=1),
        },
        repeats=REPEATS + 2,
    )
    exact_wall, exact = best["exact"]
    verdict_wall, verdict = best["verdict"]
    assert [c.schedulable for c in verdict.cells] == [
        c.schedulable for c in exact.cells
    ], "verdict-mode verdicts diverged from exact mode"
    inferred = sum(
        1 for c in verdict.cells if c.extras.get("verdict_inferred")
    )
    return {
        "exact": {
            "wall_time_s": exact_wall,
            "systems_per_second": exact.n_systems / exact_wall,
            "evaluations_total": exact.accounting()["evaluations_total"],
        },
        "verdict": {
            "wall_time_s": verdict_wall,
            "systems_per_second": verdict.n_systems / verdict_wall,
            "evaluations_total": verdict.accounting()["evaluations_total"],
            "cells": len(verdict.cells),
            "inferred_cells": inferred,
            "solved_cells": len(verdict.cells) - inferred,
            "ceiling_exits": sum(
                c.extras.get("fp_ceiling_exits", 0) for c in verdict.cells
            ),
            "prefilter_classified": sum(
                1 for c in verdict.cells if c.extras.get("fp_prefilter")
            ),
        },
        "verdict_vs_exact": exact_wall / verdict_wall,
    }


def _measure_result_store(spec: CampaignSpec) -> dict:
    """Cold-vs-warmed reference sweep through the content-addressed store.

    The cold run fills a fresh store (paying the put overhead on top of
    every solve); the warmed rerun serves every cell from disk.  Both
    must stay bit-identical to the storeless run; the interesting number
    is ``warm_vs_cold`` -- how much a fully warmed store compresses the
    sweep (non-gating: it depends on disk latency).
    """
    import shutil
    import tempfile

    from repro.batch import ResultStore

    campaign = Campaign(spec)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        store = ResultStore(root)
        reference = campaign.run(workers=1)
        t0 = time.perf_counter()
        cold = campaign.run(workers=1, store=store)
        cold_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = campaign.run(workers=1, store=store)
        warm_wall = time.perf_counter() - t0
        assert cold.metrics() == reference.metrics()
        assert warm.metrics() == reference.metrics()
        n = spec.n_analyses()
        assert cold.store_hits == 0 and cold.store_misses == n
        assert warm.store_hits == n and warm.store_misses == 0
        stats = store.stats()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "cold": {
            "wall_time_s": cold_wall,
            "systems_per_second": cold.n_systems / cold_wall,
            "store_misses": cold.store_misses,
        },
        "warm": {
            "wall_time_s": warm_wall,
            "systems_per_second": warm.n_systems / warm_wall,
            "store_hits": warm.store_hits,
        },
        "warm_vs_cold": cold_wall / warm_wall,
        "entries": stats.entries,
        "store_bytes": stats.bytes,
    }


def _measure_wide_view() -> dict:
    """Vector-vs-scalar kernel on the wide-view preset (ROADMAP item)."""
    kernels = {
        "scalar": AnalysisConfig(
            method="reduced", update="gauss_seidel", kernel="scalar"
        ),
        "vector": AnalysisConfig(
            method="reduced", update="gauss_seidel", kernel="vector"
        ),
    }
    campaigns = {}
    for name, config in kernels.items():
        method = f"wv_{name}"
        register_method(
            method, holistic_method(config), supports_warm_start=True
        )
        campaigns[name] = Campaign(
            CampaignSpec(
                grid={"utilization": linspace_levels(0.30, 0.60, 3)},
                base=campaign_base(wide_view_spec()),
                methods=(method,),
                systems_per_cell=2,
                seed=7,
            )
        )
    best = _interleaved_best(
        {name: lambda c=c: c.run(workers=1) for name, c in campaigns.items()}
    )
    out: dict = {}
    verdicts = {}
    for name, (wall, result) in best.items():
        verdicts[name] = [int(c.schedulable) for c in result.cells]
        out[name] = {
            "wall_time_s": wall,
            "systems_per_second": result.n_systems / wall,
            "evaluations_total": result.accounting()["evaluations_total"],
        }
    assert verdicts["scalar"] == verdicts["vector"]
    out["vector_vs_scalar"] = (
        out["scalar"]["wall_time_s"] / out["vector"]["wall_time_s"]
    )
    return out


def run_bench(*, gating: bool = True, out_path: Path = BENCH_JSON) -> dict:
    """Measure every block and write the bench JSON.

    ``gating=False`` (the CI ``--quick`` smoke) keeps the deterministic
    cost-model asserts (eval-count relations, verdict equality, shard
    union exactness) but skips the wall-clock *ratio* asserts -- shared
    CI runners are too noisy to gate on; the artifact is the point.
    """
    for name, config in VARIANTS.items():
        register_method(name, holistic_method(config), supports_warm_start=True)

    runs = _matrix_runs()

    new = runs["gs_warm_cached"]
    full = runs["gs_full_warm"]
    cold = runs["gs_cold_cached"]
    jacobi = runs["jacobi_cold"]

    # Verdicts must agree across every kernel/scheduler combination.
    for name, run in runs.items():
        assert run["schedulable"] == new["schedulable"], name

    # The measured savings each layer claims:
    # dirty-set skips work without changing outer accounting semantics,
    assert new["task_skips"] > 0
    assert new["evaluations_total"] < full["evaluations_total"]
    # warm-start chaining still saves evaluations over the cold sweep,
    assert new["evaluations_total"] < cold["evaluations_total"]
    # and Gauss-Seidel still beats the Jacobi baseline.
    assert cold["evaluations_total"] < jacobi["evaluations_total"]

    speedups = {
        "vs_pr1_recorded": new["systems_per_second"]
        / PR1_REFERENCE["systems_per_second"],
        "dirty_set_evaluations_saved": 1.0
        - new["evaluations_total"] / full["evaluations_total"],
        "warm_vs_cold_evaluations": 1.0
        - new["evaluations_total"] / cold["evaluations_total"],
        "gauss_seidel_vs_jacobi_evaluations": 1.0
        - cold["evaluations_total"] / jacobi["evaluations_total"],
    }

    # ISSUE 3: the distributed-execution measurements.
    sharding = _measure_sharding(_spec("gauss_seidel", True))
    wide_view = _measure_wide_view()

    # ISSUE 3 acceptance: a 2-shard deployment of the reference sweep
    # delivers >= 1.8x the single-host aggregate throughput.
    if gating:
        assert sharding["aggregate_speedup"] >= 1.8, sharding

    # ISSUE 4: the verdict-mode pipeline on the reference sweep.
    verdict_mode = _measure_verdict_mode(_spec("gauss_seidel", True))
    # ISSUE 4 acceptance: >= 3x systems/sec over the exact pipeline.
    if gating:
        assert verdict_mode["verdict_vs_exact"] >= 3.0, verdict_mode
    assert verdict_mode["verdict"]["inferred_cells"] > 0, verdict_mode

    # ISSUE 6: cold-vs-warmed reference sweep through the result store.
    # Deliberately non-gating on the speedup ratio -- serving from disk
    # always beats solving, but by a disk-latency-dependent factor.
    result_store = _measure_result_store(_spec("gauss_seidel", True))

    # The perf smoke gate's reference (tests/test_perf_smoke.py).
    calibration = calibrated_throughput(Campaign(_spec("gauss_seidel", True)))

    for run in runs.values():
        del run["schedulable"]  # bulky and redundant once cross-checked
    payload = {
        "description": "campaign engine throughput (systems analyzed/sec) "
        "across kernel x scheduler axes; see "
        "benchmarks/bench_campaign_engine.py",
        "sweep": {
            "levels": list(LEVELS),
            "systems_per_cell": SYSTEMS_PER_CELL,
            "base": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in BASE.items()},
        },
        "pr1_reference": PR1_REFERENCE,
        "runs": runs,
        "speedups": speedups,
        "sharding": sharding,
        "wide_view": wide_view,
        "verdict_mode": verdict_mode,
        "result_store": result_store,
        "calibration": calibration,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_campaign_throughput(benchmark, write_artifact):
    payload = run_bench(gating=True)

    write_artifact(
        "campaign_engine.txt",
        json.dumps(
            {
                "speedups": payload["speedups"],
                "sharding_aggregate_speedup":
                    payload["sharding"]["aggregate_speedup"],
                "wide_view_vector_vs_scalar":
                    payload["wide_view"]["vector_vs_scalar"],
                "verdict_vs_exact":
                    payload["verdict_mode"]["verdict_vs_exact"],
            },
            indent=2,
        ) + "\n",
    )

    benchmark(lambda: Campaign(
        CampaignSpec(
            grid={"utilization": (0.4, 0.6)},
            base=BASE,
            methods=("gauss_seidel",),
            systems_per_cell=2,
            seed=3,
        )
    ).run(workers=1))


def main(argv=None) -> int:
    """Standalone entry point (CI smoke): ``python benchmarks/bench_campaign_engine.py``.

    ``--quick`` shrinks the sweep and skips the wall-clock ratio gates so
    the run fits a non-gating CI smoke step in well under a minute while
    still writing the full-schema bench JSON artifact.
    """
    global LEVELS, REPEATS, SYSTEMS_PER_CELL, SHARD_REPLICATES

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep, one repeat, no wall-clock ratio gates",
    )
    parser.add_argument(
        "--out", default=str(BENCH_JSON), metavar="PATH",
        help="where to write the bench JSON (default: repo root)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        LEVELS = linspace_levels(0.30, 0.90, 5)
        REPEATS = 1
        SYSTEMS_PER_CELL = 3
        SHARD_REPLICATES = 12
    payload = run_bench(gating=not args.quick, out_path=Path(args.out))
    print(json.dumps(
        {
            "quick": args.quick,
            "speedups": payload["speedups"],
            "sharding_aggregate_speedup":
                payload["sharding"]["aggregate_speedup"],
            "verdict_vs_exact": payload["verdict_mode"]["verdict_vs_exact"],
            "result_store_warm_vs_cold":
                payload["result_store"]["warm_vs_cold"],
            "written": str(Path(args.out)),
        },
        indent=2,
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
