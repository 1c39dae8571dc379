"""Tests of the benchmark itself (not of ``repro``).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/bench_tests.py -q

They drive real workloads at a one-second budget (a few minutes in all):
the command prints exactly the declared metrics, every traced binding
fires on the workload that should reach it, each correctness check can
fail, and a run -- finished or interrupted -- leaves no child process or
scratch directory behind.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.batch import Campaign  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload: str, trace: int, seconds: float = 1) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def leftovers() -> tuple[set[str], set[int]]:
    """Scratch entries, and processes whose command line names one."""
    root = workloads.TMP_ROOT
    entries = set(os.listdir(root)) if root.is_dir() else set()
    pids = set()
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes()
        except OSError:
            continue
        if str(root).encode() in cmdline:
            pids.add(int(proc.name))
    return entries, pids


# -- the contract -------------------------------------------------------------


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in CONTRACT["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in CONTRACT[section]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


# -- the reference host speed ----------------------------------------------------


def test_referred_metrics_are_declared():
    declared = {m["name"] for m in CONTRACT["end_to_end"]}
    for name in WORKLOADS:
        assert set(workloads.WORKLOADS[name]().CPU_BOUND) <= declared


def test_slow_host_referral_raises_rates_and_lowers_times():
    speed = hostspeed.HostSpeed()
    speed.times = [1.5 * hostspeed.REFERENCE_S, 2.5 * hostspeed.REFERENCE_S]
    metrics = {"systems_per_s": 100.0, "setup_s": 4.0, "peak_rss_mb": 9.0}
    units = {"systems_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    notes: list[str] = []
    run.refer_to_reference_host(metrics, ("systems_per_s", "setup_s"),
                                units, speed, notes)
    assert metrics == pytest.approx(
        {"systems_per_s": 200.0, "setup_s": 2.0, "peak_rss_mb": 9.0})
    assert "systems_per_s=100" in notes[0]


def test_host_speed_samples_every_cpu_and_restores_affinity():
    speed = hostspeed.HostSpeed()
    speed.step()
    assert len(speed.times) == len(speed.cpus)
    assert os.sched_getaffinity(0) == set(speed.cpus)
    assert hostspeed.kernel() == hostspeed.kernel()


# -- tracing --------------------------------------------------------------------

#: Bindings each workload's traced pass must reach.
FIRES = {
    "sweep_exact": {
        "repro.batch.campaign.random_system",
        "repro.gen.random_transactions.scale_system_utilization",
        "repro.batch.methods.analyze",
        "repro.analysis.schedulability.holistic_analysis",
        "repro.analysis.reduced.solve_scenario",
        "repro.analysis.busy.ViewProjector.views",
        "repro.analysis.reduced.compile_w_rows",
        "repro.analysis.reduced.compile_w_transaction_star",
        "repro.batch.campaign.Campaign.run",
    },
    "sweep_verdict": {
        "repro.analysis.schedulability.utilization_prefilter",
        "repro.analysis.schedulability.response_bound_prefilter",
        "repro.batch.campaign.Campaign.run",
    },
    "serve_analyze": {
        "repro.serve.app.analyze",
        "repro.serve.app.system_hash",
        "repro.serve.app.analysis_config_hash",
        "repro.batch.store.canonical_json",
        "repro.batch.store.ResultStore.get",
        "repro.batch.store.ResultStore.put",
        "repro.serve.schemas.AnalyzeRequest.parse",
        "repro.serve.app._json",
        "repro.serve.testclient.call_asgi",
        "repro.analysis.schedulability.holistic_analysis",
    },
    "dispatch_sweep": {
        "repro.batch.dispatch.CampaignDispatcher.run",
        "repro.batch.dispatch.LocalBackend.launch",
        "repro.batch.campaign.StreamingMerger.add",
        "repro.batch.campaign.StreamingMerger.finish",
        "repro.batch.transport.SharedDirTransport.stage_out",
        "repro.batch.transport.SharedDirTransport.pull",
        "repro.batch.campaign.CampaignResult.save_json",
        layertrace.CHECKPOINT,
        "repro.batch.campaign.Campaign.run",
        "repro.batch.methods.analyze",
    },
}


def test_every_binding_is_expected_somewhere():
    expected = set().union(*FIRES.values())
    assert set(layertrace.SPAN_LAYER) == expected


def test_tracer_restores_every_binding():
    import repro.batch.methods as methods

    original = methods.analyze
    with layertrace.Tracer():
        assert methods.analyze is not original
    assert methods.analyze is original


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload measured once in trace mode, in this process."""
    runs = {}
    for name in WORKLOADS:
        instance = workloads.WORKLOADS[name]()
        out = workloads.Outcome()
        scratch = tmp_path_factory.mktemp(name)
        try:
            instance.setup(3, scratch)
            instance.measure(0.1, True, out)
        finally:
            instance.close()
        runs[name] = (instance.tracer, out)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_bindings_fire(traced, workload):
    tracer, out = traced[workload]
    silent = {b for b in FIRES[workload] if not tracer.calls.get(b)}
    assert not silent, f"{workload}: bindings never called: {sorted(silent)}"
    assert out.failed == 0
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    assert set(out.metrics) == declared
    assert out.metrics["trace.overhead_ratio"] > 0


#: Counts of a traced run that must repeat exactly for a fixed seed.
EXACT_COUNTS = {
    "sweep_exact": ("scenario.evaluations", "holistic.task_solves",
                    "holistic.task_skips", "campaign.cells_solved"),
    "serve_analyze": ("store.hits", "store.puts", "scenario.evaluations"),
    "dispatch_sweep": ("dispatch.launches", "scenario.evaluations",
                       "campaign.checkpoint_writes"),
}


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_per_layer_metrics_printed_and_counts_repeat(workload):
    first = bench(workload, trace=1)
    second = bench(workload, trace=1)
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    for name in EXACT_COUNTS[workload]:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name] == second["metrics"][name]


# -- the checks can fail --------------------------------------------------------


def small_sweep(method: str):
    """A fresh 28- or 56-cell sweep (each test mutates its own)."""
    replicates = 2 if method == "gauss_seidel" else 4
    return Campaign(workloads.sweep_spec(method, replicates, 5)).run()


def test_check_exact_catches_a_perturbed_wcrt():
    exact = small_sweep("gauss_seidel")
    assert workloads.check_exact(exact, 5) == 0
    cell = workloads.sample_cells(exact, 5, solved_only=True)[0]
    cell.max_wcrt_ratio *= 1.0 + 1e-6
    assert workloads.check_exact(exact, 5) == 1


def test_check_verdict_catches_a_flipped_verdict():
    verdict = small_sweep("verdict")
    assert workloads.check_verdict(verdict, 5) == 0
    cell = workloads.sample_cells(verdict, 5, solved_only=False)[0]
    cell.schedulable = not cell.schedulable
    assert workloads.check_verdict(verdict, 5) == 1


def test_check_merged_catches_a_dropped_cell():
    exact, reference = small_sweep("gauss_seidel"), small_sweep("gauss_seidel")
    assert workloads.check_merged(exact, reference) == 0
    del exact.cells[len(exact.cells) // 2]
    assert workloads.check_merged(exact, reference) >= 1


def test_serve_checks_catch_an_altered_byte(tmp_path):
    traffic = workloads.Traffic(5)
    client = workloads.InProcessClient(tmp_path / "store")
    try:
        expected = workloads.prefill(client, traffic)
        status, body = client.post(traffic.read_bodies[0])
        assert workloads.check_read(expected[0], status, body) == 0
        altered = body[:-2] + bytes([body[-2] ^ 1]) + body[-1:]
        assert workloads.check_read(expected[0], status, altered) == 1

        system = workloads.serve_system(5, 9, 9)
        _, miss = client.post(workloads.analyze_body(system))
        _, hit = client.post(workloads.analyze_body(system))
        assert workloads.check_write(system, miss, hit) == 0
        altered = hit[:-2] + bytes([hit[-2] ^ 1]) + hit[-1:]
        assert workloads.check_write(system, miss, altered) == 1
    finally:
        client.close()


def test_failed_checks_raise_the_failed_count():
    out = workloads.Outcome()
    out.fail(0, "nothing wrong")
    assert out.failed == 0
    out.fail(2, "two wrong")
    assert out.failed == 2 and out.notes == ["check failed (2): two wrong"]


# -- isolation --------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["serve_analyze", "dispatch_sweep"])
def test_finished_run_leaves_nothing_behind(workload):
    before = leftovers()
    bench(workload, trace=0)
    entries, pids = leftovers()
    assert entries <= before[0] and pids <= before[1]


@pytest.mark.parametrize("workload", ["serve_analyze", "dispatch_sweep"])
def test_interrupted_run_leaves_nothing_behind(workload):
    before = leftovers()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )
    try:
        # Interrupt once the run has children working in its scratch dir.
        deadline = time.monotonic() + 60
        while not (leftovers()[1] - before[1]):
            assert time.monotonic() < deadline, "no child process appeared"
            assert proc.poll() is None, proc.stderr.read().decode()
            time.sleep(0.1)
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode != 0
    entries, pids = leftovers()
    assert entries <= before[0] and pids <= before[1]
