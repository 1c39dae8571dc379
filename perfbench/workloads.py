"""The four benchmark workloads: set-up, timed passes, checks, per-layer runs.

Every workload drives a public surface of ``repro`` with inputs made from
the ``--seed`` alone, and is measured with tracing off; a traced run
(``measure(..., trace=True)``) adds one traced pass and reports the
per-layer metrics of :mod:`layertrace` instead.

All scratch state of a run lives in one directory under the checkout's
``.perfbench_tmp``; the caller removes it (and every child process is
reaped) even when a check fails or the run is interrupted.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import AnalysisConfig, analyze
from repro.batch import (
    Campaign,
    CampaignDispatcher,
    CampaignResult,
    CampaignSpec,
    linspace_levels,
)
from repro.batch.canonical import canonical_json
from repro.gen import RandomSystemSpec, random_system
from repro.gen.random_transactions import scale_system_utilization
from repro.io.spec import system_to_dict
from repro.serve import ServeConfig, create_app
from repro.serve.testclient import TestClient
from repro.util.fixedpoint import fixed_point_stats

import layertrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: The reference generator and the 14-level utilization ladder.
BASE = {"n_platforms": 3, "n_transactions": 4, "tasks_per_transaction": (2, 4)}
LEVELS = linspace_levels(0.30, 0.95, 14)

#: Replicates per ladder level.  A sweep_exact pass is 60 x 14 = 840
#: systems (~1.3 s), so that the host-speed samples taken between passes
#: interleave finely with the work.  A dispatch_sweep pass dispatches
#: 120 x 14 = 1680: with 840, its shards end so close to the
#: dispatcher's poll ticks that the pass wall jumped between ~4.5 s and
#: ~6.5 s from seed to seed.  Verdict mode is ~4x cheaper per system; 240
#: chains make its pass ~1 s on 2 workers.
EXACT_REPLICATES = 60
DISPATCH_REPLICATES = 120
VERDICT_REPLICATES = 240

#: Dispatch shape: subprocess slots and over-partitioned shards.
DISPATCH_WORKERS = 2
DISPATCH_SHARDS = 8

#: Passes run before a workload may stop; medians need at least three.
MIN_PASSES = 3

#: Cells re-solved untimed by the campaign checks.
CHECK_SAMPLES = 12

#: Service traffic: systems stored during set-up and replayed as reads,
#: the share of writes (fresh systems), and the request chunks whose
#: bodies are generated between timed chunks.
SERVE_READ_SYSTEMS = 32
SERVE_WRITE_SHARE = 0.25
SERVE_CHUNK = 64
#: Writes whose responses are kept for the hit/miss/analyze check.
SERVE_WRITE_SAMPLES = 32
#: Requests replayed by each phase of the traced service run.
SERVE_TRACED_REQUESTS = 256

#: An even count, so that the median mixes samples of every CPU of a
#: 2-CPU run.
SETUP_SAMPLES = 6


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"check failed ({count}): {why}")


def sweep_spec(method: str, replicates: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        grid={"utilization": LEVELS},
        base=BASE,
        methods=(method,),
        systems_per_cell=replicates,
        seed=seed,
        warm_start=True,
    )


#: The tail percentile: the highest whole one that keeps >= 10 samples
#: beyond it on every workload.  serve_analyze is the binding one: the
#: service's ~40 ms per request caps a 20 s run at ~450 requests, which
#: leaves ~4 samples beyond p99 but ~13 beyond p97.
TAIL_PERCENTILE = 97


def latency_metrics(samples_ms: list[float], out: Outcome, what: str) -> None:
    n = len(samples_ms)
    beyond = n - int(np.ceil(TAIL_PERCENTILE / 100 * n))
    out.notes.append(
        f"latency samples: {n} {what} ({beyond} beyond p{TAIL_PERCENTILE})"
    )
    # Nearest-rank percentiles: each is one measured sample.
    for name, q in (("latency_p50_ms", 50),
                    ("latency_p97_ms", TAIL_PERCENTILE)):
        out.metrics[name] = float(
            np.percentile(samples_ms, q, method="inverted_cdf"))


def children_usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) of every reaped child so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def pass_seed(seed: int, k: int) -> int:
    """Campaign seed of pass *k*.  Each pass sweeps systems of its own, so
    a run averages over every pass's systems instead of one spec's few
    heaviest ones, which would otherwise set the whole run's tail."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def run_passes(one_pass, seconds: float, between=None) -> list:
    """Call ``one_pass(k)`` for k = 0, 1, ... until *seconds* are spent
    (at least MIN_PASSES times), and ``between()``, if given, untimed
    before each pass.

    A further pass starts only when the median pass so far still fits in
    the remaining time, so a run overshoots its budget by less than one
    pass instead of by a whole slow one.
    """
    results = []
    walls: list[float] = []
    t_end = time.perf_counter() + seconds
    while True:
        if between is not None:
            between()
        result = one_pass(len(results))
        results.append(result)
        walls.append(result["wall"])
        remaining = t_end - time.perf_counter()
        if len(results) >= MIN_PASSES and remaining < statistics.median(walls):
            return results


# --------------------------------------------------------------------------
# Campaign workloads: sweep_exact, sweep_verdict, dispatch_sweep
# --------------------------------------------------------------------------


def regenerate(cell) -> object:
    """A cell's system, rebuilt the way its chain built it."""
    base = random_system(
        RandomSystemSpec(**BASE, utilization=LEVELS[0]), seed=cell.seed
    )
    level = cell.params["utilization"]
    if level == LEVELS[0]:
        return base
    return scale_system_utilization(base, level / LEVELS[0])


def sample_cells(result: CampaignResult, seed: int, *,
                 solved_only: bool) -> list:
    """The cells a check re-solves: CHECK_SAMPLES drawn from *seed*."""
    cells = [
        c for c in result.cells
        if not (solved_only and c.extras.get("verdict_inferred"))
    ]
    rng = np.random.default_rng((seed, 7))
    picks = rng.choice(len(cells), size=min(CHECK_SAMPLES, len(cells)),
                       replace=False)
    return [cells[int(i)] for i in sorted(picks)]


def check_exact(result: CampaignResult, seed: int) -> int:
    """Sampled cells re-analyzed cold through ``repro.analysis.analyze``
    must reproduce the campaign's verdict and worst WCRT/deadline ratio.
    Returns the number of cells that do not."""
    config = AnalysisConfig(method="reduced", update="gauss_seidel")
    failures = 0
    for cell in sample_cells(result, seed, solved_only=True):
        ref = analyze(regenerate(cell), config=config)
        ratio = max(
            r / d for r, d in zip(ref.transaction_wcrt,
                                  ref.transaction_deadline)
        )
        if ref.schedulable != cell.schedulable or not _same_float(
            ratio, cell.max_wcrt_ratio
        ):
            failures += 1
    return failures


def check_verdict(result: CampaignResult, seed: int) -> int:
    """Sampled cells -- solved and inferred alike -- re-run in exact
    ``gauss_seidel`` mode must give the campaign's verdict."""
    config = AnalysisConfig(method="reduced", update="gauss_seidel")
    return sum(
        analyze(regenerate(cell), config=config).schedulable
        != cell.schedulable
        for cell in sample_cells(result, seed, solved_only=False)
    )


def check_merged(merged: CampaignResult, reference: CampaignResult) -> int:
    """Cells of the dispatched union that differ from the inline run
    (missing and extra cells included)."""
    ours, theirs = merged.metrics(), reference.metrics()
    differing = sum(a != b for a, b in zip(ours, theirs))
    return differing + abs(len(ours) - len(theirs))


def _same_float(a: float, b: float) -> bool:
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def campaign_pass(campaign: Campaign, workers: int) -> dict:
    cpu0 = time.process_time()
    child0, _ = children_usage()
    t0 = time.perf_counter()
    result = campaign.run(workers=workers)
    wall = time.perf_counter() - t0
    child1, _ = children_usage()
    cpu = time.process_time() - cpu0 + (child1 - child0)
    return {"wall": wall, "cpu": cpu, "systems": result.n_systems,
            "result": result}


def dispatch_pass(spec: CampaignSpec, scratch: Path) -> dict:
    work_dir = Path(tempfile.mkdtemp(prefix="dispatch-", dir=scratch))
    try:
        dispatcher = CampaignDispatcher(
            spec, shards=DISPATCH_SHARDS, workers=DISPATCH_WORKERS,
            work_dir=work_dir,
        )
        cpu0 = time.process_time()
        child0, _ = children_usage()
        t0 = time.perf_counter()
        report = dispatcher.run()
        wall = time.perf_counter() - t0
        child1, _ = children_usage()
        shard_walls = sum(
            CampaignResult.load_json(path).wall_time_s
            for path in work_dir.glob("shard[0-9][0-9][0-9][0-9].json")
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "wall": wall,
        "cpu": time.process_time() - cpu0 + (child1 - child0),
        "systems": report.result.n_systems,
        "result": report.result,
        "report": report,
        "shard_campaign_s": shard_walls,
    }


def throughput_metrics(passes: list[dict], out: Outcome) -> None:
    """Whole-run figures: every pass's systems over every pass's time."""
    systems = sum(p["systems"] for p in passes)
    out.metrics["systems_per_s"] = systems / sum(p["wall"] for p in passes)
    out.metrics["cpu_ms_per_system"] = 1e3 * sum(
        p["cpu"] for p in passes) / systems
    latency_metrics([ms for p in passes for ms in p["latencies"]], out,
                    "solved cells")


def solved_cell_ms(result: CampaignResult) -> list[float]:
    """Analysis time of every solved (not inferred) cell, in ms."""
    return [
        1e3 * c.time_s
        for c in result.cells
        if not c.extras.get("verdict_inferred")
    ]


def campaign_layer_extras(result: CampaignResult) -> dict:
    inferred = sum(
        1 for c in result.cells if c.extras.get("verdict_inferred")
    )
    return {
        "campaign.cells_solved": len(result.cells) - inferred,
        "campaign.cells_inferred": inferred,
    }


class SweepWorkload:
    """``Campaign.run`` over the utilization ladder (exact or verdict).

    Every pass sweeps its own systems (:func:`pass_seed`); a traced run
    repeats pass 0 instead, so its counts repeat exactly for a seed.
    """

    #: The traced pass's tracer, for inspection by the tests.
    tracer: layertrace.Tracer | None = None

    #: End-to-end metrics set by CPU work, which the run refers to the
    #: reference host speed (:mod:`hostspeed`).
    CPU_BOUND = ("systems_per_s", "cpu_ms_per_system", "latency_p50_ms",
                 "latency_p97_ms", "setup_s")

    def __init__(self, name: str, method: str, replicates: int,
                 workers: int, check):
        self.name = name
        self.method = method
        self.replicates = replicates
        self.workers = workers
        self.check_cells = check

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.cpus = sorted(os.sched_getaffinity(0))
        Campaign(self.spec(0))

    def spec(self, k: int) -> CampaignSpec:
        return sweep_spec(self.method, self.replicates,
                          pass_seed(self.seed, k))

    def one_pass(self, k: int, traced_run: bool) -> dict:
        # A traced run stays inline on both sides of the overhead ratio:
        # pool children cannot be wrapped from here.
        workers = 1 if traced_run else self.workers
        if workers == 1:
            # An inline pass runs on one CPU, and on a shared host each
            # CPU is slowed by episodes of its own that can outlast a run.
            # Passes take the run's CPUs in turn, so one CPU's episode
            # sets at most its share of the passes.
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})
        spec = self.spec(0 if traced_run else k)
        return self.summarize(campaign_pass(Campaign(spec), workers))

    def summarize(self, p: dict) -> dict:
        """Check the pass's cells, then keep only what the metrics need:
        holding every pass's cells would grow this process -- and the
        pool workers forked from it -- with the number of passes run."""
        result = p.pop("result")
        p["latencies"] = solved_cell_ms(result)
        p["failed"] = self.check_cells(result, result.spec["seed"])
        return p

    def traced_pass(self, spec: CampaignSpec) -> tuple[dict, dict]:
        before = fixed_point_stats()
        with layertrace.Tracer() as tracer:
            p = campaign_pass(Campaign(spec), workers=1)
        layertrace.record_fixed_point(tracer, before)
        self.tracer = tracer
        layers = layertrace.layer_metrics(
            tracer, campaign_layer_extras(p["result"])
        )
        return self.summarize(p), layers

    def check(self, passes: list[dict]) -> int:
        return sum(p["failed"] for p in passes)

    def peak_rss(self, out: Outcome) -> float:
        if self.workers > 1:
            out.notes.append("peak_rss_mb: largest pool worker")
            return children_usage()[1]
        out.notes.append("peak_rss_mb: benchmark process (inline)")
        return self_peak_rss_mb()

    def measure(self, seconds: float, trace: bool, out: Outcome,
                between=None) -> None:
        try:
            passes = run_passes(lambda k: self.one_pass(k, trace),
                                seconds / 2 if trace else seconds, between)
        finally:
            os.sched_setaffinity(0, self.cpus)
        if trace:
            traced, layers = self.traced_pass(self.spec(0))
            layers["trace.overhead_ratio"] = traced["wall"] / statistics.median(
                p["wall"] for p in passes
            )
            out.metrics.update(layers)
            passes.append(traced)
        else:
            throughput_metrics(passes, out)
            out.metrics["peak_rss_mb"] = self.peak_rss(out)
        out.attempted += sum(p["systems"] for p in passes)
        out.fail(self.check(passes),
                 f"{self.name} cells disagree with the independent re-run")

    def close(self) -> None:
        pass


class DispatchWorkload(SweepWorkload):
    """The sweep_exact generator and ladder, 1680 systems a pass, through
    ``CampaignDispatcher``."""

    #: Not the pass wall: a pass ends on the dispatcher's poll ticks.
    CPU_BOUND = ("cpu_ms_per_system", "latency_p50_ms", "latency_p97_ms",
                 "setup_s")

    def __init__(self):
        super().__init__("dispatch_sweep", "gauss_seidel", DISPATCH_REPLICATES,
                         1, None)

    def spec(self, k: int) -> CampaignSpec:
        # One spec for every pass: a dispatch pass ends on the
        # dispatcher's next poll tick, and the same work keeps the same
        # tick alignment, where fresh systems each pass would move the
        # wall by up to a poll interval (~20% of a pass) at random.
        return super().spec(0)

    def one_pass(self, k: int, traced_run: bool) -> dict:
        p = dispatch_pass(self.spec(k), self.scratch)
        p["latencies"] = solved_cell_ms(p["result"])
        return p

    def traced_pass(self, spec: CampaignSpec) -> tuple[dict, dict]:
        """One dispatch with the parent wrapped and each shard child run
        under ``shard_trace.py``, whose tracer dump is folded in."""
        from repro.batch.dispatch import LocalBackend

        stats_dir = Path(tempfile.mkdtemp(prefix="shard-trace-",
                                          dir=self.scratch))
        before = fixed_point_stats()
        with layertrace.Tracer() as tracer:
            wrapped_launch = LocalBackend.launch
            launched = [0]

            def traced_launch(backend, argv, **kwargs):
                argv = list(argv)
                at = argv.index("-m")
                launched[0] += 1
                stats = stats_dir / f"launch{launched[0]:03d}.json"
                argv[at:at + 2] = [str(BENCH_DIR / "shard_trace.py"),
                                   str(stats)]
                return wrapped_launch(backend, argv, **kwargs)

            LocalBackend.launch = traced_launch
            try:
                result = dispatch_pass(spec, self.scratch)
            finally:
                LocalBackend.launch = wrapped_launch
        layertrace.record_fixed_point(tracer, before)
        result["latencies"] = solved_cell_ms(result["result"])
        for path in sorted(stats_dir.glob("launch*.json")):
            tracer.merge(json.loads(path.read_text()))
        shutil.rmtree(stats_dir, ignore_errors=True)
        self.tracer = tracer
        report = result["report"]
        attempt_wall = sum(sum(s.attempt_walls) for s in report.shards)
        extras = campaign_layer_extras(result["result"])
        extras.update({
            "dispatch.relaunches": report.relaunches,
            "dispatch.launch_overhead_s":
                attempt_wall - result["shard_campaign_s"],
            "dispatch.slot_idle_s":
                report.workers * report.wall_time_s - attempt_wall,
            "transport.retries": report.transport.get("retries", 0),
        })
        return result, layertrace.layer_metrics(tracer, extras)

    def check(self, passes: list[dict]) -> int:
        """Each merged union against one inline run of the spec."""
        reference = Campaign(self.spec(0)).run(workers=1)
        return sum(check_merged(p["result"], reference) for p in passes)

    def peak_rss(self, out: Outcome) -> float:
        out.notes.append("peak_rss_mb: largest shard subprocess")
        return children_usage()[1]


# --------------------------------------------------------------------------
# serve_analyze: POST /analyze over one keep-alive loopback connection
# --------------------------------------------------------------------------


def analyze_body(system) -> bytes:
    return json.dumps({"system": system_to_dict(system)}).encode("utf-8")


def serve_system(seed: int, *key: int):
    """The reference generator at a ladder level, both drawn from
    ``(seed, *key)``."""
    ss = np.random.SeedSequence((seed,) + key)
    rng = np.random.default_rng(ss)
    level = float(LEVELS[int(rng.integers(len(LEVELS)))])
    return random_system(
        RandomSystemSpec(**BASE, utilization=level),
        seed=int(ss.generate_state(1)[0]),
    )


def hit_bytes(miss: bytes) -> bytes:
    """The response a stored system must get: the miss response with only
    its ``store`` field flipped."""
    return miss.replace(b'"store": "miss"', b'"store": "hit"', 1)


def analysis_view(payload: dict) -> bytes:
    return canonical_json({
        "schedulable": payload["schedulable"],
        "converged": payload["converged"],
        "wcrt": [t["wcrt"] for t in payload["transactions"]],
        "deadline": [t["deadline"] for t in payload["transactions"]],
    }).encode("utf-8")


def expected_view(system) -> bytes:
    """:func:`analysis_view` of an in-process ``analyze`` of *system*."""
    ref = analyze(system, config=AnalysisConfig())

    def finite(w: float):
        if np.isnan(w):
            return "NaN"
        if np.isinf(w):
            return "Infinity" if w > 0 else "-Infinity"
        return w

    return canonical_json({
        "schedulable": ref.schedulable,
        "converged": ref.converged,
        "wcrt": [finite(w) for w in ref.transaction_wcrt],
        "deadline": [float(tr.deadline) for tr in system.transactions],
    }).encode("utf-8")


def check_write(system, miss: bytes, hit: bytes) -> int:
    """A fresh system's miss response, its replayed hit response and an
    in-process analysis must agree byte for byte (0 or 1 failure)."""
    try:
        payload = json.loads(miss)
        view = analysis_view(payload)
    except (ValueError, KeyError, TypeError):
        return 1
    ok = (
        payload.get("store") == "miss"
        and hit == hit_bytes(miss)
        and view == expected_view(system)
    )
    return 0 if ok else 1


def check_read(expected_hit: bytes, status: int, body: bytes) -> int:
    return 0 if status == 200 and body == expected_hit else 1


class Traffic:
    """The fixed, seeded request sequence: chunk ``c`` is a function of
    ``(seed, c)`` alone, so every run replays the same requests."""

    def __init__(self, seed: int):
        self.seed = seed
        self.read_bodies = [
            analyze_body(serve_system(seed, 0, j))
            for j in range(SERVE_READ_SYSTEMS)
        ]

    def chunk(self, c: int) -> list[tuple[int, bytes, object]]:
        """``[(read index or -1 for a write, body, write system)]``."""
        rng = np.random.default_rng((self.seed, 1, c))
        writes = rng.random(SERVE_CHUNK) < SERVE_WRITE_SHARE
        reads = rng.integers(SERVE_READ_SYSTEMS, size=SERVE_CHUNK)
        out = []
        for k in range(SERVE_CHUNK):
            if writes[k]:
                system = serve_system(self.seed, 2, c, k)
                out.append((-1, analyze_body(system), system))
            else:
                out.append((int(reads[k]), self.read_bodies[reads[k]], None))
        return out


class SocketClient:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        # http.client writes headers and body in two sends; TCP_NODELAY
        # keeps the client's own Nagle delay out of the measurement, as
        # production HTTP clients do.  The service's stdlib bridge also
        # answers in two sends (headers, then body), and its body waits
        # for this side's delayed ACK: ~40 ms a request, which is the
        # service's cost and is measured.
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, body: bytes) -> tuple[int, bytes]:
        self.conn.request("POST", "/analyze", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class InProcessClient:
    """The same requests through ``ReproServeApp`` via the test client."""

    def __init__(self, store: Path):
        self.client = TestClient(create_app(ServeConfig(store=store)))

    def post(self, body: bytes) -> tuple[int, bytes]:
        response = self.client.post("/analyze", body=body)
        return response.status, response.body

    def stats(self) -> dict:
        return self.client.get("/stats").json()

    def close(self) -> None:
        self.client.close()


def prefill(client, traffic: Traffic) -> list[bytes]:
    """Analyze every read system once; returns the expected hit bodies."""
    expected = []
    for body in traffic.read_bodies:
        status, miss = client.post(body)
        if status != 200:
            raise RuntimeError(f"prefill request answered {status}: {miss!r}")
        expected.append(hit_bytes(miss))
    return expected


def replay(client, traffic: Traffic, expected: list[bytes], *,
           seconds: float | None = None, requests: int | None = None,
           out: Outcome, between=None) -> dict:
    """Closed-loop replay of the sequence over *client*.

    Stops after *requests* requests, or once *seconds* have passed.  Chunk
    bodies are generated, and ``between()`` is called if given, between
    timed chunks; ``wall`` sums the timed chunks only.  Write responses
    are kept for :func:`check_write` on a sample.
    """
    latencies: list[float] = []
    wall = 0.0
    writes: list[tuple[object, bytes]] = []
    write_count = 0
    t_end = time.perf_counter() + (seconds or 0.0)
    c = 0
    clock = time.perf_counter
    while True:
        if between is not None:
            between()
        chunk = traffic.chunk(c)
        if requests is not None:
            chunk = chunk[: requests - len(latencies)]
        results = []
        t_chunk = clock()
        for _read, body, _system in chunk:
            t0 = clock()
            try:
                status, answer = client.post(body)
            except (OSError, http.client.HTTPException) as exc:
                status, answer = 0, repr(exc).encode()
            latencies.append(1e3 * (clock() - t0))
            results.append((status, answer))
        wall += clock() - t_chunk
        for (read, _body, system), (status, answer) in zip(chunk, results):
            out.attempted += 1
            if read >= 0:
                out.fail(check_read(expected[read], status, answer),
                         "read response differs from the stored answer")
            elif status != 200:
                out.fail(1, f"write answered {status}")
            else:
                if write_count % 8 == 0 and len(writes) < SERVE_WRITE_SAMPLES:
                    writes.append((system, answer))
                write_count += 1
        c += 1
        if requests is not None and len(latencies) >= requests:
            break
        if requests is None and clock() >= t_end:
            break
    return {"latencies": latencies, "wall": wall, "writes": writes}


def check_writes(client, writes: list[tuple[object, bytes]],
                 out: Outcome) -> None:
    failures = 0
    for system, miss in writes:
        _status, hit = client.post(analyze_body(system))
        failures += check_write(system, miss, hit)
    out.fail(failures, "write miss/hit/analyze responses disagree")


def proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM this child when the benchmark dies, even
    by SIGKILL, so a killed run cannot leave a service behind."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


PR_SET_PDEATHSIG = 1


class Server:
    """``python -m repro serve`` on the stdlib bridge, loopback, port 0."""

    _LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")

    def __init__(self, store: Path, log: Path):
        self.log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--store", str(store), "--http", "stdlib",
             "--pool-workers", "1"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
            cwd=ROOT, preexec_fn=_die_with_parent,
        )
        line = self.proc.stdout.readline()
        match = self._LISTENING.search(line)
        if match is None:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(match.group(1))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class ServeWorkload:
    """``POST /analyze`` against ``python -m repro serve`` over loopback."""

    tracer: layertrace.Tracer | None = None

    #: Request latency, request rate and set-up (the prefill) wait on the
    #: bridge's ACK stall rather than on CPU work.
    CPU_BOUND = ("cpu_ms_per_system",)

    def setup(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.traffic = Traffic(seed)
        self.server = Server(scratch / "store", scratch / "serve.log")
        self.client = SocketClient(self.server.port)
        self.expected = prefill(self.client, self.traffic)

    def measure(self, seconds: float, trace: bool, out: Outcome,
                between=None) -> None:
        pid = self.server.proc.pid
        if trace:
            sock = replay(self.client, self.traffic, self.expected,
                          requests=SERVE_TRACED_REQUESTS, out=out)
            check_writes(self.client, sock["writes"], out)
            plain = self._in_process(out, traced=False)
            traced, layers = self._in_process(out, traced=True)
            layers["serve.http_ms"] = float(
                np.percentile(sock["latencies"], 50, method="inverted_cdf")
                - np.percentile(plain["latencies"], 50, method="inverted_cdf"))
            layers["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
            out.metrics.update(layers)
            return
        cpu0 = proc_cpu_s(pid)
        run = replay(self.client, self.traffic, self.expected,
                     seconds=seconds, out=out, between=between)
        cpu = proc_cpu_s(pid) - cpu0
        n = len(run["latencies"])
        out.metrics["systems_per_s"] = n / run["wall"]
        out.metrics["cpu_ms_per_system"] = 1e3 * cpu / n
        latency_metrics(run["latencies"], out, "requests")
        out.notes.append("peak_rss_mb: service process")
        out.metrics["peak_rss_mb"] = proc_peak_rss_mb(pid)
        check_writes(self.client, run["writes"], out)

    def _in_process(self, out: Outcome, *, traced: bool):
        """Replay the traced-run prefix through the app in this process,
        from a fresh store with the same prefill."""
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        client = InProcessClient(store)
        try:
            expected = prefill(client, self.traffic)
            if not traced:
                return replay(client, self.traffic, expected,
                              requests=SERVE_TRACED_REQUESTS, out=out)
            before = fixed_point_stats()
            with layertrace.Tracer() as tracer:
                run = replay(client, self.traffic, expected,
                             requests=SERVE_TRACED_REQUESTS, out=out)
            layertrace.record_fixed_point(tracer, before)
            self.tracer = tracer
            served = client.stats()["analyze"]["store_hits"]
            # /stats counts the prefill's requests too (all misses).
            return run, layertrace.layer_metrics(
                tracer, {"store.hits": served}
            )
        finally:
            client.close()
            shutil.rmtree(store, ignore_errors=True)

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.close()


WORKLOADS = {
    "sweep_exact": lambda: SweepWorkload(
        "sweep_exact", "gauss_seidel", EXACT_REPLICATES, 1, check_exact),
    "sweep_verdict": lambda: SweepWorkload(
        "sweep_verdict", "verdict", VERDICT_REPLICATES, 2, check_verdict),
    "serve_analyze": ServeWorkload,
    "dispatch_sweep": DispatchWorkload,
}
