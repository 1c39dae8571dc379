"""The repository's benchmark: one command, four workloads.

Measure one workload (run from the repository root)::

    python3 perfbench/run.py --workload sweep_exact --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate traced pass.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it say where each number comes from (sample counts, which process the
RSS is of).

Check steadiness (two sets of runs, each metric's median, quartiles and
IQR/median, and whether both sets agree within the declared bounds)::

    python3 perfbench/run.py --steady 10 --workload sweep_exact

See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"

#: Wall-clock ceiling of one benchmark run driven by ``--steady``.
RUN_TIMEOUT_S = 300


def _terminate(signum, _frame):
    # SIGTERM unwinds like Ctrl-C: every ``finally`` reaps its children
    # and removes its scratch directory on the way out.
    raise SystemExit(128 + signum)


def declared_metrics(trace: bool) -> dict[str, str]:
    contract = json.loads(CONTRACT.read_text())
    return {
        m["name"]: m["unit"]
        for m in contract["per_layer" if trace else "end_to_end"]
    }


def scratch_dir(workload: str) -> Path:
    from workloads import TMP_ROOT

    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def stop(proc: subprocess.Popen) -> None:
    """End a benchmark child: SIGTERM first, so that it reaps its own
    children and removes its scratch directory, SIGKILL after 30 s."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def setup_only(workload: str, seed: int) -> int:
    """Set the workload up, say READY, tear it down (a setup_s sample)."""
    from workloads import WORKLOADS

    scratch = scratch_dir(workload)
    instance = WORKLOADS[workload]()
    try:
        instance.setup(seed, scratch)
        print("READY", flush=True)
    finally:
        instance.close()
        remove_scratch(scratch)
    return 0


def setup_sample(workload: str, seed: int, cpu: int) -> float:
    """Seconds from spawning a fresh interpreter, pinned to *cpu*, to its
    READY line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, cwd=ROOT,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait(timeout=60)
    finally:
        stop(proc)
        proc.stdout.close()
    if line.strip() != b"READY" or status != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {status})")
    return elapsed


def refer_to_reference_host(metrics: dict[str, float], names, units,
                            speed: HostSpeed, notes: list[str]) -> None:
    """Refer the CPU-bound figures *names* to the reference host speed:
    rates (unit ``1/s``) times the run's slowdown, times divided by it."""
    slowdown = speed.slowdown()
    notes.append(
        f"host slowdown {slowdown:.4f} (mean of {len(speed.times)} "
        f"reference-kernel times / {REFERENCE_S} s); as measured: "
        + ", ".join(f"{name}={metrics[name]:.6g}" for name in names)
    )
    for name in names:
        if units[name] == "1/s":
            metrics[name] *= slowdown
        else:
            metrics[name] /= slowdown


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import SETUP_SAMPLES, WORKLOADS, Outcome

    declared = declared_metrics(trace)
    out = Outcome()
    cpus = sorted(os.sched_getaffinity(0))
    samples: list[float] = []
    # One host-speed record for the set-up samples, one for the timed
    # work: each figure is referred by the host speed of its own moments.
    setup_speed, speed = HostSpeed(), HostSpeed()

    def sample_setup(count: int) -> None:
        # The samples take the CPUs in turn, as inline passes do, so that
        # a slow episode on one CPU sets at most its share of them; half
        # come before the measurement and half after, so that they span
        # the run rather than one moment of it.
        for _ in range(count):
            cpu = cpus[len(samples) % len(cpus)]
            setup_speed.sample(2)
            samples.append(setup_sample(workload, seed, cpu))

    if not trace:
        sample_setup(SETUP_SAMPLES // 2)
    scratch = scratch_dir(workload)
    instance = WORKLOADS[workload]()
    try:
        instance.setup(seed, scratch)
        if trace:
            instance.measure(seconds, trace, out)
        else:
            instance.measure(seconds, trace, out, between=speed.step)
            speed.step()
    finally:
        instance.close()
        remove_scratch(scratch)
    if not trace:
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        out.notes.append(
            "setup_s: median of " + ", ".join(f"{s:.3f}" for s in samples)
            + " s (fresh interpreter to first timed call)"
        )
        out.metrics["setup_s"] = statistics.median(samples)
        timed = tuple(n for n in instance.CPU_BOUND if n != "setup_s")
        refer_to_reference_host(out.metrics, timed, declared, speed,
                                out.notes)
        if "setup_s" in instance.CPU_BOUND:
            refer_to_reference_host(out.metrics, ("setup_s",), declared,
                                    setup_speed, out.notes)
    if set(out.metrics) != set(declared):
        raise RuntimeError(
            f"{workload} measured {sorted(out.metrics)}, BENCHMARK.json "
            f"declares {sorted(declared)}"
        )
    for note in out.notes:
        print(note)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


# --------------------------------------------------------------------------
# Steadiness mode
# --------------------------------------------------------------------------


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def steady(workloads: list[str], runs: int, seed: int, seconds: int,
           trace: bool) -> int:
    """Two sets of *runs* runs per workload, seeds ``seed .. seed+runs-1``
    in each; every end-to-end metric, ``setup_s`` included, must keep its
    IQR/median within its bound in both sets, and the two sets' medians
    must differ by no more than the bound, in either direction."""
    contract = json.loads(CONTRACT.read_text())
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    ok = True
    for workload in workloads:
        sets: list[dict[str, list[float]]] = []
        for _ in range(2):
            values: dict[str, list[float]] = {}
            for i in range(runs):
                argv = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed + i),
                    "--seconds", str(seconds), "--trace", str(int(trace)),
                ]
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, cwd=ROOT)
                try:
                    stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
                finally:
                    stop(proc)
                took = time.perf_counter() - t0
                lines = stdout.decode().strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(stderr.decode())
                    print(f"{workload}: run failed (exit {proc.returncode})")
                    return 1
                result = json.loads(lines[-1])
                if not result["correct"]:
                    print(f"{workload}: seed {seed + i}: "
                          f"{result['failed']} failed operations")
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"{workload} seed {seed + i} ({took:.0f} s): " + " ".join(
                    f"{name}={metric['value']:.5g}"
                    for name, metric in result["metrics"].items()
                ), flush=True)
            sets.append(values)
        print(f"== {workload}: {runs} runs x 2 sets, {seconds} s each",
              flush=True)
        for name in sets[0]:
            first = spread(sets[0][name])
            second = spread(sets[1][name])
            line = (
                f"  {name:<28} median {first[0]:.6g} / {second[0]:.6g}  "
                f"q1-q3 {first[1]:.6g}-{first[2]:.6g}  "
                f"iqr/median {first[3]:.4f} / {second[3]:.4f}"
            )
            bound = bounds.get(name)
            if bound is not None:
                sign = 1.0 if bound["better"] == "lower" else -1.0
                shift = sign * (second[0] - first[0]) / first[0]
                verdicts = []
                if max(first[3], second[3]) > bound["bound"]:
                    verdicts.append("SPREAD")
                if abs(shift) > bound["bound"]:
                    verdicts.append("SHIFT")
                if verdicts:
                    ok = False
                line += (
                    f"  worse-by {shift:+.4f} (bound {bound['bound']})  "
                    + (" ".join(verdicts) or "ok")
                )
            print(line, flush=True)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="run two sets of RUNS runs and report spreads")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not CONTRACT.is_file():
        print(f"error: {SRC / 'repro'} and {CONTRACT} are required; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    contract = json.loads(CONTRACT.read_text())
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds or contract["run_seconds"]

    if args.steady:
        return steady([args.workload] if args.workload else names,
                      args.steady, args.seed, seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    return run_once(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
