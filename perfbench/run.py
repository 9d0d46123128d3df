#!/usr/bin/env python3
"""scem-rd benchmark: the paper's tables, deep-eps adaptive solves and figure data.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

With ``--trace 0`` it times the workload with tracing off and reports the
end-to-end metrics; with ``--trace 1`` it runs the body once untraced and
once traced, checks that both produced identical outputs, and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give every metric by name and unit, the failure fraction, the sample
counts and the environment. BLAS and OpenMP are pinned to one thread.

Timings are reported in reference seconds: each repetition's measured
times are scaled by a machine-speed probe run just before and after it
(see ``bench_checks.SpeedProbe``); the measured values are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper_tables", "deep_eps", "figures")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up is repeated this often, each in a fresh process, and the median kept
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in this process and print it
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    # internal: answer each line on stdin with a machine-speed factor
    parser.add_argument("--speed-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """One BLAS/OpenMP thread, and scem_rd from the checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def _setup_probe(args) -> int:
    """Child mode: import scem_rd and set the workload up, timed from here."""
    t0 = time.perf_counter()
    from bench_checks import Ledger
    from bench_workloads import WORKLOADS

    WORKLOADS[args.workload](Path(args.setup_probe), args.seed, Ledger()).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _speed_probe() -> int:
    """Child mode: run a probe burst per request, in a process of its own
    so that its memory does not count in the workload's peak."""
    from bench_checks import SpeedProbe

    probe = SpeedProbe()
    for _ in sys.stdin:
        print(probe.factor(), flush=True)
    return 0


class _SpeedProbeProcess:
    """Client of the ``--speed-probe`` child; a context manager that stops it."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", "all",
             "--speed-probe"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def factor(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _measure_setup(args, workdir: Path) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(workdir / f"probe{i}")],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{probe.stderr.strip()}")
        times.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# timed and traced bodies
# ---------------------------------------------------------------------------

@contextmanager
def _recording(recorder):
    """Route every hybrid solve, CLI or direct, through the recorder."""
    import scem_rd.cli
    import scem_rd.scem
    from bench_trace import patch, uninstall

    undo = patch([(scem_rd.cli, "hybrid_solve", recorder.wrap(scem_rd.cli.hybrid_solve))])
    try:
        yield recorder.wrap(lambda *a, **k: scem_rd.scem.hybrid_solve(*a, **k))
    finally:
        uninstall(undo)


def _repetition(workload, recorder, solve) -> tuple[float, tuple]:
    """Run the body once; returns (wall seconds without gate time, outputs)."""
    workload.prepare()
    recorder.new_repetition()
    first_digest = len(recorder.digests)
    excluded = recorder.excluded_s
    t0 = time.perf_counter()
    workload.body(solve)
    wall = time.perf_counter() - t0 - (recorder.excluded_s - excluded)
    return wall, (workload.outputs(), recorder.digests[first_digest:])


def _timed_run(workload, ledger, seconds: float, probe) -> tuple[dict, dict]:
    """Repeat the body for ``seconds``; timings in the probe's reference seconds."""
    import numpy as np

    from bench_checks import SolveRecorder, median, per_solve_latency, tail_percentile

    recorder = SolveRecorder(ledger)
    walls, factors, first = [], [], None
    before = probe.factor()
    start = time.perf_counter()
    with _recording(recorder) as solve:
        while True:
            wall, outputs = _repetition(workload, recorder, solve)
            after = probe.factor()
            walls.append(wall)
            factors.append(0.5 * (before + after))
            before = after
            if first is None:
                first = outputs
            else:
                ledger.record(outputs == first, "a repetition's output differs from the first's")
            workload.check(first=len(walls) == 1)
            if time.perf_counter() - start + wall > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish()
    raw_ms = per_solve_latency(recorder.latencies) * 1e3
    lat_ms = per_solve_latency([np.asarray(rep) * f for rep, f in
                                zip(recorder.latencies, factors)]) * 1e3
    if lat_ms.size == 0:
        raise RuntimeError("no hybrid solve succeeded; nothing to time")
    n = lat_ms.size
    tail = tail_percentile(n)
    raw = {
        "wall_s": median(walls),
        "solve_p50_ms": median(raw_ms),
        "solve_p90_ms": float(np.percentile(raw_ms, 90)),
    }
    values = {
        "wall_s": median(np.asarray(walls) * factors),
        "solve_p50_ms": median(lat_ms),
        "solve_p90_ms": float(np.percentile(lat_ms, 90)),
        "err_max": recorder.err_max,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, {
        "speed": f"times in reference seconds: measured x {min(factors):.3f}-{max(factors):.3f}"
                 f" from machine-speed probes around each repetition",
        "wall_s": f"median of {len(walls)} repetitions, raw {raw['wall_s']:.4g} s",
        "solve_p50_ms": f"over {n} distinct solves, each the median over {len(walls)} "
                        f"repetitions, raw {raw['solve_p50_ms']:.4g} ms",
        "solve_p90_ms": f"raw {raw['solve_p90_ms']:.4g} ms; highest percentile with >= 10 "
                        f"of {n} solves beyond: " + (f"p{tail:g}" if tail else "none"),
        "err_max": "max |composite - closed form| over the example1 solves",
        "peak_rss_mb": "process peak through the last repetition",
    }


def _traced_run(workload, ledger) -> tuple[dict, dict]:
    from bench_checks import SolveRecorder
    from bench_metrics import layer_metrics
    from bench_trace import Tracer, install, uninstall

    recorder = SolveRecorder(ledger)
    with _recording(recorder) as solve:
        cpu0 = time.process_time()
        plain_wall, plain = _repetition(workload, recorder, solve)
        cpu_s = time.process_time() - cpu0 - recorder.excluded_s
    workload.check(first=True)

    tracer = Tracer()
    recorder.pause = tracer.paused
    undo = install(tracer)
    try:
        with _recording(recorder) as solve:
            traced_wall, traced = _repetition(workload, recorder, solve)
    finally:
        uninstall(undo)
    ledger.record(traced == plain, "traced outputs differ from the untraced ones")
    bytes_written = sum(p.stat().st_size for p in workload.out_dir.iterdir())
    workload.finish()
    metrics = layer_metrics(tracer, bytes_written, cpu_s, traced_wall - plain_wall)
    notes = {"trace.overhead_s": f"untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
                                 f"{len(tracer.spans)} spans"}
    return metrics, notes


def _warm_up() -> None:
    """One tiny solve, so lazy imports inside numpy/scipy are not timed."""
    from scem_rd import SolverConfig, example1, hybrid_solve

    hybrid_solve(example1(0.5), SolverConfig(initial_mesh_points=17, adaptive=False))


# ---------------------------------------------------------------------------
# environment and report
# ---------------------------------------------------------------------------

def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src").rglob("*.py"))
    src_hash = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src_hash,
    }


def _run_workload(args) -> int:
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = [] if args.trace else _measure_setup(args, workdir)
        from bench_checks import Ledger, median
        from bench_metrics import END_TO_END, PER_LAYER
        from bench_workloads import WORKLOADS

        ledger = Ledger()
        workload = WORKLOADS[args.workload](workdir / "run", args.seed, ledger)
        if args.trace:
            workload.setup()
            _warm_up()
            values, notes = _traced_run(workload, ledger)
            specs = [(name, unit, f"should move {moves}") for name, unit, _, moves in PER_LAYER]
        else:
            with _SpeedProbeProcess() as probe:
                setup_factor = probe.factor()
                workload.setup()
                _warm_up()
                values, notes = _timed_run(workload, ledger, args.seconds, probe)
            values["setup_s"] = median(setup_times) * setup_factor
            notes["setup_s"] = f"median of {len(setup_times)} fresh-process set-ups, raw " \
                               f"{[round(t, 3) for t in setup_times]}"
            specs = [(name, unit, "") for name, unit, _, _ in END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(_environment(), sort_keys=True))
    if hasattr(workload, "reference_ratio"):
        print(f"varcoef{args.seed}: max |hybrid - solve_bvp| / eps = "
              f"{workload.reference_ratio:.4g} at eps = 1e-4")
    if "speed" in notes:
        print(f"  {notes['speed']}")
    for name, unit, why in specs:
        note = "; ".join(n for n in (notes.get(name), why) if n)
        print(f"  {name:<34} {values[name]:>13.6g} {unit:<5} {note}")
    print(f"  {'failed_frac':<34} {ledger.failed_frac:>13.6g} {'1':<5} "
          f"{ledger.failed} of {ledger.attempted} operations")
    for note in ledger.notes[:20]:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=3 * CHILD_TIMEOUT_S, check=False,
        )
        worst = max(worst, child.returncode)
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    _pin_environment()
    if args.speed_probe:
        return _speed_probe()
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        return _setup_probe(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
