"""duolink benchmark: one workload, timed end to end with tracing off, or
layer by layer from a traced run.

    python3 bench/run.py --workload trial-iid-w1 --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository: it imports duolink from the
checkout's `src/` and builds nothing. One caller runs operations in a closed
loop (each starts when the previous one has finished) for `--seconds`.

--trace 0 reports the end-to-end metrics: `msym_per_s` and `cpu_s_per_msym`
are medians over the run's operations, which run in SEGMENTS fresh
interpreters one after another (see segment.py); `peak_b_per_sym` comes from
one untimed operation under tracemalloc; `setup_s` is the median time of
fresh interpreters to become ready (see setup_probe.py).

--trace 1 runs the same operations untraced for half the time, then traced
for the other half, and reports the per-layer metrics of `spans.PER_LAYER`.
The spans are written to `.bench_out/` in the checkout.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The lines before it give every metric
with its unit, `fail_frac`, `reports_sha256` (sha256 of operation 0's
canonical report JSON; equal inputs give equal hashes, traced or not) and the
environment. The benchmark sets no thread-count variable: it reports the
BLAS threading it finds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# Throughput differs by up to ~15% between interpreter processes running the
# same operations, so a timed run samples several.
SEGMENTS = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "msym_per_s": "Msym/s",
    "cpu_s_per_msym": "s/Msym",
    "peak_b_per_sym": "B/sym",
    "setup_s": "s",
}


def use_checkout_source() -> bool:
    """Put the checkout's src/ first on sys.path; False if it holds no duolink."""
    if not (SRC / "duolink" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def measure_setup(name: str, seed: int, work_dir: Path, probes: int) -> float:
    """Median seconds from spawning a fresh interpreter until it is ready."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(probes + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), name, str(seed), str(work_dir / f"setup-{k}")],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if k:  # the first spawn only warms the file cache
            times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def measure_peak(wl, seed: int) -> tuple[float, list[str]]:
    """tracemalloc peak of one operation per symbol, and that operation's problems."""
    from duolink import harness

    cfg = wl.peak_config(seed)
    tracemalloc.start()
    try:
        report = harness.run_trial(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / cfg.n_symbols, wl.check(report)


def closed_loop(wl, seed: int, seconds: float, work_dir: Path, tracer=None,
                first: int = 0) -> list:
    """Operations first, first+1, ... one after another until `seconds` have passed."""
    from workloads import Outcome

    deadline = time.perf_counter() + seconds
    outcomes = []
    while not outcomes or time.perf_counter() < deadline:
        index = first + len(outcomes)
        if tracer is not None:
            tracer.op = index
        try:
            outcome = wl.run(seed, index, work_dir, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            outcome = Outcome(attempted=wl.parts_per_op, failed=wl.parts_per_op,
                              problems=[f"operation {index} raised {exc!r}"])
        outcomes.append(outcome)
    return outcomes


def timed_segments(wl, seed: int, seconds: float, work_dir: Path) -> list:
    """closed_loop over SEGMENTS fresh interpreters, one after another,
    each running for seconds/SEGMENTS and continuing the operation indices."""
    from workloads import Outcome

    with open(work_dir / "workload.pickle", "wb") as fh:
        pickle.dump(wl, fh)
    script = Path(__file__).with_name("segment.py")
    outcomes = []
    for _ in range(SEGMENTS):
        proc = subprocess.run(
            [sys.executable, str(script), str(work_dir), str(seed), repr(seconds / SEGMENTS),
             str(len(outcomes))],
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"segment failed: {proc.stderr.strip()[-2000:]}")
        outcomes += [Outcome(**d) for d in json.loads(proc.stdout.splitlines()[-1])]
    return outcomes


def msym_per_s(outcomes) -> float:
    return statistics.median(o.symbols / o.wall / 1e6 if o.wall > 0 else 0.0 for o in outcomes)


def cpu_s_per_msym(outcomes) -> float:
    per_op = [o.cpu / (o.symbols_attempted / 1e6) for o in outcomes if o.symbols_attempted]
    return statistics.median(per_op) if per_op else 0.0


def reports_sha256(outcome) -> str:
    text = json.dumps(outcome.reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serial_point_seconds(wl, seed: int) -> list[float]:
    """Wall time of each grid point of operation 0, run one after another."""
    from duolink import harness

    times = []
    for cfg in wl.grid(seed, 0):
        start = time.perf_counter()
        harness.run_trial(cfg)
        times.append(time.perf_counter() - start)
    return times


def _untraced(wl, seed, seconds, work_dir, probes):
    setup_s = measure_setup(wl.name, seed, work_dir, probes)
    peak, peak_problems = measure_peak(wl, seed)
    outcomes = timed_segments(wl, seed, seconds, work_dir)
    metrics = {
        "msym_per_s": msym_per_s(outcomes),
        "cpu_s_per_msym": cpu_s_per_msym(outcomes),
        "peak_b_per_sym": peak,
        "setup_s": setup_s,
    }
    return {
        "metrics": {name: (value, END_TO_END[name]) for name, value in metrics.items()},
        "attempted": 1 + sum(o.attempted for o in outcomes),
        "failed": bool(peak_problems) + sum(o.failed for o in outcomes),
        "problems": peak_problems + [p for o in outcomes for p in o.problems],
        "sha": reports_sha256(outcomes[0]),
        "sha_agrees": True,
    }


def _traced(wl, seed, seconds, work_dir):
    from spans import PER_LAYER, Tracer, layer_metrics
    from workloads import RESUMED, SweepWorkload

    plain = closed_loop(wl, seed, seconds / 2, work_dir)
    ref = serial_point_seconds(wl, seed) if isinstance(wl, SweepWorkload) else None
    with Tracer(work_dir / "spans") as tracer:
        traced = closed_loop(wl, seed, seconds / 2, work_dir, tracer)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(asdict(span)) + "\n")
    sweep = None if ref is None else {
        "workers": wl.workers,
        "serial_s": len(traced) * (sum(ref) + sum(ref[RESUMED])),
        "resume_requested": len(traced) * wl.points,
    }
    traced_rate = msym_per_s(traced)
    overhead = msym_per_s(plain) / traced_rate - 1 if traced_rate > 0 else 0.0
    metrics = layer_metrics(tracer.spans, len(traced),
                            max(1, sum(o.symbols_attempted for o in traced)), sweep, overhead)
    both = plain + traced
    return {
        "metrics": {name: (value, PER_LAYER[name][0]) for name, value in metrics.items()},
        "attempted": sum(o.attempted for o in both),
        "failed": sum(o.failed for o in both),
        "problems": [p for o in both for p in o.problems],
        "sha": reports_sha256(traced[0]),
        "sha_agrees": reports_sha256(plain[0]) == reports_sha256(traced[0]),
    }


def run(wl, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Run workload `wl` and return its metrics, counts, problems and report hash."""
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        if trace:
            return _traced(wl, seed, seconds, work_dir)
        return _untraced(wl, seed, seconds, work_dir, probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def report(result: dict) -> None:
    """Print the human-readable lines, then the JSON result line."""
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<44} {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_frac':<44} {failed / attempted:.6g} frac ({failed}/{attempted})")
    print(f"{'reports_sha256':<44} {result['sha']}"
          + ("" if result["sha_agrees"] else "  (traced and untraced runs disagree)"))
    print("env " + json.dumps(environment(), sort_keys=True))
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and result["sha_agrees"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_source():
        print(f"bench: no duolink package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report(run(wl, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
