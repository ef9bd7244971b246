"""Spans recorded around duolink's public functions, and the per-layer metrics
they give.

A `Tracer` replaces every public function of the seven duolink modules, at
each module-level name a caller looks it up by (`duolink.harness.extract_phase`
as well as `duolink.cpe.extract_phase`), with a wrapper that records one span
per call. Leaving the `with` block puts the original objects back. Nothing
under `src/` changes.

Sweep workers forked by `run_sweep` inherit the wrappers; each worker appends
its finished span trees to a file in the tracer's sink directory, and the
parent reads them back when the block ends. `time.perf_counter` is the
system-wide monotonic clock on Linux, so worker spans share the parent's
time base.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

MODULES = ("qpsk", "channel", "cpe", "compensation", "alignment", "harness", "cli")

# Small values kept from a call's result (never the result itself, which can
# hold arrays of hundreds of MB).
OBSERVE = {
    "alignment.estimate_delay": lambda r: [float(r.peak_correlation), bool(r.confident)],
    "alignment.adapt_kappa": lambda r: [int(r.evaluations)],
}

# name -> (unit, better, which end-to-end metric it should move, on which
# workload). Workloads: A trial-iid-w1, B trial-shaped-w33, C the lag sweep
# (sweep-lag-serial / sweep-lag-par), D adapt-kappa.
PER_LAYER = {
    "qpsk.self_ms_per_msym": ("ms/Msym", "lower", "msym_per_s on A most, then B and D; not C"),
    "qpsk.quadrant_indices.decisions_per_sym": ("count", "lower", "msym_per_s on A, B, D (10 per symbol with baseline, 8 without)"),
    "qpsk.map_symbols.ms_per_msym": ("ms/Msym", "lower", "msym_per_s on A most, then B and D"),
    "qpsk.demap_symbols.ms_per_msym": ("ms/Msym", "lower", "msym_per_s on A most, then B and D"),
    "channel.self_ms_per_msym": ("ms/Msym", "lower", "msym_per_s on B (shaped FFT)"),
    "channel.gen_common_phase.ms_per_msym": ("ms/Msym", "lower", "msym_per_s on B (shaped FFT)"),
    "channel.apply_channel.calls_per_op": ("count", "lower", "msym_per_s on D (15 per search: one realization re-simulated)"),
    "cpe.self_ms_per_msym": ("ms/Msym", "lower", "msym_per_s on B most (window=33)"),
    "cpe.extract_phase.ms_per_msym": ("ms/Msym", "lower", "msym_per_s on B most (window=33)"),
    "cpe.extract_phase.calls_per_op": ("count", "lower", "msym_per_s on B most (6 per trial with baseline, 4 without)"),
    "compensation.self_ms_per_msym": ("ms/Msym", "lower", "msym_per_s on B and D (finite kappa); small on A"),
    "compensation.estimate_common_phase.ms_per_msym": ("ms/Msym", "lower", "msym_per_s on B and D; small on A"),
    "compensation.apply_compensation.ms_per_msym": ("ms/Msym", "lower", "msym_per_s on B and D; small on A"),
    "alignment.self_ms_per_msym": ("ms/Msym", "lower", "msym_per_s and cpu_s_per_msym on C; about 12% of A"),
    "alignment.estimate_delay.ms_per_msym": ("ms/Msym", "lower", "msym_per_s and cpu_s_per_msym on C"),
    "alignment.estimate_delay.peak_corr_min": ("corr", "higher", "quality value: must stay the same"),
    "alignment.estimate_delay.confident_frac": ("frac", "higher", "quality value: must stay the same"),
    "alignment.adapt_kappa.evaluations": ("count", "lower", "count value on D: must stay the same"),
    "harness.self_ms_per_msym": ("ms/Msym", "lower", "msym_per_s on A"),
    "harness.classify_cases.ms_per_msym": ("ms/Msym", "lower", "msym_per_s on A"),
    "harness.run_sweep.parallel_eff": ("frac", "higher", "msym_per_s and cpu_s_per_msym on C"),
    "harness.run_sweep.resume_hit_frac": ("frac", "higher", "msym_per_s on C"),
    "harness.emit.ms": ("ms", "lower", "msym_per_s on C"),
    "cli.self_ms_per_op": ("ms/op", "lower", "setup_s, and msym_per_s on C and D"),
    "trace.overhead_frac": ("frac", "lower", "none: traced vs untraced msym_per_s of the same run"),
}


@dataclass
class Span:
    """One call. `parent` is the enclosing span's id in the same process;
    `op` and `tag` are the benchmark operation and phase it ran in; `size` is
    the first argument's element count; `value` is what OBSERVE kept."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int
    tag: str
    size: int = 0
    value: list | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def targets():
    """(module, attribute, function) for every public duolink function bound
    at module level in one of the seven modules."""
    for mod_name in MODULES:
        module = importlib.import_module(f"duolink.{mod_name}")
        for attr, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__.startswith("duolink.")):
                yield module, attr, obj


class Tracer:
    """Context manager that wraps duolink's public functions while active and
    keeps the spans they record in `spans`."""

    def __init__(self, sink_dir: Path):
        self.spans: list[Span] = []
        self.op = 0
        self.tag = ""
        self._sink = Path(sink_dir)
        self._owner = self._pid = os.getpid()
        self._stack: list[int] = []
        self._count = 0
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        self._sink.mkdir(parents=True, exist_ok=True)
        for module, attr, fn in targets():
            setattr(module, attr, self._wrap(fn))
            self._saved.append((module, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        for path in sorted(self._sink.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(**json.loads(line)) for line in fh)
            path.unlink()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                self._forked()
            self._count += 1
            sid = (self._pid << 32) | self._count
            parent = self._stack[-1] if self._stack else None
            size = int(getattr(args[0], "size", 0)) if args else 0
            value = None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    value = observe(result)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(
                    Span(sid, parent, name, start, end, self.op, self.tag, size, value))
                if not self._stack and self._pid != self._owner:
                    self._flush()

        return wrapper

    def _forked(self) -> None:
        # a forked worker starts with a copy of the parent's open spans
        self._pid = os.getpid()
        self._stack = []
        self.spans = []

    def _flush(self) -> None:
        with open(self._sink / f"spans-{self._pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
        self.spans = []


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end)
            for s in spans}


def layer_metrics(spans: list[Span], ops: int, symbols: int, sweep: dict | None = None,
                  overhead_frac: float = 0.0) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of `ops` operations over
    `symbols` paired symbols. A metric whose function never ran is 0.

    `sweep` (sweep workloads only) holds `workers`, `resume_requested` (points
    asked for in all resume passes) and `serial_s` (serial per-point time
    summed over every point the sweeps computed).
    """
    msym = symbols / 1e6
    own = self_times(spans)
    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        self_by_layer[s.layer] += own[s.id]

    def total_ms(name):
        return 1e3 * sum(s.end - s.start for s in by_name[name])

    delays = [s.value for s in by_name["alignment.estimate_delay"] if s.value is not None]
    searches = [s.value[0] for s in by_name["alignment.adapt_kappa"] if s.value is not None]
    emits = by_name["harness.emit"]
    sweep_wall = sum(s.end - s.start for s in by_name["harness.run_sweep"])
    parallel_eff = resume_hit = 0.0
    if sweep and sweep_wall > 0:
        parallel_eff = sweep["serial_s"] / (sweep["workers"] * sweep_wall)
        recomputed = sum(1 for s in by_name["harness.run_trial"] if s.tag == "resume")
        resume_hit = 1.0 - recomputed / sweep["resume_requested"]

    out = {}
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest == "self_ms_per_msym":
            out[name] = 1e3 * self_by_layer[layer] / msym
        elif rest.endswith(".ms_per_msym"):
            out[name] = total_ms(name[: -len(".ms_per_msym")]) / msym
        elif rest.endswith(".calls_per_op"):
            out[name] = len(by_name[name[: -len(".calls_per_op")]]) / ops
    out.update({
        "qpsk.quadrant_indices.decisions_per_sym":
            sum(s.size for s in by_name["qpsk.quadrant_indices"]) / symbols,
        "alignment.estimate_delay.peak_corr_min": min((d[0] for d in delays), default=0.0),
        "alignment.estimate_delay.confident_frac":
            sum(d[1] for d in delays) / len(delays) if delays else 0.0,
        "alignment.adapt_kappa.evaluations": sum(searches) / len(searches) if searches else 0.0,
        "harness.run_sweep.parallel_eff": parallel_eff,
        "harness.run_sweep.resume_hit_frac": resume_hit,
        "harness.emit.ms": total_ms("harness.emit") / len(emits) if emits else 0.0,
        "cli.self_ms_per_op": 1e3 * self_by_layer["cli"] / ops,
        "trace.overhead_frac": overhead_frac,
    })
    return {name: out[name] for name in PER_LAYER}
