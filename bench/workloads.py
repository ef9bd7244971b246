"""The benchmark's workloads: inputs made from a seed, one operation each, and
the checks every operation's output must pass.

Each workload's inputs derive from the workload seed and the operation's
index only, so the same seed replays the same operations, traced or not.
Operations call duolink through its module attributes (`harness.run_trial`,
`cli.main`) so that a `spans.Tracer` sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import NormalDist
from time import perf_counter

import numpy as np

from duolink import cli, harness

Z95 = NormalDist().inv_cdf(0.975)
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# grid points whose files a sweep operation deletes before its resume pass
RESUMED = slice(None, None, 2)


def op_seed(seed: int, index: int) -> int:
    """64-bit channel seed of operation `index` of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def with_seed(config: dict, seed: int, index: int) -> dict:
    """Copy of a JSON trial config carrying operation `index`'s channel seed."""
    return {**config, "channel": {**config["channel"], "seed": op_seed(seed, index)}}


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Outcome:
    """One operation: its parts attempted and failed, the paired symbols of
    the parts that passed, its timed wall and CPU seconds, canonical report
    dicts, and why parts failed."""

    attempted: int
    failed: int = 0
    symbols: int = 0
    symbols_attempted: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    reports: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @contextlib.contextmanager
    def timed(self):
        """Add the wall and CPU seconds of the `with` block to this operation."""
        wall, cpu = perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.wall += perf_counter() - wall
            self.cpu += cpu_seconds() - cpu


# ---------------------------------------------------------------------------
# output checks


def wilson(errors: int, trials: int) -> tuple[float, float]:
    p = errors / trials
    z2 = Z95 * Z95
    mid = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = Z95 / (1 + z2 / trials) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return mid - half, mid + half


def check_report(r, lag: int | None, gain: bool) -> list[str]:
    """Problems found in one BERReport (empty when it is correct).

    `lag` is the delay the receiver must recover (None: not checked); `gain`
    requires the compensated BER below the baseline with disjoint intervals.
    """
    problems = []
    bits = r.bits_per_channel
    if sum(r.case_counts) != r.valid_symbols:
        problems.append(f"case counts {r.case_counts} do not sum to {r.valid_symbols}")
    if bits != 2 * r.valid_symbols:
        problems.append(f"bits_per_channel {bits} != 2*valid_symbols")
    pairs = [("compensated", r.errors_compensated, r.ber_compensated, r.ci_compensated)]
    if r.ber_uncompensated is not None:
        pairs.append(("uncompensated", r.errors_uncompensated, r.ber_uncompensated,
                      r.ci_uncompensated))
    for label, errs, ber, ci in pairs:
        errors = sum(errs)
        if ber != errors / (2 * bits):
            problems.append(f"ber_{label} {ber} != {errors}/{2 * bits}")
        want = wilson(errors, 2 * bits)
        if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15) for a, b in zip(ci, want)):
            problems.append(f"ci_{label} {ci} != recomputed {want}")
    if lag is not None and (r.estimated_lag != lag or not r.lag_confident):
        problems.append(f"lag {r.estimated_lag} (confident={r.lag_confident}) != {lag}")
    if gain and not (r.ber_uncompensated is not None
                     and r.ber_compensated < r.ber_uncompensated
                     and r.ci_compensated[1] < r.ci_uncompensated[0]):
        problems.append(f"no resolved gain: {r.ci_compensated} vs {r.ci_uncompensated}")
    return problems


def golden_evaluations(lo: float, hi: float, tol: float) -> int:
    """Objective evaluations of a golden-section search on [lo, hi] to `tol`:
    two initial probes, then one per bracket shrink by 1/phi."""
    width = hi - lo
    if width < tol:
        return 1
    shrinks = 0
    while width * INV_GOLDEN**shrinks >= tol:
        shrinks += 1
    return 2 + shrinks


def _quiet(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class TrialWorkload:
    """One `run_trial` per operation, each with its own channel seed."""

    name: str
    config: dict
    parts_per_op = 1

    def trial_config(self, seed: int, index: int):
        return harness.trial_config_from_dict(with_seed(self.config, seed, index))

    def prepare(self, seed: int, out_dir: Path):
        os.makedirs(out_dir, exist_ok=True)
        return self.trial_config(seed, 0)

    def peak_config(self, seed: int):
        return self.trial_config(seed, 0)

    def check(self, report) -> list[str]:
        return check_report(report, self.config["channel"]["delay_offset"], gain=True)

    def run(self, seed: int, index: int, work_dir: Path, tracer=None) -> Outcome:
        cfg = self.trial_config(seed, index)
        out = Outcome(attempted=1, symbols_attempted=cfg.n_symbols)
        with out.timed():
            report = harness.run_trial(cfg)
        out.reports.append(report.to_dict())
        out.problems = self.check(report)
        if out.problems:
            out.failed = 1
        else:
            out.symbols = cfg.n_symbols
        return out


@dataclass(frozen=True)
class SweepWorkload:
    """`duolink sweep` over a grid, then half the point files deleted and a
    resume pass. A part is one grid point returned by one pass."""

    name: str
    config: dict
    axes: dict
    workers: int

    @property
    def points(self) -> int:
        return math.prod(len(v) for v in self.axes.values())

    @property
    def parts_per_op(self) -> int:
        return 2 * self.points

    def grid(self, seed: int, index: int):
        base = harness.trial_config_from_dict(with_seed(self.config, seed, index))
        return harness.sweep_configs(base, self.axes)

    def prepare(self, seed: int, out_dir: Path):
        os.makedirs(out_dir, exist_ok=True)
        return self.grid(seed, 0)

    def peak_config(self, seed: int):
        return self.grid(seed, 0)[0]

    def check(self, report) -> list[str]:
        return check_report(report, report.config.channel.delay_offset, gain=True)

    def run(self, seed: int, index: int, work_dir: Path, tracer=None) -> Outcome:
        cfg_path = work_dir / f"sweep-{index}.json"
        out_dir = work_dir / f"sweep-{index}"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({**with_seed(self.config, seed, index), "sweep": self.axes}, fh)
        argv = ["sweep", "--config", str(cfg_path), "--out", str(out_dir),
                "--workers", str(self.workers)]
        n = self.config["n_symbols"]
        out = Outcome(attempted=self.parts_per_op, symbols_attempted=self.parts_per_op * n)
        try:
            passes = []
            for tag in ("first", "resume"):
                if tracer is not None:
                    tracer.tag = tag
                with out.timed():
                    if tag == "resume":
                        for path in sorted(out_dir.glob("point_*.json"))[RESUMED]:
                            path.unlink()
                    rc, _ = _quiet(argv)
                if rc != 0:
                    out.problems.append(f"{tag} pass exited {rc}")
                passes.append(self._read(out_dir))
        finally:
            if tracer is not None:
                tracer.tag = ""
            shutil.rmtree(out_dir, ignore_errors=True)
            cfg_path.unlink()
        (first_csv, first), (resume_csv, resumed) = passes
        if resume_csv is None or resume_csv != first_csv or resume_csv.count("\n") != self.points + 1:
            out.problems.append("sweep.csv is missing, short or differs between the passes")
        if out.problems:
            out.failed = out.attempted
            return out
        for reports, other in ((first, None), (resumed, first)):
            for i in range(self.points):
                report = reports.get(i)
                if report is None:
                    problems = [f"point {i} missing"]
                else:
                    problems = self.check(report)
                    if other is not None and (
                            i not in other or report.to_dict() != other[i].to_dict()):
                        problems.append(f"resumed point {i} differs from its first-pass report")
                if problems:
                    out.failed += 1
                    out.problems += problems
                else:
                    out.symbols += n
                    out.reports.append(report.to_dict())
        return out

    @staticmethod
    def _read(out_dir: Path):
        reports = {}
        for path in sorted(out_dir.glob("point_*.json")):
            with open(path, encoding="utf-8") as fh:
                reports[int(path.stem.split("_")[1])] = harness.BERReport.from_dict(json.load(fh))
        csv = out_dir / "sweep.csv"
        return (csv.read_text(encoding="utf-8") if csv.exists() else None), reports


@dataclass(frozen=True)
class AdaptWorkload(TrialWorkload):
    """`duolink adapt-kappa` per operation; a part is one kappa evaluation,
    each a `run_trial` without baseline on the same channel realization."""

    lo: float
    hi: float
    tol: float

    @property
    def parts_per_op(self) -> int:
        return golden_evaluations(self.lo, self.hi, self.tol)

    def peak_config(self, seed: int):
        # the search's first probe
        cfg = self.trial_config(seed, 0)
        kappa = self.hi - INV_GOLDEN * (self.hi - self.lo)
        return replace(cfg, compare_baseline=False,
                       estimator=replace(cfg.estimator, kappa=kappa, kappa_infinite=False))

    def check(self, report) -> list[str]:
        return check_report(report, self.config["channel"]["delay_offset"], gain=False)

    def run(self, seed: int, index: int, work_dir: Path, tracer=None) -> Outcome:
        cfg_path = work_dir / f"adapt-{index}.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(with_seed(self.config, seed, index), fh)
        argv = ["adapt-kappa", "--config", str(cfg_path),
                "--lo", repr(self.lo), "--hi", repr(self.hi), "--tol", repr(self.tol)]
        out = Outcome(attempted=self.parts_per_op,
                      symbols_attempted=self.parts_per_op * self.config["n_symbols"])
        try:
            with out.timed():
                rc, text = _quiet(argv)
        finally:
            cfg_path.unlink()
        result = json.loads(text) if rc == 0 else None
        if result is None:
            out.problems.append(f"adapt-kappa exited {rc}")
        elif result["evaluations"] != self.parts_per_op:
            out.problems.append(
                f"{result['evaluations']} evaluations, golden section needs {self.parts_per_op}")
        elif not (self.lo <= result["kappa_opt"] <= self.hi and 0 < result["ber_at_opt"] < 0.5):
            out.problems.append(f"kappa_opt or ber_at_opt out of range: {result}")
        if out.problems:
            out.failed = out.attempted
        else:
            out.symbols = out.symbols_attempted
            out.reports.append(result)
        return out


_A = {
    "n_symbols": 1_000_000,
    "channel": {"sigma_common": 0.3, "sigma_additive": 0.15, "delay_offset": 3},
    "vv": {"window": 1, "remove_mean": False},
    "estimator": {"kappa_infinite": True},
    "max_lag": 16,
    "compare_baseline": True,
}
_B = {
    "n_symbols": 4_000_000,
    "channel": {"sigma_common": 0.3, "sigma_additive": 0.12, "phase_model": "shaped",
                "cpe_cutoff": 1e8, "delay_offset": -5},
    "vv": {"window": 33, "remove_mean": True},
    "estimator": {"kappa": 8.0},
    "max_lag": 16,
    "compare_baseline": True,
}
_C = {
    "n_symbols": 200_000,
    "channel": {"sigma_common": 0.3, "sigma_additive": 0.15},
    "vv": {"window": 1, "remove_mean": False},
    "estimator": {"kappa_infinite": True},
    "max_lag": 128,
}
_C_AXES = {"delay_offset": [-120, -90, -30, 0, 30, 90, 120], "sigma_common": [0.25, 0.35]}
_D = {
    "n_symbols": 200_000,
    "channel": {"sigma_common": 0.35, "sigma_additive": 0.15, "delay_offset": 3},
    "vv": {"window": 1, "remove_mean": False},
    "estimator": {"kappa": 0.0},
    "max_lag": 16,
}
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = {w.name: w for w in (
    TrialWorkload("trial-iid-w1", _A),
    TrialWorkload("trial-shaped-w33", _B),
    SweepWorkload("sweep-lag-serial", _C, _C_AXES, workers=1),
    SweepWorkload("sweep-lag-par", _C, _C_AXES, workers=NPROC),
    AdaptWorkload("adapt-kappa", _D, lo=0.0, hi=20.0, tol=0.05),
)}
