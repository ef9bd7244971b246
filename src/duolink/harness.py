"""Monte Carlo trial engine, four-case classifier, sweeps and result emission.

A trial runs two independent random payloads through the shared-phase channel
and detects them twice from the identical noise realization: once with plain
per-channel fourth-power carrier phase estimation (the baseline) and once
with the joint common-phase compensation. The paired construction makes the
BER difference a low-variance estimate of the algorithm's effect.

Every valid symbol is also classified against the transmit quadrants into
one of four cases describing what the compensation did:

    1 no correction required   both channels received in the correct quadrant
    2 correction successful    >=1 channel received wrong, both correct after
    3 additional errors        a channel received correctly was moved out
    4 no correction possible   remaining failures (nothing left to fix)

evaluated as a first-match decision list in that order.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from enum import IntEnum
from functools import partial
from itertools import product
from math import inf, sqrt

import numpy as np

from . import _blocks, _checks, _files
from .alignment import AlignmentResult, align, estimate_delay
from .channel import STREAM_BITS1, STREAM_BITS2, ChannelParams, apply_channel, stream_rng
from .compensation import EstimatorConfig, apply_compensation, compensate_traces
from .cpe import VVConfig, extract_phase
from .qpsk import SYMBOLS, count_quadrant_errors, gray_indices, quadrant_indices

WILSON_Z95 = 1.959963984540054


class ConfigError(ValueError):
    """Invalid configuration (bad field value, unknown key, unreadable file)."""


class Case(IntEnum):
    NO_CORRECTION_REQUIRED = 0
    CORRECTION_SUCCESSFUL = 1
    ADDITIONAL_ERRORS = 2
    NO_CORRECTION_POSSIBLE = 3


def classify_case(
    tx_q1: int, tx_q2: int, rx_q1: int, rx_q2: int, post_q1: int, post_q2: int
) -> Case:
    """Classify one symbol slot from the six quadrant indices (0..3 each)."""
    for name, q in (
        ("tx_q1", tx_q1), ("tx_q2", tx_q2), ("rx_q1", rx_q1),
        ("rx_q2", rx_q2), ("post_q1", post_q1), ("post_q2", post_q2),
    ):
        if q not in (0, 1, 2, 3):
            raise ValueError(f"{name}={q} is not a quadrant index in 0..3")
    qs = (tx_q1, tx_q2, rx_q1, rx_q2, post_q1, post_q2)
    return Case(classify_cases(*([q] for q in qs))[0])


def classify_cases(
    tx_q1: np.ndarray,
    tx_q2: np.ndarray,
    rx_q1: np.ndarray,
    rx_q2: np.ndarray,
    post_q1: np.ndarray,
    post_q2: np.ndarray,
) -> np.ndarray:
    """Classify each symbol slot from six equal-shape arrays of quadrant
    indices (0..3 each); returns an int array of Case values."""
    arrays = [np.asarray(a) for a in (tx_q1, tx_q2, rx_q1, rx_q2, post_q1, post_q2)]
    for a in arrays:
        if a.size and (a.min() < 0 or a.max() > 3):
            raise ValueError("quadrant indices must lie in 0..3")
    tq1, tq2, rq1, rq2, pq1, pq2 = arrays
    rx_ok1, rx_ok2 = rq1 == tq1, rq2 == tq2
    post_ok1, post_ok2 = pq1 == tq1, pq2 == tq2
    out = np.full(tq1.shape, int(Case.NO_CORRECTION_POSSIBLE), dtype=np.int64)
    out[(rx_ok1 & ~post_ok1) | (rx_ok2 & ~post_ok2)] = Case.ADDITIONAL_ERRORS
    out[~(rx_ok1 & rx_ok2) & post_ok1 & post_ok2] = Case.CORRECTION_SUCCESSFUL
    out[rx_ok1 & rx_ok2] = Case.NO_CORRECTION_REQUIRED
    return out


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score confidence interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    z = WILSON_Z95
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z / denom * sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return center - half, center + half


@dataclass
class TrialConfig:
    """One Monte Carlo trial: payload size, channel, receiver settings.

    n_symbols below ~1000 gives meaningless BER statistics; max_lag bounds
    the inter-channel delay search (0 disables delay recovery).
    """

    n_symbols: int
    channel: ChannelParams = field(default_factory=ChannelParams)
    vv: VVConfig = field(default_factory=VVConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    compare_baseline: bool = True
    max_lag: int = 16

    def __post_init__(self) -> None:
        _checks.check_fields(self)
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be a positive integer")
        if self.max_lag < 0:
            raise ValueError("max_lag must be a nonnegative integer")


@dataclass
class BERReport:
    """Outcome of one trial. Error counts and BER cover the valid region only
    (symbols invalidated by delay alignment are excluded); intervals are 95%
    Wilson. estimated_lag is the lag actually applied (0 when the delay
    estimate was not confident). Baseline fields are None when the trial
    skipped the baseline."""

    ber_uncompensated: float | None
    ber_compensated: float
    errors_uncompensated: tuple[int, int] | None
    errors_compensated: tuple[int, int]
    bits_per_channel: int
    ci_uncompensated: tuple[float, float] | None
    ci_compensated: tuple[float, float]
    case_counts: tuple[int, int, int, int]
    valid_symbols: int
    estimated_lag: int
    lag_confident: bool
    seed: int
    config: TrialConfig

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BERReport":
        """Inverse of to_dict; a malformed dict raises ConfigError."""
        report = _dataclass_from_dict(BERReport, d, "report")
        for key in ("errors_uncompensated", "errors_compensated",
                    "ci_uncompensated", "ci_compensated", "case_counts"):
            if isinstance(getattr(report, key), list):
                setattr(report, key, tuple(getattr(report, key)))
        try:
            _checks.check_fields(report)
        except ValueError as exc:
            raise ConfigError(f"report: {exc}") from exc
        return report


def run_trial(cfg: TrialConfig) -> BERReport:
    """Run one paired baseline/compensated trial.

    Steps: random payloads -> Gray quadrant indices -> QPSK symbols ->
    shared-phase channel -> delay recovery from per-symbol phase traces ->
    channel-2 alignment -> baseline (per-channel VV rotation) and compensated
    (joint) detection -> count and classify. Each phase trace is extracted
    once and each stream (received, compensated, baseline) is decided once;
    bit errors are counted from the decided quadrants. Deterministic for a
    given config.
    """
    return _detect(_receive(cfg), cfg)


def kappa_objective(cfg: TrialConfig):
    """The compensated BER of cfg's channel realization as a function of kappa.

    The realization, its phase traces, the delay recovery and the received
    decisions are computed once, here; each call re-runs only the joint
    estimate and the detection, giving exactly
    run_trial(cfg with that finite kappa and no baseline).ber_compensated.
    """
    cfg = replace(cfg, compare_baseline=False)
    reception = _receive(cfg)

    def objective(kappa: float) -> float:
        estimator = replace(cfg.estimator, kappa=kappa, kappa_infinite=False)
        return _detect(reception, replace(cfg, estimator=estimator)).ber_compensated

    return objective


@dataclass(frozen=True)
class _Reception:
    """What a trial computes before the joint estimate: the received streams
    (channel 2 aligned), the receiver's phase traces, the recovered delay and
    the tx/rx quadrant decisions on the valid region."""

    rx1: np.ndarray
    rx2: np.ndarray
    trace1: np.ndarray
    trace2: np.ndarray
    valid: slice
    estimated_lag: int
    lag_confident: bool
    k_tx1: np.ndarray
    k_tx2: np.ndarray
    k_rx1: np.ndarray
    k_rx2: np.ndarray


def _receive(cfg: TrialConfig) -> _Reception:
    """The part of run_trial that kappa, the estimator mode and
    compare_baseline do not change."""
    n = cfg.n_symbols
    ch = cfg.channel
    bits = stream_rng(ch.seed, STREAM_BITS1).integers(0, 2, size=2 * n)
    k_tx1 = gray_indices(bits)
    bits = stream_rng(ch.seed, STREAM_BITS2).integers(0, 2, size=2 * n)
    k_tx2 = gray_indices(bits)
    del bits
    rx1, rx2 = apply_channel(SYMBOLS[k_tx1], SYMBOLS[k_tx2], ch)

    # Delay recovery runs on per-symbol (window=1) traces. Extraction is
    # elementwise at window=1, so for a window=1 receiver the aligned
    # stream's trace is the per-symbol trace aligned the same way, and the
    # same two traces also serve compensation and the baseline.
    per_symbol = VVConfig(window=1, remove_mean=False)
    search = cfg.max_lag > 0 and n > 2 * cfg.max_lag
    share = cfg.vv.window == 1
    if search or share:
        trace1 = extract_phase(rx1, per_symbol)
        trace2 = extract_phase(rx2, per_symbol)
    if search:
        delay = estimate_delay(trace1, trace2, cfg.max_lag)
    else:
        delay = AlignmentResult(lag=0, peak_correlation=0.0, confident=False)
    # only buffer on a confident estimate; an unconfident peak is noise
    applied_lag = delay.lag if delay.confident else 0
    aligned = align(rx2, applied_lag)
    rx2, valid = aligned.samples, aligned.valid
    if share:
        trace2 = align(trace2, applied_lag).samples
    else:
        trace1 = trace2 = None  # free the per-symbol traces first
        trace1 = extract_phase(rx1, cfg.vv)
        trace2 = extract_phase(rx2, cfg.vv)
    return _Reception(
        rx1=rx1, rx2=rx2, trace1=trace1, trace2=trace2, valid=valid,
        estimated_lag=applied_lag, lag_confident=delay.confident,
        k_tx1=k_tx1[valid], k_tx2=k_tx2[valid],
        k_rx1=quadrant_indices(rx1[valid]), k_rx2=quadrant_indices(rx2[valid]),
    )


def _compensated_decisions(r: _Reception, cfg: TrialConfig):
    """The joint compensation's quadrant decisions, one block of the valid
    region at a time: (block of the streams, the same block of the k_*
    arrays, decisions of channel 1, decisions of channel 2)."""
    valid = r.valid
    # the mean removal takes the whole traces' means, not each block's
    means = (r.trace1.mean(), r.trace2.mean()) if cfg.vv.remove_mean else None
    for b in _blocks.blocks(valid.start, valid.stop):
        comp1, comp2 = compensate_traces(
            r.rx1[b], r.rx2[b], r.trace1[b], r.trace2[b], means, cfg.estimator)
        k = slice(b.start - valid.start, b.stop - valid.start)
        yield b, k, quadrant_indices(comp1), quadrant_indices(comp2)


def _detect(r: _Reception, cfg: TrialConfig) -> BERReport:
    """The part of run_trial that depends on the estimator: joint
    compensation, counting, the optional baseline and classification.
    Reads the reception without modifying it.

    Runs block by block over the valid region and keeps only counts: the
    compensated streams and their decisions never exist whole.
    """
    valid = r.valid
    n_valid = valid.stop - valid.start
    bits_per_channel = 2 * n_valid
    ec1 = ec2 = eb1 = eb2 = 0
    hist = np.zeros(4, dtype=np.int64)
    for b, k, k_comp1, k_comp2 in _compensated_decisions(r, cfg):
        k_tx1, k_tx2 = r.k_tx1[k], r.k_tx2[k]
        ec1 += count_quadrant_errors(k_tx1, k_comp1)
        ec2 += count_quadrant_errors(k_tx2, k_comp2)
        if cfg.compare_baseline:
            eb1 += count_quadrant_errors(
                k_tx1, quadrant_indices(apply_compensation(r.rx1[b], r.trace1[b])))
            eb2 += count_quadrant_errors(
                k_tx2, quadrant_indices(apply_compensation(r.rx2[b], r.trace2[b])))
        codes = classify_cases(k_tx1, k_tx2, r.k_rx1[k], r.k_rx2[k], k_comp1, k_comp2)
        hist += np.bincount(codes, minlength=4)
    assert int(hist.sum()) == n_valid

    ber_comp = (ec1 + ec2) / (2 * bits_per_channel)
    ci_comp = wilson_interval(ec1 + ec2, 2 * bits_per_channel)
    if cfg.compare_baseline:
        ber_base = (eb1 + eb2) / (2 * bits_per_channel)
        ci_base = wilson_interval(eb1 + eb2, 2 * bits_per_channel)
        errors_base = (eb1, eb2)
    else:
        ber_base, ci_base, errors_base = None, None, None

    return BERReport(
        ber_uncompensated=ber_base,
        ber_compensated=ber_comp,
        errors_uncompensated=errors_base,
        errors_compensated=(ec1, ec2),
        bits_per_channel=bits_per_channel,
        ci_uncompensated=ci_base,
        ci_compensated=ci_comp,
        case_counts=tuple(int(c) for c in hist),
        valid_symbols=n_valid,
        estimated_lag=r.estimated_lag,
        lag_confident=r.lag_confident,
        seed=cfg.channel.seed,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# configuration (de)serialization

_SECTIONS = {
    "channel": ChannelParams, "vv": VVConfig, "estimator": EstimatorConfig,
    "config": TrialConfig,
}


def _dataclass_from_dict(cls, data: dict, section: str):
    """Build cls from data, rejecting unknown keys; fields named in
    _SECTIONS are built from their own sub-objects first."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object, got {type(data).__name__}")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"{section}: unknown field(s) {sorted(unknown)}")
    kwargs = dict(data)
    for key, sub_cls in _SECTIONS.items():
        if key in kwargs:
            kwargs[key] = _dataclass_from_dict(sub_cls, kwargs[key], key)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def trial_config_from_dict(data: dict) -> TrialConfig:
    """Build a TrialConfig from the JSON config-file structure.

    Field names mirror the dataclasses exactly; unknown keys are rejected
    with the offending names.
    """
    return _dataclass_from_dict(TrialConfig, data, "config")


def trial_config_to_dict(cfg: TrialConfig) -> dict:
    return asdict(cfg)


def read_config_file(path):
    """Parse a JSON file; unreadable files, non-UTF-8 bytes and invalid JSON raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc


def load_trial_config(path) -> TrialConfig:
    """Read and validate a JSON trial configuration file."""
    return trial_config_from_dict(read_config_file(path))


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("sigma_common", "sigma_additive", "kappa", "delay_offset")


@dataclass
class SweepPoint:
    """Result of one grid point; exactly one of report/error is set."""

    index: int
    report: BERReport | None = None
    error: str | None = None


def sweep_configs(base: TrialConfig, axes: dict) -> list[TrialConfig]:
    """Expand a sweep grid into per-point trial configs.

    Axes (any subset of sigma_common, sigma_additive, kappa, delay_offset)
    are combined as a cartesian product in that nesting order; omitted axes
    keep the base value. Each point is the base config with its axis values
    put in, loaded by trial_config_from_dict, so the config-file field rules
    decide every value. A kappa of Infinity selects the minimum-magnitude
    border mode. Each point's channel seed is base_seed XOR point_index.
    """
    if not isinstance(axes, dict):
        raise ConfigError(f"sweep: expected an object, got {type(axes).__name__}")
    unknown = set(axes) - set(SWEEP_AXES)
    if unknown:
        raise ConfigError(f"sweep: unknown axis/axes {sorted(unknown)}")
    names = [name for name in SWEEP_AXES if name in axes]
    for name in names:
        if not isinstance(axes[name], (list, tuple)) or len(axes[name]) == 0:
            raise ConfigError(f"sweep: axis '{name}' must be a non-empty list")
    configs = []
    for index, values in enumerate(product(*(axes[name] for name in names))):
        data = trial_config_to_dict(base)
        data["channel"]["seed"] ^= index
        for name, value in zip(names, values):
            if name != "kappa":
                data["channel"][name] = value
            elif value == inf:
                data["estimator"]["kappa_infinite"] = True
            else:
                data["estimator"].update(kappa=value, kappa_infinite=False)
        try:
            configs.append(trial_config_from_dict(data))
        except ConfigError as exc:
            raise ConfigError(f"sweep point {index}: {exc}") from exc
    return configs


def _point_path(out_dir, index: int) -> str:
    return os.path.join(out_dir, f"point_{index:04d}.json")


def run_sweep(
    base: TrialConfig,
    axes: dict,
    out_dir=None,
    workers: int = 1,
) -> list[SweepPoint]:
    """Run every grid point; a point failing to compute or write is recorded, not raised.

    With out_dir set, each completed point is written to point_NNNN.json and
    points whose file already exists and holds the same config are loaded
    instead of recomputed, so an interrupted sweep resumes where it stopped;
    any other point file is recomputed and overwritten. Points are
    independent and run in `workers` processes when workers > 1; results
    merge by index. A point lost because a worker died is run once more on
    its own, so a point that kills its worker fails and no other does.
    out_dir is created once the grid is accepted.
    """
    configs = sweep_configs(base, axes)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    points: list[SweepPoint | None] = [None] * len(configs)

    pending: list[int] = []
    for index, cfg in enumerate(configs):
        if out_dir is not None:
            try:
                report = BERReport.from_dict(read_config_file(_point_path(out_dir, index)))
                if report.config == cfg:
                    points[index] = SweepPoint(index, report=report)
                    continue
            except ConfigError:
                pass  # missing, unreadable or malformed point file: recompute
        pending.append(index)

    def record(index: int, get_report) -> None:
        try:
            report = get_report()
            if out_dir is not None:
                with _files.atomic_write(_point_path(out_dir, index)) as fh:
                    json.dump(report.to_dict(), fh, indent=2)
                    fh.write("\n")
            points[index] = SweepPoint(index, report=report)
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            points[index] = SweepPoint(index, error=str(exc))

    if workers > 1 and len(pending) > 1:
        lost = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(run_trial, configs[i]) for i in pending}
            for index, fut in futures.items():
                if isinstance(fut.exception(), BrokenProcessPool):
                    lost.append(index)
                else:
                    record(index, fut.result)
        # a worker that died took every unfinished point down with it: run
        # each lost point once more in a pool of its own, so that only a
        # point that kills its worker fails
        for index in lost:
            with ProcessPoolExecutor(max_workers=1) as pool:
                record(index, pool.submit(run_trial, configs[index]).result)
    else:
        for index in pending:
            record(index, partial(run_trial, configs[index]))
    return points  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# emission

CSV_COLUMNS = (
    "sigma_common,sigma_additive,kappa,delay,ber_base,ber_comp,"
    "ci_lo_base,ci_hi_base,ci_lo_comp,ci_hi_comp,case1,case2,case3,case4,seed"
)


def _csv_row(report: BERReport) -> str:
    cfg = report.config
    kappa = float("inf") if cfg.estimator.kappa_infinite else cfg.estimator.kappa
    ber_base = float("nan") if report.ber_uncompensated is None else report.ber_uncompensated
    ci_base = (float("nan"), float("nan")) if report.ci_uncompensated is None else report.ci_uncompensated
    cells = [
        repr(float(cfg.channel.sigma_common)),
        repr(float(cfg.channel.sigma_additive)),
        repr(float(kappa)),
        str(cfg.channel.delay_offset),
        repr(float(ber_base)),
        repr(float(report.ber_compensated)),
        repr(float(ci_base[0])),
        repr(float(ci_base[1])),
        repr(float(report.ci_compensated[0])),
        repr(float(report.ci_compensated[1])),
        *[str(c) for c in report.case_counts],
        str(report.seed),
    ]
    return ",".join(cells)


def emit(reports, format: str, path) -> None:
    """Write reports to `path` as CSV (fixed column set) or JSON (full reports),
    replacing the file only once all of it is written.

    Floats are serialized with repr so parsing them back is bit-exact; output
    contains no timestamps, making equal runs byte-identical.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    reports = list(reports)
    with _files.atomic_write(path) as fh:
        if format == "csv":
            fh.write(CSV_COLUMNS + "\n")
            for report in reports:
                fh.write(_csv_row(report) + "\n")
        else:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
