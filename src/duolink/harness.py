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
from dataclasses import asdict, dataclass, field, replace
from enum import IntEnum
from functools import partial
from itertools import product
from math import sqrt

import numpy as np

from . import _checks
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
        d = dict(d)
        d["config"] = trial_config_from_dict(d["config"])
        for key in ("errors_uncompensated", "errors_compensated",
                    "ci_uncompensated", "ci_compensated", "case_counts"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        return BERReport(**d)


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
    rx2 = align(rx2, applied_lag).samples
    if share:
        trace2 = align(trace2, applied_lag).samples
    else:
        trace1 = trace2 = None  # free the per-symbol traces first
        trace1 = extract_phase(rx1, cfg.vv)
        trace2 = extract_phase(rx2, cfg.vv)
    # align invalidates the |lag| wrapped-in symbols at one end of the stream
    valid = slice(max(applied_lag, 0), n + min(applied_lag, 0))
    n_valid = valid.stop - valid.start
    bits_per_channel = 2 * n_valid
    k_tx1, k_tx2 = k_tx1[valid], k_tx2[valid]
    k_rx1 = quadrant_indices(rx1[valid])
    k_rx2 = quadrant_indices(rx2[valid])

    comp1, comp2 = compensate_traces(
        rx1, rx2, trace1, trace2, cfg.vv.remove_mean, cfg.estimator)
    k_comp1 = quadrant_indices(comp1[valid])
    k_comp2 = quadrant_indices(comp2[valid])
    del comp1, comp2
    ec1 = count_quadrant_errors(k_tx1, k_comp1)
    ec2 = count_quadrant_errors(k_tx2, k_comp2)
    ber_comp = (ec1 + ec2) / (2 * bits_per_channel)
    ci_comp = wilson_interval(ec1 + ec2, 2 * bits_per_channel)

    if cfg.compare_baseline:
        eb1 = count_quadrant_errors(
            k_tx1, quadrant_indices(apply_compensation(rx1, trace1)[valid]))
        eb2 = count_quadrant_errors(
            k_tx2, quadrant_indices(apply_compensation(rx2, trace2)[valid]))
        ber_base = (eb1 + eb2) / (2 * bits_per_channel)
        ci_base = wilson_interval(eb1 + eb2, 2 * bits_per_channel)
        errors_base = (eb1, eb2)
    else:
        ber_base, ci_base, errors_base = None, None, None

    codes = classify_cases(k_tx1, k_tx2, k_rx1, k_rx2, k_comp1, k_comp2)
    hist = np.bincount(codes, minlength=4)
    assert int(hist.sum()) == n_valid

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
        estimated_lag=applied_lag,
        lag_confident=delay.confident,
        seed=ch.seed,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# configuration (de)serialization

_SECTIONS = {"channel": ChannelParams, "vv": VVConfig, "estimator": EstimatorConfig}


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
    """Parse a JSON config file; unreadable files and invalid JSON raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


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
    keep the base value. A kappa of Infinity selects the minimum-magnitude
    border mode. Each point's channel seed is base_seed XOR point_index.
    """
    if not isinstance(axes, dict):
        raise ConfigError(f"sweep: expected an object, got {type(axes).__name__}")
    unknown = set(axes) - set(SWEEP_AXES)
    if unknown:
        raise ConfigError(f"sweep: unknown axis/axes {sorted(unknown)}")
    base_kappa = float("inf") if base.estimator.kappa_infinite else base.estimator.kappa
    defaults = {
        "sigma_common": [base.channel.sigma_common],
        "sigma_additive": [base.channel.sigma_additive],
        "kappa": [base_kappa],
        "delay_offset": [base.channel.delay_offset],
    }
    grids = []
    for name in SWEEP_AXES:
        values = axes.get(name, defaults[name])
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ConfigError(f"sweep: axis '{name}' must be a non-empty list")
        try:
            for value in values:
                if not (name == "kappa" and value == float("inf")):  # border mode
                    _checks.number(f"sweep: axis '{name}' value {value!r}", value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        grids.append(list(values))
    configs = []
    for index, (sc, sa, kp, dl) in enumerate(product(*grids)):
        if not float(dl).is_integer():
            raise ConfigError(f"sweep: delay_offset value {dl} is not an integer")
        try:
            channel = replace(
                base.channel,
                sigma_common=sc,
                sigma_additive=sa,
                delay_offset=int(dl),
                seed=base.channel.seed ^ index,
            )
            if kp == float("inf"):
                estimator = replace(base.estimator, kappa_infinite=True)
            else:
                estimator = replace(
                    base.estimator, kappa=float(kp), kappa_infinite=False)
            configs.append(replace(base, channel=channel, estimator=estimator))
        except (TypeError, ValueError) as exc:
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
    merge by index. out_dir is created once the grid is accepted.
    """
    configs = sweep_configs(base, axes)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    points: list[SweepPoint | None] = [None] * len(configs)

    pending: list[int] = []
    for index in range(len(configs)):
        if out_dir is not None and os.path.exists(_point_path(out_dir, index)):
            try:
                with open(_point_path(out_dir, index), "r", encoding="utf-8") as fh:
                    report = BERReport.from_dict(json.load(fh))
                if report.config == configs[index]:
                    points[index] = SweepPoint(index, report=report)
                    continue
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                pass  # unreadable cache entry: recompute
        pending.append(index)

    def record(index: int, get_report) -> None:
        try:
            report = get_report()
            if out_dir is not None:
                with open(_point_path(out_dir, index), "w", encoding="utf-8") as fh:
                    json.dump(report.to_dict(), fh, indent=2)
                    fh.write("\n")
            points[index] = SweepPoint(index, report=report)
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            points[index] = SweepPoint(index, error=str(exc))

    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(run_trial, configs[i]) for i in pending}
            for index, fut in futures.items():
                record(index, fut.result)
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
    """Write reports to `path` as CSV (fixed column set) or JSON (full reports).

    Floats are serialized with repr so parsing them back is bit-exact; output
    contains no timestamps, making equal runs byte-identical.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    reports = list(reports)
    with open(path, "w", encoding="utf-8") as fh:
        if format == "csv":
            fh.write(CSV_COLUMNS + "\n")
            for report in reports:
                fh.write(_csv_row(report) + "\n")
        else:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
