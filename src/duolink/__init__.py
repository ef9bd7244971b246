"""Dual-channel coherent QPSK link simulator and DSP library.

Simulates two copropagating QPSK channels distorted by a shared per-symbol
phase process plus independent additive noise, and implements the joint
common-phase compensation that exploits the shared rotation, together with a
reproducible Monte Carlo harness quantifying the bit-error-ratio gain.
"""

from .alignment import (
    AlignmentResult,
    KappaSearchResult,
    adapt_kappa,
    estimate_delay,
)
from .channel import (
    ChannelParams,
    apply_channel,
    conversion_efficiency,
    draw_payload,
    export_efficiency_csv,
    gen_common_phase,
    shaped_filter_gain,
)
from .compensation import (
    EstimatorConfig,
    apply_compensation,
    compensate_traces,
    estimate_common_phase,
)
from .cpe import (
    VVConfig,
    extract_phase,
    wrap_quarter,
)
from .harness import (
    BERReport,
    Case,
    ConfigError,
    SweepPoint,
    TrialConfig,
    classify_cases,
    emit,
    kappa_objective,
    load_trial_config,
    run_sweep,
    run_trial,
    sweep_configs,
    trial_config_from_dict,
    wilson_interval,
)
from .qpsk import (
    SYMBOLS,
    count_quadrant_errors,
    gray_indices,
    quadrant_indices,
)

__version__ = "0.1.0"
