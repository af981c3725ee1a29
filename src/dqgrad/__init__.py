"""Differentially quantized gradient methods on a rate-limited channel.

Error-compensated quantized descent (gradient, accelerated, heavy ball),
naive quantized descent for one or many workers, the closed-form rate
curves they obey, and a deterministic experiment harness that reproduces
the contraction-factor-vs-rate phase transitions on least squares.
"""

from .bounds import (
    achievable_rate,
    converse_curve,
    finite_t_envelope,
    phi,
    phi_roots,
    thresholds,
)
from .engines import (
    ScheduleViolationError,
    build_dq_engine,
    build_nq_engine,
    run_protocol,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    emit_csv,
    emit_svg,
    estimate_contraction,
    run_dq,
    run_nq,
    run_sweep,
    run_unquantized,
)
from .hyperparams import HyperParams, optimal_hyperparams
from .problems import (
    LeastSquares,
    MultiWorkerProblem,
    Objective,
    load_matrix_market,
    make_gaussian_ls,
    make_interpolation_problem,
    make_worst_case_gd,
)
from .quantizer import (
    Payload,
    QuantizerSpec,
    RangeViolationError,
    ScaledQuantizer,
    covering_efficiency,
    covering_radius,
    decode_payload,
    encode_payload,
)
from .schedules import RangeSchedule, waterfill, waterfill_bits
from .transport import Channel, ChannelTrace, FramingError

__version__ = "0.1.0"
