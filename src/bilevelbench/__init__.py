"""Stochastic bilevel optimization: single-loop normalized-momentum method,
simplified baselines, synthetic instances with analytic ground truth, and a
verification/benchmark harness."""

from .algorithms import (NumericalDivergenceError, OracleCounter, RunAborted,
                         RunError, SlipState, double_loop_run, masoba_run,
                         sgd_dd, slip_run, ttsa_run)
from .constants import (ParamSchedule, ScheduleMode, SchedulingError,
                        SmoothnessConstants, schedule_practical,
                        schedule_theorem41, schedule_theorem42, warm_start_T0)
from .problem import (BilevelProblem, ConfigurationError, DeterministicOracle,
                      LowerPoint, NoiseKind, NoiseModel, StochasticOracle,
                      hypergrad_estimate)
from .samples import OracleTag, Sample, Stream
from .synthetic import (HypercleanSpec, QuadraticSpec, UnboundedSmoothSpec,
                        make_hyperclean, make_q2, make_quadratic,
                        make_unbounded_smooth, q2_spec, random_quadratic)
from .trace import CSV_HEADER, Trace, TraceRecord, read_trace, write_trace
from .verify import empirical_unbiasedness_check

__version__ = "0.1.0"

__all__ = [
    "BilevelProblem", "ConfigurationError", "CSV_HEADER",
    "DeterministicOracle", "HypercleanSpec", "LowerPoint", "NoiseKind",
    "NoiseModel", "NumericalDivergenceError", "OracleCounter", "OracleTag",
    "ParamSchedule", "QuadraticSpec", "RunAborted", "RunError", "Sample",
    "ScheduleMode", "SchedulingError", "SlipState", "SmoothnessConstants",
    "StochasticOracle", "Stream", "Trace", "TraceRecord", "UnboundedSmoothSpec",
    "double_loop_run", "empirical_unbiasedness_check",
    "hypergrad_estimate", "make_hyperclean", "make_q2", "make_quadratic",
    "make_unbounded_smooth", "masoba_run", "q2_spec", "random_quadratic",
    "read_trace", "schedule_practical", "schedule_theorem41",
    "schedule_theorem42", "sgd_dd", "slip_run", "ttsa_run", "warm_start_T0",
    "write_trace",
]
