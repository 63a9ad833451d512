"""Performance models: micro-kernel equations (Eqns 4-11), roofline."""

from .calibration import (
    CalibrationResult,
    TileMeasurement,
    calibrate_sigma_ai,
    measure_tile,
)
from .roofline import (
    BANDWIDTH_LEVELS,
    RooflinePoint,
    attainable_gflops,
    gemm_arithmetic_intensity,
    l3_bandwidth_gbps,
    level_bandwidth_gbps,
)
from .perf_model import (
    DEFAULT_LAUNCH_CYCLES,
    FusionKind,
    MicroKernelModel,
    ModelParams,
    fusion_kind,
)

__all__ = [
    "CalibrationResult",
    "TileMeasurement",
    "calibrate_sigma_ai",
    "measure_tile",
    "BANDWIDTH_LEVELS",
    "RooflinePoint",
    "attainable_gflops",
    "gemm_arithmetic_intensity",
    "l3_bandwidth_gbps",
    "level_bandwidth_gbps",
    "DEFAULT_LAUNCH_CYCLES",
    "FusionKind",
    "MicroKernelModel",
    "ModelParams",
    "fusion_kind",
]
