"""GEMM execution: schedules, packing, blocked executor, estimator, facade."""

from .autogemm import AutoGEMM
from .batched import BatchedGemm, BatchedGemmResult
from .estimator import GemmEstimate, GemmEstimator
from .executor import GemmExecutor, GemmResult
from .kernel_cache import (
    GLOBAL_KERNEL_CACHE,
    KernelCache,
    KernelKey,
    ReplayCache,
    Residency,
)
from .packing import PackCost, PackingMode, choose_packing, pack_block, packing_cycles
from .reference import (
    assert_close,
    random_gemm_operands,
    reference_gemm,
    relative_error,
)
from .schedule import LOOP_DIMS, Schedule, all_loop_orders, default_schedule
from .validation import (
    ValidationCase,
    ValidationReport,
    default_validation_suite,
    validate_libraries,
)

__all__ = [
    "AutoGEMM",
    "BatchedGemm",
    "BatchedGemmResult",
    "GemmEstimate",
    "GemmEstimator",
    "GemmExecutor",
    "GemmResult",
    "GLOBAL_KERNEL_CACHE",
    "KernelCache",
    "KernelKey",
    "ReplayCache",
    "Residency",
    "PackCost",
    "PackingMode",
    "choose_packing",
    "pack_block",
    "packing_cycles",
    "assert_close",
    "random_gemm_operands",
    "reference_gemm",
    "relative_error",
    "LOOP_DIMS",
    "Schedule",
    "all_loop_orders",
    "default_schedule",
    "ValidationCase",
    "ValidationReport",
    "default_validation_suite",
    "validate_libraries",
]
