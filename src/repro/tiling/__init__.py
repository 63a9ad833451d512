"""Micro-tiling strategies: static baselines and Dynamic Micro-Tiling."""

from .dmt import DMTResult, DynamicMicroTiler, RegionChoice
from .plans import PlacedTile, TilePlan, coverage_errors
from .static_tiling import (
    DEFAULT_MAIN_TILE,
    libxsmm_tiling,
    openblas_tiling,
    tile_for_chip,
)

__all__ = [
    "DMTResult",
    "DynamicMicroTiler",
    "RegionChoice",
    "PlacedTile",
    "TilePlan",
    "coverage_errors",
    "DEFAULT_MAIN_TILE",
    "libxsmm_tiling",
    "openblas_tiling",
    "tile_for_chip",
]
