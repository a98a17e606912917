"""Primitive classes of the rank-two free group, block normal forms,
hyperbolic geometry in the upper half-space models, and scanners that
certify discreteness-style conditions for representations.

The flat API is the README's library tour and the exceptions its calls
raise; everything else lives in the submodules: `words` (reduced words and
cyclic operations), `blocks` (slopes, block towers, primitivity, exhaustive
lemma suites), `geometry` (isometries of H^2/H^3, axes, segments,
representations), `certify` (thin-triangle corollaries and Monte-Carlo
checks), `scans` (representation scanners over primitive classes), and
`cli`.
"""

from .blocks import (
    LemmaViolation,
    build_blocks,
    derivation,
    enumerate_primitive_classes,
    is_primitive,
    run_suite,
    slope_of,
)
from .geometry import (
    NotLoxodromic,
    Representation,
    RepresentationError,
    translation_length,
)
from .certify import (
    SamplerError,
    detour_verify,
    path_lower_bound,
    quadrilateral_check,
)
from .scans import (
    bowditch_scan,
    excursion_profile,
    find_quasi_loops,
    ps_scan,
)

__version__ = "0.1.0"

__all__ = [
    "LemmaViolation", "NotLoxodromic", "Representation",
    "RepresentationError", "SamplerError", "bowditch_scan", "build_blocks",
    "derivation", "detour_verify", "enumerate_primitive_classes",
    "excursion_profile", "find_quasi_loops", "is_primitive",
    "path_lower_bound", "ps_scan", "quadrilateral_check", "run_suite",
    "slope_of", "translation_length",
]
