"""Primitive classes of the rank-two free group, block normal forms,
hyperbolic geometry in the upper half-space models, and scanners that
certify discreteness-style conditions for representations.

The public API is re-exported flat; see the submodules for the
implementations: `words` (reduced words and cyclic operations), `blocks`
(slopes, block towers, primitivity, exhaustive lemma suites), `geometry`
(isometries of H^2/H^3, axes, segments, representations), `certify`
(thin-triangle corollaries and Monte-Carlo checks), `scans`
(representation scanners over primitive classes), and `cli`.
"""

from .words import (
    ALPHABET,
    abelianization,
    check_word,
    concat,
    cyclic_reduce,
    cyclic_subword,
    enumerate_reduced,
    inverse_letter,
    invert,
    is_cyclically_reduced,
    is_primitive_abelianization,
    is_reduced,
    power,
    reduce,
    rotate,
    rotations,
    substitute,
)
from .blocks import (
    SUITES,
    AdaptedRotation,
    BlockCountReport,
    BlockTower,
    DerivationTrace,
    LemmaViolation,
    MagicWitness,
    Slope,
    SuiteReport,
    adapted_permutation,
    alphabet_class,
    block_sequence,
    build_blocks,
    cf_expansion,
    cf_value,
    classify_magic_subword,
    count_block_occurrences,
    derivation,
    enumerate_primitive_classes,
    is_primitive,
    run_suite,
    slope_of,
)
from .geometry import (
    BASEPOINT,
    DEFAULT_DELTA,
    INF,
    Geodesic,
    HPoint,
    NotLoxodromic,
    Representation,
    RepresentationError,
    Segment,
    apply,
    axis_of,
    classify,
    distance,
    dist_to_geodesic,
    dist_to_segment,
    fixed_points,
    geodesic_through,
    mobius_boundary,
    parse_rep_file,
    power_displacement,
    translation_length,
)
from .certify import (
    PathBound,
    SamplerError,
    TrialReport,
    check_quadrilateral,
    detour_verify,
    measure_detour,
    path_lower_bound,
    quadrilateral_check,
    segment_gap,
)
from .scans import (
    ExcursionProfile,
    PreconditionError,
    QuasiLoop,
    QuasiLoopReport,
    ScanReport,
    bowditch_scan,
    class_matrix,
    excursion_profile,
    find_quasi_loops,
    fricke_traces,
    local_global_scan,
    perturbation_scan,
    ps_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET", "AdaptedRotation", "BASEPOINT", "BlockCountReport",
    "BlockTower", "DEFAULT_DELTA", "DerivationTrace", "ExcursionProfile",
    "Geodesic", "HPoint", "INF", "LemmaViolation", "MagicWitness",
    "NotLoxodromic", "PathBound", "PreconditionError",
    "QuasiLoop", "QuasiLoopReport", "Representation", "RepresentationError",
    "SUITES", "SamplerError", "ScanReport", "Segment", "Slope",
    "SuiteReport", "TrialReport", "abelianization", "adapted_permutation",
    "alphabet_class", "apply", "axis_of", "block_sequence", "bowditch_scan",
    "build_blocks", "cf_expansion", "cf_value", "check_word",
    "class_matrix", "classify", "classify_magic_subword", "concat",
    "count_block_occurrences", "cyclic_reduce", "cyclic_subword",
    "derivation", "detour_verify", "dist_to_geodesic", "dist_to_segment",
    "distance", "enumerate_primitive_classes", "enumerate_reduced",
    "excursion_profile", "find_quasi_loops", "fixed_points",
    "fricke_traces", "geodesic_through", "inverse_letter", "invert",
    "is_cyclically_reduced", "is_primitive", "is_primitive_abelianization",
    "is_reduced", "local_global_scan", "measure_detour",
    "mobius_boundary", "parse_rep_file",
    "path_lower_bound", "perturbation_scan", "power", "power_displacement",
    "ps_scan", "quadrilateral_check", "reduce", "rotate", "rotations",
    "run_suite", "segment_gap", "slope_of", "substitute",
    "translation_length",
]
