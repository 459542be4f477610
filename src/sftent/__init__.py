"""Exact pattern counting and spatial entropies of 2-D shifts of finite type.

The package counts locally admissible patterns of a shift of finite type on
arbitrary finite sublattices of Z^2 (exact arbitrary-precision integers, with
a log-domain route for huge lattices), estimates spatial entropies along
expanding lattice families, and verifies the geometric conditions that decide
whether such a family reproduces the rectangular entropy or strictly exceeds
it.
"""

from .errors import (
    BudgetExceeded,
    NonPrimitiveVector,
    NotDecomposable,
    OverlapError,
    SftentError,
    SubsetViolation,
    SymbolOutOfRange,
)
from .lattice import (
    BlockDecomposition,
    FiniteLattice,
    Point,
    TessellationResult,
    block_decompose,
    block_residue_size,
    boundary,
    boundary_size,
    complement_in,
    decompose_bands,
    dilate,
    interior,
    is_tessellation,
    rectangle,
    run_census,
    run_length_class,
)
from .sft import (
    CountResult,
    ForbiddenPattern,
    Pattern,
    SftSpec,
    full_shift,
    golden_mean_horizontal,
    golden_mean_vertical,
    is_locally_admissible,
    period_forcing_horizontal,
    placements,
)
from .counting import (
    count,
    count_bruteforce,
    count_extendable,
    count_profile_dp,
    enumerate_admissible,
    log_count,
)
from .multiplicative import (
    Fiber,
    FiberDecomposition,
    SeriesValue,
    count_multiplicative,
    count_multiplicative_bruteforce,
    fiber_decomposition,
    fibonacci,
    log_count_multiplicative,
    multiplicative_entropy_series,
)
from .systems import (
    ConditionReport,
    ExpandingSystem,
    check_expansion,
    classify_trend,
    condition_report,
    lshape,
    lshape_system,
    omega_q,
    omega_q_golden_mean_count,
    omega_q_entropy_series,
    omega_q_plus,
    omega_q_system,
    rect_system,
    row_census,
    squares,
    staircase,
    staircase_system,
    stick_augmented,
    stick_system,
)
from .entropy import (
    EntropyRecord,
    EntropySequence,
    GapReport,
    LOG_GOLDEN_MEAN,
    RectTable,
    directional_entropy_max,
    projectional_entropy,
    rect_entropy_table,
    segment,
    strict_gap_check,
    system_entropy,
)
from .gluing import (
    GluingCounterexample,
    GluingVerdict,
    replay_counterexample,
    verify_block_gluing,
)

__version__ = "0.1.0"
