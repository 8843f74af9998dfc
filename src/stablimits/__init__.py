"""Exact limit calculus for theta-function sections of equivariant characters.

The package is organized by layer:

- :mod:`stablimits.chars` - monomials, characters, chambers, rational expressions;
- :mod:`stablimits.qseries` - truncated q-series, the odd theta function, limits;
- :mod:`stablimits.balanced` - balanced sections and the two-stage limit;
- :mod:`stablimits.hilbert` - Young-diagram fixed-point combinatorics;
- :mod:`stablimits.framing` - the framing-torus hyperplane arrangement;
- :mod:`stablimits.pipeline` - restriction matrices and the limit pipeline;
- :mod:`stablimits.cli` - the command-line verification driver.
"""

from .chars import (
    Chamber,
    Character,
    ExponentError,
    Monomial,
    NumericContext,
    ONE,
    RationalExpr,
    VariableSet,
    ZeroFactorError,
)
from .qseries import (
    LimitResult,
    LimitUndefined,
    NonConvergence,
    QSeries,
    ThetaArgument,
    numeric_theta,
    theta_leading,
    theta_ratio_limit,
    theta_series,
    verify_oddness,
    verify_quasiperiod,
)
from .balanced import (
    BalancedExpression,
    BalancedTerm,
    DivergentLimit,
    InconsistentBundle,
    KahlerChamber,
    NormalizationMismatch,
    chamber_correction,
    double_limit,
    has_separated_poles,
    is_balanced_in,
    q_limit,
    quasiperiod_pairing,
    random_balanced_expression,
    theta,
    z_limit,
)
from .hilbert import (
    ComponentMismatch,
    ConventionSet,
    DiagonalMatrices,
    YoungDiagram,
    calibrate,
    conjugation_matrices,
    contents,
    d_lambda,
    difference_scan,
    enumerate_components,
    hooks,
    index_character,
    index_exponent,
    m_general,
    m_hilbert,
    nu_component,
    partitions,
    polarization,
    sigma,
)
from .framing import (
    BlockPartition,
    FramingPoint,
    QuiverFrame,
    active_hyperplanes,
    cyclic_order,
    enumerate_fixed_components,
    index_blocks,
    invariant_polarization_split,
    normal_character_crosses_blocks,
)
from .pipeline import (
    EntryLimitError,
    KMatrixCandidate,
    MalformedInput,
    MatrixMetadata,
    RestrictionMatrix,
    apply_limit_theorem,
    check_stab_axioms,
    expected_diagonal,
    normal_negative,
    validate_section,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
