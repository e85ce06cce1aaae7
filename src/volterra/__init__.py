"""Discrete Volterra-series engine.

Evaluation of finite Volterra series on circular grids, kernel
symmetrization and frequency responses, the sum / product / series
composition algebra, lens-map morphisms between series with naturality
checking, functorial actions on spectral multipliers, and the Volterra
representations of bilinear and polynomial time-frequency distributions.
"""

from .errors import (
    ConsistencyError,
    ContractViolation,
    DomainError,
    GridError,
    ParseError,
    ResolutionError,
    ResourceError,
    TruncationWarning,
    VolterraError,
)
from .combinatorics import (
    Composition,
    Multicombination,
    WeakComposition,
    compositions,
    multicombinations,
    multinomial,
    weak_compositions,
)
from .kernels import (
    DEFAULT_MAX_ORDER,
    PackedKernel,
    VolterraKernel,
    VolterraSeries,
    constant_kernel,
    delay_series,
    delta_kernel,
    differencer_series,
    elementary_series,
    identity_series,
    kernel_from_array,
    memoryless_polynomial_series,
    series_from_kernels,
    symmetrize_plain,
    symmetrize_weighted,
    vfrf,
    zero_pad,
    zero_series,
)
from .evaluation import (
    MultiInput,
    MultivariateKernelBank,
    comb_signal,
    eval_freq,
    eval_homogeneous,
    eval_multivariate,
    eval_time,
    oracle_eval,
    response_comb,
    response_exponential,
)
from .actions import (
    InducedMultiplier,
    Multiplier,
    act_modulation,
    act_periodization,
    act_sampling,
    act_translation,
    apply_action,
    compose_multipliers,
    induced_linear_kernel,
)
from .morphisms import (
    Morphism,
    ValidationReport,
    apply_component,
    catalog,
    check_naturality,
    compose_morphisms,
    lens_identity,
    validate_morphism,
    weighted_pullback,
)
from .algebra import (
    AssociativityReport,
    SMatrix,
    associativity_harness,
    composition_labels,
    compose_series,
    coproduct,
    product_series,
    s_matrix,
    sum_series,
)
from .tfd import (
    LambdaSet,
    ParameterFunction,
    PolynomialPhase,
    TFDGrid,
    ambiguity,
    analytic_signal,
    chirp,
    check_lambda_constraints,
    cohen,
    cohen_volterra_kernel,
    howvd,
    if_concentration,
    interference_term_count,
    pwvd,
    pwvd_lambdas,
    pwvd_volterra_kernel,
    rihaczek_parameter,
    spectrogram_parameter,
    stft,
    unit_parameter,
    wvd,
)
from .dsl import Compose, ExprNode, Name, Product, Sum, build, parse, pretty
from . import io

__all__ = [name for name in dir() if not name.startswith("_")]
