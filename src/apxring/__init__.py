"""Approximate subrings of computable rings.

Approximation-constant certificates, covering numbers by additive
translates, growth sequences, constructive cover bounds and desk-scale
classification checks, over modular / polynomial / matrix / product /
table ring backends plus lazy integers and F_p[t].
"""

from .classify import (
    ClassificationReport,
    GalleryItem,
    ModelCheckReport,
    SubringSearchResult,
    core_set,
    finite_model_check,
    gallery,
    is_subring,
    nzd_classify,
    pos_char_search,
)
from .constructive import (
    ConstructiveCoverReport,
    bound_table,
    claim1_cover,
    claim2_cover,
    k11_cover,
    msum_cover,
)
from .cover import (
    ApproxCertificate,
    CommensurabilityResult,
    CoverWitness,
    approx_constant,
    commensurability,
    cover_brute_force,
    cover_exact,
    cover_greedy,
    is_generic,
    verify_witness,
)
from .errors import (
    ApxError,
    BudgetExceededError,
    CrossRingError,
    InfiniteRingError,
    InvalidParamsError,
    NotAnIdealError,
    NotSymmetricError,
    ParseError,
    RingConstructionError,
    UncoverableError,
    VerificationFailedError,
    ZeroDivisorError,
)
from .rings import (
    galois_field,
    integers,
    make_ring,
    matrix_ring,
    modular,
    parse_ring,
    poly_quotient,
    poly_ring,
    prime_field,
    product_ring,
    quotient_ring,
    subring_table,
    table_ring,
    zero_multiplication_ring,
)
from .sets import (
    ClosureResult,
    FiniteSet,
    GrowthProfile,
    closure,
    difference_set,
    growth_sequence,
    growth_step,
    iterated_sum,
    msum,
    negate,
    parse_set,
    power_products,
    prodset,
    sumset,
    symmetrize,
    translate,
)
from .sweep import SweepReport, SweepSpec, run_sweep

__version__ = "0.1.0"
