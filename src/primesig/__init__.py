"""Pseudoprime signatures, Frobenius testing, and Carmichael construction.

The package is organized bottom-up: exact integer arithmetic
(modarith), polynomial arithmetic over Z/nZ (polymod), third-order
recurrence signatures (perrin), the three-stage Frobenius test
(frobenius), Korselt certificates (carmichael), the subset-product
constructor (constructor), and the checkpointed range-search harness
(search) behind the primesig command line (cli).
"""

from .carmichael import (
    CarmichaelFrobeniusResult,
    KorseltCertificate,
    carmichael_frobenius,
    korselt,
)
from .constructor import (
    PRESETS,
    ConstructionCertificate,
    ConstructionParams,
    ConstructionResult,
    SubsetSearchResult,
    construct,
    find_k_and_primes,
    harvest_smooth_primes,
    subset_product_search,
)
from .frobenius import (
    COMPOSITE,
    PROBABLE_PRIME,
    FrobeniusReport,
    factorization_step,
    frobenius_step,
    frobenius_test,
    jacobi_step,
    splits_completely,
)
from .modarith import (
    BudgetExceededError,
    Factorization,
    factorize,
    is_prime_baseline,
    jacobi,
)
from .perrin import (
    NOT_ACCEPTABLE,
    PERRIN,
    PerrinResult,
    RecurrenceParams,
    Signature,
    SignatureClass,
    classify_signature,
    perrin_test,
    sequence_term,
    signature,
)
from .polymod import discriminant
from .search import DEFAULT_BLOCK_SIZE, SearchSpec, run_range_search

__version__ = "0.1.0"
