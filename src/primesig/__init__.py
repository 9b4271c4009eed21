"""Pseudoprime signatures, Frobenius testing, and Carmichael construction.

The package is organized bottom-up: exact integer arithmetic
(modarith), polynomial arithmetic over Z/nZ (polymod), third-order
recurrence signatures (perrin), the three-stage Frobenius test
(frobenius), Korselt certificates (carmichael), the subset-product
constructor (constructor), and the checkpointed range-search harness
(search) behind the primesig command line (cli).

Each public name loads its module on first use, so `import primesig`
loads none of them, and a verify or a scan never loads the constructor.
"""

from importlib import import_module as _import_module

# The public names of each module, which __getattr__ imports on first use.
_PUBLIC = {
    "carmichael": ("CarmichaelFrobeniusResult", "KorseltCertificate", "carmichael_frobenius",
                   "korselt"),
    "constructor": ("PRESETS", "ConstructionCertificate", "ConstructionParams",
                    "ConstructionResult", "SubsetSearchResult", "construct",
                    "find_k_and_primes", "harvest_smooth_primes", "subset_product_search"),
    "frobenius": ("COMPOSITE", "PROBABLE_PRIME", "FrobeniusReport", "factorization_step",
                  "frobenius_step", "frobenius_test", "jacobi_step", "splits_completely"),
    "modarith": ("BudgetExceededError", "Factorization", "factorize", "is_prime_baseline",
                 "jacobi"),
    "perrin": ("NOT_ACCEPTABLE", "PERRIN", "PerrinResult", "RecurrenceParams", "Signature",
               "SignatureClass", "classify_signature", "perrin_test", "sequence_term",
               "signature"),
    "polymod": ("discriminant",),
    "search": ("DEFAULT_BLOCK_SIZE", "SearchSpec", "run_range_search"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Called only for a name not yet in the module's globals; the value is
    # kept there, so each name is looked up once.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
