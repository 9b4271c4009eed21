"""primesig loads each module on first use of one of its names."""

import importlib
import json
import subprocess
import sys

import pytest

import primesig

# The public names of primesig, by defining module: those the package
# exported when its __init__ imported every module at once.
PUBLIC = {
    "carmichael": ["CarmichaelFrobeniusResult", "KorseltCertificate", "carmichael_frobenius",
                   "korselt"],
    "constructor": ["PRESETS", "ConstructionCertificate", "ConstructionParams",
                    "ConstructionResult", "SubsetSearchResult", "construct", "find_k_and_primes",
                    "harvest_smooth_primes", "subset_product_search"],
    "frobenius": ["COMPOSITE", "PROBABLE_PRIME", "FrobeniusReport", "factorization_step",
                  "frobenius_step", "frobenius_test", "jacobi_step", "splits_completely"],
    "modarith": ["BudgetExceededError", "Factorization", "factorize", "is_prime_baseline",
                 "jacobi"],
    "perrin": ["NOT_ACCEPTABLE", "PERRIN", "PerrinResult", "RecurrenceParams", "Signature",
               "SignatureClass", "classify_signature", "perrin_test", "sequence_term",
               "signature"],
    "polymod": ["discriminant"],
    "search": ["DEFAULT_BLOCK_SIZE", "SearchSpec", "run_range_search"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)

# Runs the command line on argv[1:] in a fresh interpreter and prints, last,
# its exit code and which of the modules a verify or a scan never needs it
# loaded.
FOOTPRINT = """
import json, sys
before = set(sys.modules)
from primesig import cli
code = cli.main(sys.argv[1:])
unused = ("primesig.constructor", "primesig.carmichael", "multiprocessing", "logging")
print(json.dumps([code, [m for m in unused if m in sys.modules and m not in before]]))
"""

# Prints what a fresh `import primesig` loads and shows, then the names of
# `from primesig import *` and what dir() shows once they are loaded.
FRESH = """
import json, sys
import primesig
public = lambda names: sorted(name for name in names if not name.startswith("_"))
fresh = [sorted(m for m in sys.modules if m.startswith("primesig")), public(dir(primesig))]
star = {}
exec("from primesig import *", star)
print(json.dumps(fresh + [public(star), public(dir(primesig))]))
"""


def run_fresh(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["verify", "271441", "--test", "perrin-weak"],
    ["verify", "271441", "--test", "perrin-full"],
    ["verify", "1000037", "--test", "perrin-full"],  # a Q-type prime: root recovery runs
    ["verify", "5777", "--test", "frobenius", "--poly=-1,-1,1"],
    ["verify", "271441", "--test", "frobenius"],
    ["search", "--from", "3", "--to", "3000", "--test", "perrin-full", "--out", "{out}"],
])
def test_verify_and_scans_load_no_constructor_pool_or_logging(argv, tmp_path):
    argv = [arg.format(out=tmp_path / "scan.jsonl") for arg in argv]
    assert run_fresh(FOOTPRINT, *argv) == [0, []]


def test_public_names_load_on_first_use():
    loaded, fresh, star, full = run_fresh(FRESH)
    assert loaded == ["primesig"]
    assert fresh == star == NAMES
    # Once each name is loaded, dir() also shows the modules that define them.
    assert full == sorted(NAMES + list(PUBLIC))
    assert primesig.__all__ == [name for names in PUBLIC.values() for name in names]
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"primesig.{module}")
        for name in names:
            assert getattr(primesig, name) is getattr(defining, name), name
    assert not hasattr(primesig, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        primesig.no_such_name
