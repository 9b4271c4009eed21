"""The contract of the 13 result records: how each is built, what it
holds, how it prints, and that it is an immutable, hashable, picklable
value.  Records are NamedTuples, so each also iterates and equals the
plain tuple of its values (test_records_are_tuples)."""

import inspect
import pickle

import pytest

from primesig.carmichael import CarmichaelFrobeniusResult, KorseltCertificate, SplittingEvidence
from primesig.constructor import ConstructionCertificate, SubsetSearchResult
from primesig.frobenius import (FactorizationStepResult, FrobeniusReport, FrobeniusStepResult,
                                JacobiStepResult)
from primesig.modarith import Factorization
from primesig.perrin import PerrinResult, Signature, SignatureClass

REQUIRED = inspect.Parameter.empty

FACT = Factorization(1729, ((7, 1), (13, 1), (19, 1)))
CERT = KorseltCertificate(1729, FACT, ((7, True), (13, True), (19, True)), True)
SPLIT = (SplittingEvidence(7, True), SplittingEvidence(13, True), SplittingEvidence(19, True))
SIG = Signature(7, (5, 6, 5, 5, 0, 3), 7)

# (type, positional arguments, the parent's (name, default) signature, repr)
CASES = [
    (FrobeniusReport, (8911, (-1, -1, 0, 1), "composite", "factorization", (1,), 133),
     [("n", REQUIRED), ("poly", REQUIRED), ("verdict", REQUIRED), ("stage", REQUIRED),
      ("degrees", REQUIRED), ("factor_found", None), ("jacobi_s", None)],
     "FrobeniusReport(n=8911, poly=(-1, -1, 0, 1), verdict='composite', "
     "stage='factorization', degrees=(1,), factor_found=133, jacobi_s=None)"),
    (FactorizationStepResult, (True, (1,), (), 133, "gcmd-failed"),
     [("declared_composite", REQUIRED), ("degrees", REQUIRED), ("parts", ()),
      ("factor_found", None), ("reason", None)],
     "FactorizationStepResult(declared_composite=True, degrees=(1,), parts=(), "
     "factor_found=133, reason='gcmd-failed')"),
    (FrobeniusStepResult, (True, 2),
     [("declared_composite", REQUIRED), ("failing_index", None)],
     "FrobeniusStepResult(declared_composite=True, failing_index=2)"),
    (JacobiStepResult, (True, 1, "parity-mismatch"),
     [("declared_composite", REQUIRED), ("parity_sum", None), ("reason", None)],
     "JacobiStepResult(declared_composite=True, parity_sum=1, reason='parity-mismatch')"),
    (Signature, (7, (5, 6, 5, 5, 0, 3), 7),
     [("modulus", REQUIRED), ("values", REQUIRED), ("index", REQUIRED)],
     "Signature(modulus=7, values=(5, 6, 5, 5, 0, 3), index=7)"),
    (SignatureClass, ("Q", 5),
     [("kind", REQUIRED), ("a", None), ("d", None), ("d_prime", None)],
     "SignatureClass(kind='Q', a=5, d=None, d_prime=None)"),
    (PerrinResult, (True, SignatureClass("Q", 5), -1, SIG),
     [("passes", REQUIRED), ("signature_class", REQUIRED), ("jacobi_symbol", REQUIRED),
      ("signature", None)],
     "PerrinResult(passes=True, signature_class=SignatureClass(kind='Q', a=5, d=None, "
     "d_prime=None), jacobi_symbol=-1, signature=Signature(modulus=7, "
     "values=(5, 6, 5, 5, 0, 3), index=7))"),
    (KorseltCertificate, (1729, FACT, ((7, True), (13, True), (19, True)), True),
     [("n", REQUIRED), ("factorization", REQUIRED), ("checks", REQUIRED), ("squarefree", REQUIRED)],
     "KorseltCertificate(n=1729, factorization=Factorization(base=1729, "
     "factors=((7, 1), (13, 1), (19, 1))), checks=((7, True), (13, True), (19, True)), "
     "squarefree=True)"),
    (SplittingEvidence, (7, True, False),
     [("p", REQUIRED), ("splits", REQUIRED), ("ramified", False)],
     "SplittingEvidence(p=7, splits=True, ramified=False)"),
    (CarmichaelFrobeniusResult, (CERT, SPLIT, None),
     [("korselt", REQUIRED), ("splitting", REQUIRED), ("reason", REQUIRED)],
     "CarmichaelFrobeniusResult(korselt=KorseltCertificate(n=1729, "
     "factorization=Factorization(base=1729, factors=((7, 1), (13, 1), (19, 1))), "
     "checks=((7, True), (13, True), (19, True)), squarefree=True), "
     "splitting=(SplittingEvidence(p=7, splits=True, ramified=False), "
     "SplittingEvidence(p=13, splits=True, ramified=False), "
     "SplittingEvidence(p=19, splits=True, ramified=False)), reason=None)"),
    (Factorization, (1729, ((7, 1), (13, 1), (19, 1))),
     [("base", REQUIRED), ("factors", REQUIRED)],
     "Factorization(base=1729, factors=((7, 1), (13, 1), (19, 1)))"),
    (ConstructionCertificate, (1729, (7, 13, 19), 1, 36, CERT, SPLIT, (-1, 1)),
     [("n", REQUIRED), ("subset", REQUIRED), ("k", REQUIRED), ("modulus", REQUIRED),
      ("korselt", REQUIRED), ("splitting", REQUIRED), ("poly", REQUIRED)],
     "ConstructionCertificate(n=1729, subset=(7, 13, 19), k=1, modulus=36, "
     "korselt=KorseltCertificate(n=1729, factorization=Factorization(base=1729, "
     "factors=((7, 1), (13, 1), (19, 1))), checks=((7, True), (13, True), (19, True)), "
     "squarefree=True), splitting=(SplittingEvidence(p=7, splits=True, ramified=False), "
     "SplittingEvidence(p=13, splits=True, ramified=False), "
     "SplittingEvidence(p=19, splits=True, ramified=False)), poly=(-1, 1))"),
    (SubsetSearchResult, (((7, 13, 19),), True),
     [("subsets", REQUIRED), ("complete", REQUIRED)],
     "SubsetSearchResult(subsets=((7, 13, 19),), complete=True)"),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, params, text", CASES, ids=IDS)
def test_record_signature_and_defaults(cls, args, params, text):
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params
    kinds = {p.kind for p in inspect.signature(cls).parameters.values()}
    assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    # Leaving out every defaulted field gives its default.
    required = [name for name, default in params if default is REQUIRED]
    short = cls(*args[:len(required)])
    for name, default in params[len(required):]:
        assert getattr(short, name) == default, name


@pytest.mark.parametrize("cls, args, params, text", CASES, ids=IDS)
def test_record_by_position_equals_by_keyword(cls, args, params, text):
    names = [name for name, _ in params]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    for name, value in zip(names, args):
        assert getattr(by_position, name) == value, name
    assert repr(by_position) == text
    if cls is not SignatureClass:  # the one record with a __str__ of its own
        assert str(by_position) == text


@pytest.mark.parametrize("cls, args, params, text", CASES, ids=IDS)
def test_record_is_immutable(cls, args, params, text):
    rec = cls(*args)
    for name, _ in params:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    assert rec == cls(*args)


@pytest.mark.parametrize("cls, args, params, text", CASES, ids=IDS)
def test_record_pickles_and_hashes_by_value(cls, args, params, text):
    rec = cls(*args)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls
    assert back == rec and repr(back) == text
    assert hash(back) == hash(rec) == hash(cls(*args))
    assert len({rec, back, cls(*args)}) == 1


@pytest.mark.parametrize("cls, args, params, text", CASES, ids=IDS)
def test_records_are_tuples(cls, args, params, text):
    rec = cls(*args)
    full = args + tuple(default for _, default in params[len(args):])
    assert tuple(rec) == full and rec == full and len(rec) == len(params)


def test_signature_index_is_the_field():
    # The field shadows any method of the same name.
    assert SIG.index == 7
    assert Signature(11, (0,) * 6, 12).index == 12


def test_signature_class_str():
    assert str(SignatureClass("S")) == "S"
    assert str(SignatureClass("not-acceptable")) == "not-acceptable"
    assert str(SignatureClass("Q", a=5)) == "Q[a=5]"
    assert str(SignatureClass("I", d=3, d_prime=4)) == "I[D=3,D'=4]"
    assert f"{SignatureClass('I', d=3, d_prime=4)}" == "I[D=3,D'=4]"


def test_factorization_methods():
    assert FACT.primes() == (7, 13, 19)
    assert FACT.as_dict() == {7: 1, 13: 1, 19: 1}
    assert FACT.is_squarefree and not FACT.is_prime and FACT.verify()
    square = Factorization(12, ((2, 2), (3, 1)))
    assert not square.is_squarefree and square.verify()
    assert Factorization(7, ((7, 1),)).is_prime
    assert not Factorization(12, ((2, 1), (3, 1))).verify()
    assert not Factorization(15, ((15, 1),)).verify()


@pytest.mark.parametrize("cert, composite, reason", [
    (CERT, True, None),
    (KorseltCertificate(7, Factorization(7, ((7, 1),)), ((7, True),), True), False, "prime"),
    (KorseltCertificate(12, Factorization(12, ((2, 2), (3, 1))), ((2, True), (3, False)),
                        False), True, "not-squarefree"),
    (KorseltCertificate(6, Factorization(6, ((2, 1), (3, 1))), ((2, True), (3, False)),
                        True), True, "even"),
    (KorseltCertificate(15, Factorization(15, ((3, 1), (5, 1))), ((3, True), (5, False)),
                        True), True, "divisibility fails at 5"),
])
def test_korselt_certificate_properties(cert, composite, reason):
    assert cert.composite is composite
    assert cert.failure_reason == reason
    assert cert.validates is (reason is None)


def test_carmichael_frobenius_result_truth():
    good = CarmichaelFrobeniusResult(CERT, SPLIT, None)
    assert good.value is True and bool(good) and good
    bad = CarmichaelFrobeniusResult(CERT, (), "no complete splitting at 7")
    assert bad.value is False and not bool(bad) and not bad


def test_construction_certificate_to_record():
    cert = ConstructionCertificate(1729, (7, 13, 19), 1, 36, CERT, SPLIT, (-1, 1))
    assert cert.to_record() == {"n": "1729", "factors": "7,13,19", "k": "1", "L": "36",
                                "poly": "-1,1"}
