"""Checkpointed, multi-worker range scans for pseudoprimes.

A scan walks the odd numbers of [start, stop] and gives each one
outcome: prime, not-applicable, rejected:prefilter, rejected:test or
flagged, and emits one record per flagged number.  Records are JSON
objects, one per line, all integers rendered as decimal strings, field
order fixed, UTF-8 with LF endings; the bytes are identical for any
worker count and across kill/resume at block boundaries.

SearchSpec knows each test: where it applies, how to run it and its
discriminant.  record turns a test result into a record, for the scans
and for `primesig verify` alike; the one difference is that a scan adds
the signature class to a weak hit (when gcd(delta, n) = 1) before
building its record.

Each block gets one marking pass (_mark_block), then the test.  The pass
marks each odd n of the block 0 when it is prime and 1 when it is
composite.  For the two Perrin tests (SearchSpec.prefilter) it then marks
2 composites that cannot pass, each with a prime factor p such that
A(n) != r mod p; Frobenius scans get the sieve alone.  For a test that
does not apply to every odd composite (SearchSpec.may_refuse), one more
pass marks 3 each composite it refuses.  The test runs only on the n
still marked 1, and the outcome counts are those of the marks: 0 prime,
3 not-applicable, 2 rejected:prefilter, 1 rejected:test or flagged.

The range is cut into fixed-size blocks (default 2**16).  Workers scan
blocks in parallel but the parent writes results strictly in block
order, then advances the checkpoint atomically (fsync the records, write
and fsync a side file, rename over), so a crash cannot leave a
checkpoint that counts records the disk never got.  The checkpoint
stores a hash of the search parameters so a resume against different
parameters fails loudly, the byte offset of the output file, to which
the file is truncated on resume so a kill mid-block cannot leave
half-written lines behind, and the outcome counts so far, so totals
after a resume equal those of an uninterrupted run.  A run stops only at
the end of its range or when it is killed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace

from .frobenius import PROBABLE_PRIME, FrobeniusReport, frobenius_test
from .modarith import _TRIAL_LIMIT, _small_primes, is_prime_baseline, jacobi
from .perrin import (PerrinResult, RecurrenceParams, classify_signature, perrin_test,
                     exact_terms, residue_tables, residue_walk, signature)
from .polymod import _require_squarefree

__all__ = ["SearchSpec", "record", "run_range_search", "DEFAULT_BLOCK_SIZE", "TESTS",
           "OUTCOMES", "CheckpointMismatch"]

DEFAULT_BLOCK_SIZE = 1 << 16

TESTS = ("perrin-weak", "perrin-full", "frobenius")

# One per scanned n; their counts add up to the number of n scanned.
OUTCOMES = ("prime", "not-applicable", "rejected:prefilter", "rejected:test", "flagged")


class CheckpointMismatch(RuntimeError):
    """The checkpoint cannot be resumed: it belongs to a different search
    (parameter hash differs), carries no outcome counts (version 1), or
    counts more bytes than the records file holds."""


@dataclass(frozen=True)
class SearchSpec:
    """Which test a scan runs, plus its parameters.

    The one place that knows each test: where it applies (applies), how
    to run it (run), its recurrence (params, from r and s) and the
    discriminant whose Jacobi symbol its records carry (delta: of poly
    for frobenius, of the cubic of params for the Perrin tests).  Both
    are computed once, when the spec is built; a frobenius spec keeps
    poly as the validator trims it, so that its records and hash do not
    depend on trailing zeros."""

    test: str
    r: int = 0
    s: int = -1
    poly: tuple[int, ...] = (-1, -1, 0, 1)
    params: RecurrenceParams = field(init=False, repr=False, compare=False)
    delta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.test not in TESTS:
            raise ValueError(f"unknown test {self.test!r}; expected one of {TESTS}")
        params = RecurrenceParams(self.r, self.s)
        # A bad spec would otherwise scan to completion with nothing flagged.
        if self.test == "perrin-weak":
            delta = params.delta
        elif self.test == "perrin-full":
            delta = _require_squarefree(params.poly, 2)[1]
        else:
            poly, delta = _require_squarefree(self.poly, 2)
            object.__setattr__(self, "poly", tuple(poly))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "delta", delta)

    def applies(self, n: int) -> bool:
        """Whether the test is defined at the odd composite n."""
        if self.test == "perrin-full":
            return math.gcd(self.delta, n) == 1
        if self.test == "frobenius":
            return math.gcd(n, self.poly[0] * self.delta) != n
        return True

    @property
    def may_refuse(self) -> bool:
        """Whether applies(n) can be False at some odd composite n; where
        it cannot, a scan never asks."""
        return self.test != "perrin-weak"

    def run(self, n: int) -> PerrinResult | FrobeniusReport:
        """The test's result at n."""
        if self.test == "frobenius":
            return frobenius_test(n, self.poly)
        return perrin_test(self.params, n, mode=self.test[len("perrin-"):])

    @property
    def prefilter(self) -> RecurrenceParams | None:
        """The recurrence whose residues the prefilter reads: params for
        the Perrin tests, None (no prefilter) for frobenius."""
        return None if self.test == "frobenius" else self.params

    def canonical(self) -> str:
        if self.test == "frobenius":
            return f"test={self.test};poly={','.join(map(str, self.poly))}"
        return f"test={self.test};rs={self.r},{self.s}"


def record(n: int, spec: SearchSpec, result: PerrinResult | FrobeniusReport) -> dict[str, str]:
    """The record of spec.test at n, from spec.run(n) or a result like it.

    The verdict comes from result.  class is present only when result
    carries a signature class, and factor_found only when it has one.
    jacobi, the symbol of spec.delta, is present for every odd n; it is
    computed here only when result has none.
    """
    rec = {"n": str(n), "test": spec.test}
    if spec.test == "frobenius":
        rec |= {"poly": ",".join(map(str, spec.poly)), "verdict": result.verdict,
                "degrees": ",".join(map(str, result.degrees))}
        j, factor = None, result.factor_found
    else:
        rec |= {"rs": f"{spec.r},{spec.s}", "verdict": "pass" if result.passes else "fail"}
        if result.signature_class is not None:
            rec["class"] = str(result.signature_class)
        j, factor = result.jacobi_symbol, None
    if n % 2:
        rec["jacobi"] = str(jacobi(spec.delta, n) if j is None else j)
    if factor:
        rec["factor_found"] = str(factor)
    return rec


def _record_for(n: int, spec: SearchSpec) -> dict | None:
    """The record for n if spec.test flags it, else None.

    n is an odd composite to which spec.test applies."""
    result = spec.run(n)
    if not (result.verdict == PROBABLE_PRIME if spec.test == "frobenius" else result.passes):
        return None
    if spec.test == "perrin-weak" and math.gcd(spec.delta, n) == 1:
        # Weak hits are rare enough to afford the full classification as
        # extra evidence; it is recorded, never asserted.
        params = spec.params
        result = replace(result, signature_class=classify_signature(
            params, n, signature(params, n, n)))
    return record(n, spec, result)


def _odd_multiple_index(p: int, bound: int, first: int) -> int:
    # The index (n - first) / 2 of the least odd multiple n >= bound of
    # the odd p; first is odd.
    return ((-(-bound // p) | 1) * p - first) >> 1


def _mark_block(first: int, hi: int, params: RecurrenceParams | None) -> bytearray:
    """Marks for the odd n = first + 2*i <= hi (first odd, >= 3): 0 for
    a prime, 1 or 2 for a composite.

    marks[i] is 1 when n has an odd prime factor p < n with
    p <= min(isqrt(hi), 10^4); where that bound falls short of
    isqrt(hi), each n it leaves at 0 is put to is_prime_baseline, and
    marked 1 when composite.  Then, unless params is None, marks[i] is 2
    when n = p*m (m >= 3 odd) for a prime p with A(n) != r mod p: read
    from the period tables of perrin.residue_tables for p <= 59, one
    slice per residue class that the table accepts rather than one step
    per multiple, and for the sieve primes above 59 from A(m) mod p,
    walked by perrin.residue_walk over the m of the block.  Last, when
    the sieve is exact, _mark_rough marks 2 each n still marked 1 whose
    one prime factor P above the sieve bound has A(n/P) != r mod P."""
    size = len(range(first, hi + 1, 2))
    marks = bytearray(size)
    ones = memoryview(b"\x01" * size)
    root = math.isqrt(hi)
    primes = _small_primes()[1:bisect.bisect_right(_small_primes(), root)]
    for p in primes:
        i = _odd_multiple_index(p, max(p * p, first), first)
        if i < size:
            marks[i::p] = ones[:len(range(i, size, p))]
    exact = root <= _TRIAL_LIMIT
    if not exact:
        i = marks.find(0)
        while i >= 0:
            marks[i] = not is_prime_baseline(first + 2 * i)
            i = marks.find(0, i + 1)
    if params is None:
        return marks
    tables = residue_tables(params)
    twos = memoryview(b"\x02" * size)
    for p, table in tables:
        i = _odd_multiple_index(p, max(3 * p, first), first)
        if i >= size:
            continue
        # The odd multiples n = first + 2*i + 2*p*k sit at i + p*k, and
        # n mod T repeats every cycle of them.  All are marked 2, then the
        # classes k mod cycle whose table entry is 1 get their marks back.
        g = math.gcd(2 * p, len(table))
        cycle = len(table) // g
        inverse = pow(2 * p // g, -1, cycle)
        n = first + 2 * i
        saved = marks[i::p]
        marks[i::p] = twos[:len(saved)]
        t = table.find(1)
        while t >= 0:
            if (t - n) % g == 0:
                k = (t - n) // g * inverse % cycle
                marks[i + p * k::p * cycle] = saved[k::cycle]
            t = table.find(1, t + 1)
    # The tables hold the least odd primes; the walk takes the rest.
    for p in primes[len(tables):]:
        i = _odd_multiple_index(p, max(3 * p, first), first)
        if i < size:
            r = params.r % p
            for a in residue_walk(params, p, (first + 2 * i) // p, len(range(i, size, p))):
                if a != r:
                    marks[i] = 2
                i += p
    if exact:
        _mark_rough(marks, first, hi, params, primes)
    return marks


def _mark_rough(marks: bytearray, first: int, hi: int, params: RecurrenceParams,
                primes: list[int]) -> None:
    # Marks 2 each n still marked 1 that is s*P, with P > 1 the part of n
    # free of the sieve primes (every odd prime <= isqrt(hi)), such that
    # A(s) != r mod P.  P is prime, since P <= hi < (isqrt(hi) + 1)^2,
    # and A(s*P) = A(s) mod P; s <= hi // (isqrt(hi) + 1), and an s past
    # the end of the exact terms is left marked 1.
    terms = exact_terms(params, hi // (math.isqrt(hi) + 1) + 1)
    radical = math.prod(primes)
    r = params.r
    i = marks.find(1)
    while i >= 0:
        n = first + 2 * i
        g = math.gcd(n, radical)
        rough = n // g
        while (h := math.gcd(rough, g)) > 1:
            rough //= h
        s = n // rough
        if rough > 1 and s < len(terms) and (terms[s] - r) % rough:
            marks[i] = 2
        i = marks.find(1, i + 1)


def _scan_block(args) -> tuple[int, list[str], dict[str, int]]:
    """(index, records, outcome counts) of the block [lo, hi]: the n
    that _mark_block leaves at 1 and spec.applies to run the test, and
    each outcome is counted from the marks."""
    index, lo, hi, spec = args
    first = max(lo | 1, 3)
    marks = _mark_block(first, hi, spec.prefilter)
    if spec.may_refuse:
        # Not applicable outranks the prefilter: such an n is marked 3.
        for i, mark in enumerate(marks):
            if mark and not spec.applies(first + 2 * i):
                marks[i] = 3
    lines = []
    i = marks.find(1)
    while i >= 0:
        rec = _record_for(first + 2 * i, spec)
        if rec is not None:
            lines.append(json.dumps(rec, separators=(",", ":")))
        i = marks.find(1, i + 1)
    counts = {"prime": marks.count(0), "not-applicable": marks.count(3),
              "rejected:prefilter": marks.count(2),
              "rejected:test": marks.count(1) - len(lines), "flagged": len(lines)}
    return index, lines, counts


def _params_hash(start: int, stop: int, spec: SearchSpec, block_size: int) -> str:
    text = f"v3;from={start};to={stop};block={block_size};{spec.canonical()}"
    return hashlib.sha256(text.encode()).hexdigest()


def _write_checkpoint(path: str, state: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def run_range_search(start: int, stop: int, spec: SearchSpec, *,
                     workers: int = 1, out_path: str,
                     checkpoint_path: str | None = None, resume: bool = False,
                     block_size: int = DEFAULT_BLOCK_SIZE) -> dict:
    """Scan [start, stop] and write flagged records to out_path.

    Returns a summary dict with the scanned and flagged counts, the
    count of each outcome (they add up to scanned) and the wall-clock
    duration.  resume continues a checkpointed run and requires matching
    parameters; resuming a finished run scans and writes nothing.
    """
    if start < 3:
        start = 3
    if stop < start:
        raise ValueError(f"empty range [{start}, {stop}]")
    if block_size < 2:
        raise ValueError("block size must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.monotonic()
    digest = _params_hash(start, stop, spec, block_size)
    total_blocks = (stop - start) // block_size + 1
    first_block = 0
    outcomes = dict.fromkeys(OUTCOMES, 0)
    offset = 0
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires a checkpoint path")
        with open(checkpoint_path, encoding="utf-8") as fh:
            state = json.load(fh)
        if state.get("hash") != digest:
            raise CheckpointMismatch(
                "checkpoint was written by a different search; refusing to resume")
        if state.get("version") != 2 or set(state.get("outcomes", ())) != set(OUTCOMES):
            raise CheckpointMismatch(
                "checkpoint carries no outcome counts; refusing to resume")
        first_block = state["blocks_done"]
        outcomes = {outcome: state["outcomes"][outcome] for outcome in OUTCOMES}
        offset = state["bytes_written"]
        if os.path.getsize(out_path) < offset:
            raise CheckpointMismatch(
                f"{out_path} is shorter than the {offset} bytes the checkpoint "
                "recorded; refusing to resume")
        out = open(out_path, "r+b")
        out.truncate(offset)
        out.seek(offset)
    else:
        out = open(out_path, "wb")

    def block_args():
        for index in range(first_block, total_blocks):
            lo = start + index * block_size
            hi = min(lo + block_size - 1, stop)
            yield index, lo, hi, spec

    done = first_block
    procs = min(workers, total_blocks - first_block)
    pool = None
    try:
        if procs > 1:
            pool = multiprocessing.Pool(procs)
            results = pool.imap(_scan_block, block_args(), chunksize=1)
        else:
            results = map(_scan_block, block_args())
        for index, lines, counts in results:
            payload = "".join(line + "\n" for line in lines).encode("utf-8")
            out.write(payload)
            out.flush()
            offset += len(payload)
            for outcome, count in counts.items():
                outcomes[outcome] += count
            done = index + 1
            if checkpoint_path is not None:
                # The records must be on disk before a checkpoint that counts them.
                os.fsync(out.fileno())
                _write_checkpoint(checkpoint_path, {
                    "version": 2,
                    "hash": digest,
                    "from": str(start),
                    "to": str(stop),
                    "block_size": block_size,
                    "blocks_done": done,
                    "bytes_written": offset,
                    "outcomes": outcomes,
                })
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
        out.close()
    return {
        "scanned": sum(outcomes.values()),
        "flagged": outcomes["flagged"],
        "outcomes": outcomes,
        "duration": time.monotonic() - t0,
        "blocks_done": done,
        "blocks_total": total_blocks,
        "completed": done >= total_blocks,
    }
