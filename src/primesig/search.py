"""Checkpointed, multi-worker range scans for pseudoprimes.

A scan walks the odd numbers of [start, stop] and gives each one
outcome: prime, not-applicable, rejected:prefilter, rejected:test or
flagged, and emits one record per flagged number.  Records are JSON
objects, one per line, all integers rendered as decimal strings, field
order fixed, UTF-8 with LF endings; the bytes are identical for any
worker count and across kill/resume at block boundaries.

SearchSpec knows each test: the polynomial f it reads, where it applies,
how to run it and its discriminant.  record turns a test result into a
record, for the scans and for `primesig verify` alike; the one difference
is that a scan adds the class of the full test to a weak hit (when
gcd(delta, n) = 1) before building its record.

Each block gets one marking pass (_mark_block), then the test.  The pass
marks each odd n of the block 0 when it is prime and 1 when it is
composite.  For the two Perrin tests (SearchSpec.prefilter) it then marks
2 composites that cannot pass, each with a prime factor p such that
A(n) != r mod p, by one rule for each p: since A(p*m) = A(m) mod p, all
odd multiples p*m are marked 2, then the classes of m with A(m) = r mod p
get their marks back.  Frobenius scans get the sieve alone.  A composite
the test refuses is an odd multiple n >= 3q of a q in SearchSpec.refusers,
the odd primes of |f(0)*delta|, so applies is asked only there; each
refused n is marked 3.  The test runs on the n still marked 1, and the
outcome counts are those of the marks: 0 prime, 3 not-applicable,
2 rejected:prefilter, 1 rejected:test or flagged.

The range is cut into fixed-size blocks (default 2**16), dealt round
robin: with procs = min(workers, blocks left), block j of a run goes to
process j mod procs.  Process 0 is the parent, which scans its share
inline; each other is a multiprocessing.Process that sends each of its
results over a one-way pipe of its own, so one worker starts no process
at all.  The parent takes the results strictly in block order, writes
them, then advances the checkpoint atomically (fsync the records, write
and fsync a side file, rename over), so a crash cannot leave a
checkpoint that counts records the disk never got.  A worker that dies
raises RuntimeError, naming it and its exit code.  The checkpoint
stores a hash of the search parameters so a resume against different
parameters fails loudly, the byte offset of the output file, to which
the file is truncated on resume so a kill mid-block cannot leave
half-written lines behind, and the outcome counts so far, so totals
after a resume equal those of an uninterrupted run.  A run stops only at
the end of its range or when it is killed.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace

from .frobenius import PROBABLE_PRIME, FrobeniusReport, frobenius_test
from .modarith import _TRIAL_LIMIT, _small_primes, factorize, is_prime_baseline, jacobi
from .perrin import (PERRIN, PerrinResult, RecurrenceParams, exact_terms, perrin_test,
                     residue_tables, residue_walk)
from .polymod import _discriminant, _require_poly

__all__ = ["SearchSpec", "record", "run_range_search", "DEFAULT_BLOCK_SIZE", "TESTS",
           "OUTCOMES", "CheckpointMismatch"]

DEFAULT_BLOCK_SIZE = 1 << 16

TESTS = ("perrin-weak", "perrin-full", "frobenius")

# One per scanned n; their counts add up to the number of n scanned.
OUTCOMES = ("prime", "not-applicable", "rejected:prefilter", "rejected:test", "flagged")


class CheckpointMismatch(RuntimeError):
    """The checkpoint cannot be resumed: it belongs to a different search
    (parameter hash differs), carries no outcome counts (version 1), is
    malformed (not an object, a block or byte count that is missing, not
    an integer or out of range, or outcome counts that are not integers
    >= 0 adding up to the odd n of the blocks done), or counts more bytes
    than the records file holds."""


@dataclass(frozen=True)
class SearchSpec:
    """Which test a scan runs, plus its parameters.

    The one place that knows each test: where it applies (applies), how
    to run it (run), its recurrence (params, from r and s), the polynomial
    its test reads (poly: the cubic of params for the Perrin tests) and the
    discriminant its records' Jacobi symbol reads (delta, of poly), both
    from one check when the spec is built, and refusers, when a scan first
    reads it.  poly is kept as that check trims it, so records and hash do
    not depend on trailing zeros; Perrin records and hash still read r, s.
    A parameter the test does not read must keep its default (poly may be
    a Perrin test's own cubic), or ValueError is raised."""

    test: str
    r: int = 0
    s: int = -1
    poly: tuple[int, ...] = (-1, -1, 0, 1)
    params: RecurrenceParams = field(init=False, repr=False, compare=False)
    delta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.test not in TESTS:
            raise ValueError(f"unknown test {self.test!r}; expected one of {TESTS}")
        # A bad spec would otherwise scan to completion with no meaningful flag.
        if self.test == "frobenius":
            if (self.r, self.s) != (0, -1):
                raise ValueError("r and s are read by the Perrin tests only, not by frobenius")
            params, poly = PERRIN, self.poly
        else:
            params = RecurrenceParams(self.r, self.s)
            if self.poly not in ((-1, -1, 0, 1), params.poly):
                raise ValueError(f"poly is read by frobenius only, not by {self.test}")
            poly = params.poly
        object.__setattr__(self, "poly", _require_poly(poly, 2, squarefree=True))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "delta", _discriminant(self.poly))

    def applies(self, n: int) -> bool:
        """Whether the test is defined at the odd composite n."""
        if self.test == "perrin-full":
            return math.gcd(self.delta, n) == 1
        if self.test == "frobenius":
            return math.gcd(n, self.poly[0] * self.delta) != n
        return True

    @functools.cached_property
    def refusers(self) -> tuple[int, ...]:
        """The odd primes q of |f(0)*delta| (|delta| for perrin-full), none
        for perrin-weak: applies is False at an odd composite n only if some
        q | n, so n >= 3q.  (1,), every odd n, where that number is 2^64 or more."""
        number = 1 if self.test == "perrin-weak" else abs(self.poly[0] * self.delta)
        if number >= 1 << 64:
            return (1,)
        return tuple(q for q in factorize(number).primes() if q > 2) if number > 1 else ()

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
        # Weak hits are rare enough to afford the full test's class as
        # extra evidence; it is recorded, never asserted.
        result = replace(result, signature_class=perrin_test(spec.params, n).signature_class)
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
    marked 1 when composite.  Then, unless params is None, one rule
    serves every odd prime p up to max(isqrt(hi), 59), capped at 10^4:
    since A(p*m) = A(m) mod p, each odd multiple n = p*m (m >= 3) is
    marked 2 by one slice, and each class of m with A(m) = r mod p gets
    its marks back by one strided slice.  Those classes come from the
    period tables of perrin.residue_tables for p <= 59 and from
    perrin.residue_walk over the m of the block above.  Last, when the
    sieve is exact, _mark_rough marks 2 each n still marked 1 whose one
    prime factor P above the sieve bound has A(n/P) != r mod P."""
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
    for p in _small_primes()[1:bisect.bisect_right(_small_primes(), max(root, *tables))]:
        i = _odd_multiple_index(p, max(3 * p, first), first)
        if i >= size:
            continue
        # The odd multiple n = p*m, m = m0 + 2*j, sits at i + p*j, and each
        # hit j < cycle keeps the marks of its class mod cycle.  For a
        # table, m0 + 2*j = k mod period with g | k - m0 is one class of j
        # mod period / g; a walk has one j per class.
        m0 = (first + 2 * i) // p
        count = len(range(i, size, p))
        if p in tables:
            period, residues = tables[p]
            g = math.gcd(2, period)
            cycle = period // g
            inverse = pow(2 // g, -1, cycle)
            hits = [(k - m0) // g * inverse % cycle for k in residues if (k - m0) % g == 0]
        else:
            walk = residue_walk(params, p, m0, count)
            r = params.r % p
            cycle = count
            hits, j = [], -1
            for _ in range(walk.count(r)):
                j = walk.index(r, j + 1)
                hits.append(j)
        saved = marks[i::p]
        marks[i::p] = twos[:count]
        for j in hits:
            marks[i + p * j::p * cycle] = saved[j::cycle]
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


def _scan_block(start: int, stop: int, spec: SearchSpec, block_size: int,
                index: int) -> tuple[list[str], dict[str, int]]:
    """(records, outcome counts) of block index of the scan of [start,
    stop]: the test runs on the marks 1 that spec.applies to, asked only
    at odd multiples n >= 3q of spec.refusers; outcomes count the marks."""
    lo = start + index * block_size
    hi = min(lo + block_size - 1, stop)
    first = max(lo | 1, 3)
    marks = _mark_block(first, hi, spec.prefilter)
    # Not applicable outranks the prefilter: such an n is marked 3.
    for q in spec.refusers:
        for i in range(_odd_multiple_index(q, max(3 * q, first), first), len(marks), q):
            if marks[i] and not spec.applies(first + 2 * i):
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
    return lines, counts


def _scan_share(conn, scan, indices: range) -> None:
    """A worker process's loop: scans the blocks of indices in order and
    sends each result of scan(index) over conn."""
    for index in indices:
        conn.send(scan(index))
    conn.close()


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
    duration.  workers is the number of processes that scan, this one
    among them.  resume continues a checkpointed run and requires
    matching parameters; resuming a finished run scans and writes
    nothing.  out_path may be neither checkpoint_path nor its side file.
    """
    if start < 3:
        start = 3
    if stop < start:
        raise ValueError(f"empty range [{start}, {stop}]")
    if block_size < 2:
        raise ValueError("block size must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if checkpoint_path is not None and os.path.realpath(out_path) in (
            os.path.realpath(checkpoint_path), os.path.realpath(checkpoint_path + ".tmp")):
        # Each checkpoint write would replace the records.
        raise ValueError(f"the records file {out_path} (--out) must differ from the "
                         f"checkpoint {checkpoint_path} (--checkpoint) and its side file")
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
        if not isinstance(state, dict):
            raise CheckpointMismatch("checkpoint is not a JSON object; refusing to resume")
        if state.get("hash") != digest:
            raise CheckpointMismatch(
                "checkpoint was written by a different search; refusing to resume")
        saved = state.get("outcomes")
        if not (state.get("version") == 2 and isinstance(saved, dict)
                and saved.keys() == set(OUTCOMES)):
            raise CheckpointMismatch(
                "checkpoint carries no outcome counts; refusing to resume")
        first_block, offset = state.get("blocks_done"), state.get("bytes_written")
        if not (type(first_block) is int and 0 <= first_block <= total_blocks
                and type(offset) is int and offset >= 0):
            raise CheckpointMismatch(
                f"checkpoint counts {first_block!r} of {total_blocks} blocks and "
                f"{offset!r} bytes; refusing to resume")
        # The odd n of [start, end), end just past the blocks done.
        odd = min(start + first_block * block_size, stop + 1) // 2 - start // 2
        if not (all(type(count) is int and count >= 0 for count in saved.values())
                and sum(saved.values()) == odd):
            raise CheckpointMismatch(
                f"checkpoint outcome counts {saved!r} do not count the {odd} odd numbers "
                f"of its {first_block} blocks; refusing to resume")
        outcomes = {outcome: saved[outcome] for outcome in OUTCOMES}
        if os.path.getsize(out_path) < offset:
            raise CheckpointMismatch(
                f"{out_path} is shorter than the {offset} bytes the checkpoint "
                "recorded; refusing to resume")
        out = open(out_path, "r+b")
        out.truncate(offset)
        out.seek(offset)
    else:
        out = open(out_path, "wb")

    scan = functools.partial(_scan_block, start, stop, spec, block_size)
    done = first_block
    # Block first_block + j goes to process j mod procs: 0 is this one,
    # which scans its blocks inline; each other gets its own pipe.
    procs = min(workers, total_blocks - first_block)
    children = []
    try:
        for k in range(1, procs):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_scan_share, daemon=True,
                args=(sender, scan, range(first_block + k, total_blocks, procs)))
            child.start()
            # Only the child holds the sending end, so its death reads as EOF.
            sender.close()
            children.append((child, receiver))
        for index in range(first_block, total_blocks):
            k = (index - first_block) % procs
            if k == 0:
                lines, counts = scan(index)
            else:
                child, receiver = children[k - 1]
                try:
                    lines, counts = receiver.recv()
                except EOFError:
                    child.join()
                    raise RuntimeError(
                        f"scan worker {k} (pid {child.pid}) exited with code "
                        f"{child.exitcode} before sending block {index}") from None
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
        for child, _ in children:
            child.terminate()
        for child, receiver in children:
            child.join()
            receiver.close()
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
