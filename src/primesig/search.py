"""Checkpointed, multi-worker range scans for pseudoprimes.

A scan walks the odd numbers of [start, stop] and gives each one
outcome: prime, not-applicable, rejected:prefilter, rejected:test or
flagged, and emits one record per flagged number.  Records are JSON
objects, one per line, all integers rendered as decimal strings, field
order fixed, UTF-8 with LF endings; the bytes are identical for any
worker count and across kill/resume at block boundaries.

Each block goes through three steps.  A sieve marks the block's
composites from the odd primes up to min(isqrt(hi), 10^4); when
isqrt(hi) is within that bound the sieve is exact, and above it only the
unmarked n are put to is_prime_baseline.  For the two Perrin tests a
prefilter then rejects each odd multiple n != p of a prime p <= 59
whose A(n) mod p, read from the period table of A mod p
(perrin.residue_tables), differs from r mod p: such an n cannot have
A(n) = r mod n.  Frobenius scans get the sieve but no prefilter.  Only
the composites that remain, and to which the test applies, run it.

The range is cut into fixed-size blocks (default 2**16).  Workers scan
blocks in parallel but the parent writes results strictly in block
order, then advances the checkpoint atomically (fsync the records, write
and fsync a side file, rename over), so a crash cannot leave a
checkpoint that counts records the disk never got.  The checkpoint
stores a hash of the search parameters so a resume against different
parameters fails loudly, the byte offset of the output file, to which
the file is truncated on resume so a kill mid-block cannot leave
half-written lines behind, and the outcome counts so far, so totals
after a resume equal those of an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass

from .frobenius import PROBABLE_PRIME, frobenius_test
from .modarith import _TRIAL_LIMIT, _small_primes, is_prime_baseline, jacobi
from .perrin import (RecurrenceParams, classify_signature, perrin_test, residue_tables,
                     signature)
from .polymod import discriminant

__all__ = ["SearchSpec", "run_range_search", "DEFAULT_BLOCK_SIZE", "OUTCOMES",
           "CheckpointMismatch"]

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
    """Which test a scan runs, plus its parameters."""

    test: str
    r: int = 0
    s: int = -1
    poly: tuple[int, ...] = (-1, -1, 0, 1)

    def __post_init__(self):
        if self.test not in TESTS:
            raise ValueError(f"unknown test {self.test!r}; expected one of {TESTS}")
        # A bad spec would otherwise scan to completion with nothing flagged.
        if self.test == "frobenius":
            if discriminant(self.poly) == 0:
                raise ValueError(f"polynomial {self.poly} is not squarefree")
        elif self.test == "perrin-full" and RecurrenceParams(self.r, self.s).delta == 0:
            raise ValueError(f"the cubic of (r, s) = ({self.r}, {self.s}) has a repeated root")

    def applies(self, n: int) -> bool:
        """Whether the test is defined at the odd composite n."""
        if self.test == "perrin-full":
            return math.gcd(RecurrenceParams(self.r, self.s).delta, n) == 1
        if self.test == "frobenius":
            return math.gcd(n, self.poly[0] * discriminant(self.poly)) != n
        return True

    def canonical(self) -> str:
        if self.test == "frobenius":
            return f"test={self.test};poly={','.join(map(str, self.poly))}"
        return f"test={self.test};rs={self.r},{self.s}"


def _record_for(n: int, spec: SearchSpec) -> dict | None:
    """The record for n if spec.test flags it, else None.

    n is an odd composite to which spec.test applies."""
    if spec.test == "perrin-weak":
        params = RecurrenceParams(spec.r, spec.s)
        res = perrin_test(params, n, mode="weak")
        if not res.passes:
            return None
        rec = {
            "n": str(n),
            "test": spec.test,
            "rs": f"{spec.r},{spec.s}",
            "verdict": "pass",
        }
        # Weak hits are rare enough to afford the full classification as
        # extra evidence; it is recorded, never asserted.
        if math.gcd(params.delta, n) == 1:
            klass = classify_signature(params, n, signature(params, n, n))
            rec["class"] = str(klass)
        if res.jacobi_symbol is not None:
            rec["jacobi"] = str(res.jacobi_symbol)
        return rec
    if spec.test == "perrin-full":
        res = perrin_test(RecurrenceParams(spec.r, spec.s), n, mode="full")
        if not res.passes:
            return None
        return {
            "n": str(n),
            "test": spec.test,
            "rs": f"{spec.r},{spec.s}",
            "verdict": "pass",
            "class": str(res.signature_class),
            "jacobi": str(res.jacobi_symbol),
        }
    report = frobenius_test(n, spec.poly)
    if report.verdict != PROBABLE_PRIME:
        return None
    return {
        "n": str(n),
        "test": spec.test,
        "poly": ",".join(map(str, spec.poly)),
        "verdict": report.verdict,
        "degrees": ",".join(map(str, report.degrees)),
        "jacobi": str(jacobi(discriminant(spec.poly), n)),
    }


def _sieve_block(first: int, hi: int) -> tuple[bytearray, bool]:
    """Marks for the odd n = first + 2*i <= hi (first odd, >= 3).

    marks[i] is 1 when n has an odd prime factor p < n with
    p <= min(isqrt(hi), 10^4).  The flag says whether that bound reached
    isqrt(hi); then every unmarked n is prime."""
    size = len(range(first, hi + 1, 2))
    marks = bytearray(size)
    ones = memoryview(b"\x01" * size)
    root = math.isqrt(hi)
    for p in _small_primes()[1:]:
        if p > root:
            break
        m = max(p * p, -(-first // p) * p)
        if m % 2 == 0:
            m += p
        i = (m - first) // 2
        if i < size:
            marks[i::p] = ones[:len(range(i, size, p))]
    return marks, root <= _TRIAL_LIMIT


def _prefilter(marks: bytearray, first: int, hi: int, params: RecurrenceParams) -> None:
    # Set marks[i] = 2 for each odd multiple n = first + 2*i of a table
    # prime p, other than p itself, with A(n) != r mod p.
    for p, table in residue_tables(params):
        period = len(table)
        m = max(3 * p, -(-first // p) * p)
        if m % 2 == 0:
            m += p
        for n in range(m, hi + 1, 2 * p):
            if not table[n % period]:
                marks[(n - first) >> 1] = 2


def _scan_block(args) -> tuple[int, list[str], dict[str, int]]:
    index, lo, hi, spec = args
    first = max(lo | 1, 3)
    marks, exact = _sieve_block(first, hi)
    if spec.test != "frobenius":
        _prefilter(marks, first, hi, RecurrenceParams(spec.r, spec.s))
    counts = dict.fromkeys(OUTCOMES, 0)
    lines = []
    for i, n in enumerate(range(first, hi + 1, 2)):
        mark = marks[i]
        if not mark and (exact or is_prime_baseline(n)):
            outcome = "prime"
        elif not spec.applies(n):
            outcome = "not-applicable"
        elif mark == 2:
            outcome = "rejected:prefilter"
        else:
            rec = _record_for(n, spec)
            if rec is None:
                outcome = "rejected:test"
            else:
                outcome = "flagged"
                lines.append(json.dumps(rec, separators=(",", ":")))
        counts[outcome] += 1
    return index, lines, counts


def _params_hash(start: int, stop: int, spec: SearchSpec, block_size: int) -> str:
    text = f"v1;from={start};to={stop};block={block_size};{spec.canonical()}"
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
                     block_size: int = DEFAULT_BLOCK_SIZE,
                     stop_after_blocks: int | None = None) -> dict:
    """Scan [start, stop] and write flagged records to out_path.

    Returns a summary dict with the scanned and flagged counts, the
    count of each outcome (they add up to scanned) and the wall-clock
    duration.  stop_after_blocks ends the run early at a checkpoint
    boundary (for testing kill/resume); resume continues a checkpointed
    run and requires matching parameters.
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

    def checkpoint(blocks_done: int) -> None:
        if checkpoint_path is None:
            return
        # The records must be on disk before a checkpoint that counts them.
        os.fsync(out.fileno())
        _write_checkpoint(checkpoint_path, {
            "version": 2,
            "hash": digest,
            "from": str(start),
            "to": str(stop),
            "block_size": block_size,
            "blocks_done": blocks_done,
            "bytes_written": offset,
            "outcomes": outcomes,
        })

    def block_args():
        for index in range(first_block, total_blocks):
            lo = start + index * block_size
            hi = min(lo + block_size - 1, stop)
            yield index, lo, hi, spec

    done = first_block
    try:
        if first_block < total_blocks:
            procs = min(workers, total_blocks - first_block)
            if procs == 1:
                results = map(_scan_block, block_args())
                pool = None
            else:
                pool = multiprocessing.Pool(procs)
                results = pool.imap(_scan_block, block_args(), chunksize=1)
            try:
                for index, lines, counts in results:
                    payload = "".join(line + "\n" for line in lines).encode("utf-8")
                    out.write(payload)
                    out.flush()
                    offset += len(payload)
                    for outcome, count in counts.items():
                        outcomes[outcome] += count
                    done = index + 1
                    checkpoint(done)
                    if stop_after_blocks is not None and done - first_block >= stop_after_blocks:
                        break
            finally:
                if pool is not None:
                    pool.terminate()
                    pool.join()
        else:
            checkpoint(done)
    finally:
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
