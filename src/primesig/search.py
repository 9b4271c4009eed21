"""Checkpointed, multi-worker range scans for pseudoprimes.

A scan walks the odd numbers of [start, stop], skips primes, runs the
configured test on each composite and emits one record per number that
passes.  Records are JSON objects, one per line, all integers rendered
as decimal strings, field order fixed, UTF-8 with LF endings; the bytes
are identical for any worker count and across kill/resume at block
boundaries.

The range is cut into fixed-size blocks (default 2**16).  Workers scan
blocks in parallel but the parent writes results strictly in block
order, then advances the checkpoint atomically (fsync the records, write
and fsync a side file, rename over), so a crash cannot leave a
checkpoint that counts records the disk never got.  The checkpoint
stores a hash of the search parameters so a resume against different
parameters fails loudly, plus the byte offset of the output file, to
which the file is truncated on resume so a kill mid-block cannot leave
half-written lines behind.
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
from .modarith import is_prime_baseline, jacobi
from .perrin import RecurrenceParams, classify_signature, perrin_test, signature
from .polymod import discriminant

__all__ = ["SearchSpec", "run_range_search", "DEFAULT_BLOCK_SIZE", "CheckpointMismatch"]

DEFAULT_BLOCK_SIZE = 1 << 16

TESTS = ("perrin-weak", "perrin-full", "frobenius")


class CheckpointMismatch(RuntimeError):
    """Checkpoint belongs to a different search (parameter hash differs)."""


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

    def canonical(self) -> str:
        if self.test == "frobenius":
            return f"test={self.test};poly={','.join(map(str, self.poly))}"
        return f"test={self.test};rs={self.r},{self.s}"


def _record_for(n: int, spec: SearchSpec) -> dict | None:
    """The record for n if spec.test flags it, else None.

    n is assumed odd; primes are filtered here via the baseline oracle."""
    if is_prime_baseline(n):
        return None
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
        params = RecurrenceParams(spec.r, spec.s)
        if math.gcd(params.delta, n) != 1:
            return None  # test does not apply; such n cannot be flagged
        res = perrin_test(params, n, mode="full")
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
    # frobenius
    try:
        report = frobenius_test(n, spec.poly)
    except ValueError:
        # The spec is valid, so only gcd(n, f(0)*delta) = n may land here:
        # the test does not apply to n.
        if math.gcd(n, spec.poly[0] * discriminant(spec.poly)) != n:
            raise
        return None
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


def _scan_block(args) -> tuple[int, list[str], int]:
    index, lo, hi, spec = args
    first = lo if lo % 2 else lo + 1
    lines = []
    scanned = 0
    for n in range(max(first, 3), hi + 1, 2):
        scanned += 1
        rec = _record_for(n, spec)
        if rec is not None:
            lines.append(json.dumps(rec, separators=(",", ":")))
    return index, lines, scanned


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

    Returns a summary dict with scanned/flagged counts and the wall-clock
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
    scanned = 0
    flagged = 0
    offset = 0
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires a checkpoint path")
        with open(checkpoint_path, encoding="utf-8") as fh:
            state = json.load(fh)
        if state.get("hash") != digest:
            raise CheckpointMismatch(
                "checkpoint was written by a different search; refusing to resume")
        first_block = state["blocks_done"]
        scanned = state["scanned"]
        flagged = state["flagged"]
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
            "version": 1,
            "hash": digest,
            "from": str(start),
            "to": str(stop),
            "block_size": block_size,
            "blocks_done": blocks_done,
            "bytes_written": offset,
            "scanned": scanned,
            "flagged": flagged,
        })

    def block_args():
        for index in range(first_block, total_blocks):
            lo = start + index * block_size
            hi = min(lo + block_size - 1, stop)
            yield index, lo, hi, spec

    done = first_block
    try:
        if first_block < total_blocks:
            if workers == 1:
                results = map(_scan_block, block_args())
                pool = None
            else:
                pool = multiprocessing.Pool(workers)
                results = pool.imap(_scan_block, block_args(), chunksize=1)
            try:
                for index, lines, block_scanned in results:
                    payload = "".join(line + "\n" for line in lines).encode("utf-8")
                    out.write(payload)
                    out.flush()
                    offset += len(payload)
                    scanned += block_scanned
                    flagged += len(lines)
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
        "scanned": scanned,
        "flagged": flagged,
        "duration": time.monotonic() - t0,
        "blocks_done": done,
        "blocks_total": total_blocks,
        "completed": done >= total_blocks,
    }
