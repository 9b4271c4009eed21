"""The benchmark's three workloads.

Each workload makes its inputs from the seed, runs one closed-loop unit
of work through primesig's public API (`run`), replays the same inputs
serially through the public functions under a tracer (`replay`), and
checks the outputs against identities that link modules (`check`).  The
program object `pk` is the imported `primesig` package; the benchmark
never imports it at module level, so set-up can import it afresh.

Records are the bytes a unit produces: the scan files `run_range_search`
writes, followed by one JSON line per `cli.verify_number` record or
constructed certificate.  The replay must reproduce them byte for byte.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from harness import NullTracer, reference_time

PERRIN_POLY = (-1, -1, 0, 1)  # x^3 - x - 1, the cubic of (r, s) = (0, -1)
PERRIN_DELTA = -23

# Every odd composite below 10**6 that passes the weak Perrin test (README,
# numerical notes).  All census and scan windows stay below 10**6.  Flags of
# the full and Frobenius tests for x^3 - x - 1 pass the weak test too, so
# they are drawn from this list as well.
KNOWN_ODD_WEAK = (271441, 904631)

VERIFY_SAMPLE = 200  # composites verified through the CLI path per unit


def jsonl(records) -> bytes:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records).encode()


def composite_flags(limit: int) -> bytearray:
    """flags[n] == 1 iff n <= limit is composite (sieve of Eratosthenes).

    The benchmark's own primality oracle, independent of primesig."""
    flags = bytearray(limit + 1)
    flags[0] = flags[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if not flags[p]:
            flags[p * p::p] = b"\x01" * len(range(p * p, limit + 1, p))
    return flags


def frobenius_outcome(pk, n: int, poly, tr, counts: dict):
    """frobenius_test(n, poly) for odd n > 1, one public call per stage.

    Returns the outcome (the stage that declared n composite,
    "not-applicable", or PROBABLE_PRIME) and the factorization-stage
    result, and counts the outcome in counts.
    """
    cs = list(poly)
    delta = tr.call("polymod.discriminant", n, pk.discriminant, cs)
    g = math.gcd(n, cs[0] * delta)
    fact = None
    if g == n:
        outcome = "not-applicable"
    elif g > 1:
        outcome = "precondition"
    else:
        fact = tr.call("frobenius.factorization_step", n, pk.factorization_step, n, cs)
        if fact.declared_composite:
            outcome = "factorization"
        elif tr.call("frobenius.frobenius_step", n, pk.frobenius_step,
                     n, fact.parts).declared_composite:
            outcome = "frobenius"
        elif tr.call("frobenius.jacobi_step", n, pk.jacobi_step,
                     fact.degrees, delta, n).declared_composite:
            outcome = "jacobi"
        else:
            outcome = pk.PROBABLE_PRIME
    key = f"frobenius.outcome.{outcome}"
    counts[key] = counts.get(key, 0) + 1
    return outcome, fact


@dataclass
class ScanRun:
    test: str
    workers: int
    wall: float
    summary: dict


@dataclass
class Phase:
    """Part of a unit that lies between two probes of the machine's speed."""

    wall: float  # seconds of the unit's measured work in this phase
    latencies: list[float] = field(default_factory=list)


@dataclass
class Unit:
    """One closed-loop unit: its records, its throughput and its latencies.

    parts are the scan files in scan order and then the JSON lines of the
    verified numbers; records are their concatenation.  The unit ran as
    phases with a reference_time() probe between each two, so that the
    harness can scale each phase by the probes right next to it."""

    parts: list[bytes]
    work: float  # range width scanned, or certificates issued
    phases: list[Phase]
    probes: list[float] = field(default_factory=list)  # one fewer than phases
    scans: list[ScanRun] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def records(self) -> bytes:
        return b"".join(self.parts)


@dataclass
class Replay:
    records: bytes
    scan_spans: list[int] = field(default_factory=list)
    scanned: list[int] = field(default_factory=list)  # n walked per scan
    frobenius_tested: int = 0  # n that went through the Frobenius stages


@dataclass(frozen=True)
class ScanInputs:
    start: int
    stop: int
    sample: tuple[int, ...]  # odd composites of the window to verify


class ScanWorkload:
    """Range scans through `run_range_search`, then CLI verification of a
    seeded sample of the window's composites.

    The seed shifts the window by whole multiples of width / 128, at most
    a quarter of the width, so every seed costs about the same per n.
    """

    def __init__(self, name: str, width: int, scans, verify_tests):
        self.name = name
        self.width = width
        self.scans = scans  # (test, workers)
        self.verify_tests = verify_tests

    def inputs(self, seed: int) -> ScanInputs:
        step = (self.width // 128) & ~1  # even, so every window starts odd
        start = 3 + (seed % 32) * step
        stop = start + self.width - 1
        flags = composite_flags(stop)
        pool = [n for n in range(start, stop + 1, 2)
                if flags[n] and math.gcd(n, PERRIN_DELTA) == 1]
        sample = random.Random(f"{self.name}:{seed}").sample(pool, VERIFY_SAMPLE)
        return ScanInputs(start, stop, tuple(sorted(sample)))

    def spec(self, pk, test: str):
        if test == "frobenius":
            return pk.SearchSpec(test, poly=PERRIN_POLY)
        return pk.SearchSpec(test, r=0, s=-1)

    def warm_up(self, pk, outdir: str) -> None:
        path = os.path.join(outdir, f"{self.name}.warm.jsonl")
        for test, workers in self.scans:
            pk.run_range_search(3, 2000, self.spec(pk, test), workers=workers, out_path=path)
        self._verify(pk, (9, 15, 21), NullTracer())

    def run(self, pk, inp: ScanInputs, outdir: str, tally) -> Unit:
        files, scans = [], []
        for test, workers in self.scans:
            path = os.path.join(outdir, f"{self.name}.{test}.jsonl")
            t0 = time.perf_counter()
            summary = pk.run_range_search(inp.start, inp.stop, self.spec(pk, test),
                                          workers=workers, out_path=path)
            scans.append(ScanRun(test, workers, time.perf_counter() - t0, summary))
            with open(path, "rb") as fh:
                files.append(fh.read())
        probe = reference_time()
        verified, latencies = self._verify(pk, inp.sample, NullTracer())
        phases = [Phase(sum(s.wall for s in scans)), Phase(0.0, latencies)]
        return Unit(files + [verified], self.width * len(self.scans), phases, [probe], scans)

    def _verify(self, pk, sample, tr) -> tuple[bytes, list[float]]:
        records, latencies = [], []
        for n in sample:
            buf = io.StringIO()
            t0 = time.perf_counter()
            for test in self.verify_tests:
                records.append(tr.call("cli.verify_number", n, pk.cli.verify_number,
                                       n, test, rs=(0, -1), poly=PERRIN_POLY, out=buf))
            latencies.append(time.perf_counter() - t0)
        return jsonl(records), latencies

    # -- traced replay: the composition of search._record_for and
    # -- frobenius.frobenius_test, one public call per span.

    def replay(self, pk, inp: ScanInputs, tr, counts: dict, tally) -> Replay:
        out = Replay(b"")
        files = []
        for test, _ in self.scans:
            spec = self.spec(pk, test)
            params = pk.RecurrenceParams(spec.r, spec.s)
            scan = tr.begin("search.scan", inp.start)
            records, scanned = [], 0
            # Windows start odd, so walking them in order is block order.
            for n in range(inp.start, inp.stop + 1, 2):
                scanned += 1
                sid = tr.begin("search.record", n)
                if not tr.call("modarith.is_prime_baseline", n, pk.is_prime_baseline, n):
                    out.frobenius_tested += test == "frobenius"
                    rec = self._record(pk, test, spec, params, n, tr, counts)
                    if rec is not None:
                        records.append(rec)
                tr.end(sid)
            tr.end(scan)
            files.append(jsonl(records))
            out.scan_spans.append(scan)
            out.scanned.append(scanned)
        verified, _ = self._verify(pk, inp.sample, tr)
        out.records = b"".join(files) + verified
        return out

    def _classify(self, pk, params, n, tr, counts):
        sig = tr.call("perrin.signature", n, pk.signature, params, n, n)
        klass = tr.call("perrin.classify_signature", n, pk.classify_signature, params, n, sig)
        key = f"perrin.class.{klass.kind}"
        counts[key] = counts.get(key, 0) + 1
        return klass

    def _record(self, pk, test, spec, params, n, tr, counts):
        head = {"n": str(n), "test": test}
        if test == "perrin-weak":
            res = tr.call("perrin.perrin_test_weak", n, pk.perrin_test, params, n, "weak")
            if not res.passes:
                return None
            rec = head | {"rs": f"{spec.r},{spec.s}", "verdict": "pass"}
            if math.gcd(params.delta, n) == 1:
                rec["class"] = str(self._classify(pk, params, n, tr, counts))
            if res.jacobi_symbol is not None:
                rec["jacobi"] = str(res.jacobi_symbol)
            return rec
        if test == "perrin-full":
            if math.gcd(params.delta, n) != 1:
                return None
            klass = self._classify(pk, params, n, tr, counts)
            j = tr.call("modarith.jacobi", n, pk.jacobi, params.delta, n)
            if not ((j == 1 and klass.kind in ("S", "I")) or (j == -1 and klass.kind == "Q")):
                return None
            return head | {"rs": f"{spec.r},{spec.s}", "verdict": "pass",
                           "class": str(klass), "jacobi": str(j)}
        outcome, fact = frobenius_outcome(pk, n, spec.poly, tr, counts)
        if outcome != pk.PROBABLE_PRIME:
            return None
        delta = tr.call("polymod.discriminant", n, pk.discriminant, spec.poly)
        return head | {"poly": ",".join(map(str, spec.poly)), "verdict": outcome,
                       "degrees": ",".join(map(str, fact.degrees)),
                       "jacobi": str(tr.call("modarith.jacobi", n, pk.jacobi, delta, n))}

    def check(self, pk, inp: ScanInputs, unit: Unit, tally) -> None:
        odd = len(range(inp.start, inp.stop + 1, 2))
        flagged_by_test = {}
        for run, data in zip(unit.scans, unit.parts):
            tally.check(run.summary["completed"] and run.summary["scanned"] == odd,
                        f"{run.test} scan walked {run.summary['scanned']} of {odd} odd n")
            flagged = [int(json.loads(line)["n"]) for line in data.splitlines()]
            flagged_by_test[run.test] = set(flagged)
            for n in flagged:
                tally.check(n in KNOWN_ODD_WEAK and inp.start <= n <= inp.stop,
                            f"{run.test} flagged {n}, not a known odd weak pseudoprime")
                tally.check(pk.sequence_term(pk.PERRIN, n, n) == 0,
                            f"{run.test} flag {n} fails A(n) = 0 mod n")
                if run.test == "frobenius":
                    tally.check(pk.perrin_test(pk.PERRIN, n, "weak").passes,
                                f"frobenius flag {n} fails the weak test")
            if run.test == "perrin-weak":
                for n in KNOWN_ODD_WEAK:
                    if inp.start <= n <= inp.stop:
                        tally.check(n in flagged, f"census missed {n}")
        verified = [json.loads(line) for line in unit.parts[-1].splitlines()]
        tally.check(len(verified) == len(inp.sample) * len(self.verify_tests),
                    "verify records missing")
        for rec in verified:
            n, test = int(rec["n"]), rec["test"]
            flagged = n in flagged_by_test.get(test, ())
            if test == "frobenius":
                want = pk.PROBABLE_PRIME if flagged else pk.COMPOSITE
            else:
                want = "pass" if flagged else "fail"
            tally.check(rec["verdict"] == want,
                        f"verify {test} {n} says {rec['verdict']}, the scan implies {want}")


@dataclass(frozen=True)
class ConstructInputs:
    samples: tuple[tuple[int, ...], ...]  # indices into find_k_and_primes' pool


class ConstructWorkload:
    """Carmichael numbers over L = lcm(1..17) whose primes split for
    x^3 - x - 1, each certified through carmichael and the CLI path.

    The inputs to find_k_and_primes are fixed.  A unit then runs SAMPLES
    subset searches, each on SAMPLE of the POOL_SIZE primes picked by the
    seed.  Which subsets a sample admits, and so how many certificates it
    gives and how large they are, swings with the sample; several samples
    per unit keep that swing between seeds small.  Certification is the
    work, so `run` checks every certificate as it issues it.
    """

    name = "construct-cubic"
    L = 12252240  # lcm(1..17) = 2^4 3^2 5 7 11 13 17
    K_RANGE = (1, 60)
    X_BOUND = 10**8
    T_MAX = 10
    K = 23  # the multiplier find_k_and_primes picks for these inputs
    POOL_SIZE = 39
    SAMPLES = 4
    SAMPLE = 32

    def inputs(self, seed: int) -> ConstructInputs:
        rng = random.Random(f"{self.name}:{seed}")
        return ConstructInputs(tuple(tuple(sorted(rng.sample(range(self.POOL_SIZE), self.SAMPLE)))
                                     for _ in range(self.SAMPLES)))

    def warm_up(self, pk, outdir: str) -> None:
        _, pool = pk.find_k_and_primes(720720, PERRIN_POLY, (1, 30), 10**6)
        pk.subset_product_search(pool[:12], 720720, 4)

    def run(self, pk, inp: ConstructInputs, outdir: str, tally) -> Unit:
        return self._pipeline(pk, inp, NullTracer(), {}, tally)

    def replay(self, pk, inp: ConstructInputs, tr, counts: dict, tally) -> Replay:
        unit = self._pipeline(pk, inp, tr, counts, tally)
        counts.update(unit.extra)
        return Replay(unit.records, frobenius_tested=unit.extra["constructor.subsets_found"])

    def check(self, pk, inp, unit: Unit, tally) -> None:
        tally.check(unit.work > 0, "no certificate issued")

    def _pipeline(self, pk, inp, tr, counts, tally) -> Unit:
        t0 = time.perf_counter()
        best = tr.call("constructor.find_k_and_primes", self.L, pk.find_k_and_primes,
                       self.L, PERRIN_POLY, self.K_RANGE, self.X_BOUND)
        k, pool = best if best is not None else (None, [])
        if not tally.check(k == self.K and len(pool) == self.POOL_SIZE and all(
                p <= self.X_BOUND and (p - 1) % k == 0 and self.L % ((p - 1) // k) == 0
                for p in pool),
                f"find_k_and_primes returned k = {k} and a pool of {len(pool)}"):
            return Unit([b""], 0, [Phase(time.perf_counter() - t0)])
        records, phases, probes, certified, found = [], [], [], 0, 0
        for sample in inp.samples:
            if phases:
                probes.append(reference_time())
                t0 = time.perf_counter()
            search = tr.call("constructor.subset_product_search", self.L,
                             pk.subset_product_search, [pool[i] for i in sample],
                             self.L, self.T_MAX)
            tally.check(search.complete, "subset search ran out of budget")
            found += len(search.subsets)
            latencies = []
            for subset in search.subsets:
                n = math.prod(subset)
                t1 = time.perf_counter()
                ok, evidence = self._certify(pk, n, subset, k, tr, counts)
                latencies.append(time.perf_counter() - t1)
                certified += tally.check(ok, f"certificate {n} = {subset} fails: {evidence}")
                records += [{"n": str(n), "factors": ",".join(map(str, subset)),
                             "k": str(k), "L": str(self.L),
                             "poly": ",".join(map(str, PERRIN_POLY))},
                            evidence["weak"], evidence["frobenius"]]
            phases.append(Phase(time.perf_counter() - t0, latencies))
        extra = {"constructor.pool_size": len(pool), "constructor.subsets_found": found,
                 "constructor.certified": certified}
        return Unit([jsonl(records)], certified, phases, probes, extra=extra)

    def _certify(self, pk, n, subset, k, tr, counts):
        """The certification of one constructed n: is it what it claims?"""
        buf = io.StringIO()
        sid = tr.begin("bench.certify", n)
        prime = tr.call("modarith.is_prime_baseline", n, pk.is_prime_baseline, n)
        fact = tr.call("modarith.factorize", n, pk.factorize, n)
        cert = tr.call("carmichael.korselt", n, pk.korselt, n)
        split = tr.call("carmichael.carmichael_frobenius", n, pk.carmichael_frobenius,
                        n, PERRIN_POLY)
        stages, _ = frobenius_outcome(pk, n, PERRIN_POLY, tr, counts)
        weak = tr.call("cli.verify_number", n, pk.cli.verify_number, n, "perrin-weak", out=buf)
        frob = tr.call("cli.verify_number", n, pk.cli.verify_number,
                       n, "frobenius", poly=PERRIN_POLY, out=buf)
        tr.end(sid)
        ok = (not prime and fact.factors == tuple((p, 1) for p in subset)
              and cert.validates and bool(split) and stages == pk.PROBABLE_PRIME
              and weak["verdict"] == "pass" and frob["verdict"] == pk.PROBABLE_PRIME
              and n % (k * self.L) == 1)
        evidence = {"prime": prime, "korselt": cert.validates, "split": bool(split),
                    "stages": stages, "weak": weak, "frobenius": frob}
        return ok, evidence


WORKLOADS = {
    "census-weak": ScanWorkload("census-weak", 5 * (1 << 16), [("perrin-weak", 2)],
                                ["perrin-weak"]),
    "scan-cubic": ScanWorkload("scan-cubic", 30000, [("perrin-full", 1), ("frobenius", 1)],
                               ["perrin-full", "frobenius"]),
    "construct-cubic": ConstructWorkload(),
}
