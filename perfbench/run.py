"""End-to-end and per-layer benchmark of primesig.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-weak --seed 0 --seconds 30 --trace 0

With --trace 0 it sets the program up SETUP_REPEATS times, then runs the
workload's unit in a closed loop until --seconds have passed, checks
every output and prints the end-to-end metrics.  With --trace 1 it runs
each workload's unit once, replays the same inputs serially under the
span tracer (once with spans on, once off), checks that the replays
reproduce the records, and prints the per-layer metrics.  Either way the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a human-readable table goes to standard
error and the full result, with machine details and sample counts, to
.perfbench_out/.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

from harness import NullTracer, Tally, Tracer, reference_time, speed_scale, tail
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 9

END_TO_END = {
    "work_per_s": "1/s",
    "verify_ms_p50": "ms",
    "verify_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CALLS_AND_BUSY = (
    "modarith.is_prime_baseline", "modarith.jacobi", "modarith.factorize",
    "polymod.discriminant",
    "perrin.perrin_test_weak", "perrin.signature", "perrin.classify_signature",
    "frobenius.factorization_step", "frobenius.frobenius_step", "frobenius.jacobi_step",
    "carmichael.korselt", "carmichael.carmichael_frobenius",
    "cli.verify_number",
)
BUSY_ONLY = ("constructor.find_k_and_primes", "constructor.subset_product_search")
CLASSES = ("S", "I", "Q", "not-acceptable")
OUTCOMES = ("precondition", "factorization", "frobenius", "jacobi", "probable-prime",
            "not-applicable")
LAYERS = ("modarith", "polymod", "perrin", "frobenius", "carmichael", "constructor",
          "search", "cli", "bench")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in CALLS_AND_BUSY:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    for name in BUSY_ONLY:
        units[f"{name}.busy_s"] = "s"
    units.update({f"perrin.class.{kind}": "count" for kind in CLASSES})
    units.update({f"frobenius.outcome.{kind}": "count" for kind in OUTCOMES})
    units.update({"constructor.pool_size": "count", "constructor.subsets_found": "count",
                  "constructor.yield": "ratio",
                  "search.run_range_search.wall_s": "s", "search.blocks": "count",
                  "search.overhead_s": "s", "search.parallel_efficiency": "ratio"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.wall_on_s": "s", "trace.wall_off_s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count"})
    return units


def load_program():
    """Import primesig from the checkout's src/, afresh each call."""
    for name in [m for m in sys.modules if m == "primesig" or m.startswith("primesig.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pk = importlib.import_module("primesig")
    importlib.import_module("primesig.cli")
    if Path(pk.__file__).resolve().parent != (SRC / "primesig").resolve():
        raise ImportError(f"primesig imported from {pk.__file__}, not from {SRC}")
    return pk


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "primesig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_digest(workload: str, seed: int, records: bytes, tally: Tally) -> None:
    """At the default seed the records must be byte-identical to the saved ones."""
    if seed != DEFAULT_SEED:
        return
    digest = hashlib.sha256(records).hexdigest()
    saved = json.loads(DIGESTS.read_text())[workload]
    tally.check(saved == digest, f"{workload} records at seed {seed} have digest "
                                 f"{digest}, not the saved {saved}")


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024


def end_to_end(args, tally: Tally) -> dict:
    """Times are scaled to reference speed by the probes taken around each
    set-up and each unit, and between a unit's phases
    (harness.reference_time)."""
    workload = WORKLOADS[args.workload]
    probe = reference_time()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pk = load_program()
        inp = workload.inputs(args.seed)
        workload.warm_up(pk, str(OUT))
        raw_setups.append(time.perf_counter() - t0)
        before, probe = probe, reference_time()
        setups.append(raw_setups[-1] * speed_scale(before, probe))
    units, walls, latencies, scales = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not units or time.perf_counter() < deadline:
        unit = workload.run(pk, inp, str(OUT), tally)
        before, probe = probe, reference_time()
        edges = [before] + unit.probes + [probe]
        scales.append([speed_scale(a, b) for a, b in zip(edges, edges[1:])])
        walls.append(sum(ph.wall * s for ph, s in zip(unit.phases, scales[-1])))
        latencies.append([x * s for ph, s in zip(unit.phases, scales[-1]) for x in ph.latencies])
        workload.check(pk, inp, unit, tally)
        if units:
            tally.check(unit.records == units[0].records, "records differ between units")
        else:
            check_digest(args.workload, args.seed, unit.records, tally)
        units.append(unit)
    # Every unit verifies the same numbers in the same order; a number's
    # latency is its median over the units, which keeps scheduler noise
    # out of the tail and leaves the spread between numbers in it.
    per_number = [median(column) for column in zip(*latencies)]
    tail_s, tail_pct = tail(per_number)
    raw_per_number = [median(column) for column in zip(
        *([x for ph in u.phases for x in ph.latencies] for u in units))]
    return {
        "work_per_s": (median([u.work / w for u, w in zip(units, walls)]), len(units)),
        "verify_ms_p50": (1000 * median(per_number), len(per_number)),
        "verify_ms_tail": (1000 * tail_s, len(per_number), f"p{tail_pct:.2f}"),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "raw": {"work_per_s": median([u.work / sum(ph.wall for ph in u.phases)
                                      for u in units]),
                "verify_ms_p50": 1000 * median(raw_per_number),
                "verify_ms_tail": 1000 * tail(raw_per_number)[0],
                "setup_s": median(raw_setups),
                "scales": scales},
    }


def traced(args, tally: Tally) -> dict:
    pk = load_program()
    tracer = Tracer()
    counts: dict[str, int] = {}
    wall_on = wall_off = 0.0
    scans = []  # (ScanRun, span id of its replay)
    frobenius_tested = 0
    order = [args.workload] + [name for name in WORKLOADS if name != args.workload]
    for name in order:
        workload = WORKLOADS[name]
        inp = workload.inputs(args.seed)
        workload.warm_up(pk, str(OUT))
        unit = workload.run(pk, inp, str(OUT), tally)
        workload.check(pk, inp, unit, tally)
        check_digest(name, args.seed, unit.records, tally)
        t0 = time.perf_counter()
        on = workload.replay(pk, inp, tracer, counts, tally)
        t1 = time.perf_counter()
        off = workload.replay(pk, inp, NullTracer(), {}, tally)
        wall_on += t1 - t0
        wall_off += time.perf_counter() - t1
        for label, replay in (("on", on), ("off", off)):
            if not tally.check(replay.records == unit.records,
                               f"{name}: replay with spans {label} differs from the records"):
                print(f"TRACE MISMATCH: {name} replay with spans {label} does not reproduce "
                      f"the workload's records", file=sys.stderr)
        frobenius_tested += on.frobenius_tested
        for run, sid, scanned in zip(unit.scans, on.scan_spans, on.scanned):
            tally.check(scanned == run.summary["scanned"],
                        f"{name} {run.test}: replay saw {scanned} n, the scan "
                        f"{run.summary['scanned']}")
            scans.append((run, sid))
    spans = tracer.summary()
    own = tracer.self_times()

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    tally.check(sum(counts.get(f"frobenius.outcome.{k}", 0) for k in OUTCOMES)
                == frobenius_tested, "frobenius outcomes do not add up to the n tested")
    tally.check(sum(counts.get(f"perrin.class.{k}", 0) for k in CLASSES)
                == calls("perrin.classify_signature"),
                "signature classes do not add up to the classified n")

    metrics = {}
    for name in CALLS_AND_BUSY:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.busy_s"] = busy(name)
    for name in BUSY_ONLY:
        metrics[f"{name}.busy_s"] = busy(name)
    for key in [f"perrin.class.{k}" for k in CLASSES] + [f"frobenius.outcome.{k}"
                                                          for k in OUTCOMES]:
        metrics[key] = counts.get(key, 0)
    found = counts.get("constructor.subsets_found", 0)
    metrics["constructor.pool_size"] = counts.get("constructor.pool_size", 0)
    metrics["constructor.subsets_found"] = found
    metrics["constructor.yield"] = counts.get("constructor.certified", 0) / max(found, 1)
    # A scan replay's children are its per-n records: the work the
    # harness hands to its workers.
    walls = [run.wall for run, _ in scans]
    work = [(tracer.stop[sid] - tracer.start[sid]) - own[sid] for _, sid in scans]
    metrics["search.run_range_search.wall_s"] = sum(walls)
    metrics["search.blocks"] = sum(run.summary["blocks_total"] for run, _ in scans)
    metrics["search.overhead_s"] = sum(wall - w / run.workers
                                       for wall, w, (run, _) in zip(walls, work, scans))
    metrics["search.parallel_efficiency"] = sum(work) / sum(
        wall * run.workers for wall, (run, _) in zip(walls, scans))
    layer_self = tracer.layer_self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    metrics["trace.wall_on_s"] = wall_on
    metrics["trace.wall_off_s"] = wall_off
    metrics["trace.overhead_s"] = wall_on - wall_off
    metrics["trace.spans"] = len(tracer)
    tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    return {name: (value, 1) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primesig" / "__init__.py").is_file():
        print(f"error: no primesig package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    started = time.perf_counter()
    measured = traced(args, tally) if args.trace else end_to_end(args, tally)
    raw = measured.pop("raw", None)
    units = per_layer_units() if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - started,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "platform": platform.platform(), "git_sha": git_sha(),
        "src_sha256": source_sha256(), "failed_ratio": tally.failed_ratio,
        "failures": tally.messages,
        "metrics": {name: {"value": m[0], "unit": units[name], "samples": m[1],
                           **({"percentile": m[2]} if len(m) > 2 else {})}
                    for name, m in measured.items()},
        "unscaled": raw,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=2) + "\n")
    for name, row in details["metrics"].items():
        extra = f" ({row['percentile']})" if "percentile" in row else ""
        print(f"{args.workload:16} {name:42} {row['value']:>14.6g} {row['unit']:6} "
              f"samples={row['samples']}{extra}", file=sys.stderr)
    print(f"{args.workload:16} {'failed_ratio':42} {tally.failed_ratio:>14.6g} "
          f"{'ratio':6} attempted={tally.attempted}", file=sys.stderr)
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
