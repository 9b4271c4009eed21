import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import pytest

from primesig import search
from primesig.cli import verify_number
from primesig.constructor import find_k_and_primes, subset_product_search
from primesig.frobenius import frobenius_test
from primesig.modarith import is_prime_baseline
from primesig.perrin import (EXACT_TERM_BITS, RecurrenceParams, exact_terms, perrin_test,
                             residue_tables, sequence_term)
from primesig.search import (
    OUTCOMES,
    CheckpointMismatch,
    SearchSpec,
    run_range_search,
)

from oracles import recurrence_term, sieve, weak_perrin_by_stepping_many


class Killed(Exception):
    """A kill after a block's records were written, before its checkpoint."""


def run(tmp_path, name, killed_after=None, **kwargs):
    """A checkpointed scan: its files and its summary, or, when killed
    while committing block killed_after + 1, its files and the last
    checkpoint state."""
    out = tmp_path / f"{name}.jsonl"
    ckpt = tmp_path / f"{name}.ckpt"
    if killed_after is None:
        summary = run_range_search(out_path=str(out), checkpoint_path=str(ckpt), **kwargs)
        return out, ckpt, summary
    real = search._write_checkpoint

    def write_checkpoint(path, state):
        if state["blocks_done"] > killed_after:
            raise Killed
        real(path, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_write_checkpoint", write_checkpoint)
        with pytest.raises(Killed):
            run_range_search(out_path=str(out), checkpoint_path=str(ckpt), **kwargs)
    return out, ckpt, json.loads(ckpt.read_text())


def test_small_range_has_no_weak_pseudoprimes(tmp_path):
    out, _, summary = run(
        tmp_path, "w", start=3, stop=1000, spec=SearchSpec("perrin-weak")
    )
    assert summary["flagged"] == 0
    assert summary["scanned"] == 499
    assert summary["completed"]
    assert out.read_bytes() == b""
    # A start below 3 scans as if it were 3.
    _, _, low = run(tmp_path, "w0", start=-5, stop=1000, spec=SearchSpec("perrin-weak"))
    assert low["scanned"] == 499 and low["outcomes"] == summary["outcomes"]


def test_single_number_range(tmp_path):
    _, _, summary = run(tmp_path, "one", start=3, stop=3, spec=SearchSpec("perrin-weak"))
    assert summary["scanned"] == 1
    assert summary["flagged"] == 0


def test_empty_range_rejected(tmp_path):
    with pytest.raises(ValueError):
        run(tmp_path, "bad", start=100, stop=50, spec=SearchSpec("perrin-weak"))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run(tmp_path, "bad", start=3, stop=50, spec=SearchSpec("perrin-weak"), workers=0)
    with pytest.raises(ValueError, match="block size must be >= 2"):
        run(tmp_path, "bad", start=3, stop=50, spec=SearchSpec("perrin-weak"), block_size=1)


def test_spec_rejects_unknown_test():
    with pytest.raises(ValueError):
        SearchSpec("fermat")


def test_spec_rejects_repeated_roots():
    # (x - 1)^3, (x - 1)(x + 1)^2 and (x + 1)^2: every test refuses a
    # zero discriminant, the weak test too, though it would run.
    for test in ("perrin-weak", "perrin-full"):
        for rs in ((3, 3), (-1, -1)):
            with pytest.raises(ValueError, match="not squarefree"):
                SearchSpec(test, *rs)
    with pytest.raises(ValueError, match="not squarefree"):
        SearchSpec("frobenius", poly=(1, 2, 1))


def test_spec_refuses_a_root_zero():
    # x^3 - x and x^2 + x: f(0)*delta = 0, so gcd(n, f(0)*delta) = n for
    # every n and the test would apply nowhere.
    for poly in ((0, -1, 0, 1), (0, 1, 1)):
        with pytest.raises(ValueError, match="has the root 0"):
            SearchSpec("frobenius", poly=poly)
        with pytest.raises(ValueError, match="has the root 0"):
            frobenius_test(91, poly)


def test_spec_keeps_the_polynomial_as_validated():
    # A zero leading coefficient is trimmed by the validator, and so it
    # changes neither the record nor the checkpoint hash.
    padded = SearchSpec("frobenius", poly=(-1, -1, 1, 0))
    plain = SearchSpec("frobenius", poly=(-1, -1, 1))
    assert padded == plain and padded.poly == (-1, -1, 1)
    assert search._params_hash(3, 9999, padded, 4096) == search._params_hash(3, 9999, plain, 4096)
    rec = search.record(5777, plain, plain.run(5777))
    assert rec["poly"] == "-1,-1,1" and rec["verdict"] == "probable-prime"
    assert search.record(5777, padded, padded.run(5777)) == rec
    assert verify_number(5777, "frobenius", poly=(-1, -1, 1, 0), out=io.StringIO()) == rec


def test_spec_takes_integer_coefficients_only():
    # Truncated, these coefficients would scan x^3 - x - 1.
    with pytest.raises(ValueError, match="integer coefficients"):
        SearchSpec("frobenius", poly=(-1.9, -1, 0, 1.2))


def test_perrin_specs_hold_their_own_cubic():
    # Every spec keeps the polynomial its test reads, whatever its (r, s).
    accepted = 0
    for test in ("perrin-weak", "perrin-full"):
        for r in range(-3, 4):
            for s in range(-3, 4):
                try:
                    spec = SearchSpec(test, r, s)
                except ValueError:
                    continue
                assert spec.poly == RecurrenceParams(r, s).poly, (test, r, s)
                accepted += 1
    # All but (3, 3) and (-1, -1), whose cubics have a repeated root.
    assert accepted == 2 * 47


def test_canonical_text_is_pinned():
    # The checkpoint hash is taken of this text, so any change to it
    # orphans every checkpoint on disk.  Perrin specs are named by r and s.
    assert SearchSpec("perrin-full", -2, 3).canonical() == "test=perrin-full;rs=-2,3"
    assert SearchSpec("frobenius", poly=(-5, 0, 1, 0)).canonical() == "test=frobenius;poly=-5,0,1"
    text = "v3;from=3;to=5000;block=1000;test=perrin-weak;rs=0,-1"
    assert search._params_hash(3, 5000, SearchSpec("perrin-weak"), 1000) == hashlib.sha256(
        text.encode()).hexdigest()


def test_specs_keep_r_and_s_as_ints():
    # True == 1, but kept as True it was recorded and hashed as "True".
    spec = SearchSpec("perrin-weak", True, 2)
    assert [type(x) for x in (spec.r, spec.s, spec.params.r, spec.params.s)] == [int] * 4
    assert spec.canonical() == SearchSpec("perrin-weak", 1, 2).canonical()
    assert search._params_hash(3, 99, spec, 10) == search._params_hash(
        3, 99, SearchSpec("perrin-weak", 1, 2), 10)
    assert verify_number(11, "perrin-weak", rs=(True, 2), out=io.StringIO())["rs"] == "1,2"
    params = RecurrenceParams(False, True)
    assert (type(params.r), type(params.s)) == (int, int) and (params.r, params.s) == (0, 1)
    spec = SearchSpec("frobenius", False, -1)
    assert (type(spec.r), spec.r) == (int, 0)


def test_record_encoder_is_json_dumps(tmp_path, monkeypatch):
    # Records are flat str -> str dicts; the encoder must give the bytes of
    # json.dumps(rec, separators=(",", ":")) for each of them.
    from primesig.cli import run_construct_job
    from primesig.constructor import PRESETS

    encode = search._record_json
    seen = []

    def spying(rec):
        seen.append(dict(rec))
        return encode(rec)

    monkeypatch.setattr(search, "_record_json", spying)
    out = tmp_path / "weak.jsonl"
    run_range_search(3, 10**6, SearchSpec("perrin-weak"), out_path=str(out))
    assert len(seen) == 2 and out.read_text().count("\n") == 2
    frob = SearchSpec("frobenius", poly=(-1, -1, 1))
    run_range_search(3, 20000, frob, out_path=str(tmp_path / "frob.jsonl"))
    assert len(seen) == 8
    monkeypatch.undo()
    for spec in (frob, SearchSpec("frobenius")):
        seen += [search.record(n, spec, spec.run(n)) for n in range(3, 3001, 2)
                 if spec.applies(n)]
    seen += [verify_number(n, "korselt", out=io.StringIO()) for n in range(2, 2000)]
    construct_out = io.StringIO()
    assert run_construct_job(PRESETS["classic-Q"], out=construct_out, err=io.StringIO()) == 0
    seen += [json.loads(line) for line in construct_out.getvalue().splitlines()]
    seen += [{}, {"a\"b": "c\\d", "\x00\x1f\n\t\x7f": "\u00e9\u2014\U0001f600\ud800", "": ""}]
    for rec in seen:
        assert encode(rec) == json.dumps(rec, separators=(",", ":")), rec
    for value in (5, None, 1.5, True, ["x"]):
        with pytest.raises(TypeError):
            encode({"n": "3", "test": value})


def test_spec_refuses_a_parameter_its_test_does_not_read():
    # Accepted, the first would scan x^3 - x - 1 and hash rs=0,-1, and the
    # second would keep an unread r and s.
    for test in ("perrin-weak", "perrin-full"):
        with pytest.raises(ValueError, match="poly is read by frobenius only"):
            SearchSpec(test, poly=(1, 0, 1))
    for rs in ((5, 7), (5, -1), (0, 7)):
        with pytest.raises(ValueError, match="read by the Perrin tests only"):
            SearchSpec("frobenius", *rs)
    # A Perrin spec may be given its own cubic, so it rebuilds from its fields.
    spec = SearchSpec("perrin-full", -2, 3)
    assert dataclasses.replace(spec) == spec == SearchSpec("perrin-full", -2, 3, poly=spec.poly)
    # verify_number takes both keywords and passes on the one its test reads.
    for test, kept in (("perrin-weak", {"rs": (1, 2)}), ("frobenius", {"poly": (-1, -1, 1)})):
        both = verify_number(5777, test, rs=(1, 2), poly=(-1, -1, 1), out=io.StringIO())
        assert both == verify_number(5777, test, **kept, out=io.StringIO())


# Checkpoints and records that an earlier version of this package, before
# Poly, wrote for the scans below, each cut after 8 of 16 blocks of 500
# while the records of block 9 were on disk: the resume must take them.
PINNED_CHECKPOINTS = [
    (SearchSpec("perrin-weak", -2, 0),
     '{"version": 2, "hash": "a099d0f26f6cba2a0021c063694cb43896dcbffadacda87e411215029e35b006", '
     '"from": "3", "to": "8000", "block_size": 500, "blocks_done": 8, "bytes_written": 316, '
     '"outcomes": {"prime": 550, "not-applicable": 0, "rejected:prefilter": 1406, '
     '"rejected:test": 40, "flagged": 4}}',
     b'{"n":"705","test":"perrin-weak","rs":"-2,0","verdict":"pass","jacobi":"0"}\n'
     b'{"n":"2465","test":"perrin-weak","rs":"-2,0","verdict":"pass","jacobi":"0"}\n'
     b'{"n":"2737","test":"perrin-weak","rs":"-2,0","verdict":"pass","class":"S","jacobi":"-1"}\n'
     b'{"n":"3745","test":"perrin-weak","rs":"-2,0","verdict":"pass","jacobi":"0"}\n'
     b'{"n":"4181","test":"perrin-weak","rs":"-2,0","verdict":"pass","class":"S","jacobi":"1"}\n'
     b'{"n":"5777","test":"perrin-weak","rs":"-2,0","verdict":"pass","class":"Q[a=5776]",'
     b'"jacobi":"-1"}\n'
     b'{"n":"6721","test":"perrin-weak","rs":"-2,0","verdict":"pass","class":"S","jacobi":"1"}\n'),
    (SearchSpec("perrin-full", -2, 3),
     '{"version": 2, "hash": "cc5a5510b3b2b4a4779434a42cd85978627481406cf1baf0ab5821a568a0dfea", '
     '"from": "3", "to": "8000", "block_size": 500, "blocks_done": 8, "bytes_written": 0, '
     '"outcomes": {"prime": 550, "not-applicable": 627, "rejected:prefilter": 798, '
     '"rejected:test": 25, "flagged": 0}}',
     b''),
    (SearchSpec("frobenius", poly=(-1, -1, 1)),
     '{"version": 2, "hash": "00d7c374ad4c2d83b73c4e3226df1dceff5d868975d397e5267b2ee7b39efbdc", '
     '"from": "3", "to": "8000", "block_size": 500, "blocks_done": 8, "bytes_written": 0, '
     '"outcomes": {"prime": 550, "not-applicable": 0, "rejected:prefilter": 0, '
     '"rejected:test": 1450, "flagged": 0}}',
     b'{"n":"4181","test":"frobenius","poly":"-1,-1,1","verdict":"probable-prime",'
     b'"degrees":"2,0","jacobi":"1"}\n'
     b'{"n":"5777","test":"frobenius","poly":"-1,-1,1","verdict":"probable-prime",'
     b'"degrees":"0,2","jacobi":"-1"}\n'
     b'{"n":"6721","test":"frobenius","poly":"-1,-1,1","verdict":"probable-prime",'
     b'"degrees":"2,0","jacobi":"1"}\n'),
]


@pytest.mark.parametrize("spec,checkpoint,records", PINNED_CHECKPOINTS,
                         ids=[spec.test for spec, _, _ in PINNED_CHECKPOINTS])
def test_checkpoints_written_before_resume_to_the_same_bytes(tmp_path, spec, checkpoint, records):
    offset = json.loads(checkpoint)["bytes_written"]
    out, ckpt = tmp_path / "r.jsonl", tmp_path / "r.ckpt"
    # The records of block 9, after the checkpoint's offset, were on disk.
    out.write_bytes(records[:records.index(b"\n", offset) + 1] if records[offset:] else records)
    ckpt.write_text(checkpoint + "\n")
    kwargs = dict(start=3, stop=8000, spec=spec, block_size=500)
    resumed = run_range_search(out_path=str(out), checkpoint_path=str(ckpt), resume=True,
                               **kwargs)
    assert out.read_bytes() == records
    whole = run_range_search(out_path=str(tmp_path / "whole.jsonl"), **kwargs)
    assert resumed["outcomes"] == whole["outcomes"] and resumed["completed"]


def test_frobenius_scan_finds_known_pseudoprime(tmp_path):
    out, _, summary = run(
        tmp_path,
        "f",
        start=3,
        stop=2000,
        spec=SearchSpec("frobenius", poly=(1, 0, 1)),
    )
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert summary["flagged"] == len(records) >= 1
    names = [r["n"] for r in records]
    assert "341" in names
    for r in records:
        assert r["test"] == "frobenius"
        assert r["poly"] == "1,0,1"
        assert set(r) >= {"n", "test", "poly", "verdict", "degrees", "jacobi"}
    assert names == sorted(names, key=int)


def test_worker_count_does_not_change_bytes(tmp_path):
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    out1, _, _ = run(
        tmp_path, "w1", start=3, stop=6000, spec=spec, workers=1, block_size=512
    )
    out2, _, _ = run(
        tmp_path, "w2", start=3, stop=6000, spec=spec, workers=2, block_size=512
    )
    out3, _, _ = run(
        tmp_path, "w3", start=3, stop=6000, spec=spec, workers=3, block_size=512
    )
    out8, _, _ = run(
        tmp_path, "w8", start=3, stop=6000, spec=spec, workers=8, block_size=512
    )
    blob = out1.read_bytes()
    assert blob == out2.read_bytes() == out3.read_bytes() == out8.read_bytes()
    assert blob.count(b"\n") == blob.count(b"{")  # LF framed records


# Scans three 2^14 blocks on 2 workers under the start method argv[1], in
# the directory argv[2], and prints each scan's records and outcome counts.
START_METHOD_SCANS = """
import json, multiprocessing, sys
from primesig.search import SearchSpec, run_range_search
multiprocessing.set_start_method(sys.argv[1])
scans = {}
for name, spec in (("weak", SearchSpec("perrin-weak")), ("full", SearchSpec("perrin-full", -2, 3)),
                   ("x2m5", SearchSpec("frobenius", poly=(-5, 0, 1)))):
    path = f"{sys.argv[2]}/{name}.jsonl"
    summary = run_range_search(3, 3 << 14, spec, workers=2, out_path=path, block_size=1 << 14)
    with open(path, encoding="utf-8") as fh:
        scans[name] = [fh.read(), summary["outcomes"], summary["blocks_total"]]
print(json.dumps(scans))
"""


def test_start_methods_write_the_same_bytes(tmp_path):
    # Spawn and forkserver workers unpickle the spec, its Poly with it,
    # where fork workers inherit it.  Each method runs in an interpreter of
    # its own, so that this one's start method is left alone.
    scans = {}
    for method in ("fork", "spawn", "forkserver"):
        (tmp_path / method).mkdir()
        proc = subprocess.run([sys.executable, "-c", START_METHOD_SCANS, method,
                               str(tmp_path / method)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        scans[method] = json.loads(proc.stdout)
    assert scans["spawn"] == scans["forkserver"] == scans["fork"]
    fork = scans["fork"]
    assert [blocks for _, _, blocks in fork.values()] == [3, 3, 3]
    assert fork["x2m5"][0] and fork["full"][1]["not-applicable"] > 0


def test_kill_and_resume_reproduces_bytes(tmp_path):
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    full, _, whole = run(
        tmp_path, "full", start=3, stop=8000, spec=spec, workers=2, block_size=500
    )
    part, ckpt, state = run(
        tmp_path,
        "part",
        start=3,
        stop=8000,
        spec=spec,
        workers=2,
        block_size=500,
        killed_after=7,
    )
    assert state["blocks_done"] == 7
    # Block 8's records reached the file, but no checkpoint counts them.
    assert part.stat().st_size > state["bytes_written"]
    resumed = run_range_search(
        3,
        8000,
        spec,
        workers=2,
        out_path=str(part),
        checkpoint_path=str(ckpt),
        resume=True,
        block_size=500,
    )
    assert resumed["completed"]
    assert part.read_bytes() == full.read_bytes()
    assert resumed["scanned"] == 3999
    assert resumed["outcomes"] == whole["outcomes"]


def test_resume_truncates_trailing_garbage(tmp_path):
    # A kill mid-write can leave a partial line past the checkpointed
    # offset; resume must cut it off.  The kill comes in the last of the
    # ten blocks, so no later write covers the stale bytes.
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    full, _, _ = run(
        tmp_path, "ref", start=3, stop=4000, spec=spec, block_size=400
    )
    part, ckpt, _ = run(
        tmp_path,
        "cut",
        start=3,
        stop=4000,
        spec=spec,
        block_size=400,
        killed_after=9,
    )
    with open(part, "ab") as fh:
        fh.write(b'{"n":"99')
    run_range_search(
        3,
        4000,
        spec,
        out_path=str(part),
        checkpoint_path=str(ckpt),
        resume=True,
        block_size=400,
    )
    assert part.read_bytes() == full.read_bytes()


def test_resuming_a_finished_scan_changes_nothing(tmp_path):
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    out, ckpt, first = run(tmp_path, "done", start=3, stop=3000, spec=spec, block_size=1000)
    before = out.read_bytes(), ckpt.read_bytes()
    again = run_range_search(3, 3000, spec, out_path=str(out), checkpoint_path=str(ckpt),
                             resume=True, block_size=1000)
    assert (out.read_bytes(), ckpt.read_bytes()) == before
    assert again["completed"]
    assert again["outcomes"] == first["outcomes"]


def test_resume_refuses_short_file(tmp_path):
    # Truncating forward would pad the gap with NUL bytes.
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    part, ckpt, state = run(
        tmp_path, "short", start=3, stop=4000, spec=spec, block_size=400,
        killed_after=4,
    )
    assert state["bytes_written"] > 0
    part.write_bytes(b"")
    with pytest.raises(CheckpointMismatch):
        run_range_search(
            3, 4000, spec, out_path=str(part), checkpoint_path=str(ckpt),
            resume=True, block_size=400,
        )
    assert part.read_bytes() == b""


def test_checkpoint_fsyncs_data_then_side_file_before_rename(tmp_path, monkeypatch):
    import os

    from primesig import search

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(search.os, "fsync", fsync)
    monkeypatch.setattr(search.os, "replace", replace)
    spec = SearchSpec("perrin-weak")
    out, ckpt, _ = run(tmp_path, "sync", start=3, stop=3000, spec=spec, block_size=1000)
    data = os.stat(out).st_ino
    # Each block: the records, then the side file, then the rename of
    # that same side file over the checkpoint.
    assert len(events) == 3 * 3
    for i in range(0, len(events), 3):
        (a, ino_a), (b, ino_b), (c, ino_c) = events[i:i + 3]
        assert (a, b, c) == ("fsync", "fsync", "replace")
        assert ino_a == data and ino_b == ino_c != data
    assert os.stat(ckpt).st_ino == events[-1][1]

    events.clear()
    run_range_search(3, 3000, spec, out_path=str(tmp_path / "plain.jsonl"), block_size=1000)
    assert events == []


def test_resume_refuses_different_parameters(tmp_path):
    spec = SearchSpec("perrin-weak")
    out, ckpt, _ = run(
        tmp_path, "h", start=3, stop=5000, spec=spec, block_size=1000,
        killed_after=2,
    )
    for bad in [
        dict(start=3, stop=5000, spec=SearchSpec("perrin-full"), block_size=1000),
        dict(start=3, stop=6000, spec=spec, block_size=1000),
        dict(start=3, stop=5000, spec=spec, block_size=500),
    ]:
        with pytest.raises(CheckpointMismatch):
            run_range_search(
                out_path=str(out), checkpoint_path=str(ckpt), resume=True,
                workers=1, **bad,
            )


def test_resume_requires_checkpoint_path(tmp_path):
    with pytest.raises(ValueError):
        run_range_search(
            3, 100, SearchSpec("perrin-weak"),
            out_path=str(tmp_path / "x.jsonl"), resume=True,
        )


def test_perrin_full_records_carry_class(tmp_path):
    out, _, summary = run(
        tmp_path, "pf", start=3, stop=10000, spec=SearchSpec("perrin-full")
    )
    # No full pseudoprimes this low; the scan must complete cleanly.
    assert summary["flagged"] == 0
    assert summary["completed"]


def test_records_round_trip_through_verify(tmp_path):
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    out, _, _ = run(tmp_path, "rt", start=3, stop=3000, spec=spec)
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        n = int(record["n"])
        assert search._record_for(n, spec) == record
        again = verify_number(
            n, "frobenius",
            poly=tuple(int(c) for c in record["poly"].split(",")), out=io.StringIO(),
        )
        assert again == record


def test_perrin_full_scan_and_verify_records_are_equal():
    # The cubic-splitting Carmichael numbers over L = 720720 pass the
    # full test, so scan and verify both record them.
    cubic = (-1, -1, 0, 1)
    k, pool = find_k_and_primes(720720, cubic, (1, 30), 10**6)
    found = subset_product_search(pool, 720720, 10)
    assert len(found.subsets) == 6
    spec = SearchSpec("perrin-full")
    for subset in found.subsets:
        n = math.prod(subset)
        record = search._record_for(n, spec)
        assert record is not None and record["verdict"] == "pass"
        assert verify_number(n, "perrin-full", out=io.StringIO()) == record


def test_only_weak_scan_records_carry_class():
    spec = SearchSpec("perrin-weak")
    for n in (271441, 904631):
        scanned = search._record_for(n, spec)
        verified = verify_number(n, "perrin-weak", out=io.StringIO())
        assert "class" in scanned and "class" not in verified
        assert {k: v for k, v in scanned.items() if k != "class"} == verified


def block_outcomes(lo, hi, spec, monkeypatch):
    # _scan_block's counts, plus the n that it (or its marking pass)
    # handed to is_prime_baseline.
    asked = []

    def counting(n):
        asked.append(n)
        return is_prime_baseline(n)

    monkeypatch.setattr(search, "is_prime_baseline", counting)
    _, counts = search._scan_block(lo, hi, spec, hi - lo + 1, 0)
    assert sum(counts.values()) == len(range(max(lo | 1, 3), hi + 1, 2))
    return counts, asked


@pytest.mark.parametrize("lo, size", [
    (3, 1 << 16),  # holds the sieve primes themselves
    (3, 2), (3, 3), (4, 2), (4, 3), (9, 2), (10, 3),
    (999_983, 3), (1_000_000, 2), (12_345, 1 << 16), (262_144, 1 << 16),
])
def test_sieve_is_exact_below_its_limit(lo, size, monkeypatch):
    hi = lo + size - 1
    first = max(lo | 1, 3)
    marks = search._mark_block(first, hi, None)
    flags = sieve(hi)
    assert list(marks) == [0 if flags[n] else 1 for n in range(first, hi + 1, 2)]
    counts, asked = block_outcomes(lo, hi, SearchSpec("perrin-weak"), monkeypatch)
    assert asked == []
    assert counts["prime"] == sum(flags[first:hi + 1:2])


def test_sieve_falls_back_to_baseline_above_its_limit(monkeypatch):
    # 10007 is the least prime above the sieve's 10^4, so its square has
    # no sieve prime factor and only is_prime_baseline can mark it.
    lo, hi = 10007**2 - 40, 10007**2 + 40
    odd = range(lo | 1, hi + 1, 2)
    flags = sieve(10**4)
    unsieved = [n for n in odd if all(n % p for p in range(3, 10**4, 2) if flags[p])]
    asked = []

    def counting(n):
        asked.append(n)
        return is_prime_baseline(n)

    monkeypatch.setattr(search, "is_prime_baseline", counting)
    marks = search._mark_block(lo | 1, hi, None)
    assert list(marks) == [0 if is_prime_baseline(n) else 1 for n in odd]
    assert marks[(10007**2 - (lo | 1)) // 2] == 1
    assert asked == unsieved and 10007**2 in asked
    # The block loop reads primality from the marks alone.
    asked.clear()
    monkeypatch.setattr(search, "_mark_block", lambda *args: bytearray(marks))
    _, counts = search._scan_block(lo, hi, SearchSpec("perrin-full"), hi - lo + 1, 0)
    assert asked == []
    assert counts["prime"] == sum(map(is_prime_baseline, odd))


def per_n_scan_block(lo, hi, spec):
    # The block loop one n at a time, as an oracle: primality comes from
    # is_prime_baseline, applicability from the tests' own rules
    # (gcd(n, delta) = 1 for perrin-full, n not dividing f(0)*delta for
    # frobenius), and only the prefilter's 2s are read from the marks.
    first = max(lo | 1, 3)
    marks = search._mark_block(first, hi, spec.prefilter)
    counts = dict.fromkeys(OUTCOMES, 0)
    lines = []
    for i, n in enumerate(range(first, hi + 1, 2)):
        if is_prime_baseline(n):
            outcome = "prime"
        elif (math.gcd(n, spec.delta) > 1 if spec.test == "perrin-full"
              else spec.test == "frobenius" and spec.poly[0] * spec.delta % n == 0):
            outcome = "not-applicable"
        elif marks[i] == 2:
            outcome = "rejected:prefilter"
        else:
            rec = search._record_for(n, spec)
            if rec is None:
                outcome = "rejected:test"
            else:
                outcome = "flagged"
                lines.append(json.dumps(rec, separators=(",", ":")))
        counts[outcome] += 1
    return lines, counts


SCAN_WINDOWS = [
    (3, 1 << 16),  # holds the sieve and table primes themselves
    (3, 2), (3, 3), (4, 2), (4, 3), (9, 2), (10, 3),
    (262_145, 1 << 14),  # holds 271441
    (10001**2 - 4096, 4096),  # the last window below 10001^2
    (10001**2 - 2048, 4096),  # one across it: the sieve is not exact
    (10001**2, 4096),  # the first above it, where the sieve is not exact
]


SCAN_SPECS = {
    "perrin-weak": SearchSpec("perrin-weak"),
    "perrin-full": SearchSpec("perrin-full"),
    # delta = -175 = -5^2 * 7: the multiples of 5 and 7 are refused.
    "full-m2-3": SearchSpec("perrin-full", -2, 3),
    "frobenius": SearchSpec("frobenius"),
    # x^2 - 5, f(0)*delta = -100: 25 is refused, 15 and 35 are tested.
    "frobenius-x2-5": SearchSpec("frobenius", poly=(-5, 0, 1)),
    # |delta| ~ 4*10^21 is not factored, so applies is asked at every
    # composite.
    "full-1e7-3": SearchSpec("perrin-full", 10**7, 3),
    # (x - 1)(x^2 + 1): no composite is rejected and every one survives
    # to the test, which flags it; the smaller windows suffice.
    "weak-1-1": SearchSpec("perrin-weak", 1, 1),
}


def test_refusers_are_the_odd_primes_that_applies_reads():
    assert SearchSpec("perrin-full").refusers == (23,)
    assert SearchSpec("frobenius").refusers == (23,)
    assert SearchSpec("perrin-full", -2, 3).refusers == (5, 7)
    assert SearchSpec("perrin-weak").refusers == ()
    assert SearchSpec("frobenius", poly=(-5, 0, 1)).refusers == (5,)
    assert SearchSpec("perrin-full", 10**7, 3).refusers == (1,)


@pytest.mark.parametrize("name, lo, size", [
    (name, lo, size) for name in SCAN_SPECS for lo, size in SCAN_WINDOWS
    if name != "weak-1-1" or size <= 1 << 14])
def test_scan_block_matches_the_per_n_loop(name, lo, size, monkeypatch):
    spec = SCAN_SPECS[name]
    hi = lo + size - 1
    want = per_n_scan_block(lo, hi, spec)
    asked, tested = [], []
    real_applies, real_record_for = SearchSpec.applies, search._record_for

    def applies(self, n):
        asked.append(n)
        return real_applies(self, n)

    def record_for(n, spec):
        tested.append(n)
        return real_record_for(n, spec)

    monkeypatch.setattr(SearchSpec, "applies", applies)
    monkeypatch.setattr(search, "_record_for", record_for)
    lines, counts = search._scan_block(lo, hi, spec, hi - lo + 1, 0)
    assert (lines, counts) == want
    # applies is asked only at odd multiples n >= 3q of the spec's
    # refusers, never at a prime, and about every n counted not-applicable.
    # Only the n that the test applies to and the prefilter kept reach the
    # test.
    assert all(any(n % q == 0 and n >= 3 * q for q in spec.refusers) for n in asked)
    assert not any(map(is_prime_baseline, asked))
    assert len({n for n in asked if not real_applies(spec, n)}) == counts["not-applicable"]
    assert len(tested) == counts["rejected:test"] + counts["flagged"]
    if name == "weak-1-1":
        assert counts["flagged"] == sum(counts.values()) - counts["prime"]


@pytest.mark.parametrize("rs", [(0, -1), (-2, 2), (-2, 3)])
@pytest.mark.parametrize("lo, size", [
    (3, 1 << 16), (3, 2), (3, 200), (101, 40), (1_000_001, 64),
    (3 * 2**16, 1 << 16), (10**8 - 2**16 + 1, 1 << 16),
])
def test_table_step_marks_what_the_tables_say(rs, lo, size, monkeypatch):
    # The table primes mark 2 by slices; here they are checked against
    # the per-n rule: an odd multiple n = p*m (m >= 3) of a table prime p
    # is marked 2 when n % T is not among the table's hits.  The windows
    # of 40 and 64 hold fewer multiples of most table primes than one
    # cycle of n mod T.
    hi = lo + size - 1
    first = max(lo | 1, 3)
    params = RecurrenceParams(*rs)
    monkeypatch.setattr(search, "_mark_rough", lambda *args: None)
    monkeypatch.setattr(search, "residue_walk", lambda params, p, m, count: [params.r % p] * count)
    marks = search._mark_block(first, hi, params)
    want = search._mark_block(first, hi, None)
    for p, (period, hits) in residue_tables(params).items():
        m = max(3, -(-first // p))
        for n in range(p * (m | 1), hi + 1, 2 * p):
            if n % period not in hits:
                want[(n - first) >> 1] = 2
    assert marks == want
    if size > 100:
        assert 2 in marks and 1 in marks


@pytest.mark.parametrize("rs", [(0, -1), (-2, 2)])
@pytest.mark.parametrize("lo", [262_145, 10007**2 - 8192])
def test_prefilter_is_sound_and_misses_no_sieve_prime(rs, lo, monkeypatch):
    # The second window lies above 10^8, where the sieve stops at 10^4 and
    # is no longer exact.
    hi = lo + 16383
    params = RecurrenceParams(*rs)
    marks = search._mark_block(lo, hi, params)
    odd = range(lo, hi + 1, 2)
    # Sound: every n marked 2 fails the plain weak test.
    rejected = [n for n, mark in zip(odd, marks) if mark == 2]
    if rs == (0, -1) and lo == 262_145:
        assert not any(weak_perrin_by_stepping_many(rejected).values())
    else:
        assert not any(perrin_test(params, n, "weak").passes for n in rejected)
    # Complete: no n the test rejects has a sieve prime factor p != n with
    # A(n/p) != r mod p, which the identity A(p*m) = A(m) mod p rejects.
    tested = [n for n, mark in zip(odd, marks) if mark != 2 and not is_prime_baseline(n)]
    failed = [n for n in tested if not perrin_test(params, n, "weak").passes]
    counts, _ = block_outcomes(lo, hi, SearchSpec("perrin-weak", *rs), monkeypatch)
    assert counts["rejected:test"] == len(failed) > 0
    flags = sieve(min(math.isqrt(hi), 10**4))
    primes = [p for p in range(3, len(flags), 2) if flags[p]]
    for n in failed:
        for p in primes:
            if n % p == 0 and n != p:
                assert sequence_term(params, n // p, p) == params.r % p, (n, p)
    if hi < 10001**2:
        # Where the sieve is exact, nor a prime factor P above it with
        # A(n/P) != r mod P, which the same identity rejects.
        for n in failed:
            big = rough_part(n, primes)
            if big > 1:
                assert recurrence_term(*rs, n // big, big) == params.r % big, (n, big)


def rough_part(n, primes):
    # n with every factor from primes divided out, by trial division.
    for p in primes:
        while n % p == 0:
            n //= p
    return n


@pytest.mark.parametrize("rs, lo", [
    ((0, -1), 262_145), ((-2, 2), 262_145), ((-2, 3), 262_145),
    ((0, -1), 896_441),  # holds 904631 = 7 * 13 * 9941
    ((0, -1), 10001**2 - 16384),  # the last window below 10001^2
    ((0, -1), 10001**2),  # the first above it, where the sieve is not exact
])
def test_rough_prime_step_marks_what_trial_division_predicts(rs, lo, monkeypatch):
    # The step after the walk marks 2 each n still marked 1 whose part P
    # free of sieve primes is a prime with A(n/P) != r mod P; it runs only
    # where the sieve is exact.  Its marks are checked against trial
    # division and stepping mod P.
    hi = lo + 16383
    params = RecurrenceParams(*rs)
    with monkeypatch.context() as mp:
        mp.setattr(search, "_mark_rough", lambda *args: None)
        walked = search._mark_block(lo, hi, params)
    marks = search._mark_block(lo, hi, params)
    exact = hi < 10001**2
    flags = sieve(math.isqrt(hi))
    primes = [p for p in range(3, len(flags), 2) if flags[p]]
    want = bytearray(walked)
    for i, n in enumerate(range(lo, hi + 1, 2)):
        if exact and walked[i] == 1:
            big = rough_part(n, primes)
            if big > 1 and recurrence_term(*rs, n // big, big) != params.r % big:
                want[i] = 2
    assert marks == want
    assert (want != walked) == exact
    if lo < 904631 <= hi:
        # 9941 divides A(91), so the step keeps 904631 for the weak test.
        assert rough_part(904631, primes) == 9941
        assert marks[(904631 - lo) // 2] == 1


def test_exact_terms_stay_within_their_bit_budget():
    # A root of x^3 - 1000x^2 + 7x - 1 lies near 1000, so A(k) has about
    # 10k bits, and the terms up to 10^4 that a block near 10^8 reads
    # would take about 5*10^8 bits.
    params = RecurrenceParams(1000, 7)
    lo, hi = 10**8 - 4095, 10**8
    tracemalloc.start()
    try:
        marks = search._mark_block(lo, hi, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = exact_terms(params, 0)
    assert 2 in marks
    assert 1000 < len(terms) < hi // math.isqrt(hi)
    assert sum(map(int.bit_length, terms)) <= EXACT_TERM_BITS
    assert peak < EXACT_TERM_BITS // 4
    assert [a % 10007 for a in terms[:50]] == [recurrence_term(1000, 7, k, 10007)
                                                for k in range(50)]


def per_n_flags(test, lo, hi):
    params = RecurrenceParams(0, -1)
    mode = test.split("-")[1]
    return {n for n in range(lo | 1, hi + 1, 2)
            if not is_prime_baseline(n)
            and (mode == "weak" or math.gcd(n, params.delta) == 1)
            and perrin_test(params, n, mode).passes}


@pytest.mark.parametrize("test", ["perrin-weak", "perrin-full"])
def test_prefiltered_scan_flags_what_the_plain_test_flags(tmp_path, test):
    lo, hi = 262_145, 262_145 + 4 * 4096 - 1  # holds 271441
    want = per_n_flags(test, lo, hi)
    assert (271441 in want) == (test == "perrin-weak")
    runs = []
    for workers in (1, 2):
        out, _, summary = run(tmp_path, f"{test}{workers}", start=lo, stop=hi,
                              spec=SearchSpec(test), workers=workers, block_size=4096)
        assert {int(json.loads(line)["n"]) for line in out.read_text().splitlines()} == want
        runs.append((out.read_bytes(), summary["outcomes"]))
    assert runs[0] == runs[1]
    outcomes = runs[0][1]
    assert list(outcomes) == list(OUTCOMES)
    assert sum(outcomes.values()) == len(range(lo, hi + 1, 2))
    assert outcomes["rejected:prefilter"] > 0
    assert outcomes["flagged"] == len(want)
    assert outcomes["prime"] == sum(sieve(hi)[lo:hi + 1:2])
    # Perrin-full does not apply to the multiples of 23 = -delta.
    multiples_of_23 = sum(n % 23 == 0 for n in range(lo, hi + 1, 2))
    assert outcomes["not-applicable"] == (multiples_of_23 if test == "perrin-full" else 0)

    # Counters after a kill and a resume equal the uninterrupted ones.
    part, ckpt, state = run(tmp_path, f"{test}-cut", start=lo, stop=hi,
                            spec=SearchSpec(test), workers=2, block_size=4096,
                            killed_after=3)
    assert sum(state["outcomes"].values()) == 3 * 2048
    resumed = run_range_search(lo, hi, SearchSpec(test), workers=2, out_path=str(part),
                               checkpoint_path=str(ckpt), resume=True, block_size=4096)
    assert (part.read_bytes(), resumed["outcomes"]) == runs[0]


def test_degenerate_cubic_passes_every_odd_composite(tmp_path):
    # (r, s) = (1, 1) is (x - 1)(x^2 + 1): A(k) = 1 + i^k + (-i)^k = 1 = r
    # for every odd k, so every table accepts and the weak test flags
    # every odd composite.
    out, _, summary = run(tmp_path, "deg", start=3, stop=300,
                          spec=SearchSpec("perrin-weak", r=1, s=1))
    flags = sieve(300)
    flagged = [int(json.loads(line)["n"]) for line in out.read_text().splitlines()]
    assert flagged == [n for n in range(3, 301, 2) if not flags[n]]
    assert summary["outcomes"]["rejected:prefilter"] == 0


def test_resume_refuses_checkpoint_without_outcome_counts(tmp_path):
    spec = SearchSpec("perrin-weak")
    out, ckpt, state = run(tmp_path, "v1", start=3, stop=5000, spec=spec, block_size=1000,
                           killed_after=2)
    assert state["version"] == 2
    old = {k: v for k, v in state.items() if k != "outcomes"}
    counts = state["outcomes"]
    old |= {"version": 1, "scanned": sum(counts.values()), "flagged": counts["flagged"]}
    ckpt.write_text(json.dumps(old))
    with pytest.raises(CheckpointMismatch):
        run_range_search(3, 5000, spec, out_path=str(out), checkpoint_path=str(ckpt),
                         resume=True, block_size=1000)


@pytest.mark.parametrize("side", ["", ".tmp"], ids=["checkpoint", "side-file"])
def test_records_and_checkpoint_must_be_different_files(tmp_path, side):
    # The same path, once spelled another way: each checkpoint write
    # would otherwise replace the records, or rename its side file over
    # them.
    ckpt = tmp_path / "x.ckpt"
    out = tmp_path / "sub" / ".." / f"x.ckpt{side}"
    with pytest.raises(ValueError, match="must differ"):
        run_range_search(3, 300000, SearchSpec("perrin-weak"), out_path=str(out),
                         checkpoint_path=str(ckpt))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("change", [
    lambda state: [state],
    lambda state: {k: v for k, v in state.items() if k != "blocks_done"},
    lambda state: state | {"blocks_done": "2"},
    lambda state: state | {"blocks_done": 99},
    lambda state: state | {"blocks_done": -1},
    lambda state: state | {"bytes_written": -5},
    lambda state: state | {"bytes_written": None},
    lambda state: state | {"outcomes": list(state["outcomes"])},
    lambda state: state | {"outcomes": state["outcomes"] | {"prime": "7"}},
    lambda state: state | {"outcomes": state["outcomes"] | {"prime": True}},
    # -1 flagged, one more rejected by the test: the sum still matches.
    lambda state: state | {"outcomes": state["outcomes"] | {
        "flagged": -1, "rejected:test": state["outcomes"]["rejected:test"] + 1}},
    lambda state: state | {"outcomes": state["outcomes"] | {
        "prime": state["outcomes"]["prime"] + 1}},
], ids=["list", "no-blocks", "text-blocks", "blocks-past-end", "negative-blocks",
        "negative-bytes", "null-bytes", "outcome-list", "text-count", "bool-count",
        "negative-count", "count-sum"])
def test_resume_refuses_malformed_checkpoint(tmp_path, change):
    # A checkpoint of this very search, with its counts broken: refused
    # before the records file, with a partial line to cut, is touched.
    spec = SearchSpec("perrin-weak")
    out, ckpt, state = run(tmp_path, "bad", start=3, stop=300000, spec=spec,
                           killed_after=2)
    ckpt.write_text(json.dumps(change(state)))
    with open(out, "ab") as fh:
        fh.write(b'{"n":"99')
    before = out.read_bytes()
    with pytest.raises(CheckpointMismatch):
        run_range_search(3, 300000, spec, out_path=str(out), checkpoint_path=str(ckpt),
                         resume=True)
    assert out.read_bytes() == before


def resume_with_hash_prefix(tmp_path, prefix):
    # Resumes a killed perrin-weak scan from its checkpoint, whose hash is
    # recomputed with the given text prefix.
    spec = SearchSpec("perrin-weak")
    out, ckpt, state = run(tmp_path, prefix, start=3, stop=5000, spec=spec,
                           block_size=1000, killed_after=2)
    text = f"{prefix};from=3;to=5000;block=1000;{spec.canonical()}"
    ckpt.write_text(json.dumps(state | {"hash": hashlib.sha256(text.encode()).hexdigest()}))
    return run_range_search(3, 5000, spec, out_path=str(out), checkpoint_path=str(ckpt),
                            resume=True, block_size=1000)


def test_resume_refuses_checkpoint_of_the_table_only_prefilter(tmp_path):
    # A "v1" hash was written while only the period tables prefiltered, so
    # its rejected:prefilter and rejected:test counts split differently.
    with pytest.raises(CheckpointMismatch):
        resume_with_hash_prefix(tmp_path, "v1")


def test_resume_refuses_checkpoint_of_the_walk_only_prefilter(tmp_path):
    # A "v2" hash was written before the rough prime step; "v3" is today's.
    with pytest.raises(CheckpointMismatch):
        resume_with_hash_prefix(tmp_path, "v2")
    assert resume_with_hash_prefix(tmp_path, "v3")["completed"]


def test_scan_starts_no_idle_workers(tmp_path, monkeypatch):
    # A run starts one process fewer than it has workers, and never more
    # than its blocks left: the parent scans a share of its own.
    started = []
    # run_range_search imports multiprocessing when it starts a worker, so its
    # Process is the module's own.
    real_process = multiprocessing.Process

    def process(*args, **kwargs):
        started[-1] += 1
        return real_process(*args, **kwargs)

    def counted(scan, *args, **kwargs):
        started.append(0)
        return scan(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Process", process)
    spec = SearchSpec("perrin-weak")
    counted(run, tmp_path, "one", start=3, stop=900, spec=spec, workers=8, block_size=1000)
    counted(run, tmp_path, "three", start=3, stop=2900, spec=spec, workers=8, block_size=1000)
    out, ckpt, _ = counted(run, tmp_path, "cut", start=3, stop=4900, spec=spec, workers=2,
                           block_size=1000, killed_after=3)
    counted(run_range_search, 3, 4900, spec, workers=8, out_path=str(out),
            checkpoint_path=str(ckpt), resume=True, block_size=1000)
    assert started == [0, 2, 1, 1]

    # Killed after an odd number of blocks under 2 workers and resumed
    # under 3, which do not divide the 11 blocks left: the parent's share
    # shifts, and the bytes and counts stay those of one worker.
    started.clear()
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    ref, _, whole = counted(run, tmp_path, "ref", start=3, stop=8000, spec=spec, workers=1,
                            block_size=500)
    out, ckpt, _ = counted(run, tmp_path, "shift", start=3, stop=8000, spec=spec, workers=2,
                           block_size=500, killed_after=5)
    resumed = counted(run_range_search, 3, 8000, spec, workers=3, out_path=str(out),
                      checkpoint_path=str(ckpt), resume=True, block_size=500)
    assert started == [0, 1, 2]
    assert ref.read_bytes() and out.read_bytes() == ref.read_bytes()
    assert resumed["outcomes"] == whole["outcomes"]


class Broken(Exception):
    """A block scan that fails."""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched _scan_block reaches a worker only when it is forked")
@pytest.mark.parametrize("failing, error, match", [
    (3, RuntimeError, r"worker 1 \(pid \d+\) exited with code 1 before sending block 3"),
    (4, Broken, "block 4"),
], ids=["worker", "parent"])
def test_failed_block_stops_the_scan_and_its_workers(tmp_path, monkeypatch, failing, error,
                                                    match):
    # Under 2 workers the parent scans the even blocks and one child the
    # odd ones.  A child's failure kills it, so its pipe ends early.
    real_scan_block = search._scan_block

    def scan_block(start, stop, spec, block_size, index):
        if index == failing:
            raise Broken(f"block {failing}")
        return real_scan_block(start, stop, spec, block_size, index)

    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    _, _, want = run(tmp_path, "ref", start=3, stop=8000, spec=spec, block_size=500,
                     killed_after=failing)
    monkeypatch.setattr(search, "_scan_block", scan_block)
    with pytest.raises(error, match=match):
        run(tmp_path, "cut", start=3, stop=8000, spec=spec, workers=2, block_size=500)
    assert multiprocessing.active_children() == []
    # The checkpoint counts the blocks before the failure, and no other.
    assert json.loads((tmp_path / "cut.ckpt").read_text()) == want


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched _scan_block reaches a worker only when it is forked")
def test_every_block_is_scanned_exactly_once(tmp_path, monkeypatch):
    # Each scanned block appends its index to a log, in one O_APPEND
    # write, so the lines of forked workers do not interleave.
    real_scan_block = search._scan_block
    log = tmp_path / "blocks.log"

    def scan_block(start, stop, spec, block_size, index):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{index}\n".encode())
        finally:
            os.close(fd)
        return real_scan_block(start, stop, spec, block_size, index)

    def scanned():
        indices = sorted(map(int, log.read_text().split()))
        log.unlink()
        return indices

    monkeypatch.setattr(search, "_scan_block", scan_block)
    spec = SearchSpec("perrin-weak")
    # 16 blocks, which 3 workers do not divide.
    for workers in (1, 2, 3):
        run(tmp_path, f"w{workers}", start=3, stop=8000, spec=spec, workers=workers,
            block_size=500)
        assert scanned() == list(range(16)), workers
    # Killed after 5 blocks under 2 workers and resumed under 3, so that
    # the parent's share shifts: the resumed run scans each block left once.
    out, ckpt, _ = run(tmp_path, "cut", start=3, stop=8000, spec=spec, workers=2,
                       block_size=500, killed_after=5)
    log.unlink()
    run_range_search(3, 8000, spec, workers=3, out_path=str(out), checkpoint_path=str(ckpt),
                     resume=True, block_size=500)
    assert scanned() == list(range(5, 16))
