import json

import pytest

from primesig.search import (
    CheckpointMismatch,
    SearchSpec,
    run_range_search,
)


def run(tmp_path, name, **kwargs):
    out = tmp_path / f"{name}.jsonl"
    ckpt = tmp_path / f"{name}.ckpt"
    summary = run_range_search(
        out_path=str(out), checkpoint_path=str(ckpt), **kwargs
    )
    return out, ckpt, summary


def test_small_range_has_no_weak_pseudoprimes(tmp_path):
    out, _, summary = run(
        tmp_path, "w", start=3, stop=1000, spec=SearchSpec("perrin-weak")
    )
    assert summary["flagged"] == 0
    assert summary["scanned"] == 499
    assert summary["completed"]
    assert out.read_bytes() == b""


def test_single_number_range(tmp_path):
    _, _, summary = run(tmp_path, "one", start=3, stop=3, spec=SearchSpec("perrin-weak"))
    assert summary["scanned"] == 1
    assert summary["flagged"] == 0


def test_empty_range_rejected(tmp_path):
    with pytest.raises(ValueError):
        run(tmp_path, "bad", start=100, stop=50, spec=SearchSpec("perrin-weak"))


def test_spec_rejects_unknown_test():
    with pytest.raises(ValueError):
        SearchSpec("fermat")


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
        tmp_path, "w3", start=3, stop=6000, spec=spec, workers=8, block_size=512
    )
    blob = out1.read_bytes()
    assert blob == out2.read_bytes() == out3.read_bytes()
    assert blob.count(b"\n") == blob.count(b"{")  # LF framed records


def test_kill_and_resume_reproduces_bytes(tmp_path):
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    full, _, _ = run(
        tmp_path, "full", start=3, stop=8000, spec=spec, workers=2, block_size=500
    )
    part, ckpt, summary = run(
        tmp_path,
        "part",
        start=3,
        stop=8000,
        spec=spec,
        workers=2,
        block_size=500,
        stop_after_blocks=7,
    )
    assert not summary["completed"]
    state = json.loads(ckpt.read_text())
    assert state["blocks_done"] == 7
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


def test_resume_truncates_trailing_garbage(tmp_path):
    # A kill mid-write can leave a partial line past the checkpointed
    # offset; resume must cut it off.
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
        stop_after_blocks=4,
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


def test_resume_refuses_short_file(tmp_path):
    # Truncating forward would pad the gap with NUL bytes.
    spec = SearchSpec("frobenius", poly=(1, 0, 1))
    part, ckpt, _ = run(
        tmp_path, "short", start=3, stop=4000, spec=spec, block_size=400,
        stop_after_blocks=4,
    )
    assert json.loads(ckpt.read_text())["bytes_written"] > 0
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
        stop_after_blocks=2,
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
    from primesig.cli import verify_number

    out, _, _ = run(
        tmp_path,
        "rt",
        start=3,
        stop=3000,
        spec=SearchSpec("frobenius", poly=(1, 0, 1)),
    )
    for line in out.read_text().splitlines():
        record = json.loads(line)
        import io

        sink = io.StringIO()
        again = verify_number(
            int(record["n"]), "frobenius",
            poly=tuple(int(c) for c in record["poly"].split(",")), out=sink,
        )
        assert again["verdict"] == record["verdict"]
        assert again["degrees"] == record["degrees"]
        assert again["jacobi"] == record["jacobi"]
