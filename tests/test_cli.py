import io
import json
import math
import subprocess
import sys

import pytest

from primesig import ConstructionParams
from primesig.cli import main, parse_params_file, verify_number


def test_verify_perrin_full_worked_example(capsys):
    assert main(["verify", "7", "--test", "perrin-full"]) == 0
    out = capsys.readouterr().out
    assert "(5, 6, 5, 5, 0, 3)" in out
    assert "Q[a=5]" in out
    record = json.loads(out.split("record: ")[1])
    assert record == {
        "n": "7",
        "test": "perrin-full",
        "rs": "0,-1",
        "verdict": "pass",
        "class": "Q[a=5]",
        "jacobi": "-1",
    }


def test_verify_korselt_certificate(capsys):
    assert main(["verify", "561", "--test", "korselt"]) == 0
    out = capsys.readouterr().out
    assert "validates" in out
    record = json.loads(out.split("record: ")[1])
    assert record["factors"] == "3:1,11:1,17:1"
    assert record["verdict"] == "pass"


def test_verify_korselt_failure_reason(capsys):
    assert main(["verify", "8", "--test", "korselt"]) == 0
    out = capsys.readouterr().out
    assert "not-squarefree" in out


def test_verify_frobenius(capsys):
    assert main(["verify", "9", "--test", "frobenius", "--poly=1,0,1"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out.split("record: ")[1])
    assert record["verdict"] == "probable-prime"
    assert record["degrees"] == "2,0"
    assert "factor_found" not in record
    # For x^3 - x - 1 the first stage exposes the factor 109 of 5777.
    record = verify_number(5777, "frobenius", poly=(-1, -1, 0, 1), out=io.StringIO())
    assert record["verdict"] == "composite" and record["factor_found"] == "109"


def test_verify_weak_census_number(capsys):
    assert main(["verify", "271441", "--test", "perrin-weak"]) == 0
    record = json.loads(capsys.readouterr().out.split("record: ")[1])
    assert record["verdict"] == "pass"
    assert record["jacobi"] == "1"  # 271441 = 521^2
    # The weak record carries the symbol for every odd n, passing or not.
    record = verify_number(9, "perrin-weak", out=io.StringIO())
    assert record["verdict"] == "fail" and record["jacobi"] == "1"
    assert "jacobi" not in verify_number(10, "perrin-weak", out=io.StringIO())


def test_verify_custom_rs(capsys):
    assert main(["verify", "11", "--test", "perrin-weak", "--rs", "1,2"]) == 0
    record = json.loads(capsys.readouterr().out.split("record: ")[1])
    assert record["rs"] == "1,2"


def test_verify_domain_error_exits_one(capsys):
    assert main(["verify", "46", "--test", "perrin-full"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_bad_rs_exits_one(capsys):
    assert main(["verify", "7", "--test", "perrin-weak", "--rs", "zero,cat"]) == 1
    assert main(["verify", "7", "--test", "perrin-weak", "--rs", "1,2,3"]) == 1
    assert "--rs wants two integers" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["271441", "--test", "perrin-weak", "--poly=1,0,1"],
    ["271441", "--test", "frobenius", "--rs", "5,7"],
    ["561", "--test", "korselt", "--rs", "5,7"],
])
def test_verify_option_the_test_does_not_read_exits_one(capsys, args):
    assert main(["verify", *args]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert "is read by" in streams.err


def test_verify_number_function_returns_record():
    sink = io.StringIO()
    record = verify_number(59, "frobenius", poly=(-1, -1, 0, 1), out=sink)
    assert record["degrees"] == "3,0,0"
    assert "jacobi stage" in sink.getvalue()


def test_verify_perrin_full_computes_one_signature(monkeypatch):
    from primesig import cli, perrin

    real = perrin.signature
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perrin, "signature", counting)
    monkeypatch.setattr(cli, "signature", counting, raising=False)
    sink = io.StringIO()
    verify_number(271441, "perrin-full", out=sink)
    assert len(calls) == 1
    assert f"signature {real(perrin.PERRIN, 271441, 271441).values}" in sink.getvalue()
    # 15 misses the table of 3: no signature, a note in its place, and the
    # record the signature's class gives.
    sink = io.StringIO()
    verify_number(15, "perrin-full", out=sink)
    assert len(calls) == 1
    assert sink.getvalue().splitlines()[1:] == [
        "no signature computed: a table prime of n rules out A(n) = r",
        "class not-acceptable, jacobi -1",
        "perrin-full: fail",
        'record: {"n":"15","test":"perrin-full","rs":"0,-1","verdict":"fail",'
        '"class":"not-acceptable","jacobi":"-1"}',
    ]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_search_cli_roundtrip(tmp_path, capsys):
    out = tmp_path / "hits.jsonl"
    ckpt = tmp_path / "scan.ckpt"
    rc = main([
        "search", "--from", "3", "--to", "2000",
        "--test", "frobenius", "--poly=1,0,1",
        "--out", str(out), "--checkpoint", str(ckpt),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert any(json.loads(l)["n"] == "341" for l in lines)
    # One JSON summary line on stderr, nothing on stdout.
    streams = capsys.readouterr()
    assert streams.out == ""
    [summary] = [json.loads(l) for l in streams.err.splitlines()]
    assert summary["scanned"] == sum(summary["outcomes"].values()) == 999
    assert summary["flagged"] == summary["outcomes"]["flagged"] == len(lines)
    assert summary["completed"]
    # Identical rerun: same bytes.
    blob = out.read_bytes()
    rc = main([
        "search", "--from", "3", "--to", "2000",
        "--test", "frobenius", "--poly=1,0,1",
        "--out", str(out), "--checkpoint", str(ckpt),
    ])
    assert rc == 0
    assert out.read_bytes() == blob


@pytest.mark.parametrize("args", [
    ["--test", "frobenius", "--poly=1,2,1"],  # (x + 1)^2
    ["--test", "frobenius", "--poly=5,1"],  # degree 1
    ["--test", "frobenius", "--poly=1,0,2"],  # not monic
    ["--test", "perrin-full", "--rs=3,3"],  # (x - 1)^3
    ["--test", "perrin-full", "--poly=1,2,1"],  # the Perrin tests read --rs only
    ["--test", "frobenius", "--rs=5,7"],  # frobenius reads --poly only
    ["--test", "frobenius", "--poly=0,-1,0,1"],  # x^3 - x: the root 0
    ["--test", "perrin-weak", "--rs=3,3"],  # (x - 1)^3
])
def test_search_bad_spec_exits_one_before_scanning(tmp_path, capsys, args):
    out = tmp_path / "x.jsonl"
    rc = main(["search", "--from", "3", "--to", "3000", *args, "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_search_out_equal_to_checkpoint_exits_one(tmp_path, capsys):
    path = tmp_path / "x.jsonl"
    rc = main(["search", "--from", "3", "--to", "3000", "--test", "perrin-weak",
               "--out", str(path), "--checkpoint", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "--out" in err and "--checkpoint" in err
    assert not path.exists()


@pytest.mark.parametrize("args, option", [
    (["search", "--from", "3", "--to", "3000", "--test", "perrin-weak", "--rs", ""], "--rs"),
    (["search", "--from", "3", "--to", "3000", "--test", "frobenius", "--poly", ""], "--poly"),
    (["verify", "7", "--test", "perrin-full", "--rs="], "--rs"),
    (["verify", "7", "--test", "frobenius", "--poly="], "--poly"),
    (["verify", "7", "--test", "frobenius", "--poly=-1,,1"], "--poly"),
])
def test_empty_rs_or_poly_exits_one_naming_the_option(tmp_path, capsys, args, option):
    # An empty value is an error, not a request for the default.
    out = tmp_path / "x.jsonl"
    rc = main([*args, "--out", str(out)] if args[0] == "search" else args)
    assert rc == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert f"error: {option} wants" in streams.err
    assert not out.exists()


def test_search_resume_without_checkpoint_fails(tmp_path, capsys):
    rc = main([
        "search", "--from", "3", "--to", "100", "--test", "perrin-weak",
        "--out", str(tmp_path / "x.jsonl"), "--resume",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_search_resume_hash_mismatch_fails(tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    ckpt = tmp_path / "o.ckpt"
    assert main([
        "search", "--from", "3", "--to", "1000", "--test", "perrin-weak",
        "--out", str(out), "--checkpoint", str(ckpt),
    ]) == 0
    rc = main([
        "search", "--from", "3", "--to", "2000", "--test", "perrin-weak",
        "--out", str(out), "--checkpoint", str(ckpt), "--resume",
    ])
    assert rc == 1
    assert "refusing to resume" in capsys.readouterr().err


def test_search_resume_text_outcome_count_exits_one(tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    ckpt = tmp_path / "o.ckpt"
    args = ["search", "--from", "3", "--to", "1000", "--test", "perrin-weak",
            "--out", str(out), "--checkpoint", str(ckpt)]
    assert main(args) == 0
    state = json.loads(ckpt.read_text())
    state["outcomes"]["prime"] = str(state["outcomes"]["prime"])
    ckpt.write_text(json.dumps(state))
    assert main([*args, "--resume"]) == 1
    assert "refusing to resume" in capsys.readouterr().err


def test_construct_preset_exit_codes(tmp_path, capsys):
    out = tmp_path / "certs.jsonl"
    assert main(["construct", "--preset", "classic-Q", "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["n"] for r in records] == ["10267951", "23729234761"]
    capsys.readouterr()

    # Valid parameters on which the harvest runs dry: no prime q in
    # (5, 16] has a 2-smooth q - 1.
    cfg = tmp_path / "dry.cfg"
    cfg.write_text("y=2\nq_min=5\nq_max=16\nk_min=1\nk_max=10\nx_bound=1000\nt_max=4\n")
    assert main(["construct", "--params", str(cfg),
                 "--out", str(tmp_path / "none.jsonl")]) == 2
    assert "harvest stage" in capsys.readouterr().err


def test_construct_unknown_preset(capsys):
    assert main(["construct", "--preset", "nope"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_construct_requires_exactly_one_source(capsys):
    assert main(["construct"]) == 1
    assert main(["construct", "--preset", "classic-Q", "--params", "x"]) == 1


def test_construct_params_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "y=3\nq_min=3\nq_max=8\nk_min=1\nk_max=100\n"
        "x_bound=3000\nt_max=5\npoly=-1,1\nbudget=100000\n"
    )
    out = tmp_path / "c.jsonl"
    assert main(["construct", "--params", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_construct_params_file_t_max_two_exits_one(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "y=3\nq_min=3\nq_max=8\nk_min=1\nk_max=100\n"
        "x_bound=3000\nt_max=2\npoly=-1,1\nbudget=100000\n"
    )
    assert main(["construct", "--params", str(cfg),
                 "--out", str(cfg.with_suffix(".jsonl"))]) == 1
    err = capsys.readouterr().err
    assert "t_max = 2 admits no subsets" in err
    assert "harvested" not in err


def test_construct_malformed_params_exit_one(tmp_path, capsys):
    bad1 = tmp_path / "bad1.cfg"
    bad1.write_text("y=3\nwhat=ever\n")
    assert main(["construct", "--params", str(bad1)]) == 1
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("y=3\nq_min=3\n")  # required keys missing
    assert main(["construct", "--params", str(bad2)]) == 1
    bad3 = tmp_path / "bad3.cfg"
    bad3.write_text("y=three\nq_min=3\nq_max=8\nk_min=1\nk_max=4\n"
                    "x_bound=300\nt_max=5\npoly=-1,1\n")
    assert main(["construct", "--params", str(bad3)]) == 1
    assert main(["construct", "--params", str(tmp_path / "absent.cfg")]) == 1
    bad4 = tmp_path / "bad4.cfg"
    bad4.write_text("y=3\nq_min 3\n")
    assert main(["construct", "--params", str(bad4)]) == 1
    assert "bad4.cfg:2: expected key=value" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("t_max=2\nt_max=5\n", "job.cfg:8: key 't_max' is given twice"),
    ("t_max=three\n", "job.cfg:7: t_max wants an integer, got 'three'"),
    ("t_max=5\nbudget=1,2\n", "job.cfg:8: budget wants an integer, got '1,2'"),
    ("t_max=5\npoly=-1,x\n", "job.cfg:8: poly wants comma-separated integers, got '-1,x'"),
])
def test_construct_params_file_value_errors_name_line_and_key(tmp_path, capsys, lines, message):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("y=3\nq_min=3\nq_max=8\nk_min=1\nk_max=100\nx_bound=3000\n" + lines)
    assert main(["construct", "--params", str(cfg)]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert message in streams.err
    assert "harvested" not in streams.err


def test_construct_non_squarefree_poly_exits_one(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "y=3\nq_min=3\nq_max=8\nk_min=1\nk_max=100\n"
        "x_bound=3000\nt_max=5\npoly=1,2,1\nbudget=100000\n"  # (x + 1)^2
    )
    assert main(["construct", "--params", str(cfg)]) == 1
    assert "squarefree" in capsys.readouterr().err


def test_parse_params_file_round_trip(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "y=5\nq_min=10\nq_max=60\nk_min=2\nk_max=40\n"
        "x_bound=500\nt_max=4\npoly=-1,-1,1\nbudget=777\n"
    )
    params = parse_params_file(str(cfg))
    assert params.y == 5
    assert params.q_range == (10, 60)
    assert params.poly == (-1, -1, 1)
    assert params.budget == 777


def test_parse_params_file_defaults(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("y=5\nq_min=10\nq_max=60\nk_min=2\nk_max=40\nx_bound=500\nt_max=4\n")
    assert parse_params_file(str(cfg)) == ConstructionParams(
        y=5, q_range=(10, 60), k_min=2, k_max=40, x_bound=500, t_max=4)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "primesig.cli", "verify", "7", "--test", "perrin-full"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Q[a=5]" in proc.stdout


# Everything verify writes for these n, byte for byte, as this package wrote
# it with one print per line, before verify wrote its evidence at once.
PINNED_EVIDENCE = [
    (9, 'perrin-weak', {}, (
        'n = 9, sequence parameters (r, s) = (0, -1), discriminant -23\n'
        'perrin-weak: fail\n'
        'record: {"n":"9","test":"perrin-weak","rs":"0,-1","verdict":"fail",'
        '"jacobi":"1"}\n'
    )),
    (10, 'perrin-weak', {}, (
        'n = 10, sequence parameters (r, s) = (0, -1), discriminant -23\n'
        'perrin-weak: fail\n'
        'record: {"n":"10","test":"perrin-weak","rs":"0,-1","verdict":"fail"}\n'
    )),
    (271441, 'perrin-weak', {}, (
        'n = 271441, sequence parameters (r, s) = (0, -1), discriminant -23\n'
        'perrin-weak: pass\n'
        'record: {"n":"271441","test":"perrin-weak","rs":"0,-1","verdict":"pass",'
        '"jacobi":"1"}\n'
    )),
    (15, 'perrin-full', {}, (
        'n = 15, sequence parameters (r, s) = (0, -1), discriminant -23\n'
        'no signature computed: a table prime of n rules out A(n) = r\n'
        'class not-acceptable, jacobi -1\n'
        'perrin-full: fail\n'
        'record: {"n":"15","test":"perrin-full","rs":"0,-1","verdict":"fail",'
        '"class":"not-acceptable","jacobi":"-1"}\n'
    )),
    (271441, 'perrin-full', {}, (
        'n = 271441, sequence parameters (r, s) = (0, -1), discriminant -23\n'
        'signature (116705, 154736, 3, 3, 0, 116706)\n'
        'class not-acceptable, jacobi 1\n'
        'perrin-full: fail\n'
        'record: {"n":"271441","test":"perrin-full","rs":"0,-1","verdict":"fail",'
        '"class":"not-acceptable","jacobi":"1"}\n'
    )),
    (1000037, 'perrin-full', {}, (
        'n = 1000037, sequence parameters (r, s) = (0, -1), discriminant -23\n'
        'signature (823499, 1000036, 484022, 484022, 0, 885665)\n'
        'class Q[a=484022], jacobi -1\n'
        'perrin-full: pass\n'
        'record: {"n":"1000037","test":"perrin-full","rs":"0,-1",'
        '"verdict":"pass","class":"Q[a=484022]","jacobi":"-1"}\n'
    )),
    (5777, 'frobenius', {}, (
        'n = 5777, poly -1,-1,0,1\n'
        'degrees [0]\n'
        'factor found: 109\n'
        'frobenius: composite at stage factorization\n'
        'record: {"n":"5777","test":"frobenius","poly":"-1,-1,0,1",'
        '"verdict":"composite","degrees":"0","jacobi":"1","factor_found":"109"}\n'
    )),
    (59, 'frobenius', {}, (
        'n = 59, poly -1,-1,0,1\n'
        'degrees [3, 0, 0]\n'
        'jacobi stage sum S = 0, (delta/n) = 1\n'
        'frobenius: probable-prime\n'
        'record: {"n":"59","test":"frobenius","poly":"-1,-1,0,1",'
        '"verdict":"probable-prime","degrees":"3,0,0","jacobi":"1"}\n'
    )),
    (8911, 'frobenius', {}, (
        'n = 8911, poly -1,-1,0,1\n'
        'degrees [1]\n'
        'factor found: 133\n'
        'frobenius: composite at stage factorization\n'
        'record: {"n":"8911","test":"frobenius","poly":"-1,-1,0,1",'
        '"verdict":"composite","degrees":"1","jacobi":"-1","factor_found":"133"}\n'
    )),
    (9, 'frobenius', {'poly': (1, 0, 1)}, (
        'n = 9, poly 1,0,1\n'
        'degrees [2, 0]\n'
        'jacobi stage sum S = 0, (delta/n) = 1\n'
        'frobenius: probable-prime\n'
        'record: {"n":"9","test":"frobenius","poly":"1,0,1",'
        '"verdict":"probable-prime","degrees":"2,0","jacobi":"1"}\n'
    )),
    (561, 'korselt', {}, (
        'n = 561 = 3 * 11 * 17\n'
        'squarefree: True\n'
        '  p = 3: p-1 | n-1 holds\n'
        '  p = 11: p-1 | n-1 holds\n'
        '  p = 17: p-1 | n-1 holds\n'
        'korselt certificate validates\n'
        'record: {"n":"561","test":"korselt","factors":"3:1,11:1,17:1",'
        '"squarefree":"true","verdict":"pass"}\n'
    )),
    (1729, 'korselt', {}, (
        'n = 1729 = 7 * 13 * 19\n'
        'squarefree: True\n'
        '  p = 7: p-1 | n-1 holds\n'
        '  p = 13: p-1 | n-1 holds\n'
        '  p = 19: p-1 | n-1 holds\n'
        'korselt certificate validates\n'
        'record: {"n":"1729","test":"korselt","factors":"7:1,13:1,19:1",'
        '"squarefree":"true","verdict":"pass"}\n'
    )),
]


@pytest.mark.parametrize("n, test, kwargs, text", PINNED_EVIDENCE,
                         ids=[f"{t}-{n}" + "".join(f"-{k}={v}" for k, v in kw.items())
                              for n, t, kw, _ in PINNED_EVIDENCE])
def test_verify_writes_its_pinned_evidence_once(n, test, kwargs, text):
    class Sink(io.StringIO):
        writes = 0

        def write(self, s):
            self.writes += 1
            return super().write(s)

    sink = Sink()
    rec = verify_number(n, test, **kwargs, out=sink)
    assert (sink.getvalue(), sink.writes) == ("".join(text), 1)
    assert sink.getvalue().endswith(f"record: {json.dumps(rec, separators=(',', ':'))}\n")


@pytest.mark.parametrize("test, good, bad, error", [
    ("perrin-weak", {"rs": (0, -1)}, {"rs": (0.0, -1)}, "must be integers"),
    ("perrin-full", {"rs": (0, -1)}, {"rs": (0, -1.0)}, "must be integers"),
    ("perrin-weak", {"rs": (1, 2)}, {"rs": (3, 3)}, "not squarefree"),
    ("frobenius", {"poly": (-1, -1, 0, 1)}, {"poly": (-1.0, -1, 0, 1)}, "integer coefficients"),
    ("frobenius", {"poly": (-1, -1, 0, 1)}, {"poly": (-1, -1, 0, 2)}, "monic"),
    ("frobenius", {"poly": (-1, -1, 0, 1)}, {"poly": (0, -1, 0, 1)}, "root 0"),
    ("perrin-weak", {}, {"test": "perrin-wea"}, "unknown test"),
    ("perrin-weak", {"rs": (0, -1)}, {"rs": ([0], -1)}, "must be integers"),
    # A third value must not be taken for poly, nor a missing one for a default.
    *[(test, {"rs": (1, 2)}, {"rs": rs}, "^rs wants two integers")
      for test in ("perrin-weak", "perrin-full") for rs in ((1, 2, 3), (1,), (), 5, None)],
])
def test_verify_spec_memo_keeps_every_check(test, good, bad, error):
    # verify keeps one spec per parameter set; a bad parameter equal to a
    # good one must still raise, twice in a row, right after the good call.
    sink = io.StringIO()
    verify_number(11, test, **good, out=sink)
    written = sink.getvalue()
    bad = {"test": test, **bad}
    for _ in range(2):
        with pytest.raises(ValueError, match=error):
            verify_number(11, **bad, out=sink)
    assert sink.getvalue() == written


def test_verify_specs_of_different_parameters_never_cross():
    from primesig import cli
    from primesig.search import SearchSpec, record

    for _ in range(2):
        accepted = 0
        for r in range(-6, 7):
            for s in range(-6, 7):
                try:
                    fresh = SearchSpec("perrin-full", r, s)
                except ValueError:
                    continue
                if math.gcd(fresh.delta, 35) != 1:
                    continue
                rec = verify_number(35, "perrin-full", rs=(r, s), out=io.StringIO())
                assert rec == record(35, fresh, fresh.run(35)), (r, s)
                assert rec["rs"] == f"{r},{s}"
                accepted += 1
        for poly in ((-1, -1, 1), (1, 0, 1), (-1, -1, 0, 1), (-5, 0, 1), (-1, -1, 0, 0, 1)):
            rec = verify_number(35, "frobenius", poly=poly, out=io.StringIO())
            fresh = SearchSpec("frobenius", poly=poly)
            assert rec == record(35, fresh, fresh.run(35)), poly
    # More parameter sets than the memo holds, so it must have dropped some.
    info = cli._spec.cache_info()
    assert accepted > info.maxsize >= info.currsize > 0
