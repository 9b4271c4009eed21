"""Command line front end.

Three subcommands:

  search     scan a range for pseudoprimes, with checkpoint/resume
  verify     run one test against one number and print the evidence
  construct  run the Carmichael constructor from a preset or params file

verify writes its evidence in one write, ending in a korselt record of its
own or, for the scan tests, the record search.record builds, as search does.
construct exits 0 when at least one certificate was emitted, 2 when a
stage starved on valid parameters, and 1 on malformed input or invalid
parameters.  Params files are flat key=value lines, each key at most
once; integer lists (poly) are comma-separated decimals.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .carmichael import korselt
from .constructor import PRESETS, ConstructionParams, construct
from .polymod import _require_poly
from .search import DEFAULT_BLOCK_SIZE, TESTS, SearchSpec, _record_json, record, run_range_search

__all__ = ["main", "verify_number", "run_construct_job", "parse_params_file"]

# One spec per parameter set for verify_number; typed, so that a float equal to
# an int still raises at every call, since lru_cache stores no exception.
_spec = functools.lru_cache(maxsize=64, typed=True)(SearchSpec)


def _parse_ints(text: str, name: str, count: int | None = None) -> tuple[int, ...]:
    # The comma-separated integers of text, exactly count of them unless
    # count is None; name says where text came from.
    want = {None: "comma-separated integers", 1: "an integer", 2: "two integers"}[count]
    try:
        ints = tuple(int(part) for part in text.split(","))
    except ValueError:
        ints = ()
    if not ints or count not in (None, len(ints)):
        raise ValueError(f"{name} wants {want}, got {text!r}")
    return ints


def _rs_and_poly(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The --rs and --poly values, or their defaults.  Only the Perrin tests
    # read --rs and only frobenius reads --poly; the other option is an error.
    if args.rs is not None and not args.test.startswith("perrin-"):
        raise ValueError(f"--rs is read by the Perrin tests only, not by {args.test}")
    if args.poly is not None and args.test != "frobenius":
        raise ValueError(f"--poly is read by frobenius only, not by {args.test}")
    rs = (0, -1) if args.rs is None else _parse_ints(args.rs, "--rs", 2)
    poly = (-1, -1, 0, 1) if args.poly is None else _parse_ints(args.poly, "--poly")
    return rs, poly


def _cmd_search(args) -> int:
    rs, poly = _rs_and_poly(args)
    summary = run_range_search(
        args.start, args.stop, SearchSpec(args.test, *rs, poly=poly),
        workers=args.workers,
        out_path=args.out,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        block_size=args.block_size,
    )
    print(json.dumps(summary, separators=(",", ":")), file=sys.stderr)
    return 0


def verify_number(n: int, test: str, *, rs: tuple[int, int] = (0, -1),
                  poly: tuple[int, ...] = (-1, -1, 0, 1), out=None) -> dict:
    """Run one test against n, write human-readable evidence plus the
    machine record to out in one write, and return the record.  Of rs and
    poly, only the one the test reads is passed on."""
    out = out if out is not None else sys.stdout
    if test == "korselt":
        cert = korselt(n)
        factors = " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in cert.factorization.factors)
        text = f"n = {n} = {factors}\nsquarefree: {cert.squarefree}\n" + "".join(
            f"  p = {p}: p-1 | n-1 {'holds' if ok else 'FAILS'}\n" for p, ok in cert.checks)
        verdict = "validates" if cert.validates else f"fails ({cert.failure_reason})"
        text += f"korselt certificate {verdict}\n"
        rec = {
            "n": str(n),
            "test": "korselt",
            "factors": ",".join(f"{p}:{e}" for p, e in cert.factorization.factors),
            "squarefree": str(cert.squarefree).lower(),
            "verdict": "pass" if cert.validates else "fail",
        }
    else:
        if test == "frobenius":  # keyed on the checked Poly, whose coefficients are ints
            spec = _spec(test, poly=_require_poly(poly, 2))
        else:
            try:
                r, s = rs
            except (TypeError, ValueError):
                raise ValueError(f"rs wants two integers, got {rs!r}") from None
            try:
                spec = _spec(test, r, s)
            except TypeError:  # an unhashable r, s or test, which the spec names
                spec = SearchSpec(test, r, s)
        result = spec.run(n)
        rec = record(n, spec, result)
        if test == "frobenius":
            factor, parity, stage = result.factor_found, result.jacobi_s, result.stage
            text = f"n = {n}, poly {rec['poly']}\ndegrees {list(result.degrees)}\n"
            if factor:
                text += f"factor found: {factor}\n"
            if parity is not None:
                text += f"jacobi stage sum S = {parity}, (delta/n) = {rec['jacobi']}\n"
            stage = f" at stage {stage}" if stage else ""
            text += f"frobenius: {rec['verdict']}{stage}\n"
        else:
            text = (f"n = {n}, sequence parameters (r, s) = ({spec.r}, {spec.s}), "
                    f"discriminant {spec.delta}\n")
            if test == "perrin-full":
                sig = result.signature
                text += (f"signature {sig.values}\n" if sig else
                         "no signature computed: a table prime of n rules out A(n) = r\n")
                text += f"class {rec['class']}, jacobi {rec['jacobi']}\n"
            text += f"{test}: {rec['verdict']}\n"
    out.write(f"{text}record: {_record_json(rec)}\n")
    return rec


def _cmd_verify(args) -> int:
    rs, poly = _rs_and_poly(args)
    verify_number(args.n, args.test, rs=rs, poly=poly)
    return 0


_PARAM_KEYS = {"y", "q_min", "q_max", "k_min", "k_max", "x_bound", "t_max",
               "poly", "budget"}


def parse_params_file(path: str) -> ConstructionParams:
    """Flat key=value lines; # starts a comment, blank lines are skipped.
    Each key is given at most once; every value is an integer, except
    poly, a comma-separated list of them."""
    values: dict[str, int | tuple[int, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _PARAM_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} is given twice")
            ints = _parse_ints(value.strip(), f"{path}:{lineno}: {key}",
                               None if key == "poly" else 1)
            values[key] = ints if key == "poly" else ints[0]
    required = {"y", "q_min", "q_max", "k_min", "k_max", "x_bound", "t_max"}
    missing = sorted(required - values.keys())
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    # poly and budget are passed only when given, so the defaults stay
    # those of ConstructionParams.
    q_range = (values.pop("q_min"), values.pop("q_max"))
    return ConstructionParams(q_range=q_range, **values)


def run_construct_job(params: ConstructionParams, out=None, err=None) -> int:
    """Run the constructor, write certificate records to out, diagnostics
    to err.  Exit code 0 with certificates, 2 without."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    result = construct(params)
    if result.harvested:
        print(f"construct: harvested {list(result.harvested)} -> L = {result.modulus}",
              file=err)
    if result.k is not None:
        print(f"construct: k = {result.k}, pool {list(result.pool)}", file=err)
    for note in result.diagnostics:
        print(f"construct: {note}", file=err)
    for cert in result.certificates:
        print(_record_json(cert.to_record()), file=out)
    print(f"construct: {len(result.certificates)} certificate(s)", file=err)
    return 0 if result.certificates else 2


def _cmd_construct(args) -> int:
    if bool(args.preset) == bool(args.params):
        print("construct: exactly one of --preset / --params is required",
              file=sys.stderr)
        return 1
    if args.preset:
        if args.preset not in PRESETS:
            print(f"construct: unknown preset {args.preset!r}; "
                  f"available: {', '.join(sorted(PRESETS))}", file=sys.stderr)
            return 1
        params = PRESETS[args.preset]
    else:
        params = parse_params_file(args.params)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            return run_construct_job(params, out=fh)
    return run_construct_job(params)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primesig",
        description="Signature and Frobenius pseudoprime searches, Korselt "
                    "verification, and a desk-scale Carmichael constructor.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="scan a range for pseudoprimes")
    p_search.add_argument("--from", dest="start", type=int, required=True,
                          metavar="N", help="first number of the range")
    p_search.add_argument("--to", dest="stop", type=int, required=True,
                          metavar="N", help="last number of the range (inclusive)")
    p_search.add_argument("--test", required=True, choices=TESTS)
    p_search.add_argument("--rs", metavar="R,S",
                          help="sequence parameters (default 0,-1)")
    p_search.add_argument("--poly", metavar="C0,C1,...,1",
                          help="monic polynomial, lowest degree first "
                               "(default -1,-1,0,1)")
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--out", required=True, help="output records file")
    p_search.add_argument("--checkpoint", help="checkpoint file path")
    p_search.add_argument("--resume", action="store_true",
                          help="continue from the checkpoint")
    p_search.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="run one test against one number")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument("--test", required=True, choices=TESTS + ("korselt",))
    p_verify.add_argument("--rs", metavar="R,S")
    p_verify.add_argument("--poly", metavar="C0,C1,...,1")
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser("construct", help="run the Carmichael constructor")
    p_construct.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    p_construct.add_argument("--params", help="key=value parameter file")
    p_construct.add_argument("--out", help="certificate records file (default stdout)")
    p_construct.set_defaults(func=_cmd_construct)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
