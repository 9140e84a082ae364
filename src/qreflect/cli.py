"""Command-line front end.

Verbs: q (polynomial family), r and k (matrix elements, blocks as text,
JSON or CSV tables, and one verify suite each), verify (identity suites,
including the golden regression set).  The tetrahedron, reflection and
intertwiner suites check every basis state with occupations <= --max-occ;
no suite samples.  One helper (_add_local) builds the element, block and
verify commands of r and k, in that order, over tensorops' R and K
LocalOperators.  Each command keeps its handler as run in its parsed
namespace, and main calls it.  Every answer is recomputed from the
formulas; the CLI reads and writes no cache file.  Exit codes: 0 success
or verification pass, 1 verification failure, 2 usage or domain errors, 3
internal consistency error (an exact division left a remainder or a
construction-time cross-check failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import qfamily, tensorops, threedk, threedr
from ._golden import (
    GOLDEN_K_BLOCK,
    GOLDEN_K_OUT,
    GOLDEN_K_TEXT,
    GOLDEN_Q_TEXT,
    GOLDEN_QUOTIENTS,
)
from .exactq import DomainError, ExactDivisionError, LaurentQ
from .report import VerificationError, VerificationReport


def nonnegative_int(text: str) -> int:
    """argparse type of every bound: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(code: int, *lines: str) -> int:
    """Print lines and return code, the verdict.  A reader that closed stdout
    changes neither: stdout then points at os.devnull, so the flush at exit
    prints nothing, and the exit code is the one an open stdout gets."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _emit_report(rep: VerificationReport, fmt: str) -> int:
    if fmt == "json":
        lines = [json.dumps(rep.to_json())]
    else:
        lines = [rep.summary(), *(f"  note: {note}" for note in rep.notes)]
    return _emit(0 if rep.passed else 1, *lines)


def _emit_suite(reps: list[VerificationReport], fmt: str, label: str) -> int:
    passed = sum(1 for r in reps if r.passed)
    total = len(reps)
    if fmt == "json":
        lines = [
            json.dumps(
                {
                    "name": label,
                    "passed": passed == total,
                    "pass_count": passed,
                    "total": total,
                    "reports": [r.to_json() for r in reps if not r.passed],
                }
            )
        ]
    else:
        lines = [f"{label}: {passed}/{total} pass"]
        lines += [f"  {r.summary()}" for r in reps if not r.passed]
    return _emit(0 if passed == total else 1, *lines)


def _emit_value(value, fmt: str) -> int:
    return _emit(0, json.dumps(value.to_json()) if fmt == "json" else str(value))


def _emit_block(states, element, fmt: str) -> int:
    cells = [(out, inp, element(*out, *inp)) for out in states for inp in states]
    if fmt == "csv":
        width = len(states[0])
        out_cols = ",".join(f"out{i}" for i in range(width))
        in_cols = ",".join(f"in{i}" for i in range(width))
        lines = [f"{out_cols},{in_cols},value"]
        lines += [",".join(map(str, out + inp + (value,))) for out, inp, value in cells]
    elif fmt == "json":
        entries = [
            {"out": list(out), "in": list(inp), "value": value.to_json()}
            for out, inp, value in cells
        ]
        lines = [json.dumps({"states": [list(s) for s in states], "entries": entries})]
    else:
        lines = [f"{out} <- {inp}: {value}" for out, inp, value in cells if not value.is_zero]
    return _emit(0, *lines)


def golden_report() -> VerificationReport:
    """Recompute every reference polynomial and element; diff against goldens."""
    rep = VerificationReport("golden reference set")
    for (b, c), text in GOLDEN_Q_TEXT.items():
        got = str(qfamily.q_polynomial(b, c))
        rep.record(got == text, f"Q_({b},{c}) rendering", got, text)
    m, n = GOLDEN_K_BLOCK
    block_states = threedk.k_block_states(m, n)
    rep.record(
        sorted(GOLDEN_K_TEXT) == block_states,
        f"golden inputs exhaust block ({m},{n})",
    )
    for inp in block_states:
        got = str(threedk.k_element(*GOLDEN_K_OUT, *inp))
        want = GOLDEN_K_TEXT.get(inp, "0")
        rep.record(got == want, f"K^{GOLDEN_K_OUT}_{inp}", got, want)
    off_block = (1, 0, 0, 0, 0, 0, 0, 0)
    rep.record(
        threedk.k_element(*off_block).is_zero, f"off-block key {off_block} is zero"
    )
    for inp, shift, (b, c), point, den_exps in GOLDEN_QUOTIENTS:
        lhs = threedk.k_element(*GOLDEN_K_OUT, *inp)
        for e in den_exps:
            lhs = lhs * (1 - LaurentQ.monomial(e))
        rhs = qfamily.q_polynomial(b, c).evaluate_at_q_powers(point).shifted(shift)
        rep.record(
            lhs == rhs,
            f"quotient identity for K^{GOLDEN_K_OUT}_{inp} via Q_({b},{c})",
            str(lhs),
            str(rhs),
        )
    return rep


def _add_format(p, choices=("text", "json")):
    p.add_argument("--format", choices=choices, default="text")


def _add_local(verbs, op, routes, verify_help):
    """op's verb with its commands element and block, run through op, and
    verify, whose arguments and handler the caller adds to the parser returned."""
    verb = verbs.add_parser(op.name.lower(), help=f"3D {op.name} elements and blocks")
    sub = verb.add_subparsers(dest="action", required=True)
    outs, ins = "abcd"[: len(op.signature)], "ijkl"[: len(op.signature)]
    element = f"one matrix element {op.name}^{{{','.join(outs)}}}_{{{','.join(ins)}}}"
    helps = {"element": element, "block": "full matrix on a weight block", "verify": verify_help}
    p = {action: sub.add_parser(action, help=text) for action, text in helps.items()}
    for name in outs + ins:
        p["element"].add_argument(name, type=int)
    p["element"].add_argument("--route", choices=(*routes, op.route), default=routes[0])
    _add_format(p["element"])
    p["element"].set_defaults(run=lambda a: _emit_value(
        op.element(*map(vars(a).get, outs + ins), route=a.route), a.format
    ))
    p["block"].add_argument("m", type=int)
    p["block"].add_argument("n", type=int)
    _add_format(p["block"], ("text", "json", "csv"))
    p["block"].set_defaults(run=lambda a: _emit_block(op.states(a.m, a.n), op.element, a.format))
    return p["verify"]


def _r_verify(args: argparse.Namespace) -> int:
    rep = VerificationReport(f"R suite, b <= {args.max_b}")
    for b in range(args.max_b + 1):
        rep.absorb(threedr.verify_p_relations(b))
        rep.attempt(threedr.hypergeometric_p, b)
    rep.absorb(threedr.p_ring_report(args.max_b + 1))
    rep.absorb(threedr.verify_mirror_pairs())
    rep.absorb(tensorops.verify_blocks(tensorops.R_OPERATOR, 3, 3))
    rep.absorb(threedr.verify_generating_series(1, 1, 1, min(args.max_b, 6)))
    return _emit_report(rep, args.format)


def _k_verify(args: argparse.Namespace) -> int:
    rep = VerificationReport(f"K suite, b, c <= {args.max_bc}")
    rep.absorb(threedk.verify_e_all(args.max_bc, args.max_bc))
    rep.absorb(tensorops.verify_blocks(tensorops.K_OPERATOR, 3, 5))
    # A key is trivial unless its input shares a block with (a,b,c,d+1).
    for m in range(4):
        for n in range(5):
            for out in threedk.k_block_states(m, n):
                for inp in threedk.k_block_states(m, n + 1):
                    rep.absorb(threedk.verify_bridge_recursion(*out, *inp))
    return _emit_report(rep, args.format)


def _verify_equation(args: argparse.Namespace) -> int:
    """The tetrahedron (6 spaces) or reflection (9 spaces) suite on every state
    with occupations <= max_occ."""
    verify = getattr(tensorops, f"verify_{args.what}")
    states = tensorops.states_up_to(args.arity, args.max_occ)
    return _emit_suite([verify(occ) for occ in states], args.format, args.what)


def _verify_intertwiner(args: argparse.Namespace) -> int:
    every = args.relation == "all"
    relations = sorted(tensorops.INTERTWINER_RELATIONS) if every else [args.relation]
    states = tensorops.states_up_to(4, args.max_occ)
    reps = [tensorops.verify_intertwiner(rel, occ) for rel in relations for occ in states]
    return _emit_suite(reps, args.format, "intertwiner")


def _build_parser() -> argparse.ArgumentParser:
    """The parser; each command's handler is its namespace's run(args)."""
    parser = argparse.ArgumentParser(
        prog="qreflect",
        description="Exact construction and verification of 3D R and K operators.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    q = verbs.add_parser("q", help="the polynomial family Q_{b,c}")
    qsub = q.add_subparsers(dest="action", required=True)
    qc = qsub.add_parser("compute", help="print Q_{b,c}")
    qc.add_argument("b", type=int)
    qc.add_argument("c", type=int)
    _add_format(qc)
    qc.set_defaults(run=lambda a: _emit_value(qfamily.q_polynomial(a.b, a.c), a.format))
    qv = qsub.add_parser("verify", help="verify family properties")
    qv.add_argument("--max-bc", type=nonnegative_int, default=3)
    _add_format(qv)
    qv.set_defaults(run=lambda a: _emit_report(qfamily.verify_properties(a.max_bc), a.format))

    rv = _add_local(
        verbs, tensorops.R_OPERATOR, threedr.R_ROUTES, "difference equations and route checks"
    )
    rv.add_argument("--max-b", type=nonnegative_int, default=3)
    _add_format(rv)
    rv.set_defaults(run=_r_verify)
    kv = _add_local(
        verbs, tensorops.K_OPERATOR, threedk.K_ROUTES, "difference equations and block checks"
    )
    kv.add_argument("--max-bc", type=nonnegative_int, default=3)
    _add_format(kv)
    kv.set_defaults(run=_k_verify)

    verify = verbs.add_parser("verify", help="equation suites")
    vsub = verify.add_subparsers(dest="what", required=True)
    for what, arity in (("tetrahedron", 6), ("reflection", 9)):
        ve = vsub.add_parser(what)
        ve.add_argument("--max-occ", type=nonnegative_int, default=1)
        _add_format(ve)
        ve.set_defaults(run=_verify_equation, arity=arity)
    vi = vsub.add_parser("intertwiner")
    vi.add_argument("--relation", default="all")
    vi.add_argument("--max-occ", type=nonnegative_int, default=2)
    _add_format(vi)
    vi.set_defaults(run=_verify_intertwiner)
    vg = vsub.add_parser("golden")
    _add_format(vg)
    vg.set_defaults(run=lambda a: _emit_report(golden_report(), a.format))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExactDivisionError, VerificationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
