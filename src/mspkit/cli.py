"""Command-line front end.

Exit codes: 0 = YES / true / valid / unique, 1 = NO / false / invalid /
not-unique, 2 = usage or parse error, or a file that cannot be read,
decoded or written, 3 = resource limit exceeded or out of memory, 4 =
internal error (an unexpected exception; no answer was reached), 141 =
the reader closed stdout before the output was written (128 + SIGPIPE,
what a shell reports for a writer that SIGPIPE ended).
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .core import Palette, score, validate_code
from .errors import InvalidInputError, ParseError, PreconditionError, ResourceLimitError
from .io import parse_code, parse_graph, parse_instance, serialize_instance
from .reduction import (VARIANTS, Graph, brute_force_vertex_cover, extract_cover,
                        is_vertex_cover, reduce_vertex_cover)
from .solver import DEFAULT_EXHAUSTIVE_CAP, MODES, enumerate_all, solve, verify
from .uniqueness import is_unique

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE; a literal, as Windows has no signal.SIGPIPE


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None


def cmd_score(args: argparse.Namespace) -> int:
    result = score(parse_code(args.code_a), parse_code(args.code_b),
                   Palette(args.kappa))
    print(f"{result.black} {result.white}")
    return EXIT_YES


def cmd_solve(args: argparse.Namespace) -> int:
    if args.all and args.mode != "backtrack":
        raise InvalidInputError("--all lists the backtracking search's solutions; "
                                f"it does not run --mode {args.mode}")
    instance = parse_instance(_read(args.instance))
    if args.all:
        enumeration = enumerate_all(instance, cap=args.cap)
        if enumeration.truncated:
            print(f"note: output truncated at {args.cap} solutions", file=sys.stderr)
        codes = enumeration.codes
    else:
        outcome = solve(instance, mode=args.mode, cap=args.cap)
        codes = (outcome.witness,) if outcome.satisfiable else ()
    if not codes:
        print("UNSAT")
        return EXIT_NO
    for code in codes:
        print(" ".join(str(p) for p in code))
    return EXIT_YES


def cmd_verify(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    valid = verify(instance, parse_code(args.code))
    print("VALID" if valid else "INVALID")
    return EXIT_YES if valid else EXIT_NO


def cmd_reduce(args: argparse.Namespace) -> int:
    graph = parse_graph(_read(args.graph))
    instance = reduce_vertex_cover(graph, args.cover_size, args.variant).instance
    summary = f"{instance.kappa} {instance.length} {len(instance.guesses)}"
    text = serialize_instance(instance)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.output}: {exc}") from None
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_YES


def cmd_extract(args: argparse.Namespace) -> int:
    graph = parse_graph(_read(args.graph))
    artifact = reduce_vertex_cover(graph, args.cover_size, args.variant)
    instance = parse_instance(_read(args.instance))
    if instance != artifact.instance:
        raise InvalidInputError(
            "instance file does not match the reduction of this graph")
    witness = parse_code(args.code)
    # a malformed code is a usage error (exit 2); only a non-witness is NO
    validate_code(witness, instance.palette, instance.length)
    try:
        cover = extract_cover(artifact, witness)
    except InvalidInputError as exc:
        _fail(str(exc))
        return EXIT_NO
    print(" ".join(str(v) for v in sorted(cover)))
    return EXIT_YES


def cmd_unique(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    report = is_unique(instance)
    answer = "UNIQUE" if report.unique else "NOT-UNIQUE" if report.satisfiable else "UNSAT"
    print(f"{answer} {report.followups_tried}")
    return EXIT_YES if report.unique else EXIT_NO


def _roundtrip_row(graph: Graph, n: int) -> tuple[str, bool]:
    vc = brute_force_vertex_cover(graph, n)
    agree = True
    words = [str(n), "yes" if vc else "no"]
    for variant in VARIANTS:
        try:
            artifact = reduce_vertex_cover(graph, n, variant)
        except PreconditionError:  # the layout does not encode this cover size
            words.append("-")
            continue
        outcome = solve(artifact.instance)
        if outcome.satisfiable:
            cover = extract_cover(artifact, outcome.witness)
            agree = agree and len(cover) == n and is_vertex_cover(graph, cover)
        agree = agree and outcome.satisfiable == vc
        words.append("yes" if outcome.satisfiable else "no")
    return f"{' '.join(words)} {'yes' if agree else 'MISMATCH'}", agree


def cmd_roundtrip(args: argparse.Namespace) -> int:
    graph = parse_graph(_read(args.graph))
    top = graph.vertex_count if args.max_n is None else min(args.max_n, graph.vertex_count)
    if top < 1:
        raise InvalidInputError(f"--max-n must be at least 1, got {args.max_n}")
    print("n vc", *VARIANTS, "agree")
    all_agree = True
    for n in range(1, top + 1):
        row, agree = _roundtrip_row(graph, n)
        print(row)
        all_agree = all_agree and agree
    return EXIT_YES if all_agree else EXIT_NO


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call.

    Sharing is safe: each parse_args fills a fresh Namespace, and argparse
    looks up sys.stdout, sys.stderr and the terminal width when it prints,
    not here.  The cmd_* functions read solve, verify and the rest from
    this module's globals when they run.
    """
    parser = argparse.ArgumentParser(
        prog="mspkit",
        description="Mastermind satisfiability: solve, verify, and reduce vertex cover.")
    parser.add_argument("--cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
                        help="cap on exhaustive work and on solve --all output")
    sub = parser.add_subparsers(dest="command", required=True)
    # what reduce and extract both need to rebuild the reduction
    reduction = argparse.ArgumentParser(add_help=False)
    reduction.add_argument("graph", help="graph file")
    reduction.add_argument("--cover-size", type=int, required=True, dest="cover_size")
    reduction.add_argument("--compact", dest="variant", action="store_const", const="compact",
                           default="standard", help="use the shorter code layout")

    p = sub.add_parser("score", help="score one code against another")
    p.add_argument("--kappa", type=int, required=True, help="palette size")
    p.add_argument("code_a", help="first code, e.g. '1 2 3 4'")
    p.add_argument("code_b", help="second code")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("instance", help="instance file")
    p.add_argument("--mode", choices=MODES, default="backtrack")
    p.add_argument("--all", action="store_true", help="list every solution")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a candidate against an instance file")
    p.add_argument("instance", help="instance file")
    p.add_argument("code", help="candidate code, e.g. '1 2 3 4'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", parents=[reduction],
                       help="encode vertex cover as an instance")
    p.add_argument("-o", "--output", help="write the instance here instead of stdout")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("extract", parents=[reduction],
                       help="read a vertex cover off a witness")
    p.add_argument("instance", help="instance file (must match the reduction)")
    p.add_argument("code", help="witness code")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("unique", help="does the instance pin down one secret?")
    p.add_argument("instance", help="instance file")
    p.set_defaults(func=cmd_unique)

    p = sub.add_parser("roundtrip", help="agreement table: reduction vs brute force")
    p.add_argument("graph", help="graph file")
    p.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help="largest cover size to test (default: vertex count)")
    p.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away (e.g. piping into head); die quietly, and
        # not with exit 1, which would read as NO
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ParseError, InvalidInputError) as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except ResourceLimitError as exc:
        _fail(str(exc))
        return EXIT_RESOURCE
    except MemoryError:
        pass  # reported below, once the traceback and the frames it holds are freed
    except Exception as exc:
        # exit 1 would read as NO; say that no answer was reached instead
        _fail(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    # only a MemoryError gets here
    _fail("out of memory")
    return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
