"""Batch command-line interface.

Every command is a single deterministic job: files plus flags plus a
seed fully determine the output bytes.  Long-form flags only.  Only
the commands that make new objects (build-decoder, report, accept) take
a modulus, from --modulus or else the built-in default.  Every other
command reads its modulus from its input files.

Exit codes: 0 success (or verified equal), 1 verification failure
(distinct circuits, failed acceptance checks), 2 usage or parse error,
3 budget exceeded (including inconclusive equivalence).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .automata import (WeightedAutomaton, build_decoder, format_automaton,
                       parse_automaton)
from .circuits import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_TERMS, Circuit,
                       expand, format_circuit, parse_circuit)
from .errors import BudgetError, FormatError
from .hadamard import hadamard_circuit, hadamard_witness
from .lifting import (DEFAULT_SEED, LiftParams, decode_stages, encode_stages,
                      lift_report, sample_family)
from .polynomials import NCPolynomial, format_poly, parse_poly
from .scalars import DEFAULT_MODULUS, require_prime_modulus
from .verify import (DISTINCT, EQUAL, MatrixPoint, circuit_equiv_brute,
                     circuit_equiv_random)


def _load(path: str, *kinds: str):
    """Parse the file at path, whose header names one of kinds."""
    text = Path(path).read_text(encoding="utf-8")
    head = text.split(None, 1)
    kind = head[0] if head else ""
    if kind not in ("poly", "circuit", "automaton"):
        raise FormatError(f"{path}: unrecognized file (expected a poly, "
                          f"circuit, or automaton header)")
    if kind not in kinds:
        article = "an" if kinds[0] == "automaton" else "a"
        raise FormatError(f"{path}: expected {article} "
                          f"{' or '.join(kinds)} file")
    if kind == "poly":
        return parse_poly(text)
    if kind == "circuit":
        return parse_circuit(text)
    return parse_automaton(text)


def _save(path: str, obj) -> None:
    if isinstance(obj, NCPolynomial):
        text = format_poly(obj)
    elif isinstance(obj, Circuit):
        text = format_circuit(obj)
    elif isinstance(obj, WeightedAutomaton):
        text = format_automaton(obj)
    else:
        raise TypeError(f"cannot save {type(obj)!r}")
    Path(path).write_text(text, encoding="utf-8")


def _chain_params(args) -> tuple[int, int]:
    """Resolve --m, --n/--d and --one-shot into an (n, d) chain.

    --m is the one-stage chain (m, 1) and is never combined with --n or
    --d; build-decoder takes --n and --d only with --one-shot.
    """
    one_shot = getattr(args, "one_shot", False)
    if one_shot and (args.n is None or args.d is None):
        raise ValueError("--one-shot needs --n and --d")
    if args.m is not None:
        if args.n is not None or args.d is not None:
            raise ValueError("give either --m or --n with --d, not both")
        return args.m, 1
    if args.command == "build-decoder" and not one_shot:
        raise ValueError("give --m, or --n and --d with --one-shot")
    if args.n is None or args.d is None:
        raise ValueError("give either --m or both --n and --d")
    return args.n, args.d


def cmd_encode(args) -> int:
    obj = _load(getattr(args, "in"), "poly", "circuit")
    n, d = _chain_params(args)
    stages = encode_stages(obj, n, d)
    _save(args.out, stages[-1])
    if isinstance(obj, Circuit):
        t = max(1, obj.degree_bound())
    else:
        t = max(1, obj.degree)
    report = lift_report(LiftParams(n, d, t), stages)
    for line in report.lines():
        print(line)
    return 0


def cmd_build_decoder(args) -> int:
    modulus = require_prime_modulus(args.modulus)
    n, d = _chain_params(args)
    automaton = build_decoder(n, d, modulus=modulus)
    _save(args.out, automaton)
    print(f"states={automaton.num_states} "
          f"transitions={automaton.transition_count}")
    return 0


def cmd_hadamard(args) -> int:
    circuit = _load(args.circuit, "circuit")
    automaton = _load(args.automaton, "automaton")
    product = hadamard_circuit(circuit, automaton)
    _save(args.out, product)
    print(hadamard_witness(circuit, automaton).line())
    return 0


def cmd_decode(args) -> int:
    circuit = _load(getattr(args, "in"), "circuit")
    n, d = _chain_params(args)
    for result, decoder in decode_stages(circuit, n, d,
                                         one_shot=args.one_shot):
        if decoder is not None:
            print(hadamard_witness(result, decoder).line())
    _save(args.out, result)
    return 0


def cmd_expand(args) -> int:
    circuit = _load(getattr(args, "in"), "circuit")
    poly = expand(circuit, args.max_degree, args.max_terms)
    if args.out:
        _save(args.out, poly)
    else:
        sys.stdout.write(format_poly(poly))
    return 0


def cmd_equiv(args) -> int:
    left = _load(args.left, "circuit")
    right = _load(args.right, "circuit")
    if args.mode == "brute":
        verdict = circuit_equiv_brute(left, right, args.max_degree,
                                      args.max_terms)
    else:
        verdict = circuit_equiv_random(left, right, trials=args.trials,
                                       dim=args.dim, seed=args.seed)
    print(verdict.result)
    if verdict.result == DISTINCT and verdict.witness is not None:
        w = verdict.witness
        if isinstance(w, MatrixPoint):
            print(f"witness matrix point dim={w.dim}")
        else:
            print(f"witness {w}")
    if verdict.result == EQUAL:
        return 0
    if verdict.result == DISTINCT:
        return 1
    return 3


def cmd_report(args) -> int:
    modulus = require_prime_modulus(args.modulus)
    params = LiftParams(args.n, args.d, args.t)
    fam = sample_family(args.kind, params.variable_count, args.t, args.seed,
                        terms=args.terms, modulus=modulus)
    stages = encode_stages(fam.circuit, args.n, args.d)
    report = lift_report(params, stages)
    for line in report.lines():
        print(line)
    print()
    sys.stdout.write(report.table())
    return 0


def cmd_accept(args) -> int:
    from .acceptance import run_acceptance
    modulus = require_prime_modulus(args.modulus)
    results = run_acceptance(args.seed, modulus, out=print)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: callers that run
    `main` many times reuse it, and each parse returns a new namespace."""
    modulus_flag = argparse.ArgumentParser(add_help=False)
    modulus_flag.add_argument("--modulus", type=int,
                              default=DEFAULT_MODULUS,
                              help="prime modulus (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="nclift",
        description="Exact block-code lifting for noncommutative "
                    "polynomials: encoders, decoder automata, Hadamard "
                    "products, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode",
                       help="encode a poly or circuit down the 1-to-3 chain")
    p.add_argument("--in", required=True, help="input poly or circuit file")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--m", type=int, default=None,
                   help="single-stage target alphabet size")
    p.add_argument("--n", type=int, default=None, help="chain endpoint")
    p.add_argument("--d", type=int, default=None, help="chain depth")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("build-decoder", parents=[modulus_flag],
                       help="write a block-decoder automaton file")
    p.add_argument("--out", required=True)
    p.add_argument("--m", type=int, default=None,
                   help="letters of the three-letter block decoder")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--one-shot", action="store_true",
                   help="single automaton for the whole depth-d chain")
    p.set_defaults(handler=cmd_build_decoder)

    p = sub.add_parser("hadamard",
                       help="Hadamard product of a circuit with an "
                            "automaton")
    p.add_argument("--circuit", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_hadamard)

    p = sub.add_parser("decode",
                       help="decode a circuit back up the chain")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--one-shot", action="store_true")
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("expand",
                       help="expand a circuit to its canonical polynomial")
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=None,
                   help="poly file (default: print to stdout)")
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("equiv",
                       help="decide whether two circuits agree")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=("brute", "random"), default="brute")
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("report", parents=[modulus_flag],
                       help="stage bookkeeping table for one chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--kind", choices=("sum-of-squares", "random-sparse",
                                      "single-monomial"),
                   default="random-sparse")
    p.add_argument("--terms", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("accept", parents=[modulus_flag],
                       help="run the acceptance checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(handler=cmd_accept)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetError as exc:
        print(f"nclift: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ValueError, OSError) as exc:
        print(f"nclift: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
