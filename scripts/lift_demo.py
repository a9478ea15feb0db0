#!/usr/bin/env python3
"""End-to-end lifting demo.

Draws a seeded sample family over N = n**(3**d) variables, walks the
encoding chain down to n letters, then decodes back up stage by stage,
checking exact equality after every step.  Prints the stage table and
one size witness per decode.

Example:
    python3 scripts/lift_demo.py --n 2 --d 2 --t 2 --kind random-sparse
"""

import argparse
import sys

from nclift import (DEFAULT_MODULUS, DEFAULT_SEED, LiftParams, decode_stages,
                    encode_stages, expand, hadamard_witness, lift_report,
                    require_prime_modulus, sample_family)


def prime(text: str) -> int:
    """--modulus: a prime, or argparse's usage error (exit 2)."""
    return require_prime_modulus(int(text))


def run(args: argparse.Namespace) -> int:
    params = LiftParams(args.n, args.d, args.t)
    sizes = params.alphabet_sizes
    fam = sample_family(args.kind, params.variable_count, args.t, args.seed,
                        terms=args.terms, modulus=args.modulus)
    print(f"family {args.kind} N={params.variable_count} t={args.t} "
          f"seed={args.seed}")

    stages = encode_stages(fam.circuit, args.n, args.d)
    print(lift_report(params, stages).table())

    reference = expand(fam.circuit)
    assert reference == fam.poly, "sample circuit disagrees with its poly"

    # Decode the stages of at most 8 letters; check each at the next record.
    fit = sum(1 for m in sizes[1:] if m <= 8)
    walk = decode_stages(stages[-1], args.n, fit)
    for done, (current, dec) in enumerate(walk):
        k = args.d - done    # current is stage k
        if done:
            want = expand(stages[k])
            got = expand(current)
            status = "ok" if got == want else "MISMATCH"
            print(f"decode {sizes[k + 1]} -> {sizes[k]} letters: {status}")
            if got != want:
                return 1
        if dec is not None:
            print(hadamard_witness(current, dec).line())
    if k:
        print(f"stage {k}: alphabet {sizes[k]} too wide to decode here, stop")
    else:
        print("round trip exact")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--t", type=int, default=2)
    ap.add_argument("--kind", default="random-sparse",
                    choices=["sum-of-squares", "random-sparse",
                             "single-monomial"])
    ap.add_argument("--terms", type=int, default=3)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--modulus", type=prime, default=DEFAULT_MODULUS)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
