#!/usr/bin/env python3
"""Measure decoder-product circuit growth against the cubic bound.

For each block alphabet size m, draws seeded random circuits over
m**3 variables, encodes them, runs the automaton product against the
1-to-3 block decoder, and tabulates the folded output size next to the
2q^3 per-gate budget (q = 2m + 1).  The folded column shows how much
constant folding recovers in practice; the budget column is what the
size witnesses certify.

Example:
    python3 scripts/size_sweep.py --max-m 4 --trials 10
"""

import argparse
import random
import sys

from nclift import (DEFAULT_MODULUS, DEFAULT_SEED, Alphabet, build_decoder,
                    encode_circuit, hadamard_circuit, hadamard_witness,
                    require_prime_modulus)
from nclift.randcircuits import random_circuit


def prime(text: str) -> int:
    """--modulus: a prime, or argparse's usage error (exit 2)."""
    return require_prime_modulus(int(text))


def run(args: argparse.Namespace) -> int:
    print(f"{'m':>3} {'q':>4} {'in_gates':>9} {'folded':>8} "
          f"{'prefold':>9} {'budget':>9} {'ok':>3}")
    for m in range(2, args.max_m + 1):
        dec = build_decoder(m, modulus=args.modulus)
        X = Alphabet("X", m ** 3)
        rng = random.Random(args.seed * 100 + m)
        for _ in range(args.trials):
            c = random_circuit(X, args.modulus, rng,
                               max_gates=args.max_gates,
                               max_degree=args.max_degree)
            enc = encode_circuit(c, m)
            w = hadamard_witness(enc, dec)
            folded = hadamard_circuit(enc, dec).size_report().gates
            print(f"{m:>3} {w.q:>4} {w.in_gates:>9} {folded:>8} "
                  f"{w.out_gates:>9} {w.bound:>9} {int(w.ok):>3}")
            if not w.ok:
                return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-m", type=int, default=4)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--max-gates", type=int, default=12)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--modulus", type=prime, default=DEFAULT_MODULUS)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
