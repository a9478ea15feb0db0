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
from dataclasses import dataclass

from nclift import (DEFAULT_MODULUS, DEFAULT_SEED, LiftParams, build_decoder,
                    encode_stages, expand, hadamard_circuit, hadamard_witness,
                    lift_report, sample_family)


@dataclass(frozen=True)
class DemoConfig:
    n: int = 2
    d: int = 2
    t: int = 2
    kind: str = "random-sparse"
    terms: int = 3
    seed: int = DEFAULT_SEED
    modulus: int = DEFAULT_MODULUS


def run(cfg: DemoConfig) -> int:
    params = LiftParams(cfg.n, cfg.d, cfg.t)
    sizes = params.alphabet_sizes
    fam = sample_family(cfg.kind, params.variable_count, cfg.t, cfg.seed,
                        terms=cfg.terms, modulus=cfg.modulus)
    print(f"family {cfg.kind} N={params.variable_count} t={cfg.t} "
          f"seed={cfg.seed}")

    stages = encode_stages(fam.circuit, cfg.n, cfg.d)
    report = lift_report(params, [s.size_report().gates for s in stages])
    print(report.table())

    reference = expand(fam.circuit)
    assert reference == fam.poly, "sample circuit disagrees with its poly"

    current = stages[-1]
    for k in range(cfg.d, 0, -1):
        m = sizes[k]
        if m > 8:
            print(f"stage {k}: alphabet {m} too wide to decode here, stop")
            return 0
        dec = build_decoder(m, modulus=cfg.modulus)
        print(hadamard_witness(current, dec).line())
        current = hadamard_circuit(current, dec, name=current.name)
        want = expand(stages[k - 1])
        got = expand(current)
        status = "ok" if got == want else "MISMATCH"
        print(f"decode {sizes[k]} -> {sizes[k - 1]} letters: {status}")
        if got != want:
            return 1
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
    ap.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    args = ap.parse_args(argv)
    return run(DemoConfig(args.n, args.d, args.t, args.kind, args.terms,
                          args.seed, args.modulus))


if __name__ == "__main__":
    sys.exit(main())
