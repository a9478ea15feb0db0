#!/usr/bin/env python3
"""Show that every check of the benchmark can fail.

    python3 perfbench/selftest.py

Each planted fault replaces one operation of a workload and goes
through the same attempt() and Tally as a measured run.  It must come
back as exactly one failed operation, and the same input without the
fault must pass.  Exits 0 when every plant was caught.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

from run import (DEFAULT_SEED, ROOT, LibraryMissing, Speed, Tally, attempt,
                 remove_workdir, set_up)
from workloads import DISTINCT, EQUAL


def permuted_decoder(nc):
    """build_decoder(2) with the weight index's last two digits exchanged,
    as acceptance check 9 builds it."""
    base = nc.build_decoder(2)
    m = 2
    trans = []
    for t in base.transitions:
        if t.weight.var is not None:
            first, last = t.source - 1, t.target - 1 - m
            bad = m * m * first + m * last + t.letter
            t = nc.Transition(t.source, t.letter, t.target,
                              nc.Weight(t.weight.coeff, bad))
        trans.append(t)
    return nc.WeightedAutomaton(base.y_alphabet, base.x_alphabet,
                                base.modulus, base.num_states, base.start,
                                base.accept, tuple(trans))


def swap_first_mul(path: str) -> None:
    """Exchange the operands of the first mul of two non-constant nodes."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    consts = set()
    for i, line in enumerate(lines):
        toks = line.split()
        if toks[:1] != ["node"]:
            continue
        if toks[2] == "const":
            consts.add(toks[1])
        elif toks[2] == "mul" and toks[3] != toks[4] \
                and not consts & {toks[3], toks[4]}:
            lines[i] = " ".join(toks[:3] + [toks[4], toks[3]])
            break
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def plants(small, large, pit):
    """(name, workload, item, planted operation) for every fault."""
    nc = small.lib.nc
    # x1 over 512 variables: its last code block is y0 y0 y1, which the
    # permuted decoder reads as x2
    fam = nc.sample_family("single-monomial", 512, 1, 0, index=1)
    monomial = (fam.circuit, dict(fam.poly.terms))

    def permuted(item):
        out = small.operate(item)
        enc = nc.iterate_encoder(item[0], 2, 2)
        out["iterated"] = nc.decode_circuit(
            nc.hadamard_circuit(enc, permuted_decoder(nc)), 8)
        return out

    def over_budget(item):
        enc = nc.iterate_encoder(item[0], 2, 2)
        nc.one_shot_decode_circuit(enc, 2, 2, max_states=10)

    def swapped(item):
        out = large.operate(item)
        swap_first_mul(out["dec"])
        return out

    def failing_cli(item):
        commands = large.commands(item[0])
        commands[-1] += ["--max-terms", "1"]
        for argv in commands:
            large.run_cli(argv)
        return item[0]

    def flipped(item):
        randomized, brute = pit.operate(item)
        flip = EQUAL if randomized.result == DISTINCT else DISTINCT
        return dataclasses.replace(randomized, result=flip), brute

    pair = next(i for i in pit.items if i["answer"] == DISTINCT)
    return [("permuted-decoder", small, monomial, permuted),
            ("budget-error", small, monomial, over_budget),
            ("swapped-mul-operands", large, large.items[0], swapped),
            ("cli-exit-3", large, large.items[0], failing_cli),
            ("flipped-verdict", pit, pair, flipped)]


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        small, large, pit = (set_up(name, DEFAULT_SEED, workdir)
                             for name in ("chain-small", "chain-large",
                                          "identity-test"))
        caught = 0
        speed = Speed()
        cases = plants(small, large, pit)
        for name, workload, item, operate in cases:
            clean, dirty = Tally(), Tally()
            clean.add(0, attempt(workload, item, speed))
            planted = copy.copy(workload)
            planted.operate = operate
            outcome = attempt(planted, item, speed)
            dirty.add(0, outcome)
            ok = clean.failed == 0 and dirty.failed == 1
            caught += ok
            failure = outcome[3]
            how = f"{failure[0]}: {failure[1]}" if failure else "-"
            print(f"planted {name}: clean failed={clean.failed} "
                  f"planted failed={dirty.failed} "
                  f"{'caught' if ok else 'NOT CAUGHT'} ({how})")
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_workdir(workdir)
    print(f"{caught}/{len(cases)} planted faults counted as failed")
    return 0 if caught == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
