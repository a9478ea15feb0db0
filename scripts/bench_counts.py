#!/usr/bin/env python3
"""Record or check the benchmark's traced counts per operation.

Runs each workload of perfbench/run.py traced for one second at each
of two seeds and keeps the counts that do not depend on the machine:
gates emitted and kept by synthesis and its calls, decoders built and
their transitions, encoded nodes, matrix evaluations, expanded terms
and text bytes.  A traced run repeats whole passes over its seeded inputs,
so each count per operation is the same in every run, and the counts
are compared exactly.  The second seed gives a second input set, so a
change that holds the counts on one set by chance shows on the other.
Timings stay out, because they are noisy.

    python3 scripts/bench_counts.py           # rewrite BENCH_counts.json
    python3 scripts/bench_counts.py --check   # compare; exit 1 on a move

A change that moves a count rewrites the file and says why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"
COUNTS_FILE = ROOT / "BENCH_counts.json"
SEEDS = (1729, 2718)
WORKLOADS = ("chain-small", "chain-large", "identity-test")
COUNTS = ("hadamard.gates_emitted", "hadamard.gates_kept",
          "hadamard.synth_calls", "automata.build_calls",
          "automata.transitions_built", "lifting.encoded_nodes",
          "circuits.eval_matrix_calls", "circuits.expand_terms",
          "circuits.text_bytes")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    """The COUNTS of one traced one-second run of `workload`."""
    out = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} "
                         f"operations failed")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def moved(want: dict, got: dict) -> list[str]:
    """One line per count that differs between two records."""
    lines = []
    for workload in sorted(want.keys() | got.keys()):
        old, new = want.get(workload, {}), got.get(workload, {})
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                lines.append(f"{workload} {name}: {old.get(name)} -> "
                             f"{new.get(name)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help=f"compare with {COUNTS_FILE.name} instead of "
                         f"rewriting it")
    args = ap.parse_args(argv)
    got = [{"seed": seed,
            "counts": {w: traced_counts(w, seed) for w in WORKLOADS}}
           for seed in SEEDS]
    if not args.check:
        COUNTS_FILE.write_text(json.dumps(got, indent=2) + "\n")
        return 0
    want = json.loads(COUNTS_FILE.read_text())
    seeds = [record["seed"] for record in want]
    if seeds != list(SEEDS):
        raise SystemExit(f"{COUNTS_FILE.name} holds seeds {seeds}, "
                         f"not {list(SEEDS)}")
    lines = [f"seed {new['seed']} {line}" for old, new in zip(want, got)
             for line in moved(old["counts"], new["counts"])]
    for line in lines:
        print(line)
    print(f"{len(lines)} counts moved" if lines else "counts unchanged")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
