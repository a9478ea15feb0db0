#!/usr/bin/env python3
"""nclift's repository benchmark: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload chain-small --seed 1729 \\
        --seconds 30 --trace 0

Runs in one process and one thread as a closed loop: each operation
starts when the previous one returns.  Operations run in whole passes
over the workload's seeded inputs until the timed total reaches
--seconds.  Every output is checked, outside the timed span, against
the benchmark's own arithmetic (reference.py).  --trace 0 reports the
end-to-end metrics; --trace 1 runs every operation once untraced and
once traced and reports per-layer means per operation.  The last line
of standard output is the JSON result.

The package is imported from src/ of the checkout this file sits in,
never from elsewhere; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "nclift"
SETUPS = 5  # setup_s is the median of this many set-ups in one run
DEFAULT_SEED = 1729


class LibraryMissing(Exception):
    pass


def load_library() -> SimpleNamespace:
    """Import nclift afresh from the checkout's src/, and from nowhere else."""
    home = SRC / PACKAGE
    if not (home / "__init__.py").is_file():
        raise LibraryMissing(f"no package at {home}")
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nc = importlib.import_module(PACKAGE)
    if Path(nc.__file__).resolve().parent != home.resolve():
        raise LibraryMissing(f"{PACKAGE} imported from {nc.__file__}")
    return SimpleNamespace(
        nc=nc, cli=importlib.import_module(PACKAGE + ".cli"),
        rc=importlib.import_module(PACKAGE + ".randcircuits"))


def remove_workdir(workdir: Path) -> None:
    """Delete a run's files, and their parent once no other run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run's directory is still there
        pass


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate inputs, write files and warm up once."""
    lib = load_library()
    workload = WORKLOADS[name](lib, random.Random(f"{name}:{seed}"), workdir)
    try:
        workload.operate(workload.items[0])
    except Exception:  # the measured passes count and report this failure
        pass
    return workload


def attempt(workload, item, speed, tracer=None):
    """One timed operation, then its check: (seconds, scaled, output, failure).

    seconds is the operation's wall time and scaled that time at the
    reference speed (see Speed).  failure is None, ("error", text) when
    the operation raised, or ("wrong", text) when its output disagrees
    with the reference.
    """
    if tracer is not None:
        tracer.install()
    try:
        out, failure = speed.run(workload.operate, item), None
    except Exception as exc:  # BudgetError, a nonzero CLI exit, any fault
        out, failure = None, ("error", repr(exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if failure is None:
        try:
            workload.check(item, out)
        except Mismatch as exc:
            failure = ("wrong", str(exc))
        except Exception as exc:  # an output the reference cannot read
            failure = ("wrong", repr(exc))
    return speed.seconds, speed.scaled, out, failure


class Speed:
    """Machine speed, from a fixed pure-Python kernel sampled around work.

    CPU speed on a shared host drifts by a fifth within minutes, and
    this kernel (tuple keys into a small dict, as nclift's term maps
    do) slows with it: over passes of about a second, operation time
    divided by kernel time drifted by 3% where either alone drifted by
    14%.  run() samples the kernel just before and just after the work
    and, from a SIGALRM handler, every TICK_S during it; the work's wall
    time without those samples, multiplied by REFERENCE_S over their
    mean, is its time at the reference speed.
    """

    REFERENCE_S = 0.00029  # kernel time between operations, 2-vCPU host
    TICK_S = 0.02

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent sampling
        self.seconds = self.scaled = 0.0  # of the last run()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self) -> None:
        """Time the kernel once now.

        The collector is paused meanwhile: a collection that nclift's
        allocations made due must not run, and be timed, in the kernel.
        """
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(800):
            key = (i & 63, i >> 6)
            table[key] = (table.get(key, 0) + i * 7919) % 1_000_003
        elapsed = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.spent += elapsed
        self.samples.append(elapsed)

    def clock(self) -> float:
        """Wall seconds, not counting the time spent sampling."""
        return time.perf_counter() - self.spent

    def run(self, fn, *args):
        """fn(*args), timed into self.seconds and self.scaled."""
        first = len(self.samples)
        self.sample()
        t0 = self.clock()
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.seconds = self.clock() - t0
            self.sample()
            self.scaled = self.seconds * self.factor(self.samples[first:])

    def factor(self, samples: list[float] | None = None) -> float:
        """Reference over measured speed, for `samples` or the whole run."""
        return self.REFERENCE_S / statistics.fmean(samples or self.samples)


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.raw: list[float] = []     # wall seconds per operation
        self.scaled: list[float] = []  # the same at the reference speed

    def add(self, index: int, outcome) -> None:
        elapsed, scaled, _, failure = outcome
        self.attempted += 1
        self.raw.append(elapsed)
        self.scaled.append(scaled)
        if failure is not None:
            self.failed += 1
            self.wrong += failure[0] == "wrong"
            print(f"failed op on input {index}: {failure[0]}: {failure[1]}",
                  file=sys.stderr)

    @property
    def timed(self) -> float:
        return sum(self.raw)


def measure(workload, seconds: float, speed: Speed) -> tuple[Tally, int]:
    """Whole passes until the timed total reaches `seconds`."""
    tally = Tally()
    nodes = passes = 0
    while passes == 0 or tally.timed < seconds:
        for index, item in enumerate(workload.items):
            outcome = attempt(workload, item, speed)
            tally.add(index, outcome)
            if passes == 0 and outcome[3] is None:
                nodes += workload.nodes(item, outcome[2])
        passes += 1
    return tally, nodes


def measure_traced(workload, seconds: float, speed: Speed,
                   tracer: Tracer) -> tuple[Tally, float]:
    """Every operation untraced and traced, alternating which goes first.

    Returns the tally and the tracing overhead in seconds per operation
    at the reference speed.
    """
    tally = Tally()
    plain = traced = 0.0
    passes = 0
    while passes == 0 or tally.timed < seconds:
        for index, item in enumerate(workload.items):
            for use in ((None, tracer) if index % 2 == 0
                        else (tracer, None)):
                outcome = attempt(workload, item, speed, use)
                tally.add(index, outcome)
                if use is None:
                    plain += outcome[1]
                else:
                    traced += outcome[1]
        passes += 1
    return tally, (traced - plain) / (tally.attempted // 2)


def end_to_end(tally: Tally, setups: list[float], nodes: int) -> dict:
    lat_ms = sorted(x * 1000.0 for x in tally.scaled)
    completed = tally.attempted - tally.failed
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(tally.scaled), "ops/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10,
                                           method="inclusive")[8], "ms"),
        "decoded_nodes": (nodes, "nodes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed; confirm a claim on 2718 as well")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        speed = Speed()
        for _ in range(1 if args.trace else SETUPS):
            workload = speed.run(set_up, args.workload, args.seed, workdir)
            setups.append(speed.scaled)
        if args.trace:
            tracer = Tracer(PACKAGE, speed.clock)
            tally, overhead = measure_traced(workload, args.seconds, speed,
                                             tracer)
            metrics = tracer.metrics(tally.attempted // 2, speed.factor(),
                                     overhead)
        else:
            tally, nodes = measure(workload, args.seconds, speed)
            metrics = end_to_end(tally, setups, nodes)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_workdir(workdir)
    print(f"{args.workload} speed_factor {speed.factor():.4f} "
          f"(reference over measured kernel time, whole run)")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
