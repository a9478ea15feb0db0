"""Per-layer spans recorded around nclift's public functions.

The tracer wraps functions from outside the package: while it is
installed, every module attribute of nclift that is one of the wrapped
functions points at a wrapper, so calls between modules are seen too.
A span's self time is its duration minus the time of the spans it
encloses; a wrapper's own bookkeeping is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict

# (module, function, layer); several functions may feed one layer
SPANS = (
    ("automata", "build_decoder", "automata.build"),
    ("automata", "build_one_shot_decoder", "automata.build"),
    ("hadamard", "hadamard_circuit", "hadamard.synth"),
    ("hadamard", "hadamard_eval", "hadamard.eval"),
    ("lifting", "iterate_encoder", "lifting.encode"),
    ("lifting", "encode_stages", "lifting.encode"),
    ("lifting", "encode_circuit", "lifting.encode"),
    ("circuits", "expand", "circuits.expand"),
    ("circuits", "eval_matrix_residues", "circuits.eval_matrix"),
    ("circuits", "parse_circuit", "circuits.parse"),
    ("polynomials", "parse_poly", "circuits.parse"),
    ("circuits", "format_circuit", "circuits.format"),
    ("polynomials", "format_poly", "circuits.format"),
    ("verify", "circuit_equiv_random", "verify.random"),
    ("verify", "circuit_equiv_brute", "verify.brute"),
    ("cli", "main", "cli"),
)

# (metric, unit, better); every value is a mean per traced operation
METRICS = (
    ("automata.build_calls", "calls/op", "lower"),
    ("automata.build_ms", "ms/op", "lower"),
    ("automata.transitions_built", "count/op", "lower"),
    ("hadamard.synth_calls", "calls/op", "lower"),
    ("hadamard.synth_ms", "ms/op", "lower"),
    ("hadamard.gates_emitted", "gates/op", "lower"),
    ("hadamard.gates_kept", "gates/op", "lower"),
    ("hadamard.kept_per_emitted", "ratio", "higher"),
    ("hadamard.eval_ms", "ms/op", "lower"),
    ("lifting.encode_ms", "ms/op", "lower"),
    ("lifting.encoded_nodes", "nodes/op", "lower"),
    ("circuits.eval_matrix_ms", "ms/op", "lower"),
    ("circuits.eval_matrix_calls", "calls/op", "lower"),
    ("circuits.expand_ms", "ms/op", "lower"),
    ("circuits.expand_terms", "terms/op", "lower"),
    ("circuits.parse_ms", "ms/op", "lower"),
    ("circuits.format_ms", "ms/op", "lower"),
    ("circuits.text_bytes", "bytes/op", "lower"),
    ("verify.random_ms", "ms/op", "lower"),
    ("verify.brute_ms", "ms/op", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("trace.overhead_s", "s/op", "lower"),
)


def _final_stage(result):
    """encode_stages returns the whole chain; its last stage is the output."""
    return result[-1] if isinstance(result, list) else result


class Tracer:
    """Wraps the functions in SPANS; counts nothing until installed."""

    def __init__(self, package: str, clock):
        self.clock = clock  # seconds; the runner's excludes its own sampling
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, child seconds] per open span
        # (owner, attribute, original, wrapper) for every reference
        self._targets: list[tuple] = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for mod_name, fn_name, layer in SPANS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, layer)
            self._targets += [(mod, attr, original, wrapper)
                              for mod in modules
                              for attr, value in vars(mod).items()
                              if value is original]
        builder = sys.modules[f"{package}.circuits"].CircuitBuilder
        for attr in ("add", "mul"):
            original = getattr(builder, attr)
            self._targets.append((builder, attr, original,
                                  self._count_gates(original)))

    def _record(self, layer: str, args, result) -> None:
        """Counts taken from a finished call, outside every span."""
        c = self.counts
        if layer == "automata.build":
            c["transitions"] += result.transition_count
        elif layer == "hadamard.synth":
            c["gates_kept"] += result.size_report().gates
        elif layer == "lifting.encode":
            if not any(f[0] == layer for f in self._stack):
                c["encoded_nodes"] += len(_final_stage(result).nodes)
        elif layer == "circuits.expand":
            c["expand_terms"] += len(result.terms)
        elif layer == "circuits.parse":
            c["text_bytes"] += len(args[0])
        elif layer == "circuits.format":
            c["text_bytes"] += len(result)

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self._stack.pop()
                self.self_s[layer] += (t1 - t0) - frame[1]
                self.calls[layer] += 1
            self._record(layer, args, result)
            if self._stack:
                self._stack[-1][1] += self.clock() - t0
            return result
        return wrapper

    def _count_gates(self, fn):
        @functools.wraps(fn)
        def wrapper(builder, lhs, rhs):
            if self._stack and self._stack[-1][0] == "hadamard.synth":
                self.counts["gates_emitted"] += 1
            return fn(builder, lhs, rhs)
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def metrics(self, ops: int, factor: float, overhead_s: float) -> dict:
        """Per-operation means of every layer metric; self times are
        multiplied by `factor`, the run's speed factor, and overhead_s is
        already at the reference speed."""
        ms = {k: v * 1000.0 * factor / ops for k, v in self.self_s.items()}
        per = {k: v / ops for k, v in self.counts.items()}
        emitted = self.counts["gates_emitted"]
        values = {
            "automata.build_calls": self.calls["automata.build"] / ops,
            "automata.build_ms": ms.get("automata.build", 0.0),
            "automata.transitions_built": per.get("transitions", 0.0),
            "hadamard.synth_calls": self.calls["hadamard.synth"] / ops,
            "hadamard.synth_ms": ms.get("hadamard.synth", 0.0),
            "hadamard.gates_emitted": per.get("gates_emitted", 0.0),
            "hadamard.gates_kept": per.get("gates_kept", 0.0),
            "hadamard.kept_per_emitted":
                self.counts["gates_kept"] / emitted if emitted else 0.0,
            "hadamard.eval_ms": ms.get("hadamard.eval", 0.0),
            "lifting.encode_ms": ms.get("lifting.encode", 0.0),
            "lifting.encoded_nodes": per.get("encoded_nodes", 0.0),
            "circuits.eval_matrix_ms": ms.get("circuits.eval_matrix", 0.0),
            "circuits.eval_matrix_calls":
                self.calls["circuits.eval_matrix"] / ops,
            "circuits.expand_ms": ms.get("circuits.expand", 0.0),
            "circuits.expand_terms": per.get("expand_terms", 0.0),
            "circuits.parse_ms": ms.get("circuits.parse", 0.0),
            "circuits.format_ms": ms.get("circuits.format", 0.0),
            "circuits.text_bytes": per.get("text_bytes", 0.0),
            "verify.random_ms": ms.get("verify.random", 0.0),
            "verify.brute_ms": ms.get("verify.brute", 0.0),
            "cli.self_ms": ms.get("cli", 0.0),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in METRICS}
