"""Seeded random circuits for tests and the acceptance corpus.

The generator tracks a syntactic degree and a support-size estimate per
node and only proposes multiplications that keep both under their caps,
so every generated circuit stays cheap to expand exactly.  All draws
come from one caller-supplied random.Random; equal seeds give equal
circuits, node for node.
"""

from __future__ import annotations

import random

from .circuits import ADD, MUL, Circuit, CircuitBuilder
from .polynomials import Alphabet

SUPPORT_CAP = 80  # most terms a generated node's polynomial may have


def random_circuit(alphabet: Alphabet, modulus: int, rng: random.Random, *,
                   max_gates: int = 20, max_degree: int = 4,
                   name: str = "rnd") -> Circuit:
    """A random DAG within the degree, gate, and support caps."""
    if max_gates < 1:
        raise ValueError(f"need at least one gate, got {max_gates}")
    b = CircuitBuilder(alphabet, modulus, name=name)
    ids: list[int] = []
    degree: dict[int, int] = {}
    support: dict[int, int] = {}

    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.15:
            nid = b.const(rng.randrange(1, modulus) if modulus > 2 else 1)
            deg = 0
        else:
            nid = b.var(rng.randrange(alphabet.size))
            deg = 1
        degree.setdefault(nid, deg)
        support.setdefault(nid, 1)
        ids.append(nid)

    for _ in range(rng.randint(2, max_gates)):
        lhs = rng.choice(ids)
        rhs = rng.choice(ids)
        can_mul = (degree[lhs] + degree[rhs] <= max_degree
                   and support[lhs] * support[rhs] <= SUPPORT_CAP)
        if can_mul and rng.random() < 0.55:
            nid = b.mul(lhs, rhs)
            degree[nid] = degree[lhs] + degree[rhs]
            support[nid] = support[lhs] * support[rhs]
        else:
            nid = b.add(lhs, rhs)
            degree[nid] = max(degree[lhs], degree[rhs])
            support[nid] = min(support[lhs] + support[rhs], SUPPORT_CAP)
        ids.append(nid)
    return b.finish(ids[-1], prune=True)


def _swapped(circuit: Circuit, rng: random.Random,
             op: str) -> Circuit | None:
    """Swap the children of one rng-chosen op gate whose children
    differ."""
    spots = [i for i, (o, a, b) in enumerate(circuit.nodes)
             if o == op and a != b]
    if not spots:
        return None
    index = rng.choice(spots)
    nodes = list(circuit.nodes)
    _, a, b = nodes[index]
    nodes[index] = (op, b, a)
    return Circuit(circuit.name, circuit.alphabet, circuit.modulus,
                   tuple(nodes), circuit.output)


def swap_add_children(circuit: Circuit,
                      rng: random.Random) -> Circuit | None:
    """Swap one add gate's children: a different DAG, the same polynomial.

    None when the circuit has no two-child add gate to swap.
    """
    return _swapped(circuit, rng, ADD)


def perturb_mul_order(circuit: Circuit,
                      rng: random.Random) -> Circuit | None:
    """Swap one mul gate's operands; order matters, so this usually
    changes the polynomial (callers must confirm with an oracle).

    None when the circuit has no two-child mul gate to swap.
    """
    return _swapped(circuit, rng, MUL)
