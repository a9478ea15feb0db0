"""Arithmetic the benchmark checks nclift against, written apart from it.

Nothing here imports nclift.  Circuits and polynomials are read from
the library's text formats (the formats are the stable contract; the
in-memory node classes are not), and a polynomial is a plain dict from
letter tuples to nonzero residues.
"""

from __future__ import annotations


class Unreadable(Exception):
    """An output could not be read, so it cannot be correct."""


def parse_circuit_text(text: str) -> tuple[int, int, list[tuple], int]:
    """(variable count, modulus, nodes, output) of a circuit file.

    A node is ("var", i), ("const", c), ("add", a, b) or ("mul", a, b).
    """
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 8 or head[0] != "circuit":
        raise Unreadable(f"bad circuit header {lines[:1]!r}")
    nvars, modulus = int(head[5]), int(head[7])
    nodes: list[tuple] = []
    output = None
    for raw in lines[1:]:
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "output":
            output = int(toks[1])
            continue
        if toks[0] != "node" or int(toks[1]) != len(nodes):
            raise Unreadable(f"bad node line {raw!r}")
        kind, args = toks[2], [int(t) for t in toks[3:]]
        if kind in ("var", "const") and len(args) == 1:
            nodes.append((kind, args[0]))
        elif kind in ("add", "mul") and len(args) == 2:
            if not (0 <= args[0] < len(nodes) and 0 <= args[1] < len(nodes)):
                raise Unreadable(f"child out of order in {raw!r}")
            nodes.append((kind, args[0], args[1]))
        else:
            raise Unreadable(f"bad node line {raw!r}")
    if output is None or not 0 <= output < len(nodes):
        raise Unreadable("missing or bad output line")
    return nvars, modulus, nodes, output


def parse_poly_text(text: str) -> tuple[int, int, dict]:
    """(variable count, modulus, term map) of a polynomial file."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 7 or head[0] != "poly":
        raise Unreadable(f"bad poly header {lines[:1]!r}")
    nvars, modulus = int(head[4]), int(head[6])
    terms: dict = {}
    for raw in lines[1:]:
        if not raw.strip():
            continue
        coeff, _, word = raw.partition(":")
        toks = word.split()
        letters = () if toks == ["1"] else tuple(int(t[1:]) for t in toks)
        if letters in terms:
            raise Unreadable(f"duplicate word in {raw!r}")
        c = int(coeff) % modulus
        if c:
            terms[letters] = c
    return nvars, modulus, terms


def add_terms(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for w, c in b.items():
        s = (out.get(w, 0) + c) % p
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def mul_terms(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    right = b.items()
    for u, cu in a.items():
        for v, cv in right:
            w = u + v
            out[w] = (out.get(w, 0) + cu * cv) % p
    return {w: c for w, c in out.items() if c}


def expand(nodes: list[tuple], output: int, p: int) -> dict:
    """The polynomial a parsed circuit computes, as a term map."""
    vals: list[dict] = []
    for node in nodes:
        kind = node[0]
        if kind == "var":
            vals.append({(node[1],): 1})
        elif kind == "const":
            c = node[1] % p
            vals.append({(): c} if c else {})
        elif kind == "add":
            vals.append(add_terms(vals[node[1]], vals[node[2]], p))
        else:
            vals.append(mul_terms(vals[node[1]], vals[node[2]], p))
    return vals[output]


def expand_text(text: str) -> tuple[int, int, dict]:
    """(variable count, modulus, term map) of a circuit file's polynomial."""
    nvars, p, nodes, output = parse_circuit_text(text)
    return nvars, p, expand(nodes, output, p)


def encode_terms(terms: dict, m: int) -> dict:
    """Apply the 1-to-3 block code: x_i becomes the base-m digits of i."""
    out = {}
    for word, c in terms.items():
        out[tuple(d for i in word
                  for d in (i // (m * m), i // m % m, i % m))] = c
    return out


def matmul(a: list, b: list, p: int) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
            for row in a]


def eval_matrices(nodes: list[tuple], output: int, mats: dict, dim: int,
                  p: int) -> list:
    """Value of a parsed circuit with each x_i replaced by mats[i]."""
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    vals: list[list] = []
    for node in nodes:
        kind = node[0]
        if kind == "var":
            vals.append([[e % p for e in row] for row in mats[node[1]]])
        elif kind == "const":
            vals.append([[e * node[1] % p for e in row] for row in eye])
        elif kind == "add":
            a, b = vals[node[1]], vals[node[2]]
            vals.append([[(x + y) % p for x, y in zip(ra, rb)]
                         for ra, rb in zip(a, b)])
        else:
            vals.append(matmul(vals[node[1]], vals[node[2]], p))
    return vals[output]
