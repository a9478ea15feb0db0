"""The three benchmark workloads: inputs, one timed operation, checks.

Each workload draws its inputs from the benchmark seed alone, and the
timed operations hand nclift only the generated circuits (or files).  Input shapes (sizes,
degrees, term counts) are fixed per slot; the seed picks the letters,
coefficients and wiring inside each shape, so the work per pass barely
moves from seed to seed while no seed's inputs are special.

Every workload exposes `items`, `operate(item)` (the timed call chain),
`check(item, out)` (raises Mismatch on a wrong output, untimed) and
`nodes(item, out)` (the decoded_nodes count of one operation).
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import reference as ref

MODULUS = 1_000_000_007  # nclift's default modulus, also its PIT modulus
BIG = 512                # 2^(3^2): the n=2, d=2 chain's top alphabet


class Mismatch(Exception):
    """An output disagrees with the benchmark's own computation."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# Circuit text generation (the library's text format is the input contract).

def _prune(nodes: list[tuple], output: int) -> tuple[list[tuple], int]:
    """Keep only nodes the output reaches, renumbered in order."""
    keep = set()
    stack = [output]
    while stack:
        i = stack.pop()
        if i not in keep:
            keep.add(i)
            if nodes[i][0] in ("add", "mul"):
                stack.extend(nodes[i][1:])
    remap: dict[int, int] = {}
    out: list[tuple] = []
    for i in sorted(keep):
        node = nodes[i]
        if node[0] in ("add", "mul"):
            node = (node[0], remap[node[1]], remap[node[2]])
        remap[i] = len(out)
        out.append(node)
    return out, remap[output]


def circuit_text(name: str, nvars: int, p: int, nodes: list[tuple],
                 output: int) -> str:
    lines = [f"circuit {name} over X vars {nvars} modulus {p}"]
    lines += [f"node {i} " + " ".join(map(str, node))
              for i, node in enumerate(nodes)]
    lines.append(f"output {output}")
    return "\n".join(lines) + "\n"


def random_small(rng: random.Random, name: str) -> str:
    """A random DAG over 512 variables: <= 12 gates, degree <= 3."""
    nodes: list[tuple] = []
    deg: list[int] = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.15:
            nodes.append(("const", rng.randrange(1, MODULUS)))
            deg.append(0)
        else:
            nodes.append(("var", rng.randrange(BIG)))
            deg.append(1)
    for _ in range(rng.randint(2, 12)):
        a, b = rng.randrange(len(nodes)), rng.randrange(len(nodes))
        if deg[a] + deg[b] <= 3 and rng.random() < 0.55:
            nodes.append(("mul", a, b))
            deg.append(deg[a] + deg[b])
        else:
            nodes.append(("add", a, b))
            deg.append(max(deg[a], deg[b]))
    return circuit_text(name, BIG, MODULUS, *_prune(nodes, len(nodes) - 1))


def sparse_deep(rng: random.Random, name: str, gates: int, degree: int,
                muls: int = 32, nvars: int = 8, support: int = 24) -> str:
    """A chain of `gates` gates, `muls` of them mul, of degree `degree`.

    Gate k combines gate k-1 with a random earlier node, so every gate
    is on the output's path and the depth is `gates`.  Each gate's
    polynomial is tracked exactly and kept to at most `support` terms;
    where no earlier node fits, a mul takes a constant and an add
    doubles the chain.  Fixed gate counts and degree keep the cost of
    matrix evaluation the same from seed to seed.
    """
    p = MODULUS
    nodes: list[tuple] = [("var", v) for v in range(nvars)]
    nodes += [("const", rng.randrange(2, p)) for _ in range(2)]
    polys = [{(v,): 1} for v in range(nvars)]
    polys += [{(): c} for _, c in nodes[nvars:]]
    deg = [1] * nvars + [0, 0]  # syntactic, as identity testing reads it
    kinds = ["mul"] * muls + ["add"] * (gates - muls)
    rng.shuffle(kinds)
    chain = rng.randrange(nvars)
    for kind in kinds:
        room = degree - deg[chain] if kind == "mul" else degree
        for _ in range(32 if room else 0):
            r = rng.randrange(len(nodes))
            if kind == "mul":
                a, b = (chain, r) if rng.random() < 0.5 else (r, chain)
                t = ref.mul_terms(polys[a], polys[b], p)
            else:
                a, b = chain, r
                t = ref.add_terms(polys[a], polys[b], p)
            if deg[r] <= room and t and len(t) <= support:
                break
        else:
            a, b = (chain, nvars) if kind == "mul" else (chain, chain)
            t = (ref.mul_terms if kind == "mul" else ref.add_terms)(
                polys[a], polys[b], p)
        nodes.append((kind, a, b))
        deg.append(deg[a] + deg[b] if kind == "mul" else max(deg[a], deg[b]))
        polys.append(t)
        chain = len(nodes) - 1
    return circuit_text(name, nvars, p, *_prune(nodes, chain))


def dense_shallow(rng: random.Random, name: str, factors: int, width: int,
                  nvars: int = 32) -> str:
    """A product of `factors` sums of `width` distinct variables each.

    Sums are balanced add trees, so the circuit is shallow and its
    degree is `factors`, while its expansion has width^factors terms.
    """
    nodes: list[tuple] = [("var", v) for v in range(nvars)]
    sums = []
    for _ in range(factors):
        ids = rng.sample(range(nvars), width)
        while len(ids) > 1:
            pairs = [("add", ids[i], ids[i + 1])
                     for i in range(0, len(ids) - 1, 2)]
            tail = ids[-1:] if len(ids) % 2 else []
            ids = list(range(len(nodes), len(nodes) + len(pairs))) + tail
            nodes += pairs
        sums.append(ids[0])
    acc = sums[0]
    for s in sums[1:]:
        nodes.append(("mul", acc, s))
        acc = len(nodes) - 1
    return circuit_text(name, nvars, MODULUS, *_prune(nodes, acc))


# ---------------------------------------------------------------------------
# chain-small: encode, then decode three ways, through the library.

class ChainSmall:
    """Acceptance check 5's load plus the m=8 stage, one input per op."""

    RANDOM = 96
    MONOMIALS = 48

    def __init__(self, lib, rng: random.Random, workdir: Path):
        self.lib = lib
        self.items = []
        for k in range(max(self.RANDOM, self.MONOMIALS)):
            if k < self.RANDOM:
                text = random_small(rng, f"r{k}")
                _, _, want = ref.expand_text(text)
                self.items.append((lib.nc.parse_circuit(text), want))
            if k < self.MONOMIALS:
                t = 1 + k % 3
                fam = lib.nc.sample_family("single-monomial", BIG, t, 0,
                                           index=rng.randrange(BIG ** t))
                self.items.append((fam.circuit, dict(fam.poly.terms)))

    def operate(self, item):
        nc = self.lib.nc
        src = item[0]
        enc = nc.iterate_encoder(src, 2, 2)
        iterated = nc.iterate_decoder(enc, 2, 2)
        one_shot = nc.one_shot_decode_circuit(enc, 2, 2)
        mid = nc.iterate_encoder(src, 8, 1)
        eval8 = nc.hadamard_eval(enc, nc.build_decoder(2))
        eval512 = nc.hadamard_eval(mid, nc.build_decoder(8))
        return {"iterated": iterated, "one_shot": one_shot,
                "eval8": eval8, "eval512": eval512}

    def check(self, item, out) -> None:
        nc, want = self.lib.nc, item[1]
        for key in ("iterated", "one_shot"):
            nvars, p, got = ref.expand_text(nc.format_circuit(out[key]))
            _expect((nvars, p) == (BIG, MODULUS), f"{key}: bad header")
            _expect(got == want, f"{key}: decoded polynomial differs")
        for key, nvars, terms in (("eval8", 8, ref.encode_terms(want, 8)),
                                  ("eval512", BIG, want)):
            got_vars, p, got = ref.parse_poly_text(nc.format_poly(out[key]))
            _expect((got_vars, p) == (nvars, MODULUS), f"{key}: bad header")
            _expect(got == terms, f"{key}: evaluated polynomial differs")

    def nodes(self, item, out) -> int:
        return len(out["iterated"].nodes) + len(out["one_shot"].nodes)


# ---------------------------------------------------------------------------
# chain-large: the same chain on big files, through nclift.cli.main.

class ChainLarge:
    """Hadamard synthesis and the text formats on thousands of nodes."""

    # (kind, degree, terms), smallest first: set-up warms up on the first.
    # The seed draws the random-sparse words.
    SHAPES = (("random-sparse", 3, 40), ("random-sparse", 4, 120),
              ("random-sparse", 3, 250), ("sum-of-squares", 2, 1),
              ("random-sparse", 4, 400))

    def __init__(self, lib, rng: random.Random, workdir: Path):
        self.lib = lib
        self.items = []
        for k, (kind, t, terms) in enumerate(self.SHAPES):
            fam = lib.nc.sample_family(kind, BIG, t, rng.randrange(2 ** 31),
                                       terms=terms)
            paths = {s: str(workdir / f"{s}{k}.{ext}") for s, ext in
                     (("src", "circ"), ("enc", "circ"), ("dec", "circ"),
                      ("one", "circ"), ("poly", "txt"))}
            Path(paths["src"]).write_text(lib.nc.format_circuit(fam.circuit),
                                          encoding="utf-8")
            self.items.append((paths, dict(fam.poly.terms)))

    def commands(self, paths: dict) -> list[list[str]]:
        chain = ["--n", "2", "--d", "2"]
        return [["encode", "--in", paths["src"], "--out", paths["enc"],
                 *chain],
                ["decode", "--in", paths["enc"], "--out", paths["dec"],
                 *chain],
                ["decode", "--one-shot", "--in", paths["enc"], "--out",
                 paths["one"], *chain],
                ["expand", "--in", paths["dec"], "--out", paths["poly"]]]

    def run_cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code
        if code != 0:
            raise RuntimeError(f"nclift {argv[0]} exited with {code}")

    def operate(self, item):
        for argv in self.commands(item[0]):
            self.run_cli(argv)
        return item[0]

    def check(self, item, out) -> None:
        paths, want = item

        def read(key: str) -> str:
            return Path(paths[key]).read_text(encoding="utf-8")

        nvars, p, got = ref.expand_text(read("enc"))
        _expect((nvars, p) == (2, MODULUS), "enc: bad header")
        _expect(got == ref.encode_terms(ref.encode_terms(want, 8), 2),
                "enc: encoded polynomial differs")
        for key in ("dec", "one"):
            nvars, p, got = ref.expand_text(read(key))
            _expect((nvars, p) == (BIG, MODULUS), f"{key}: bad header")
            _expect(got == want, f"{key}: decoded polynomial differs")
        nvars, p, got = ref.parse_poly_text(read("poly"))
        _expect((nvars, p) == (BIG, MODULUS), "poly: bad header")
        _expect(got == want, "poly: expand output differs")

    def nodes(self, item, out) -> int:
        return sum(len(ref.parse_circuit_text(
            Path(out[key]).read_text(encoding="utf-8"))[2])
            for key in ("dec", "one"))


# ---------------------------------------------------------------------------
# identity-test: both equivalence modes on equal and perturbed pairs.

EQUAL, DISTINCT = "equal", "distinct"


class IdentityTest:
    """Circuit replay kernels with no automaton and no Hadamard product."""

    PER_CLASS = 8
    SPARSE_GATES = (240, 270, 300, 330)
    SPARSE_DEGREES = (8, 9, 10, 11, 12)
    DENSE_SHAPES = ((3, 16), (3, 20), (3, 24), (4, 12))
    # Twice as many equal dense pairs, all of one shape: their identical
    # costs hold the median operation, which would otherwise fall in the
    # gap between two kinds of pair and move with the seed.
    EQUAL_DENSE = ((3, 24),) * 2 * PER_CLASS

    def __init__(self, lib, rng: random.Random, workdir: Path):
        self.lib = lib
        self.items = []
        for k in range(self.PER_CLASS):
            sparse = (self.SPARSE_GATES[k % len(self.SPARSE_GATES)],
                      self.SPARSE_DEGREES[k % len(self.SPARSE_DEGREES)])
            self.items.append(self._pair(rng, sparse_deep, sparse, k, EQUAL))
            self.items.append(self._pair(rng, sparse_deep, sparse, k,
                                         DISTINCT))
            self.items.append(self._pair(
                rng, dense_shallow,
                self.DENSE_SHAPES[k % len(self.DENSE_SHAPES)], k, DISTINCT))
        for k, shape in enumerate(self.EQUAL_DENSE):
            self.items.append(self._pair(rng, dense_shallow, shape, k, EQUAL))

    def _pair(self, rng, make, shape, k, answer):
        rc = self.lib.rc
        while True:
            text = make(rng, f"{make.__name__}{k}", *shape)
            c1 = self.lib.nc.parse_circuit(text)
            pair_rng = random.Random(rng.randrange(2 ** 31))
            if answer == EQUAL:
                c2 = rc.swap_add_children(c1, pair_rng)
                if c2 is not None:
                    return self._item(c1, text, c2,
                                      self.lib.nc.format_circuit(c2), EQUAL,
                                      None, rng)
                continue
            f1 = ref.expand_text(text)[2]
            for _ in range(8):
                c2 = rc.perturb_mul_order(c1, pair_rng)
                if c2 is None:
                    break
                text2 = self.lib.nc.format_circuit(c2)
                f2 = ref.expand_text(text2)[2]
                if f2 != f1:
                    return self._item(c1, text, c2, text2, DISTINCT,
                                      (f1, f2), rng)

    @staticmethod
    def _item(c1, text1, c2, text2, answer, polys, rng):
        return {"left": c1, "right": c2, "answer": answer, "polys": polys,
                "parsed": (ref.parse_circuit_text(text1),
                           ref.parse_circuit_text(text2)),
                "seed": rng.randrange(2 ** 31)}

    def operate(self, item):
        nc = self.lib.nc
        return (nc.circuit_equiv_random(item["left"], item["right"],
                                        trials=10, seed=item["seed"]),
                nc.circuit_equiv_brute(item["left"], item["right"]))

    def check(self, item, out) -> None:
        randomized, brute = out
        for verdict in out:
            _expect(verdict.result == item["answer"],
                    f"{verdict.mode}: {verdict.result}, "
                    f"expected {item['answer']}")
        if item["answer"] != DISTINCT:
            return
        (_, p, nodes1, out1), (_, _, nodes2, out2) = item["parsed"]
        point = randomized.witness
        mats = dict(point.mats)
        _expect(ref.eval_matrices(nodes1, out1, mats, point.dim, p)
                != ref.eval_matrices(nodes2, out2, mats, point.dim, p),
                "random: witness point does not separate the pair")
        f1, f2 = item["polys"]
        word = tuple(brute.witness.letters)
        _expect(f1.get(word, 0) != f2.get(word, 0),
                "brute: witness word has equal coefficients")

    def nodes(self, item, out) -> int:
        return len(item["parsed"][0][2]) + len(item["parsed"][1][2])


WORKLOADS = {"chain-small": ChainSmall, "chain-large": ChainLarge,
             "identity-test": IdentityTest}
