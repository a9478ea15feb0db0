"""The executable acceptance suite: nine checks, one report line each.

Each check re-derives its expectations from independent pieces (brute
expansion, literal series enumeration, hand-evaluated fixtures) rather
than from the code under test.  Check 4 collects size witnesses from
every Hadamard synthesis the other checks perform.  Check 9 rebuilds
two deliberately broken variants (a decoder with a mis-ordered weight
index, an evaluator with swapped product operands) from public pieces
and confirms the suite's own mini-checks catch both.

Report format: one line per check, `check <id> <pass|fail> <details>`,
in id order.  Timing targets enter as a time_ok flag instead of raw
seconds so reruns print identical bytes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .automata import (Transition, Weight, WeightedAutomaton, build_decoder,
                       build_one_shot_decoder, one_shot_nominal_states,
                       one_shot_state_count, series_truncate)
from .circuits import Circuit, CircuitBuilder, eval_matrix, expand, replay
from .config import DEFAULT_SEED
from .hadamard import (HadamardWitness, hadamard_circuit, hadamard_eval,
                       hadamard_witness)
from .lifting import (LiftParams, decode_circuit, encode_circuit,
                      encode_stages, iterate_encoder, lift_report,
                      one_shot_decode_circuit, sample_family)
from .matrices import SquareMatrix
from .polynomials import Alphabet, NCPolynomial, Word
from .randcircuits import (perturb_mul_order, random_circuit,
                           swap_add_children)
from .scalars import DEFAULT_MODULUS, Scalar
from .verify import DISTINCT, EQUAL, circuit_equiv_brute, circuit_equiv_random

PIT_MODULUS = 1_000_000_007


@dataclass(frozen=True)
class CheckResult:
    check_id: int
    passed: bool
    details: str

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"check {self.check_id} {status} {self.details}"


class AcceptanceSuite:
    """Runs all nine checks off one seed and one modulus."""

    def __init__(self, seed: int = DEFAULT_SEED,
                 modulus: int = DEFAULT_MODULUS):
        self.seed = seed
        self.modulus = modulus
        self.witnesses: list[HadamardWitness] = []

    def _witness(self, circuit: Circuit,
                 automaton: WeightedAutomaton) -> HadamardWitness:
        w = hadamard_witness(circuit, automaton)
        self.witnesses.append(w)
        return w

    # -- checks 1 and 2: decode round-trip and the all-ones identity ------

    def _corpus(self, m: int) -> list[tuple[Circuit, Circuit, NCPolynomial]]:
        rng = random.Random(self.seed * 10 + m)
        alphabet = Alphabet("X", m ** 3)
        out = []
        for i in range(100):
            c = random_circuit(alphabet, self.modulus, rng,
                               max_gates=20, max_degree=4,
                               name=f"c{m}_{i}")
            out.append((c, encode_circuit(c, m), expand(c)))
        return out

    def check_round_trip_and_identity(self) -> tuple[CheckResult,
                                                     CheckResult]:
        t0 = time.perf_counter()
        corpora = {}
        trips = []
        for m in (2, 3):
            decoder = build_decoder(m, modulus=self.modulus)
            corpus = self._corpus(m)
            corpora[m] = (decoder, corpus)
            good = 0
            for c, enc, ref in corpus:
                self._witness(enc, decoder)
                if expand(decode_circuit(enc, m)) == ref:
                    good += 1
            trips.append((m, good, len(corpus)))
        elapsed = time.perf_counter() - t0
        time_ok = elapsed < 60.0
        counts = " ".join(f"m={m}:{g}/{n}" for m, g, n in trips)
        ok = time_ok and all(g == n for _, g, n in trips)
        r1 = CheckResult(1, ok, f"round-trip {counts} time_ok={int(time_ok)}")

        good = total = 0
        for m in (2, 3):
            decoder, corpus = corpora[m]
            ones = [1] * m
            for c, enc, ref in corpus:
                total += 1
                if hadamard_eval(enc, decoder, ones) == ref:
                    good += 1
        r2 = CheckResult(2, good == total,
                         f"all-ones identity {good}/{total}")
        return r1, r2

    # -- check 3: exhaustive weight-index table at m = 2 ------------------

    def check_weight_index_table(self) -> CheckResult:
        t0 = time.perf_counter()
        decoder = build_decoder(2, modulus=self.modulus)
        series = series_truncate(decoder, 5)
        y = decoder.y_alphabet
        x = decoder.x_alphabet
        expected: dict[Word, NCPolynomial] = {
            Word(y, ()): NCPolynomial.constant(1, x, self.modulus)}
        for a in range(2):
            for bb in range(2):
                for c in range(2):
                    expected[Word(y, (a, bb, c))] = NCPolynomial.variable(
                        4 * a + 2 * bb + c, x, self.modulus)
        elapsed = time.perf_counter() - t0
        time_ok = elapsed < 1.0
        ok = series == expected and time_ok
        return CheckResult(3, ok,
                           f"8 code words + empty word, zero elsewhere "
                           f"up to length 5, match={int(series == expected)} "
                           f"time_ok={int(time_ok)}")

    # -- check 4: size accounting from every synthesis above --------------

    def check_witnesses(self) -> CheckResult:
        bad = sum(1 for w in self.witnesses if not w.ok)
        return CheckResult(4, bad == 0 and bool(self.witnesses),
                           f"witnesses={len(self.witnesses)} bad={bad}")

    # -- check 5: one-shot versus iterated decoding -----------------------

    def check_one_shot(self) -> CheckResult:
        t0 = time.perf_counter()
        n, d = 2, 2
        oneshot = build_one_shot_decoder(n, d, modulus=self.modulus)
        dec2 = build_decoder(2, modulus=self.modulus)
        dec8 = build_decoder(8, modulus=self.modulus)
        merged = oneshot.num_states
        unmerged = one_shot_state_count(n, d, merged=False)
        want_merged = one_shot_nominal_states(n, d)
        want_unmerged = one_shot_nominal_states(n, d, merged=False)
        states_ok = merged == want_merged and unmerged == want_unmerged

        rng = random.Random(self.seed * 10 + 5)
        big = Alphabet("X", 512)
        good = total = 0
        for i in range(25):
            c = random_circuit(big, self.modulus, rng, max_gates=12,
                               max_degree=3, name=f"os{i}")
            enc = iterate_encoder(c, n, d)
            one = one_shot_decode_circuit(enc, n, d)
            mid = decode_circuit(enc, 2)
            two = decode_circuit(mid, 8)
            self._witness(enc, oneshot)
            self._witness(enc, dec2)
            self._witness(mid, dec8)
            total += 1
            if expand(one) == expand(two):
                good += 1
        for index in range(512):
            fam = sample_family("single-monomial", 512, 1, 0, index=index,
                                modulus=self.modulus)
            enc = iterate_encoder(fam.circuit, n, d)
            one = one_shot_decode_circuit(enc, n, d)
            two = decode_circuit(decode_circuit(enc, 2), 8)
            self._witness(enc, oneshot)
            total += 1
            if expand(one) == expand(two) == fam.poly:
                good += 1
        elapsed = time.perf_counter() - t0
        time_ok = elapsed < 120.0
        ok = states_ok and good == total and time_ok
        return CheckResult(
            5, ok,
            f"states merged={merged}/want={want_merged} "
            f"unmerged={unmerged}/want={want_unmerged} "
            f"expand-equal={good}/{total} time_ok={int(time_ok)}")

    # -- check 6: stage bookkeeping and measured decode growth ------------

    def check_lift_bookkeeping(self) -> CheckResult:
        chains = decodes = 0
        problems: list[str] = []
        counter = 0
        for n in range(1, 5):
            for d in range(1, 4):
                for t in range(1, 4):
                    counter += 1
                    params = LiftParams(n, d, t)
                    sizes = params.alphabet_sizes
                    degs = params.degrees
                    for k in range(d):
                        if sizes[k + 1] ** 3 != sizes[k]:
                            problems.append(f"chain n={n} d={d} k={k}")
                    if sizes[d] != n or degs[d] != t * 3 ** d:
                        problems.append(f"endpoint n={n} d={d} t={t}")
                    fam = sample_family("random-sparse", sizes[0], t,
                                        self.seed * 100 + counter, terms=3,
                                        modulus=self.modulus)
                    stages = encode_stages(fam.circuit, n, d)
                    report = lift_report(
                        params, [s.size_report().gates for s in stages])
                    for k, row in enumerate(report.rows):
                        if (row.alphabet_size != sizes[k]
                                or row.degree != degs[k]):
                            problems.append(f"row n={n} d={d} t={t} k={k}")
                    chains += 1
                    for k in range(d):
                        m = sizes[k + 1]
                        if m > 8:
                            continue
                        src = stages[k + 1]
                        decoder = build_decoder(m, modulus=self.modulus)
                        decoded = hadamard_circuit(src, decoder,
                                                   name=src.name)
                        self._witness(src, decoder)
                        decodes += 1
                        budget = (params.bound_factor(k)
                                  * max(1, src.size_report().total))
                        if decoded.size_report().total > budget:
                            problems.append(
                                f"growth n={n} d={d} t={t} k={k}")
        ok = not problems
        head = problems[0] if problems else "all within bounds"
        return CheckResult(6, ok,
                           f"chains={chains} measured_decodes={decodes} "
                           f"{head}")

    # -- check 7: the fixed noncommutativity witness -----------------------

    def check_matrix_witness(self) -> CheckResult:
        p = self.modulus
        x = Alphabet("X", 2)

        def mat(rows):
            return SquareMatrix([[Scalar(e, p) for e in row]
                                 for row in rows])

        m0 = mat([[0, 1], [0, 0]])
        m1 = mat([[0, 0], [1, 0]])
        point = {0: m0, 1: m1}

        b = CircuitBuilder(x, p, "fwd")
        c01 = b.finish(b.mul(b.var(0), b.var(1)))
        b = CircuitBuilder(x, p, "rev")
        c10 = b.finish(b.mul(b.var(1), b.var(0)))
        b = CircuitBuilder(x, p, "comm")
        comm = b.finish(b.add(b.mul(b.var(0), b.var(1)),
                              b.mul(b.const(p - 1),
                                    b.mul(b.var(1), b.var(0)))))

        e01 = eval_matrix(c01, point)
        e10 = eval_matrix(c10, point)
        commutator = eval_matrix(comm, point)
        want = mat([[1, 0], [0, p - 1]])
        distinct = e01 != e10
        ok = distinct and commutator == want
        return CheckResult(7, ok,
                           f"distinct={int(distinct)} "
                           f"commutator_match={int(commutator == want)}")

    # -- check 8: randomized identity testing sanity ----------------------

    def check_identity_testing(self) -> CheckResult:
        p = PIT_MODULUS
        rng = random.Random(self.seed * 10 + 8)
        alphabet = Alphabet("X", 8)

        def draw():
            return random_circuit(alphabet, p, rng, max_gates=14,
                                  max_degree=6)

        equal_pairs = []
        while len(equal_pairs) < 50:
            c = draw()
            c2 = swap_add_children(c, rng)
            if c2 is not None:
                equal_pairs.append((c, c2))
        perturbed = []
        while len(perturbed) < 50:
            c = draw()
            c2 = perturb_mul_order(c, rng)
            if c2 is not None and circuit_equiv_brute(c, c2).result \
                    == DISTINCT:
                perturbed.append((c, c2))

        misses = contradictions = 0
        for i, (c, c2) in enumerate(equal_pairs):
            verdict = circuit_equiv_random(c, c2, trials=10, dim=4,
                                           seed=self.seed * 1000 + i)
            if verdict.result != EQUAL:
                misses += 1
                contradictions += 1
        for i, (c, c2) in enumerate(perturbed):
            verdict = circuit_equiv_random(c, c2, trials=10, dim=4,
                                           seed=self.seed * 2000 + i)
            if verdict.result != DISTINCT:
                misses += 1
        ok = misses == 0
        return CheckResult(8, ok,
                           f"pairs=50+50 misclassified={misses} "
                           f"brute_contradictions={contradictions}")

    # -- check 9: mutation sensitivity -------------------------------------

    def _mutant_decoder(self) -> WeightedAutomaton:
        """build_decoder(2) with the middle weight's letter and
        block-end digits exchanged."""
        base = build_decoder(2, modulus=self.modulus)
        m = 2
        trans = []
        for t in base.transitions:
            w = t.weight
            if w.var is None:
                trans.append(t)
                continue
            first = t.source - 1
            last = t.target - 1 - m
            read = t.letter
            bad = m * m * first + m * last + read
            trans.append(Transition(t.source, t.letter, t.target,
                                    Weight(w.coeff, bad)))
        return WeightedAutomaton(base.y_alphabet, base.x_alphabet,
                                 base.modulus, base.num_states, base.start,
                                 base.accept, tuple(trans))

    def _eval_swapped(self, circuit: Circuit,
                      automaton: WeightedAutomaton) -> NCPolynomial:
        """hadamard_eval with the product operand order deliberately
        reversed at every mul gate."""
        x, p = automaton.x_alphabet, circuit.modulus
        zero = NCPolynomial.zero(x, p)

        def const(c: int) -> SquareMatrix:
            return SquareMatrix.scalar_diag(
                automaton.num_states, NCPolynomial.constant(c, x, p), zero)

        value = replay(circuit, automaton.transition_matrices().__getitem__,
                       const, lambda a, b: a + b, lambda a, b: b * a)
        return value.entry(automaton.start, automaton.accept)

    def check_mutation_sensitivity(self) -> CheckResult:
        p = self.modulus
        x = Alphabet("X", 8)
        b = CircuitBuilder(x, p, "probe")
        probe = b.finish(b.var(1))
        ref = expand(probe)
        enc = encode_circuit(probe, 2)

        mutant = self._mutant_decoder()
        broken_trip = expand(hadamard_circuit(enc, mutant)) != ref
        broken_table = mutant.coeff_of_word((0, 0, 1)) != \
            NCPolynomial.variable(1, x, p)

        decoder = build_decoder(2, modulus=p)
        broken_eval = self._eval_swapped(enc, decoder) != ref

        ok = broken_trip and broken_table and broken_eval
        return CheckResult(9, ok,
                           f"weight-index mutant caught={int(broken_trip)}"
                           f",{int(broken_table)} order mutant "
                           f"caught={int(broken_eval)}")

    def run(self) -> list[CheckResult]:
        r1, r2 = self.check_round_trip_and_identity()
        r3 = self.check_weight_index_table()
        r5 = self.check_one_shot()
        r6 = self.check_lift_bookkeeping()
        r7 = self.check_matrix_witness()
        r8 = self.check_identity_testing()
        r9 = self.check_mutation_sensitivity()
        r4 = self.check_witnesses()
        return sorted([r1, r2, r3, r4, r5, r6, r7, r8, r9],
                      key=lambda r: r.check_id)


def run_acceptance(seed: int = DEFAULT_SEED,
                   modulus: int = DEFAULT_MODULUS,
                   out=None) -> list[CheckResult]:
    """Run every check; print one line each through `out` if given."""
    results = AcceptanceSuite(seed, modulus).run()
    if out is not None:
        for r in results:
            out(r.line())
    return results
