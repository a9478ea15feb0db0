import contextlib
import hashlib
import io
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nclift import (Alphabet, CircuitBuilder, build_decoder, cli,
                    format_automaton, format_circuit, hadamard, is_prime,
                    iterate_decoder, iterate_encoder, one_shot_decode_circuit,
                    parse_poly, sample_family)
from nclift.randcircuits import (perturb_mul_order, random_circuit,
                                 swap_add_children)

from helpers import ACCEPT_LINES

P = 1_000_000_007
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "nclift.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture
def poly_file(tmp_path):
    text = ("poly over X vars 8 modulus 1000000007\n"
            "3 : x7\n"
            "1 : x0 x1\n")
    path = tmp_path / "f.poly"
    path.write_text(text)
    return path


@pytest.fixture
def circuit_file(tmp_path):
    b = CircuitBuilder(Alphabet("X", 8), P, name="f")
    out = b.add(b.mul(b.var(0), b.var(1)), b.mul(b.const(3), b.var(7)))
    path = tmp_path / "f.circ"
    path.write_text(format_circuit(b.finish(out)))
    return path


def test_build_decoder_golden(tmp_path):
    out = tmp_path / "d.aut"
    r = run_cli("build-decoder", "--m", "2", "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == "states=5 transitions=12\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "92d7a465623e35b32029230c72df82c223e7f31e90ad1525f5327ebc39586f44")


def test_one_shot_decoder_states(tmp_path):
    out = tmp_path / "os.aut"
    r = run_cli("build-decoder", "--one-shot", "--n", "2", "--d", "2",
                "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == "states=61 transitions=572\n"


def test_encode_decode_round_trip(tmp_path, circuit_file):
    enc = tmp_path / "enc.circ"
    r = run_cli("encode", "--in", str(circuit_file), "--m", "2",
                "--out", str(enc))
    assert r.returncode == 0
    assert r.stdout.startswith("stage k=0 N=8 ")
    back = tmp_path / "back.circ"
    r = run_cli("decode", "--in", str(enc), "--m", "2", "--out", str(back))
    assert r.returncode == 0
    assert r.stdout.startswith("hadamard q=5 ")
    assert " ok=1" in r.stdout
    r = run_cli("equiv", "--mode", "brute", "--left", str(circuit_file),
                "--right", str(back))
    assert r.returncode == 0
    assert r.stdout == "equal\n"


@pytest.mark.parametrize("flags, lines, decode", [
    ((), ["hadamard q=5 in_gates=19 out_gates=4300 bound=4975 ok=1",
          "hadamard q=17 in_gates=9 out_gates=78030 bound=89879 ok=1"],
     iterate_decoder),
    (("--one-shot",),
     ["hadamard q=61 in_gates=19 out_gates=8141548 bound=8658767 ok=1"],
     one_shot_decode_circuit),
])
def test_decode_chain_witnesses_and_output(tmp_path, flags, lines, decode):
    b = CircuitBuilder(Alphabet("X", 512), P, name="g")
    c = b.finish(b.add(b.mul(b.var(5), b.var(300)),
                       b.mul(b.const(3), b.var(511))))
    enc = iterate_encoder(c, 2, 2)
    src, out = tmp_path / "enc.circ", tmp_path / "dec.circ"
    src.write_text(format_circuit(enc))
    r = run_cli("decode", *flags, "--n", "2", "--d", "2", "--in", str(src),
                "--out", str(out))
    assert r.returncode == 0
    assert r.stdout.splitlines() == lines
    assert out.read_text() == format_circuit(decode(enc, 2, 2))


@pytest.mark.parametrize("flags", [(), ("--one-shot",)])
def test_decode_output_ignores_hash_seed(tmp_path, flags):
    b = CircuitBuilder(Alphabet("X", 512), P, name="g")
    s = b.add(b.var(5), b.var(300))
    c = b.finish(b.add(b.mul(s, s), b.mul(b.const(3), b.var(511))))
    src = tmp_path / "enc.circ"
    src.write_text(format_circuit(iterate_encoder(c, 2, 2)))
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"dec{seed}.circ"
        r = run_cli("decode", *flags, "--n", "2", "--d", "2",
                    "--in", str(src), "--out", str(out),
                    env_extra={"PYTHONHASHSEED": seed})
        assert r.returncode == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


# (command, sha256 of its stdout, sha256 of the file it writes)
LARGEST_CHAIN_PINS = [
    ("encode",
     "15f634e717460779a4028360a37dcc6c4ec6d106c86b05f7eb1f58ada2017c66",
     "99cdb5f211cae862e6ea8266f83a71df176dd0e1e1809f7d591fd8c6b441a44d"),
    ("decode",
     "211a605ec799825a55968104cc7266ae12f976ca4233e266c4857d7f739155a9",
     "324d2ad0c62b2294fa0f6a1a15a7889086575b9213f0ca9e3c7579fa9893e14e"),
    ("decode --one-shot",
     "f3e8e5798b4f18af9f740fc69c340386523fbb322a9cc2d8f2feb22a7a32c9f8",
     "1d9dc0413c0a416ea3021db9ac96d4d801f8399020789a770a32e016c1335bd2"),
]


def test_largest_benchmark_chain_is_pinned(tmp_path, capsys):
    """The bytes encode, decode and decode --one-shot print and write
    for a random-sparse circuit over 512 letters of degree 4 with 400
    terms, the largest of the benchmark's chain-large shapes: thousands
    of nodes through the parser, the encoder and the synthesis."""
    fam = sample_family("random-sparse", 512, 4, 1729, terms=400)
    src, enc = tmp_path / "src.circ", tmp_path / "enc.circ"
    src.write_text(format_circuit(fam.circuit))
    chain = ["--n", "2", "--d", "2"]
    for k, (command, out_sha, file_sha) in enumerate(LARGEST_CHAIN_PINS):
        dest = tmp_path / f"out{k}.circ"
        source = src if command == "encode" else enc
        assert cli.main([*command.split(), "--in", str(source), "--out",
                         str(dest), *chain]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha, command
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == file_sha, \
            command
        if command == "encode":
            dest.rename(enc)


def test_main_twice_in_one_process(tmp_path, capsys):
    """The parser is built once per process; a flag given to one call
    (--one-shot) must not carry over to the next."""
    b = CircuitBuilder(Alphabet("X", 512), P, name="g")
    c = b.finish(b.add(b.mul(b.var(5), b.var(300)),
                       b.mul(b.const(3), b.var(511))))
    src = tmp_path / "enc.circ"
    src.write_text(format_circuit(iterate_encoder(c, 2, 2)))
    chain = ["--n", "2", "--d", "2", "--in", str(src)]
    assert cli.main(["decode", "--one-shot", *chain,
                     "--out", str(tmp_path / "one.circ")]) == 0
    capsys.readouterr()
    assert cli.main(["decode", *chain,
                     "--out", str(tmp_path / "dec.circ")]) == 0
    second = capsys.readouterr().out
    r = run_cli("decode", *chain, "--out", str(tmp_path / "fresh.circ"))
    assert r.returncode == 0
    # Two witness lines, one per decoder: the iterated chain ran.
    assert second == r.stdout
    assert [line.split()[1] for line in second.splitlines()] == ["q=5",
                                                                 "q=17"]
    assert ((tmp_path / "dec.circ").read_bytes()
            == (tmp_path / "fresh.circ").read_bytes())


def test_encode_poly_output(tmp_path, poly_file):
    out = tmp_path / "enc.poly"
    r = run_cli("encode", "--in", str(poly_file), "--n", "2", "--d", "1",
                "--out", str(out))
    assert r.returncode == 0
    f = parse_poly(out.read_text())
    assert f.support() == [(1, 1, 1), (0, 0, 0, 0, 0, 1)]


def test_expand_to_stdout(circuit_file):
    r = run_cli("expand", "--in", str(circuit_file))
    assert r.returncode == 0
    assert "3 : x7" in r.stdout
    assert "1 : x0 x1" in r.stdout


def test_equiv_distinct_exit_and_witness(tmp_path):
    for name, order in (("ab", (0, 1)), ("ba", (1, 0))):
        b = CircuitBuilder(Alphabet("X", 2), P, name=name)
        c = b.finish(b.mul(b.var(order[0]), b.var(order[1])))
        (tmp_path / f"{name}.circ").write_text(format_circuit(c))
    r = run_cli("equiv", "--mode", "brute", "--left",
                str(tmp_path / "ab.circ"), "--right", str(tmp_path / "ba.circ"))
    assert r.returncode == 1
    assert r.stdout == "distinct\nwitness x0 x1\n"
    r = run_cli("equiv", "--mode", "random", "--seed", "5", "--trials", "6",
                "--dim", "2", "--left", str(tmp_path / "ab.circ"),
                "--right", str(tmp_path / "ba.circ"))
    assert r.returncode == 1
    assert r.stdout == "distinct\nwitness matrix point dim=2\n"


def test_equiv_refuses_no_trials(circuit_file):
    r = run_cli("equiv", "--mode", "random", "--trials", "0", "--left",
                str(circuit_file), "--right", str(circuit_file))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "nclift: trials must be >= 1, got 0\n"


@pytest.fixture(scope="module")
def equiv_files(tmp_path_factory):
    """Small seeded circuit files: a base, an add-swapped and a
    mul-perturbed copy, an unrelated circuit, a circuit over another
    alphabet, one over another modulus, a malformed file and a missing
    one."""
    d = tmp_path_factory.mktemp("equiv")
    rng = random.Random(1729)
    X4 = Alphabet("X", 4)
    base = random_circuit(X4, P, rng, max_gates=10, max_degree=6)
    circuits = {
        "base": base,
        "swapped": swap_add_children(base, rng),
        "perturbed": perturb_mul_order(base, rng),
        "unrelated": random_circuit(X4, P, rng, max_gates=10, max_degree=6),
        "alphabet3": random_circuit(Alphabet("X", 3), P, rng, max_gates=6),
        "modulus7": random_circuit(X4, 7, rng, max_gates=6),
    }
    paths = []
    for name, c in circuits.items():
        assert c is not None
        paths.append(d / f"{name}.circ")
        paths[-1].write_text(format_circuit(c))
    paths.append(d / "bad.circ")
    paths[-1].write_text("circuit c over X vars 4\n")
    paths.append(d / "missing.circ")
    return [str(path) for path in paths]


def _maybe(flag, values):
    return st.one_of(st.just(()), values.map(lambda v: (flag, str(v))))


def _main_in_process(argv):
    """cli.main's exit code, stdout and stderr.  In-process, so an
    exception that would print a Traceback fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:    # argparse refusing a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _within(seconds):
    """Fail the calling test once seconds of wall time pass, so a probe
    whose budget regressed fails instead of hanging the run."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=200)
@given(st.data())
def test_equiv_fuzz_exit_codes(equiv_files, data):
    """Any flags on small files: exit 0, 1, 2 or 3, exit 1 only with a
    distinct verdict, and never an uncaught exception (in-process, an
    exception that would print a Traceback fails the test)."""
    draw = data.draw
    argv = ["equiv", "--left", draw(st.sampled_from(equiv_files)),
            "--right", draw(st.sampled_from(equiv_files))]
    for flag, values in (
            ("--mode", st.sampled_from(["brute", "random", "exact"])),
            ("--dim", st.one_of(st.integers(-1, 5),
                                st.sampled_from([259, 448, 10 ** 9]))),
            ("--trials", st.integers(-1, 6)),
            ("--seed", st.integers(-2 ** 70, 2 ** 70)),
            ("--max-degree", st.integers(-1, 8)),
            ("--max-terms", st.integers(-1, 40))):
        argv += draw(_maybe(flag, values))
    code, out, err = _main_in_process(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out.split("\n", 1)[0] == "distinct"
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """Small seeded inputs for every command, by name: random circuits
    over 1, 2, 3 and 8 letters and one modulo 7, a circuit with a
    5,000-digit constant, two polys, two decoders, a malformed file and
    a missing one; and OUT, the path commands write to."""
    d = tmp_path_factory.mktemp("commands")
    rng = random.Random(2718)
    texts = {f"x{n}.circ": format_circuit(random_circuit(
        Alphabet("X", n), P, rng, max_gates=8, max_degree=4))
        for n in (1, 2, 3, 8)}
    texts["mod7.circ"] = format_circuit(random_circuit(
        Alphabet("X", 2), 7, rng, max_gates=6))
    texts["digits.circ"] = ("circuit c over X vars 2 modulus 7\n"
                            f"node 0 const {'9' * 5000}\noutput 0\n")
    texts["x8.poly"] = ("poly over X vars 8 modulus 1000000007\n"
                        "3 : x7\n1 : x0 x1\n")
    texts["x1.poly"] = "poly over X vars 1 modulus 7\n2 : x0 x0\n1 : 1\n"
    texts["m2.aut"] = format_automaton(build_decoder(2))
    texts["m1.aut"] = format_automaton(build_decoder(1, modulus=7))
    texts["bad.txt"] = "garbage\n"
    for name, text in texts.items():
        (d / name).write_text(text)
    return {name: str(d / name) for name in [*texts, "missing", "OUT"]}


# The last re-anchor's probes, and the 5,000-digit constant through
# every command that reads a circuit.
@pytest.mark.parametrize("argv, code", [
    (["report", "--n", "2", "--d", "3", "--t", "2",
      "--kind", "sum-of-squares"], 3),
    (["report", "--n", "2", "--d", "9", "--t", "1",
      "--kind", "single-monomial"], 3),
    (["report", "--n", "1", "--d", "2000", "--t", "1",
      "--kind", "single-monomial"], 3),
    (["report", "--n", "2", "--d", "2", "--t", "2",
      "--terms", "1000000000"], 3),
    (["report", "--n", "2", "--d", "1", "--t", "1000000",
      "--kind", "single-monomial"], 3),
    (["build-decoder", "--one-shot", "--n", "1", "--d", "1000000000",
      "--out", "OUT"], 3),
    (["expand", "--in", "digits.circ"], 2),
    (["encode", "--m", "2", "--in", "digits.circ", "--out", "OUT"], 2),
    (["decode", "--m", "2", "--in", "digits.circ", "--out", "OUT"], 2),
    (["hadamard", "--circuit", "digits.circ", "--automaton", "m2.aut",
      "--out", "OUT"], 2),
    (["equiv", "--left", "x2.circ", "--right", "digits.circ"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_probes_exit_codes(command_files, argv, code):
    with _within(5):
        got, out, err = _main_in_process([command_files.get(a, a)
                                          for a in argv])
    assert got == code
    assert out == ""
    assert err.startswith("nclift: ")
    assert "Traceback" not in err


def test_report_asking_for_more_words_than_exist_returns_them_all():
    """Over one variable at t = 1 there is one word; the draws stop
    once the family holds it, with the output of drawing to the cap."""
    with _within(5):
        code, out, err = _main_in_process(
            ["report", "--n", "1", "--d", "1", "--t", "1",
             "--terms", "200000"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "984e8fda987cf690a386eb881283541bae9021179c3dabd3a29cc0d873459cc8")


# Half of the draws valid sizes, the rest anything from -1 up.
_SMALL = st.one_of(st.integers(1, 3), st.integers(-1, 3))
_CHAIN = st.one_of(st.integers(1, 3), st.integers(-1, 3),
                   st.sampled_from([130, 10 ** 9]))
_MODULI = st.sampled_from([-7, 0, 1, 2, 3, 4, 10, 1_000_000_007])
_ONE_SHOT = st.sampled_from([(), ("--one-shot",)])
# --m alone, --n with --d, or any of the three.
_CHAIN_FLAGS = st.one_of(
    st.tuples(_maybe("--m", _CHAIN)),
    st.tuples(_maybe("--n", _CHAIN), _maybe("--d", _CHAIN)),
    st.tuples(_maybe("--m", _CHAIN), _maybe("--n", _CHAIN),
              _maybe("--d", _CHAIN))).map(lambda flags: sum(flags, ()))

# Each command's arguments: IN:<suffixes> is a file drawn half the time
# from those kinds and half the time from every file, and each other
# entry a strategy for one or more flags.
_GRAMMAR = {
    "encode": ["--in", "IN:.poly .circ", "--out", "OUT", _CHAIN_FLAGS],
    "decode": ["--in", "IN:.circ", "--out", "OUT", _CHAIN_FLAGS, _ONE_SHOT],
    "build-decoder": ["--out", "OUT", _CHAIN_FLAGS, _ONE_SHOT,
                      _maybe("--modulus", _MODULI)],
    "hadamard": ["--circuit", "IN:.circ", "--automaton", "IN:.aut",
                 "--out", "OUT"],
    "expand": ["--in", "IN:.circ", _maybe("--out", st.just("OUT")),
               _maybe("--max-degree", st.integers(-1, 8)),
               _maybe("--max-terms", st.integers(-1, 40))],
    "report": [_SMALL.map(lambda n: ("--n", str(n))),
               _SMALL.map(lambda d: ("--d", str(d))),
               _SMALL.map(lambda t: ("--t", str(t))),
               _maybe("--kind", st.sampled_from(
                   ["sum-of-squares", "random-sparse", "single-monomial",
                    "exact"])),
               _maybe("--terms", st.sampled_from([-1, 0, 1, 5])),
               _maybe("--seed", st.integers(-2 ** 70, 2 ** 70)),
               _maybe("--modulus", _MODULI)],
}


@settings(max_examples=500)
@given(st.data())
def test_command_fuzz_exit_codes(command_files, data):
    """Any flags of encode, decode, build-decoder, hadamard, expand and
    report on small files: exit 0, 2 or 3 (exit 1 is only equiv's and
    accept's), and never an uncaught exception."""
    draw = data.draw
    names = sorted(set(command_files) - {"OUT"})
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for arg in _GRAMMAR[command]:
        if not isinstance(arg, str):
            argv += draw(arg)
        elif arg.startswith("IN:"):
            kinds = [n for n in names if n.endswith(tuple(arg[3:].split()))]
            argv.append(draw(st.one_of(st.sampled_from(kinds),
                                       st.sampled_from(names))))
        else:
            argv.append(arg)
    code, _, err = _main_in_process([command_files.get(a, a) for a in argv])
    event(f"{command} exit {code}")
    assert code in (0, 2, 3)
    assert "Traceback" not in err


@settings(max_examples=8)
@given(seed=st.one_of(st.none(), st.integers(-2 ** 70, 2 ** 70)),
       modulus=st.one_of(st.none(), _MODULI))
def test_accept_fuzz_exit_codes(seed, modulus):
    """accept under any seed and modulus: exit 1, for check 5 fails on
    purpose, or 2 for a modulus that is not prime.  A run takes about
    half a second, so this gets a handful of examples."""
    argv = ["accept"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if modulus is not None:
        argv += ["--modulus", str(modulus)]
    code, _, err = _main_in_process(argv)
    assert code == (1 if modulus is None or is_prime(modulus) else 2)
    assert "Traceback" not in err


def test_report_reruns_byte_identical():
    args = ("report", "--kind", "random-sparse", "--n", "2", "--d", "2",
            "--t", "2", "--seed", "11", "--terms", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "stage k=0 N=512 deg=2 " in first.stdout
    assert "bound_factor=1\n" in first.stdout


def test_usage_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert run_cli("expand", "--in", str(bad)).returncode == 2
    assert run_cli("expand", "--in", str(tmp_path / "missing.txt")).returncode == 2
    assert run_cli("build-decoder", "--m", "2", "--modulus", "10",
                   "--out", str(tmp_path / "x.aut")).returncode == 2


def test_budget_exit_3(circuit_file):
    r = run_cli("expand", "--in", str(circuit_file), "--max-terms", "1")
    assert r.returncode == 3
    assert "budget" in r.stderr


def test_equiv_dimension_budget_exit_3(circuit_file, capsys):
    # The circuit reads x0, x1 and x7: 259^2 * 3 entries per point.
    argv = ["equiv", "--mode", "random", "--dim", "259", "--left",
            str(circuit_file), "--right", str(circuit_file)]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nclift: budget exceeded: dimension 259 needs "
                            "201243 matrix entries, budget is 200000\n")


def test_synthesis_budget_exit_3(tmp_path, capsys, monkeypatch):
    circuit = tmp_path / "c.circ"
    b = CircuitBuilder(Alphabet("Y", 2), P, name="c")
    code_word = b.mul(b.mul(b.var(0), b.var(1)), b.var(0))
    circuit.write_text(format_circuit(b.finish(code_word)))
    automaton = tmp_path / "d.aut"
    automaton.write_text(format_automaton(build_decoder(2, modulus=P)))
    monkeypatch.setattr(hadamard, "MAX_NODES", 1)
    code = cli.main(["hadamard", "--circuit", str(circuit), "--automaton",
                     str(automaton), "--out", str(tmp_path / "h.circ")])
    assert code == 3
    assert capsys.readouterr().err == (
        "nclift: budget exceeded: node 2: synthesis emitted 2 nodes, "
        "budget is 1\n")


def test_decode_synthesis_budget_prints_the_failing_stage(tmp_path, capsys,
                                                         monkeypatch):
    """The decode walk hands over each stage before its synthesis, so the
    stage that runs out of budget still prints its witness line."""
    b = CircuitBuilder(Alphabet("X", 512), P, name="g")
    c = b.finish(b.add(b.mul(b.var(5), b.var(300)),
                       b.mul(b.const(3), b.var(511))))
    src, out = tmp_path / "enc.circ", tmp_path / "dec.circ"
    src.write_text(format_circuit(iterate_encoder(c, 2, 2)))
    monkeypatch.setattr(hadamard, "MAX_NODES", 1)
    code = cli.main(["decode", "--n", "2", "--d", "2", "--in", str(src),
                     "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ("hadamard q=5 in_gates=19 out_gates=4300 "
                            "bound=4975 ok=1\n")
    assert captured.err == ("nclift: budget exceeded: node 1: synthesis "
                            "emitted 5 nodes, budget is 1\n")
    assert not out.exists()


def one_node_circuit(path, letters):
    b = CircuitBuilder(Alphabet("Y", letters), P, name="c")
    path.write_text(format_circuit(b.finish(b.var(0))))
    return str(path)


@pytest.mark.parametrize("argv, transitions", [
    (["build-decoder", "--m", "130"], 130 ** 3 + 2 * 130),
    (["decode", "--m", "130", "--in", 130], 130 ** 3 + 2 * 130),
    # The m=2 and m=8 stages fit; m=512 fails before any synthesis.
    (["decode", "--n", "2", "--d", "3", "--in", 2], 512 ** 3 + 2 * 512),
])
def test_decoder_budget_exit_3(tmp_path, capsys, argv, transitions):
    argv = [one_node_circuit(tmp_path / "c.circ", a) if isinstance(a, int)
            else a for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"nclift: budget exceeded: decoder needs "
                            f"{transitions} transitions, budget is "
                            f"2000000\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, size", [
    (["report", "--n", "2", "--d", "9", "--t", "1", "--kind",
      "single-monomial"], "2^(3^9)"),
    (["encode", "--n", "2", "--d", "9", "--in", 2], "2^(3^9)"),
    # build_decoder refuses the alphabet before its own budget message
    # would print a state count of thousands of digits.
    (["decode", "--one-shot", "--n", "8", "--d", "9", "--in", 8],
     "8^(3^9)"),
])
def test_deep_chain_budget_exit_3(tmp_path, capsys, argv, size):
    """Chain sizes past CPython's 4300-digit int printing limit are
    refused as a budget, named as a power, not printed."""
    argv = [one_node_circuit(tmp_path / "c.circ", a) if isinstance(a, int)
            else a for a in argv]
    if argv[0] != "report":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    n, d = argv[argv.index("--n") + 1], argv[argv.index("--d") + 1]
    assert captured.err == (f"nclift: budget exceeded: a depth-{d} chain "
                            f"down to {n} letters has {size} variables, "
                            f"more than 4300 decimal digits\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("d, message", [
    ("20", "decoder needs 3486784401 states, budget is 50000"),
    ("10000", "a one-shot decoder over 1 letter at depth 10000 has "
              "3^10000 states, more than 4300 decimal digits"),
    ("1000000000", "a one-shot decoder over 1 letter at depth 1000000000 "
                   "has 3^1000000000 states, more than 4300 decimal digits"),
])
def test_one_letter_one_shot_decoder_exit_3(tmp_path, capsys, d, message):
    """A one-letter decoder has 3^d states; the budget refuses it at
    once, naming a count past 4300 digits as a power."""
    out = tmp_path / "x.aut"
    assert cli.main(["build-decoder", "--one-shot", "--n", "1", "--d", d,
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"nclift: budget exceeded: {message}\n"
    assert not out.exists()


def test_one_letter_chain_report_exit_3(capsys):
    """At n = 1 every stage keeps one letter and the chain never meets
    the variable budget; the kept-size budget refuses it instead."""
    assert cli.main(["report", "--n", "1", "--d", "2000", "--t", "1",
                     "--kind", "single-monomial"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nclift: budget exceeded: stage 496 of a "
                            "depth-2000 chain down to 1 letters could take "
                            "the chain past 250000 nodes\n")
    assert cli.main(["report", "--n", "1", "--d", "20", "--t", "1",
                     "--kind", "single-monomial"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8d7b21e41d60f215b331500d0b1ec559db56797db0124d3a47855d9d802ac9fc")


def test_one_letter_poly_chain_encode_exit_3(tmp_path, capsys):
    src = tmp_path / "x.poly"
    src.write_text("poly over X vars 1 modulus 7\n1 : x0\n")
    out = tmp_path / "out"
    assert cli.main(["encode", "--n", "1", "--d", "2000", "--in", str(src),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "nclift: budget exceeded: stage 11 of a depth-2000 chain down to 1 "
        "letters could take the chain past 250000 word letters\n")
    assert not out.exists()


def test_largest_printable_chain_report_is_pinned(capsys):
    """report --n 2 --d 8 prints N_0 = 2^6561 (1976 digits), under the
    size budget, byte for byte as before the budget."""
    assert cli.main(["report", "--n", "2", "--d", "8", "--t", "1",
                     "--kind", "single-monomial"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2e67f0f650ac93a6ad1d96b06ab5384fa022b6993d7f5ee725a7c1d406442b2a")


NOT_BOTH = "give either --m or --n with --d, not both"


@pytest.mark.parametrize("argv, message", [
    # --m with --n or --d is refused by every command that takes them.
    (["build-decoder", "--m", "2", "--n", "3", "--d", "2"], NOT_BOTH),
    (["build-decoder", "--m", "2", "--one-shot", "--n", "2", "--d", "1"],
     NOT_BOTH),
    (["decode", "--one-shot", "--m", "2", "--n", "2", "--d", "2",
      "--in", 2], NOT_BOTH),
    (["decode", "--m", "2", "--n", "2", "--d", "2", "--in", 2], NOT_BOTH),
    (["encode", "--m", "2", "--n", "2", "--d", "2", "--in", 8], NOT_BOTH),
    (["build-decoder", "--one-shot", "--m", "2"],
     "--one-shot needs --n and --d"),
    (["decode", "--one-shot", "--n", "2", "--in", 2],
     "--one-shot needs --n and --d"),
    (["build-decoder", "--n", "2", "--d", "2"],
     "give --m, or --n and --d with --one-shot"),
    (["encode", "--n", "2", "--in", 8], "give either --m or both --n and --d"),
])
def test_chain_flag_errors_exit_2(tmp_path, capsys, argv, message):
    argv = [one_node_circuit(tmp_path / "c.circ", a) if isinstance(a, int)
            else a for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nclift: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("decode", "decode chain starts from 2 letters, circuit has 8"),
    ("hadamard", "circuit reads 8 letters, automaton has 2"),
])
def test_letter_count_mismatch_exit_2(tmp_path, capsys, command, message):
    circuit = one_node_circuit(tmp_path / "c.circ", 8)
    if command == "decode":
        argv = ["decode", "--m", "2", "--in", circuit]
    else:
        automaton = tmp_path / "d.aut"
        automaton.write_text(format_automaton(build_decoder(2)))
        argv = ["hadamard", "--circuit", circuit,
                "--automaton", str(automaton)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nclift: {message}\n"
    assert not out.exists()


def test_modulus_flag(tmp_path):
    out = tmp_path / "d.aut"
    r = run_cli("build-decoder", "--m", "2", "--modulus", "101",
                "--out", str(out))
    assert r.returncode == 0
    assert "modulus 101" in out.read_text().splitlines()[0]


def test_modulus_environment_variable_is_not_read(tmp_path):
    # --modulus is the one way to set the modulus; the environment is
    # not read.
    out = tmp_path / "d.aut"
    r = run_cli("build-decoder", "--m", "2", "--out", str(out),
                env_extra={"NCLIFT_MODULUS": "97"})
    assert r.returncode == 0
    assert "modulus 1000000007" in out.read_text().splitlines()[0]


@pytest.mark.parametrize("command", [
    ["encode", "--m", "2", "--in", "IN", "--out", "OUT"],
    ["hadamard", "--circuit", "IN", "--automaton", "IN", "--out", "OUT"],
    ["decode", "--m", "2", "--in", "IN", "--out", "OUT"],
    ["expand", "--in", "IN"],
    ["equiv", "--left", "IN", "--right", "IN"],
], ids=lambda command: command[0])
def test_modulus_flag_refused_where_files_carry_it(circuit_file, tmp_path,
                                                   capsys, command):
    # These commands read their modulus from their files, so a --modulus
    # they would ignore is a usage error, not a silent no-op.
    paths = {"IN": str(circuit_file), "OUT": str(tmp_path / "out")}
    argv = [paths.get(a, a) for a in command]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--modulus", "11"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --modulus 11\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_accept_reports_and_flags_failure():
    # Check 5's state count sits above its advertised target, so it
    # alone fails, and accept exits 1.
    r = run_cli("accept")
    assert r.stdout == ACCEPT_LINES.read_text()
    assert r.returncode == 1
