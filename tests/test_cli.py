import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nclift import (Alphabet, CircuitBuilder, build_decoder, cli,
                    format_automaton, format_circuit, hadamard,
                    iterate_decoder, iterate_encoder, one_shot_decode_circuit,
                    parse_poly)

P = 1_000_000_007
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("NCLIFT_MODULUS", None)
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


def test_main_twice_in_one_process(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; a flag given to one call
    (--one-shot) must not carry over to the next."""
    monkeypatch.delenv("NCLIFT_MODULUS", raising=False)
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
    assert [w.letters for w in f.support()] == [(1, 1, 1),
                                                (0, 0, 0, 0, 0, 1)]


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
def test_decoder_budget_exit_3(tmp_path, capsys, monkeypatch, argv,
                               transitions):
    monkeypatch.delenv("NCLIFT_MODULUS", raising=False)
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
def test_chain_flag_errors_exit_2(tmp_path, capsys, monkeypatch, argv,
                                  message):
    monkeypatch.delenv("NCLIFT_MODULUS", raising=False)
    argv = [one_node_circuit(tmp_path / "c.circ", a) if isinstance(a, int)
            else a for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nclift: {message}\n"
    assert not out.exists()


def test_modulus_env_and_flag(tmp_path):
    out = tmp_path / "d.aut"
    r = run_cli("build-decoder", "--m", "2", "--out", str(out),
                env_extra={"NCLIFT_MODULUS": "97"})
    assert r.returncode == 0
    assert "modulus 97" in out.read_text().splitlines()[0]
    r = run_cli("build-decoder", "--m", "2", "--modulus", "101",
                "--out", str(out), env_extra={"NCLIFT_MODULUS": "97"})
    assert r.returncode == 0
    assert "modulus 101" in out.read_text().splitlines()[0]
    assert run_cli("build-decoder", "--m", "2", "--out", str(out),
                   env_extra={"NCLIFT_MODULUS": "91"}).returncode == 2


def test_accept_reports_and_flags_failure():
    r = run_cli("accept")
    lines = r.stdout.splitlines()
    assert len(lines) == 9
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"check {i} ")
        assert line.split()[2] in ("pass", "fail")
    # The one-shot state-count floor is above the advertised target, so
    # check 5 reports fail and the command signals it.
    assert lines[4].split()[2] == "fail"
    assert sum(1 for l in lines if l.split()[2] == "pass") == 8
    assert r.returncode == 1
