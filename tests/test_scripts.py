"""The example scripts, run in-process with their README arguments."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

LIFT_DEMO_STDOUT = """\
family random-sparse N=512 t=2 seed=1729
  k          N_k    deg_k      gates   bound_factor
  0          512        2          8          10115
  1            8        6         20            275
  2            2       18         50              1
bound factor per decode stage: 2*q^3 + q^2 with q = 2*N_{k+1} + 1 \
(exponent 3, plain matrix product)

hadamard q=5 in_gates=50 out_gates=11600 bound=13250 ok=1
decode 2 -> 8 letters: ok
hadamard q=17 in_gates=20 out_gates=175134 bound=199410 ok=1
decode 8 -> 512 letters: ok
round trip exact
"""

# At d = 3 the chain runs 2^27 -> 512 -> 8 -> 2 letters; the demo
# decodes the two stages of at most 8 letters and stops at 512.
LIFT_DEMO_STOP_STDOUT = """\
family random-sparse N=134217728 t=1 seed=1729
  k          N_k    deg_k      gates   bound_factor
  0    134217728        1          3     2154831875
  1          512        3          7          10115
  2            8        9         19            275
  3            2       27         47              1
bound factor per decode stage: 2*q^3 + q^2 with q = 2*N_{k+1} + 1 \
(exponent 3, plain matrix product)

hadamard q=5 in_gates=47 out_gates=11050 bound=12425 ok=1
decode 2 -> 8 letters: ok
hadamard q=17 in_gates=19 out_gates=174267 bound=189006 ok=1
decode 8 -> 512 letters: ok
stage 1: alphabet 512 too wide to decode here, stop
"""

# 31 lines: a header and ten trials for each of m = 2, 3, 4.
SIZE_SWEEP_SHA256 = (
    "2d558ec91fc0edcacb66995ae1238fb325497d00d9c3c219ec083fed60992c00")


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lift_demo_stdout(capsys):
    argv = ["--n", "2", "--d", "2", "--t", "2", "--kind", "random-sparse"]
    assert load("lift_demo").main(argv) == 0
    assert capsys.readouterr().out == LIFT_DEMO_STDOUT


def test_lift_demo_stops_at_the_first_wide_alphabet(capsys):
    argv = ["--n", "2", "--d", "3", "--t", "1", "--terms", "2"]
    assert load("lift_demo").main(argv) == 0
    assert capsys.readouterr().out == LIFT_DEMO_STOP_STDOUT


def test_size_sweep_stdout(capsys):
    assert load("size_sweep").main(["--max-m", "4", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["m", "q", "in_gates", "folded",
                                           "prefold", "budget", "ok"]
    assert len(out.splitlines()) == 31
    assert hashlib.sha256(out.encode()).hexdigest() == SIZE_SWEEP_SHA256


@pytest.mark.parametrize("name", ["lift_demo", "size_sweep"])
@pytest.mark.parametrize("modulus", ["4", "1", "x"])
def test_bad_modulus_is_a_usage_error(capsys, name, modulus):
    # Exit 2, argparse's usage code; 1 would read as a failed witness.
    with pytest.raises(SystemExit) as exc:
        load(name).main(["--modulus", modulus])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: argument --modulus: invalid prime value: "
            f"'{modulus}'\n") in captured.err


def test_bench_counts_record_covers_every_workload():
    """The committed counts hold one record per seed, each naming every
    workload and count the check compares, and a moved count is
    reported by name."""
    bench = load("bench_counts")
    records = json.loads(bench.COUNTS_FILE.read_text())
    assert [record["seed"] for record in records] == list(bench.SEEDS)
    for record in records:
        counts = record["counts"]
        assert sorted(counts) == sorted(bench.WORKLOADS)
        for values in counts.values():
            assert sorted(values) == sorted(bench.COUNTS)
        assert bench.moved(counts, counts) == []
    counts = records[0]["counts"]
    moved = {w: dict(v) for w, v in counts.items()}
    was = counts["chain-small"]["hadamard.gates_emitted"]
    moved["chain-small"]["hadamard.gates_emitted"] = was + 1
    assert bench.moved(counts, moved) == [
        f"chain-small hadamard.gates_emitted: {was} -> {was + 1}"]
