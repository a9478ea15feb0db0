import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclift import (DEFAULT_MODULUS, Alphabet, FormatError, NCPolynomial,
                    WeightedAutomaton, build_decoder, build_one_shot_decoder,
                    circuit_from_poly, cli, format_automaton, format_circuit,
                    format_poly, parse_automaton, parse_circuit, parse_poly)
from nclift.randcircuits import random_circuit

from helpers import random_automaton, random_poly, reference_parse_circuit

P = DEFAULT_MODULUS
X3 = Alphabet("X", 3)

POLY_GOLDEN = """\
poly over X vars 3 modulus 1000000007
7 : 1
3 : x2
1 : x0 x1
"""

CIRCUIT_GOLDEN = """\
circuit g over X vars 3 modulus 1000000007
node 0 var 2
node 1 const 3
node 2 mul 1 0
node 3 var 0
node 4 var 1
node 5 mul 3 4
node 6 add 2 5
output 6
"""


LONG_CIRCUIT = """\
circuit h over Y vars 4 modulus 101
node 0 var 3
node 1 const 3
node 2 var 0
node 3 mul 0 2
node 4 const 100
node 5 add 3 1
node 6 mul 5 4
node 7 var 1
node 8 add 6 7
node 9 mul 8 8
node 10 const 0
node 11 add 9 10
output 11
"""


def test_poly_golden_format():
    f = NCPolynomial(X3, P, {(): 7, (0, 1): 1, (2,): 3})
    assert format_poly(f) == POLY_GOLDEN
    assert parse_poly(POLY_GOLDEN) == f


def test_circuit_golden_format():
    f = NCPolynomial(X3, P, {(0, 1): 1, (2,): 3})
    c = circuit_from_poly(f, name="g")
    assert format_circuit(c) == CIRCUIT_GOLDEN
    assert parse_circuit(CIRCUIT_GOLDEN) == c


def test_decoder_golden_format():
    dec = build_decoder(2, modulus=P)
    text = format_automaton(dec)
    lines = text.splitlines()
    assert lines[0] == ("automaton over Y letters 2 states 5 start 0 "
                        "accept 0 xvars 8 modulus 1000000007")
    assert lines[1] == "trans 0 y0 1 scalar 1"
    assert lines[3] == "trans 1 y0 3 term 1 x0"
    assert len(lines) == 13
    assert parse_automaton(text) == build_decoder(2, modulus=P)


def test_poly_round_trip_random(rng):
    for _ in range(40):
        f = random_poly(rng, X3, P, max_len=4, terms=6)
        text = format_poly(f)
        assert parse_poly(text) == f
        assert format_poly(parse_poly(text)) == text


def test_circuit_round_trip_random(rng):
    for _ in range(40):
        c = random_circuit(X3, P, rng, max_gates=10, max_degree=4)
        text = format_circuit(c)
        assert parse_circuit(text) == c
        assert format_circuit(parse_circuit(text)) == text


def test_automaton_round_trip_random(rng):
    for _ in range(20):
        a = random_automaton(rng, modulus=97)
        text = format_automaton(a)
        assert parse_automaton(text) == a
        assert format_automaton(parse_automaton(text)) == text
    big = build_one_shot_decoder(2, 2, modulus=P)
    assert parse_automaton(format_automaton(big)) == big


def test_parse_x_name_default():
    # The x alphabet's name is not stored in the file.
    dec = build_decoder(2, modulus=P)
    renamed = WeightedAutomaton(dec.y_alphabet, Alphabet("Q", 8), P,
                                dec.num_states, dec.start, dec.accept,
                                dec.transitions)
    assert format_automaton(renamed) == format_automaton(dec)
    back = parse_automaton(format_automaton(renamed))
    assert back.x_alphabet.name == "X"
    assert back == dec


def with_comments(text):
    """text with a '#' line and a blank line after its header, and a
    trailing comment on each line of its body."""
    head, *body = text.splitlines()
    return "\n".join([head, "# a remark", ""]
                     + [f"{line}  # note" for line in body]) + "\n"


@pytest.mark.parametrize("parse, fmt, text", [
    (parse_poly, format_poly, POLY_GOLDEN),
    (parse_circuit, format_circuit, CIRCUIT_GOLDEN),
    (parse_automaton, format_automaton,
     format_automaton(build_decoder(2, modulus=7))),
], ids=["poly", "circuit", "automaton"])
def test_comments_and_blanks_ignored(parse, fmt, text):
    commented = with_comments(text)
    assert commented.count("#") == text.count("\n")
    assert parse(commented) == parse(text)
    assert fmt(parse(commented)) == text


def test_circuit_header_must_come_first(tmp_path, capsys):
    """Comments and blank lines are accepted only after the header."""
    text = "# c\n" + CIRCUIT_GOLDEN
    with pytest.raises(FormatError, match=r"^bad circuit header: '# c'$"):
        parse_circuit(text)
    path = tmp_path / "c.circ"
    path.write_text(text)
    assert cli.main(["expand", "--in", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"nclift: {path}: unrecognized file (expected a poly, circuit, "
        f"or automaton header)\n")


def test_readme_examples_parse():
    """The code blocks of README's "File formats" section are canonical."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    examples = section.split("```\n")[1::2]
    parsers = {"poly": (parse_poly, format_poly),
               "circuit": (parse_circuit, format_circuit),
               "automaton": (parse_automaton, format_automaton)}
    assert [text.split()[0] for text in examples] == list(parsers)
    for text in examples:
        parse, fmt = parsers[text.split()[0]]
        assert fmt(parse(text)) == text


def test_negative_coefficients_normalize():
    f = parse_poly("poly over X vars 2 modulus 7\n-1 : x0\n")
    assert f.coeff((0,)) == 6


@pytest.mark.parametrize("text,fragment", [
    ("nonsense\n1 : x0\n", "header"),
    ("poly over X vars 2 modulus 8\n", "not prime"),
    ("poly over X vars 2 modulus 7\n1 : x5\n", "line 2"),
    ("poly over X vars 2 modulus 7\n1 : bogus\n", "line 2"),
    ("poly over X vars 2 modulus 7\n1 : x0\n2 : x0\n", "line 3"),
    ("poly over X vars 2 modulus 7\nq : x0\n", "line 2"),
    # Numbers are decimal digits: int() would also take these.
    ("poly over X vars +2 modulus 7\n1 : x0\n", "bad poly header: "),
    ("poly over X vars 1_0 modulus 7\n1 : x0\n", "bad poly header: "),
    ("poly over X vars 2 modulus +7\n1 : x0\n", "bad poly header: "),
    ("poly over X vars 2 modulus 7\n+3 : x0\n", "line 2: "),
    ("poly over X vars 2 modulus 7\n1_0 : x0\n", "line 2: "),
])
def test_parse_poly_rejects(text, fragment):
    with pytest.raises((FormatError, ValueError)) as err:
        parse_poly(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", [
    "circuit g over X vars 2 modulus 7\nnode 1 var 0\noutput 1\n",
    "circuit g over X vars 2 modulus 7\nnode 0 var 0\n",
    "circuit g over X vars 2 modulus 7\nnode 0 add 0 0\noutput 0\n",
    "circuit g over X vars 2 modulus 7\nnode 0 var 0\noutput 0\noutput 0\n",
    "circuit g over X vars 2 modulus 7\nnode 0 frob 1\noutput 0\n",
    # Numbers are decimal digits: int() would also take these.
    "circuit g over X vars +2 modulus 7\nnode 0 var 0\noutput 0\n",
    "circuit g over X vars 1_1 modulus 7\nnode 0 var 0\noutput 0\n",
    "circuit g over X vars 2 modulus 7\nnode 0 var +1\noutput 0\n",
    "circuit g over X vars 11 modulus 7\nnode 0 var 1_0\noutput 0\n",
    "circuit g over X vars 2 modulus 7\nnode 0 const +3\noutput 0\n",
    "circuit g over X vars 2 modulus 7\nnode 0 const 1_0\noutput 0\n",
    ("circuit g over X vars 2 modulus 7\nnode 0 var 0\nnode 1 var 1\n"
     "node 2 mul 0 +1\noutput 2\n"),
])
def test_parse_circuit_rejects(text):
    with pytest.raises(FormatError, match=r"^(line \d+|bad circuit header|"
                                          r"node \d+|missing output)"):
        parse_circuit(text)


HEAD2 = "circuit g over X vars 2 modulus 7\n"


@pytest.mark.parametrize("text, message", [
    (HEAD2 + "node 0 var 0\nnode 1 add 0 1\noutput 1\n",
     "node 1: child 1 is not strictly below its parent"),
    (HEAD2 + "node 0 var 0\nnode 1 mul 3 0\noutput 1\n",
     "node 1: child 3 is not strictly below its parent"),
    (HEAD2 + "node 0 var 2\noutput 0\n",
     "node 0: variable x2 outside alphabet of size 2"),
    (HEAD2 + "output 0\n", "circuit has no nodes"),
    (HEAD2 + "node 0 var 0\noutput 1\n", "output 1 is not a node id"),
    ("circuit g! over X vars 2 modulus 7\nnode 0 var 0\noutput 0\n",
     "bad identifier 'g!': single token required"),
    ("circuit " + "g" * 50 + "! over X vars 2 modulus 7\nnode 0 var 0\n"
     "output 0\n", "bad identifier 'gggggggggggggggggggggggggggggggggggggggg'"
     "... (51 characters): single token required"),
    # When a text breaks several rules, the one reported is fixed: a line
    # that does not parse, then a missing output, then the name, then
    # no nodes, then the first bad node, then the output.
    ("circuit g! over X vars 2 modulus 7\nnode 0 add 0 0\noutput 0\n",
     "bad identifier 'g!': single token required"),
    ("circuit g! over X vars 2 modulus 7\noutput 0\n",
     "bad identifier 'g!': single token required"),
    (HEAD2 + "node 0 add 0 0\nnode 1 frob\noutput 0\n",
     "line 3: expected a node line"),
    (HEAD2 + "node 0 add 0 0\n", "missing output line"),
    (HEAD2 + "node 0 var 0\nnode 1 var 5\nnode 2 add 0 9\noutput 2\n",
     "node 1: variable x5 outside alphabet of size 2"),
    (HEAD2 + "node 0 var 5\noutput 4\n",
     "node 0: variable x5 outside alphabet of size 2"),
    (HEAD2 + "node 0 var 0\nnode 1 add 1 0\noutput 1\noutput 1\n",
     "line 5: duplicate output line"),
])
def test_parse_circuit_refuses_nodes_by_exact_message(text, message):
    with pytest.raises(FormatError) as err:
        parse_circuit(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", [
    "automaton over Y letters 2 states 2 start 0 accept 5 xvars 2 modulus 7\n",
    ("automaton over Y letters 2 states 2 start 0 accept 1 xvars 2 modulus 7\n"
     "trans 0 y9 1 scalar 1\n"),
    ("automaton over Y letters 2 states 2 start 0 accept 1 xvars 2 modulus 7\n"
     "trans 0 y0 1 blob 1\n"),
    ("automaton over Y letters 2 states 2 start 0 accept 1 xvars 2 modulus 7\n"
     "trans 0 y0 1 scalar wat\n"),
    # Numbers are decimal digits: int() would also take these.
    "automaton over Y letters 2 states +2 start 0 accept 1 xvars 2 modulus 7\n",
    "automaton over Y letters 2 states 1_0 start 0 accept 1 xvars 2 modulus 7\n",
    ("automaton over Y letters 2 states 12 start 0 accept 1 xvars 2 modulus 7\n"
     "trans 1_0 y0 1 scalar 1\n"),
    ("automaton over Y letters 2 states 2 start 0 accept 1 xvars 2 modulus 7\n"
     "trans +0 y0 1 scalar 1\n"),
    ("automaton over Y letters 2 states 2 start 0 accept 1 xvars 2 modulus 7\n"
     "trans 0 y0 1 scalar +1\n"),
    ("automaton over Y letters 2 states 2 start 0 accept 1 xvars 2 modulus 7\n"
     "trans 0 y0 1 term 1_0 x1\n"),
])
def test_parse_automaton_rejects(text):
    with pytest.raises(FormatError, match=r"^(line \d+|bad automaton header|"
                                          r"accept state)"):
        parse_automaton(text)


VALID_TEXTS = (POLY_GOLDEN, CIRCUIT_GOLDEN,
               format_automaton(build_decoder(2, modulus=7)))
TOKENS = st.one_of(
    st.sampled_from(["poly", "circuit", "automaton", "over", "vars",
                     "modulus", "letters", "states", "start", "accept",
                     "xvars", "node", "var", "const", "add", "mul", "output",
                     "trans", "scalar", "term", "x0", "x9", "y1", "y",
                     ":", "#", "", "-", "+7", "0x1f", "1e3", "X", "Y"]),
    st.integers(-3, 10 ** 12).map(str))


@st.composite
def mutated_texts(draw, texts=st.sampled_from(VALID_TEXTS)):
    """A valid poly, circuit or automaton text (or one drawn from
    `texts`) after 1-4 token or character mutations: a token replaced,
    inserted or deleted, or a character replaced, inserted or
    deleted."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lines = [line.split(" ") for line in text.split("\n")]
            row = lines[draw(st.integers(0, len(lines) - 1))]
            at = draw(st.integers(0, len(row)))
            op = draw(st.sampled_from(["replace", "insert", "delete"]))
            if op != "insert" and at < len(row):
                del row[at]
            if op != "delete":
                row.insert(at, draw(TOKENS))
            text = "\n".join(" ".join(row) for row in lines)
        else:
            at = draw(st.integers(0, len(text)))
            op = draw(st.sampled_from(["replace", "insert", "delete"]))
            char = draw(st.characters(codec="utf-8")) if op != "delete" else ""
            text = text[:at] + char + text[at + (op != "insert"):]
    return text


@settings(max_examples=400)
@given(mutated_texts())
def test_parsers_raise_only_format_errors(text):
    for parse in (parse_poly, parse_circuit, parse_automaton):
        try:
            parse(text)
        except FormatError as exc:
            assert "invalid literal" not in str(exc)


ARITY_CIRCUIT = ("circuit g over X vars 3 modulus 7\n"
                 "node 0 var 2\n"
                 "{line}\n"
                 "output 1\n")


@pytest.mark.parametrize("line, message", [
    ("node 1 add 0", "line 3: bad node arguments"),
    ("node 1 mul 0 0 0", "line 3: bad node arguments"),
    ("node 1 var 1 2", "line 3: bad node arguments"),
    ("node 1 const", "line 3: expected a node line"),
    ("node 1 const 1 2", "line 3: bad node arguments"),
    ("node 1 frob 0", "line 3: bad node kind 'frob'"),
    ("node 1 Add 0 0", "line 3: bad node kind 'Add'"),
    ("node 1 output 0 0", "line 3: bad node kind 'output'"),
])
def test_node_line_kind_and_arity_messages(line, message):
    """An unknown kind is a bad kind; a known kind with the wrong number
    of arguments has bad arguments."""
    with pytest.raises(FormatError) as err:
        parse_circuit(ARITY_CIRCUIT.format(line=line))
    assert str(err.value) == message


UNICODE_SPACES = ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003",
                  "\u2028", "\u3000"]
# Arabic-Indic, fullwidth and Devanagari digits pass str.isdecimal and
# int() reads them; superscripts pass neither.
OTHER_DIGITS = ["\u0663", "\uff17", "\u0967", "\u00b9", "\u2076"]


@st.composite
def circuit_variants(draw):
    """A valid circuit text with the rules of the text format exercised:
    comments, blank lines, tabs, CR LF, vertical tabs and Unicode
    spaces, non-ASCII digits, negative or unreduced constants and the
    output line first.  Most variants still parse; some (a line
    separator inside a line, a digit no parser takes) must not."""
    text = draw(st.sampled_from([CIRCUIT_GOLDEN, SMALL_CIRCUIT,
                                 LONG_CIRCUIT]))
    head, *body = text.splitlines()
    if draw(st.booleans()):
        out = next(i for i, line in enumerate(body)
                   if line.startswith("output"))
        body.insert(0, body.pop(out))
    if draw(st.booleans()):
        body = [line.replace("const 3", draw(st.sampled_from(
            ["const -3", "const -0", "const 1000000010", "const -1000000010",
             "const 10", "const -"]))) for line in body]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        body.insert(at, draw(st.sampled_from(
            ["", "   ", "\t", "# note", "  # node 9 var 0", "#"])))
    lines = [head, *body]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["comment", "space", "digit", "pad"]))
        line = lines[i]
        if edit == "comment":
            line += draw(st.sampled_from(["  # c", "#", "\t# x 1 2", "# é"]))
        elif edit == "pad":
            line = draw(st.sampled_from(UNICODE_SPACES)) + line + " "
        elif edit == "space" and " " in line:
            at = draw(st.sampled_from(
                [k for k, c in enumerate(line) if c == " "]))
            line = (line[:at] + draw(st.sampled_from(UNICODE_SPACES))
                    + line[at + 1:])
        elif edit == "digit" and any(c.isdigit() for c in line):
            at = draw(st.sampled_from(
                [k for k, c in enumerate(line) if c.isdigit()]))
            line = (line[:at] + draw(st.sampled_from(OTHER_DIGITS))
                    + line[at + 1:])
        lines[i] = line
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(max_examples=600)
@given(st.one_of(circuit_variants(), mutated_texts(circuit_variants())))
def test_parse_circuit_matches_reference(text):
    """The parser returns the circuit the reference parser returns, or
    raises FormatError with its message; the one difference is a known
    node kind with the wrong number of arguments."""
    got = parse_outcome(parse_circuit, text)
    want = parse_outcome(reference_parse_circuit, text)
    if isinstance(want, str):
        want = re.sub(r"bad node kind '(var|const|add|mul)'$",
                      "bad node arguments", want)
    assert got == want


def test_cli_exits_2_on_a_mutated_file(tmp_path, capsys):
    bad = tmp_path / "bad.circ"
    bad.write_text(CIRCUIT_GOLDEN.replace("node 2 mul 1 0", "node 2 mul 1 9"))
    assert cli.main(["expand", "--in", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("nclift: ")


@pytest.mark.parametrize("parse, text", [
    (parse_poly, POLY_GOLDEN.replace("x0 x1", "x\u00b9")),
    (parse_circuit, CIRCUIT_GOLDEN.replace("node 6", "node \u00b9")),
    (parse_circuit, CIRCUIT_GOLDEN.replace("output 6", "output \u2076")),
    (parse_automaton, VALID_TEXTS[2].replace(" y1 ", " y\u00b9 ")),
], ids=["poly-letter", "circuit-node", "circuit-output", "automaton-letter"])
def test_superscript_digits_are_format_errors(parse, text):
    """str.isdigit accepts superscripts, which int() rejects."""
    with pytest.raises(FormatError):
        parse(text)


SMALL_CIRCUIT = "circuit g over X vars 3 modulus 7\nnode 0 var 2\noutput 0\n"
LONG = "9" * 5000


@pytest.mark.parametrize("parse, text, old, new, where", [
    (parse_circuit, CIRCUIT_GOLDEN, "const 3", f"const {LONG}",
     "line 3: number too long (5000 characters)"),
    (parse_circuit, SMALL_CIRCUIT, "vars 3", f"vars {LONG}",
     "line 1: number too long (5000 characters)"),
    (parse_poly, POLY_GOLDEN, "x0 x1", f"x{LONG}",
     "line 4: number too long (5001 characters)"),
    (parse_poly, POLY_GOLDEN, "3 : x2", f"{LONG} : x2",
     "line 3: number too long (5000 characters)"),
    (parse_automaton, VALID_TEXTS[2], "trans 0 y0 1 scalar 1",
     f"trans 0 y{LONG} 1 scalar 1",
     "line 2: number too long (5001 characters)"),
], ids=["circuit-const", "circuit-header", "poly-letter", "poly-coeff",
        "automaton-letter"])
def test_long_numbers_are_format_errors(parse, text, old, new, where):
    """int() refuses more than 4300 digits; the parsers name the line
    and the token's length, and echo no token."""
    assert old in text
    with pytest.raises(FormatError, match=f"^{re.escape(where)}$"):
        parse(text.replace(old, new, 1))


WORD = "a" * 5000
HEAD = "a" * 40


@pytest.mark.parametrize("parse, text, old, new, where", [
    (parse_poly, POLY_GOLDEN, "x0 x1", f"x{WORD}",
     f"line 4: expected x<index>, got 'x{HEAD[1:]}'... (5001 characters)"),
    (parse_poly, POLY_GOLDEN, "3 : x2", f"{WORD} : x2",
     f"line 3: bad coefficient '{HEAD}'... (5000 characters)"),
    (parse_poly, POLY_GOLDEN, "poly over", f"{WORD} over",
     f"bad poly header: '{HEAD}'... (5033 characters)"),
    (parse_automaton, VALID_TEXTS[2], "trans 0 y0 1 scalar 1",
     f"trans 0 y0 1 scalar {WORD}",
     f"line 2: bad coefficient '{HEAD}'... (5000 characters)"),
    (parse_automaton, VALID_TEXTS[2], "trans 0 y0 1 scalar 1",
     f"trans 0 y0 1 {WORD} 1",
     f"line 2: bad weight '{HEAD}'... (5000 characters)"),
    (parse_automaton, VALID_TEXTS[2], "trans 0 y0 1 scalar 1",
     f"trans 0 y{WORD} 1 scalar 1",
     f"line 2: expected y<index>, got 'y{HEAD[1:]}'... (5001 characters)"),
    (parse_circuit, CIRCUIT_GOLDEN, "node 0 var 2", f"node 0 {WORD} 2",
     f"line 2: bad node kind '{HEAD}'... (5000 characters)"),
    (parse_circuit, CIRCUIT_GOLDEN, "circuit g over",
     f"circuit 1{WORD} over",
     f"bad identifier '1{HEAD[1:]}'... (5001 characters): single token "
     f"required"),
], ids=["poly-letter", "poly-coeff", "poly-header", "automaton-coeff",
        "automaton-weight", "automaton-letter", "circuit-kind",
        "circuit-name"])
def test_long_tokens_are_echoed_in_part(parse, text, old, new, where):
    """A message repeats at most 40 characters of a token or line, then
    its full length."""
    assert old in text
    with pytest.raises(FormatError, match=f"^{re.escape(where)}$") as err:
        parse(text.replace(old, new, 1))
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("parse, text, old, new, where", [
    (parse_poly, POLY_GOLDEN, "x0 x1", "x0 z1",
     "line 4: expected x<index>, got 'z1'"),
    (parse_poly, POLY_GOLDEN, "x0 x1", "x0 x7", "line 4: x7 outside "
     "alphabet of size 3"),
    (parse_poly, POLY_GOLDEN, "3 : x2", "3a : x2",
     "line 3: bad coefficient '3a'"),
    (parse_poly, POLY_GOLDEN, "poly over X", "poly under X",
     "bad poly header: 'poly under X vars 3 modulus 1000000007'"),
    (parse_automaton, VALID_TEXTS[2], "trans 0 y0 1 scalar 1",
     "trans 0 y0 1 vector 1", "line 2: bad weight 'vector'"),
    (parse_circuit, CIRCUIT_GOLDEN, "node 0 var 2", "node 0 " + HEAD + " 2",
     f"line 2: bad node kind '{HEAD}'"),
], ids=["poly-letter", "poly-range", "poly-coeff", "poly-header",
        "automaton-weight", "circuit-kind-40"])
def test_short_tokens_are_echoed_whole(parse, text, old, new, where):
    assert old in text
    with pytest.raises(FormatError, match=f"^{re.escape(where)}$"):
        parse(text.replace(old, new, 1))


def test_cli_exits_2_on_a_long_token(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text(POLY_GOLDEN.replace("x0 x1", f"x{WORD}"))
    assert cli.main(["encode", "--in", str(bad), "--out",
                     str(tmp_path / "out.poly"), "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nclift: ") and len(err) < 300


@pytest.mark.parametrize("parse, text, old, new", [
    (parse_circuit, SMALL_CIRCUIT, "vars 3", "vars \u0663"),
    (parse_circuit, SMALL_CIRCUIT, "node 0 var 2", "node \u0660 var \u0662"),
    (parse_circuit, CIRCUIT_GOLDEN, "const 3", "const -\u0663"),
    (parse_poly, POLY_GOLDEN, "3 : x2", "\u0663 : x\u0662"),
    (parse_automaton, VALID_TEXTS[2], "trans 0 y0 1", "trans \u0660 y0 1"),
    (parse_automaton, VALID_TEXTS[2], "y0 1 scalar 1", "y\u0660 1 scalar 1"),
], ids=["circuit-header", "circuit-node", "circuit-const", "poly-term",
        "automaton-state", "automaton-letter"])
def test_non_ascii_digits_are_format_errors(parse, text, old, new):
    """str.isdecimal accepts Arabic-Indic digits and int() reads them,
    so without the ASCII rule these files would parse and print back
    as other bytes."""
    assert old in text
    parse(text)
    with pytest.raises(FormatError):
        parse(text.replace(old, new, 1))
