"""The .moore and .subst parse contracts: every ParseError branch of
parse_machine and parse_substitution with its exact message, which error wins
when a text has several, and the accepted forms (directives in any order,
named and digit input tokens, comments)."""

import time

import pytest
from hypothesis import given, strategies as st

from mooredual.cli import run_cli
from mooredual.machine import (DomainError, MooreMachine, ParseError, emit_machine,
                               parse_machine, parse_word)
from mooredual.substitution import (OMEGA, SLOT, PaddingSpec, Substitution, emit_substitution,
                                    parse_substitution)

from conftest import DATA, machines

HEAD = "moore v1\ninputs 2\noutputs 0 1\nstate s 0\nstate t 1\ninitial s\n"
FULL = "trans s 0 s\ntrans s 1 t\ntrans t 0 t\ntrans t 1 s\n"

# (text, the exact ParseError message)
ERRORS = [
    # header
    ("", "line 1: expected header 'moore v1'"),
    ("# only a comment\n\n", "line 1: expected header 'moore v1'"),
    ("\n# c\nmealy v1\n", "line 3: expected header 'moore v1'"),
    ("moore v1 extra\n", "line 1: expected header 'moore v1'"),
    ("moore\n", "line 1: expected header 'moore v1'"),
    # per-line directive errors
    ("moore v1\ninputs 1\ninputs 2\n", "line 3: duplicate 'inputs' declaration"),
    ("moore v1\ninputs 1\ninputs\n", "line 3: duplicate 'inputs' declaration"),
    ("moore v1\ninputs\n", "line 2: 'inputs' needs a count or names"),
    ("moore v1\ninputs a b a\n", "line 2: duplicate input name"),
    ("moore v1\ninputs 0\n", "line 2: need at least one input"),
    ("moore v1\ninputs 00\n", "line 2: need at least one input"),
    ("moore v1\noutputs 0\noutputs 1\n", "line 3: duplicate 'outputs' declaration"),
    ("moore v1\noutputs\n", "line 2: 'outputs' needs at least one symbol"),
    ("moore v1\noutputs 0 1 0\n", "line 2: duplicate output symbol"),
    ("moore v1\nstate s\n", "line 2: expected 'state <id> <output>'"),
    ("moore v1\nstate s 0 1\n", "line 2: expected 'state <id> <output>'"),
    ("moore v1\nstate s 0\nstate s 1\n", "line 3: duplicate state 's'"),
    ("moore v1\ninitial\n", "line 2: expected 'initial <id>'"),
    ("moore v1\ninitial s\ninitial t u\n", "line 3: expected 'initial <id>'"),
    ("moore v1\ninitial s\ninitial t\n", "line 3: duplicate 'initial' declaration"),
    ("moore v1\ntrans s 0\n", "line 2: expected 'trans <id> <input> <id>'"),
    ("moore v1\ntrans s 0 s s\n", "line 2: expected 'trans <id> <input> <id>'"),
    ("moore v1\nstart s\n", "line 2: unknown directive 'start'"),
    ("moore v1\nTRANS s 0 s\n", "line 2: unknown directive 'TRANS'"),
    # missing declarations
    ("moore v1\noutputs 0\nstate s 0\ninitial s\n", "missing 'inputs' declaration"),
    ("moore v1\ninputs 1\nstate s 0\ninitial s\n", "missing 'outputs' declaration"),
    ("moore v1\ninputs 1\noutputs 0\ninitial s\n", "no states declared"),
    ("moore v1\ninputs 1\noutputs 0\nstate s 0\n", "missing 'initial' declaration"),
    # names
    (HEAD.replace("state t 1", "state t 9"), "line 5: unknown output token '9'"),
    (HEAD.replace("initial s", "initial z"), "line 6: unknown state 'z'"),
    (HEAD + FULL.replace("trans t 0 t", "trans z 0 t"), "line 9: unknown state 'z'"),
    (HEAD + FULL.replace("trans t 0 t", "trans t 0 z"), "line 9: unknown state 'z'"),
    (HEAD + FULL.replace("trans t 0 t", "trans t 2 t"), "line 9: unknown input token '2'"),
    (HEAD + FULL.replace("trans t 0 t", "trans t x t"), "line 9: unknown input token 'x'"),
    (HEAD + FULL.replace("trans t 0 t", "trans t -1 t"), "line 9: unknown input token '-1'"),
    (HEAD + FULL + "trans t 01 s\n", "line 11: duplicate transition for t on 01"),
    (HEAD + FULL.replace("trans t 0 t\n", ""), "missing transition for state 't' on input 0"),
]


@pytest.mark.parametrize("text, message", ERRORS)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_machine(text)
    assert str(info.value) == message


# (text, the exact ParseError message): which error is reported first
PRECEDENCE = [
    # a malformed line anywhere beats every missing declaration
    ("moore v1\noutputs 0\nstate s 0\nbogus\n", "line 4: unknown directive 'bogus'"),
    # missing declarations in the order inputs, outputs, states, initial
    ("moore v1\nstate s 0\n", "missing 'inputs' declaration"),
    ("moore v1\ninputs 1\n", "missing 'outputs' declaration"),
    ("moore v1\ninputs 1\noutputs 0\n", "no states declared"),
    # a missing declaration beats an unknown output token
    ("moore v1\ninputs 1\noutputs 0\nstate s 9\n", "missing 'initial' declaration"),
    # an unknown output token beats an unknown initial state, state order first
    (
        "moore v1\ninputs 1\noutputs 0\nstate s 0\nstate t 8\nstate u 9\ninitial z\n",
        "line 5: unknown output token '8'",
    ),
    # an unknown initial state beats every transition error
    (
        "moore v1\ninputs 1\noutputs 0\nstate s 0\ninitial z\ntrans y 0 y\n",
        "line 5: unknown state 'z'",
    ),
    # transitions are checked in line order: the source, the target, the
    # input, then a repeated cell
    (HEAD + "trans z 9 y\n", "line 7: unknown state 'z'"),
    (HEAD + "trans s 9 y\n", "line 7: unknown state 'y'"),
    (HEAD + "trans s 0 s\ntrans s 0 s\ntrans z 0 s\n", "line 8: duplicate transition for s on 0"),
    (HEAD + "trans s 0 s\ntrans z 0 s\ntrans s 0 s\n", "line 8: unknown state 'z'"),
    (HEAD + "trans s 0 s\ntrans s 5 s\ntrans s 0 s\n", "line 8: unknown input token '5'"),
    (HEAD + "trans s 0 s\ntrans s 0 z\n", "line 8: unknown state 'z'"),
    # a token read by value ('01' is input 1) keeps that order: an unknown
    # state beats it, and it fills its cell like any other token
    (HEAD + "trans s 01 z\n", "line 7: unknown state 'z'"),
    (HEAD + "trans z 01 s\n", "line 7: unknown state 'z'"),
    (HEAD + "trans s 01 s\ntrans s 1 s\n", "line 8: duplicate transition for s on 1"),
    (HEAD + "trans s 01 s\ntrans s 02 s\n", "line 8: unknown input token '02'"),
    (HEAD + "trans s 001 t\ntrans s 0 s\ntrans s 1 s\n", "line 9: duplicate transition for s on 1"),
    # a duplicate or unknown-state transition beats a missing one
    (HEAD + "trans s 0 s\ntrans s 0 t\n", "line 8: duplicate transition for s on 0"),
    (HEAD + "trans s 0 s\ntrans s 1 z\n", "line 8: unknown state 'z'"),
    # a missing transition names the first missing input of the first
    # incomplete state, in declaration order, whatever the line order
    (HEAD + "trans t 1 s\ntrans s 0 s\n", "missing transition for state 's' on input 1"),
    (HEAD + "trans s 1 t\ntrans s 0 s\ntrans t 1 s\n", "missing transition for state 't' on input 0"),
    (HEAD + "trans t 0 s\ntrans s 0 s\ntrans s 1 s\n", "missing transition for state 't' on input 1"),
    (HEAD, "missing transition for state 's' on input 0"),
]


@pytest.mark.parametrize("text, message", PRECEDENCE)
def test_parse_error_precedence(text, message):
    with pytest.raises(ParseError) as info:
        parse_machine(text)
    assert str(info.value) == message


def test_directives_in_any_order():
    text = (
        "moore v1\n"
        "trans t 1 s\ntrans s 0 s\n"
        "initial t\n"
        "trans t 0 t\n"
        "state s 0\n"
        "trans s 1 t\n"
        "outputs 0 1\n"
        "state t 1\n"
        "inputs 2\n"
    )
    assert parse_machine(text) == MooreMachine(
        states=("s", "t"),
        input_count=2,
        outputs=("0", "1"),
        transition=((0, 1), (1, 0)),
        output_map=("0", "1"),
        initial=1,
    )


def test_named_inputs_and_digit_tokens():
    text = (
        "moore v1\ninputs lo hi\noutputs 0 1\nstate s 0\nstate t 1\ninitial s\n"
        "trans s lo s\ntrans s 01 t\ntrans t 0 t\ntrans t hi s\n"
    )
    m = parse_machine(text)
    assert m.input_names == ("lo", "hi")
    assert m.transition == ((0, 1), (1, 0))


def test_input_names_win_over_digits():
    # names are looked up first: the input named "1" is input 0
    text = (
        "moore v1\ninputs 1 0\noutputs 0 1\nstate s 0\nstate t 1\ninitial s\n"
        "trans s 1 s\ntrans s 0 t\ntrans t 1 t\ntrans t 0 s\n"
    )
    m = parse_machine(text)
    assert m.input_names == ("1", "0")
    assert m.transition == ((0, 1), (1, 0))


def test_digit_count_with_leading_zeros():
    text = (
        "moore v1\ninputs 03\noutputs 0\nstate s 0\ninitial s\n"
        "trans s 000 s\ntrans s 01 s\ntrans s 2 s\n"
    )
    m = parse_machine(text)
    assert m.input_count == 3 and m.input_names is None
    assert m.transition == ((0, 0, 0),)


def test_every_token_read_by_value():
    # each line's token is new to the fill, which resumes at every line: a
    # resume that wrapped the rest of the lines again would be quadratic
    q = 20000
    text = "moore v1\ninputs %d\noutputs 0\nstate s 0\ninitial s\n" % q + "".join(
        "trans s 0%d s\n" % j for j in range(q))
    t0 = time.perf_counter()
    m = parse_machine(text)
    assert time.perf_counter() - t0 < 1.0
    assert m.transition == ((0,) * q,)


def test_mid_line_comments():
    text = (
        "moore v1 # header\n"
        "inputs 2#two\n"
        "outputs 0 1 # symbols\n"
        "state s 0#first\n"
        "state t 1\n"
        "  # indented comment\n"
        "initial s #start\n"
        "trans s 0 s # loop\ntrans s 1 t#\ntrans t 0 t\ntrans t 1 s\t# tab\n"
    )
    assert parse_machine(text) == parse_machine(HEAD + FULL)


@pytest.mark.parametrize("trans, message", [
    ("", "missing transition for state 's' on input 0"),
    ("trans s 0 s\n", "missing transition for state 's' on input 1"),
    ("trans s 0 s\ntrans s 00 s\n", "line 7: duplicate transition for s on 00"),
    ("trans s 999999999999 s\ntrans z 0 s\n", "line 7: unknown state 'z'"),
])
def test_huge_input_count_fails_fast(trans, message):
    text = "moore v1\ninputs 1000000000000\noutputs 0\nstate s 0\ninitial s\n" + trans
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_machine(text)
    assert time.perf_counter() - t0 < 1.0
    assert str(info.value) == message


def test_huge_input_count_cli(tmp_path, capsys):
    path = tmp_path / "huge.moore"
    path.write_text(
        "moore v1\ninputs 1000000000000\noutputs 0\nstate s 0\ninitial s\ntrans s 0 s\n",
        encoding="utf-8",
    )
    t0 = time.perf_counter()
    assert run_cli(["moore", "validate", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "missing transition for state 's' on input 1" in capsys.readouterr().err


# --- line numbers: every str.splitlines separator, blank lines and comments count

SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NOISE = ["", "  \t", "#", "# a comment", "   # indented comment"]


def with_bad_line(draw, lines, bad, after):
    """(text, number of its bad line): lines with bad inserted at a drawn
    position from after on, blank and comment lines mixed in, and each line
    ended by a drawn separator."""
    pos = draw(st.integers(after, len(lines)))
    lines.insert(pos, bad + draw(st.sampled_from(["", " ", "\t# trailing comment"])))
    # blank and comment lines anywhere, the header's line included
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(NOISE)))
        pos += at <= pos
    seps = [draw(st.sampled_from(SEPARATORS)) for _ in lines]
    for k in range(len(lines) - 1):
        # "\r" then an empty line ended by "\n" would read as one "\r\n" break
        if seps[k] == "\r" and lines[k + 1] == "" and seps[k + 1] == "\n":
            seps[k] = "\r\n"
    return "".join(map(str.__add__, lines, seps)), pos + 1


@st.composite
def texts_with_one_bad_line(draw):
    """(text, number of its one bad line): an emitted machine with blank and
    comment lines mixed in, and one line that makes it a ParseError."""
    m = draw(machines(max_states=4))
    lines = emit_machine(m).splitlines()
    trans_lines = [k for k, line in enumerate(lines) if line.startswith("trans ")]
    kind = draw(st.sampled_from([
        "trans", "state", "inputs", "initial", "directive", "duplicate state",
        "duplicate trans", "unknown source", "unknown target", "unknown input",
        "unknown initial", "unknown output",
    ]))
    after = 1  # the bad line goes after the header, and after what it repeats
    if kind == "trans":
        bad = draw(st.sampled_from(["trans s0 0", "trans s0 0 s0 s0", "trans"]))
    elif kind == "state":
        bad = draw(st.sampled_from(["state s0", "state zz o0 o0", "state"]))
    elif kind == "inputs":
        bad = draw(st.sampled_from(["inputs", "inputs a b a", "inputs 0"]))
    elif kind == "initial":
        bad = draw(st.sampled_from(["initial", "initial s0 s0"]))
    elif kind == "directive":
        bad = draw(st.sampled_from(["start s0", "TRANS s0 0 s0", "moore v1"]))
    elif kind == "duplicate state":
        k = draw(st.integers(0, m.n - 1))
        bad, after = "state s%d o0" % k, lines.index("state s%d %s" % (k, m.output_map[k])) + 1
    elif kind == "duplicate trans":
        k = draw(st.sampled_from(trans_lines))
        _, src, inp, _ = lines[k].split()
        bad = "trans %s %s%s s0" % (src, draw(st.sampled_from(["", "0", "00"])), inp)
        after = k + 1
    elif kind == "unknown source":
        bad = "trans zz 0 s0"
    elif kind == "unknown target":
        bad = "trans s0 0 zz"
    elif kind == "unknown input":
        bad = "trans s0 %s s0" % draw(st.sampled_from(["x", "-1", str(m.input_count), "²"]))
    elif kind == "unknown initial":
        lines.remove("initial s%d" % m.initial)
        bad = "initial zz"
    else:
        bad = "state zz oX"
    return with_bad_line(draw, lines, bad, after)


@given(texts_with_one_bad_line())
def test_parse_errors_name_the_bad_line(case):
    text, lineno = case
    with pytest.raises(ParseError) as info:
        parse_machine(text)
    assert str(info.value).startswith("line %d: " % lineno)


# --- digits int() cannot read: a ParseError or DomainError, never a ValueError
UNREADABLE = [
    # '²' passes str.isdigit but not int()
    ("moore v1\ninputs ²\noutputs 0\nstate s 0\ninitial s\ntrans s 0 s\n",
     "line 2: unreadable input count"),
    # more digits than int() converts by default (without that limit, the
    # count is read and the transitions are missing)
    ("moore v1\ninputs %s\noutputs 0\nstate s 0\ninitial s\n" % ("1" * 5000,), None),
    ("moore v1\ninputs 1\noutputs 0\nstate s 0\ninitial s\ntrans s ² s\n",
     "line 6: unknown input token '²'"),
    ("moore v1\ninputs 1\noutputs 0\nstate s 0\ninitial s\ntrans s %s s\n" % ("1" * 5000,),
     "line 6: unknown input token %r" % ("1" * 5000,)),
]


@pytest.mark.parametrize(
    "text, message", UNREADABLE, ids=["superscript-count", "long-count", "superscript-input", "long-input"]
)
def test_unreadable_digits_are_parse_errors(text, message, tmp_path, capsys):
    with pytest.raises(ParseError) as info:
        parse_machine(text)
    if message is not None:
        assert str(info.value) == message
    path = tmp_path / "m.moore"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["moore", "validate", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word, q", [("²", 3), ("0,²", 12), ("1" * 5000, 12)], ids=["superscript", "list", "long"]
)
def test_unreadable_word_symbols_are_domain_errors(word, q, capsys):
    with pytest.raises(DomainError, match="bad input symbol"):
        parse_word(word, q)
    if q == 3:
        assert run_cli(["moore", "run", str(DATA / "example.moore"), "--word", word]) == 3
        assert run_cli(["subst", "phi", str(DATA / "fib.subst"), "--word", word]) == 3
        assert "bad input symbol" in capsys.readouterr().err


# --- .subst ------------------------------------------------------------------------

SHEAD = "subst v1\nletters a b\noutputs 0 1\ninitial a\n"
SBODY = "rule a -> a b\nrule b -> a\nout a 0\nout b 1\n"

# (text, the exact ParseError message)
SUBST_ERRORS = [
    # header
    ("", "line 1: expected header 'subst v1'"),
    ("# only a comment\n\n", "line 1: expected header 'subst v1'"),
    ("\n# c\nmoore v1\n", "line 3: expected header 'subst v1'"),
    ("subst v1 extra\n", "line 1: expected header 'subst v1'"),
    # per-line directive errors
    ("subst v1\nletters a\nletters b\n", "line 3: duplicate 'letters' declaration"),
    ("subst v1\nletters a\nletters\n", "line 3: duplicate 'letters' declaration"),
    ("subst v1\nletters\n", "line 2: 'letters' needs at least one id"),
    ("subst v1\nletters a b a\n", "line 2: duplicate letter"),
    ("subst v1\noutputs 0\noutputs 1\n", "line 3: duplicate 'outputs' declaration"),
    ("subst v1\noutputs\n", "line 2: 'outputs' needs at least one symbol"),
    ("subst v1\ninitial\n", "line 2: expected 'initial <id>'"),
    ("subst v1\ninitial a\ninitial b c\n", "line 3: expected 'initial <id>'"),
    ("subst v1\ninitial a\ninitial b\n", "line 3: duplicate 'initial' declaration"),
    ("subst v1\nrule a -> \n", "line 2: expected 'rule <id> -> <id> ...'"),
    ("subst v1\nrule a = b\n", "line 2: expected 'rule <id> -> <id> ...'"),
    ("subst v1\nrule a -> a\nrule a -> b\n", "line 3: duplicate rule for 'a'"),
    ("subst v1\nout a\n", "line 2: expected 'out <id> <sym>'"),
    ("subst v1\nout a 0 1\n", "line 2: expected 'out <id> <sym>'"),
    ("subst v1\nout a 0\nout a 1\n", "line 3: duplicate 'out' for 'a'"),
    ("subst v1\npad a\n", "line 2: expected 'pad <id> <template>'"),
    ("subst v1\npad a _w\npad a w_\n", "line 3: duplicate 'pad' for 'a'"),
    ("subst v1\nRULE a -> a\n", "line 2: unknown directive 'RULE'"),
    # missing declarations
    ("subst v1\noutputs 0\ninitial a\n", "missing 'letters' declaration"),
    ("subst v1\nletters a\ninitial a\n", "missing 'outputs' declaration"),
    ("subst v1\nletters a\noutputs 0\n", "missing 'initial' declaration"),
    # names
    (SHEAD + SBODY + "rule c -> a\n", "line 9: rule for undeclared letter 'c'"),
    (SHEAD + SBODY.replace("rule b -> a", "rule b -> c"),
     "line 6: rule uses undeclared letter 'c'"),
    (SHEAD + SBODY.replace("rule b -> a\n", ""), "missing rule for letter 'b'"),
    (SHEAD + SBODY + "out c 0\n", "line 9: 'out' for undeclared letter 'c'"),
    (SHEAD + SBODY.replace("out b 1", "out b 2"), "line 8: unknown output token '2'"),
    (SHEAD + SBODY.replace("out b 1\n", ""), "missing 'out' line for letter 'b'"),
    (SHEAD.replace("initial a", "initial c") + SBODY, "line 4: unknown letter 'c'"),
    # reserved names and repeated outputs, on their declaration lines
    (
        "subst v1\nletters a ω\noutputs 0\ninitial a\nrule a -> ω\nrule ω -> a\n"
        "out a 0\nout ω 0\n",
        "line 2: letter 'ω' is reserved for the padding sink",
    ),
    (SHEAD.replace("outputs 0 1", "outputs 0 1 ⊥") + SBODY,
     "line 3: output '⊥' is reserved for the padding sink"),
    (SHEAD.replace("outputs 0 1", "outputs 0 1 0") + SBODY,
     "line 3: duplicate output symbol"),
    # padding templates
    (SHEAD + SBODY + "pad c _w\n", "line 9: 'pad' for undeclared letter 'c'"),
    (SHEAD + SBODY + "pad b _ww\n", "line 9: template for 'b' must have length 2"),
    (SHEAD + SBODY + "pad b _\n", "line 9: template for 'b' must have length 2"),
    (SHEAD + SBODY + "pad b _x\n", "line 9: bad template token 'x' for 'b'"),
    (SHEAD + SBODY + "pad b ww\n", "line 9: template for 'b' must have exactly 1 slots"),
    (SHEAD + SBODY + "pad a _w\n", "line 9: template for 'a' must have exactly 2 slots"),
]


@pytest.mark.parametrize("text, message", SUBST_ERRORS)
def test_subst_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_substitution(text)
    assert str(info.value) == message


# (text, the exact ParseError message): which error is reported first
SUBST_PRECEDENCE = [
    # a malformed line anywhere beats every missing declaration
    ("subst v1\nletters a\nbogus\n", "line 3: unknown directive 'bogus'"),
    # a duplicate declaration is found before its arguments are read
    ("subst v1\noutputs 0\noutputs\n", "line 3: duplicate 'outputs' declaration"),
    # 'initial', 'rule', 'out' and 'pad' check their shape before repetition
    ("subst v1\nrule a -> a\nrule a a\n", "line 3: expected 'rule <id> -> <id> ...'"),
    ("subst v1\nout a 0\nout a\n", "line 3: expected 'out <id> <sym>'"),
    ("subst v1\npad a _w\npad a\n", "line 3: expected 'pad <id> <template>'"),
    # missing declarations in the order letters, outputs, initial
    ("subst v1\ninitial a\n", "missing 'letters' declaration"),
    ("subst v1\nletters a\n", "missing 'outputs' declaration"),
    # a missing declaration beats every name error
    ("subst v1\nletters a\noutputs 0\nrule z -> y\n", "missing 'initial' declaration"),
    # rules are checked in line order, each its letter, then its image
    (SHEAD + "rule b -> z\nrule y -> a\n", "line 5: rule uses undeclared letter 'z'"),
    (SHEAD + "rule y -> z\nrule b -> z\n", "line 5: rule for undeclared letter 'y'"),
    # a rule error beats a missing rule, which beats every 'out' error
    (SHEAD + "rule a -> a\nrule c -> a\n", "line 6: rule for undeclared letter 'c'"),
    (SHEAD + "rule a -> a\nout c 0\n", "missing rule for letter 'b'"),
    # 'out' lines in line order, each its letter, then its symbol; then a
    # missing 'out' line in letter order
    (SHEAD + SBODY.replace("out a 0", "out a 9").replace("out b 1", "out c 1"),
     "line 7: unknown output token '9'"),
    (SHEAD + "rule a -> a\nrule b -> a\nout b 1\n", "missing 'out' line for letter 'a'"),
    (SHEAD.replace("initial a", "initial c") + "rule a -> a\nrule b -> a\nout b 1\n",
     "missing 'out' line for letter 'a'"),
    # reserved names and repeated outputs are line errors: they beat an
    # unknown initial letter, and come in line order
    (
        "subst v1\nletters ω\noutputs 0 0\ninitial c\nrule ω -> ω\nout ω 0\n",
        "line 2: letter 'ω' is reserved for the padding sink",
    ),
    ("subst v1\nletters ω\noutputs ⊥ ⊥\ninitial ω\nrule ω -> ω\nout ω ⊥\n",
     "line 2: letter 'ω' is reserved for the padding sink"),
    ("subst v1\noutputs ⊥ ⊥\nletters ω\ninitial ω\nrule ω -> ω\nout ω ⊥\n",
     "line 2: duplicate output symbol"),
    # on one line, a repeated letter or output beats a reserved one
    ("subst v1\nletters ω ω\n", "line 2: duplicate letter"),
    ("subst v1\nletters a\noutputs ⊥ ⊥\ninitial a\nrule a -> a\nout a ⊥\n",
     "line 3: duplicate output symbol"),
    # the declaration lines beat every padding error
    (SHEAD.replace("outputs 0 1", "outputs 0 1 ⊥") + SBODY + "pad c _w\n",
     "line 3: output '⊥' is reserved for the padding sink"),
    # an undeclared 'pad' letter anywhere beats a bad template; templates are
    # then checked in letter order: length, token, slot count
    (SHEAD + SBODY + "pad a _\npad c _w\n", "line 10: 'pad' for undeclared letter 'c'"),
    (SHEAD + SBODY + "pad b _x\npad a _\n", "line 10: template for 'a' must have length 2"),
    (SHEAD + SBODY + "pad a _x_\n", "line 9: template for 'a' must have length 2"),
    (SHEAD + SBODY + "pad a _x\n", "line 9: bad template token 'x' for 'a'"),
]


@pytest.mark.parametrize("text, message", SUBST_PRECEDENCE)
def test_subst_parse_error_precedence(text, message):
    with pytest.raises(ParseError) as info:
        parse_substitution(text)
    assert str(info.value) == message


@st.composite
def subst_texts_with_one_bad_line(draw):
    """(text, number of its one bad line): an emitted substitution, sometimes
    with 'pad' lines, with blank and comment lines mixed in, and one line
    that makes it a ParseError."""
    alphabet = ("a", "b", "c")[:draw(st.integers(1, 3))]
    letter = st.sampled_from(alphabet)
    rules = tuple(tuple(draw(st.lists(letter, min_size=1, max_size=3))) for _ in alphabet)
    s = Substitution(alphabet, rules, ("0", "1"),
                     tuple(draw(st.sampled_from("01")) for _ in alphabet),
                     draw(st.integers(0, len(alphabet) - 1)))
    pad = None
    if draw(st.booleans()):
        pad = PaddingSpec(tuple(tuple(draw(st.permutations(tpl)))
                                for tpl in PaddingSpec.default(s).templates))
    lines = emit_substitution(s, pad).splitlines()
    q, a = s.q, draw(letter)
    kinds = ["letters", "outputs", "initial", "rule", "out", "pad", "directive",
             "duplicate rule", "duplicate out", "undeclared rule", "undeclared out",
             "undeclared pad", "undeclared image letter", "unknown output", "unknown initial",
             "bad template"]
    if any(line.startswith("pad ") for line in lines):
        kinds.append("duplicate pad")
    kind = draw(st.sampled_from(kinds))
    after = 1  # the bad line goes after the header, and after what it repeats
    if kind == "letters":
        bad = draw(st.sampled_from(["letters", "letters a a", "letters ω"]))
    elif kind == "outputs":
        bad = draw(st.sampled_from(["outputs", "outputs 0 0", "outputs ⊥"]))
    elif kind == "initial":
        bad = draw(st.sampled_from(["initial", "initial a a"]))
    elif kind == "rule":
        bad = draw(st.sampled_from(["rule", "rule a", "rule a ->", "rule a = a"]))
    elif kind == "out":
        bad = draw(st.sampled_from(["out", "out a", "out a 0 1"]))
    elif kind == "pad":
        bad = draw(st.sampled_from(["pad", "pad a"]))
    elif kind == "directive":
        bad = draw(st.sampled_from(["RULE a -> a", "start a", "subst v1"]))
    elif kind.startswith("duplicate"):
        directive = kind.split()[1]
        k = draw(st.sampled_from([k for k, line in enumerate(lines)
                                  if line.startswith(directive + " ")]))
        bad, after = lines[k], k + 1
    elif kind.startswith("undeclared"):
        bad = {"rule": "rule z -> a", "out": "out z 0", "pad": "pad z _",
               "image": "rule %s -> %s z" % (a, a)}[kind.split()[1]]
        if kind.endswith("letter"):
            lines.remove("rule %s -> %s" % (a, " ".join(s.image(a))))
    elif kind == "unknown output":
        lines.remove("out %s %s" % (a, s.projection[s.letter_index(a)]))
        bad = "out %s 2" % a
    elif kind == "unknown initial":
        lines.remove("initial %s" % s.alphabet[s.initial])
        bad = "initial z"
    else:
        lines = [line for line in lines if not line.startswith("pad %s " % a)]
        bad = "pad %s %s" % (a, draw(st.sampled_from([
            SLOT * (q + 1), SLOT * (q - 1) + "x", OMEGA * q])))
    return with_bad_line(draw, lines, bad, after)


@given(subst_texts_with_one_bad_line())
def test_subst_parse_errors_name_the_bad_line(case):
    text, lineno = case
    with pytest.raises(ParseError) as info:
        parse_substitution(text)
    assert str(info.value).startswith("line %d: " % lineno)


def test_subst_directives_in_any_order():
    text = (
        "subst v1\nout b 1\nrule b -> a\ninitial a\n"
        "out a 0\noutputs 0 1\nrule a -> a b\nletters a b\n"
    )
    assert parse_substitution(text) == parse_substitution(SHEAD + SBODY)


@pytest.mark.parametrize("tool, data, line", [
    ("moore", b"moore v1\ninputs 1\noutputs 0\nstate \xff 0\n", 4),
    ("moore", b"\xfe", 1),
    ("subst", b"subst v1\r\nletters a\r\n# caf\xe9\r\n", 3),
    ("subst", b"subst v1\rletters \xc3\n", 2),
    ("moore", b"\xef\xbb\xbfmoore v1\ninputs 1\n\xff\n", 3),
    ("moore", b"\xef\xbb\xbf\xfe", 1),
    ("subst", b"\xef\xbb\xbfsubst v1\r\n\xc3\n", 2),
])
def test_text_that_is_not_utf8_is_a_parse_error(tool, data, line, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert run_cli([tool, "validate", str(path)]) == 2
    assert "parse error: line %d: not UTF-8 text" % line in capsys.readouterr().err
