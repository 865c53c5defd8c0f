import pytest
from hypothesis import given, strategies as st

from mooredual.equivalence import minimize, normal_form
from mooredual.machine import (
    DomainError,
    MooreMachine,
    ParseError,
    emit_machine,
    format_word,
    left_action,
    parse_machine,
    parse_word,
    right_action,
    run_left,
    run_right,
    trim,
)
from mooredual.substitution import phi

from conftest import machines, read_data, read_golden


@st.composite
def machine_and_word(draw, max_len=12):
    m = draw(machines())
    w = tuple(
        draw(st.integers(0, m.input_count - 1))
        for _ in range(draw(st.integers(0, max_len)))
    )
    return m, w


# --- parsing ---------------------------------------------------------------

def test_parse_paper_example(paper):
    assert paper.n == 3
    assert paper.input_count == 2
    assert paper.states == ("i", "a", "b")
    assert paper.transition == ((0, 1), (2, 0), (2, 1))
    assert paper.output_map == ("0", "1", "0")
    assert paper.initial == 0


def test_round_trip(paper):
    text = emit_machine(paper)
    assert parse_machine(text) == paper
    assert emit_machine(parse_machine(text)) == text


def test_round_trip_one_state():
    m = MooreMachine(("s",), 2, ("0",), ((0, 0),), ("0",), 0)
    assert parse_machine(emit_machine(m)) == m


def test_round_trip_300_digit_inputs():
    # more input labels than the shared numeric names: made, not sliced
    text = "moore v1\ninputs 300\noutputs 0\nstate s 0\ninitial s\n" + "".join(
        "trans s %d s\n" % j for j in range(300))
    m = parse_machine(text)
    assert (m.input_count, m.input_names, m.transition) == (300, None, ((0,) * 300,))
    assert emit_machine(m) == text
    assert parse_machine(emit_machine(m)) == m


def test_missing_transition_rejected():
    with pytest.raises(ParseError, match="missing transition"):
        parse_machine(read_data("example_missing.moore"))


def test_parse_errors():
    with pytest.raises(ParseError, match="header"):
        parse_machine("mealy v1\n")
    with pytest.raises(ParseError, match="unknown output"):
        parse_machine("moore v1\ninputs 1\noutputs 0\nstate s 9\ninitial s\ntrans s 0 s\n")
    with pytest.raises(ParseError, match="unknown state"):
        parse_machine("moore v1\ninputs 1\noutputs 0\nstate s 0\ninitial z\ntrans s 0 s\n")
    with pytest.raises(ParseError, match="duplicate state"):
        parse_machine(
            "moore v1\ninputs 1\noutputs 0\nstate s 0\nstate s 0\ninitial s\ntrans s 0 s\n"
        )
    with pytest.raises(ParseError, match="duplicate transition"):
        parse_machine(
            "moore v1\ninputs 1\noutputs 0\nstate s 0\ninitial s\ntrans s 0 s\ntrans s 0 s\n"
        )


def test_named_inputs_round_trip():
    text = (
        "moore v1\n"
        "inputs lo hi\n"
        "outputs 0 1\n"
        "state s 0\n"
        "state t 1\n"
        "initial s\n"
        "trans s lo s\ntrans s hi t\ntrans t lo t\ntrans t hi s\n"
    )
    m = parse_machine(text)
    assert m.input_names == ("lo", "hi")
    assert emit_machine(m) == text
    assert parse_machine(emit_machine(m)) == m


def test_repeated_input_names_are_refused_as_in_the_text():
    # the constructor refuses what parse_machine refuses, so that emit has
    # no machine to write that would not read back
    with pytest.raises(DomainError, match="duplicate input names"):
        MooreMachine(("s",), 2, ("0",), ((0, 0),), ("0",), 0, input_names=("x", "x"))
    with pytest.raises(ParseError, match="duplicate input name"):
        parse_machine("moore v1\ninputs x x\noutputs 0\nstate s 0\ninitial s\n"
                      "trans s x s\n")


def test_comments_ignored(paper):
    text = "# top comment\n" + emit_machine(paper).replace(
        "initial i", "initial i  # the start"
    )
    assert parse_machine(text) == paper


# --- words ------------------------------------------------------------------

def test_parse_word():
    assert parse_word("", 2) == ()
    assert parse_word("0110", 2) == (0, 1, 1, 0)
    assert parse_word("0,11,3", 12) == (0, 11, 3)
    with pytest.raises(DomainError):
        parse_word("2", 2)
    with pytest.raises(DomainError):
        parse_word("x", 2)


@pytest.mark.parametrize("text, q, word", [
    # symbols apart by commas or any whitespace, as letter words are
    ("0 1", 2, (0, 1)),
    ("0\t1", 2, (0, 1)),
    ("0\n1", 2, (0, 1)),
    (" 0 ,\t1 ", 2, (0, 1)),
    ("01 1", 2, (1, 1)),
    ("0 11 3", 12, (0, 11, 3)),
    ("0\t11,3", 12, (0, 11, 3)),
    # one token without a comma: digit by digit when q <= 10, a value above
    ("011", 2, (0, 1, 1)),
    ("011", 12, (11,)),
    # a comma marks a list of values; empty fields are skipped
    ("01,", 2, (1,)),
    ("0,,1", 2, (0, 1)),
    (",0", 2, (0,)),
    (",", 2, ()),
])
def test_parse_word_separators(text, q, word):
    assert parse_word(text, q) == word


def test_parse_word_rejects_whitespace_separated_bad_symbols():
    for text, q in (("0 2", 2), ("0\tx", 2), ("01 10", 2), ("0 -1", 12)):
        with pytest.raises(DomainError):
            parse_word(text, q)


def test_format_word():
    assert format_word((0, 1, 1), 2) == "011"
    assert format_word((0, 11), 12) == "0,11"


def test_format_word_checks_its_word():
    # a bool prints as its int, a string is read as parse_word reads it, and
    # no symbol outside 0..q-1 prints as digits that read back as others
    # (test_values.py's WORDS holds the checks every word argument shares)
    assert format_word((True, 0), 2) == "10"
    assert format_word("0 1,1", 2) == "011" and format_word("0,11", 12) == "0,11"
    for word, q in [((0, 12), 10), ((0, -1), 12), ("02", 2)]:
        with pytest.raises(DomainError, match="input symbol -?[0-9]+ out of range"):
            format_word(word, q)


@given(st.integers(1, 12).flatmap(lambda q: st.tuples(st.just(q), st.lists(
    st.integers(0, q - 1) | st.sampled_from((False, True)[:q]), max_size=12))))
def test_format_word_round_trip(case):
    q, w = case
    assert parse_word(format_word(w, q), q) == tuple(map(int, w))


# --- actions -----------------------------------------------------------------

def test_right_action_examples(paper):
    assert paper.states[right_action(paper, "i", (0, 1))] == "a"
    assert right_action(paper, 1, ()) == 1
    assert paper.states[right_action(paper, "a", (0,))] == "b"


def test_left_action_examples(paper):
    assert paper.states[left_action(paper, (0, 1), "i")] == "b"
    assert left_action(paper, (), 2) == 2
    assert paper.states[left_action(paper, (1,), "b")] == "a"


def test_run_examples(paper):
    assert run_right(paper, ()) == "0"
    assert run_right(paper, (1,)) == "1"
    assert run_right(paper, (0, 0, 1)) == "1"
    assert run_left(paper, (0, 0, 1)) == "0"
    assert run_left(paper, ()) == "0"
    assert run_left(paper, (0, 1)) == run_right(paper, (1, 0)) == "0"


def test_string_words_read_as_parse_word_reads_them(paper):
    for word in ("", "0", "01", "110", " 1,0,1 "):
        digits = parse_word(word, paper.input_count)
        assert right_action(paper, "a", word) == right_action(paper, "a", digits)
        assert left_action(paper, word, "a") == left_action(paper, digits, "a")
        assert run_right(paper, word) == run_right(paper, digits)
        assert run_left(paper, word) == run_left(paper, digits)
    assert run_right(paper, "01") == run_right(paper, (0, 1)) == "1"
    assert phi("011", 2) == phi((0, 1, 1), 2) == 6
    for bad, message in (("2", "input symbol 2 out of range (q=2)"),
                         ("0x", "bad input symbol 'x' in word")):
        for call in (lambda: run_right(paper, bad), lambda: run_left(paper, bad),
                     lambda: right_action(paper, 0, bad), lambda: left_action(paper, bad, 0),
                     lambda: phi(bad, 2)):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == message


def test_symbol_out_of_range(paper):
    with pytest.raises(DomainError):
        right_action(paper, 0, (2,))
    with pytest.raises(DomainError):
        left_action(paper, (0, 5), 0)


@given(machine_and_word())
def test_single_letters_agree(mw):
    m, w = mw
    for j in range(m.input_count):
        for s in range(m.n):
            assert right_action(m, s, (j,)) == left_action(m, (j,), s) == m.transition[s][j]


@given(machine_and_word(), machine_and_word())
def test_action_concatenation(mw, mw2):
    m, u = mw
    _, v2 = mw2
    v = tuple(j % m.input_count for j in v2)
    for s in range(m.n):
        assert right_action(m, s, u + v) == right_action(m, right_action(m, s, u), v)
        assert left_action(m, u + v, s) == left_action(m, u, left_action(m, v, s))


@given(machine_and_word())
def test_mirror_law(mw):
    m, w = mw
    assert run_left(m, w) == run_right(m, tuple(reversed(w)))


# --- trim ----------------------------------------------------------------------

def test_trim_drops_unreachable(paper):
    extra = MooreMachine(
        states=paper.states + ("z",),
        input_count=2,
        outputs=paper.outputs,
        transition=paper.transition + ((3, 0),),
        output_map=paper.output_map + ("1",),
        initial=0,
    )
    assert trim(extra) == paper


def test_trim_identity(paper):
    assert trim(paper) is paper


def test_trim_to_single_state():
    m = MooreMachine(
        states=("i", "x"),
        input_count=2,
        outputs=("0", "1"),
        transition=((0, 0), (1, 0)),
        output_map=("0", "1"),
        initial=0,
    )
    t = trim(m)
    assert t.n == 1
    assert t.states == ("i",)


@given(machine_and_word())
def test_trim_preserves_runs(mw):
    m, w = mw
    t = trim(m)
    assert trim(t) == t
    assert run_right(t, w) == run_right(m, w)
    assert run_left(t, w) == run_left(m, w)


@given(machines())
def test_emit_parse_fixed_point(m):
    text = emit_machine(m)
    assert emit_machine(parse_machine(text)) == text


@st.composite
def shuffled_texts(draw):
    """A machine, its emitted text, and the same text with the body lines
    shuffled (state lines keep their order, which numbers the states), blank
    and comment lines mixed in, and comments after some lines.  Without
    input names, some input tokens get leading zeros, which are read by
    value, at random positions among the transition lines."""
    m = draw(machines())
    if draw(st.booleans()):
        m = MooreMachine(
            m.states, m.input_count, m.outputs, m.transition, m.output_map, m.initial,
            input_names=tuple("in%d" % j for j in range(m.input_count)),
        )
    text = emit_machine(m)
    header, *body = text.splitlines()
    body = draw(st.permutations(body))
    states = iter([line for line in text.splitlines() if line.startswith("state ")])
    body = [next(states) if line.startswith("state ") else line for line in body]
    if m.input_names is None:
        for i, line in enumerate(body):
            if line.startswith("trans "):
                _, src, inp, dst = line.split()
                zeros = draw(st.sampled_from(["", "", "0", "00"]))
                body[i] = "trans %s %s%s %s" % (src, zeros, inp, dst)
    noise = st.sampled_from(["", "   ", "# a comment", "\t# indented comment"])
    lines = [header]
    for line in body:
        lines += draw(st.lists(noise, max_size=2))
        lines.append(line + draw(st.sampled_from(["", " ", "  # note", "#x"])))
    return m, text, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n# end\n"]))


@given(shuffled_texts())
def test_shuffled_text_round_trip(case):
    m, text, shuffled = case
    parsed = parse_machine(shuffled)
    assert parsed == m
    assert emit_machine(parsed) == text



# Names of token characters, digits among them, and names that may also hold
# '#' and whitespace that splits tokens (space, tab) or lines (newline, the
# file separator \x1c).
clean_names = st.text(alphabet="ab5", min_size=1, max_size=3)
any_names = st.text(alphabet="ab5# \t\n\x1c", max_size=3)


@st.composite
def machines_with_any_names(draw):
    """A machine from ``machines`` renamed from ``clean_names`` or ``any_names``."""
    names = draw(st.sampled_from([clean_names, any_names]))
    m = draw(machines())
    states = draw(st.lists(names, min_size=m.n, max_size=m.n, unique=True))
    d = len(m.outputs)
    outputs = draw(st.lists(names, min_size=d, max_size=d, unique=True))
    rename = dict(zip(m.outputs, outputs))
    q = m.input_count
    input_names = draw(st.none() | st.lists(names, min_size=q, max_size=q, unique=True))
    return MooreMachine(
        states=tuple(states),
        input_count=q,
        outputs=tuple(outputs),
        transition=m.transition,
        output_map=tuple(rename[o] for o in m.output_map),
        initial=m.initial,
        input_names=None if input_names is None else tuple(input_names),
    )


@given(machines_with_any_names())
def test_emit_refuses_or_round_trips(m):
    try:
        text = emit_machine(m)
    except DomainError:
        return
    assert parse_machine(text) == m


@pytest.mark.parametrize("names", [
    {"input_names": ("5",)},
    {"states": ("s t",)},
    {"states": ("s#",)},
    {"outputs": ("0 1",)},
    {"states": ("",)},
])
def test_emit_refuses_names_that_do_not_read_back(names):
    fields = dict(states=("s",), input_count=1, outputs=("0",), transition=((0,),),
                  output_map=("0",), initial=0, input_names=None)
    fields.update(names)
    fields["output_map"] = fields["outputs"]
    m = MooreMachine(**fields)
    with pytest.raises(DomainError, match="read back"):
        emit_machine(m)


# --- machines built without re-running the constructor's checks ---------------------

def rechecked(m):
    """m, rebuilt through the checking constructor: raises if any check fails."""
    return MooreMachine(*m._key())


@pytest.mark.parametrize("text", [
    read_data("example.moore"),
    read_data("example_bad.moore"),
    read_data("example_min.moore"),
    read_golden("moore_minimize_example.txt"),
    read_golden("moore_dual_example.txt"),
    read_golden("moore_normal_example.txt"),
    read_golden("moore_product_example_pair.txt"),
    read_golden("subst_tomachine_fib.txt"),
], ids=["example", "example_bad", "example_min", "minimize", "dual", "normal", "product",
        "tomachine"])
def test_parsed_machines_pass_the_constructor_checks(text):
    m = parse_machine(text)
    assert rechecked(m) == m


@given(machines())
def test_derived_machines_pass_the_constructor_checks(m):
    for derived in (trim(m), normal_form(m), minimize(m)):
        assert rechecked(derived) == derived
