import copy
import pickle
import random
import sys
import threading
import time
import tracemalloc
from array import array
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mooredual import substitution
from mooredual.duality import bidual
from mooredual.equivalence import equivalent, minimize, state_classes
from mooredual.machine import (DomainError, MooreMachine, ParseError, left_action, run_left,
                               trim)
from mooredual.substitution import (
    OMEGA,
    SINK_OUTPUT,
    SINK_STATE,
    SLOT,
    PaddingSpec,
    Substitution,
    apply,
    check_fixed_point,
    emit_substitution,
    expand_fixed_point,
    fixed_point_lengths,
    is_constant_length,
    letter_at,
    letter_at_constant,
    minimize_substitution,
    parse_substitution,
    phi,
    psi,
    to_padded_machine,
)

from conftest import (
    base_digits,
    fixed_point_by_levels,
    language_words,
    letter_by_dual,
    read_data,
    substitutions_isomorphic,
)


def fresh(s):
    """An equal substitution whose block table is still unbuilt."""
    return Substitution(s.alphabet, s.rules, s.outputs, s.projection, s.initial)


BLOCK_FIELDS = ("t", "words", "levels", "letters", "size", "limits", "depth", "reach", "width",
                "starts", "offsets", "blockwords")


def block_table(s):
    """The block table of s, whose fields are BLOCK_FIELDS; the stored sizes
    are checked against what they count."""
    table = s._blocks()
    assert table._fields == BLOCK_FIELDS
    assert table.size == len(table.letters) and table.depth == len(table.limits)
    return table


@pytest.fixture
def fib():
    return parse_substitution(read_data("fib.subst"))[0]


@pytest.fixture
def paper_subst():
    """Rules read off the worked example's transition rows: i->ia, a->bi, b->ba."""
    return Substitution(
        alphabet=("i", "a", "b"),
        rules=(("i", "a"), ("b", "i"), ("b", "a")),
        outputs=("0", "1"),
        projection=("0", "1", "0"),
        initial=0,
    )


@pytest.fixture
def thue_morse_3():
    """3-letter constant-length substitution projecting to Thue-Morse."""
    return parse_substitution(read_data("threeletter.subst"))[0]


# --- parsing -----------------------------------------------------------------

def test_parse_fibonacci(fib):
    assert fib.alphabet == ("a", "b")
    assert fib.rules == (("a", "b"), ("a",))
    assert fib.q == 2
    assert fib.initial == 0


def test_parse_round_trip(fib):
    text = emit_substitution(fib)
    s2, _ = parse_substitution(text)
    assert s2 == fib
    assert emit_substitution(s2) == text


def test_parse_undeclared_letter():
    with pytest.raises(ParseError, match="undeclared letter"):
        parse_substitution(
            "subst v1\nletters a\noutputs 0\ninitial a\nrule a -> a z\nout a 0\n"
        )


def test_parse_empty_image():
    with pytest.raises(ParseError, match="rule"):
        parse_substitution(
            "subst v1\nletters a\noutputs 0\ninitial a\nrule a ->\nout a 0\n"
        )


def test_parse_pad_template():
    text = (
        "subst v1\nletters a b\noutputs 0 1\ninitial a\n"
        "rule a -> a b\nrule b -> a\nout a 0\nout b 1\npad b w_\n"
    )
    s, pad = parse_substitution(text)
    assert pad.templates == ((SLOT, SLOT), (OMEGA, SLOT))
    assert emit_substitution(s, pad) == text


def test_emit_refuses_what_does_not_read_back(fib):
    with pytest.raises(DomainError, match="read back"):
        emit_substitution(Substitution(("a b", "c"), (("a b", "c"), ("c",)), ("0",), ("0", "0"), 0))
    with pytest.raises(DomainError, match="read back"):
        emit_substitution(Substitution(("a",), (("a", "a"),), ("0#",), ("0#",), 0))
    with pytest.raises(DomainError, match="bad template token"):
        emit_substitution(fib, PaddingSpec(((SLOT, SLOT), ("x", SLOT))))


def test_reserved_tokens_rejected():
    with pytest.raises(DomainError):
        Substitution((SINK_STATE,), ((SINK_STATE,),), ("0",), ("0",), 0)
    with pytest.raises(DomainError):
        Substitution(("a",), (("a",),), (SINK_OUTPUT,), (SINK_OUTPUT,), 0)


# --- apply and expansion ------------------------------------------------------

def test_apply_examples(paper_subst, fib):
    assert apply(paper_subst, "ia") == ("i", "a", "b", "i")
    assert apply(paper_subst, "") == ()
    assert apply(fib, "ab") == ("a", "b", "a")


@pytest.mark.parametrize("text", ["a b", "a\tb", "a\nb", "a,b", " a \t\n b\r\n", "ab"])
def test_parse_letters_separates_on_any_whitespace(fib, text):
    assert substitution.parse_letters(fib, text) == ("a", "b")
    assert apply(fib, text) == ("a", "b", "a")


def test_parse_letters_reads_tokens_of_longer_letters():
    s = Substitution(("x1", "y"), (("x1", "y"), ("x1",)), ("0",), ("0", "0"), 0)
    assert substitution.parse_letters(s, "x1\ty\nx1") == ("x1", "y", "x1")
    assert substitution.parse_letters(s, " \t\n") == ()
    with pytest.raises(DomainError, match="unknown letter 'x1y'"):
        substitution.parse_letters(s, "x1y")


def test_apply_homomorphism(fib, paper_subst):
    rng = random.Random(5)
    for s in (fib, paper_subst):
        for _ in range(50):
            u = tuple(rng.choice(s.alphabet) for _ in range(rng.randint(0, 6)))
            v = tuple(rng.choice(s.alphabet) for _ in range(rng.randint(0, 6)))
            assert apply(s, u + v) == apply(s, u) + apply(s, v)


def test_expand_fibonacci(fib):
    assert "".join(expand_fixed_point(fib, 5)) == "abaab"
    assert "".join(expand_fixed_point(fib, 8, project=True)) == "01001010"


def test_expand_paper_subst(paper_subst):
    assert "".join(expand_fixed_point(paper_subst, 8)) == "iabibaia"
    # project with lambda = (0, 1, 0)
    assert "".join(expand_fixed_point(paper_subst, 8, project=True)) == "01000101"


def test_expand_requires_fixed_point():
    s = Substitution(("a", "b"), (("b", "a"), ("a",)), ("0",), ("0", "0"), 0)
    with pytest.raises(DomainError, match="no fixed point"):
        expand_fixed_point(s, 4)


def test_expand_length_must_be_an_integer(fib):
    # small values only: unchecked, a float length is expanded to that many letters
    for n in (1.5, 2.0, None, "x"):
        with pytest.raises(DomainError) as err:
            expand_fixed_point(fib, n)
        assert str(err.value) == "prefix length must be an integer, not %r" % (n,)
    with pytest.raises(DomainError, match="^negative prefix length$"):
        expand_fixed_point(fib, -1.5)
    assert expand_fixed_point(fib, True) == expand_fixed_point(fib, 1) == ("a",)


# --- padded machines --------------------------------------------------------------

def test_padded_machine_fibonacci(fib):
    pm = to_padded_machine(fib)
    m = pm.machine
    assert m.states == ("a", "b", SINK_STATE)
    assert m.transition == ((0, 1), (0, 2), (2, 2))
    assert m.output_map == ("0", "1", SINK_OUTPUT)
    assert pm.sink == 2


def test_padded_machine_constant_sink_unreachable(thue_morse_3):
    pm = to_padded_machine(thue_morse_3)
    reachable = trim(pm.machine)
    assert SINK_STATE not in reachable.states
    assert reachable.n == 3


def test_padded_machine_custom_template(fib):
    pad = PaddingSpec(((SLOT, SLOT), (OMEGA, SLOT)))
    pm = to_padded_machine(fib, pad)
    assert pm.machine.transition[1] == (2, 0)  # b: omega then a


def test_padding_template_mismatch(fib):
    with pytest.raises(DomainError):
        to_padded_machine(fib, PaddingSpec(((SLOT, SLOT), (SLOT, SLOT))))


@pytest.mark.parametrize("templates, message", [
    (((SLOT,),), "need one padding template per letter"),
    (((SLOT, "x", SLOT), (SLOT, "x")), "template for 'a' must have length 2"),
    (((SLOT, "x"), (SLOT, SLOT, SLOT)), "bad template token 'x' for 'a'"),
    (((OMEGA, OMEGA), ("x", SLOT)), "template for 'a' must have exactly 2 slots"),
    (((SLOT, SLOT), (SLOT, "x", "y")), "template for 'b' must have length 2"),
    (((SLOT, SLOT), (OMEGA, "y")), "bad template token 'y' for 'b'"),
    (((SLOT, []), (SLOT, OMEGA)), "bad template token [] for 'a'"),
])
def test_padding_errors_in_order(fib, templates, message):
    # per letter in order: length, then tokens, then the slot count
    with pytest.raises(DomainError) as err:
        PaddingSpec(templates).validate(fib)
    assert str(err.value) == message


# --- constant-length digit indexing ---------------------------------------------

def test_letter_at_constant_examples(paper_subst):
    assert letter_at_constant(paper_subst, 2, "i", 2) == "b"
    assert letter_at_constant(paper_subst, 3, "i", 5) == "a"
    assert letter_at_constant(paper_subst, 4, "i", 0) == "i"


def test_letter_at_constant_matches_expansion(paper_subst, thue_morse_3):
    for s in (paper_subst, thue_morse_3):
        assert_letter_at_constant_matches_expansion(s, 5)


def test_letter_at_constant_huge_step(paper_subst):
    # leading zeros follow the first letters of the images: a -> b -> b ...
    tail = apply(paper_subst, apply(paper_subst, apply(paper_subst, "b")))
    for n, expected in enumerate(tail):
        assert letter_at_constant(paper_subst, 10 ** 12, "a", n) == expected
    # ... and here a -> b -> c -> b -> c ..., a cycle of two after one step
    s = Substitution(
        ("a", "b", "c"), (("b", "a"), ("c", "b"), ("b", "c")), ("0",), ("0",) * 3, 0
    )
    for k in (10 ** 9, 10 ** 9 + 1):
        for n in range(8):
            assert letter_at_constant(s, k, "a", n) == letter_at_constant(s, 4 + k % 2, "a", n)


def test_letter_at_constant_rejects(fib, paper_subst):
    with pytest.raises(DomainError, match="constant"):
        letter_at_constant(fib, 2, "a", 0)
    with pytest.raises(DomainError, match="out of range"):
        letter_at_constant(paper_subst, 2, "i", 4)
    with pytest.raises(DomainError, match="out of range"):
        letter_at_constant(paper_subst, 2, "i", -1)
    with pytest.raises(DomainError, match="out of range"):
        letter_at_constant(paper_subst, -1, "i", 0)
    unary = Substitution(("a",), (("a",),), ("0",), ("0",), 0)
    assert letter_at_constant(unary, 5, "a", 0) == "a"
    with pytest.raises(DomainError, match="out of range"):
        letter_at_constant(unary, 5, "a", 1)
    # the range is n < q**k exactly, in every base
    for q in (1, 2, 3):
        s = Substitution(("a",), (("a",) * q,), ("0",), ("0",), 0)
        for k in range(7):
            assert letter_at_constant(s, k, "a", q ** k - 1) == "a"
            with pytest.raises(DomainError, match="out of range"):
                letter_at_constant(s, k, "a", q ** k)
        assert letter_at_constant(s, 10 ** 12, "a", 2 ** 70 if q > 1 else 0) == "a"


# --- numeration ----------------------------------------------------------------------

def test_base_digits():
    assert base_digits(0, 2) == (0,)
    assert base_digits(5, 2) == (1, 0, 1)
    assert base_digits(0, 1) == (0,)
    with pytest.raises(DomainError):
        base_digits(1, 1)


def test_phi_examples():
    assert phi((0,), 2) == 0
    assert phi((0, 1), 2) == 2
    assert phi((1, 0, 1), 2) == 5
    with pytest.raises(DomainError):
        phi((), 2)
    with pytest.raises(DomainError):
        phi((2,), 2)
    # the digits are checked like any word's input symbols
    for word, message in [((1.5,), "input symbol must be an integer, not 1.5"),
                          (("1",), "input symbol must be an integer, not '1'"),
                          (None, "word must be iterable, not None")]:
        with pytest.raises(DomainError) as err:
            phi(word, 2)
        assert str(err.value) == message


@given(st.integers(1, 12).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=80))))
def test_phi_is_the_weighted_digit_sum(case):
    q, word = case
    assert phi(word, q) == sum(d * q ** j for j, d in enumerate(word))
    assert phi(tuple(word), q) == phi(word, q)


def test_phi_of_a_long_word_is_fast():
    # summing d * q**j, or Horner's rule alone, takes big-int work
    # quadratic in the length of the word
    word = [1, 0] * (5 * 10 ** 4)
    start = time.perf_counter()
    value = phi(word, 2)
    assert time.perf_counter() - start < 0.25
    assert value == (4 ** (5 * 10 ** 4) - 1) // 3
    assert phi([2] * 10 ** 5, 3) == 3 ** 10 ** 5 - 1


def test_psi_fibonacci(fib):
    pm = to_padded_machine(fib)
    assert [psi(pm, n) for n in range(5)] == [(0,), (1,), (0, 1), (0, 0, 1), (1, 0, 1)]


def test_psi_matches_language_enumeration(fib):
    pm = to_padded_machine(fib)
    words = language_words(pm, 8)
    assert len(words) == fixed_point_lengths(fib, 8)[8]
    assert [psi(pm, n) for n in range(len(words))] == words
    # ranks are distinct digit-sum values with the shortest representative
    values = [phi(w, 2) for w in words]
    assert values == sorted(set(values))
    for w in words:
        assert len(w) == 1 or w[-1] != 0


@st.composite
def padded_substitutions(draw):
    """A random substitution with a fixed point at its first letter, and a
    random padding that keeps a slot first in that letter's template."""
    size = draw(st.integers(1, 4))
    letter = st.integers(0, size - 1)
    rules = [[0] + draw(st.lists(letter, min_size=1, max_size=3))]
    rules += [draw(st.lists(letter, min_size=1, max_size=3)) for _ in range(size - 1)]
    q = max(len(img) for img in rules)
    templates = []
    for a, img in enumerate(rules):
        fixed = {0} if a == 0 else set()  # digit 0 must fix the start letter
        free = len(img) - len(fixed)
        slots = fixed | draw(st.sets(st.integers(len(fixed), q - 1),
                                     min_size=free, max_size=free))
        templates.append(tuple(SLOT if j in slots else OMEGA for j in range(q)))
    alphabet = tuple("abcd"[:size])
    s = Substitution(
        alphabet,
        tuple(tuple(alphabet[b] for b in img) for img in rules),
        ("0",),
        ("0",) * size,
        0,
    )
    return s, PaddingSpec(tuple(templates))


def assert_psi_matches_oracle(pm, max_numerals=500):
    """psi agrees with the numeral sweep on every word the sweep reaches, and
    the next rank needs a longer word."""
    q = pm.machine.input_count
    max_len = 1
    while q ** (max_len + 1) <= max_numerals:
        max_len += 1
    words = language_words(pm, max_len)
    assert [psi(pm, n) for n in range(len(words))] == words
    assert len(psi(pm, len(words))) > max_len


@given(padded_substitutions(), st.data(), st.integers(0, 300))
def test_expand_matches_level_by_level_iteration(subst, data, n):
    # read off as it is written, the fixed point is the one that applying
    # the substitution level by level gives, projected or not
    s = subst[0]
    projection = tuple(data.draw(st.sampled_from("01")) for _ in s.alphabet)
    s = Substitution(s.alphabet, s.rules, ("0", "1"), projection, s.initial)
    assert expand_fixed_point(s, n) == fixed_point_by_levels(s, n)
    assert expand_fixed_point(s, n, project=True) == fixed_point_by_levels(s, n, project=True)


def test_expand_is_linear_in_the_prefix_length():
    # one image per letter: applying LINEAR to the whole word once per level
    # is quadratic in the prefix length
    start = time.perf_counter()
    word = expand_fixed_point(LINEAR, 10 ** 5)
    projected = expand_fixed_point(LINEAR, 10 ** 5, project=True)
    assert time.perf_counter() - start < 0.5
    assert word == ("a",) + tuple("bc"[j % 2] for j in range(10 ** 5 - 1))
    assert projected == ("0",) * 10 ** 5


def assert_letter_at_matches_oracles(s, pad, max_length=120):
    """letter_at agrees with direct expansion and with the paper's route, the
    padded machine run on psi(j), at every index of the longest iterate (up
    to step 8) within max_length letters."""
    pm = to_padded_machine(s, pad)
    lengths = fixed_point_lengths(s, 8)
    k = max(r for r, length in enumerate(lengths) if length <= max_length)
    prefix = fixed_point_by_levels(s, lengths[k])
    for j, expected in enumerate(prefix):
        assert letter_at(s, pad, k, j) == expected
        state = left_action(pm.machine, psi(pm, j), pm.machine.initial)
        assert s.alphabet[state] == expected
    with pytest.raises(DomainError, match="out of range"):
        letter_at(s, pad, k, lengths[k])


@pytest.mark.parametrize("name", ["fib.subst", "threeletter.subst"])
def test_psi_matches_oracle_on_data(name):
    s, pad = parse_substitution(read_data(name))
    assert_psi_matches_oracle(to_padded_machine(s, pad), max_numerals=2 ** 14)


@given(padded_substitutions())
def test_psi_matches_oracle_random(subst):
    s, pad = subst
    assert_psi_matches_oracle(to_padded_machine(s, pad))


@pytest.mark.parametrize("name", ["fib.subst", "threeletter.subst"])
def test_letter_at_matches_oracles_on_data(name):
    s, pad = parse_substitution(read_data(name))
    assert_letter_at_matches_oracles(s, pad)


@given(padded_substitutions())
def test_letter_at_matches_oracles_random(subst):
    assert_letter_at_matches_oracles(*subst)


def test_psi_is_stateless(fib):
    pm = to_padded_machine(fib)
    words = language_words(pm, 10)
    ranks = range(len(words))
    assert [psi(pm, n) for n in reversed(ranks)] == words[::-1]
    assert [psi(pm, n) for n in ranks] == words


def test_psi_requires_zero_loop(fib):
    pad = PaddingSpec(((OMEGA, SLOT), (SLOT, SLOT)))
    s = Substitution(("a", "b"), (("a",), ("a", "b")), ("0", "1"), ("0", "1"), 0)
    pm = to_padded_machine(s, pad)
    with pytest.raises(DomainError, match="digit 0"):
        psi(pm, 0)


def test_psi_finite_language():
    # a -> a padded "_w", b -> a b: from a, only zeros avoid the sink
    s = Substitution(("a", "b"), (("a",), ("a", "b")), ("0", "1"), ("0", "1"), 0)
    pm = to_padded_machine(s, PaddingSpec(((SLOT, OMEGA), (SLOT, SLOT))))
    assert language_words(pm, 8) == [(0,)]
    assert psi(pm, 0) == (0,)
    with pytest.raises(DomainError, match="unreachable"):
        psi(pm, 1)


def test_trailing_zero_stability(fib):
    pm = to_padded_machine(fib)
    m = pm.machine
    for n in range(10):
        w = psi(pm, n)
        for extra in range(1, 4):
            padded = w + (0,) * extra
            assert phi(padded, 2) == phi(w, 2)
            assert left_action(m, padded, m.initial) == left_action(m, w, m.initial)


# --- fixed-point indexing via numeration -----------------------------------------------

def test_fixed_point_lengths(fib):
    assert fixed_point_lengths(fib, 6) == [1, 2, 3, 5, 8, 13, 21]


def test_letter_at_fibonacci(fib):
    assert letter_at(fib, None, 3, 4) == "b"
    assert letter_at(fib, None, 9, 0) == "a"
    with pytest.raises(DomainError, match="out of range"):
        letter_at(fib, None, 3, 5)
    with pytest.raises(DomainError, match="out of range"):
        letter_at(fib, None, 3, -1)


def test_letter_at_long_iterates(fib):
    # the descent stops at the shortest iterate longer than j, and k = 60
    # has about 2.5 * 10**12 letters, so neither sweeps anything
    start = time.monotonic()
    assert letter_at(fib, None, 10 ** 8, 5) == fixed_point_by_levels(fib, 6)[5]
    last = fixed_point_lengths(fib, 60)[60] - 1
    pm = to_padded_machine(fib)
    assert letter_at(fib, None, 60, last) == "a"  # even iterates end in a
    assert fib.alphabet[left_action(pm.machine, psi(pm, last), 0)] == "a"
    assert time.monotonic() - start < 1.0


# sigma^r(a) = a b c b c ... has r + 1 letters, so index j needs j + 1 count
# levels; the fixed point reads a, then b at odd and c at even indices.
LINEAR = Substitution(("a", "b", "c"), (("a", "b"), ("c",), ("b",)), ("0",), ("0",) * 3, 0)


def test_letter_at_linear_growth_in_bounded_memory():
    # one count row per level took 41 MB here; the kept levels grow as sqrt(j),
    # and the substitution keeps nothing but its block table
    s = fresh(LINEAR)
    tracemalloc.start()
    try:
        letter = letter_at(s, None, 10 ** 9, 3 * 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert letter == "c"
    assert peak < 4 * 2 ** 20
    assert s._block_table == fresh(LINEAR)._blocks()


@pytest.mark.parametrize("kept", [1, 2, 3])
def test_unrank_recounts_blocks_exactly(kept, monkeypatch):
    # keeping only every gap-th count level changes no answer; fresh
    # instances, since a table grown before the patch may be longer
    monkeypatch.setattr(substitution, "_KEPT_LEVELS", kept)
    gaps = []
    recount = substitution._recount

    def counted_recount(rows, levels, gap, depth):
        gaps.append(gap)
        return recount(rows, levels, gap, depth)

    monkeypatch.setattr(substitution, "_recount", counted_recount)
    linear = fresh(LINEAR)
    prefix = fixed_point_by_levels(linear, 300)
    assert tuple(letter_at(linear, None, 10 ** 9, j) for j in range(300)) == prefix
    # past the reach of the block table, letter_at descends through the gaps too
    assert letter_at(linear, None, 10 ** 9, 5001) == "b"
    assert_psi_matches_oracle(to_padded_machine(linear))
    assert_letter_at_matches_oracles(parse_substitution(read_data("fib.subst"))[0], None)
    s, pad = parse_substitution(read_data("threeletter.subst"))
    assert_letter_at_matches_oracles(s, pad)
    assert_psi_matches_oracle(to_padded_machine(s, pad), max_numerals=2 ** 10)
    assert gaps and min(gaps) > 1


@pytest.mark.parametrize("name, k", [("fib.subst", 12), ("threeletter.subst", 6)])
def test_letter_at_descending_then_ascending(name, k):
    # the first query builds the block table, later ones only read it
    for s in (parse_substitution(read_data(name))[0], fresh(LINEAR)):
        length = fixed_point_lengths(s, k)[k]
        prefix = fixed_point_by_levels(s, length)
        assert letter_at(s, None, k, 1) == prefix[1]
        table = s._block_table
        snapshot = copy.deepcopy(table)
        assert [letter_at(s, None, k, j) for j in reversed(range(length))] == list(prefix[::-1])
        assert [letter_at(s, None, k, j) for j in range(length)] == list(prefix)
        assert s._block_table is table and table == snapshot  # never changed
        with pytest.raises(DomainError, match="length %d" % length):
            letter_at(s, None, k, length)
        # a column of lengths deeper than k leaves the range of step k as it was
        shorter = fixed_point_lengths(s, k - 1)[k - 1]
        with pytest.raises(DomainError, match="length %d" % shorter):
            letter_at(s, None, k - 1, length - 1)


def test_letter_at_threads_share_one_table():
    # four threads on one fresh substitution, each in its own order, while
    # the block table is built under them
    fib = parse_substitution(read_data("fib.subst"))[0]
    for s, k, length in ((fresh(LINEAR), 10 ** 9, 500), (fib, 14, 610)):
        assert_four_threads_agree(s, k, length)
        assert s._block_table == fresh(s)._blocks()


def assert_four_threads_agree(s, k, length):
    """Four threads ask s for every letter of its k-th iterate (of ``length``
    letters), each in its own order, and all get the expansion's letters."""
    prefix = fixed_point_by_levels(fresh(s), length)
    ranks = list(range(length))
    orders = [ranks, ranks[::-1]] + [random.Random(i).sample(ranks, length) for i in (1, 2)]
    answers = [None] * len(orders)

    def query(i):
        answers[i] = [(j, letter_at(s, None, k, j)) for j in orders[i]]

    threads = [threading.Thread(target=query, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for order, got in zip(orders, answers):
        assert got == [(j, prefix[j]) for j in order]


def test_warm_table_keeps_equality_hash_and_repr():
    warm, cold = fresh(LINEAR), fresh(LINEAR)
    pad = PaddingSpec.default(warm)
    assert letter_at(warm, pad, 10 ** 9, 500) == "c"
    assert warm._block_table is not None and cold._block_table is None
    assert warm._checked_pad is pad and cold._checked_pad is None
    # the constant-length slot is index data too: flipping it changes nothing
    object.__setattr__(warm, "_constant_length", not cold._constant_length)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    twin = pickle.loads(pickle.dumps(warm))
    assert twin == cold and twin._block_table is None and twin._checked_pad is None
    assert twin._constant_length is cold._constant_length is False


@pytest.mark.parametrize("bound", [0, 1, 5, 64])
def test_letter_at_in_every_block_regime(bound, monkeypatch):
    # at the default bound the oracle iterates are read whole from the
    # fixed-point table; small bounds give a short reach and a shallow block
    # table, so most queries descend
    monkeypatch.setattr(substitution, "_BLOCK_LETTERS", bound)
    for name in ("fib.subst", "threeletter.subst"):
        s, pad = parse_substitution(read_data(name))
        assert_letter_at_matches_oracles(s, pad)
        assert_psi_matches_oracle(to_padded_machine(s, pad))
        assert s._blocks().t <= (1 if bound <= 5 else 5)
    assert_letter_at_constant_matches_expansion(
        parse_substitution(read_data("threeletter.subst"))[0], 7)

    @given(padded_substitutions())
    def matches_oracles(subst):
        assert_letter_at_matches_oracles(*subst)

    @given(constant_substitutions())
    def constant_matches_expansion(s):
        assert_letter_at_constant_matches_expansion(s, 5)

    matches_oracles()
    constant_matches_expansion()
    for name, k in (("fib.subst", 12), ("threeletter.subst", 6)):
        test_letter_at_descending_then_ascending(name, k)
    test_letter_at_threads_share_one_table()


def test_block_table_published_once(monkeypatch):
    # a short reach, so that the ranks fall on both sides of it
    monkeypatch.setattr(substitution, "_BLOCK_LETTERS", 64)
    s, cold = fresh(LINEAR), fresh(LINEAR)
    assert s._block_table is None
    assert letter_at(s, None, 10 ** 9, 3) == "b"
    blocks = s._block_table
    t, reach = block_table(s).t, block_table(s).reach
    prefix = fixed_point_by_levels(cold, 201)
    # past the reach, in the start letter's block, at its edge, at the reach
    ranks = (200, 0, t, t + 1, 5, reach - 1, reach, reach + 1)
    assert [letter_at(s, None, 10 ** 9, j) for j in ranks] == [prefix[j] for j in ranks]
    assert s._block_table is blocks
    assert s._blocks() is blocks
    assert_four_threads_agree(s, 10 ** 9, 500)
    assert s._block_table is blocks
    assert s == cold and hash(s) == hash(cold) and repr(s) == repr(cold)


QUADRATIC = Substitution(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c",)), ("0",), ("0",) * 3, 0)


@pytest.mark.parametrize("s", [LINEAR, QUADRATIC], ids=["linear", "quadratic"])
def test_block_table_build_is_bounded(s):
    # the bound counts the letters of every level built, so growth as slow
    # as LINEAR's still builds only O(bound) letters, in few levels
    s = fresh(s)
    table = block_table(s)
    t, words, offsets = table.t, table.words, table.offsets
    prefix = tuple(s.alphabet.index(a) for a in table.letters)
    bound = substitution._BLOCK_LETTERS
    levels = [[1] * len(s.alphabet)]
    for _ in range(t + 1):
        levels.append(substitution._level_above(s._rows, levels[-1]))
    assert sum(map(sum, levels[:t + 1])) <= bound < sum(map(sum, levels))
    assert words == tuple(expand_iterate(s, a, t) for a in s.alphabet)
    assert sum(map(len, words)) <= bound
    # and the fixed-point prefix and its offsets hold bound letters each
    assert len(prefix) == bound and len(offsets) == bound + 1
    assert offsets == array("q", accumulate((len(words[b]) for b in prefix), initial=0))
    assert table.blockwords == tuple(words[b] for b in prefix)
    assert table.reach == offsets[-1]


@pytest.mark.parametrize("bound", [0, 1, 5, 64, None])
def test_block_table_column_stops_at_the_reach(bound, monkeypatch):
    # limits[r] = min(|sigma^r(start)|, reach), strictly growing, up to the
    # first iterate that reaches as far as the table; (0,) without a fixed point
    if bound is not None:
        monkeypatch.setattr(substitution, "_BLOCK_LETTERS", bound)
    data = [parse_substitution(read_data(name))[0] for name in ("fib.subst", "threeletter.subst")]
    for s in data + [LINEAR, QUADRATIC]:
        table = block_table(fresh(s))
        limits, reach = table.limits, table.reach
        lengths = fixed_point_lengths(s, len(limits) - 1)
        assert all(a < b for a, b in zip(limits, limits[1:]))
        assert list(limits) == [min(length, reach) for length in lengths]
        assert lengths[-1] >= reach and all(length < reach for length in lengths[:-1])
    assert block_table(fresh(ROTATING)).limits == (0,)


def expand_iterate(s, a, t):
    word = (a,)
    for _ in range(t):
        word = apply(s, word)
    return word


@pytest.mark.parametrize("bound", [0, 1, 5, 64])
def test_letter_at_around_the_reach(bound, monkeypatch):
    # below the reach a letter is read from the fixed-point table, from it
    # on it is found by descent; both agree with the expansion, and an
    # iterate that ends below the reach still ends where it ends
    monkeypatch.setattr(substitution, "_BLOCK_LETTERS", bound)
    data = [parse_substitution(read_data(name))[0] for name in ("fib.subst", "threeletter.subst")]
    for s in data + [fresh(LINEAR), fresh(QUADRATIC)]:
        table = block_table(s)
        prefix, offsets, reach = table.letters, table.offsets, table.reach
        assert len(prefix) == bound and len(offsets) == bound + 1
        fixed = fixed_point_by_levels(s, reach + 2)
        assert prefix == fixed[:bound]
        lengths = fixed_point_lengths(s, 200)
        deep = next(r for r, length in enumerate(lengths) if length > reach + 1)
        ranks = [j for j in (reach - 1, reach, reach + 1) if j >= 0]
        for k in (deep, 10 ** 9):
            assert [letter_at(s, None, k, j) for j in ranks] == [fixed[j] for j in ranks]
        for k, length in enumerate(lengths[:deep]):
            assert letter_at(s, None, k, length - 1) == fixed[length - 1]
            with pytest.raises(DomainError, match="length %d" % length):
                letter_at(s, None, k, length)


@pytest.mark.parametrize("name", ["fib.subst", "threeletter.subst", "linear", "quadratic"])
def test_letter_at_around_the_prefix(name):
    # below the table's prefix a letter is read by index, from it up to the
    # reach by bisection; both agree with the expansion at the prefix's end
    # and on both sides of the iterates whose lengths cross it
    s = {"linear": LINEAR, "quadratic": QUADRATIC}.get(name)
    s = fresh(s) if s else parse_substitution(read_data(name))[0]
    n = len(block_table(s).letters)
    assert n == substitution._BLOCK_LETTERS
    lengths = fixed_point_lengths(s, n)
    cross = next(k for k, length in enumerate(lengths) if length >= n)
    fixed = fixed_point_by_levels(s, max(n + 2, lengths[cross] + 1))
    for k in (cross, cross + 1, 10 ** 9):
        ranks = [j for j in (n - 1, n, n + 1) if k == 10 ** 9 or j < lengths[k]]
        assert [letter_at(s, None, k, j) for j in ranks] == [fixed[j] for j in ranks]
    for k in (cross - 1, cross):
        length = lengths[k]
        assert letter_at(s, None, k, length - 1) == fixed[length - 1]
        assert letter_at(s, None, 10 ** 9, length) == fixed[length]
        with pytest.raises(DomainError, match="length %d" % length):
            letter_at(s, None, k, length)


def test_fixed_point_prefix_is_read_off_in_linear_time(monkeypatch):
    # one image is read per letter of the prefix; expanding sigma^u(a) level
    # by level would read about bound**2 / 2 images on LINEAR
    reads = []

    class CountedRows(tuple):
        def __getitem__(self, a):
            reads.append(a)
            return tuple.__getitem__(self, a)

    for bound in (600, substitution._BLOCK_LETTERS):
        monkeypatch.setattr(substitution, "_BLOCK_LETTERS", bound)
        s = fresh(LINEAR)
        object.__setattr__(s, "_rows", CountedRows(s._rows))
        reads.clear()
        prefix = block_table(s).letters
        assert len(reads) <= bound + 3
        # the fixed point reads a, then b at odd and c at even indices
        assert prefix == ("a",) + tuple("cb"[j % 2] for j in range(1, bound))
    fixed = fixed_point_by_levels(LINEAR, 600)
    assert prefix[:600] == fixed


# sigma^t(b) = b is one letter and sigma^t(a) about 2**(t+1), so the block
# table's width is raised past its shortest block
SKEWED = Substitution(("a", "b"), (("a", "a", "b"), ("b",)), ("0",), ("0",) * 2, 0)
# likewise, and at bound 64 its last bucket holds three blocks
SKEWED_RUNS = Substitution(("a", "b"), (("a", "a", "b", "b"), ("b",)), ("0",), ("0",) * 2, 0)

# no letter starts its own image, so there is no fixed point to index
ROTATING = Substitution(("a", "b", "c"), (("b", "a"), ("c", "b"), ("a", "c")), ("0",), ("0",) * 3, 0)


@pytest.mark.parametrize("bound", [5, 64, None])
def test_no_fixed_point_builds_an_empty_prefix(bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(substitution, "_BLOCK_LETTERS", bound)
    s = fresh(ROTATING)
    blocks = s._blocks()
    table = block_table(s)
    t = table.t
    assert (table.letters, tuple(table.offsets), table.limits, table.reach) == ((), (0,), (0,), 0)
    assert (tuple(table.starts), table.blockwords) == ((), ())
    with pytest.raises(DomainError, match="no fixed point"):
        letter_at(s, None, 1, 0)
    # steps below, at and well past the depth of the block table
    assert_letter_at_constant_matches_expansion(s, t + 6)
    # 10**9 - (t + 1) leading zeros take a around a -> b -> c -> a
    word = expand_iterate(s, s.alphabet[(10 ** 9 - t - 1) % 3], t + 1)
    assert tuple(letter_at_constant(s, 10 ** 9, "a", n) for n in range(len(word))) == word
    assert s._block_table is blocks


@st.composite
def constant_substitutions(draw):
    """A random constant-length substitution, with or without a fixed point."""
    size = draw(st.integers(1, 4))
    q = draw(st.integers(1, 3))
    alphabet = tuple("abcd"[:size])
    letter = st.sampled_from(alphabet)
    rules = tuple(tuple(draw(st.lists(letter, min_size=q, max_size=q))) for _ in alphabet)
    return Substitution(alphabet, rules, ("0",), ("0",) * size, draw(st.integers(0, size - 1)))


def assert_letter_at_constant_matches_expansion(s, steps):
    """letter_at_constant agrees with the iterated images of every letter at
    every index, for each step below ``steps``."""
    for a in s.alphabet:
        word = (a,)
        for k in range(steps):
            assert tuple(letter_at_constant(s, k, a, n) for n in range(len(word))) == word
            word = apply(s, word)


@given(constant_substitutions())
def test_letter_at_constant_matches_expansion_random(s):
    assert_letter_at_constant_matches_expansion(s, 5)


def image_letter(s, k, a, n, expanded):
    """Letter n of sigma^k(a) for a constant-length s, from expansions of at
    most 8 steps, kept in the dict ``expanded``: sigma^k(a) is sigma^(k-8)
    applied to sigma^8(a), so letter n is letter n mod q^(k-8) of the image
    of letter n div q^(k-8)."""
    while True:
        m = min(k, 8)
        if (a, m) not in expanded:
            expanded[a, m] = expand_iterate(s, a, m)
        below = s.q ** (k - m)
        a, n, k = expanded[a, m][n // below], n % below, k - m
        if k == 0:
            return a


@pytest.mark.parametrize("bound", [0, 1, 5, 64, substitution._BLOCK_LETTERS])
@given(s=constant_substitutions(), data=st.data())
def test_letter_at_constant_on_both_sides_of_t_and_2t(bound, s, data):
    # with the table at depth t, steps 0..t are one read, t+1..2t two, and
    # later ones descend; every letter agrees with the expansion at every
    # step to 2t + 2, at every index of images up to 2048 letters and at the
    # block edges and drawn indices of longer ones, and the first index past
    # an image is out of range
    with mock.patch.object(substitution, "_BLOCK_LETTERS", bound):
        s = fresh(s)
        t = s._blocks().t
    q, block, expanded = s.q, s.q ** t, {}
    for a in s.alphabet:
        word = (a,)
        for k in range(2 * t + 3):
            size = q ** k
            if size <= 2048:
                assert tuple(letter_at_constant(s, k, a, n) for n in range(size)) == word
                word = apply(s, word)
            else:
                drawn = data.draw(st.lists(st.integers(0, size - 1), max_size=4))
                edges = {0, block - 1, block, size - block - 1, size - block, size - 1}
                ranks = sorted(n for n in edges.union(drawn) if 0 <= n < size)
                assert ([letter_at_constant(s, k, a, n) for n in ranks]
                        == [image_letter(s, k, a, n, expanded) for n in ranks])
            try:  # not pytest.raises: for q = 1, t is in the thousands
                letter_at_constant(s, k, a, size)
                raise AssertionError("index %d accepted for step %d" % (size, k))
            except DomainError as err:
                assert str(err) == "index %d out of range for step %d" % (size, k)


@given(s=constant_substitutions(), data=st.data())
def test_letter_at_constant_matches_the_dual(s, data):
    # the paper's duality as the oracle: the dual of the letter machine reads
    # the digits of n on the right; steps on both sides of 2t, and bools
    t = s._blocks().t
    a = data.draw(st.sampled_from(s.alphabet))
    k = data.draw(st.integers(0, 2 * t + 8) | st.integers(2 * t + 1, 2 * t + 8) | st.booleans())
    n = data.draw(st.integers(0, s.q ** k - 1))
    assert letter_at_constant(s, k, a, n) == letter_by_dual(s, a, k, n)


def test_non_constant_errors_build_no_table():
    # the constant-length check comes first, before the table is built
    s = fresh(UNEVEN)
    queries = ((2, "i", 1), (0, "i", 0), (-1, "z", 5), (10 ** 9, 0, 2 ** 40), (1.5, "i", None))
    for k, a, n in queries:
        with pytest.raises(DomainError, match="^substitution is not constant-length$"):
            letter_at_constant(s, k, a, n)
    assert s._block_table is None


@pytest.mark.parametrize("templates", [
    [[SLOT, SLOT], [SLOT, OMEGA]],
    ([SLOT, SLOT], (SLOT, OMEGA)),
    ((SLOT, SLOT), (SLOT, "x")),
    [[SLOT, []], (SLOT, OMEGA)],
    ((SLOT, SLOT), (SLOT, {})),
    ((SLOT, SLOT), "_w"),
    ((SLOT, SLOT),),
    None,
    5,
])
def test_padding_spec_builds_from_anything(fib, templates):
    # a PaddingSpec keeps its templates as given and validates as those raw
    # templates do, with the same errors, even after one of them is mutated
    pad = PaddingSpec(templates)
    try:
        got = pad.validate(fib)
    except (DomainError, TypeError) as e:
        got = type(e), str(e)
    try:
        want = PaddingSpec.validate(_RawTemplates(templates), fib)
    except (DomainError, TypeError) as e:
        want = type(e), str(e)
    assert got == want
    if templates == [[SLOT, SLOT], [SLOT, OMEGA]]:
        templates[1] = [SLOT, SLOT]  # a template changed after construction
        with pytest.raises(DomainError, match="exactly 1 slots"):
            pad.validate(fib)


class _RawTemplates:
    """Templates outside a PaddingSpec, for PaddingSpec.validate to check as given."""

    def __init__(self, templates):
        self.templates = templates


def test_letter_at_checks_padding():
    s = Substitution(
        ("a", "b"), (("a", "b"), ("a", "b", "b")), ("0", "1"), ("0", "1"), 0
    )
    assert letter_at(s, None, 2, 1) == "b"
    with pytest.raises(DomainError, match="digit 0"):
        letter_at(s, PaddingSpec(((OMEGA, SLOT, SLOT), (SLOT, SLOT, SLOT))), 2, 1)
    with pytest.raises(DomainError, match="slots"):
        letter_at(s, PaddingSpec(((SLOT, SLOT, SLOT), (SLOT, SLOT, SLOT))), 2, 1)


def test_letter_at_matches_expansion(fib):
    prefix = fixed_point_by_levels(fib, fixed_point_lengths(fib, 8)[8])
    for j, expected in enumerate(prefix):
        assert letter_at(fib, None, 8, j) == expected


def test_letter_at_alternative_padding():
    # padding in front of the short image; language differs, letters must not
    s = Substitution(
        ("a", "b", "c"),
        (("a", "b"), ("c",), ("a", "b")),
        ("0", "1"),
        ("0", "1", "1"),
        0,
    )
    pad = PaddingSpec((
        (SLOT, SLOT),
        (OMEGA, SLOT),
        (SLOT, SLOT),
    ))
    prefix = fixed_point_by_levels(s, 40)
    for j in range(40):
        assert letter_at(s, pad, 12, j) == prefix[j]


# --- what a warm query checks ----------------------------------------------------------

def test_warm_queries_make_no_per_substitution_checks(monkeypatch):
    # below the reach a warm letter_at is one table read and at most one
    # comparison of padding shapes, and a warm letter_at_constant reads the
    # constant-length slot; every check that depends only on the
    # substitution fails the query if it is called again
    fib, pad = parse_substitution(read_data("fib.subst"))
    const = parse_substitution(read_data("threeletter.subst"))[0]
    prefix = fixed_point_by_levels(fib, fixed_point_lengths(fib, 18)[18])
    t = const._blocks().t
    steps = (t, t + 1, 11, 2 * t)  # one table read, then two
    images = {k: expand_iterate(const, "i", k) for k in steps}
    assert letter_at(fib, pad, 18, 0) == prefix[0]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm query checked its substitution again")

    for owner, name in ((substitution, "check_fixed_point"), (substitution, "_unrank"),
                        (substitution, "is_constant_length"), (PaddingSpec, "validate"),
                        (Substitution, "_blocks")):
        monkeypatch.setattr(owner, name, refuse)
    for j in range(0, len(prefix), 7):
        assert letter_at(fib, pad, 18, j) == prefix[j]
        assert letter_at(fib, None, 10 ** 9, j) == prefix[j]
    # up to step 2t a warm letter_at_constant neither walks the digits on the
    # rule rows nor raises q to a power
    object.__setattr__(const, "_rows", _Refused())
    object.__setattr__(const, "q", _Refused())
    for k, image in images.items():
        for n in range(0, len(image), 5 if k < 2 * t else 997):
            assert letter_at_constant(const, k, "i", n) == image[n]
    # the patches are live: past its step a query descends, and checks first,
    # and past step 2t q is read before the descent
    with pytest.raises(AssertionError, match="checked its substitution"):
        letter_at(fib, pad, 18, len(prefix))
    with pytest.raises(AssertionError, match="digit walk"):
        letter_at_constant(const, 2 * t + 1, "i", 0)


class _Refused:
    """Stands in for the rule rows and q: any use fails the query."""

    def _refuse(self, *args):
        raise AssertionError("a warm query made a digit walk or took a power")

    __getitem__ = __len__ = __iter__ = __bool__ = __index__ = __int__ = _refuse
    __pow__ = __rpow__ = __mul__ = __rmul__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse


def test_warm_reads_below_the_prefix_neither_bisect_nor_validate(monkeypatch):
    # below the table's prefix a warm letter_at is one index, and up to the
    # reach one bucket read and at most one step forward, since no bucket
    # spans more than two of fib's blocks; a padding it has checked before
    # is not compared or validated again
    fib, pad = parse_substitution(read_data("fib.subst"))
    table = block_table(fib)
    n, reach = len(table.letters), table.reach
    length = fixed_point_lengths(fib, 18)[18]
    fixed = fixed_point_by_levels(fib, reach)
    assert n < length < reach
    assert letter_at(fib, pad, 18, 0) == fixed[0]
    assert fib._checked_pad is pad
    # a table whose width had to be raised, built before bisect_right is refused
    skewed = fresh(SKEWED)
    skew = block_table(skewed)
    j = next(x for i, x in enumerate(skew.offsets[:-1])
             if x >= len(skew.letters) and i >= skew.starts[x // skew.width] + 2)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError("a warm query called " + name)
        return call

    monkeypatch.setattr(substitution, "bisect_right", refuse("bisect_right"))
    monkeypatch.setattr(substitution, "_unrank", refuse("_unrank"))
    monkeypatch.setattr(PaddingSpec, "validate", refuse("validate"))
    for j18 in range(0, length, 3):
        assert letter_at(fib, pad, 18, j18) == fixed[j18]
    for far in [*range(0, reach, 37), reach - 1]:
        assert letter_at(fib, None, 10 ** 9, far) == fixed[far]
    # the patches are live: past the reach a query descends, a bucket that
    # spans more than two blocks is bisected, and a padding not yet checked
    # is validated
    with pytest.raises(AssertionError, match="_unrank"):
        letter_at(fib, pad, 10 ** 9, reach)
    with pytest.raises(AssertionError, match="bisect_right"):
        letter_at(skewed, None, 10 ** 9, j)
    with pytest.raises(AssertionError, match="validate"):
        letter_at(fib, PaddingSpec(list(pad.templates)), 18, 0)


def test_letter_at_checks_a_mutable_padding_on_every_query(fib):
    # a padding built from lists can change after it passed, so it is never
    # remembered
    pad = PaddingSpec([[SLOT, SLOT], [SLOT, OMEGA]])
    assert letter_at(fib, pad, 18, 0) == "a"
    pad.templates[1].append(OMEGA)
    with pytest.raises(DomainError) as err:
        letter_at(fib, pad, 18, 0)
    assert str(err.value) == "template for 'b' must have length 2"
    assert fib._checked_pad is None


# --- error precedence --------------------------------------------------------------------

# a fixed point at a whose image is shorter than q = 3, so that a padding of
# the right shape can put w first; the same rules without a fixed point
GROWING = Substitution(("a", "b"), (("a", "b"), ("a", "b", "b")), ("0",), ("0",) * 2, 0)
NO_FIXED_POINT = Substitution(("a", "b"), (("b", "a"), ("a", "b", "b")), ("0",), ("0",) * 2, 0)
PADS = {
    "none": None,
    "default": PaddingSpec(((SLOT, SLOT, OMEGA), (SLOT, SLOT, SLOT))),
    "bad-shape": PaddingSpec(((SLOT, SLOT, SLOT), (SLOT, SLOT, SLOT))),
    "w-first": PaddingSpec(((OMEGA, SLOT, SLOT), (SLOT, SLOT, SLOT))),
}


def letter_at_error(s, pad, k, j):
    """The message letter_at gives, or None: the checks in their order."""
    if s is not GROWING:
        return "no fixed point: the image of 'a' must start with it and grow"
    if k < 0:
        return "negative iteration count"
    if j < 0:
        return "index %d out of range for step %d" % (j, k)
    length = fixed_point_lengths(GROWING, min(k, 20))[-1]  # 20 steps pass 10**7
    if j >= length:
        return "index %d out of range for step %d (length %d)" % (j, k, length)
    if pad == "bad-shape":
        return "template for 'a' must have exactly 2 slots"
    if pad == "w-first":
        return "numeration needs digit 0 to fix the initial letter"
    return None


@pytest.mark.parametrize("s", [GROWING, NO_FIXED_POINT, ROTATING],
                         ids=["fixed-point", "no-fixed-point", "rotating"])
@pytest.mark.parametrize("pad", PADS)
@pytest.mark.parametrize("k", [2, -1, 10 ** 9])
# inside step 2, negative, past step 2 below the reach, past step 2 and the reach
@pytest.mark.parametrize("j", [1, -1, 5, 10 ** 7])
def test_letter_at_error_precedence(s, pad, k, j):
    # cold and warm substitutions give the same message
    want = letter_at_error(s, pad, k, j)
    for warm in (False, True):
        s = fresh(s)
        if warm:
            s._blocks()
        if want is None:  # the padded machine's letter on psi(j)
            pm = to_padded_machine(s)
            state = left_action(pm.machine, psi(pm, j), pm.machine.initial)
            assert letter_at(s, PADS[pad], k, j) == s.alphabet[state]
        else:
            with pytest.raises(DomainError) as err:
                letter_at(s, PADS[pad], k, j)
            assert str(err.value) == want


# the paper's worked example (q = 2) and the same letters with a short image
PAPER = Substitution(("i", "a", "b"), (("i", "a"), ("b", "i"), ("b", "a")),
                     ("0", "1"), ("0", "1", "0"), 0)
UNEVEN = Substitution(("i", "a", "b"), (("i", "a"), ("b",), ("b", "a")),
                      ("0", "1"), ("0", "1", "0"), 0)


@pytest.mark.parametrize("s", [PAPER, UNEVEN], ids=["constant", "not-constant"])
@pytest.mark.parametrize("a", ["i", "z"])
@pytest.mark.parametrize("k", [2, -1, 10 ** 9])
@pytest.mark.parametrize("n", [2, 4, -1])  # inside step 2, past it, negative
def test_letter_at_constant_error_precedence(s, a, k, n):
    if s is UNEVEN:
        want = "substitution is not constant-length"
    elif a == "z":
        want = "unknown letter 'z'"
    elif k < 0 or n < 0 or n >= 2 ** min(k, 3):
        want = "index %d out of range for step %d" % (n, k)
    else:
        assert letter_at_constant(s, k, a, n) == letter_at_constant(s, min(k, 5), a, n)
        return
    for warm in (False, True):
        s = fresh(s)
        if warm:
            s._blocks()
        with pytest.raises(DomainError) as err:
            letter_at_constant(s, k, a, n)
        assert str(err.value) == want


# --- invariants of the table read ------------------------------------------------------

@st.composite
def any_substitutions(draw):
    """A random substitution, with or without a fixed point at its start."""
    size = draw(st.integers(1, 4))
    alphabet = tuple("abcd"[:size])
    letter = st.sampled_from(alphabet)
    rules = tuple(tuple(draw(st.lists(letter, min_size=1, max_size=3))) for _ in alphabet)
    return Substitution(alphabet, rules, ("0",), ("0",) * size, draw(st.integers(0, size - 1)))


@given(any_substitutions())
def test_only_a_fixed_point_gives_the_table_a_reach(s):
    # so a query that the table answers needs no fixed-point check
    try:
        check_fixed_point(s)
        fixed = True
    except DomainError:
        fixed = False
    assert (block_table(s).reach > 0) == fixed
    assert s._constant_length == (min(map(len, s.rules)) == s.q) == is_constant_length(s)


@given(padded_substitutions(), st.sampled_from([1, 2, 5, 64]))
def test_warm_letter_at_matches_expansion_around_the_reach(subst, bound):
    # every padding the numeration accepts gives the expansion's letters,
    # below, at and past the reach, at the first step that long and at 10**9
    # and on both sides of the end of the prefix and of the iterates whose
    # lengths cross it
    s, custom = subst
    with mock.patch.object(substitution, "_BLOCK_LETTERS", bound):
        s = fresh(s)
        table = block_table(s)
    reach, n = table.reach, len(table.letters)
    lengths = fixed_point_lengths(s, reach + 2)
    deep = next(r for r, length in enumerate(lengths) if length > reach + 1)
    cross = next(r for r, length in enumerate(lengths) if length >= n)
    fixed = fixed_point_by_levels(s, max(reach + 2, lengths[cross] + 1))
    ranks = sorted({0, reach // 2, max(reach - 1, 0), reach, reach + 1, max(n - 1, 0), n, n + 1})
    for pad in (None, PaddingSpec.default(s), custom):
        for k in (deep, 10 ** 9):
            assert [letter_at(s, pad, k, j) for j in ranks] == [fixed[j] for j in ranks]
        for k in (max(cross - 1, 0), cross):
            length = lengths[k]
            assert letter_at(s, pad, k, length - 1) == fixed[length - 1]
            with pytest.raises(DomainError, match="length %d" % length):
                letter_at(s, pad, k, length)


@given(st.one_of(padded_substitutions(), any_substitutions().map(lambda s: (s, None))))
def test_padded_machine_passes_the_checked_constructor(subst):
    # to_padded_machine builds its machine without MooreMachine's checks,
    # so every one of them must hold: the checked constructor takes its fields
    s, pad = subst
    m = to_padded_machine(s, pad).machine
    assert MooreMachine(*m._key()) == m


def fixed_point_string(s, n):
    """The first n letters of the fixed point of single-character letters,
    as a string: fixed_point_by_levels's definition, with the word applied
    to by ``str.translate``, so that millions of letters take a second."""
    images = str.maketrans({a: "".join(img) for a, img in zip(s.alphabet, s.rules)})
    w = s.alphabet[s.initial]
    while len(w) < n:
        w = w.translate(images)
    return w[:n]


@pytest.mark.parametrize("bound", [0, 1, 5, 64, substitution._BLOCK_LETTERS])
def test_warm_letter_at_at_bucket_and_block_edges(bound, monkeypatch):
    # below the reach, every bucket start and block start and the index
    # before each reads the fixed point's letter: on SKEWED and SKEWED_RUNS,
    # whose widths are raised past their shortest blocks, and on random fixed
    # points; and the bucket index stays within 2 * _BLOCK_LETTERS + 1 entries
    monkeypatch.setattr(substitution, "_BLOCK_LETTERS", bound)

    def assert_edges_match(s):
        s = fresh(s)
        table = block_table(s)
        reach = table.reach
        assert len(table.starts) <= 2 * bound + 1
        edges = {*range(0, reach, table.width), *table.offsets[:-1]}
        ranks = sorted({j - d for j in edges for d in (0, 1) if 0 <= j - d < reach})
        fixed = fixed_point_string(s, reach)
        assert fixed[:2000] == "".join(fixed_point_by_levels(s, min(reach, 2000)))
        assert "".join([letter_at(s, None, 10 ** 9, j) for j in ranks]) == "".join(
            [fixed[j] for j in ranks])

    assert_edges_match(SKEWED)
    assert_edges_match(SKEWED_RUNS)
    # at the default bound a random fixed point's reach runs to millions
    examples = 100 if bound < substitution._BLOCK_LETTERS else 10
    given(padded_substitutions())(settings(max_examples=examples)(
        lambda subst: assert_edges_match(subst[0])))()


def test_fib_block_table_is_smaller_than_the_tuple_layout():
    # 205,624 bytes on 64-bit CPython 3.11 while the offsets were a tuple of
    # ints and the prefix a tuple of letter indices
    fib = parse_substitution(read_data("fib.subst"))[0]
    tracemalloc.start()
    try:
        fib._blocks()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 205_624


# --- substitution minimization -----------------------------------------------------------

def test_minimize_thue_morse(thue_morse_3):
    small, note = minimize_substitution(thue_morse_3)
    assert len(small.alphabet) == 2
    assert small.rules == (("c0", "c1"), ("c1", "c0"))
    assert small.projection == ("0", "1")
    assert "constant-length" in note
    assert "".join(expand_fixed_point(small, 8, project=True)) == "01101001"


def test_minimize_fibonacci_fixed_point(fib):
    small, note = minimize_substitution(fib)
    assert substitutions_isomorphic(fib, small) is not None
    assert "padded" in note


def test_minimize_merges_duplicate_letters():
    s = Substitution(
        ("a", "b", "c"),
        (("a", "b", "c"), ("a",), ("a",)),
        ("0", "1"),
        ("0", "1", "1"),
        0,
    )
    small, _ = minimize_substitution(s)
    assert len(small.alphabet) == 2
    assert small.rules == (("c0", "c1", "c1"), ("c0",))
    left = expand_fixed_point(s, 500, project=True)
    right = expand_fixed_point(small, 500, project=True)
    assert left == right


def test_minimize_projected_prefix_agreement(fib, thue_morse_3, paper_subst):
    for s in (fib, thue_morse_3, paper_subst):
        small, _ = minimize_substitution(s)
        assert expand_fixed_point(s, 2000, project=True) == expand_fixed_point(
            small, 2000, project=True
        )


def test_minimize_preserves_run_outputs(fib):
    # every digit word gives the same projected output before and after merging
    pm = to_padded_machine(fib)
    small, _ = minimize_substitution(fib)
    pm2 = to_padded_machine(small)
    assert equivalent(trim(pm.machine), trim(pm2.machine)) is True
    rng = random.Random(9)
    for _ in range(200):
        w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 12)))
        assert run_left(pm.machine, w) == run_left(pm2.machine, w)


def test_class_uniform_padding(fib, thue_morse_3):
    # letters merged by the bidual share their padding positions
    s = Substitution(
        ("a", "b", "c"),
        (("a", "b", "c"), ("a",), ("a",)),
        ("0", "1"),
        ("0", "1", "1"),
        0,
    )
    for subst in (fib, thue_morse_3, s):
        pm = to_padded_machine(subst)
        mt = trim(pm.machine)
        classes = state_classes(mt)
        sink_positions = {}
        for idx, name in enumerate(mt.states):
            if name == SINK_STATE:
                continue
            positions = frozenset(
                j for j, t in enumerate(mt.transition[idx]) if mt.states[t] == SINK_STATE
            )
            prev = sink_positions.setdefault(classes[idx], positions)
            assert prev == positions


def test_sink_isolation(fib):
    # after merging, exactly the sink-driven words land in the reserved class
    pm = to_padded_machine(fib)
    mt = trim(pm.machine)
    b = bidual(mt)
    rng = random.Random(27)
    sink_states = [k for k, out in enumerate(b.output_map) if out == SINK_OUTPUT]
    assert len(sink_states) == 1
    for _ in range(300):
        w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 10)))
        in_sink = mt.states[left_action(mt, w, mt.initial)] == SINK_STATE
        assert (left_action(b, w, b.initial) == sink_states[0]) == in_sink


def test_minimized_size_matches_oracle(fib, thue_morse_3, paper_subst):
    for s in (fib, thue_morse_3, paper_subst):
        pm = to_padded_machine(s)
        assert bidual(pm.machine).n == minimize(pm.machine).n
