"""Value semantics of the five immutable classes, and their field types."""

import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from mooredual import (
    Counterexample,
    DomainError,
    MooreMachine,
    PaddedMachine,
    PaddingSpec,
    Substitution,
    apply,
    emit_machine,
    emit_substitution,
    format_word,
    letter_at,
    letter_at_constant,
    parse_word,
    phi,
    psi,
    to_dot,
    to_padded_machine,
)
from mooredual.equivalence import product, states_equivalent
from mooredual.machine import _Value, left_action, right_action, run_right
from mooredual.substitution import format_letters

from conftest import run_fresh

MACHINE = dict(states=("a", "b"), input_count=2, outputs=("0", "1"),
               transition=((1, 0), (0, 1)), output_map=("0", "1"), initial=0,
               input_names=("x", "y"))
SUBST = dict(alphabet=("a", "b"), rules=(("a", "b"), ("a",)), outputs=("0", "1"),
             projection=("0", "1"), initial=0)
CONSTANT = dict(SUBST, rules=(("a", "b"), ("b", "a")))


def substitution(**changes):
    return Substitution(**dict(SUBST, **changes))


def make(cls):
    """A fresh instance of cls and its field values, in declaration order."""
    if cls is MooreMachine:
        fields = MACHINE
    elif cls is Counterexample:
        fields = dict(word=(0, 1), left_output="0", right_output="1")
    elif cls is Substitution:
        fields = SUBST
    elif cls is PaddingSpec:
        fields = dict(templates=(("_", "_"), ("_", "w")))
    else:
        fields = dict(machine=to_padded_machine(substitution()).machine, sink=2)
    return cls(**fields), fields


CLASSES = [MooreMachine, Counterexample, Substitution, PaddingSpec, PaddedMachine]

REPRS = {
    MooreMachine: "MooreMachine(states=('a', 'b'), input_count=2, outputs=('0', '1'), "
                  "transition=((1, 0), (0, 1)), output_map=('0', '1'), initial=0, "
                  "input_names=('x', 'y'))",
    Counterexample: "Counterexample(word=(0, 1), left_output='0', right_output='1')",
    Substitution: "Substitution(alphabet=('a', 'b'), rules=(('a', 'b'), ('a',)), "
                  "outputs=('0', '1'), projection=('0', '1'), initial=0)",
    PaddingSpec: "PaddingSpec(templates=(('_', '_'), ('_', 'w')))",
    PaddedMachine: "PaddedMachine(machine=MooreMachine(states=('a', 'b', 'ω'), "
                   "input_count=2, outputs=('0', '1', '⊥'), "
                   "transition=((0, 1), (0, 2), (2, 2)), output_map=('0', '1', '⊥'), "
                   "initial=0, input_names=None), sink=2)",
}


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_names_every_field_in_order(cls):
    value, _ = make(cls)
    assert repr(value) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES)
def test_equal_values_hash_equal_and_differ_from_tuples(cls):
    value, fields = make(cls)
    other, _ = make(cls)
    assert value == other and not value != other
    assert hash(value) == hash(other)
    as_tuple = tuple(fields.values())
    assert value != as_tuple and as_tuple != value
    assert value.__eq__(as_tuple) is NotImplemented
    assert {value: 1}[other] == 1


def as_lists(value):
    """value with every tuple in it a list, and every value class built again
    from fields so converted."""
    if isinstance(value, _Value):
        return type(value)(*map(as_lists, value._key()))
    if isinstance(value, tuple):
        return list(map(as_lists, value))
    return value


@pytest.mark.parametrize("cls", CLASSES)
def test_list_built_values_equal_their_tuple_built_twins(cls):
    value, fields = make(cls)
    twin = cls(**{name: as_lists(field) for name, field in fields.items()})
    assert twin == value and hash(twin) == hash(value) and repr(twin) == REPRS[cls]
    assert {value: 1}[twin] == 1


def test_a_field_changes_equality():
    m, _ = make(MooreMachine)
    assert m != MooreMachine(**dict(MACHINE, initial=1))
    assert m != MooreMachine(**dict(MACHINE, input_names=None))
    assert substitution() != substitution(projection=("0", "0"))


@pytest.mark.parametrize("cls", CLASSES)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value, fields = make(cls)
    for name in list(fields) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_equal(cls, clone):
    value, _ = make(cls)
    twin = clone(value)
    assert type(twin) is cls
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
], ids=["copy", "deepcopy", "pickle"])
def test_warm_substitution_copies_give_the_same_letters(clone):
    warm = Substitution(**CONSTANT)
    letters = [letter_at(warm, None, 6, j) for j in range(64)]
    assert warm._block_table is not None
    twin = clone(warm)
    assert twin == warm
    assert [letter_at(twin, None, 6, j) for j in range(64)] == letters
    assert [letter_at_constant(twin, 6, 0, j) for j in range(64)] == letters


@pytest.mark.parametrize("cls", [Substitution, PaddingSpec, PaddedMachine])
@pytest.mark.parametrize("first", ["", "import mooredual; "])
def test_pickles_load_in_a_fresh_interpreter(cls, first):
    # there the substitution layer is not loaded until unpickling asks for it;
    # the repr names every field, so an equal repr is an equal value
    value, _ = make(cls)
    code = first + "import pickle, sys; print(repr(pickle.loads(sys.stdin.buffer.read())))"
    assert run_fresh(code, stdin=pickle.dumps(value)).decode("utf-8") == REPRS[cls] + "\n"


def test_substitution_identity_ignores_its_index_data():
    cold = substitution()
    warm = substitution()
    letter_at(warm, None, 30, 10 ** 5)
    assert warm._block_table is not None and cold._block_table is None
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) == REPRS[Substitution]


# --- field types ------------------------------------------------------------

@pytest.mark.parametrize("changes, message", [
    ({"input_count": 2.0}, "input count must be an integer"),
    ({"input_count": "2"}, "input count must be an integer"),
    ({"initial": 0.0}, "initial state must be an integer"),
    ({"initial": None}, "initial state must be an integer"),
    ({"transition": (("1", 0), (0, 1))}, "transition target must be an integer"),
    ({"transition": ((1, 0), (0, 1.0))}, "transition target must be an integer"),
    ({"transition": ((1, 0), (None, 1))}, "transition target must be an integer"),
    ({"input_names": ("x", "x")}, "duplicate input names"),
], ids=["count-float", "count-str", "initial-float", "initial-none", "target-str",
        "target-float", "target-none", "input-names-repeated"])
def test_machine_fields_must_be_integers(changes, message):
    with pytest.raises(DomainError, match=message):
        MooreMachine(**dict(MACHINE, **changes))


@pytest.mark.parametrize("initial", [0.0, "0", None])
def test_substitution_initial_must_be_an_integer(initial):
    with pytest.raises(DomainError, match="initial letter must be an integer"):
        substitution(initial=initial)


# every entry point that takes a state or letter as an index
INDEXED = {
    "right_action": lambda i: right_action(MooreMachine(**MACHINE), i, (0,)),
    "left_action": lambda i: left_action(MooreMachine(**MACHINE), (0,), i),
    "states_equivalent": lambda i: states_equivalent(MooreMachine(**MACHINE), 0, i),
    "image": lambda i: substitution().image(i),
}


@pytest.mark.parametrize("call", INDEXED.values(), ids=INDEXED.keys())
@pytest.mark.parametrize("index", [1.0, 0.5, None, (1,)], ids=["1.0", "0.5", "None", "tuple"])
def test_indices_must_be_integers(call, index):
    with pytest.raises(DomainError, match="index must be an integer"):
        call(index)
    assert call(True) == call(1)
    with pytest.raises(DomainError, match="index 2 out of range"):
        call(2)


# every entry point that takes a word
WORDS = {
    "right_action": lambda w: right_action(MooreMachine(**MACHINE), 0, w),
    "left_action": lambda w: left_action(MooreMachine(**MACHINE), w, 0),
    "run_right": lambda w: run_right(MooreMachine(**MACHINE), w),
    "phi": lambda w: phi(w, 2),
    "format_word": lambda w: format_word(w, 2),
}


@pytest.mark.parametrize("call", WORDS.values(), ids=WORDS.keys())
@pytest.mark.parametrize("letter", [0.5, 1.0, "1", None], ids=["0.5", "1.0", "str", "None"])
def test_letters_must_be_integers(call, letter):
    with pytest.raises(DomainError, match="input symbol must be an integer"):
        call((0, letter))
    assert call((True, 0)) == call((1, 0))
    with pytest.raises(DomainError, match="input symbol 2 out of range"):
        call((0, 2))


@pytest.mark.parametrize("call", [*WORDS.values(), lambda w: apply(substitution(), w)],
                         ids=[*WORDS, "apply"])
@pytest.mark.parametrize("word", [None, 5])
def test_words_must_be_iterable(call, word):
    with pytest.raises(DomainError) as err:
        call(word)
    assert str(err.value) == "word must be iterable, not %r" % (word,)


FIB_PAD = PaddingSpec((("_", "_"), ("_", "w")))
PAPER = dict(alphabet=("i", "a", "b"), rules=(("i", "a"), ("b", "i"), ("b", "a")),
             outputs=("0", "1"), projection=("0", "1", "0"), initial=0)

# the query arguments k, j of letter_at, k, n of letter_at_constant and the
# rank of psi, with the message each non-integer gets
QUERIES = {
    "letter_at-index": (lambda s, x: letter_at(s, FIB_PAD, 18, x), SUBST, "index"),
    "letter_at-step": (lambda s, x: letter_at(s, FIB_PAD, x, 1), SUBST, "iteration count"),
    "letter_at-no-pad": (lambda s, x: letter_at(s, None, x, 1), SUBST, "iteration count"),
    "constant-index": (lambda s, x: letter_at_constant(s, 3, "a", x), PAPER, "index"),
    "constant-step": (lambda s, x: letter_at_constant(s, x, "a", 1), PAPER, "step"),
    "psi": (lambda s, x: psi(to_padded_machine(s), x), SUBST, "rank"),
}


@pytest.mark.parametrize("query, fields, what", QUERIES.values(), ids=QUERIES.keys())
@pytest.mark.parametrize("value", [1.5, 2.0, 100.0, 3.5, 10.0 ** 9, None, "x"])
def test_query_arguments_must_be_integers(query, fields, what, value):
    # once cold and once with the block table built
    for warm in (False, True):
        s = Substitution(**fields)
        if warm:
            s._blocks()
        with pytest.raises(DomainError) as err:
            query(s, value)
        assert str(err.value) == "%s must be an integer, not %r" % (what, value)
    assert query(s, True) == query(s, 1)


# the base of phi and the input count of parse_word and format_word, checked
# before the word is read
BASES = {
    "phi": (lambda q: phi((0, 0), q), "base"),
    "parse_word": (lambda q: parse_word("00", q), "input count"),
    "format_word": (lambda q: format_word((0, 0), q), "input count"),
}


@pytest.mark.parametrize("call, what", BASES.values(), ids=BASES.keys())
@pytest.mark.parametrize("value", [2.5, 2.0, None, "x"])
def test_bases_must_be_integers(call, what, value):
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == "%s must be an integer, not %r" % (what, value)
    assert call(True) == call(1)


def test_negative_non_integers_keep_their_range_messages():
    fib = substitution()
    with pytest.raises(DomainError, match="^negative iteration count$"):
        letter_at(fib, FIB_PAD, -1.5, 3)
    with pytest.raises(DomainError, match="^index -1 out of range for step 1$"):
        letter_at(fib, FIB_PAD, 1.5, -1)
    with pytest.raises(DomainError, match="^index 1 out of range for step -1$"):
        letter_at_constant(Substitution(**PAPER), -1.5, "a", 1)
    with pytest.raises(DomainError, match="^negative rank$"):
        psi(to_padded_machine(fib), -1.5)
    # one argument negative and the other not finite, shown as inf or nan
    inf, nan = math.inf, math.nan
    for k, j in ((3, -inf), (inf, -1), (nan, -1)):
        with pytest.raises(DomainError, match="^index %s out of range for step %s$" % (j, k)):
            letter_at(fib, FIB_PAD, k, j)
    for k, n in ((-inf, 1), (3, -inf), (inf, -1), (-1, inf), (nan, -1)):
        with pytest.raises(DomainError, match="^index %s out of range for step %s$" % (n, k)):
            letter_at_constant(Substitution(**PAPER), k, "a", n)
    with pytest.raises(DomainError, match="^index inf out of range for step -1$"):
        letter_at_constant(Substitution(**PAPER), -1.5, "a", inf)


def test_bools_are_integers():
    m = MooreMachine(**dict(MACHINE, input_count=True, transition=((True,), (False,)),
                            initial=False, input_names=None))
    assert m == MooreMachine(**dict(MACHINE, input_count=1, transition=((1,), (0,)),
                                    initial=0, input_names=None))
    assert substitution(initial=False) == substitution()
    with pytest.raises(DomainError, match="out of range"):
        MooreMachine(**dict(MACHINE, transition=((2, 0), (0, 1))))


# --- names ------------------------------------------------------------------

# hashable or not, none of these is a name
NOT_STR = st.one_of(st.integers(-1, 2), st.none(), st.binary(max_size=2),
                    st.tuples(st.text(max_size=1)), st.lists(st.text(max_size=1), max_size=1))
NAME = st.sampled_from("ab01") | st.text(max_size=3)


@st.composite
def names(draw, count, text=NAME):
    """count names drawn from text, one of them perhaps replaced by a value
    that is not a str; and whether one was."""
    drawn = draw(st.lists(text, min_size=count, max_size=count))
    odd = draw(st.none() | st.integers(0, count - 1))
    if odd is not None:
        drawn[odd] = draw(NOT_STR)
    return drawn, odd is not None


def check_names(build, odd, *uses):
    """build() raises DomainError, as it must when a name is not a str, or
    its value hashes and goes through every use raising nothing but
    DomainError."""
    try:
        value = build()
    except DomainError:
        return
    assert not odd, "built with a name that is not a str: %r" % (value,)
    hash(value)
    for use in uses:
        try:
            use(value)
        except DomainError:
            pass


@given(names(6))
def test_machine_names_are_strings(drawn):
    (s0, s1, o0, o1, x, y), odd = drawn
    check_names(lambda: MooreMachine((s0, s1), 2, (o0, o1), ((1, 0), (0, 1)), (o0, o1), 0,
                                     (x, y)),
                odd, emit_machine, to_dot, lambda m: emit_machine(product(m, m)),
                lambda m: to_dot(product(m, m, "first")))


@given(names(5))
def test_substitution_names_are_strings(drawn):
    (a, b, o0, o1, image_letter), odd = drawn
    check_names(lambda: Substitution((a, b), ((a, image_letter), (a,)), (o0, o1), (o0, o1), 0),
                odd, emit_substitution, lambda s: format_letters(s, s.alphabet),
                lambda s: emit_substitution(s, PaddingSpec.default(s)))


@given(names(2))
def test_counterexample_outputs_are_strings(drawn):
    (left, right), odd = drawn
    check_names(lambda: Counterexample((0, 1), left, right), odd, repr)


@given(names(4, st.sampled_from("_w") | st.text(max_size=2)))
def test_template_tokens_are_strings(drawn):
    (t0, t1, t2, t3), odd = drawn
    check_names(lambda: PaddingSpec(((t0, t1), (t2, t3))), odd,
                lambda pad: emit_substitution(substitution(), pad),
                lambda pad: to_padded_machine(substitution(), pad))
