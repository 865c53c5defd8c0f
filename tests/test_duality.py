import random

import pytest
from hypothesis import given, strategies as st

import mooredual
from mooredual.duality import bidual, dual, dual_with_vectors
from mooredual.equivalence import minimize, normal_form, product, state_classes
from mooredual.machine import (DomainError, MooreMachine, emit_machine, run_left, run_right,
                               trim)

from conftest import (
    act_left_on_function,
    act_right_on_function,
    dual_via_left_definition,
    dual_via_right_definition,
    literal_worklist,
    machines,
    random_machine,
    random_word,
    run_fresh,
)


def lam(m):
    return tuple(m.output_map)


# --- actions on functions ------------------------------------------------------

def test_act_left_paper_values(paper):
    assert act_left_on_function(paper, (1,), lam(paper)) == ("1", "0", "1")
    assert act_left_on_function(paper, (0, 1), lam(paper)) == ("1", "1", "1")
    f = ("1", "0", "0")
    assert act_left_on_function(paper, (), f) == f


def test_act_right_paper_values(paper):
    assert act_right_on_function(paper, lam(paper), (1,)) == ("1", "0", "1")
    assert act_right_on_function(paper, lam(paper), (1, 0)) == ("1", "1", "1")
    f = ("0", "1", "1")
    assert act_right_on_function(paper, f, ()) == f


# --- dual -----------------------------------------------------------------------

def test_dual_paper_tables(paper):
    d, vectors = dual_with_vectors(paper)
    assert d.n == 4
    assert vectors == (
        ("0", "1", "0"),  # t
        ("0", "0", "0"),  # u
        ("1", "0", "1"),  # v
        ("1", "1", "1"),  # w
    )
    assert d.transition == ((1, 2), (1, 1), (3, 0), (3, 3))
    assert d.output_map == ("0", "0", "1", "1")
    assert d.initial == 0


def test_emit_wants_one_vector_per_state(paper):
    d, vectors = dual_with_vectors(paper)
    assert emit_machine(d, vectors).count("  # vector: ") == d.n
    for wrong in (vectors[:-1], vectors + vectors[:1]):
        with pytest.raises(ValueError):
            emit_machine(d, wrong)


def test_dual_of_dual_paper(paper):
    dd = dual(dual(paper))
    assert dd.n == 2
    assert dd.transition == ((0, 1), (0, 0))
    assert dd.output_map == ("0", "1")


def test_dual_is_a_plain_machine(paper):
    # a dual equals the MooreMachine with its fields, and so does a bidual
    assert dual(paper) == MooreMachine(
        states=("d0", "d1", "d2", "d3"),
        input_count=2,
        outputs=("0", "1"),
        transition=((1, 2), (1, 1), (3, 0), (3, 3)),
        output_map=("0", "0", "1", "1"),
        initial=0,
    )
    assert type(dual(paper)) is MooreMachine
    assert type(bidual(paper)) is MooreMachine
    assert bidual(paper) == dual(dual(paper))


PUBLIC_NAMES = {
    "Counterexample", "DomainError", "MooreMachine", "PaddedMachine", "PaddingSpec",
    "ParseError", "Substitution", "apply", "bidual", "dual", "dual_with_vectors",
    "emit_machine", "emit_substitution", "equivalent", "expand_fixed_point",
    "format_word", "isomorphic", "left_action", "letter_at", "letter_at_constant",
    "minimize", "minimize_substitution", "normal_form", "parse_machine",
    "parse_substitution", "parse_word", "phi", "product", "psi", "right_action",
    "run_left", "run_right", "state_classes", "states_equivalent", "to_dot",
    "to_padded_machine", "trim",
}


def test_public_names():
    # adding or removing an export is a deliberate edit of this set
    assert set(mooredual.__all__) == PUBLIC_NAMES
    assert len(mooredual.__all__) == len(PUBLIC_NAMES)
    for name in mooredual.__all__:
        assert getattr(mooredual, name) is not None
    for gone in ("DualMachine", "plain", "OutputCombiner", "act_left_on_function",
                 "act_right_on_function"):
        assert not hasattr(mooredual, gone)


LAZY_SURFACE = """
import sys, mooredual
assert set(mooredual.__all__) <= set(dir(mooredual))
assert not hasattr(mooredual, "DualMachine") and "mooredual.substitution" not in sys.modules
assert mooredual.substitution is sys.modules["mooredual.substitution"]
for name in mooredual.__all__:
    value = getattr(mooredual, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
    assert vars(mooredual)[name] is value, name
star = {}
exec("from mooredual import *", star)
assert all(star[name] is getattr(mooredual, name) for name in mooredual.__all__)
assert mooredual.psi is mooredual.substitution.psi and mooredual.dual is mooredual.duality.dual
print("ok")
"""


def test_lazy_names_are_the_submodules_own_objects():
    # run cold, so that each name goes through the package's first-use import
    assert run_fresh(LAZY_SURFACE) == b"ok\n"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="^module 'mooredual' has no attribute 'DualMachine'$"):
        mooredual.DualMachine


def test_dual_one_state():
    m = MooreMachine(("s",), 3, ("0", "1"), ((0, 0, 0),), ("0",), 0)
    d = dual(m)
    assert d.n == 1
    assert d == MooreMachine(("d0",), 3, ("0", "1"), ((0, 0, 0),), ("0",), 0)


def test_dual_state_budget(paper):
    assert dual(paper, max_states=4).n == 4
    with pytest.raises(DomainError, match="reached 4 states, over the budget of 3"):
        dual(paper, max_states=3)
    with pytest.raises(DomainError, match="at least 1"):
        dual(paper, max_states=0)
    # a budget that no count of states equals would never trip
    for budget in (1.5, 4.0, None, "4"):
        with pytest.raises(DomainError, match="budget must be an integer"):
            dual(paper, max_states=budget)


@given(machines(), st.data())
def test_derived_machines_are_numbered_by_a_literal_worklist(m, data):
    """trim, product and dual number their states as one plain queue does."""
    order, rows = literal_worklist(m.initial, lambda a: m.transition[a])
    t = trim(m)
    assert t.transition == tuple(rows)
    assert t.states == tuple(m.states[a] for a in order)
    assert t.output_map == tuple(m.output_map[a] for a in order)

    q = m.input_count
    other = data.draw(machines(min_inputs=q, max_inputs=q))
    pairs, rows = literal_worklist(
        (m.initial, other.initial),
        lambda p: [(m.transition[p[0]][j], other.transition[p[1]][j]) for j in range(q)])
    pm = product(m, other)
    assert pm.transition == tuple(rows)
    assert pm.states == tuple("(%s,%s)" % (m.states[a], other.states[b]) for a, b in pairs)
    assert pm.output_map == tuple(
        "(%s,%s)" % (m.output_map[a], other.output_map[b]) for a, b in pairs)
    assert pm.outputs == tuple("(%s,%s)" % (a, b) for a in m.outputs for b in other.outputs)

    d, vectors = dual_via_left_definition(m)
    assert dual_with_vectors(m, max_states=d.n) == (d, vectors)
    # below the dual's size, the closure stops at budget + 1 states
    for budget in {b for b in (1, d.n // 2, d.n - 1) if 0 < b < d.n}:
        with pytest.raises(DomainError) as info:
            dual_with_vectors(m, max_states=budget)
        assert str(info.value) == "dual reached %d states, over the budget of %d" % (
            budget + 1, budget)


def test_dual_swaps_reading_direction(paper):
    d = dual(paper)
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng, 2, max_len=2 * paper.n * d.n)
        assert run_left(d, w) == run_right(paper, w)
        assert run_right(d, w) == run_left(paper, w)


@given(machines(), st.data())
def test_dual_swaps_reading_direction_random(m, data):
    d = dual(m)
    words = st.lists(st.integers(0, m.input_count - 1), max_size=24)
    for w in data.draw(st.lists(words, min_size=1, max_size=8)):
        assert run_right(d, w) == run_left(m, w)
        assert run_left(d, w) == run_right(m, w)


@given(machines())
def test_dual_is_minimal_and_its_dual_minimizes(m):
    # the dual is minimal, depends only on the behaviour of m, and the dual
    # of the dual is the minimal machine
    d = dual(m)
    assert minimize(d).n == d.n
    dm = dual(minimize(m))
    assert (dm.transition, dm.output_map) == (d.transition, d.output_map)
    assert normal_form(bidual(m)) == minimize(m)


def test_dual_initial_vector_is_lambda(paper):
    d, vectors = dual_with_vectors(paper)
    assert vectors[d.initial] == lam(paper)
    # the dual's output of each state is its vector at the base initial state
    for k, f in enumerate(vectors):
        assert d.output_map[k] == f[trim(paper).initial]


# --- bidual ------------------------------------------------------------------------

def test_bidual_paper(paper):
    b = bidual(paper)
    assert b.n == 2
    assert type(b) is MooreMachine
    assert b.transition == ((0, 1), (0, 0))
    assert b.output_map == ("0", "1")


def test_bidual_constant_output():
    m = MooreMachine(
        ("p", "q", "r"),
        2,
        ("x",),
        ((1, 2), (0, 0), (1, 1)),
        ("x", "x", "x"),
        0,
    )
    assert bidual(m).n == 1


def test_bidual_idempotent_paper(paper):
    b = bidual(paper)
    assert normal_form(bidual(b)) == normal_form(b)


def test_bidual_equivalent_and_smaller():
    rng = random.Random(13)
    for _ in range(100):
        m = random_machine(rng, max_states=6)
        b = bidual(m)
        assert b.n <= trim(m).n
        for _ in range(20):
            w = random_word(rng, m.input_count, max_len=12)
            assert run_right(b, w) == run_right(m, w)
            assert run_left(b, w) == run_left(m, w)


def test_dual_definitions_coincide():
    rng = random.Random(99)
    for _ in range(100):
        m = random_machine(rng, max_states=6)
        r = dual_via_right_definition(m)
        l = dual_via_left_definition(m)
        assert r == l
        assert r == dual_with_vectors(m)


@pytest.mark.parametrize("m", [
    MooreMachine(("s",), 1, ("a", "b"), ((0,),), ("a",), 0),
    MooreMachine(("s",), 3, ("a", "b"), ((0, 0, 0),), ("b",), 0),
    MooreMachine(("s", "x"), 2, ("a", "b"), ((0, 0), (0, 1)), ("a", "b"), 0),  # x unreachable
])
def test_dual_of_one_state_machine(m):
    # one-entry vectors: a one-index column lookup must still give a tuple
    d, vectors = dual_with_vectors(m)
    assert vectors == ((m.output_map[0],),)
    assert (d, vectors) == dual_via_right_definition(m) == dual_via_left_definition(m)


def test_state_classes_paper(paper):
    # i and b merge; a stays alone
    classes = state_classes(paper)
    assert classes[0] == classes[2]
    assert classes[0] != classes[1]
    assert set(classes) == {0, 1}
