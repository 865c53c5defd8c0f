import random

import pytest

from mooredual.duality import (
    DualMachine,
    act_left_on_function,
    act_right_on_function,
    bidual,
    dual,
    dual_via_left_definition,
    dual_via_right_definition,
    plain,
)
from mooredual.equivalence import normal_form, state_classes
from mooredual.machine import DomainError, MooreMachine, run_left, run_right, trim

from conftest import random_machine, random_word


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


def test_act_domain_mismatch(paper):
    with pytest.raises(DomainError):
        act_left_on_function(paper, (0,), ("0", "1"))
    with pytest.raises(DomainError):
        act_right_on_function(paper, ("0", "1", "zzz"), (0,))


# --- dual -----------------------------------------------------------------------

def test_dual_paper_tables(paper):
    d = dual(paper)
    assert d.n == 4
    assert d.vectors == (
        ("0", "1", "0"),  # t
        ("0", "0", "0"),  # u
        ("1", "0", "1"),  # v
        ("1", "1", "1"),  # w
    )
    assert d.transition == ((1, 2), (1, 1), (3, 0), (3, 3))
    assert d.output_map == ("0", "0", "1", "1")
    assert d.initial == 0


def test_dual_of_dual_paper(paper):
    dd = dual(dual(paper))
    assert dd.n == 2
    assert dd.transition == ((0, 1), (0, 0))
    assert dd.output_map == ("0", "1")


def test_dual_one_state():
    m = MooreMachine(("s",), 3, ("0", "1"), ((0, 0, 0),), ("0",), 0)
    d = dual(m)
    assert d.n == 1
    assert plain(d) == MooreMachine(("d0",), 3, ("0", "1"), ((0, 0, 0),), ("0",), 0)


def test_dual_state_budget(paper):
    assert dual(paper, max_states=4).n == 4
    with pytest.raises(DomainError, match="reached 4 states, over the budget of 3"):
        dual(paper, max_states=3)
    with pytest.raises(DomainError, match="at least 1"):
        dual(paper, max_states=0)


def test_dual_swaps_reading_direction(paper):
    d = dual(paper)
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng, 2, max_len=2 * paper.n * d.n)
        assert run_left(d, w) == run_right(paper, w)
        assert run_right(d, w) == run_left(paper, w)


def test_dual_initial_vector_is_lambda(paper):
    d = dual(paper)
    assert d.vectors[d.initial] == lam(paper)
    # the dual's output of each state is its vector at the base initial state
    for k, f in enumerate(d.vectors):
        assert d.output_map[k] == f[trim(paper).initial]


# --- bidual ------------------------------------------------------------------------

def test_bidual_paper(paper):
    b = bidual(paper)
    assert b.n == 2
    assert not isinstance(b, DualMachine)
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
        assert r == dual(m)


@pytest.mark.parametrize("m", [
    MooreMachine(("s",), 1, ("a", "b"), ((0,),), ("a",), 0),
    MooreMachine(("s",), 3, ("a", "b"), ((0, 0, 0),), ("b",), 0),
    MooreMachine(("s", "x"), 2, ("a", "b"), ((0, 0), (0, 1)), ("a", "b"), 0),  # x unreachable
])
def test_dual_of_one_state_machine(m):
    # one-entry vectors: a one-index column lookup must still give a tuple
    d = dual(m)
    assert d.vectors == ((m.output_map[0],),)
    assert d == dual_via_right_definition(m) == dual_via_left_definition(m)


def test_state_classes_paper(paper):
    # i and b merge; a stays alone
    classes = state_classes(paper)
    assert classes[0] == classes[2]
    assert classes[0] != classes[1]
    assert set(classes) == {0, 1}
