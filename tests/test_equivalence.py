import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from mooredual.cli import run_cli
from mooredual.duality import bidual, dual, dual_with_vectors
from mooredual.equivalence import (
    equivalent,
    isomorphic,
    minimize,
    normal_form,
    product,
    state_classes,
    states_equivalent,
)
from mooredual.machine import (
    Counterexample,
    DomainError,
    MooreMachine,
    emit_machine,
    left_action,
    parse_machine,
    right_action,
    run_left,
    run_right,
    to_dot,
    trim,
)

from conftest import (
    bidual_state_classes,
    full_transformation_machine,
    machines,
    moore_round_classes,
    random_machine,
    random_word,
    split_state,
)


def rename(m, prefix):
    return MooreMachine(
        states=tuple(prefix + s for s in m.states),
        input_count=m.input_count,
        outputs=m.outputs,
        transition=m.transition,
        output_map=m.output_map,
        initial=m.initial,
        input_names=m.input_names,
    )


def shuffle_states(m, rng):
    perm = list(range(m.n))
    rng.shuffle(perm)  # perm[new] = old
    inv = {old: new for new, old in enumerate(perm)}
    return MooreMachine(
        states=tuple(m.states[old] for old in perm),
        input_count=m.input_count,
        outputs=m.outputs,
        transition=tuple(
            tuple(inv[m.transition[old][j]] for j in range(m.input_count)) for old in perm
        ),
        output_map=tuple(m.output_map[old] for old in perm),
        initial=inv[m.initial],
        input_names=m.input_names,
    )


# --- product ------------------------------------------------------------------

def test_product_diagonal(paper):
    p = product(paper, paper, "pair")
    assert p.n == 3
    assert p.states == ("(i,i)", "(a,a)", "(b,b)")
    assert p.output_map == ("(0,0)", "(1,1)", "(0,0)")


def test_product_first_projection():
    rng = random.Random(3)
    for _ in range(30):
        m1 = random_machine(rng, max_states=5)
        m2 = random_machine(rng, max_states=5)
        if m1.input_count != m2.input_count:
            continue
        p1 = product(m1, m2, "first")
        p2 = product(m1, m2, "second")
        for _ in range(10):
            w = random_word(rng, m1.input_count, max_len=10)
            assert run_right(p1, w) == run_right(m1, w)
            assert run_right(p2, w) == run_right(m2, w)


def test_product_with_bidual_agrees(paper):
    p = product(paper, bidual(paper), "pair")
    for sym in p.output_map:
        left, right = sym[1:-1].split(",")
        assert left == right


def test_product_input_mismatch(paper):
    other = MooreMachine(("s",), 3, ("0",), ((0, 0, 0),), ("0",), 0)
    with pytest.raises(DomainError):
        product(paper, other)


# Each MooreMachine entry point, with a non-machine x in one machine's place
NON_MACHINE_CALLS = {
    "minimize": lambda m, x: minimize(x),
    "state_classes": lambda m, x: state_classes(x),
    "normal_form": lambda m, x: normal_form(x),
    "states_equivalent": lambda m, x: states_equivalent(x, 0, 1),
    "trim": lambda m, x: trim(x),
    "dual": lambda m, x: dual(x),
    "dual_with_vectors": lambda m, x: dual_with_vectors(x),
    "bidual": lambda m, x: bidual(x),
    "emit_machine": lambda m, x: emit_machine(x),
    "to_dot": lambda m, x: to_dot(x),
    "right_action": lambda m, x: right_action(x, 0, ()),
    "left_action": lambda m, x: left_action(x, (), 0),
    "run_right": lambda m, x: run_right(x, ()),
    "run_left": lambda m, x: run_left(x, ()),
    "equivalent(m, x)": lambda m, x: equivalent(m, x),
    "equivalent(x, m)": lambda m, x: equivalent(x, m),
    "product(m, x)": lambda m, x: product(m, x),
    "product(x, m)": lambda m, x: product(x, m),
    "isomorphic(m, x)": lambda m, x: isomorphic(m, x),
    "isomorphic(x, m)": lambda m, x: isomorphic(x, m),
}


@pytest.mark.parametrize("value", [None, "x", 1])
@pytest.mark.parametrize("call", list(NON_MACHINE_CALLS.values()), ids=list(NON_MACHINE_CALLS))
def test_non_machine_arguments(paper, call, value):
    with pytest.raises(DomainError) as info:
        call(paper, value)
    assert str(info.value) == "expected a MooreMachine, not %r" % (value,)


def test_product_combiner_names(paper):
    other = MooreMachine(("s",), 2, ("x", "y"), ((0, 0),), ("y",), 0)
    assert product(paper, other, "pair").outputs == ("(0,x)", "(0,y)", "(1,x)", "(1,y)")
    assert product(paper, other, "first").outputs == ("0", "1")
    assert product(paper, other, "second").outputs == ("x", "y")
    assert product(paper, other, "second").output_map == ("y", "y", "y")
    for combine in ("sum", None, ("0",)):
        with pytest.raises(DomainError, match="unknown combiner"):
            product(paper, other, combine)


@pytest.mark.parametrize("names1, names2, field, want", [
    # output names: (x,y | z) and (x | y,z) were both named "(x,y,z)"
    (("s t", "x,y x"), ("u v", "z y,z"), "outputs",
     ("(x\\,y,z)", "(x\\,y,y\\,z)", "(x,z)", "(x,y\\,z)")),
    # state names: (p,q | r) and (p | q,r), both reached
    (("p,q p", "0 0"), ("r q,r", "0 0"), "states", ("(p\\,q,r)", "(p,q\\,r)")),
], ids=["outputs", "states"])
def test_product_pair_names_are_distinct(tmp_path, capsys, names1, names2, field, want):
    paths = []
    for k, (states, outputs) in enumerate((names1, names2)):
        (a, b), (o1, o2) = states.split(), outputs.split()
        m = MooreMachine((a, b), 1, tuple(dict.fromkeys((o1, o2))), ((1,), (0,)), (o1, o2), 0)
        paths.append(tmp_path / ("m%d.moore" % k))
        paths[-1].write_text(emit_machine(m), encoding="utf-8")
    code = run_cli(["moore", "product", str(paths[0]), str(paths[1])])
    out = capsys.readouterr().out
    assert code == 0
    assert getattr(parse_machine(out), field) == want


NAMES = st.lists(st.text(st.sampled_from("ab,()\\\"/é"), min_size=1, max_size=4),
                 min_size=1, max_size=3, unique=True)


@given(NAMES, NAMES)
def test_product_names_every_pair_apart(names1, names2):
    # input 0 steps the first machine, input 1 the second, so every pair of
    # states is reached; names read back through the text format
    n1, n2 = len(names1), len(names2)
    m1 = MooreMachine(tuple(names1), 2, tuple(names1), tuple(((a + 1) % n1, a) for a in range(n1)),
                      tuple(names1), 0)
    m2 = MooreMachine(tuple(names2), 2, tuple(names2), tuple((b, (b + 1) % n2) for b in range(n2)),
                      tuple(names2), 0)
    p = product(m1, m2, "pair")
    assert len(set(p.states)) == len(set(p.outputs)) == n1 * n2
    assert parse_machine(emit_machine(p)) == p


# --- equivalent ------------------------------------------------------------------

def test_equivalent_paper_and_bidual(paper):
    assert equivalent(paper, bidual(paper)) is True


def test_equivalent_root_mismatch(paper):
    flipped = MooreMachine(
        states=paper.states,
        input_count=2,
        outputs=paper.outputs,
        transition=paper.transition,
        output_map=("1",) + paper.output_map[1:],
        initial=0,
    )
    ce = equivalent(paper, flipped)
    assert ce == Counterexample((), "0", "1")


def test_equivalent_paper_vs_dual(paper):
    # the dual swaps reading direction, not outputs; shortest mismatch is "01"
    ce = equivalent(paper, dual(paper))
    assert isinstance(ce, Counterexample)
    assert ce.word == (0, 1)
    assert (ce.left_output, ce.right_output) == ("1", "0")
    assert run_right(paper, ce.word) == "1"
    assert run_right(dual(paper), ce.word) == "0"


def test_counterexample_is_shortest_and_least():
    rng = random.Random(17)
    checked = 0
    while checked < 50:
        m1 = random_machine(rng, max_states=5, max_inputs=2, max_outputs=2)
        m2 = random_machine(rng, max_states=5, max_inputs=2, max_outputs=2)
        if m1.input_count != m2.input_count:
            continue
        ce = equivalent(m1, m2)
        if ce is True:
            continue
        checked += 1
        assert run_right(m1, ce.word) == ce.left_output
        assert run_right(m2, ce.word) == ce.right_output
        # exhaustive check: no shorter or lexicographically smaller witness
        q = m1.input_count
        words = [()]
        for w in iter(words):
            if (len(w), w) >= (len(ce.word), ce.word):
                break
            assert run_right(m1, w) == run_right(m2, w)
            if len(w) < len(ce.word):
                words.extend(w + (j,) for j in range(q))


# --- states_equivalent ----------------------------------------------------------

def test_states_equivalent_paper(paper):
    assert states_equivalent(paper, "i", "b") is True
    assert states_equivalent(paper, "i", "a") is False
    assert states_equivalent(paper, "a", "a") is True


# --- state_classes -----------------------------------------------------------------

def test_oracle_minimize_paper(paper):
    # the bidual, the paper's minimal machine, is the oracle minimize is held to
    o = bidual(paper)
    assert o.n == 2
    assert equivalent(paper, o) is True
    assert bidual_state_classes(paper) == state_classes(paper)


def test_state_classes_match_bidual_oracle(corpus):
    for m in corpus:
        assert state_classes(m) == bidual_state_classes(m)


def test_state_classes_match_round_oracle(corpus):
    for m in corpus:
        assert state_classes(m) == moore_round_classes(m)


@given(machines(max_states=12, max_outputs=2))
def test_state_classes_match_round_oracle_hypothesis(m):
    assert state_classes(m) == moore_round_classes(m)


@pytest.mark.parametrize("m", [
    MooreMachine(("s",), 1, ("a", "b"), ((0,),), ("b",), 0),  # one state
    MooreMachine(("p", "q", "r"), 1, ("a", "b"), ((1,), (2,), (1,)), ("a", "b", "a"), 0),  # q = 1
    MooreMachine(("p", "q", "r"), 2, ("a",), ((1, 2), (2, 0), (0, 0)), ("a",) * 3, 0),  # one output
    MooreMachine(("p", "q", "r", "x"), 2, ("a", "b"), ((1, 0), (0, 1), (3, 3), (2, 0)),
                 ("a", "b", "b", "a"), 1),  # r and x unreachable
], ids=["one-state", "q1", "outputs-equal", "unreachable"])
def test_state_classes_edge_cases(m):
    assert state_classes(m) == moore_round_classes(m)
    assert minimize(m).n == max(state_classes(m)) + 1


def chain_machine(n):
    """n states over {0, 1}: letter 0 steps along the chain, which ends in a
    loop, and letter 1 returns to the start.  Output 1 marks the last state
    alone, so the machine is minimal and Moore refinement needs n rounds."""
    return MooreMachine(
        states=tuple("c%d" % s for s in range(n)),
        input_count=2,
        outputs=("0", "1"),
        transition=tuple((min(s + 1, n - 1), 0) for s in range(n)),
        output_map=tuple("1" if s == n - 1 else "0" for s in range(n)),
        initial=0,
    )


def test_state_classes_long_chain():
    m = chain_machine(2000)  # minimal, and every round splits off one state
    assert state_classes(m) == moore_round_classes(m) == tuple(range(2000))


@pytest.mark.parametrize("n", [255, 256, 257])
def test_numeric_state_names_either_side_of_the_shared_ones(n):
    # up to 256 names are sliced from one shared tuple, and more are made
    names = tuple(str(s) for s in range(n))
    m = chain_machine(n)
    assert minimize(m).states == normal_form(m).states == names
    assert minimize(m).transition == normal_form(m).transition == m.transition


# --- isomorphic ----------------------------------------------------------------------

def test_isomorphic_renaming(paper):
    b = normal_form(bidual(paper))
    mapping = isomorphic(b, rename(b, "p"))
    assert mapping == {"0": "p0", "1": "p1"}


def test_isomorphic_different_sizes(paper):
    assert isomorphic(paper, bidual(paper)) is None


def test_isomorphic_swapped_outputs(paper):
    swapped = MooreMachine(
        states=paper.states,
        input_count=2,
        outputs=paper.outputs,
        transition=paper.transition,
        output_map=tuple({"0": "1", "1": "0"}[o] for o in paper.output_map),
        initial=0,
    )
    assert isomorphic(paper, swapped) is None


def test_isomorphic_implies_equivalent():
    rng = random.Random(31)
    for _ in range(50):
        m = random_machine(rng, max_states=6)
        other = shuffle_states(m, rng)
        assert isomorphic(m, other) == {name: name for name in m.states}
        assert equivalent(m, other) is True


def test_isomorphic_unreachable_state(paper):
    # the same reachable part, plus a state nothing reaches
    extra = MooreMachine(
        states=paper.states + ("x",),
        input_count=2,
        outputs=paper.outputs,
        transition=paper.transition + ((0, 0),),
        output_map=paper.output_map + ("0",),
        initial=0,
    )
    assert isomorphic(paper, paper) == {"i": "i", "a": "a", "b": "b"}
    assert isomorphic(paper, extra) is None
    assert isomorphic(extra, paper) is None
    assert isomorphic(extra, extra) is None


# --- normal_form and minimize -----------------------------------------------------------

def test_normal_form_idempotent_and_invariant():
    rng = random.Random(41)
    for _ in range(50):
        m = random_machine(rng, max_states=6)
        nf = normal_form(m)
        assert normal_form(nf) == nf
        assert normal_form(shuffle_states(m, rng)) == nf
        assert normal_form(shuffle_states(m, rng)) == nf


def test_minimize_paper(paper):
    mm = minimize(paper)
    assert mm.n == 2
    assert mm.states == ("0", "1")
    assert mm.transition == ((0, 1), (0, 0))
    assert mm.output_map == ("0", "1")
    assert equivalent(paper, mm) is True


def test_minimize_constant_output():
    m = MooreMachine(("p", "q"), 1, ("x",), ((1,), (0,)), ("x", "x"), 0)
    assert minimize(m).n == 1


def test_minimize_matches_bidual_size():
    rng = random.Random(23)
    for _ in range(200):
        m = random_machine(rng, max_states=7)
        assert minimize(m).n == bidual(m).n


def test_minimize_machine_with_exponential_dual(tmp_path, capsys):
    # never build the dual here: it has 2^40 states
    m = full_transformation_machine(40)
    path = tmp_path / "m.moore"
    path.write_text(emit_machine(m), encoding="utf-8")
    start = time.monotonic()
    r = minimize(m)
    code = run_cli(["moore", "minimize", str(path)])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert r.n == 40
    assert code == 0
    assert capsys.readouterr().out == emit_machine(r)
    assert equivalent(m, r) is True
    for a, b in itertools.combinations(range(r.n), 2):
        assert states_equivalent(r, a, b) is False


def test_minimize_already_minimal(paper):
    mm = minimize(paper)
    assert isomorphic(mm, minimize(mm)) is not None


def test_minimize_split_machines_identical():
    rng = random.Random(53)
    for _ in range(50):
        base = random_machine(rng, max_states=5)
        m1 = split_state(base, rng)
        m2 = split_state(base, rng)
        assert emit_machine(minimize(m1)) == emit_machine(minimize(m2))


def test_equivalent_machines_same_normal_minimal_form():
    rng = random.Random(61)
    for _ in range(100):
        m = random_machine(rng, max_states=6)
        m2 = split_state(m, rng)
        assert equivalent(m, m2) is True
        assert emit_machine(minimize(m)) == emit_machine(minimize(m2))
