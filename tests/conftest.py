import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from mooredual.duality import dual, dual_with_vectors
from mooredual.machine import (
    DomainError,
    MooreMachine,
    left_action,
    parse_machine,
    right_action,
    run_right,
    trim,
)
from mooredual.substitution import apply, check_fixed_point

# Same examples on every run; no per-example deadline on a loaded host.
# HYPOTHESIS_PROFILE=ci draws new, and more, examples on every run instead.
settings.register_profile("fixed", derandomize=True, deadline=None)
settings.register_profile("ci", derandomize=False, max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def read_data(name):
    return (DATA / name).read_text(encoding="utf-8")


def read_golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


def run_fresh(code, stdin=b""):
    """Run code in a new interpreter that imports mooredual from this source tree;
    its stdout as bytes.  Fails the test if the interpreter exits non-zero."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"},
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


@pytest.fixture
def paper():
    """The worked-example machine: 3 states i/a/b over inputs {0,1}."""
    return parse_machine(read_data("example.moore"))


def random_machine(rng, max_states=8, max_inputs=3, max_outputs=3):
    """A random reachable machine within the given bounds."""
    n = rng.randint(1, max_states)
    q = rng.randint(1, max_inputs)
    d = rng.randint(1, max_outputs)
    outputs = tuple(str(k) for k in range(d))
    m = MooreMachine(
        states=tuple("s%d" % k for k in range(n)),
        input_count=q,
        outputs=outputs,
        transition=tuple(tuple(rng.randrange(n) for _ in range(q)) for _ in range(n)),
        output_map=tuple(rng.choice(outputs) for _ in range(n)),
        initial=rng.randrange(n),
    )
    return trim(m)


@st.composite
def machines(draw, max_states=6, max_inputs=3, max_outputs=3, min_inputs=1):
    """A machine within the given bounds; some of its states may be unreachable."""
    n = draw(st.integers(1, max_states))
    q = draw(st.integers(min_inputs, max_inputs))
    d = draw(st.integers(1, max_outputs))
    outputs = tuple("o%d" % k for k in range(d))
    return MooreMachine(
        states=tuple("s%d" % k for k in range(n)),
        input_count=q,
        outputs=outputs,
        transition=tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(q)) for _ in range(n)
        ),
        output_map=tuple(outputs[draw(st.integers(0, d - 1))] for _ in range(n)),
        initial=draw(st.integers(0, n - 1)),
    )


def check_vector(m, f):
    """f as a tuple, if it is an element of Delta^Q for the machine m."""
    f = tuple(f)
    if len(f) != m.n:
        raise DomainError("vector has %d entries, machine has %d states" % (len(f), m.n))
    for v in f:
        if v not in m.outputs:
            raise DomainError("vector value %r not in the output alphabet" % (v,))
    return f


def act_left_on_function(m, w, f):
    """(w.f)(a) = f(a.w) for every state a."""
    f = check_vector(m, f)
    return tuple(f[right_action(m, a, w)] for a in range(m.n))


def act_right_on_function(m, f, w):
    """(f.w)(a) = f(w.a) for every state a."""
    f = check_vector(m, f)
    return tuple(f[left_action(m, w, a)] for a in range(m.n))


def literal_worklist(start, successors):
    """The states reached from start, and each one's row of successor
    numbers, by a plain queue: start is 0, and the others are numbered
    breadth-first, as successors(s) first yields them."""
    states = [start]
    number = {start: 0}
    rows = []
    queue = deque(states)
    while queue:
        s = queue.popleft()
        row = []
        for t in successors(s):
            if t not in number:
                number[t] = len(states)
                states.append(t)
                queue.append(t)
            row.append(number[t])
        rows.append(tuple(row))
    return states, rows


def literal_closure(mt, successor):
    """The dual of the trimmed machine mt and its vectors, by the paper's
    worklist: lambda is state 0, and the vectors are numbered breadth-first,
    letters ascending, as successor(f, j) first finds them."""
    vectors, rows = literal_worklist(
        tuple(mt.output_map), lambda f: [successor(f, j) for j in range(mt.input_count)])
    machine = MooreMachine(
        states=tuple("d%d" % k for k in range(len(vectors))),
        input_count=mt.input_count,
        outputs=mt.outputs,
        transition=tuple(rows),
        output_map=tuple(f[mt.initial] for f in vectors),
        initial=0,
        input_names=mt.input_names,
    )
    return machine, tuple(vectors)


def dual_via_right_definition(m):
    """Dual and vectors built literally from the right-dual equations (successor j.f)."""
    mt = trim(m)
    return literal_closure(mt, lambda f, j: act_left_on_function(mt, (j,), f))


def dual_via_left_definition(m):
    """Dual and vectors built literally from the left-dual equations (successor f.j)."""
    mt = trim(m)
    return literal_closure(mt, lambda f, j: act_right_on_function(mt, f, (j,)))


def substitutions_isomorphic(s1, s2):
    """Letter bijection identifying two substitutions, or None.

    The only candidate maps start letter to start letter and follows the rule
    images position by position; every letter must be reachable that way.
    """
    if len(s1.alphabet) != len(s2.alphabet):
        return None
    fwd = {s1.initial: s2.initial}
    queue = [s1.initial]
    pos1 = {a: k for k, a in enumerate(s1.alphabet)}
    pos2 = {a: k for k, a in enumerate(s2.alphabet)}
    while queue:
        a = queue.pop()
        b = fwd[a]
        if s1.projection[a] != s2.projection[b]:
            return None
        img1, img2 = s1.rules[a], s2.rules[b]
        if len(img1) != len(img2):
            return None
        for x, y in zip(img1, img2):
            xi, yi = pos1[x], pos2[y]
            if xi in fwd:
                if fwd[xi] != yi:
                    return None
            else:
                fwd[xi] = yi
                queue.append(xi)
    n = len(s1.alphabet)
    if len(fwd) != n or len(set(fwd.values())) != n:
        return None
    return {s1.alphabet[a]: s2.alphabet[b] for a, b in fwd.items()}


def bidual_state_classes(m):
    """The paper's state classes: for each state of trim(m), the bidual state
    holding its column of dual vectors.  Builds two closure duals."""
    mt = trim(m)
    d1, vectors1 = dual_with_vectors(mt)
    _, vectors2 = dual_with_vectors(d1)
    lookup = {f: k for k, f in enumerate(vectors2)}
    return tuple(lookup[tuple(f[a] for f in vectors1)] for a in range(mt.n))


def moore_round_classes(m):
    """state_classes by Moore's round loop over the rows of trim(m): each
    round gives every state the number, in order of first appearance, of its
    (block, blocks of its successors), until a round splits no block."""
    mt = trim(m)
    seen = {}
    block = [seen.setdefault(out, len(seen)) for out in mt.output_map]
    count = len(seen)
    while count < mt.n:
        seen = {}
        get = block.__getitem__
        block = [
            seen.setdefault((b, *map(get, row)), len(seen))
            for b, row in zip(block, mt.transition)
        ]
        if len(seen) == count:
            break
        count = len(seen)
    return tuple(block)


def full_transformation_machine(n):
    """n states over three letters: an n-cycle, the swap of states 0 and 1,
    and the merge of state 1 into 0.  They generate every map of the states,
    so with output 1 on state 0 alone the machine is minimal and its dual has
    2^n states."""
    return MooreMachine(
        states=tuple("s%d" % s for s in range(n)),
        input_count=3,
        outputs=("0", "1"),
        transition=tuple(
            ((s + 1) % n, {0: 1, 1: 0}.get(s, s), 0 if s == 1 else s) for s in range(n)
        ),
        output_map=tuple("1" if s == 0 else "0" for s in range(n)),
        initial=0,
    )


def fixed_point_by_levels(s, n, project=False):
    """First n letters of the fixed point of s, by applying s to the whole
    word once per level: the definition that expand_fixed_point and the block
    table's prefix, which read the fixed point as it is written, are checked
    against."""
    check_fixed_point(s)
    w = (s.alphabet[s.initial],)
    while len(w) < n:
        w = apply(s, w)
    w = w[:n]
    if project:
        return tuple(s.projection[s.alphabet.index(a)] for a in w)
    return w


def letter_by_dual(s, a, k, n):
    """Letter n of sigma^k(a) for a constant-length s, by the paper's duality.

    The letter machine at a has the letters as states and outputs and the
    rule rows as delta; reading the k base-q digits of n most significant
    first leads it to the letter.  That is a run on the left of the digits
    least significant first, which its dual makes on the right.
    """
    machine = MooreMachine(states=s.alphabet, input_count=s.q, outputs=s.alphabet,
                           transition=s._rows, output_map=s.alphabet,
                           initial=s.letter_index(a))
    digits = []
    for _ in range(k):
        n, d = divmod(n, s.q)
        digits.append(d)
    return run_right(dual(machine), digits)


def base_digits(n, q):
    """Base-q digits of n, least significant first: the shortest word of value n."""
    if q < 2:
        if n != 0:
            raise DomainError("base-%d digits exist only for 0" % q)
        return (0,)
    digits = []
    while n:
        digits.append(n % q)
        n //= q
    return tuple(digits) or (0,)


def language_words(pm, max_len):
    """The valid digit words of at most max_len digits, in rank order.

    The definition behind psi: sweep the base-q numerals 0, 1, 2, ... below
    q**max_len and keep those whose shortest digit word does not drive the
    initial letter into the sink.  Bounded by length, not by a count of
    words, since a sparse language spreads few words over many numerals.
    """
    m = pm.machine
    q = m.input_count
    if q == 1:
        return [(0,)]  # base 1: every valid word equals "0" up to trailing zeros
    words = []
    for n in range(q ** max_len):
        w = base_digits(n, q)
        if left_action(m, w, m.initial) != pm.sink:
            words.append(w)
    return words


def random_word(rng, q, max_len=20):
    return tuple(rng.randrange(q) for _ in range(rng.randint(0, max_len)))


def split_state(m, rng):
    """Duplicate one state and redirect a random subset of its in-edges to the
    clone; the result is equivalent to m."""
    target = rng.randrange(m.n)
    clone = m.n
    transition = [list(row) for row in m.transition]
    for a in range(m.n):
        for j in range(m.input_count):
            if transition[a][j] == target and rng.random() < 0.5:
                transition[a][j] = clone
    transition.append(list(m.transition[target]))
    return trim(
        MooreMachine(
            states=m.states + (m.states[target] + "_clone",),
            input_count=m.input_count,
            outputs=m.outputs,
            transition=tuple(tuple(row) for row in transition),
            output_map=m.output_map + (m.output_map[target],),
            initial=m.initial,
            input_names=m.input_names,
        )
    )


@pytest.fixture(scope="session")
def corpus():
    """1000 seeded random reachable machines shared across randomized tests."""
    rng = random.Random(20260823)
    return [random_machine(rng) for _ in range(1000)]
