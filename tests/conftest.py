import random
from pathlib import Path

import pytest

from mooredual.duality import dual
from mooredual.machine import MooreMachine, parse_machine, trim

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def read_data(name):
    return (DATA / name).read_text(encoding="utf-8")


def read_golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


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


def bidual_state_classes(m):
    """The paper's state classes: for each state of trim(m), the bidual state
    holding its column of dual vectors.  Builds two closure duals."""
    mt = trim(m)
    d1 = dual(mt)
    d2 = dual(d1)
    lookup = {f: k for k, f in enumerate(d2.vectors)}
    return tuple(lookup[tuple(f[a] for f in d1.vectors)] for a in range(mt.n))


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
