"""Duals and biduals: machines whose states are output vectors in Delta^Q.

A dual is an ordinary MooreMachine; the vector that defines each of its
states is returned beside it by ``dual_with_vectors``.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from .machine import (
    DomainError,
    MooreMachine,
    left_action,
    right_action,
    trim,
)

OutputVector = tuple  # one output symbol per state of the base machine

# Default budget of a closure; that many vectors over 40 states take about 150 MB.
MAX_DUAL_STATES = 2 ** 18


def check_vector(m: MooreMachine, f) -> OutputVector:
    f = tuple(f)
    if len(f) != m.n:
        raise DomainError("vector has %d entries, machine has %d states" % (len(f), m.n))
    for v in f:
        if v not in m.outputs:
            raise DomainError("vector value %r not in the output alphabet" % (v,))
    return f


def act_left_on_function(m: MooreMachine, w, f) -> OutputVector:
    """(w.f)(a) = f(a.w) for every state a."""
    f = check_vector(m, f)
    return tuple(f[right_action(m, a, w)] for a in range(m.n))


def act_right_on_function(m: MooreMachine, f, w) -> OutputVector:
    """(f.w)(a) = f(w.a) for every state a."""
    f = check_vector(m, f)
    return tuple(f[left_action(m, w, a)] for a in range(m.n))


def _close_over(base: MooreMachine, steps, max_states: int = MAX_DUAL_STATES):
    """Worklist closure of lambda under the maps ``steps[j]``, one per letter.

    The stack starts with lambda alone; repeatedly the bottom-most element
    still missing successors gets steps[j](f) recorded for every letter j,
    with unseen vectors pushed on top.  Terminates: there are at most
    |Delta|^|Q| vectors.  Finding more than ``max_states`` of them is a
    DomainError.  Returns the machine and its vectors: ``vectors[k]`` is the
    element of Delta^Q defining state k, indexed by the base machine's states.
    """
    if max_states < 1:
        raise DomainError("the state budget must be at least 1, not %d" % max_states)
    start = tuple(base.output_map)
    stack = [start]
    index = {start: 0}
    rows = []
    for f in stack:  # the list grows as vectors are discovered
        row = []
        for step in steps:
            g = step(f)
            k = index.get(g)
            if k is None:
                k = len(stack)
                if k == max_states:
                    raise DomainError(
                        "dual reached %d states, over the budget of %d" % (k + 1, max_states)
                    )
                index[g] = k
                stack.append(g)
            row.append(k)
        rows.append(tuple(row))
    machine = MooreMachine(
        states=tuple("d%d" % k for k in range(len(stack))),
        input_count=base.input_count,
        outputs=base.outputs,
        transition=tuple(rows),
        output_map=tuple(f[base.initial] for f in stack),
        initial=0,
        input_names=base.input_names,
    )
    return machine, tuple(stack)


def dual_with_vectors(m: MooreMachine, max_states: int = MAX_DUAL_STATES):
    """The dual machine and, for each of its states, the output vector defining it.

    The dual is the closure of lambda under composition with delta(., j).
    The input is trimmed first; unreachable states would only inflate the
    vector coordinates.  The dual swaps reading directions: feeding it a
    word on the left gives what the base machine outputs on the right, and
    vice versa.  The dual has up to |Delta|^|Q| states: one with more than
    ``max_states`` is a DomainError, raised once the closure finds that many.
    """
    mt = trim(m)
    if mt.n == 1:  # itemgetter of a single index returns an item, not a tuple
        steps = [itemgetter(slice(t, t + 1)) for t in mt.transition[0]]
    else:  # f -> f . delta(., j), reading column j of the table
        steps = [itemgetter(*column) for column in zip(*mt.transition)]
    return _close_over(mt, steps, max_states)


def dual(m: MooreMachine, max_states: int = MAX_DUAL_STATES) -> MooreMachine:
    """The dual machine, without its vectors (see ``dual_with_vectors``)."""
    return dual_with_vectors(m, max_states)[0]


def dual_via_right_definition(m: MooreMachine):
    """Dual and vectors built literally from the right-dual equations (successor j.f)."""
    mt = trim(m)
    return _close_over(
        mt, [partial(act_left_on_function, mt, (j,)) for j in range(mt.input_count)]
    )


def dual_via_left_definition(m: MooreMachine):
    """Dual and vectors built literally from the left-dual equations (successor f.j)."""
    mt = trim(m)
    return _close_over(
        mt, [lambda f, w=(j,): act_right_on_function(mt, f, w) for j in range(mt.input_count)]
    )


def bidual(m: MooreMachine) -> MooreMachine:
    """Dual of the dual: the minimal machine with the same right behavior as m."""
    return dual(dual(m))

