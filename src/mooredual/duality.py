"""Duals and biduals: machines whose states are output vectors in Delta^Q."""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class DualMachine(MooreMachine):
    """A machine whose states were discovered as output vectors of a base machine.

    ``vectors[k]`` is the element of Delta^Q defining state k, indexed by the
    (trimmed) base machine's state positions.  Everything else behaves like a
    plain MooreMachine.
    """

    vectors: tuple[OutputVector, ...] = ()


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


def _close_over(base: MooreMachine, steps, max_states: int = MAX_DUAL_STATES) -> DualMachine:
    """Worklist closure of lambda under the maps ``steps[j]``, one per letter.

    The stack starts with lambda alone; repeatedly the bottom-most element
    still missing successors gets steps[j](f) recorded for every letter j,
    with unseen vectors pushed on top.  Terminates: there are at most
    |Delta|^|Q| vectors.  Finding more than ``max_states`` of them is a
    DomainError.
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
    return DualMachine(
        states=tuple("d%d" % k for k in range(len(stack))),
        input_count=base.input_count,
        outputs=base.outputs,
        transition=tuple(rows),
        output_map=tuple(f[base.initial] for f in stack),
        initial=0,
        input_names=base.input_names,
        vectors=tuple(stack),
    )


def dual(m: MooreMachine, max_states: int = MAX_DUAL_STATES) -> DualMachine:
    """The dual machine: closure of lambda under composition with delta(., j).

    The input is trimmed first; unreachable states would only inflate the
    vector coordinates.  The result swaps reading directions: feeding it a
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


def dual_via_right_definition(m: MooreMachine) -> DualMachine:
    """Dual built literally from the right-dual equations (successor j.f)."""
    mt = trim(m)
    return _close_over(
        mt, [partial(act_left_on_function, mt, (j,)) for j in range(mt.input_count)]
    )


def dual_via_left_definition(m: MooreMachine) -> DualMachine:
    """Dual built literally from the left-dual equations (successor f.j)."""
    mt = trim(m)
    return _close_over(
        mt, [lambda f, w=(j,): act_right_on_function(mt, f, w) for j in range(mt.input_count)]
    )


def plain(m: MooreMachine) -> MooreMachine:
    """Strip dual-state metadata, returning an ordinary MooreMachine."""
    return MooreMachine(
        states=m.states,
        input_count=m.input_count,
        outputs=m.outputs,
        transition=m.transition,
        output_map=m.output_map,
        initial=m.initial,
        input_names=m.input_names,
    )


def bidual(m: MooreMachine) -> MooreMachine:
    """Dual of the dual: the minimal machine with the same right behavior as m."""
    return plain(dual(dual(m)))

