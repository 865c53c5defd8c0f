"""Duals and biduals: machines whose states are output vectors in Delta^Q.

A dual is an ordinary MooreMachine; the vector that defines each of its
states is returned beside it by ``dual_with_vectors``.
"""

from __future__ import annotations

from operator import itemgetter

from .machine import DomainError, MooreMachine, _check_int, _closure, _machine, trim

# Default budget of a closure.  That many vectors over 40 states take about
# 130 MB: tripping it with dual(full_transformation_machine(40)) (tests/conftest.py)
# took 0.9-1.1 s and raised max RSS by 126-128 MB, and its tracemalloc peak was
# 129 MB (Python 3.11.7, 2-vCPU x86-64).
MAX_DUAL_STATES = 2 ** 18


def dual_with_vectors(m: MooreMachine, max_states: int = MAX_DUAL_STATES):
    """The dual machine and, for each of its states, the output vector defining it.

    The dual is the closure of lambda under composition with delta(., j):
    starting from lambda alone, each vector in discovery order gets its
    successor f . delta(., j) for every letter j, and unseen vectors join the
    end.  ``vectors[k]`` is the element of Delta^Q defining state k, indexed
    by the states of trim(m); the input is trimmed first, since unreachable
    states would only inflate the coordinates.  The dual swaps reading
    directions: feeding it a word on the left gives what the base machine
    outputs on the right, and vice versa.  It has up to |Delta|^|Q| states:
    one with more than ``max_states`` is a DomainError, raised as soon as the
    closure finds one more.
    """
    _check_int(max_states, "the state budget")
    if max_states < 1:
        raise DomainError("the state budget must be at least 1, not %d" % max_states)
    mt = trim(m)
    if mt.n == 1:  # itemgetter of a single index returns an item, not a tuple
        steps = [itemgetter(slice(t, t + 1)) for t in mt.transition[0]]
    else:  # f -> f . delta(., j), reading column j of the table
        steps = [itemgetter(*column) for column in zip(*mt.transition)]
    vectors, rows = _closure(tuple(mt.output_map), lambda f: [step(f) for step in steps],
                             max_states)
    if len(vectors) > max_states:
        raise DomainError(
            "dual reached %d states, over the budget of %d" % (len(vectors), max_states))
    # A closure of a valid trimmed machine, whose initial state is 0: the
    # constructor's checks all hold.
    machine = _machine(tuple(["d%d" % k for k in range(len(vectors))]), mt.input_count,
                       mt.outputs, tuple(rows), tuple([f[0] for f in vectors]), 0,
                       mt.input_names)
    return machine, tuple(vectors)


def dual(m: MooreMachine, max_states: int = MAX_DUAL_STATES) -> MooreMachine:
    """The dual machine, without its vectors (see ``dual_with_vectors``)."""
    return dual_with_vectors(m, max_states)[0]


def bidual(m: MooreMachine) -> MooreMachine:
    """Dual of the dual: the minimal machine with the same right behavior as m."""
    return dual(dual(m))
