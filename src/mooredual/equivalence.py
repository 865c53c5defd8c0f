"""Products, equivalence testing, partition-refinement minimization, and canonical forms."""

from __future__ import annotations

from collections import deque
from itertools import count
from operator import itemgetter

from .machine import (Counterexample, DomainError, MooreMachine, _check_machine, _closure,
                      _machine, _numerals, _trimmed, trim)


def _check_same_inputs(m1: MooreMachine, m2: MooreMachine):
    _check_machine(m1)
    _check_machine(m2)
    if m1.input_count != m2.input_count:
        raise DomainError(
            "input counts differ: %d vs %d" % (m1.input_count, m2.input_count)
        )


_PAIR_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def _pair(a: str, b: str) -> str:
    """The name "(a,b)" of a pair, escaped as ``product`` describes."""
    return "(%s,%s)" % (a.translate(_PAIR_ESCAPES), b.translate(_PAIR_ESCAPES))


def product(m1: MooreMachine, m2: MooreMachine, combine="pair") -> MooreMachine:
    """Reachable pair-synchronized machine with outputs merged by `combine`:
    "pair" outputs the token "(o1,o2)", "first" o1 and "second" o2.  Pair
    states are named "(s1,s2)".  Inside a pair name, backslash, comma and
    parentheses are escaped by a backslash, so distinct pairs get distinct
    names.
    """
    _check_same_inputs(m1, m2)
    if combine == "pair":
        outputs = tuple(_pair(a, b) for a in m1.outputs for b in m2.outputs)
        join = _pair
    elif combine == "first":
        outputs, join = m1.outputs, lambda a, b: a
    elif combine == "second":
        outputs, join = m2.outputs, lambda a, b: b
    else:
        raise DomainError("unknown combiner %r" % (combine,))

    t1, t2 = m1.transition, m2.transition
    order, rows = _closure((m1.initial, m2.initial), lambda p: zip(t1[p[0]], t2[p[1]]))
    # Distinct pairs get distinct names, so the constructor's checks all hold.
    return _machine(
        tuple(_pair(m1.states[a1], m2.states[a2]) for a1, a2 in order),
        m1.input_count,
        outputs,
        tuple(rows),
        tuple(join(m1.output_map[a1], m2.output_map[a2]) for a1, a2 in order),
        0,
        m1.input_names if m1.input_names == m2.input_names else None,
    )


def equivalent(m1: MooreMachine, m2: MooreMachine):
    """True if both machines give the same right output on every word.

    Otherwise returns the shortest (then lexicographically least) word on
    which they differ, together with both outputs.  Only |Q1|*|Q2| state
    pairs exist, so the breadth-first search is complete.
    """
    _check_same_inputs(m1, m2)
    return _first_difference(m1, m2, m1.initial, m2.initial)


def states_equivalent(m: MooreMachine, a, b) -> bool:
    """Whether states a and b give equal outputs on every word."""
    # A product search, not the refinement minimize uses, so the tests can
    # hold minimize to an independent algorithm.
    _check_machine(m)
    return _first_difference(m, m, m.state_index(a), m.state_index(b)) is True


def _first_difference(m1: MooreMachine, m2: MooreMachine, a1: int, a2: int):
    """``equivalent``'s answer for m1 started in state a1 and m2 in a2: a
    breadth-first search of the state pairs, letters ascending."""
    o1, o2 = m1.output_map[a1], m2.output_map[a2]
    if o1 != o2:
        return Counterexample((), o1, o2)
    start = (a1, a2)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (a1, a2), w = queue.popleft()
        for j in range(m1.input_count):
            p = (m1.transition[a1][j], m2.transition[a2][j])
            if p in seen:
                continue
            seen.add(p)
            wj = w + (j,)
            o1, o2 = m1.output_map[p[0]], m2.output_map[p[1]]
            if o1 != o2:
                return Counterexample(wj, o1, o2)
            queue.append((p, wj))
    return True


def isomorphic(m1: MooreMachine, m2: MooreMachine):
    """The structure-preserving state bijection as a name map, or None.

    Both machines must be trimmed: one with an unreachable state gives None.
    The bijection has to send initial to initial (otherwise isomorphic
    machines need not be equivalent), so it is the one matching the
    breadth-first orders of trim, and exists exactly when both trimmed
    tables are equal.
    """
    t1, t2 = trim(m1), trim(m2)
    if t1.n != m1.n or t2.n != m2.n:
        return None
    if (t1.transition, t1.output_map) != (t2.transition, t2.output_map):
        return None
    return dict(zip(t1.states, t2.states))


def normal_form(m: MooreMachine) -> MooreMachine:
    """Canonical representative: trim, then number states 0..n-1 breadth-first.

    The result is invariant under any renaming or reordering of the input's
    states.
    """
    mt = trim(m)
    return _machine(_numerals(mt.n), mt.input_count, mt.outputs,
                    mt.transition, mt.output_map, mt.initial, mt.input_names)


def state_classes(m: MooreMachine) -> tuple[int, ...]:
    """For each state of trim(m), the state of minimize(m) it collapses into.

    Moore partition refinement: split states by output, then by the blocks of
    their successors, until no block splits.  Two states end in the same class
    exactly when they are behaviorally equivalent.  Classes are numbered in
    the order of their lowest members; since trim orders states breadth-first,
    that is the breadth-first order of the quotient, which is also the
    numbering of the bidual.
    """
    _, outs, rows = _trimmed(m)
    return tuple(_refine(outs, rows))


def _refine(outs, rows) -> list[int]:
    """state_classes of a trimmed machine given by its outputs and rows.

    A round gives each state the signature (its block, the blocks of its
    successors), one C-level pass per column, and labels each state with
    the first, so lowest, state of its signature in one ``setdefault`` pass,
    which hashes each signature once.  The labels name the blocks in order of
    first appearance, so numbering them densely at the end gives the classes.
    """
    n = len(outs)
    lowest = {}
    block = list(map(lowest.setdefault, outs, range(n)))
    blocks = len(lowest)
    if blocks < n:
        gathers = [itemgetter(*col) for col in zip(*rows)]  # n > 1: each gives a tuple
    while blocks < n:
        lowest = {}
        block = list(map(lowest.setdefault,
                         zip(block, *[gather(block) for gather in gathers]), range(n)))
        if len(lowest) == blocks:  # refinement only splits, so no block split
            ids = dict(zip(dict.fromkeys(block), count()))
            return list(map(ids.__getitem__, block))
        blocks = len(lowest)
    return block  # every state its own lowest member: the classes 0..n-1


def minimize(m: MooreMachine) -> MooreMachine:
    """The unique simplest machine equivalent to m, in normal form.

    The quotient of trim(m) by its state classes.  Their numbering is already
    the quotient's breadth-first order, so the result equals the normal form
    of the bidual.
    """
    _, outs, rows = _trimmed(m)
    classes = _refine(outs, rows)
    n = len(classes)
    # The last state's class is numbered n-1 only if each state is a class of
    # its own; then trim(m) is its own quotient, rows and all.
    if classes[-1] != n - 1:
        # One member per class, in class order; every member of a class has
        # its output and the classes of its successors.
        members = list(dict(zip(classes, range(n))).values())
        class_of = classes.__getitem__
        rows = zip(*[map(class_of, map(col.__getitem__, members)) for col in zip(*rows)])
        outs = tuple(map(outs.__getitem__, members))
        n = len(members)
    # trimming puts the initial state first
    return _machine(_numerals(n), m.input_count, m.outputs, tuple(rows), outs, 0,
                    m.input_names)
