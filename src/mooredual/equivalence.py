"""Products, equivalence testing, partition-refinement minimization, and canonical forms."""

from __future__ import annotations

from collections import deque

from .machine import Counterexample, DomainError, MooreMachine, _reachable, trim


def _check_same_inputs(m1: MooreMachine, m2: MooreMachine):
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

    start = (m1.initial, m2.initial)
    order = [start]
    index = {start: 0}
    rows = []
    pos = 0
    while pos < len(order):
        a1, a2 = order[pos]
        row = []
        for j in range(m1.input_count):
            p = (m1.transition[a1][j], m2.transition[a2][j])
            k = index.get(p)
            if k is None:
                k = len(order)
                index[p] = k
                order.append(p)
            row.append(k)
        rows.append(tuple(row))
        pos += 1

    return MooreMachine(
        states=tuple(_pair(m1.states[a1], m2.states[a2]) for a1, a2 in order),
        input_count=m1.input_count,
        outputs=outputs,
        transition=tuple(rows),
        output_map=tuple(join(m1.output_map[a1], m2.output_map[a2]) for a1, a2 in order),
        initial=0,
        input_names=m1.input_names if m1.input_names == m2.input_names else None,
    )


def equivalent(m1: MooreMachine, m2: MooreMachine):
    """True if both machines give the same right output on every word.

    Otherwise returns the shortest (then lexicographically least) word on
    which they differ, together with both outputs.  Only |Q1|*|Q2| state
    pairs exist, so the breadth-first search is complete.
    """
    _check_same_inputs(m1, m2)
    o1, o2 = m1.output_map[m1.initial], m2.output_map[m2.initial]
    if o1 != o2:
        return Counterexample((), o1, o2)
    start = (m1.initial, m2.initial)
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


def states_equivalent(m: MooreMachine, a, b) -> bool:
    """Whether states a and b give equal outputs on every word."""
    # A product search, not the refinement minimize uses, so the tests can
    # hold minimize to an independent algorithm.
    a, b = m.state_index(a), m.state_index(b)
    fields = (m.states, m.input_count, m.outputs, m.transition, m.output_map)
    return equivalent(MooreMachine(*fields, a, m.input_names),
                      MooreMachine(*fields, b, m.input_names)) is True


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
    return MooreMachine(
        states=tuple(str(k) for k in range(mt.n)),
        input_count=mt.input_count,
        outputs=mt.outputs,
        transition=mt.transition,
        output_map=mt.output_map,
        initial=mt.initial,
        input_names=mt.input_names,
    )


def state_classes(m: MooreMachine) -> tuple[int, ...]:
    """For each state of trim(m), the state of minimize(m) it collapses into.

    Moore partition refinement: split states by output, then by the blocks of
    their successors, until no block splits.  Two states end in the same class
    exactly when they are behaviorally equivalent.  Every round numbers blocks
    in order of first appearance, so classes are numbered by their lowest
    member; since trim orders states breadth-first, that is the breadth-first
    order of the quotient, which is also the numbering of the bidual.
    """
    mt = trim(m)
    return tuple(_refine(mt.transition, mt.output_map))


def _refine(rows, outs) -> list[int]:
    """state_classes of a trimmed machine given by its rows and outputs."""
    seen = {}
    block = [seen.setdefault(out, len(seen)) for out in outs]
    count = len(seen)
    while count < len(rows):
        seen = {}
        get = block.__getitem__
        block = [
            seen.setdefault((b, *map(get, row)), len(seen)) for b, row in zip(block, rows)
        ]
        if len(seen) == count:  # refinement only splits, so no block split
            return block
        count = len(seen)
    return block  # every block a single state, numbered in state order


def minimize(m: MooreMachine) -> MooreMachine:
    """The unique simplest machine equivalent to m, in normal form.

    The quotient of trim(m) by its state classes.  Their numbering is already
    the quotient's breadth-first order, so the result equals the normal form
    of the bidual.
    """
    # trim(m), without building it as a machine
    order, remap = _reachable(m)
    renumber = remap.__getitem__
    rows = [tuple(map(renumber, m.transition[a])) for a in order]
    outs = list(map(m.output_map.__getitem__, order))
    classes = _refine(rows, outs)
    class_of = classes.__getitem__
    # One member per class, in class order; every member of a class has its
    # output and the classes of its successors.
    members = dict(zip(classes, range(len(classes)))).values()
    return MooreMachine(
        states=tuple(map(str, range(len(members)))),
        input_count=m.input_count,
        outputs=m.outputs,
        transition=tuple([tuple(map(class_of, rows[s])) for s in members]),
        output_map=tuple(map(outs.__getitem__, members)),
        initial=0,  # trimming puts the initial state first
        input_names=m.input_names,
    )
