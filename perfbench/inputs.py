"""Seeded input generators: Moore machines and substitutions as benchmark tables.

Every generator takes a ``random.Random`` and returns ``refs.Table`` or
``refs.Rules`` values; the library only ever sees their text.
"""

from __future__ import annotations

from refs import Rules, Table, numeral_value, unrank

# A fixed 33-state binary machine whose dual has 72,542 states (found by a
# seeded search for the Baseline's "33 binary states, ~71.5k dual states").
# Random machines of this size have duals from 10^4 to over 10^5 states, so a
# seeded draw would make the heaviest operation's cost vary by 10x between
# seeds; each seed instead gets this machine under a seeded relabelling.
HEAVY33_TABLE = (
    (2, 1), (25, 10), (21, 3), (6, 4), (5, 7), (14, 8), (8, 29), (8, 9), (18, 4),
    (16, 12), (11, 23), (14, 17), (13, 15), (30, 16), (19, 15), (25, 26), (20, 30),
    (22, 6), (32, 28), (24, 10), (32, 21), (30, 32), (18, 23), (28, 20), (22, 27),
    (11, 24), (13, 0), (29, 9), (13, 17), (31, 32), (5, 26), (10, 12), (0, 2),
)
HEAVY33_OUTPUTS = "011000111011110110101110010000110"


def heavy33() -> Table:
    return Table(
        tuple("s%d" % k for k in range(33)), 2, ("0", "1"),
        HEAVY33_TABLE, tuple(HEAVY33_OUTPUTS), 0,
    )


def random_machine(rng, n, q, d) -> Table:
    """A random machine on n states, all reachable from state 0.

    State k > 0 is first made the target of a distinct transition slot of an
    earlier state, so a breadth-first search from 0 finds every state.
    """
    table = [[rng.randrange(n) for _ in range(q)] for _ in range(n)]
    used = set()
    for k in range(1, n):
        while True:
            slot = (rng.randrange(k), rng.randrange(q))
            if slot not in used:
                break
        used.add(slot)
        table[slot[0]][slot[1]] = k
    outputs = tuple(str(o) for o in range(d))
    return Table(
        tuple("s%d" % k for k in range(n)), q, outputs,
        tuple(map(tuple, table)), tuple(rng.choice(outputs) for _ in range(n)), 0,
    )


def dual_size(m: Table, cap: int):
    """States of the dual (closure of the output map under the letters), or None above cap."""
    n = m.n
    start = tuple(m.outmap)
    seen = {start}
    stack = [start]
    pos = 0
    while pos < len(stack):
        f = stack[pos]
        pos += 1
        for j in range(m.q):
            g = tuple(f[m.table[a][j]] for a in range(n))
            if g not in seen:
                if len(stack) >= cap:
                    return None
                seen.add(g)
                stack.append(g)
    return len(stack)


def full_monoid_machine(rng, n) -> Table:
    """A ternary machine on n states whose dual has 2^n states, for every seed.

    Letter 0 is a random n-cycle, letter 1 swaps two states adjacent on it
    and letter 2 sends the first of them to the second, fixing the rest.
    These generate every map of the states to themselves, so with outputs
    that are not all equal every binary vector is a state of the dual.
    Random machines of this shape mostly have duals of about 2*10^6 states,
    but some seeds give 2*10^5, which minimize builds in seconds.
    """
    order = list(range(n))
    rng.shuffle(order)
    a, b = order[0], order[1]
    cycle = {s: t for s, t in zip(order, order[1:] + order[:1])}
    swap = {a: b, b: a}
    table = tuple((cycle[s], swap.get(s, s), b if s == a else s) for s in range(n))
    outmap = [rng.choice("01") for _ in range(n)]
    outmap[a], outmap[b] = "0", "1"
    return Table(tuple("s%d" % k for k in range(n)), 3, ("0", "1"), table, tuple(outmap), 0)


def machine_in_band(rng, n, q, d, lo, hi) -> Table:
    """A random reachable machine whose dual has between lo and hi states."""
    while True:
        m = random_machine(rng, n, q, d)
        size = dual_size(m, hi)
        if size is not None and size >= lo:
            return m


def relabel(rng, m: Table) -> Table:
    """An equivalent copy with the states shuffled and given fresh names."""
    order = list(range(m.n))
    rng.shuffle(order)                      # order[new] = old
    new = {old: k for k, old in enumerate(order)}
    tag = "%x" % rng.getrandbits(16)
    return Table(
        tuple("%s%d" % (tag, k) for k in range(m.n)), m.q, m.outputs,
        tuple(tuple(new[t] for t in m.table[old]) for old in order),
        tuple(m.outmap[old] for old in order), new[m.initial],
    )


def inflate(rng, core: Table, copies: int) -> Table:
    """A machine equivalent to ``core`` with ``copies`` copies of each core state.

    For every core edge s -j-> t, the copies of s are sent to the copies of t
    through a fresh random permutation, so each copy keeps its core state's
    behaviour and every copy of t receives an edge.  States are declared in
    shuffled order under opaque names.
    """
    n = core.n * copies
    ids = list(range(n))
    rng.shuffle(ids)                        # ids[s * copies + c] = declared position
    table = [None] * n
    outmap = [None] * n
    perms = {}
    for s in range(core.n):
        for j, t in enumerate(core.table[s]):
            perm = list(range(copies))
            rng.shuffle(perm)
            perms[s, j] = perm
    for s in range(core.n):
        for c in range(copies):
            p = ids[s * copies + c]
            table[p] = tuple(
                ids[t * copies + perms[s, j][c]] for j, t in enumerate(core.table[s])
            )
            outmap[p] = core.outmap[s]
    return Table(
        tuple("q%d" % k for k in range(n)), core.q, core.outputs,
        tuple(table), tuple(outmap), ids[core.initial * copies],
    )


def flip_output(rng, m: Table, state: int) -> Table:
    """``m`` with the output of one state changed to another declared output."""
    other = rng.choice([o for o in m.outputs if o != m.outmap[state]])
    outmap = list(m.outmap)
    outmap[state] = other
    return Table(m.names, m.q, m.outputs, m.table, tuple(outmap), m.initial)


def random_words(rng, q, count, max_len):
    return [tuple(rng.randrange(q) for _ in range(rng.randint(0, max_len)))
            for _ in range(count)]


# --- substitutions --------------------------------------------------------------

FIB = Rules(("a", "b"), ((0, 1), (0,)), ("0", "1"), ("0", "1"), 0, ("__", "_w"))
THREELETTER = Rules(
    ("i", "a", "b"), ((0, 1), (2, 0), (1, 0)), ("0", "1"), ("0", "1", "1"), 0,
    ("__", "__", "__"),
)


def iterate_length(s: Rules, k: int) -> int:
    counts = [0] * len(s.letters)
    counts[s.initial] = 1
    for _ in range(k):
        nxt = [0] * len(counts)
        for a, c in enumerate(counts):
            for b in s.rules[a]:
                nxt[b] += c
        counts = nxt
    return sum(counts)


def sweep_candidates(s: Rules, rank: int) -> int:
    """Numerals an enumerate-and-filter numeration scans to reach ``rank``."""
    return numeral_value(unrank(s, rank), len(s.templates[0])) + 1


def random_padded(rng, size, q, k, min_len, max_len, max_candidates):
    """A random substitution on ``size`` letters with a fixed point, base q and non-default padding.

    Its k-th iterate has between min_len and max_len letters, and indexing
    all of it scans at most max_candidates numerals.
    """
    letters = tuple("abcdefgh"[:size])
    while True:
        rules, templates = [], []
        for a in range(size):
            length = rng.randint(2 if a == 0 else 1, q)
            img = [rng.randrange(size) for _ in range(length)]
            if a == 0:
                img[0] = 0
                slots = [0] + sorted(rng.sample(range(1, q), length - 1))
            else:
                slots = sorted(rng.sample(range(q), length))
            rules.append(tuple(img))
            templates.append("".join("_" if p in slots else "w" for p in range(q)))
        trailing = ["_" * len(img) + "w" * (q - len(img)) for img in rules]
        if max(map(len, rules)) < q or templates == trailing:
            continue
        s = Rules(letters, tuple(rules), ("0", "1"),
                  tuple(rng.choice("01") for _ in letters), 0, tuple(templates))
        length = iterate_length(s, k)
        if min_len <= length <= max_len and sweep_candidates(s, length - 1) <= max_candidates:
            return s


def random_constant(rng, size, q):
    """A random constant-length substitution of base q (no fixed-point condition)."""
    letters = tuple("abcdefgh"[:size])
    return Rules(
        letters,
        tuple(tuple(rng.randrange(size) for _ in range(q)) for _ in letters),
        ("0", "1"), tuple(rng.choice("01") for _ in letters),
        rng.randrange(size), tuple("_" * q for _ in letters),
    )
