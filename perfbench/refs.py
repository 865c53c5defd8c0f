"""Reference implementations the benchmark checks the library against.

Nothing here imports ``mooredual``: every expected output is computed from
the benchmark's own machine and substitution tables, so a bug in the code
under test cannot make its own output look right.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Table:
    """A Moore machine as plain lists: ``table[s][j]`` is the successor of s on j."""

    names: tuple
    q: int
    outputs: tuple
    table: tuple
    outmap: tuple
    initial: int

    @property
    def n(self):
        return len(self.names)


@dataclass(frozen=True)
class Rules:
    """A substitution: ``rules[k]`` lists the letter indices of the image of letter k."""

    letters: tuple
    rules: tuple
    outputs: tuple
    projection: tuple
    initial: int
    templates: tuple  # one string of "_" / "w" per letter, length q


def _tokens(text):
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield toks


def parse_moore(text: str) -> Table:
    """Read .moore text as the library emits it (declared state order kept)."""
    lines = list(_tokens(text))
    if lines[0] != ["moore", "v1"]:
        raise ValueError("bad header %r" % (lines[0],))
    names, outs, trans = [], [], []
    q = outputs = initial = None
    for toks in lines[1:]:
        key = toks[0]
        if key == "inputs":
            q = int(toks[1]) if len(toks) == 2 and toks[1].isdigit() else len(toks) - 1
        elif key == "outputs":
            outputs = tuple(toks[1:])
        elif key == "state":
            names.append(toks[1])
            outs.append(toks[2])
        elif key == "initial":
            initial = toks[1]
        elif key == "trans":
            trans.append(toks[1:])
        else:
            raise ValueError("unknown directive %r" % key)
    pos = {name: k for k, name in enumerate(names)}
    table = [[None] * q for _ in names]
    for src, inp, dst in trans:
        table[pos[src]][int(inp)] = pos[dst]
    if any(t is None for row in table for t in row):
        raise ValueError("incomplete transition table")
    return Table(tuple(names), q, outputs, tuple(map(tuple, table)), tuple(outs), pos[initial])


def write_moore(m: Table) -> str:
    lines = ["moore v1", "inputs %d" % m.q, "outputs " + " ".join(m.outputs)]
    lines += ["state %s %s" % (name, out) for name, out in zip(m.names, m.outmap)]
    lines.append("initial %s" % m.names[m.initial])
    lines += [
        "trans %s %d %s" % (name, j, m.names[t])
        for name, row in zip(m.names, m.table)
        for j, t in enumerate(row)
    ]
    return "\n".join(lines) + "\n"


def run_word(m: Table, word) -> str:
    """Output after reading ``word`` left to right from the initial state."""
    s = m.initial
    for j in word:
        s = m.table[s][j]
    return m.outmap[s]


def reachable(m: Table) -> list:
    """States reachable from the initial one, in breadth-first order, letters ascending."""
    order = [m.initial]
    seen = {m.initial}
    queue = deque(order)
    while queue:
        for t in m.table[queue.popleft()]:
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def quotient(m: Table) -> Table:
    """The minimal machine equivalent to ``m`` (refinement quotient, arbitrary names)."""
    live = reachable(m)
    block = {s: m.outmap[s] for s in live}
    while True:
        sigs = {s: (block[s],) + tuple(block[t] for t in m.table[s]) for s in live}
        if len(set(sigs.values())) == len(set(block.values())):
            break
        block = sigs
    ids, reps = {}, []
    for s in live:
        if block[s] not in ids:
            ids[block[s]] = len(reps)
            reps.append(s)
    return Table(
        tuple("m%d" % k for k in range(len(reps))),
        m.q,
        m.outputs,
        tuple(tuple(ids[block[t]] for t in m.table[s]) for s in reps),
        tuple(m.outmap[s] for s in reps),
        0,
    )


def normal_text(m: Table) -> str:
    """Expected text of the normal form: trimmed, states renamed 0.. breadth-first."""
    order = reachable(m)
    new = {s: k for k, s in enumerate(order)}
    return write_moore(Table(
        tuple(str(k) for k in range(len(order))),
        m.q,
        m.outputs,
        tuple(tuple(new[t] for t in m.table[s]) for s in order),
        tuple(m.outmap[s] for s in order),
        0,
    ))


def check_minimized(inp: Table, text: str, words, want=None) -> str | None:
    """Why ``text`` is not the normal-form minimal machine of ``inp``, or None.

    ``want`` is the minimal state count when the input was built to have it;
    otherwise it is computed by refinement.
    """
    out = parse_moore(text)
    if want is None:
        want = quotient(inp).n
    if out.n != want:
        return "minimized to %d states, refinement gives %d" % (out.n, want)
    if text != normal_text(out):
        return "minimized machine is not in breadth-first normal form"
    for w in words:
        if run_word(out, w) != run_word(inp, w):
            return "minimized machine differs from its input on word %r" % (w,)
    return None


def check_counterexample(m1: Table, m2: Table, cex) -> str | None:
    """Replay a reported counterexample on both machines."""
    got = (run_word(m1, cex.word), run_word(m2, cex.word))
    if got != (cex.left_output, cex.right_output) or got[0] == got[1]:
        return "counterexample %r replays as %r, reported %r" % (
            cex.word, got, (cex.left_output, cex.right_output))
    return None


# --- substitutions --------------------------------------------------------------

def write_subst(s: Rules) -> str:
    lines = [
        "subst v1",
        "letters " + " ".join(s.letters),
        "outputs " + " ".join(s.outputs),
        "initial %s" % s.letters[s.initial],
    ]
    lines += ["rule %s -> %s" % (a, " ".join(s.letters[b] for b in img))
              for a, img in zip(s.letters, s.rules)]
    lines += ["out %s %s" % (a, o) for a, o in zip(s.letters, s.projection)]
    lines += ["pad %s %s" % (a, t) for a, t in zip(s.letters, s.templates) if "w" in t]
    return "\n".join(lines) + "\n"


def parse_subst(text: str) -> Rules:
    """Read .subst text as the library emits it (no 'pad' lines)."""
    letters = outputs = initial = None
    rules, outs = {}, {}
    for toks in _tokens(text):
        key = toks[0]
        if key == "letters":
            letters = tuple(toks[1:])
        elif key == "outputs":
            outputs = tuple(toks[1:])
        elif key == "initial":
            initial = toks[1]
        elif key == "rule":
            rules[toks[1]] = toks[3:]
        elif key == "out":
            outs[toks[1]] = toks[2]
        elif key != "subst":
            raise ValueError("unexpected directive %r" % key)
    pos = {a: k for k, a in enumerate(letters)}
    q = max(len(rules[a]) for a in letters)
    return Rules(
        letters,
        tuple(tuple(pos[b] for b in rules[a]) for a in letters),
        outputs,
        tuple(outs[a] for a in letters),
        pos[initial],
        tuple("_" * len(rules[a]) + "w" * (q - len(rules[a])) for a in letters),
    )


def iterate(s: Rules, start: int, k: int) -> list:
    """The k-th image of letter ``start``, as letter indices, by applying the rules."""
    word = [start]
    for _ in range(k):
        word = [b for a in word for b in s.rules[a]]
    return word


def padded_table(s: Rules):
    """Successor table of the padded machine; the sink is state len(letters)."""
    sink = len(s.letters)
    rows = []
    for img, tpl in zip(s.rules, s.templates):
        it = iter(img)
        rows.append(tuple(sink if tok == "w" else next(it) for tok in tpl))
    q = len(s.templates[0])
    rows.append((sink,) * q)
    return rows, sink


def unrank(s: Rules, rank: int) -> tuple:
    """Least-significant-first digits of the rank-th valid numeral.

    Valid numerals are those whose digits, read most significant first from
    the initial letter, never enter the padding sink.  Counting the valid
    strings of each length per state and descending digit by digit finds the
    numeral without enumerating the smaller ones.
    """
    rows, sink = padded_table(s)
    q = len(rows[0])
    counts = [[0 if a == sink else 1 for a in range(len(rows))]]
    while counts[-1][s.initial] <= rank:
        prev = counts[-1]
        counts.append([0 if a == sink else sum(prev[b] for b in rows[a])
                       for a in range(len(rows))])
        if len(counts) > 200:
            raise ValueError("rank %d not reachable" % rank)
    state, digits = s.initial, []
    for r in range(len(counts) - 1, 0, -1):
        for d in range(q):
            c = counts[r - 1][rows[state][d]]
            if rank < c:
                digits.append(d)
                state = rows[state][d]
                break
            rank -= c
    value = 0
    for d in digits:
        value = value * q + d
    out = []
    while value:
        out.append(value % q)
        value //= q
    return tuple(out) or (0,)


def numeral_value(digits, q: int) -> int:
    return sum(d * q ** i for i, d in enumerate(digits))
