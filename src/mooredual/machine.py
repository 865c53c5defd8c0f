"""Moore machines: table data model, word actions, trimming, and the .moore format."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed .moore or .subst text; the message carries the line number."""


class DomainError(ValueError):
    """An operation was called outside its domain (bad state, symbol, ...)."""


@dataclass(frozen=True)
class MooreMachine:
    """A deterministic machine: states, inputs 0..q-1, outputs, delta, lambda, initial.

    States are opaque name tokens; their positions in ``states`` are the
    indices used by ``transition``, ``output_map`` and ``initial``.  Instances
    are immutable and hashable, so they can be shared freely.
    """

    states: tuple[str, ...]
    input_count: int
    outputs: tuple[str, ...]
    transition: tuple[tuple[int, ...], ...]  # transition[s][j] = delta(s, j)
    output_map: tuple[str, ...]              # output_map[s] = lambda(s)
    initial: int
    input_names: tuple[str, ...] | None = None

    def __post_init__(self):
        n, q = len(self.states), self.input_count
        if n < 1:
            raise DomainError("machine needs at least one state")
        if q < 1:
            raise DomainError("machine needs at least one input symbol")
        if len(set(self.states)) != n:
            raise DomainError("duplicate state identifiers")
        if not self.outputs:
            raise DomainError("empty output alphabet")
        if len(set(self.outputs)) != len(self.outputs):
            raise DomainError("duplicate output symbols")
        if len(self.transition) != n or any(len(row) != q for row in self.transition):
            raise DomainError("transition table must be %d x %d" % (n, q))
        for row in self.transition:
            for t in row:
                if not 0 <= t < n:
                    raise DomainError("transition target %r out of range" % (t,))
        if len(self.output_map) != n:
            raise DomainError("output map must cover every state")
        for sym in self.output_map:
            if sym not in self.outputs:
                raise DomainError("output %r not declared" % (sym,))
        if not 0 <= self.initial < n:
            raise DomainError("initial state out of range")
        if self.input_names is not None and len(self.input_names) != q:
            raise DomainError("expected %d input names" % q)

    @property
    def n(self) -> int:
        return len(self.states)

    def state_index(self, s) -> int:
        """Accept a state index or a state name; return the index."""
        if isinstance(s, str):
            try:
                return self.states.index(s)
            except ValueError:
                raise DomainError("unknown state %r" % s) from None
        if not 0 <= s < self.n:
            raise DomainError("state index %r out of range" % (s,))
        return s

    def input_label(self, j: int) -> str:
        return self.input_names[j] if self.input_names else str(j)


@dataclass(frozen=True)
class Counterexample:
    """A word on which two compared machines give different outputs."""

    word: tuple[int, ...]
    left_output: str
    right_output: str

    def __post_init__(self):
        if self.left_output == self.right_output:
            raise DomainError("not a counterexample: outputs agree")


# --- words ----------------------------------------------------------------

def validate_word(word, q: int) -> tuple[int, ...]:
    word = tuple(word)
    for j in word:
        if not 0 <= j < q:
            raise DomainError("input symbol %r out of range (q=%d)" % (j, q))
    return word


def parse_word(text: str, q: int) -> tuple[int, ...]:
    """Parse a word literal: digit string for q <= 10, comma-separated otherwise."""
    text = text.strip()
    if text == "":
        return ()
    parts = list(text) if (q <= 10 and "," not in text) else [p.strip() for p in text.split(",")]
    word = []
    for p in parts:
        if not p.isdigit():
            raise DomainError("bad input symbol %r in word" % p)
        word.append(int(p))
    return validate_word(word, q)


def format_word(word, q: int) -> str:
    if q <= 10:
        return "".join(str(j) for j in word)
    return ",".join(str(j) for j in word)


# --- actions ----------------------------------------------------------------

def right_action(m: MooreMachine, s, w) -> int:
    """Fold delta over w left to right starting at s (computes s.w)."""
    a = m.state_index(s)
    for j in validate_word(w, m.input_count):
        a = m.transition[a][j]
    return a


def left_action(m: MooreMachine, w, s) -> int:
    """Fold delta over w right to left, last letter applied first (computes w.s)."""
    a = m.state_index(s)
    for j in reversed(validate_word(w, m.input_count)):
        a = m.transition[a][j]
    return a


def run_right(m: MooreMachine, w) -> str:
    """Output after feeding w on the right: lambda(initial.w)."""
    return m.output_map[right_action(m, m.initial, w)]


def run_left(m: MooreMachine, w) -> str:
    """Output after feeding w on the left: lambda(w.initial)."""
    return m.output_map[left_action(m, w, m.initial)]


def trim(m: MooreMachine) -> MooreMachine:
    """Drop states unreachable from the initial one.

    The new state order is breadth-first discovery order with letters
    ascending; an already-ordered machine is returned unchanged.
    """
    order = [m.initial]
    seen = {m.initial}
    queue = deque(order)
    while queue:
        a = queue.popleft()
        for t in m.transition[a]:
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    if order == list(range(m.n)):
        return m
    remap = {old: new for new, old in enumerate(order)}
    return MooreMachine(
        states=tuple(m.states[a] for a in order),
        input_count=m.input_count,
        outputs=m.outputs,
        transition=tuple(
            tuple(remap[m.transition[a][j]] for j in range(m.input_count)) for a in order
        ),
        output_map=tuple(m.output_map[a] for a in order),
        initial=0,
        input_names=m.input_names,
    )


# --- text format -------------------------------------------------------------

def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_machine(text: str) -> MooreMachine:
    """Parse .moore text into a validated machine (state order = declaration order)."""
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != ["moore", "v1"]:
        lineno = lines[0][0] if lines else 1
        raise ParseError("line %d: expected header 'moore v1'" % lineno)

    q = None
    input_names = None
    outputs = None
    states = []        # (name, output symbol)
    state_pos = {}
    initial_name = None
    trans_lines = []

    for lineno, toks in lines[1:]:
        key, args = toks[0], toks[1:]
        if key == "inputs":
            if q is not None:
                raise ParseError("line %d: duplicate 'inputs' declaration" % lineno)
            if not args:
                raise ParseError("line %d: 'inputs' needs a count or names" % lineno)
            if len(args) == 1 and args[0].isdigit():
                q = int(args[0])
            else:
                if len(set(args)) != len(args):
                    raise ParseError("line %d: duplicate input name" % lineno)
                input_names = tuple(args)
                q = len(args)
            if q < 1:
                raise ParseError("line %d: need at least one input" % lineno)
        elif key == "outputs":
            if outputs is not None:
                raise ParseError("line %d: duplicate 'outputs' declaration" % lineno)
            if not args:
                raise ParseError("line %d: 'outputs' needs at least one symbol" % lineno)
            if len(set(args)) != len(args):
                raise ParseError("line %d: duplicate output symbol" % lineno)
            outputs = tuple(args)
        elif key == "state":
            if len(args) != 2:
                raise ParseError("line %d: expected 'state <id> <output>'" % lineno)
            name, out = args
            if name in state_pos:
                raise ParseError("line %d: duplicate state %r" % (lineno, name))
            state_pos[name] = len(states)
            states.append((name, out, lineno))
        elif key == "initial":
            if len(args) != 1:
                raise ParseError("line %d: expected 'initial <id>'" % lineno)
            if initial_name is not None:
                raise ParseError("line %d: duplicate 'initial' declaration" % lineno)
            initial_name = (args[0], lineno)
        elif key == "trans":
            if len(args) != 3:
                raise ParseError("line %d: expected 'trans <id> <input> <id>'" % lineno)
            trans_lines.append((lineno, args))
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, key))

    if q is None:
        raise ParseError("missing 'inputs' declaration")
    if outputs is None:
        raise ParseError("missing 'outputs' declaration")
    if not states:
        raise ParseError("no states declared")
    if initial_name is None:
        raise ParseError("missing 'initial' declaration")

    for name, out, lineno in states:
        if out not in outputs:
            raise ParseError("line %d: unknown output token %r" % (lineno, out))
    init_name, init_line = initial_name
    if init_name not in state_pos:
        raise ParseError("line %d: unknown state %r" % (init_line, init_name))

    def resolve_input(tok, lineno):
        if input_names is not None and tok in input_names:
            return input_names.index(tok)
        if tok.isdigit() and int(tok) < q:
            return int(tok)
        raise ParseError("line %d: unknown input token %r" % (lineno, tok))

    table = {}
    for lineno, (src, inp, dst) in trans_lines:
        if src not in state_pos:
            raise ParseError("line %d: unknown state %r" % (lineno, src))
        if dst not in state_pos:
            raise ParseError("line %d: unknown state %r" % (lineno, dst))
        j = resolve_input(inp, lineno)
        key = (state_pos[src], j)
        if key in table:
            raise ParseError("line %d: duplicate transition for %s on %s" % (lineno, src, inp))
        table[key] = state_pos[dst]

    rows = []
    for pos, (name, _, _) in enumerate(states):
        row = []
        for j in range(q):
            if (pos, j) not in table:
                raise ParseError(
                    "missing transition for state %r on input %s" % (name, j)
                )
            row.append(table[(pos, j)])
        rows.append(tuple(row))

    return MooreMachine(
        states=tuple(name for name, _, _ in states),
        input_count=q,
        outputs=outputs,
        transition=tuple(rows),
        output_map=tuple(out for _, out, _ in states),
        initial=state_pos[init_name],
        input_names=input_names,
    )


def emit_machine(m: MooreMachine) -> str:
    """Canonical .moore text; re-parsing gives back a structurally equal machine.

    Dual machines carry their defining output vectors; those are emitted as
    '# vector:' comments next to the state lines.
    """
    lines = ["moore v1"]
    if m.input_names:
        lines.append("inputs " + " ".join(m.input_names))
    else:
        lines.append("inputs %d" % m.input_count)
    lines.append("outputs " + " ".join(m.outputs))
    vectors = getattr(m, "vectors", None)
    for idx, name in enumerate(m.states):
        line = "state %s %s" % (name, m.output_map[idx])
        if vectors:
            line += "  # vector: " + " ".join(vectors[idx])
        lines.append(line)
    lines.append("initial %s" % m.states[m.initial])
    for idx, name in enumerate(m.states):
        for j in range(m.input_count):
            lines.append(
                "trans %s %s %s" % (name, m.input_label(j), m.states[m.transition[idx][j]])
            )
    return "\n".join(lines) + "\n"


def to_dot(m: MooreMachine) -> str:
    """Deterministic Graphviz source: nodes labeled name/output, labeled edges,
    and a point-shaped marker pointing at the initial state."""
    def ident(name):
        return '"%s"' % name.replace('"', '\\"')

    lines = [
        "digraph moore {",
        "  rankdir=LR;",
        "  __start [shape=point];",
        "  __start -> %s;" % ident(m.states[m.initial]),
    ]
    for k, name in enumerate(m.states):
        lines.append('  %s [label="%s/%s"];' % (ident(name), name, m.output_map[k]))
    for k, name in enumerate(m.states):
        for j in range(m.input_count):
            lines.append(
                '  %s -> %s [label="%s"];'
                % (ident(name), ident(m.states[m.transition[k][j]]), m.input_label(j))
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
