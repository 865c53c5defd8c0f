"""Moore machines: table data model, word actions, trimming, and the .moore format."""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter


class ParseError(ValueError):
    """Malformed .moore or .subst text; the message carries the line number."""


class DomainError(ValueError):
    """An operation was called outside its domain (bad state, symbol, ...)."""


class _Value:
    """Base of the immutable value classes.

    Each subclass names its fields in ``_fields``.  Its constructor stores
    them with ``_set``, and ``_key()`` reads them back, both in that order.
    Equality, hashing, repr and pickling go by ``_key()``, so further slots
    a subclass declares, set with ``object.__setattr__``, are left out.
    Any other assignment or deletion raises AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        """Store values into the fields, in ``_fields`` order; return self."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        return self

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % field for field in zip(self._fields, self._key())]))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return self.__class__, self._key()


def _check_int(value, what: str):
    """Raise DomainError unless value is an int (a bool is one)."""
    if not isinstance(value, int):
        raise DomainError("%s must be an integer, not %r" % (what, value))


def _check_ordered(value, what: str):
    """Raise _check_int's DomainError if value does not compare with 0, so
    that a sign test after this one cannot raise TypeError."""
    try:
        value < 0
    except TypeError:
        raise DomainError("%s must be an integer, not %r" % (what, value)) from None


class MooreMachine(_Value):
    """A deterministic machine: states, inputs 0..q-1, outputs, delta, lambda, initial.

    States are opaque name tokens; their positions in ``states`` are the
    indices used by ``transition``, ``output_map`` and ``initial``.  Instances
    are immutable and hashable, so they can be shared freely.
    """

    __slots__ = _fields = ("states", "input_count", "outputs", "transition", "output_map",
                           "initial", "input_names")
    states: tuple[str, ...]
    input_count: int
    outputs: tuple[str, ...]
    transition: tuple[tuple[int, ...], ...]  # transition[s][j] = delta(s, j)
    output_map: tuple[str, ...]              # output_map[s] = lambda(s)
    initial: int
    input_names: tuple[str, ...] | None

    def __init__(self, states, input_count, outputs, transition, output_map, initial,
                 input_names=None):
        self._set(states, input_count, outputs, transition, output_map, initial, input_names)
        n, q = len(self.states), self.input_count
        if n < 1:
            raise DomainError("machine needs at least one state")
        _check_int(q, "input count")
        if q < 1:
            raise DomainError("machine needs at least one input symbol")
        if len(set(self.states)) != n:
            raise DomainError("duplicate state identifiers")
        if not self.outputs:
            raise DomainError("empty output alphabet")
        if len(set(self.outputs)) != len(self.outputs):
            raise DomainError("duplicate output symbols")
        if len(self.transition) != n or set(map(len, self.transition)) != {q}:
            raise DomainError("transition table must be %d x %d" % (n, q))
        for row in self.transition:
            for t in row:
                if not isinstance(t, int) or not 0 <= t < n:
                    _check_int(t, "transition target")
                    raise DomainError("transition target %r out of range" % (t,))
        if len(self.output_map) != n:
            raise DomainError("output map must cover every state")
        for sym in self.output_map:
            if sym not in self.outputs:
                raise DomainError("output %r not declared" % (sym,))
        _check_int(self.initial, "initial state")
        if not 0 <= self.initial < n:
            raise DomainError("initial state out of range")
        if self.input_names is not None:
            if len(self.input_names) != q:
                raise DomainError("expected %d input names" % q)
            if len(set(self.input_names)) != q:
                raise DomainError("duplicate input names")

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
        if not isinstance(s, int) or not 0 <= s < self.n:
            _check_int(s, "state index")
            raise DomainError("state index %r out of range" % (s,))
        return s

    def input_label(self, j: int) -> str:
        return self.input_names[j] if self.input_names else str(j)


def _machine(*fields) -> MooreMachine:
    """A MooreMachine of the given fields, in ``_fields`` order, without the
    checks of ``__init__``: only for callers that have established every
    invariant those checks enforce."""
    return object.__new__(MooreMachine)._set(*fields)


class Counterexample(_Value):
    """A word on which two compared machines give different outputs."""

    __slots__ = _fields = ("word", "left_output", "right_output")
    word: tuple[int, ...]
    left_output: str
    right_output: str

    def __init__(self, word, left_output, right_output):
        self._set(word, left_output, right_output)
        if self.left_output == self.right_output:
            raise DomainError("not a counterexample: outputs agree")


# --- words ----------------------------------------------------------------

def _word(word) -> tuple:
    """The letters of word as a tuple; DomainError if it is not iterable."""
    try:
        letters = iter(word)
    except TypeError:
        raise DomainError("word must be iterable, not %r" % (word,)) from None
    return tuple(letters)


def validate_word(word, q: int) -> tuple[int, ...]:
    word = _word(word)
    for j in word:
        if not isinstance(j, int) or not 0 <= j < q:
            _check_int(j, "input symbol")
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
        j = _digit_value(p)
        if j is None:
            raise DomainError("bad input symbol %r in word" % p)
        word.append(j)
    return validate_word(word, q)


def _digit_value(tok: str):
    """The value of a token of digits, or None.

    Also None for digits int() cannot read: superscripts such as '²', or
    more digits than the interpreter converts.
    """
    if tok.isdigit():
        try:
            return int(tok)
        except ValueError:
            pass
    return None


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


def _reachable(m: MooreMachine):
    """The states reachable from the initial one, in breadth-first order with
    letters ascending, and the map from each to its position in that order."""
    order = [m.initial]
    remap = {m.initial: 0}
    table = m.transition
    for a in order:  # the list grows as states are discovered
        for t in table[a]:
            if t not in remap:
                remap[t] = len(order)
                order.append(t)
    return order, remap


def trim(m: MooreMachine) -> MooreMachine:
    """Drop states unreachable from the initial one.

    The new state order is breadth-first discovery order with letters
    ascending; an already-ordered machine is returned unchanged.
    """
    order, remap = _reachable(m)
    if order == list(range(m.n)):
        return m
    get = remap.__getitem__
    return _machine(
        tuple(map(m.states.__getitem__, order)),
        m.input_count,
        m.outputs,
        tuple([tuple(map(get, m.transition[a])) for a in order]),
        tuple(map(m.output_map.__getitem__, order)),
        0,
        m.input_names,
    )


# --- text format -------------------------------------------------------------

def _meaningful_lines(text: str):
    """The (line number, tokens) of each line with a token once '#...' is cut."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return filter(itemgetter(1), enumerate(map(str.split, lines), 1))


def parse_machine(text: str) -> MooreMachine:
    """Parse .moore text into a validated machine (state order = declaration order).

    One pass over the lines collects the declarations and the transitions;
    one pass over the transitions fills the table.  Errors are reported in
    a fixed order: the first malformed line, a missing declaration, an
    unknown output or initial state, the first bad transition line, then
    the first missing transition.
    """
    lines = _meaningful_lines(text)
    first = next(lines, None)
    if first is None or first[1] != ["moore", "v1"]:
        raise ParseError("line %d: expected header 'moore v1'" % (first[0] if first else 1))

    q = None
    input_names = None
    outputs = None
    names = []         # state names in declaration order
    outs = []          # output symbol per state
    out_lines = []     # line of each state
    state_pos = {}
    initial_name = None
    trans = []         # (line, ['trans', source, input token, target])

    for lineno, toks in lines:
        key = toks[0]
        if key == "trans":  # most lines of a machine are transitions
            if len(toks) != 4:
                raise ParseError("line %d: expected 'trans <id> <input> <id>'" % lineno)
            trans.append((lineno, toks))
        elif key == "state":
            if len(toks) != 3:
                raise ParseError("line %d: expected 'state <id> <output>'" % lineno)
            name = toks[1]
            if name in state_pos:
                raise ParseError("line %d: duplicate state %r" % (lineno, name))
            state_pos[name] = len(names)
            names.append(name)
            outs.append(toks[2])
            out_lines.append(lineno)
        elif key == "inputs":
            if q is not None:
                raise ParseError("line %d: duplicate 'inputs' declaration" % lineno)
            args = toks[1:]
            if not args:
                raise ParseError("line %d: 'inputs' needs a count or names" % lineno)
            if len(args) == 1 and args[0].isdigit():
                q = _digit_value(args[0])
                if q is None:
                    raise ParseError("line %d: unreadable input count" % lineno)
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
            if len(toks) == 1:
                raise ParseError("line %d: 'outputs' needs at least one symbol" % lineno)
            outputs = tuple(toks[1:])
            if len(set(outputs)) != len(outputs):
                raise ParseError("line %d: duplicate output symbol" % lineno)
        elif key == "initial":
            if len(toks) != 2:
                raise ParseError("line %d: expected 'initial <id>'" % lineno)
            if initial_name is not None:
                raise ParseError("line %d: duplicate 'initial' declaration" % lineno)
            initial_name = (toks[1], lineno)
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, key))

    if q is None:
        raise ParseError("missing 'inputs' declaration")
    if outputs is None:
        raise ParseError("missing 'outputs' declaration")
    if not names:
        raise ParseError("no states declared")
    if initial_name is None:
        raise ParseError("missing 'initial' declaration")

    declared = set(outputs)
    for out, lineno in zip(outs, out_lines):
        if out not in declared:
            raise ParseError("line %d: unknown output token %r" % (lineno, out))
    init_name, init_line = initial_name
    if init_name not in state_pos:
        raise ParseError("line %d: unknown state %r" % (init_line, init_name))

    # Input tokens by name, or the canonical digits of 0..q-1; other digit
    # tokens such as '01' are read by value.  Bounded by the number of
    # transition lines, so a huge count allocates nothing of its size.
    if input_names is not None:
        token = {name: j for j, name in enumerate(input_names)}
    else:
        token = {str(j): j for j in range(min(q, len(trans)))}
    nq = len(names) * q
    # A complete table names each of its nq cells once, so has nq lines.
    # With fewer, some cell is missing; as nq may then be huge, keep only
    # the cells named.
    cells = [None] * nq if nq <= len(trans) else defaultdict(lambda: None)
    for lineno, (_, src, inp, dst) in trans:
        a = state_pos.get(src)
        if a is None:
            raise ParseError("line %d: unknown state %r" % (lineno, src))
        t = state_pos.get(dst)
        if t is None:
            raise ParseError("line %d: unknown state %r" % (lineno, dst))
        j = token.get(inp)
        if j is None:
            j = _digit_value(inp)
            if j is None or j >= q:
                raise ParseError("line %d: unknown input token %r" % (lineno, inp))
        k = a * q + j
        if cells[k] is not None:
            raise ParseError("line %d: duplicate transition for %s on %s" % (lineno, src, inp))
        cells[k] = t

    if nq > len(trans):
        # the first cell absent, within len(trans) + 1 probes
        k = next(k for k in range(nq) if cells[k] is None)
        raise ParseError(
            "missing transition for state %r on input %s" % (names[k // q], k % q)
        )
    # No duplicate in nq lines: every cell is filled.  Every check of
    # MooreMachine's constructor has now been made, with a ParseError.
    return _machine(
        tuple(names),
        q,
        outputs,
        tuple([tuple(cells[k : k + q]) for k in range(0, nq, q)]),
        tuple(outs),
        state_pos[init_name],
        input_names,
    )


def _check_tokens(tokens):
    """Raise DomainError unless every name reads back as one token: nonempty,
    with no whitespace (line breaks included) and no '#'."""
    text = "".join(tokens)
    if "#" in text or "" in tokens or text.split() != [text]:
        bad = next(t for t in tokens if "#" in t or t.split() != [t])
        raise DomainError("name %r would not read back as one token" % (bad,))


def emit_machine(m: MooreMachine, vectors=None) -> str:
    """Canonical .moore text; re-parsing gives back a structurally equal machine.

    Given ``vectors`` (one output vector per state, as ``dual_with_vectors``
    returns them), each state line gets its vector as a '# vector:' comment.
    A name that would not read back as itself is a DomainError.
    """
    _check_tokens(m.states + m.outputs + (m.input_names or ()))
    if m.input_names and len(m.input_names) == 1 and m.input_names[0].isdigit():
        raise DomainError("input name %r would read back as a count" % (m.input_names[0],))
    lines = ["moore v1"]
    if m.input_names:
        lines.append("inputs " + " ".join(m.input_names))
    else:
        lines.append("inputs %d" % m.input_count)
    lines.append("outputs " + " ".join(m.outputs))
    states = m.states
    for idx, name in enumerate(states):
        line = "state %s %s" % (name, m.output_map[idx])
        if vectors:
            line += "  # vector: " + " ".join(vectors[idx])
        lines.append(line)
    lines.append("initial %s" % states[m.initial])
    labels = [m.input_label(j) for j in range(m.input_count)]
    for name, row in zip(states, m.transition):
        for label, t in zip(labels, row):
            lines.append("trans %s %s %s" % (name, label, states[t]))
    return "\n".join(lines) + "\n"


def _dot_string(text: str) -> str:
    """A DOT quoted string reading back as text: backslashes, then quotes, escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(m: MooreMachine) -> str:
    """Deterministic Graphviz source: nodes labeled name/output, labeled edges,
    and a point-shaped marker pointing at the initial state."""
    ident = [_dot_string(name) for name in m.states]
    lines = [
        "digraph moore {",
        "  rankdir=LR;",
        "  __start [shape=point];",
        "  __start -> %s;" % ident[m.initial],
    ]
    for k, name in enumerate(m.states):
        lines.append("  %s [label=%s];" % (ident[k], _dot_string(name + "/" + m.output_map[k])))
    labels = [_dot_string(m.input_label(j)) for j in range(m.input_count)]
    for k, row in enumerate(m.transition):
        for label, t in zip(labels, row):
            lines.append("  %s -> %s [label=%s];" % (ident[k], ident[t], label))
    lines.append("}")
    return "\n".join(lines) + "\n"
