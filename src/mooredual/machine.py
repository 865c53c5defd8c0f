"""Moore machines: table data model, word actions, trimming, and the .moore format."""

from __future__ import annotations

from collections import defaultdict


class ParseError(ValueError):
    """Malformed .moore or .subst text; the message carries the line number."""


class DomainError(ValueError):
    """An operation was called outside its domain (bad state, symbol, ...)."""


class _Value:
    """Base of the immutable value classes.

    Each subclass names its fields in ``_fields``.  Its constructor stores
    them with ``_set``, by their slots' ``__set__``, and ``_key()`` reads
    them back, both in that order.
    Equality, hashing, repr and pickling go by ``_key()``, so further slots
    a subclass declares, set with ``object.__setattr__``, are left out.
    Any other assignment or deletion raises AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def _set(self, *values):
        """Store values into the fields, in ``_fields`` order; return self."""
        for store, value in zip(self._setters, values):
            store(self, value)
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


def _check_names(names, what: str, duplicates: str | None = None):
    """Raise DomainError unless every name is a str; the first that is not
    is named as ``what``.  With ``duplicates``, the names must also be
    distinct, and ``duplicates`` is the message when they are not."""
    for name in names:
        if not isinstance(name, str):
            raise DomainError("%s must be a str, not %r" % (what, name))
    if duplicates is not None and len(set(names)) != len(names):
        raise DomainError(duplicates)


def _position(value, count: int, find, what: str) -> int:
    """The position of value among count named items: a str by find, which
    raises ValueError or KeyError for an unknown name, or an int index in
    range(count), returned as it is."""
    if isinstance(value, str):
        try:
            return find(value)
        except (ValueError, KeyError):
            raise DomainError("unknown %s %r" % (what, value)) from None
    if not isinstance(value, int) or not 0 <= value < count:
        _check_int(value, what + " index")
        raise DomainError("%s index %r out of range" % (what, value))
    return value


def _check_ordered(value, what: str):
    """Raise _check_int's DomainError if value does not compare with 0, so
    that a sign test after this one cannot raise TypeError."""
    try:
        value < 0
    except TypeError:
        raise DomainError("%s must be an integer, not %r" % (what, value)) from None


class MooreMachine(_Value):
    """A deterministic machine: states, inputs 0..q-1, outputs, delta, lambda, initial.

    States, outputs and input names are strings; the positions of states in
    ``states`` are the indices used by ``transition``, ``output_map`` and
    ``initial``.  The constructor copies the sequence fields into tuples, so
    instances are immutable and hashable and can be shared freely.
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
        self._set(_tuple(states, "states"), input_count, _tuple(outputs, "outputs"),
                  tuple([_tuple(row, "transition row")
                         for row in _tuple(transition, "transition")]),
                  _tuple(output_map, "output map"), initial,
                  None if input_names is None else _tuple(input_names, "input names"))
        n, q = len(self.states), self.input_count
        if n < 1:
            raise DomainError("machine needs at least one state")
        _check_int(q, "input count")
        if q < 1:
            raise DomainError("machine needs at least one input symbol")
        _check_names(self.states, "state", "duplicate state identifiers")
        if not self.outputs:
            raise DomainError("empty output alphabet")
        _check_names(self.outputs, "output", "duplicate output symbols")
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
            _check_names(self.input_names, "input name", "duplicate input names")

    @property
    def n(self) -> int:
        return len(self.states)

    def state_index(self, s) -> int:
        """Accept a state index or a state name; return the index."""
        return _position(s, len(self.states), self.states.index, "state")

    def input_label(self, j: int) -> str:
        return self.input_names[j] if self.input_names else str(j)


_NUMERALS = tuple(map(str, range(256)))


def _numerals(n: int) -> tuple[str, ...]:
    """The names '0', ..., str(n - 1); up to 256 of them, one shared tuple's."""
    return _NUMERALS[:n] if n <= 256 else tuple(map(str, range(n)))


def _check_machine(m):
    """Raise DomainError unless m is a MooreMachine."""
    if not isinstance(m, MooreMachine):
        raise DomainError("expected a MooreMachine, not %r" % (m,))


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
        self._set(_tuple(word, "word"), left_output, right_output)
        for j in self.word:
            _check_int(j, "input symbol")
        _check_names((left_output, right_output), "output")
        if self.left_output == self.right_output:
            raise DomainError("not a counterexample: outputs agree")


# --- words ----------------------------------------------------------------

def _tuple(value, what: str) -> tuple:
    """The items of value as a tuple; DomainError naming it as ``what`` if it
    is not iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise DomainError("%s must be iterable, not %r" % (what, value)) from None
    return tuple(items)


def validate_word(word, q: int) -> tuple[int, ...]:
    """The input symbols of word as a tuple; a string is read by parse_word.
    q, the input count, must be an int."""
    _check_int(q, "input count")
    if isinstance(word, str):
        return parse_word(word, q)
    word = _tuple(word, "word")
    for j in word:
        if not isinstance(j, int) or not 0 <= j < q:
            _check_int(j, "input symbol")
            raise DomainError("input symbol %r out of range (q=%d)" % (j, q))
    return word


def parse_word(text: str, q: int) -> tuple[int, ...]:
    """Parse a word literal: symbols apart by commas or whitespace; for q <= 10, a digit run."""
    _check_int(q, "input count")
    _check_text(text)
    parts = text.replace(",", " ").split()
    if len(parts) == 1 and q <= 10 and "," not in text:
        parts = parts[0]
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
    """The word literal parse_word reads back as word: digits for q <= 10, else
    numbers apart by commas.  The word is checked as validate_word checks it."""
    word = validate_word(word, q)
    return ("" if q <= 10 else ",").join(["%d" % j for j in word])


# --- actions ----------------------------------------------------------------

def right_action(m: MooreMachine, s, w) -> int:
    """Fold delta over w left to right starting at s (computes s.w)."""
    _check_machine(m)
    a = m.state_index(s)
    for j in validate_word(w, m.input_count):
        a = m.transition[a][j]
    return a


def left_action(m: MooreMachine, w, s) -> int:
    """Fold delta over w right to left, last letter applied first (computes w.s)."""
    _check_machine(m)
    a = m.state_index(s)
    for j in reversed(validate_word(w, m.input_count)):
        a = m.transition[a][j]
    return a


def run_right(m: MooreMachine, w) -> str:
    """Output after feeding w on the right: lambda(initial.w)."""
    _check_machine(m)
    return m.output_map[right_action(m, m.initial, w)]


def run_left(m: MooreMachine, w) -> str:
    """Output after feeding w on the left: lambda(w.initial)."""
    _check_machine(m)
    return m.output_map[left_action(m, w, m.initial)]


def _closure(start, successors, limit=None):
    """The states reached from start, and each one's row of successor positions.

    The one numbering of every derived machine (trim, the quotient's input,
    the product, the dual): start is 0, and the states that successors(s)
    yields are numbered as first found, taking s in that order: breadth-first.
    The walk stops at the state numbered ``limit``: at most limit + 1 come back.
    """
    states = [start]
    index = {start: 0}
    rows = []
    for s in states:  # the list grows as states are discovered
        row = []
        for t in successors(s):
            k = index.get(t)
            if k is None:
                k = index[t] = len(states)
                states.append(t)
                if k == limit:
                    return states, rows
            row.append(k)
        rows.append(tuple(row))
    return states, rows


def trim(m: MooreMachine) -> MooreMachine:
    """Drop states unreachable from the initial one.

    The new state order is breadth-first discovery order with letters
    ascending; an already-ordered machine is returned unchanged.
    """
    order, outs, rows = _trimmed(m)
    if order == list(range(m.n)):
        return m
    return _machine(tuple(map(m.states.__getitem__, order)), m.input_count, m.outputs,
                    tuple(rows), outs, 0, m.input_names)


def _trimmed(m: MooreMachine):
    """trim(m), without building it as a machine: the states of m it keeps,
    in its order, and their outputs and rows."""
    _check_machine(m)
    order, rows = _closure(m.initial, m.transition.__getitem__)
    return order, tuple(map(m.output_map.__getitem__, order)), rows


# --- text format -------------------------------------------------------------

def _check_text(text):
    """Raise DomainError unless text is a str."""
    if not isinstance(text, str):
        raise DomainError("text must be a str, not %s" % type(text).__name__)


def _read_lines(text: str, header: str):
    """The token lists of text's lines, each line cut at its first '#' (a
    blank line's list is empty), and an iterator over the nonempty lists
    after the first, which must be ``header`` split; DomainError unless text
    is a str."""
    _check_text(text)
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    tokens = list(map(str.split, lines))
    rest = filter(None, tokens)
    first = next(rest, None)
    if first != header.split():
        raise _numbered("expected header '%s'" % header, tokens, first)
    return tokens, rest


def _numbered(message, tokens: list, toks) -> ParseError:
    """A ParseError "line N: message" for the line of toks, by its position
    among tokens, the token lists of every line (line 1 if toks is None)."""
    lineno = next((n for n, t in enumerate(tokens, 1) if t is toks), 1)
    return ParseError("line %d: %s" % (lineno, message))


def _declared(toks, previous, tokens: list, needs: str, item: str) -> tuple:
    """The arguments of the once-only declaration toks, which must be
    distinct; ParseError if ``previous`` shows it declared already, then if
    it has no arguments or repeats one (an ``item``)."""
    if previous is not None:
        raise _numbered("duplicate '%s' declaration" % toks[0], tokens, toks)
    if len(toks) == 1:
        raise _numbered("'%s' needs %s" % (toks[0], needs), tokens, toks)
    args = tuple(toks[1:])
    if len(set(args)) != len(args):
        raise _numbered("duplicate %s" % item, tokens, toks)
    return args


def parse_machine(text: str) -> MooreMachine:
    """Parse .moore text into a validated machine (state order = declaration order).

    One pass over the lines' tokens collects the declarations and the
    transitions; one pass over the transitions fills the table by lookups
    alone, and diagnoses a line whose lookup fails (numbering lines only
    then), or, for a token read by value such as '01', learns it and fills
    that cell.  Errors come in a fixed order: the first malformed line, a
    missing declaration, an unknown output or initial state, the first bad
    transition line, the first missing one.
    """
    tokens, lines = _read_lines(text, "moore v1")

    q = None
    input_names = None
    outputs = None
    names = []         # state names in declaration order
    outs = []          # output symbol per state
    state_pos = {}
    initial = None     # the tokens of the 'initial' line
    trans = []         # the tokens of each 'trans' line

    for toks in lines:
        key = toks[0]
        if key == "trans":  # most lines of a machine are transitions
            if len(toks) != 4:
                raise _numbered("expected 'trans <id> <input> <id>'", tokens, toks)
            trans.append(toks)
        elif key == "state":
            if len(toks) != 3:
                raise _numbered("expected 'state <id> <output>'", tokens, toks)
            name = toks[1]
            if name in state_pos:
                raise _numbered("duplicate state %r" % name, tokens, toks)
            state_pos[name] = len(names)
            names.append(name)
            outs.append(toks[2])
        elif key == "inputs":
            args = _declared(toks, q, tokens, "a count or names", "input name")
            if len(args) == 1 and args[0].isdigit():
                q = _digit_value(args[0])
                if q is None:
                    raise _numbered("unreadable input count", tokens, toks)
            else:
                input_names = args
                q = len(args)
            if q < 1:
                raise _numbered("need at least one input", tokens, toks)
        elif key == "outputs":
            outputs = _declared(toks, outputs, tokens, "at least one symbol", "output symbol")
        elif key == "initial":
            if len(toks) != 2:
                raise _numbered("expected 'initial <id>'", tokens, toks)
            if initial is not None:
                raise _numbered("duplicate 'initial' declaration", tokens, toks)
            initial = toks
        else:
            raise _numbered("unknown directive %r" % key, tokens, toks)

    if q is None:
        raise ParseError("missing 'inputs' declaration")
    if outputs is None:
        raise ParseError("missing 'outputs' declaration")
    if not names:
        raise ParseError("no states declared")
    if initial is None:
        raise ParseError("missing 'initial' declaration")

    declared = set(outputs)
    if not declared.issuperset(outs):
        out = next(out for out in outs if out not in declared)
        toks = next(toks for toks in tokens if toks[:1] == ["state"] and toks[2] == out)
        raise _numbered("unknown output token %r" % out, tokens, toks)
    if initial[1] not in state_pos:
        raise _numbered("unknown state %r" % initial[1], tokens, initial)

    # Input tokens by name, or the canonical digits of 0..q-1; other digit
    # tokens such as '01' are read by value.  Bounded by the number of
    # transition lines, so a huge count allocates nothing of its size.
    token = dict(zip(input_names or _numerals(min(q, len(trans))), range(q)))
    nq = len(names) * q
    # A complete table names each of its nq cells once, so has nq lines.
    # With fewer, some cell is missing; as nq may then be huge, keep only
    # the cells named.
    cells = [None] * nq if nq <= len(trans) else defaultdict(lambda: None)
    for toks in trans:
        _, src, inp, dst = toks
        try:
            k, t = state_pos[src] * q + token[inp], state_pos[dst]
        except KeyError:
            for name in (src, dst):
                if name not in state_pos:
                    raise _numbered("unknown state %r" % name, tokens, toks) from None
            j = _digit_value(inp)
            if j is None or j >= q:
                raise _numbered("unknown input token %r" % inp, tokens, toks) from None
            token[inp] = j
            k, t = state_pos[src] * q + j, state_pos[dst]
        if cells[k] is not None:
            raise _numbered("duplicate transition for %s on %s" % (src, inp), tokens, toks)
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
        tuple(zip(*[iter(cells)] * q)),
        tuple(outs),
        state_pos[initial[1]],
        input_names,
    )


def _check_tokens(tokens):
    """Raise DomainError unless every name reads back as one token: nonempty,
    with no whitespace (line breaks included) and no '#'."""
    text = "".join(tokens)
    if tokens and ("#" in text or "" in tokens or text.split() != [text]):
        bad = next(t for t in tokens if "#" in t or t.split() != [t])
        raise DomainError("name %r would not read back as one token" % (bad,))


def emit_machine(m: MooreMachine, vectors=None) -> str:
    """Canonical .moore text; re-parsing gives back a structurally equal machine.

    Given ``vectors`` (one output vector per state, as ``dual_with_vectors``
    returns them), each state line gets its vector as a '# vector:' comment.
    A name or vector entry that would not read back as itself is a DomainError.
    """
    _check_machine(m)
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
    if vectors:
        vectors = [_tuple(vector, "vector") for vector in _tuple(vectors, "vectors")]
        if len(vectors) != m.n:
            raise DomainError("expected %d vectors, one per state, not %d" % (m.n, len(vectors)))
        entries = [x for vector in vectors for x in vector]
        _check_names(entries, "vector entry")
        _check_tokens(entries)
        for name, out, vector in zip(states, m.output_map, vectors):
            lines.append("state %s %s  # vector: %s" % (name, out, " ".join(vector)))
    else:
        for name, out in zip(states, m.output_map):
            lines.append("state %s %s" % (name, out))
    lines.append("initial %s" % states[m.initial])
    labels = m.input_names or _numerals(m.input_count)
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
    _check_machine(m)
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
