"""Substitutions on free monoids, fixed-point indexing, and their machines."""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, islice

from .equivalence import minimize
from .machine import (
    DomainError,
    MooreMachine,
    ParseError,
    _check_int,
    _check_ordered,
    _check_tokens,
    _meaningful_lines,
    _Value,
    _word,
    validate_word,
)

SINK_STATE = "ω"    # absorbing padding state; not usable as a letter
SINK_OUTPUT = "⊥"   # reserved output of the sink; not user-declarable

SLOT = "_"          # padding-template token: receives the next image letter
OMEGA = "w"         # padding-template token: a padding position


class Substitution(_Value):
    """A free-monoid endomorphism with an output projection and a start letter.

    ``rules[k]`` is the image word of ``alphabet[k]``; images are nonempty.
    ``q`` is the longest image length, the input base of the associated
    machine.  Besides ``q``, each instance carries index data that equality,
    hashing and repr ignore: the rules as letter indices, the shape every
    padding template must have, whether every image has length q, and the
    block table (see ``_blocks``), built by the first ``letter_at`` or
    ``letter_at_constant``.
    """

    _fields = ("alphabet", "rules", "outputs", "projection", "initial")
    __slots__ = _fields + ("q", "_rows", "_pad_shape", "_constant_length", "_block_table")
    alphabet: tuple[str, ...]
    rules: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    projection: tuple[str, ...]
    initial: int

    def __init__(self, alphabet, rules, outputs, projection, initial):
        self._set(alphabet, rules, outputs, projection, initial)
        n = len(self.alphabet)
        if n < 1:
            raise DomainError("substitution needs at least one letter")
        pos = {a: k for k, a in enumerate(self.alphabet)}
        if len(pos) != n:
            raise DomainError("duplicate letters")
        if SINK_STATE in self.alphabet:
            raise DomainError("letter %r is reserved for the padding sink" % SINK_STATE)
        if not self.outputs or len(set(self.outputs)) != len(self.outputs):
            raise DomainError("outputs must be nonempty and distinct")
        if SINK_OUTPUT in self.outputs:
            raise DomainError("output %r is reserved for the padding sink" % SINK_OUTPUT)
        if len(self.rules) != n:
            raise DomainError("need one rule per letter")
        for a, img in zip(self.alphabet, self.rules):
            if len(img) < 1:
                raise DomainError("empty image for letter %r" % a)
            for b in img:
                if b not in pos:
                    raise DomainError("rule for %r uses unknown letter %r" % (a, b))
        if len(self.projection) != n:
            raise DomainError("projection must cover every letter")
        for sym in self.projection:
            if sym not in self.outputs:
                raise DomainError("projection value %r not declared" % (sym,))
        _check_int(self.initial, "initial letter")
        if not 0 <= self.initial < n:
            raise DomainError("initial letter out of range")
        object.__setattr__(self, "q", max(map(len, self.rules)))
        # _rows[a][i] is the i-th letter of the image of a, as an index
        rows = tuple([tuple([pos[b] for b in img]) for img in self.rules])
        object.__setattr__(self, "_rows", rows)
        # (length, slots, padding positions) of the template each image needs
        q = self.q
        shape = tuple([(q, len(img), q - len(img)) for img in self.rules])
        object.__setattr__(self, "_pad_shape", shape)
        object.__setattr__(self, "_constant_length", min(map(len, self.rules)) == q)
        object.__setattr__(self, "_block_table", None)

    def _blocks(self):
        """The block table ``(t, words, prefix, offsets, column)``.

        ``words[a]`` is sigma^t(a) as letter names, for the deepest t whose
        levels 0..t hold at most _BLOCK_LETTERS letters together (level 0
        always).  ``prefix`` is the first _BLOCK_LETTERS letters of the fixed
        point, as letter indices (empty without a fixed point), and
        ``offsets[i]`` is where sigma^t(prefix[i]) starts in it; the last
        offset is the reach below which ``letter_at`` reads the table.
        ``column[r]`` is |sigma^r(start)|, up to the first r whose iterate
        reaches that far: iterates of a fixed point strictly grow, so at most
        reach + 1 entries ((1,) without a fixed point).

        Built on first use and published in one attribute store, so threads
        may share it.
        """
        blocks = self._block_table
        if blocks is None:
            rows = self._rows
            words = [(a,) for a in self.alphabet]
            depth, built = 0, len(words)
            while True:
                sizes = [sum([len(words[b]) for b in row]) for row in rows]
                built += sum(sizes)
                if built > _BLOCK_LETTERS:
                    break
                words = [
                    tuple([x for b in row for x in words[b]]) for row in rows
                ]
                depth += 1
            # the fixed point is the image of itself, read off as it is written
            start = self.initial
            prefix = []
            if rows[start][0] == start and len(rows[start]) > 1:
                prefix = list(rows[start])
                i = 1
                while len(prefix) < _BLOCK_LETTERS:
                    prefix += rows[prefix[i]]
                    i += 1
                del prefix[_BLOCK_LETTERS:]
            offsets = tuple(accumulate([len(words[b]) for b in prefix], initial=0))
            level, column = [1] * len(rows), [1]
            while column[-1] < offsets[-1]:
                level = _level_above(rows, level)
                column.append(level[start])
            blocks = (depth, tuple(words), tuple(prefix), offsets, tuple(column))
            object.__setattr__(self, "_block_table", blocks)
        return blocks

    def letter_index(self, a) -> int:
        if isinstance(a, str):
            try:
                return self.alphabet.index(a)
            except ValueError:
                raise DomainError("unknown letter %r" % a) from None
        if not isinstance(a, int) or not 0 <= a < len(self.alphabet):
            _check_int(a, "letter index")
            raise DomainError("letter index %r out of range" % (a,))
        return a

    def image(self, a) -> tuple[str, ...]:
        return self.rules[self.letter_index(a)]


class PaddingSpec(_Value):
    """Where the padding positions sit in each image brought up to length q.

    One template per letter, tokens SLOT/OMEGA; slots, read left to right,
    receive the letters of the image in order.
    """

    _fields = ("templates",)
    __slots__ = _fields + ("_shape",)
    templates: tuple[tuple[str, ...], ...]

    def __init__(self, templates):
        self._set(templates)
        # (length, slots, padding positions) per template, kept only when the
        # templates are tuples of strings, which cannot change or fail to
        # compare; validate then passes at once if it equals the shape the
        # substitution needs
        shape = None
        if type(self.templates) is tuple and all(
            type(tpl) is tuple and all(type(tok) is str for tok in tpl)
            for tpl in self.templates
        ):
            shape = tuple([(len(tpl), tpl.count(SLOT), tpl.count(OMEGA))
                           for tpl in self.templates])
        object.__setattr__(self, "_shape", shape)

    @classmethod
    def default(cls, s: Substitution) -> "PaddingSpec":
        """Trailing padding: image letters first, padding after."""
        q = s.q
        return cls(
            tuple(
                tuple([SLOT] * len(img) + [OMEGA] * (q - len(img))) for img in s.rules
            )
        )

    def validate(self, s: Substitution):
        if self._shape == s._pad_shape:
            return  # every template has its length, slots and padding
        if len(self.templates) != len(s.alphabet):
            raise DomainError("need one padding template per letter")
        for a, img, tpl in zip(s.alphabet, s.rules, self.templates):
            _check_template(a, img, tpl, s.q)


def _check_template(a, img, tpl, q: int):
    """Raise DomainError unless tpl pads the image img of letter a to length q."""
    if len(tpl) != q:
        raise DomainError("template for %r must have length %d" % (a, q))
    slots = tpl.count(SLOT)  # counts compare like ``in``, and need no hashing
    if slots + tpl.count(OMEGA) != q:
        tok = next(tok for tok in tpl if tok not in (SLOT, OMEGA))
        raise DomainError("bad template token %r for %r" % (tok, a))
    if slots != len(img):
        raise DomainError("template for %r must have exactly %d slots" % (a, len(img)))


class PaddedMachine(_Value):
    """The machine of a substitution over its alphabet plus an absorbing sink."""

    __slots__ = _fields = ("machine", "sink")
    machine: MooreMachine
    sink: int

    def __init__(self, machine, sink):
        self._set(machine, sink)


# --- letter words -----------------------------------------------------------

def parse_letters(s: Substitution, text: str) -> tuple[str, ...]:
    """Parse a letter-word literal.

    Bare concatenation when every letter is a single character, otherwise
    whitespace/comma separated tokens.
    """
    text = text.strip()
    if text == "":
        return ()
    if all(len(a) == 1 for a in s.alphabet) and "," not in text and " " not in text:
        letters = tuple(text)
    else:
        letters = tuple(t for t in text.replace(",", " ").split())
    for a in letters:
        s.letter_index(a)
    return letters


def format_letters(s: Substitution, letters) -> str:
    if all(len(a) == 1 for a in s.alphabet):
        return "".join(letters)
    return " ".join(letters)


def apply(s: Substitution, letters):
    """Image of a word: concatenation of the letter images."""
    if isinstance(letters, str):
        letters = parse_letters(s, letters)
    out = []
    for a in _word(letters):
        out.extend(s.image(a))
    return tuple(out)


def check_fixed_point(s: Substitution):
    img = s.rules[s.initial]
    if img[0] != s.alphabet[s.initial] or len(img) < 2:
        raise DomainError(
            "no fixed point: the image of %r must start with it and grow"
            % s.alphabet[s.initial]
        )


def expand_fixed_point(s: Substitution, n: int, project: bool = False):
    """First n letters of the limit word, by direct iteration.

    This is the brute-force oracle against which the digit-indexing
    operations are checked.  With project=True the output projection is
    applied letter by letter.
    """
    check_fixed_point(s)
    _check_ordered(n, "prefix length")
    if n < 0:
        raise DomainError("negative prefix length")
    _check_int(n, "prefix length")
    w = (s.alphabet[s.initial],)
    while len(w) < n:
        w = apply(s, w)
    w = w[:n]
    if project:
        return tuple(s.projection[s.letter_index(a)] for a in w)
    return w


# --- machines from substitutions ---------------------------------------------

def to_padded_machine(s: Substitution, pad: PaddingSpec | None = None) -> PaddedMachine:
    """Machine over the alphabet plus sink; digit j of a padded image drives delta.

    For a constant-length substitution the sink is unreachable from the
    letters, and the machine restricted to them is the exact digit machine.
    """
    if pad is None:
        pad = PaddingSpec.default(s)
    pad.validate(s)
    q = s.q
    n = len(s.alphabet)
    rows = [
        tuple(n if tok == OMEGA else next(img) for tok in tpl)
        for img, tpl in zip(map(iter, s._rows), pad.templates)
    ]
    rows.append((n,) * q)  # the sink absorbs every digit
    machine = MooreMachine(
        states=s.alphabet + (SINK_STATE,),
        input_count=q,
        outputs=s.outputs + (SINK_OUTPUT,),
        transition=tuple(rows),
        output_map=s.projection + (SINK_OUTPUT,),
        initial=s.initial,
    )
    return PaddedMachine(machine, n)


def is_constant_length(s: Substitution) -> bool:
    return s._constant_length


def letter_at_constant(s: Substitution, k: int, a, n: int):
    """Letter n of the k-th image of letter a, via digit indexing (no expansion).

    The k base-q digits of n pick an image position per step.  For k at
    least the depth t of the block table, only the top k - t digits are
    walked, and the last t index sigma^t of the letter reached.  The
    leading zeros follow the first letters of the images, which cycle
    within |A| steps, so a huge k costs no more than the digits of n.
    """
    if not s._constant_length:
        raise DomainError("substitution is not constant-length")
    state = s.letter_index(a)
    q = s.q
    if k.__class__ is not int or n.__class__ is not int:
        _check_ordered(k, "step")
        _check_ordered(n, "index")
        if k >= 0 and n >= 0:  # a negative k or n is out of range first
            _check_int(k, "step")
            _check_int(n, "index")
    # n < q**k; for q > 1 an n below 2**k needs no power
    if k < 0 or n < 0 or (n >> k or q == 1) and n >= q ** min(k, n.bit_length()):
        raise DomainError("index %d out of range for step %d" % (n, k))
    rows = s._rows
    t, words, _, _, _ = s._block_table or s._blocks()
    low = None
    if k >= t:
        n, low = divmod(n, len(words[0]))  # every sigma^t(b) has q**t letters
        k -= t
    digits = []  # base q, least significant first
    while n:
        n, d = divmod(n, q)
        digits.append(d)
    zeros = k - len(digits)
    seen = []
    while zeros and state not in seen:
        seen.append(state)
        state = rows[state][0]
        zeros -= 1
    if zeros:
        cycle = seen[seen.index(state):]
        state = cycle[zeros % len(cycle)]
    for d in reversed(digits):
        state = rows[state][d]
    if low is None:
        return s.alphabet[state]
    return words[state][low]


# --- digit-word numeration ----------------------------------------------------

def phi(word, q: int) -> int:
    """Weighted digit sum of a nonempty word (least significant digit first)."""
    word = validate_word(word, q)
    if not word:
        raise DomainError("the digit sum is undefined on the empty word")
    total = 0
    for j, d in enumerate(word):
        total += d * q ** j
    return total


_KEPT_LEVELS = 4096  # count levels kept whole before keeping only some
_BLOCK_LETTERS = 4096  # letters a block table may build, over all its levels


def _unrank(rows, start, rank, limit: int | None = None, sink: int | None = None,
            digits: list | None = None, stop: int = 0):
    """Unrank by count and descent (Dumont-Thomas numeration).

    Level r of the table counts, per state a, the r-digit strings (most
    significant digit first) leading from a along ``rows`` without entering
    ``sink``; as digit 0 fixes ``start``, those from ``start`` in
    lexicographic order are the numerals in value order.  Counting stops once
    the count exceeds the rank, at ``limit`` digits, or when it stops growing
    (for good: the language is finite).  The descent then picks one digit
    per level down to level ``stop``.  Returns the last count and, if above
    the rank, the state reached at level ``stop`` and the rank left among
    its ``stop``-digit strings (else None and the rank); the digits picked,
    most significant first and without leading zeros, are appended to
    ``digits`` if given.

    Iterates that grow only polynomially need about one level per unit of
    rank.  So beyond _KEPT_LEVELS levels only every gap-th level is kept,
    the gap doubling whenever more than max(_KEPT_LEVELS, gap) are kept, and
    the descent recounts each block of gap levels from its first: for L
    levels, O(sqrt(L)) levels in memory and at most twice the counting.
    """
    level = [int(a != sink) for a in range(len(rows))]
    kept, gap, depth = [level], 1, 0  # kept[i] is level i * gap
    while level[start] <= rank and (limit is None or depth < limit):
        if len(kept) > _KEPT_LEVELS and len(kept) > gap:
            kept = kept[::2]
            gap *= 2
        below, level = level, []
        for row in rows:  # _level_above inlined: a call per level costs a third more
            total = 0
            for b in row:
                total += below[b]
            level.append(total)
        depth += 1
        if depth % gap == 0:
            kept.append(level)
        if level[start] == below[start]:
            break
    count = level[start]
    if count <= rank:
        return count, None, rank
    state = start
    if gap == 1:
        descent = reversed(kept[stop:depth])
    else:
        descent = islice(_recount(rows, kept, gap, depth), max(depth - stop, 0))
    for below in descent:
        for d, nxt in enumerate(rows[state]):
            if rank < below[nxt]:
                break
            rank -= below[nxt]
        if digits is not None:
            digits.append(d)
        state = nxt
    return count, state, rank


def _level_above(rows, below):
    """Counts of (r+1)-digit strings per state from those of r-digit strings."""
    level = []
    for row in rows:  # explicit loops: twice as fast as sum() on short rows
        total = 0
        for b in row:
            total += below[b]
        level.append(total)
    return level


def _recount(rows, kept, gap, depth):
    """Levels depth-1 down to 0, from every gap-th one: each block of gap
    levels is counted again from the kept level that starts it."""
    for first in reversed(range(0, depth, gap)):
        block = [kept[first // gap]]
        for _ in range(min(gap, depth - first) - 1):
            block.append(_level_above(rows, block[-1]))
        yield from reversed(block)


def psi(pm: PaddedMachine, n: int):
    """The digit word of rank n (from 0) among the valid words.

    Found digit by digit from the counts of valid words per state and length,
    in O(L * |A| * q) for L digits; no rank is unreachable unless the language
    is finite.
    """
    _check_ordered(n, "rank")
    if n < 0:
        raise DomainError("negative rank")
    m = pm.machine
    if m.transition[m.initial][0] != m.initial:
        raise DomainError("numeration needs digit 0 to fix the initial letter")
    _check_int(n, "rank")
    digits = []
    count, state, _ = _unrank(m.transition, m.initial, n, sink=pm.sink, digits=digits)
    if state is None:
        raise DomainError("rank %d unreachable: only %d valid words" % (n, count))
    return tuple(reversed(digits)) or (0,)


def fixed_point_lengths(s: Substitution, k: int) -> list[int]:
    """Lengths of the first k+1 iterates of the start letter."""
    level, lengths = [1] * len(s.alphabet), [1]
    for _ in range(k):
        level = _level_above(s._rows, level)
        lengths.append(level[s.initial])
    return lengths


def letter_at(s: Substitution, pad: PaddingSpec | None, k: int, j: int):
    """Letter j of the k-th iterate of the start letter, via the numeration.

    Every iterate is a prefix of the fixed point, so below the reach of the
    block table an index inside the k-th iterate (by the table's column of
    iterate lengths) is read with one bisection of its offsets.  Otherwise
    it is the letter the padded machine reaches on psi(j), found on the rule
    rows: padding adds only sink entries, which count no words.  The count
    stops at the first iterate longer than j, or at k, and the descent ends
    at the depth t of the block table, in a read of sigma^t of the letter
    reached: O(min(k, log j) * |A| * q) when the iterates grow
    exponentially.

    The table is read first, when k and j are ints that put j inside the
    k-th iterate and below the reach; no check can fail there, since only
    a fixed point gives the table a reach.  The descent checks the fixed
    point, that k and j compare with 0, their signs, then that both are
    ints (a bool is one).
    A padding is one comparison of shapes and of the start letter's first
    token; it is validated in full only if that comparison fails.
    """
    t, words, prefix, offsets, column = s._block_table or s._blocks()
    if (j.__class__ is int and k.__class__ is int and 0 <= j < offsets[-1] and k >= 0
            and (k >= len(column) or j < column[k])):
        i = bisect_right(offsets, j) - 1
        letter = words[prefix[i]][j - offsets[i]]
    else:
        check_fixed_point(s)
        _check_ordered(k, "iteration count")
        _check_ordered(j, "index")
        if k < 0:
            raise DomainError("negative iteration count")
        if j < 0:
            raise DomainError("index %d out of range for step %d" % (j, k))
        _check_int(k, "iteration count")
        _check_int(j, "index")
        length, state, rank = _unrank(s._rows, s.initial, j, limit=k, stop=t)
        if state is None:
            raise DomainError("index %d out of range for step %d (length %d)" % (j, k, length))
        letter = words[state][rank]
    if pad is not None and not (
        pad._shape == s._pad_shape and pad.templates[s.initial][0] == SLOT
    ):
        pad.validate(s)
        if pad.templates[s.initial][0] != SLOT:
            raise DomainError("numeration needs digit 0 to fix the initial letter")
    return letter


# --- minimization --------------------------------------------------------------

def minimize_substitution(s: Substitution, pad: PaddingSpec | None = None):
    """Merge letters with identical projected behavior.

    Returns (substitution, note).  The new alphabet is the set of live
    states of the minimized padded machine; each rule is that state's
    transition row with sink entries dropped.  The projected fixed points of
    the input and the result coincide.
    """
    check_fixed_point(s)
    pm = to_padded_machine(s, pad)
    b = minimize(pm.machine)
    sink_class = b.output_map.index(SINK_OUTPUT) if SINK_OUTPUT in b.output_map else None
    live = [k for k in range(b.n) if k != sink_class]
    names = {c: "c%d" % pos for pos, c in enumerate(live)}
    rules = tuple(
        tuple(names[t] for t in b.transition[c] if t != sink_class) for c in live
    )
    result = Substitution(
        alphabet=tuple(names[c] for c in live),
        rules=rules,
        outputs=s.outputs,
        projection=tuple(b.output_map[c] for c in live),
        initial=live.index(b.initial),
    )
    if sink_class is None:
        note = "constant-length path: padding sink unreachable; %d letters -> %d" % (
            len(s.alphabet),
            len(live),
        )
    else:
        note = "padded path: %d letters -> %d (plus sink class)" % (
            len(s.alphabet),
            len(live),
        )
    return result, note


# --- text format ----------------------------------------------------------------

def parse_substitution(text: str):
    """Parse .subst text; returns (Substitution, PaddingSpec).

    Letters without a 'pad' line get the default trailing padding.
    """
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != ["subst", "v1"]:
        lineno = lines[0][0] if lines else 1
        raise ParseError("line %d: expected header 'subst v1'" % lineno)

    letters = None
    outputs = None
    initial = None
    rules = {}
    outs = {}
    pads = {}

    for lineno, toks in lines[1:]:
        key, args = toks[0], toks[1:]
        if key == "letters":
            if letters is not None:
                raise ParseError("line %d: duplicate 'letters' declaration" % lineno)
            if not args:
                raise ParseError("line %d: 'letters' needs at least one id" % lineno)
            if len(set(args)) != len(args):
                raise ParseError("line %d: duplicate letter" % lineno)
            if SINK_STATE in args:
                raise ParseError("line %d: letter %r is reserved for the padding sink"
                                 % (lineno, SINK_STATE))
            letters = tuple(args)
        elif key == "outputs":
            if outputs is not None:
                raise ParseError("line %d: duplicate 'outputs' declaration" % lineno)
            if not args:
                raise ParseError("line %d: 'outputs' needs at least one symbol" % lineno)
            if len(set(args)) != len(args):
                raise ParseError("line %d: duplicate output symbol" % lineno)
            if SINK_OUTPUT in args:
                raise ParseError("line %d: output %r is reserved for the padding sink"
                                 % (lineno, SINK_OUTPUT))
            outputs = tuple(args)
        elif key == "initial":
            if len(args) != 1:
                raise ParseError("line %d: expected 'initial <id>'" % lineno)
            if initial is not None:
                raise ParseError("line %d: duplicate 'initial' declaration" % lineno)
            initial = (args[0], lineno)
        elif key == "rule":
            if len(args) < 3 or args[1] != "->":
                raise ParseError("line %d: expected 'rule <id> -> <id> ...'" % lineno)
            name = args[0]
            if name in rules:
                raise ParseError("line %d: duplicate rule for %r" % (lineno, name))
            rules[name] = (tuple(args[2:]), lineno)
        elif key == "out":
            if len(args) != 2:
                raise ParseError("line %d: expected 'out <id> <sym>'" % lineno)
            if args[0] in outs:
                raise ParseError("line %d: duplicate 'out' for %r" % (lineno, args[0]))
            outs[args[0]] = (args[1], lineno)
        elif key == "pad":
            if len(args) < 2:
                raise ParseError("line %d: expected 'pad <id> <template>'" % lineno)
            if args[0] in pads:
                raise ParseError("line %d: duplicate 'pad' for %r" % (lineno, args[0]))
            tokens = args[1:]
            if len(tokens) == 1 and len(tokens[0]) > 1:
                tokens = list(tokens[0])  # compact form, e.g. "_w_"
            pads[args[0]] = (tuple(tokens), lineno)
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, key))

    if letters is None:
        raise ParseError("missing 'letters' declaration")
    if outputs is None:
        raise ParseError("missing 'outputs' declaration")
    if initial is None:
        raise ParseError("missing 'initial' declaration")

    member = set(letters)
    for name, (img, lineno) in rules.items():
        if name not in member:
            raise ParseError("line %d: rule for undeclared letter %r" % (lineno, name))
        for b in img:
            if b not in member:
                raise ParseError("line %d: rule uses undeclared letter %r" % (lineno, b))
    for a in letters:
        if a not in rules:
            raise ParseError("missing rule for letter %r" % a)
    for name, (sym, lineno) in outs.items():
        if name not in member:
            raise ParseError("line %d: 'out' for undeclared letter %r" % (lineno, name))
        if sym not in outputs:
            raise ParseError("line %d: unknown output token %r" % (lineno, sym))
    for a in letters:
        if a not in outs:
            raise ParseError("missing 'out' line for letter %r" % a)
    init_name, init_line = initial
    if init_name not in member:
        raise ParseError("line %d: unknown letter %r" % (init_line, init_name))

    try:
        s = Substitution(
            alphabet=letters,
            rules=tuple(rules[a][0] for a in letters),
            outputs=outputs,
            projection=tuple(outs[a][0] for a in letters),
            initial=letters.index(init_name),
        )
    except DomainError as e:
        raise ParseError(str(e)) from None

    for name, (tpl, lineno) in pads.items():
        if name not in member:
            raise ParseError("line %d: 'pad' for undeclared letter %r" % (lineno, name))
    templates = list(PaddingSpec.default(s).templates)
    for k, a in enumerate(letters):  # the default templates fit; check the others
        if a in pads:
            tpl, lineno = pads[a]
            try:
                _check_template(a, s.rules[k], tpl, s.q)
            except DomainError as e:
                raise ParseError("line %d: %s" % (lineno, e)) from None
            templates[k] = tpl
    return s, PaddingSpec(tuple(templates))


def emit_substitution(s: Substitution, pad: PaddingSpec | None = None) -> str:
    """Canonical .subst text; pad lines appear only for non-default templates.

    A letter or output that would not read back as itself, or a padding
    that does not fit the rules, is a DomainError.
    """
    _check_tokens(s.alphabet + s.outputs)
    if pad is not None:
        pad.validate(s)
    lines = ["subst v1"]
    lines.append("letters " + " ".join(s.alphabet))
    lines.append("outputs " + " ".join(s.outputs))
    lines.append("initial %s" % s.alphabet[s.initial])
    for a, img in zip(s.alphabet, s.rules):
        lines.append("rule %s -> %s" % (a, " ".join(img)))
    for a, sym in zip(s.alphabet, s.projection):
        lines.append("out %s %s" % (a, sym))
    if pad is not None:
        default = PaddingSpec.default(s).templates
        for a, tpl, dflt in zip(s.alphabet, pad.templates, default):
            if tpl != dflt:
                lines.append("pad %s %s" % (a, "".join(tpl)))
    return "\n".join(lines) + "\n"
