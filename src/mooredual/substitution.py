"""Substitutions on free monoids, fixed-point indexing, and their machines."""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import accumulate, islice

from .equivalence import minimize
from .machine import (
    DomainError,
    MooreMachine,
    ParseError,
    _check_int,
    _check_machine,
    _check_names,
    _check_ordered,
    _check_text,
    _check_tokens,
    _declared,
    _machine,
    _numbered,
    _position,
    _read_lines,
    _Value,
    _tuple,
    validate_word,
)

SINK_STATE = "ω"    # absorbing padding state; not usable as a letter
SINK_OUTPUT = "⊥"   # reserved output of the sink; not user-declarable

SLOT = "_"          # padding-template token: receives the next image letter
OMEGA = "w"         # padding-template token: a padding position


class Substitution(_Value):
    """A free-monoid endomorphism with an output projection and a start letter.

    ``rules[k]`` is the image word of ``alphabet[k]``; images are nonempty.
    Letters and outputs are strings.  The constructor copies the sequence
    fields into tuples.
    ``q`` is the longest image length, the input base of the associated
    machine.  Besides ``q``, each instance carries index data that equality,
    hashing and repr ignore: the index of each letter name, the rules as
    letter indices, whether every image has length q, the block table (a
    ``_BlockTable``), built by the first ``letter_at`` or ``letter_at_constant``,
    and the last padding ``letter_at`` checked in full.
    """

    _fields = ("alphabet", "rules", "outputs", "projection", "initial")
    __slots__ = _fields + ("q", "_positions", "_rows", "_constant_length", "_block_table",
                           "_checked_pad")
    alphabet: tuple[str, ...]
    rules: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    projection: tuple[str, ...]
    initial: int

    def __init__(self, alphabet, rules, outputs, projection, initial):
        self._set(_tuple(alphabet, "alphabet"),
                  tuple([_tuple(img, "image") for img in _tuple(rules, "rules")]),
                  _tuple(outputs, "outputs"), _tuple(projection, "projection"), initial)
        n = len(self.alphabet)
        if n < 1:
            raise DomainError("substitution needs at least one letter")
        _check_names(self.alphabet, "letter", "duplicate letters")
        pos = {a: k for k, a in enumerate(self.alphabet)}
        if SINK_STATE in self.alphabet:
            raise DomainError("letter %r is reserved for the padding sink" % SINK_STATE)
        _check_names(self.outputs, "output", "outputs must be nonempty and distinct")
        if not self.outputs:
            raise DomainError("outputs must be nonempty and distinct")
        if SINK_OUTPUT in self.outputs:
            raise DomainError("output %r is reserved for the padding sink" % SINK_OUTPUT)
        if len(self.rules) != n:
            raise DomainError("need one rule per letter")
        for a, img in zip(self.alphabet, self.rules):
            if len(img) < 1:
                raise DomainError("empty image for letter %r" % a)
            _check_names(img, "letter")
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
        object.__setattr__(self, "_positions", pos)
        # _rows[a][i] is the i-th letter of the image of a, as an index
        rows = tuple([tuple([pos[b] for b in img]) for img in self.rules])
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_constant_length", min(map(len, self.rules)) == self.q)
        object.__setattr__(self, "_block_table", None)
        object.__setattr__(self, "_checked_pad", None)

    def _blocks(self):
        """The block table (see ``_BlockTable``), built on first use and
        published in one attribute store, so threads may share it."""
        blocks = self._block_table
        if blocks is None:
            rows = self._rows
            levels = [tuple([(a,) for a in range(len(rows))])]
            built = len(rows)
            while True:
                below = levels[-1]
                built += sum([sum([len(below[b]) for b in row]) for row in rows])
                if built > _BLOCK_LETTERS:
                    break
                levels.append(tuple([tuple([x for b in row for x in below[b]]) for row in rows]))
            names = self.alphabet
            words = tuple([tuple([names[x] for x in word]) for word in levels[-1]])
            start = self.initial
            prefix = []
            if rows[start][0] == start and len(rows[start]) > 1:
                prefix = _fixed_prefix(rows, start, _BLOCK_LETTERS)
            offsets = array("q", accumulate([len(words[b]) for b in prefix], initial=0))
            reach = offsets[-1]
            lengths, limits = [1] * len(rows), [min(1, reach)]
            while limits[-1] < reach:
                lengths = _level_above(rows, lengths)
                limits.append(min(lengths[start], reach))
            width, starts, i = 1, array("H"), 0
            if prefix:
                width = max(min([len(words[b]) for b in set(prefix)]),
                            -(-reach // (2 * _BLOCK_LETTERS)))
                for x in range(0, reach, width):
                    while offsets[i + 1] <= x:
                        i += 1
                    starts.append(i)
                starts.append(len(prefix) - 1)  # the block that holds letter reach - 1
            blocks = _BlockTable(
                t=len(levels) - 1, words=words,
                levels=tuple(levels) if self._constant_length else None,
                letters=tuple([names[x] for x in prefix]), size=len(prefix),
                limits=tuple(limits), depth=len(limits), reach=reach, width=width,
                starts=starts, offsets=offsets, blockwords=tuple([words[x] for x in prefix]))
            object.__setattr__(self, "_block_table", blocks)
        return blocks

    def letter_index(self, a) -> int:
        return _position(a, len(self.alphabet), self._positions.__getitem__, "letter")

    def image(self, a) -> tuple[str, ...]:
        return self.rules[self.letter_index(a)]


class _BlockTable(_Value):
    """A substitution's block table, read by name: each warm query loads only
    the fields of the path it takes.

    ``words[a]`` is sigma^t(a) as letter names, for the deepest t whose
    levels 0..t hold at most _BLOCK_LETTERS letters together (level 0
    always).  For a constant-length substitution, which
    ``letter_at_constant`` reads them for, ``levels[r][a]`` is sigma^r(a) as
    letter indices, for r = 0..t (else levels is None).

    The rest indexes the fixed point, and is empty without one.  ``letters``
    is its first _BLOCK_LETTERS letters, as names, and ``blockwords[i]`` is
    sigma^t(letters[i]), which starts at ``offsets[i]`` (an ``array('q')``);
    the last offset is the ``reach``, below which ``letter_at`` reads the
    table.  ``limits[r]`` is min(|sigma^r(start)|, reach), up to the first r
    whose iterate reaches that far: iterates of a fixed point strictly grow,
    so at most reach + 1 entries ((0,) without a fixed point).  ``size`` and
    ``depth`` are the lengths of letters and limits, kept because a ``len``
    call would cost a warm read a tenth of its time.

    ``starts[b]`` (an ``array('H')``) is the block that holds letter
    min(b * width, reach - 1), for b = 0..ceil(reach / width).  ``width`` is
    the shortest block, raised to ceil(reach / (2 * _BLOCK_LETTERS)) if that
    is longer: so at most 2 * _BLOCK_LETTERS + 1 starts, and while width is
    the shortest block no bucket of width letters spans more than two blocks.
    """

    __slots__ = _fields = ("t", "words", "levels", "letters", "size", "limits", "depth",
                           "reach", "width", "starts", "offsets", "blockwords")

    def __init__(self, t, words, levels, letters, size, limits, depth, reach, width, starts,
                 offsets, blockwords):
        self._set(t, words, levels, letters, size, limits, depth, reach, width, starts,
                  offsets, blockwords)


class PaddingSpec(_Value):
    """Where the padding positions sit in each image brought up to length q.

    One template per letter, tokens SLOT/OMEGA; slots, read left to right,
    receive the letters of the image in order.  The constructor copies the
    templates into tuples and checks that every token is a str; every
    function that takes a padding checks it against its substitution by
    ``validate``, except that ``letter_at`` skips the one the substitution
    remembers (see there).
    """

    __slots__ = _fields = ("templates",)
    templates: tuple[tuple[str, ...], ...]

    def __init__(self, templates):
        self._set(tuple([_tuple(tpl, "template") for tpl in _tuple(templates, "templates")]))
        for tpl in self.templates:
            _check_names(tpl, "template token")

    @classmethod
    def default(cls, s: Substitution) -> "PaddingSpec":
        """Trailing padding: image letters first, padding after."""
        return cls([[SLOT] * len(img) + [OMEGA] * (s.q - len(img)) for img in s.rules])

    def validate(self, s: Substitution):
        """Raise DomainError unless every template pads its letter's image to length q."""
        if len(self.templates) != len(s.alphabet):
            raise DomainError("need one padding template per letter")
        for a, img, tpl in zip(s.alphabet, s.rules, self.templates):
            _check_template(a, img, tpl, s.q)


def _check_padding(pad, s: Substitution):
    """Raise DomainError unless pad is a PaddingSpec that ``validate`` passes for s."""
    if not isinstance(pad, PaddingSpec):
        raise DomainError("expected a PaddingSpec, not %r" % (pad,))
    pad.validate(s)


def _check_template(a, img, tpl, q: int):
    """Raise DomainError unless tpl pads the image img of letter a to length q."""
    if len(tpl) != q:
        raise DomainError("template for %r must have length %d" % (a, q))
    slots = tpl.count(SLOT)
    if slots + tpl.count(OMEGA) != q:
        tok = next(tok for tok in tpl if tok not in (SLOT, OMEGA))
        raise DomainError("bad template token %r for %r" % (tok, a))
    if slots != len(img):
        raise DomainError("template for %r must have exactly %d slots" % (a, len(img)))


class PaddedMachine(_Value):
    """The machine of a substitution over its alphabet plus an absorbing sink,
    whose state index is ``sink``."""

    __slots__ = _fields = ("machine", "sink")
    machine: MooreMachine
    sink: int

    def __init__(self, machine, sink):
        _check_machine(machine)
        _check_int(sink, "sink")
        self._set(machine, machine.state_index(sink))


# --- letter words -----------------------------------------------------------

def parse_letters(s: Substitution, text: str) -> tuple[str, ...]:
    """Parse a letter-word literal.

    Tokens separated by commas or any whitespace; one token alone is read
    as bare concatenation when every letter is a single character.
    """
    _check_text(text)
    letters = text.replace(",", " ").split()
    if len(letters) == 1 and all(len(a) == 1 for a in s.alphabet):
        letters = letters[0]
    for a in letters:
        s.letter_index(a)
    return tuple(letters)


def format_letters(s: Substitution, letters) -> str:
    """The literal parse_letters reads back as the word of letter names."""
    letters = _tuple(letters, "word")
    for a in letters:
        if not isinstance(a, str) or a not in s._positions:
            raise DomainError("unknown letter %r" % (a,))
    if all(len(a) == 1 for a in s.alphabet):
        return "".join(letters)
    return " ".join(letters)


def apply(s: Substitution, letters):
    """Image of a word: concatenation of the letter images."""
    if isinstance(letters, str):
        letters = parse_letters(s, letters)
    out = []
    for a in _tuple(letters, "word"):
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
    """First n letters of the limit word.

    The fixed point is the image of itself, so it is read off as it is
    written, one image per letter: O(n).  With project=True the output
    projection is applied letter by letter.
    """
    check_fixed_point(s)
    _check_ordered(n, "prefix length")
    if n < 0:
        raise DomainError("negative prefix length")
    _check_int(n, "prefix length")
    if n > sys.maxsize:  # no tuple holds that many letters
        raise DomainError("prefix length %d too long" % n)
    names = s.projection if project else s.alphabet
    return tuple([names[x] for x in _fixed_prefix(s._rows, s.initial, n)])


def _fixed_prefix(rows, start, n: int) -> list:
    """The first n letters of the fixed point at start, as letter indices;
    rows[start] must start with start and have at least two letters.  The
    fixed point is the image of itself, so it is read off as it is written."""
    word = list(rows[start])
    i = 1
    while len(word) < n:
        word += rows[word[i]]
        i += 1
    del word[n:]
    return word


# --- machines from substitutions ---------------------------------------------

def to_padded_machine(s: Substitution, pad: PaddingSpec | None = None) -> PaddedMachine:
    """Machine over the alphabet plus sink; digit j of a padded image drives delta.

    For a constant-length substitution the sink is unreachable from the
    letters, and the machine restricted to them is the exact digit machine.
    The machine is built without MooreMachine's checks: the substitution's
    and the padding's have made them all, as the sink's names are reserved.
    """
    if pad is None:
        pad = PaddingSpec.default(s)
    _check_padding(pad, s)
    q = s.q
    n = len(s.alphabet)
    rows = [
        tuple(n if tok == OMEGA else next(img) for tok in tpl)
        for img, tpl in zip(map(iter, s._rows), pad.templates)
    ]
    rows.append((n,) * q)  # the sink absorbs every digit
    machine = _machine(s.alphabet + (SINK_STATE,), q, s.outputs + (SINK_OUTPUT,), tuple(rows),
                       s.projection + (SINK_OUTPUT,), s.initial, None)
    return PaddedMachine(machine, n)


def is_constant_length(s: Substitution) -> bool:
    return s._constant_length


def letter_at_constant(s: Substitution, k: int, a, n: int):
    """Letter n of the k-th image of letter a, via digit indexing (no expansion).

    The letter is found in O(1), in the substitution's dict of names.  For
    ints 0 <= k <= 2t, t the depth of the block table, a warm query is
    one read of sigma^k(a) for k <= t, else two: the top k - t base-q digits
    of n index sigma^(k-t)(a), and the last t sigma^t of the letter there.
    Past 2t it takes ``letter_at``'s count and descent from a_(k-d), where
    a_0 = a, a_(i+1) is the first letter of sigma(a_i) and d = max(t, digits
    of n): sigma^k(a) begins with sigma^d(a_(k-d)).  The a_i cycle within
    |A| steps, so a huge k costs no more: O(d * |A| * q).
    """
    if not s._constant_length:
        raise DomainError("substitution is not constant-length")
    state = s._positions.get(a) if a.__class__ is str else None
    if state is None:  # a letter index, or no letter
        state = s.letter_index(a)
    blocks = s._block_table or s._blocks()
    t = blocks.t
    if k.__class__ is int is n.__class__ and 0 <= k <= t + t and 0 <= n:
        if k <= t:
            image = blocks.levels[k][state]
            if n < len(image):
                return s.alphabet[image[n]]
        else:
            words = blocks.words
            size = len(words[0])  # every sigma^t(b) has q**t letters
            hi = n // size
            image = blocks.levels[k - t][state]
            if hi < len(image):
                return words[image[hi]][n - hi * size]
    q = s.q
    if k.__class__ is not int or n.__class__ is not int:
        _check_ordered(k, "step")
        _check_ordered(n, "index")
        if not (k < 0 or n < 0):  # a negative k or n is out of range first, nan is not
            _check_int(k, "step")
            _check_int(n, "index")
    # n < q**k; for q > 1 an n below 2**k needs no power
    if k < 0 or n < 0 or (n >> k or q == 1) and n >= q ** min(k, n.bit_length()):
        raise DomainError("index %d out of range for step %d" % (n, k))
    if k <= t + t:  # a bool or another int subclass: the table answers
        return letter_at_constant(s, int(k), state, int(n))
    words = blocks.words
    rows, size, steps = s._rows, len(words[0]), k - t  # size = q**d, steps = k - d
    while size <= n:  # d from t up to the number of base-q digits of n
        size *= q
        steps -= 1
    seen = []  # a_0, a_1, ... until one repeats
    while steps and state not in seen:
        seen.append(state)
        state = rows[state][0]
        steps -= 1
    if steps:
        cycle = seen[seen.index(state):]
        state = cycle[steps % len(cycle)]
    _, state, rank = _unrank(rows, state, n, stop=t)
    return words[state][rank]


# --- digit-word numeration ----------------------------------------------------

def phi(word, q: int) -> int:
    """Weighted digit sum of a nonempty word (least significant digit first)."""
    _check_int(q, "base")
    word = validate_word(word, q)
    if not word:
        raise DomainError("the digit sum is undefined on the empty word")
    return _word_value(word, q)


def _word_value(word, q: int) -> int:
    """The value of a digit word, least significant digit first: Horner's
    rule on at most 64 digits, and above that the low half's value plus the
    high half's times q to the length of the low half.  Horner's rule alone
    takes big-int work quadratic in the length of the word."""
    if len(word) > 64:
        half = len(word) // 2
        return _word_value(word[:half], q) + _word_value(word[half:], q) * q ** half
    total = 0
    for d in reversed(word):
        total = total * q + d
    return total


_KEPT_LEVELS = 4096  # count levels kept whole before keeping only some
_BLOCK_LETTERS = 4096  # letters a block table may build, over all its levels
# (below 2**16: the bucket index holds block numbers in an array('H'))


def _unrank(rows, start, rank, limit: int | None = None, sink: int | None = None,
            digits: list | None = None, stop: int = 0):
    """Unrank by count and descent (Dumont-Thomas numeration): the one
    descent of ``psi``, ``letter_at`` and ``letter_at_constant`` past step 2t.

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
    if not isinstance(pm, PaddedMachine):
        raise DomainError("expected a PaddedMachine, not %r" % (pm,))
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
    """Lengths of the first k+1 iterates of the start letter.  k is checked
    as ``expand_fixed_point`` checks its length."""
    _check_ordered(k, "iteration count")
    if k < 0:
        raise DomainError("negative iteration count")
    _check_int(k, "iteration count")
    if k > sys.maxsize:  # no list holds that many lengths
        raise DomainError("iteration count %d too large" % k)
    level, lengths = [1] * len(s.alphabet), [1]
    for _ in range(k):
        level = _level_above(s._rows, level)
        lengths.append(level[s.initial])
    return lengths


def letter_at(s: Substitution, pad: PaddingSpec | None, k: int, j: int):
    """Letter j of the k-th iterate of the start letter, via the numeration.

    Every iterate is a prefix of the fixed point, so below the reach of the
    block table an index inside the k-th iterate (by the table's limits) is
    read from the table without a search: one index into its prefix, or
    past the prefix the block of bucket j // width, at most one step to the
    next block, and one index into that block.  Only a table whose width
    had to be raised past its shortest block may need more steps; it
    bisects the offsets within the bucket instead.  Otherwise it is the
    letter the padded machine reaches on psi(j), found on the rule
    rows: padding adds only sink entries, which count no words.  The count
    stops at the first iterate longer than j, or at k, and the descent ends
    at the depth t of the block table, in a read of sigma^t of the letter
    reached: O(min(k, log j) * |A| * q) when the iterates grow
    exponentially.

    The table is read first, when k and j are ints (not a subclass) that
    put j inside the k-th iterate and below the reach; no check can fail
    there, since only a fixed point gives the table a reach.  The descent
    checks the fixed point, that k and j compare with 0, their signs, then
    that both are ints (a bool is one).
    A padding is checked in full, and that digit 0 fixes the start letter,
    unless it is the one the substitution remembers: the last that passed.
    """
    blocks = s._block_table or s._blocks()
    if j.__class__ is int is k.__class__ and 0 <= k and 0 <= j < (
            blocks.limits[k] if k < blocks.depth else blocks.reach):
        if j < blocks.size:
            letter = blocks.letters[j]
        else:
            width, offsets = blocks.width, blocks.offsets
            i = blocks.starts[j // width]
            if offsets[i + 1] <= j:
                i += 1
                if offsets[i + 1] <= j:  # only when width is longer than a block
                    i = bisect_right(offsets, j, i + 1, blocks.starts[j // width + 1] + 1) - 1
            letter = blocks.blockwords[i][j - offsets[i]]
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
        length, state, rank = _unrank(s._rows, s.initial, j, limit=k, stop=blocks.t)
        if state is None:
            raise DomainError("index %d out of range for step %d (length %d)" % (j, k, length))
        letter = blocks.words[state][rank]
    if pad is not s._checked_pad and pad is not None:
        _check_padding(pad, s)
        if pad.templates[s.initial][0] != SLOT:
            raise DomainError("numeration needs digit 0 to fix the initial letter")
        object.__setattr__(s, "_checked_pad", pad)
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
    result = Substitution(
        alphabet=[names[c] for c in live],
        rules=[[names[t] for t in b.transition[c] if t != sink_class] for c in live],
        outputs=s.outputs,
        projection=[b.output_map[c] for c in live],
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

    Letters without a 'pad' line get the default trailing padding.  The
    lines are read as ``parse_machine`` reads them, by the same line reader:
    one pass over their tokens keeps each directive's tokens, and a line is
    numbered, by the position of its tokens, only when an error names it.
    Errors come in a fixed order: the first malformed line, a missing
    declaration, the first bad rule, a missing rule, the first bad 'out'
    line, a missing one, an unknown initial letter, a 'pad' line for an
    undeclared letter, then the templates in letter order.
    """
    tokens, lines = _read_lines(text, "subst v1")

    letters = None
    outputs = None
    initial = None     # the tokens of the 'initial' line
    rules = {}         # the tokens of each letter's 'rule', 'out' and 'pad' line
    outs = {}
    pads = {}

    for toks in lines:
        key, args = toks[0], toks[1:]
        if key == "letters":
            letters = _declared(toks, letters, tokens, "at least one id", "letter")
            if SINK_STATE in letters:
                raise _numbered("letter %r is reserved for the padding sink" % SINK_STATE,
                                tokens, toks)
        elif key == "outputs":
            outputs = _declared(toks, outputs, tokens, "at least one symbol", "output symbol")
            if SINK_OUTPUT in outputs:
                raise _numbered("output %r is reserved for the padding sink" % SINK_OUTPUT,
                                tokens, toks)
        elif key == "initial":
            if len(args) != 1:
                raise _numbered("expected 'initial <id>'", tokens, toks)
            if initial is not None:
                raise _numbered("duplicate 'initial' declaration", tokens, toks)
            initial = toks
        elif key == "rule":
            if len(args) < 3 or args[1] != "->":
                raise _numbered("expected 'rule <id> -> <id> ...'", tokens, toks)
            if args[0] in rules:
                raise _numbered("duplicate rule for %r" % args[0], tokens, toks)
            rules[args[0]] = toks
        elif key == "out":
            if len(args) != 2:
                raise _numbered("expected 'out <id> <sym>'", tokens, toks)
            if args[0] in outs:
                raise _numbered("duplicate 'out' for %r" % args[0], tokens, toks)
            outs[args[0]] = toks
        elif key == "pad":
            if len(args) < 2:
                raise _numbered("expected 'pad <id> <template>'", tokens, toks)
            if args[0] in pads:
                raise _numbered("duplicate 'pad' for %r" % args[0], tokens, toks)
            pads[args[0]] = toks
        else:
            raise _numbered("unknown directive %r" % key, tokens, toks)

    if letters is None:
        raise ParseError("missing 'letters' declaration")
    if outputs is None:
        raise ParseError("missing 'outputs' declaration")
    if initial is None:
        raise ParseError("missing 'initial' declaration")

    member = set(letters)
    for name, toks in rules.items():
        if name not in member:
            raise _numbered("rule for undeclared letter %r" % name, tokens, toks)
        for b in toks[3:]:
            if b not in member:
                raise _numbered("rule uses undeclared letter %r" % b, tokens, toks)
    for a in letters:
        if a not in rules:
            raise ParseError("missing rule for letter %r" % a)
    for name, toks in outs.items():
        if name not in member:
            raise _numbered("'out' for undeclared letter %r" % name, tokens, toks)
        if toks[2] not in outputs:
            raise _numbered("unknown output token %r" % toks[2], tokens, toks)
    for a in letters:
        if a not in outs:
            raise ParseError("missing 'out' line for letter %r" % a)
    if initial[1] not in member:
        raise _numbered("unknown letter %r" % initial[1], tokens, initial)

    s = Substitution(letters, [rules[a][3:] for a in letters], outputs,
                     [outs[a][2] for a in letters], letters.index(initial[1]))
    for name, toks in pads.items():
        if name not in member:
            raise _numbered("'pad' for undeclared letter %r" % name, tokens, toks)
    templates = list(PaddingSpec.default(s).templates)
    for k, a in enumerate(letters):  # the default templates fit; check the others
        if a in pads:
            tpl = pads[a][2:]
            if len(tpl) == 1 and len(tpl[0]) > 1:
                tpl = tpl[0]  # compact form, e.g. "_w_"
            try:
                _check_template(a, s.rules[k], tpl, s.q)
            except DomainError as e:
                raise _numbered(str(e), tokens, pads[a]) from None
            templates[k] = tpl
    return s, PaddingSpec(templates)


def emit_substitution(s: Substitution, pad: PaddingSpec | None = None) -> str:
    """Canonical .subst text; pad lines appear only for non-default templates.

    A letter or output that would not read back as itself, or a padding
    that does not fit the rules, is a DomainError.
    """
    _check_tokens(s.alphabet + s.outputs)
    if pad is not None:
        _check_padding(pad, s)
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
