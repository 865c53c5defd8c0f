"""The operations the benchmark times, as calls to mooredual's public functions.

With ``tr`` None each operation makes the plain user-level calls.  With a
Tracer it calls the documented stages one by one (``minimize`` as trim, dual,
dual of that, normal form; ``letter_at`` as padded machine, psi, left action)
and records a span around each stage and the sizes in between.  A stage or
size that the plain call does not compute is traced as an ``extra`` span, so
that it is left out of the tracing overhead.
"""

from __future__ import annotations

from mooredual import (
    DomainError,
    dual,
    emit_machine,
    emit_substitution,
    equivalent,
    left_action,
    letter_at,
    letter_at_constant,
    minimize,
    minimize_substitution,
    normal_form,
    parse_machine,
    parse_substitution,
    phi,
    product,
    psi,
    to_padded_machine,
    trim,
)
from mooredual.substitution import check_fixed_point, fixed_point_lengths


def _parse(tr, text):
    with tr.span("machine.parse_machine"):
        m = parse_machine(text)
    tr.size("machine.parse_machine.bytes", len(text))
    tr.size("machine.states_in", m.n)
    return m


def minimize_text(tr, text):
    """.moore text -> parse_machine -> minimize -> emit_machine."""
    if tr is None:
        return emit_machine(minimize(parse_machine(text)))
    m = _parse(tr, text)
    # dual trims its input itself; the separate trim is its own stage, and
    # its result is freed inside the span.
    with tr.span("machine.trim", extra=True):
        tr.size("machine.trim.states", trim(m).n)
    with tr.span("equivalence.minimize"):
        with tr.span("duality.dual"):
            d1 = dual(m)
        with tr.span("duality.dual2"):
            d2 = dual(d1)
        with tr.span("equivalence.normal_form"):
            result = normal_form(d2)
    tr.size("duality.dual.states", d1.n)
    tr.size("duality.dual.states_max", d1.n)
    tr.size("duality.bidual.states", d2.n)
    with tr.span("machine.emit_machine"):
        return emit_machine(result)


def normal_text(tr, text):
    """.moore text -> parse_machine -> normal_form -> emit_machine."""
    if tr is None:
        return emit_machine(normal_form(parse_machine(text)))
    m = _parse(tr, text)
    with tr.span("equivalence.normal_form"):
        nf = normal_form(m)
    tr.size("machine.trim.states", nf.n)
    with tr.span("machine.emit_machine"):
        return emit_machine(nf)


def equivalent_texts(tr, text1, text2):
    """Parse two machines and compare them; the traced run also builds their product."""
    if tr is None:
        return equivalent(parse_machine(text1), parse_machine(text2))
    m1, m2 = _parse(tr, text1), _parse(tr, text2)
    with tr.span("equivalence.equivalent"):
        verdict = equivalent(m1, m2)
    # equivalent searches the product without building it.
    with tr.span("equivalence.product", extra=True):
        tr.size("equivalence.product.states", product(m1, m2).n)
    return verdict


def parse_subst(tr, text):
    if tr is None:
        return parse_substitution(text)
    with tr.span("substitution.parse_substitution"):
        return parse_substitution(text)


def letter(tr, s, pad, k, j):
    """Letter j of the k-th iterate of the start letter."""
    if tr is None:
        return letter_at(s, pad, k, j)
    with tr.span("substitution.letter_at"):
        check_fixed_point(s)
        length = fixed_point_lengths(s, k)[k]
        if not 0 <= j < length:
            raise DomainError("index %d out of range for step %d (length %d)" % (j, k, length))
        with tr.span("substitution.to_padded_machine"):
            pm = to_padded_machine(s, pad)
        word = numeral(tr, pm, j)
        with tr.span("machine.left_action"):
            state = left_action(pm.machine, word, pm.machine.initial)
    tr.size("substitution.iterate_length", length)
    return s.alphabet[state]


def numeral(tr, pm, j):
    """psi(pm, j), recording the rank and how many numerals a sweep to it scans."""
    if tr is None:
        return psi(pm, j)
    with tr.span("substitution.psi"):
        word = psi(pm, j)
    tr.size("substitution.psi.rank", j)
    with tr.span("substitution.phi", extra=True):
        candidates = phi(word, pm.machine.input_count) + 1
    tr.size("substitution.psi.candidates", candidates)
    return word


def letter_constant(tr, s, k, a, j):
    """Letter j of the k-th image of letter a, by constant-length digit indexing."""
    if tr is None:
        return letter_at_constant(s, k, a, j)
    with tr.span("substitution.letter_at_constant"):
        return letter_at_constant(s, k, a, j)


def minimize_subst(tr, s, pad):
    """minimize_substitution, rendered as `subst minimize` prints it."""
    if tr is None:
        small, note = minimize_substitution(s, pad)
    else:
        with tr.span("substitution.minimize_substitution"):
            small, note = minimize_substitution(s, pad)
    return "# %s\n%s" % (note, emit_substitution(small))
