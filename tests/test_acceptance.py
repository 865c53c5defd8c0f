"""End-to-end acceptance checks; each test prints one PASS line when it holds."""

import random
import time

import pytest

from mooredual.cli import run_cli
from mooredual.duality import bidual, dual, dual_with_vectors
from mooredual.equivalence import equivalent, minimize, normal_form
from mooredual.machine import (
    MooreMachine,
    emit_machine,
    parse_machine,
    format_word,
    run_left,
    run_right,
)
from mooredual.substitution import (
    Substitution,
    apply,
    expand_fixed_point,
    fixed_point_lengths,
    letter_at,
    letter_at_constant,
    minimize_substitution,
    parse_substitution,
    psi,
    to_padded_machine,
)

from conftest import (
    DATA,
    dual_via_left_definition,
    dual_via_right_definition,
    fixed_point_by_levels,
    read_data,
    read_golden,
    random_word,
    split_state,
    substitutions_isomorphic,
)


def report(number, description):
    print("criterion %d: PASS - %s" % (number, description))


@pytest.fixture(scope="module")
def fib():
    return parse_substitution(read_data("fib.subst"))[0]


def test_criterion_1_paper_worked_example(paper):
    start = time.monotonic()

    d = dual(paper)
    assert d.n == 4
    expected_dual = MooreMachine(
        states=("t", "u", "v", "w"),
        input_count=2,
        outputs=("0", "1"),
        transition=((1, 2), (1, 1), (3, 0), (3, 3)),
        output_map=("0", "0", "1", "1"),
        initial=0,
    )
    assert emit_machine(normal_form(d)) == emit_machine(normal_form(expected_dual))

    b = bidual(paper)
    assert b.n == 2
    expected_bidual = MooreMachine(
        states=("x", "y"),
        input_count=2,
        outputs=("0", "1"),
        transition=((0, 1), (0, 0)),
        output_map=("0", "1"),
        initial=0,
    )
    assert emit_machine(normal_form(b)) == emit_machine(normal_form(expected_bidual))

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "worked-example dual (4 states) and bidual (2 states) byte-exact")


def test_criterion_2_minimality_cross_check(corpus):
    start = time.monotonic()
    assert len(corpus) >= 1000
    for m in corpus:
        b = bidual(m)
        assert emit_machine(minimize(m)) == emit_machine(normal_form(b))
        assert equivalent(m, b) is True
        assert b.n <= m.n
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, "minimize = normal form of the bidual, byte for byte, on %d machines (%.1fs)"
           % (len(corpus), elapsed))


def test_criterion_3_idempotence_and_uniqueness(corpus):
    for m in corpus:
        b = bidual(m)
        assert normal_form(bidual(b)) == normal_form(b)
    rng = random.Random(321)
    for k in range(0, len(corpus), 5):
        base = corpus[k]
        m1 = split_state(base, rng)
        m2 = split_state(base, rng)
        assert emit_machine(minimize(m1)) == emit_machine(minimize(m2))
    report(3, "bidual idempotent; split variants minimize byte-identically")


def test_criterion_4_dual_construction_coincidence(corpus):
    for m in corpus:
        right = dual_via_right_definition(m)
        assert right == dual_via_left_definition(m)
        assert dual_with_vectors(m) == right  # the library's column-lookup closure
    report(4, "right- and left-dual constructions give identical vector machines")


def test_criterion_5_mirror_law(corpus):
    rng = random.Random(555)
    for k in range(10_000):
        m = corpus[k % len(corpus)]
        w = random_word(rng, m.input_count, max_len=20)
        assert run_left(m, w) == run_right(m, tuple(reversed(w)))
    report(5, "mirror law holds on 10^4 random (machine, word) pairs")


def test_criterion_6_constant_length_digit_indexing():
    start = time.monotonic()
    paper_subst = Substitution(
        ("i", "a", "b"),
        (("i", "a"), ("b", "i"), ("b", "a")),
        ("0", "1"),
        ("0", "1", "0"),
        0,
    )
    thue_morse = Substitution(
        ("0", "1"),
        (("0", "1"), ("1", "0")),
        ("0", "1"),
        ("0", "1"),
        0,
    )
    for s in (paper_subst, thue_morse):
        for a in s.alphabet:
            word = (a,)
            for k in range(8):
                if k:
                    word = apply(s, word)
                for n, expected in enumerate(word):
                    assert letter_at_constant(s, k, a, n) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(6, "digit indexing matches direct expansion for k <= 7 (%.1fs)" % elapsed)


def test_criterion_7_numeration(fib):
    pm = to_padded_machine(fib)
    assert [format_word(psi(pm, n), 2) for n in range(5)] == ["0", "1", "01", "001", "101"]
    assert [letter_at(fib, None, 3, j) for j in range(5)] == ["a", "b", "a", "a", "b"]
    assert "".join(expand_fixed_point(fib, 5)) == "abaab"

    k = 12
    length = fixed_point_lengths(fib, k)[k]
    assert length >= 200
    prefix = fixed_point_by_levels(fib, length)
    for j in range(length):
        assert letter_at(fib, None, k, j) == prefix[j]
    report(7, "rank numeration matches expansion up to %d letters" % length)


def test_criterion_8_substitution_minimization(fib):
    s = Substitution(
        ("i", "a", "b"),
        (("i", "a"), ("b", "i"), ("a", "i")),
        ("0", "1"),
        ("0", "1", "1"),
        0,
    )
    small, _ = minimize_substitution(s)
    assert len(small.alphabet) == 2
    original = expand_fixed_point(s, 10_000, project=True)
    merged = expand_fixed_point(small, 10_000, project=True)
    assert original == merged
    assert "".join(original[:8]) == "01101001"

    fib_small, _ = minimize_substitution(fib)
    assert substitutions_isomorphic(fib, fib_small) is not None
    report(8, "3-letter substitution merges to Thue-Morse; Fibonacci is a fixed point")


def test_criterion_9_cli_contract(capsys):
    example = str(DATA / "example.moore")
    fib_file = str(DATA / "fib.subst")

    def run(*argv):
        code = run_cli(list(argv))
        out = capsys.readouterr()
        return code, out.out

    golden_cases = [
        (("moore", "validate", example), 0, "ok: 3 states, 2 inputs, 2 outputs\n"),
        (("moore", "run", example, "--word", "001"), 0, "1\n"),
        (("moore", "run", example, "--word", "001", "--side", "left"), 0, "0\n"),
        (("moore", "minimize", example), 0, read_golden("moore_minimize_example.txt")),
        (("moore", "dual", example), 0, read_golden("moore_dual_example.txt")),
        (("moore", "normal", example), 0, read_golden("moore_normal_example.txt")),
        (
            ("moore", "product", example, example, "--combine", "pair"),
            0,
            read_golden("moore_product_example_pair.txt"),
        ),
        (("moore", "dot", example), 0, read_golden("moore_dot_example.txt")),
        (("moore", "equiv", example, str(DATA / "example_min.moore")), 0, "equivalent\n"),
        (("moore", "iso", example, str(DATA / "example_min.moore")), 1, "not isomorphic\n"),
        (("subst", "validate", fib_file), 0, "ok: 2 letters, q=2, 2 outputs\n"),
        (("subst", "expand", fib_file, "-n", "5"), 0, "abaab\n"),
        (("subst", "letter", fib_file, "-k", "3", "-n", "4"), 0, "b\n"),
        (("subst", "phi", fib_file, "--word", "101"), 0, "5\n"),
        (("subst", "psi", fib_file, "-n", "4"), 0, "101\n"),
        (("subst", "minimize", fib_file), 0, read_golden("subst_minimize_fib.txt")),
        (("subst", "to-machine", fib_file), 0, read_golden("subst_tomachine_fib.txt")),
    ]
    for argv, want_code, want_out in golden_cases:
        code, out = run(*argv)
        assert (code, out) == (want_code, want_out), argv

    # exit codes 1/2/3 on the documented failure modes
    assert run("moore", "equiv", example, str(DATA / "example_bad.moore"))[0] == 1
    assert run("moore", "validate", str(DATA / "example_missing.moore"))[0] == 2
    assert run("moore", "nosuchcommand")[0] == 2
    assert run("moore", "run", example, "--word", "7")[0] == 3
    assert run("subst", "letter", fib_file, "-k", "3", "-n", "5")[0] == 3

    # emitted machines re-parse losslessly (comments aside, parse/emit is a fixed point)
    for argv in (
        ("moore", "minimize", example),
        ("moore", "dual", example),
        ("subst", "to-machine", fib_file),
    ):
        code, out = run(*argv)
        assert code == 0
        once = emit_machine(parse_machine(out))
        assert emit_machine(parse_machine(once)) == once
        assert parse_machine(once) == parse_machine(out)
    report(9, "CLI golden outputs, exit codes 0/1/2/3, and lossless re-parse")
