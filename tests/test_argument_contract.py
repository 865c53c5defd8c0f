"""The argument contracts outside the parsers: every DomainError branch of the
MooreMachine, Substitution, Counterexample, PaddingSpec and PaddedMachine
constructors, of the padding and text-layer checks and of the integer checks
of fixed_point_lengths and validate_word, each with its exact message, as test_parse_contract.py
pins the parsers' ParseErrors; and the two CLI paths no other test takes."""

import math
import sys

import pytest

from mooredual.cli import run_cli
from mooredual.machine import (Counterexample, DomainError, MooreMachine, emit_machine,
                               parse_machine, parse_word, validate_word)
from mooredual.substitution import (PaddedMachine, PaddingSpec, Substitution,
                                    fixed_point_lengths, format_letters, parse_letters,
                                    parse_substitution, psi, to_padded_machine)

MACHINE = dict(states=("a", "b"), input_count=2, outputs=("0", "1"),
               transition=((1, 0), (0, 1)), output_map=("0", "1"), initial=0,
               input_names=("x", "y"))
SUBST = dict(alphabet=("a", "b"), rules=(("a", "b"), ("a",)), outputs=("0", "1"),
             projection=("0", "1"), initial=0)

# (fields changed from MACHINE, the exact DomainError message)
MACHINE_ERRORS = [
    ({"states": ()}, "machine needs at least one state"),
    ({"input_count": 0}, "machine needs at least one input symbol"),
    ({"states": ("a", "a")}, "duplicate state identifiers"),
    ({"outputs": ()}, "empty output alphabet"),
    ({"outputs": ("0", "1", "0")}, "duplicate output symbols"),
    ({"transition": ((1, 0),)}, "transition table must be 2 x 2"),
    ({"transition": ((1, 0), (0,))}, "transition table must be 2 x 2"),
    ({"transition": ((1, 0), (0, 2))}, "transition target 2 out of range"),
    ({"transition": ((1, 0), (-1, 1))}, "transition target -1 out of range"),
    ({"output_map": ("0",)}, "output map must cover every state"),
    ({"output_map": ("0", "2")}, "output '2' not declared"),
    ({"initial": 2}, "initial state out of range"),
    ({"input_names": ("x",)}, "expected 2 input names"),
    ({"transition": ((1, 0), 5)}, "transition row must be iterable, not 5"),
    # a name is a str
    ({"states": (["a"], "b")}, "state must be a str, not ['a']"),
    ({"states": (1, 2)}, "state must be a str, not 1"),
    ({"outputs": ("0", {"1"})}, "output must be a str, not {'1'}"),
    ({"outputs": ("0", 1)}, "output must be a str, not 1"),
    ({"input_names": ("x", ["y"])}, "input name must be a str, not ['y']"),
    ({"input_names": ("x", b"y")}, "input name must be a str, not b'y'"),
]


@pytest.mark.parametrize("changes, message", MACHINE_ERRORS)
def test_machine_constructor_messages(changes, message):
    with pytest.raises(DomainError) as err:
        MooreMachine(**dict(MACHINE, **changes))
    assert str(err.value) == message


# (fields changed from SUBST, the exact DomainError message)
SUBST_ERRORS = [
    ({"alphabet": ()}, "substitution needs at least one letter"),
    ({"alphabet": ("a", "a")}, "duplicate letters"),
    ({"alphabet": ("a", "ω")}, "letter 'ω' is reserved for the padding sink"),
    ({"outputs": ()}, "outputs must be nonempty and distinct"),
    ({"outputs": ("0", "0")}, "outputs must be nonempty and distinct"),
    ({"outputs": ("0", "⊥")}, "output '⊥' is reserved for the padding sink"),
    ({"rules": (("a", "b"),)}, "need one rule per letter"),
    ({"rules": (("a", "b"), ())}, "empty image for letter 'b'"),
    ({"rules": (("a", "c"), ("a",))}, "rule for 'a' uses unknown letter 'c'"),
    ({"projection": ("0",)}, "projection must cover every letter"),
    ({"projection": ("0", "2")}, "projection value '2' not declared"),
    ({"initial": 2}, "initial letter out of range"),
    ({"rules": (("a", "b"), 5)}, "image must be iterable, not 5"),
    # a name is a str
    ({"alphabet": ("a", ["b"])}, "letter must be a str, not ['b']"),
    ({"alphabet": (1, 2)}, "letter must be a str, not 1"),
    ({"outputs": (["0"], "1")}, "output must be a str, not ['0']"),
    ({"outputs": ("0", 1)}, "output must be a str, not 1"),
    ({"rules": (("a", ["b"]), ("a",))}, "letter must be a str, not ['b']"),
    ({"rules": (("a", 1), ("a",))}, "letter must be a str, not 1"),
]


@pytest.mark.parametrize("changes, message", SUBST_ERRORS)
def test_substitution_constructor_messages(changes, message):
    with pytest.raises(DomainError) as err:
        Substitution(**dict(SUBST, **changes))
    assert str(err.value) == message


@pytest.mark.parametrize("fields, message", [
    (((0,), "1", "1"), "not a counterexample: outputs agree"),
    (((0,), 1, "1"), "output must be a str, not 1"),
    (((0,), "0", ["1"]), "output must be a str, not ['1']"),
    (((0, [1]), "0", "1"), "input symbol must be an integer, not [1]"),
    (((0, "1"), "0", "1"), "input symbol must be an integer, not '1'"),
])
def test_counterexample_constructor_messages(fields, message):
    with pytest.raises(DomainError) as err:
        Counterexample(*fields)
    assert str(err.value) == message


def test_counterexample_copies_its_word():
    c = Counterexample([0, 1], "0", "1")
    assert c.word == (0, 1)
    assert hash(c) == hash(Counterexample((0, 1), "0", "1"))
    with pytest.raises(DomainError) as err:
        Counterexample(None, "0", "1")
    assert str(err.value) == "word must be iterable, not None"


# (padding, the exact DomainError message of to_padded_machine on SUBST)
PADDING_ERRORS = [
    (5, "expected a PaddingSpec, not 5"),
    ((("_", "_"), ("_", "w")), "expected a PaddingSpec, not (('_', '_'), ('_', 'w'))"),
    (PaddingSpec((("_", "_"),)), "need one padding template per letter"),
]


@pytest.mark.parametrize("pad, message", PADDING_ERRORS)
def test_padding_messages(pad, message):
    with pytest.raises(DomainError) as err:
        to_padded_machine(Substitution(**SUBST), pad)
    assert str(err.value) == message


# (templates, the exact DomainError message of the PaddingSpec constructor)
PADDING_SPEC_ERRORS = [
    (None, "templates must be iterable, not None"),
    (5, "templates must be iterable, not 5"),
    ((("_", "_"), None), "template must be iterable, not None"),
    ((5, 5), "template must be iterable, not 5"),
    ((("_", "_"), ("_", [])), "template token must be a str, not []"),
    ((("_", "_"), ("_", 0)), "template token must be a str, not 0"),
]


@pytest.mark.parametrize("templates, message", PADDING_SPEC_ERRORS)
def test_padding_spec_constructor_messages(templates, message):
    with pytest.raises(DomainError) as err:
        PaddingSpec(templates)
    assert str(err.value) == message


# (machine, sink, the exact DomainError message of the PaddedMachine constructor)
PADDED_MACHINE_ERRORS = [
    (None, 0, "expected a MooreMachine, not None"),
    (MooreMachine(**MACHINE), None, "sink must be an integer, not None"),
    (MooreMachine(**MACHINE), "b", "sink must be an integer, not 'b'"),
    (MooreMachine(**MACHINE), 2, "state index 2 out of range"),
    (MooreMachine(**MACHINE), -1, "state index -1 out of range"),
]


@pytest.mark.parametrize("machine, sink, message", PADDED_MACHINE_ERRORS)
def test_padded_machine_constructor_messages(machine, sink, message):
    with pytest.raises(DomainError) as err:
        PaddedMachine(machine, sink)
    assert str(err.value) == message


@pytest.mark.parametrize("pm", [5, None, MooreMachine(**MACHINE)])
def test_psi_takes_a_padded_machine(pm):
    with pytest.raises(DomainError) as err:
        psi(pm, 0)
    assert str(err.value) == "expected a PaddedMachine, not %r" % (pm,)


# (call, the exact DomainError message)
TEXT_ERRORS = [
    (lambda: parse_machine(None), "text must be a str, not NoneType"),
    (lambda: parse_machine(b"moore v1\n"), "text must be a str, not bytes"),
    (lambda: parse_substitution(None), "text must be a str, not NoneType"),
    (lambda: parse_substitution(b"subst v1\n"), "text must be a str, not bytes"),
    (lambda: parse_word(None, 2), "text must be a str, not NoneType"),
    (lambda: parse_word(b"01", 2), "text must be a str, not bytes"),
    (lambda: parse_letters(Substitution(**SUBST), None), "text must be a str, not NoneType"),
    (lambda: parse_letters(Substitution(**SUBST), b"ab"), "text must be a str, not bytes"),
    (lambda: emit_machine(MooreMachine(**MACHINE), vectors=[("0",)]),
     "expected 2 vectors, one per state, not 1"),
    (lambda: emit_machine(MooreMachine(**MACHINE), vectors=[("0",)] * 3),
     "expected 2 vectors, one per state, not 3"),
    (lambda: emit_machine(MooreMachine(**MACHINE), vectors=5),
     "vectors must be iterable, not 5"),
    (lambda: emit_machine(MooreMachine(**MACHINE), vectors=[5, 5, 5]),
     "vector must be iterable, not 5"),
    (lambda: emit_machine(MooreMachine(**MACHINE), vectors=[("0",), (1,)]),
     "vector entry must be a str, not 1"),
    # a vector entry that would write a line of its own
    (lambda: emit_machine(MooreMachine(**MACHINE), vectors=[("0",), ("0\nstate x 1",)]),
     "name '0\\nstate x 1' would not read back as one token"),
    (lambda: format_letters(Substitution(**SUBST), 5), "word must be iterable, not 5"),
    (lambda: format_letters(Substitution(**SUBST), [1]), "unknown letter 1"),
    (lambda: format_letters(Substitution(**SUBST), ["a", "c"]), "unknown letter 'c'"),
    (lambda: format_letters(Substitution(**SUBST), ["a", ["b"]]), "unknown letter ['b']"),
    # an iteration count is checked as a prefix length is, and an input count
    # as parse_word checks it
    (lambda: fixed_point_lengths(Substitution(**SUBST), 1.5),
     "iteration count must be an integer, not 1.5"),
    (lambda: fixed_point_lengths(Substitution(**SUBST), None),
     "iteration count must be an integer, not None"),
    (lambda: fixed_point_lengths(Substitution(**SUBST), -1), "negative iteration count"),
    (lambda: fixed_point_lengths(Substitution(**SUBST), 10 ** 30),
     "iteration count %d too large" % 10 ** 30),
    (lambda: fixed_point_lengths(Substitution(**SUBST), sys.maxsize + 1),
     "iteration count %d too large" % (sys.maxsize + 1)),
    (lambda: validate_word((0,), None), "input count must be an integer, not None"),
    (lambda: validate_word((0,), 1.5), "input count must be an integer, not 1.5"),
    (lambda: validate_word((0,), math.inf), "input count must be an integer, not inf"),
    (lambda: validate_word("0", "2"), "input count must be an integer, not '2'"),
]


@pytest.mark.parametrize("call, message", TEXT_ERRORS)
def test_text_layer_messages(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_emitted_vectors_read_back():
    # vectors of lists, or of no entries, are comments like any other
    m = MooreMachine(**MACHINE)
    for vectors in ([["0", "1"], ["1", "1"]], [(), ()]):
        assert parse_machine(emit_machine(m, vectors=vectors)) == m


def test_run_cli_without_a_tool_is_a_usage_error(capsys):
    assert run_cli([]) == 2
    assert capsys.readouterr() == ("", "usage: moore|subst <command> ...\n")


def test_subst_expand_separates_multi_character_letters(tmp_path, capsys):
    path = tmp_path / "long.subst"
    path.write_text("subst v1\nletters aa b\noutputs 0 1\ninitial aa\nrule aa -> aa b\n"
                    "rule b -> aa\nout aa 0\nout b 1\n", encoding="utf-8")
    assert run_cli(["subst", "expand", str(path), "-n", "5"]) == 0
    assert capsys.readouterr() == ("aa b aa aa b\n", "")
