"""The argument contracts outside the parsers: every DomainError branch of the
MooreMachine, Substitution and Counterexample constructors and of the padding
and text-layer checks, each with its exact message, as test_parse_contract.py
pins the parsers' ParseErrors; and the two CLI paths no other test takes."""

import pytest

from mooredual.cli import run_cli
from mooredual.machine import (Counterexample, DomainError, MooreMachine, emit_machine,
                               parse_machine, parse_word)
from mooredual.substitution import (PaddingSpec, Substitution, parse_letters,
                                    parse_substitution, to_padded_machine)

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
    # a name is looked up by its hash
    ({"states": (["a"], "b")}, "state ['a'] is not hashable"),
    ({"outputs": ("0", {"1"})}, "output {'1'} is not hashable"),
    ({"input_names": ("x", ["y"])}, "input name ['y'] is not hashable"),
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
    # a name is looked up by its hash
    ({"alphabet": ("a", ["b"])}, "letter ['b'] is not hashable"),
    ({"outputs": (["0"], "1")}, "output ['0'] is not hashable"),
    ({"rules": (("a", ["b"]), ("a",))}, "letter ['b'] is not hashable"),
]


@pytest.mark.parametrize("changes, message", SUBST_ERRORS)
def test_substitution_constructor_messages(changes, message):
    with pytest.raises(DomainError) as err:
        Substitution(**dict(SUBST, **changes))
    assert str(err.value) == message


def test_counterexample_outputs_must_differ():
    with pytest.raises(DomainError) as err:
        Counterexample((0,), "1", "1")
    assert str(err.value) == "not a counterexample: outputs agree"


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
    (PaddingSpec(None), "padding templates must be a sequence, not None"),
    (PaddingSpec((("_", "_"), None)), "template for 'b' must be a sequence, not None"),
    (PaddingSpec((("_", "_"), {"_": "w"})),
     "template for 'b' must be a sequence, not {'_': 'w'}"),
]


@pytest.mark.parametrize("pad, message", PADDING_ERRORS)
def test_padding_messages(pad, message):
    with pytest.raises(DomainError) as err:
        to_padded_machine(Substitution(**SUBST), pad)
    assert str(err.value) == message


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
]


@pytest.mark.parametrize("call, message", TEXT_ERRORS)
def test_text_layer_messages(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_run_cli_without_a_tool_is_a_usage_error(capsys):
    assert run_cli([]) == 2
    assert capsys.readouterr() == ("", "usage: moore|subst <command> ...\n")


def test_subst_expand_separates_multi_character_letters(tmp_path, capsys):
    path = tmp_path / "long.subst"
    path.write_text("subst v1\nletters aa b\noutputs 0 1\ninitial aa\nrule aa -> aa b\n"
                    "rule b -> aa\nout aa 0\nout b 1\n", encoding="utf-8")
    assert run_cli(["subst", "expand", str(path), "-n", "5"]) == 0
    assert capsys.readouterr() == ("aa b aa aa b\n", "")
