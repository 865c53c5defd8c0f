"""Mutation fuzzing of both text formats and of the CLI, and sweeps of the
integer and padding parameters of the numeration and machine entry points
and of the constructors' sequence fields.

Valid .moore and .subst texts are mutated token by token: drops, swaps,
huge integers, reserved names, duplicated or dropped lines.  Whatever comes
out, a parser returns a value or raises ParseError, and ``run_cli`` returns
an exit code in 0-3 without raising.  Whatever value an integer parameter
gets, a numeration entry point returns a value or raises DomainError or
ParseError, and a machine entry point returns a value or raises DomainError.
So does every padding argument and every constructor's sequence field.
Every int-annotated parameter of a public function is in an integer sweep.
"""

import contextlib
import inspect
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from mooredual import duality, equivalence, machine, substitution
from mooredual.cli import run_cli
from mooredual.duality import dual, dual_with_vectors
from mooredual.equivalence import minimize, states_equivalent
from mooredual.machine import (
    DomainError,
    MooreMachine,
    ParseError,
    emit_machine,
    format_word,
    left_action,
    parse_machine,
    parse_word,
    right_action,
    validate_word,
)
from mooredual.substitution import (
    PaddingSpec,
    Substitution,
    emit_substitution,
    expand_fixed_point,
    fixed_point_lengths,
    letter_at,
    letter_at_constant,
    minimize_substitution,
    parse_substitution,
    phi,
    psi,
    to_padded_machine,
)

from conftest import read_data

EMPTY = ["", "\n\n", "# only a comment\n", "  # one\n# two\n\n"]

MOORE_BASES = EMPTY + [
    read_data("example.moore"),
    read_data("example_bad.moore"),
    read_data("example_missing.moore"),
    read_data("example_min.moore"),
    # twelve inputs: words are comma-separated numbers
    emit_machine(MooreMachine(("p", "q"), 12, ("0", "1"),
                              (tuple(range(2)) * 6, (0,) * 12), ("0", "1"), 0)),
]

SUBST_BASES = EMPTY + [
    read_data("fib.subst"),
    read_data("threeletter.subst"),
    "subst v1\nletters a b\noutputs 0 1\ninitial a\nrule a -> a b\nrule b -> a\n"
    "out a 0\nout b 1\npad b w_\n",
    # q = 12: words are comma-separated numbers
    "subst v1\nletters a b\noutputs x y\ninitial a\nrule a -> a b b b b b b b b b b b\n"
    "rule b -> b a\nout a x\nout b y\n",
]

ODD_TOKENS = st.sampled_from([
    "ω", "⊥", "0", "1", "-1", "²", "99999999999999999999", "1" * 5000, "->", "_", "w",
    "_w", "w_", "moore", "subst", "v1", "inputs", "outputs", "state", "initial", "trans",
    "letters", "rule", "out", "pad",
]) | st.integers(-(10 ** 30), 10 ** 30).map(str)


@st.composite
def mutated(draw, bases, most=5):
    """A base text with up to ``most`` token- or line-level mutations."""
    lines = [line.split() for line in draw(st.sampled_from(bases)).splitlines()]
    for _ in range(draw(st.integers(0, most))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["drop", "swap", "replace", "duplicate", "delete"]))
        if op == "duplicate":  # a repeated directive, anywhere
            lines.insert(draw(st.integers(0, len(lines))), list(line))
        elif op == "delete":
            del lines[i]
        elif line:
            k = draw(st.integers(0, len(line) - 1))
            if op == "drop":
                del line[k]
            elif op == "replace":
                line[k] = draw(ODD_TOKENS)
            else:  # swap with a token of any line
                other = lines[draw(st.integers(0, len(lines) - 1))]
                if other:
                    k2 = draw(st.integers(0, len(other) - 1))
                    line[k], other[k2] = other[k2], line[k]
    return "".join(" ".join(line) + "\n" for line in lines)


@settings(max_examples=300)
@given(mutated(MOORE_BASES))
def test_mutated_moore_text_parses_or_is_a_parse_error(text):
    try:
        m = parse_machine(text)
    except ParseError:
        return
    # parse_machine skips the constructor's checks, having made them itself
    assert MooreMachine(*m._key()) == m


@settings(max_examples=300)
@given(mutated(SUBST_BASES))
def test_mutated_subst_text_parses_or_is_a_parse_error(text):
    try:
        parse_substitution(text)
    except ParseError:
        pass


SMALL = st.integers(-3, 40).map(str)
WORDS = st.text(alphabet="0123456789,-² ", max_size=10)


@st.composite
def moore_argv(draw, one, two):
    command = draw(st.sampled_from(
        ["validate", "run", "minimize", "dual", "normal", "dot", "equiv", "iso", "product"]
    ))
    if command == "run":
        return ["run", one, "--word", draw(WORDS), "--side", draw(st.sampled_from(["right", "left"]))]
    if command == "dual":
        return ["dual", one, "--max-states", draw(st.sampled_from(["0", "-1", "1", "3", "262144"]))]
    if command in ("equiv", "iso"):
        return [command, one, two]
    if command == "product":
        return ["product", one, two, "--combine", draw(st.sampled_from(["pair", "first", "second", "sum"]))]
    return [command, one]


@st.composite
def subst_argv(draw, one):
    command = draw(st.sampled_from(
        ["validate", "expand", "letter", "phi", "psi", "minimize", "to-machine"]
    ))
    if command == "expand":
        return ["expand", one, "-n", draw(SMALL)] + draw(st.sampled_from([[], ["--project"]]))
    if command == "letter":
        k = draw(SMALL | st.just(str(10 ** 12)))
        start = draw(st.sampled_from([[], ["--start", "a"], ["--start", "i"], ["--start", "ω"]]))
        return ["letter", one, "-k", k, "-n", draw(SMALL)] + start
    if command == "phi":
        return ["phi", one, "--word", draw(WORDS)]
    if command == "psi":
        return ["psi", one, "-n", draw(SMALL)]
    return [command, one]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(argv)


@settings(max_examples=150)
@given(data=st.data())
def test_cli_exits_0_to_3_on_mutated_files(workdir, data):
    one, two = str(workdir / "one.txt"), str(workdir / "two.txt")
    if data.draw(st.booleans()):
        for path in (one, two):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data.draw(mutated(MOORE_BASES, most=2)))
        argv = ["moore"] + data.draw(moore_argv(one, two))
    else:
        with open(one, "w", encoding="utf-8") as fh:
            fh.write(data.draw(mutated(SUBST_BASES, most=2)))
        argv = ["subst"] + data.draw(subst_argv(one))
    assert quiet_cli(argv) in (0, 1, 2, 3), argv


# --- integer parameters of the numeration entry points ------------------------------


class _Int(int):
    """An int subclass: like a bool, it must take the checked path."""


NOT_PLAIN_INTS = [None, "x", 1.5, 2.0, math.nan, math.inf, -1, True, 10 ** 30, _Int(3)]

# each entry point with one integer parameter (or two, the same value) set
# to the swept value, on the Fibonacci substitution and the constant-length
# three-letter one
NUMERATION_CALLS = {
    "letter_at k": lambda v, fib, pad, const: letter_at(fib, pad, v, 3),
    "letter_at j": lambda v, fib, pad, const: letter_at(fib, pad, 5, v),
    "letter_at k j": lambda v, fib, pad, const: letter_at(fib, None, v, v),
    "letter_at_constant k": lambda v, fib, pad, const: letter_at_constant(const, v, "i", 1),
    "letter_at_constant a": lambda v, fib, pad, const: letter_at_constant(const, 3, v, 1),
    "letter_at_constant n": lambda v, fib, pad, const: letter_at_constant(const, 3, "i", v),
    "letter_at_constant k n": lambda v, fib, pad, const: letter_at_constant(const, v, "i", v),
    "psi n": lambda v, fib, pad, const: psi(to_padded_machine(fib, pad), v),
    "expand_fixed_point n": lambda v, fib, pad, const: expand_fixed_point(fib, v),
    "phi q": lambda v, fib, pad, const: phi((1, 0, 1), v),
    "phi digit": lambda v, fib, pad, const: phi((v, 1), 2),
    "parse_word q": lambda v, fib, pad, const: parse_word("0110", v),
    "format_word q": lambda v, fib, pad, const: format_word((0, 1, 1), v),
    "fixed_point_lengths k": lambda v, fib, pad, const: fixed_point_lengths(fib, v),
    "validate_word q": lambda v, fib, pad, const: validate_word((0, 1, 1), v),
}


def numeration_outcome(call, value):
    """The value a call returns or the DomainError/ParseError it raises, cold
    (a fresh block table) and then warm; any other exception fails."""
    fib, pad = parse_substitution(read_data("fib.subst"))
    const = parse_substitution(read_data("threeletter.subst"))[0]
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(("value", call(value, fib, pad, const)))
        except (DomainError, ParseError) as err:
            outcomes.append((type(err).__name__, str(err)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("value", NOT_PLAIN_INTS, ids=repr)
@pytest.mark.parametrize("call", NUMERATION_CALLS)
def test_numeration_integer_parameters(call, value):
    call = NUMERATION_CALLS[call]
    outcome = numeration_outcome(call, value)
    if isinstance(value, int):  # a bool or an int subclass answers as its int
        assert outcome == numeration_outcome(call, int(value))
    else:  # no other value is read as an int
        assert outcome[0] == "DomainError"


# each entry point that takes a padding, with the padding set to the swept value
PADDING_CALLS = {
    "letter_at": lambda v, fib, pad, const: letter_at(fib, v, 5, 3),
    "to_padded_machine": lambda v, fib, pad, const: to_padded_machine(fib, v),
    "emit_substitution": lambda v, fib, pad, const: emit_substitution(fib, v),
    "minimize_substitution": lambda v, fib, pad, const: minimize_substitution(fib, v),
}

NOT_PADDINGS = NOT_PLAIN_INTS + [
    PaddingSpec(()), PaddingSpec((("_", "_"),)), PaddingSpec((("_", "_"), {"_"})),
    PaddingSpec((("_", "_"), ("_", "x"))), PaddingSpec((("w", "_"), ("_", "w"))),
    (("_", "_"), ("_", "w")),
]


@pytest.mark.parametrize("value", NOT_PADDINGS, ids=repr)
@pytest.mark.parametrize("call", PADDING_CALLS)
def test_numeration_padding_parameters(call, value):
    outcome = numeration_outcome(PADDING_CALLS[call], value)
    if value is None:  # the default padding
        assert outcome[0] == "value"
    else:  # only a PaddingSpec that fits the substitution is a padding
        assert outcome[0] == "DomainError"


# each machine entry point with one integer parameter set to the swept value,
# on the example machine (3 states, 2 inputs, a 4-state dual)
MACHINE_CALLS = {
    "dual max_states": lambda v, m: dual(m, max_states=v),
    "dual_with_vectors max_states": lambda v, m: dual_with_vectors(m, max_states=v),
    "left_action state": lambda v, m: left_action(m, (0, 1, 1), v),
    "right_action state": lambda v, m: right_action(m, v, (0, 1, 1)),
    "states_equivalent a": lambda v, m: states_equivalent(m, v, 2),
    "states_equivalent b": lambda v, m: states_equivalent(m, 0, v),
    "MooreMachine input_count": lambda v, m: replaced(m, input_count=v),
    "MooreMachine initial": lambda v, m: replaced(m, initial=v),
    "MooreMachine transition target": lambda v, m: replaced(
        m, transition=((0, v),) + m.transition[1:]),
}


def replaced(m, **fields):
    """The checked constructor on m's fields, some of them replaced."""
    return MooreMachine(**dict(zip(m._fields, m._key()), **fields))


def machine_outcome(call, value):
    """The value a call returns or the DomainError it raises; any other
    exception fails."""
    m = parse_machine(read_data("example.moore"))
    try:
        return "value", MACHINE_CALLS[call](value, m)
    except DomainError as err:
        return "DomainError", str(err)


@pytest.mark.parametrize("value", NOT_PLAIN_INTS, ids=repr)
@pytest.mark.parametrize("call", MACHINE_CALLS)
def test_machine_integer_parameters(call, value):
    outcome = machine_outcome(call, value)
    if isinstance(value, int):  # a bool or an int subclass answers as its int
        assert outcome == machine_outcome(call, int(value))
    else:  # no other value is read as an int
        assert outcome[0] == "DomainError"


def test_every_int_parameter_is_swept():
    """Each int-annotated parameter of a public function of the library core
    has an entry in one of the two sweeps above."""
    unswept = []
    for module in (machine, equivalence, duality, substitution):
        for name, function in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(function)
                    or function.__module__ != module.__name__):
                continue
            for param in inspect.signature(function).parameters.values():
                call = "%s %s" % (name, param.name)
                if param.annotation in ("int", int) and call not in {**NUMERATION_CALLS,
                                                                     **MACHINE_CALLS}:
                    unswept.append(call)
    assert unswept == []


# each sequence field of the three constructors that copy them, with its
# rows, images or templates
SEQUENCE_FIELDS = [(MooreMachine, name) for name in
                   ("states", "outputs", "transition", "output_map", "input_names")]
SEQUENCE_FIELDS += [(Substitution, name) for name in
                    ("alphabet", "rules", "outputs", "projection")]
SEQUENCE_FIELDS += [(PaddingSpec, "templates")]


@pytest.mark.parametrize("value", [None, 5, list], ids=["None", "5", "list"])
@pytest.mark.parametrize("cls, name", SEQUENCE_FIELDS,
                         ids=["%s %s" % (cls.__name__, name) for cls, name in SEQUENCE_FIELDS])
def test_constructor_sequence_fields(cls, name, value):
    fib, pad = parse_substitution(read_data("fib.subst"))
    if cls is MooreMachine:
        base = MooreMachine(*parse_machine(read_data("example.moore"))._key()[:-1], ("x", "y"))
    else:
        base = fib if cls is Substitution else pad
    fields = dict(zip(base._fields, base._key()))
    if value is list:  # a list, of lists for the rows and images
        value = [list(x) if isinstance(x, tuple) else x for x in fields[name]]
    fields[name] = value
    if value is None and name == "input_names":
        assert cls(**fields) == MooreMachine(*base._key()[:-1])
    elif isinstance(value, list):  # copied into tuples: hashable, and it minimizes
        built = cls(**fields)
        assert built == base and hash(built) == hash(base)
        if cls is MooreMachine:
            assert emit_machine(minimize(built)) == emit_machine(minimize(base))
        elif cls is Substitution:
            assert minimize_substitution(built) == minimize_substitution(base)
        else:
            assert to_padded_machine(fib, built) == to_padded_machine(fib, base)
    else:
        with pytest.raises(DomainError) as err:
            cls(**fields)
        assert str(err.value) == "%s must be iterable, not %r" % (name.replace("_", " "), value)
