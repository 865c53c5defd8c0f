import argparse
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mooredual.cli import _moore_parser, _subst_parser, moore_main, run_cli, subst_main
from mooredual.duality import MAX_DUAL_STATES
from mooredual.machine import MooreMachine, emit_machine, parse_machine, to_dot
from mooredual.substitution import parse_substitution

from conftest import (
    DATA,
    fixed_point_by_levels,
    full_transformation_machine,
    read_data,
    read_golden,
    run_fresh,
)

EXAMPLE = str(DATA / "example.moore")
EXAMPLE_MIN = str(DATA / "example_min.moore")
EXAMPLE_BAD = str(DATA / "example_bad.moore")
EXAMPLE_MISSING = str(DATA / "example_missing.moore")
FIB = str(DATA / "fib.subst")
THREE = str(DATA / "threeletter.subst")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- moore subcommands ---------------------------------------------------------

def test_validate(capsys):
    code, out, _ = run(capsys, "moore", "validate", EXAMPLE)
    assert code == 0
    assert out == "ok: 3 states, 2 inputs, 2 outputs\n"


def test_run_right(capsys):
    code, out, _ = run(capsys, "moore", "run", EXAMPLE, "--word", "001")
    assert (code, out) == (0, "1\n")


def test_run_word_apart_by_whitespace(capsys):
    code, out, _ = run(capsys, "moore", "run", EXAMPLE, "--word", "0 0\t1")
    assert (code, out) == (0, "1\n")


def test_run_left(capsys):
    code, out, _ = run(capsys, "moore", "run", EXAMPLE, "--word", "001", "--side", "left")
    assert (code, out) == (0, "0\n")


def test_minimize_golden(capsys):
    code, out, _ = run(capsys, "moore", "minimize", EXAMPLE)
    assert code == 0
    assert out == read_golden("moore_minimize_example.txt")


def test_dual_golden(capsys):
    code, out, _ = run(capsys, "moore", "dual", EXAMPLE)
    assert code == 0
    assert out == read_golden("moore_dual_example.txt")


def test_dual_max_states(capsys):
    code, out, _ = run(capsys, "moore", "dual", EXAMPLE, "--max-states", "4")
    assert code == 0
    assert out == read_golden("moore_dual_example.txt")
    code, out, err = run(capsys, "moore", "dual", EXAMPLE, "--max-states", "3")
    assert code == 3
    assert out == ""
    assert "dual reached 4 states, over the budget of 3" in err


def test_dual_with_exponential_states_fails_fast(tmp_path, capsys):
    # the dual has 2^40 states; the default budget stops the closure
    path = tmp_path / "m.moore"
    path.write_text(emit_machine(full_transformation_machine(40)), encoding="utf-8")
    start = time.monotonic()
    code, out, err = run(capsys, "moore", "dual", str(path))
    assert time.monotonic() - start < 5.0
    assert code == 3
    assert out == ""
    assert "dual reached 262145 states, over the budget of 262144" in err


def test_normal_golden(capsys):
    code, out, _ = run(capsys, "moore", "normal", EXAMPLE)
    assert code == 0
    assert out == read_golden("moore_normal_example.txt")


def test_product_golden(capsys):
    code, out, _ = run(capsys, "moore", "product", EXAMPLE, EXAMPLE, "--combine", "pair")
    assert code == 0
    assert out == read_golden("moore_product_example_pair.txt")


def test_dot_golden(capsys):
    code, out, _ = run(capsys, "moore", "dot", EXAMPLE)
    assert code == 0
    assert out == read_golden("moore_dot_example.txt")
    # deterministic across runs
    code2, out2, _ = run(capsys, "moore", "dot", EXAMPLE)
    assert out2 == out


def test_dot_counts(paper):
    text = to_dot(paper)
    assert text.count("[label=") == 3 + 6  # one node each + one edge per (state, input)
    assert "__start" in text


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


# any text, with quotes, backslashes and slashes drawn often
DOT_NAME = st.text(st.one_of(st.sampled_from('"\\/'), st.characters(exclude_categories=("Cs",))),
                   min_size=1, max_size=5)
DOT_NAME_PAIRS = st.lists(DOT_NAME, min_size=2, max_size=2, unique=True).map(tuple)


@given(DOT_NAME_PAIRS, DOT_NAME_PAIRS, st.none() | DOT_NAME_PAIRS)
def test_dot_quotes_every_string(states, outputs, inputs):
    m = MooreMachine(states, 2, outputs, ((1, 0), (1, 1)), outputs, 0, inputs)
    text = to_dot(m)
    # every quote and backslash is inside a well-formed DOT string (a name
    # may hold a line break, which a DOT string may too)
    rest = DOT_STRING.sub("", text)
    assert '"' not in rest and "\\" not in rest, text
    # and each string reads back as the name or label it stands for
    labels = [m.input_label(j) for j in range(2)]
    expected = [states[0]]
    for name, out in zip(states, outputs):
        expected += [name, name + "/" + out]
    for name, row in zip(states, m.transition):
        for label, t in zip(labels, row):
            expected += [name, states[t], label]
    found = [re.sub(r"\\(.)", r"\1", q[1:-1]) for q in DOT_STRING.findall(text)]
    assert found == expected


def test_equiv_positive(capsys):
    code, out, _ = run(capsys, "moore", "equiv", EXAMPLE, EXAMPLE_MIN)
    assert (code, out) == (0, "equivalent\n")


def test_equiv_negative(capsys):
    code, out, _ = run(capsys, "moore", "equiv", EXAMPLE, EXAMPLE_BAD)
    assert code == 1
    assert out == "not equivalent at ε: 0 vs 1\n"


def test_iso_positive(capsys, tmp_path):
    from mooredual.machine import MooreMachine, emit_machine

    m = parse_machine(read_data("example.moore"))
    renamed = MooreMachine(
        ("p", "q", "r"), m.input_count, m.outputs, m.transition, m.output_map, m.initial
    )
    path = tmp_path / "renamed.moore"
    path.write_text(emit_machine(renamed), encoding="utf-8")
    code, out, _ = run(capsys, "moore", "iso", EXAMPLE, str(path))
    assert code == 0
    assert out == "i -> p\na -> q\nb -> r\n"


def test_iso_negative(capsys):
    code, out, _ = run(capsys, "moore", "iso", EXAMPLE, EXAMPLE_MIN)
    assert (code, out) == (1, "not isomorphic\n")


@pytest.mark.parametrize("argv", [
    ["moore", "minimize", EXAMPLE],
    ["moore", "dual", EXAMPLE],
    ["moore", "normal", EXAMPLE],
    ["moore", "dot", EXAMPLE],
    ["moore", "product", EXAMPLE, EXAMPLE_MIN, "--combine", "first"],
    ["subst", "minimize", FIB],
    ["subst", "to-machine", FIB],
])
def test_output_file_option(argv, capsys, tmp_path):
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "-o", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == printed


# --- subst subcommands ------------------------------------------------------------

def test_subst_validate(capsys):
    code, out, _ = run(capsys, "subst", "validate", FIB)
    assert (code, out) == (0, "ok: 2 letters, q=2, 2 outputs\n")


def test_subst_expand(capsys):
    code, out, _ = run(capsys, "subst", "expand", FIB, "-n", "5")
    assert (code, out) == (0, "abaab\n")


def test_subst_expand_project(capsys):
    code, out, _ = run(capsys, "subst", "expand", FIB, "-n", "8", "--project")
    assert (code, out) == (0, "01001010\n")


def test_subst_expand_refuses_letters_that_would_not_read_back(capsys, tmp_path):
    path = tmp_path / "comma.subst"
    path.write_text("subst v1\nletters a,b c\noutputs 0 1\ninitial a,b\nrule a,b -> a,b c\n"
                    "rule c -> a,b\nout a,b 0\nout c 1\n", encoding="utf-8")
    assert run(capsys, "subst", "expand", str(path), "-n", "5") == (
        3, "", "error: letter 'a,b' would not read back as one token\n")
    assert run(capsys, "subst", "expand", str(path), "-n", "5", "--project") == (0, "01001\n", "")


def test_subst_letter(capsys):
    code, out, _ = run(capsys, "subst", "letter", FIB, "-k", "3", "-n", "4")
    assert (code, out) == (0, "b\n")


def test_subst_letter_constant_start(capsys):
    code, out, _ = run(capsys, "subst", "letter", THREE, "-k", "3", "-n", "5", "--start", "i")
    assert (code, out) == (0, "i\n")


def test_subst_letter_long_iterates(capsys):
    # in range, though the candidate sweep psi once used stopped short of it
    code, out, _ = run(capsys, "subst", "letter", FIB, "-k", "24", "-n", "121392")
    s, _ = parse_substitution(read_data("fib.subst"))
    assert (code, out) == (0, fixed_point_by_levels(s, 121393)[-1] + "\n")
    # the descent stops at the first iterate longer than n, whatever k is
    code, out, _ = run(capsys, "subst", "letter", FIB, "-k", "100000000", "-n", "5")
    assert (code, out) == (0, "a\n")
    # constant length: the leading zeros cycle a -> b -> a
    code, out, _ = run(capsys, "subst", "letter", THREE, "-k", "30000000", "-n", "0",
                       "--start", "a")
    assert (code, out) == (0, "a\n")


def test_subst_phi(capsys):
    code, out, _ = run(capsys, "subst", "phi", FIB, "--word", "101")
    assert (code, out) == (0, "5\n")


def test_subst_psi(capsys):
    code, out, _ = run(capsys, "subst", "psi", FIB, "-n", "4")
    assert (code, out) == (0, "101\n")


def test_subst_minimize_golden(capsys):
    code, out, _ = run(capsys, "subst", "minimize", FIB)
    assert code == 0
    assert out == read_golden("subst_minimize_fib.txt")


def test_subst_minimize_threeletter_golden(capsys):
    code, out, _ = run(capsys, "subst", "minimize", THREE)
    assert code == 0
    assert out == read_golden("subst_minimize_threeletter.txt")


def test_subst_to_machine_golden(capsys):
    code, out, _ = run(capsys, "subst", "to-machine", FIB)
    assert code == 0
    assert out == read_golden("subst_tomachine_fib.txt")


# --- contracts -----------------------------------------------------------------------

def test_emitted_machines_reparse(capsys):
    for argv in (
        ("moore", "minimize", EXAMPLE),
        ("moore", "dual", EXAMPLE),
        ("moore", "normal", EXAMPLE),
        ("moore", "product", EXAMPLE, EXAMPLE_MIN),
        ("subst", "to-machine", FIB),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # comments aside, parse followed by emit is a fixed point
        once = emit_machine(parse_machine(out))
        assert emit_machine(parse_machine(once)) == once
        assert parse_machine(once) == parse_machine(out)


def test_emitted_substitution_reparses(capsys):
    code, out, _ = run(capsys, "subst", "minimize", FIB)
    assert code == 0
    parse_substitution(out)


HELP = (("-h", "--help"), "help", False, argparse.SUPPRESS, None, None, "show this help message and exit")
FILE = ((), "file", True, None, None, None, None)
FILES = [((), "file1", True, None, None, None, None), ((), "file2", True, None, None, None, None)]
OUTPUT = (("-o", "--output"), "output", False, None, None, None, None)

# per subcommand, in order: its help and, per argument in order,
# (option_strings, dest, required, default, choices, type, help)
DECLARED = {
    "moore": [
        ("validate", "parse a machine file and report its shape", [HELP, FILE]),
        ("run", "feed a word and print the output symbol", [
            HELP, FILE,
            (("--word",), "word", True, None, None, None, None),
            (("--side",), "side", False, "right", ["right", "left"], None, None),
        ]),
        ("minimize", "print the canonical minimal equivalent machine", [HELP, FILE, OUTPUT]),
        ("dual", "print the dual machine (with vector comments)", [
            HELP, FILE, OUTPUT,
            (("--max-states",), "max_states", False, MAX_DUAL_STATES, None, int,
             "give up (exit 3) once the dual has more states (default %(default)s)"),
        ]),
        ("normal", "print the normal form (trim + canonical state numbering)", [HELP, FILE, OUTPUT]),
        ("dot", "print a Graphviz diagram", [HELP, FILE, OUTPUT]),
        ("equiv", "test equivalence of two machines", [HELP, *FILES]),
        ("iso", "look for a state isomorphism", [HELP, *FILES]),
        ("product", "pair-synchronized product machine", [
            HELP, *FILES,
            (("--combine",), "combine", False, "pair", ["pair", "first", "second"], None, None),
            OUTPUT,
        ]),
    ],
    "subst": [
        ("validate", "parse a substitution file and report its shape", [HELP, FILE]),
        ("expand", "print a prefix of the fixed point", [
            HELP, FILE,
            (("-n",), "n", True, None, None, int, "prefix length"),
            (("--project",), "project", False, False, None, None, "apply the output projection"),
        ]),
        ("letter", "letter of the fixed point by digit indexing", [
            HELP, FILE,
            (("-k",), "k", True, None, None, int, "iteration count"),
            (("-n",), "n", True, None, None, int, "letter index"),
            (("--start",), "start", False, None, None, None,
             "constant-length route: index into the k-th image of this letter"),
        ]),
        ("phi", "digit sum of a word in the file's base", [
            HELP, FILE, (("--word",), "word", True, None, None, None, None),
        ]),
        ("psi", "n-th valid digit word of the padded machine", [
            HELP, FILE, (("-n",), "n", True, None, None, int, None),
        ]),
        ("minimize", "substitution on the merged alphabet", [HELP, FILE, OUTPUT]),
        ("to-machine", "print the padded machine as .moore text", [HELP, FILE, OUTPUT]),
    ],
}


@pytest.mark.parametrize("tool, parser", [("moore", _moore_parser), ("subst", _subst_parser)])
def test_declared_arguments(tool, parser):
    # the argparse declarations themselves, which read the same on every
    # supported Python, where the format_help() text does not
    (commands,) = [a for a in parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = [
        (name, listed.help, [
            (tuple(a.option_strings), a.dest, a.required, a.default, a.choices, a.type, a.help)
            for a in sp._actions
        ])
        for (name, sp), listed in zip(commands.choices.items(), commands._choices_actions)
    ]
    assert declared == DECLARED[tool]


def test_exit_code_usage_errors(capsys):
    code, _, err = run(capsys, "moore", "frobnicate", EXAMPLE)
    assert code == 2
    code, _, err = run(capsys, "moore")
    assert code == 2
    code, _, err = run(capsys, "nosuchtool", "x")
    assert code == 2
    code, _, err = run(capsys, "moore", "validate", "/nonexistent/file.moore")
    assert code == 2


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "moore", "validate", EXAMPLE_MISSING)
    assert code == 2
    assert "missing transition" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "moore", "run", EXAMPLE, "--word", "5")
    assert code == 3
    code, _, err = run(capsys, "subst", "letter", FIB, "-k", "3", "-n", "5")
    assert code == 3
    assert "out of range" in err


@pytest.mark.parametrize("main, args, status", [
    (moore_main, ["iso", EXAMPLE, EXAMPLE_MIN], 1),
    (moore_main, ["validate", EXAMPLE_MISSING], 2),
    (subst_main, ["letter", FIB, "-k", "3", "-n", "5"], 3),
    (subst_main, ["validate", FIB], 0),
])
def test_console_scripts_exit_with_the_status(main, args, status, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["the-script", *args])
    with pytest.raises(SystemExit) as exited:
        main()
    assert exited.value.code == status


def test_library_import_leaves_out_the_cli():
    # nor the modules behind dataclasses, which take most of a cold start, nor
    # the duality and substitution layers, which load on first use
    code = (
        "import sys, mooredual; print(sorted(m for m in sys.modules if m in %r or m.startswith('mooredual')))"
        % (["argparse", "dataclasses", "inspect", "ast"],)
    )
    assert run_fresh(code) == b"['mooredual', 'mooredual.equivalence', 'mooredual.machine']\n"


@pytest.mark.parametrize("argv", [
    ["moore", "minimize", EXAMPLE],
    ["moore", "equiv", EXAMPLE, EXAMPLE_MIN],
    ["moore", "normal", EXAMPLE],
])
def test_moore_commands_leave_out_the_substitution_layer(argv):
    code = (
        "import sys; from mooredual.cli import run_cli; rc = run_cli(%r); "
        "print(rc, 'mooredual.substitution' in sys.modules)" % (argv,)
    )
    assert run_fresh(code).splitlines()[-1] == b"0 False"


def test_subst_command_loads_the_substitution_layer_itself():
    code = "import mooredual.cli; mooredual.cli.run_cli(['subst', 'letter', %r, '-k', '3', '-n', '4'])" % FIB
    assert run_fresh(code) == b"b\n"


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("argv", [
    ["moore", "minimize", EXAMPLE],
    ["moore", "validate", EXAMPLE],
    ["subst", "validate", FIB],
    ["subst", "minimize", FIB],
])
def test_a_leading_byte_order_mark_is_ignored(argv, tmp_path, capsys):
    plain = run(capsys, *argv)
    path = tmp_path / Path(argv[2]).name
    path.write_bytes(BOM + Path(argv[2]).read_bytes())
    assert run(capsys, *argv[:2], str(path), *argv[3:]) == plain
    assert plain[0] == 0


def test_only_one_byte_order_mark_is_ignored(tmp_path, capsys):
    path = tmp_path / "twice.moore"
    path.write_bytes(BOM + BOM + Path(EXAMPLE).read_bytes())
    code, _, err = run(capsys, "moore", "validate", str(path))
    assert code == 2
    assert "line 1: expected header 'moore v1'" in err
