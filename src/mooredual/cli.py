"""Command-line front ends: `moore` for machines, `subst` for substitutions.

Exit codes: 0 success (or "equivalent"), 1 not equivalent / not isomorphic,
2 usage or parse error, 3 domain error (precondition violation).
"""

from __future__ import annotations

import argparse
import sys

from .duality import MAX_DUAL_STATES, dual_with_vectors
from .equivalence import equivalent, isomorphic, minimize, normal_form, product
from .machine import (
    DomainError,
    ParseError,
    emit_machine,
    format_word,
    parse_machine,
    parse_word,
    run_left,
    run_right,
    to_dot,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")  # one leading byte order mark is dropped
    except UnicodeDecodeError as e:
        # lines are numbered as the parsers number them, by str.splitlines; e.start
        # counts from e.object, the bytes after any byte order mark
        line = len((e.object[: e.start].decode("utf-8") + "\ufffd").splitlines())
        raise ParseError("line %d: not UTF-8 text (byte 0x%02x)" % (line, e.object[e.start])) from None


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _word_display(word, q) -> str:
    return format_word(word, q) if word else "ε"


# --- moore ---------------------------------------------------------------------

def _moore_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="moore", description="Moore machine toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse a machine file and report its shape")
    sp.add_argument("file")

    sp = sub.add_parser("run", help="feed a word and print the output symbol")
    sp.add_argument("file")
    sp.add_argument("--word", required=True)
    sp.add_argument("--side", choices=["right", "left"], default="right")

    for name, help_text in [
        ("minimize", "print the canonical minimal equivalent machine"),
        ("dual", "print the dual machine (with vector comments)"),
        ("normal", "print the normal form (trim + canonical state numbering)"),
        ("dot", "print a Graphviz diagram"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file")
        sp.add_argument("-o", "--output", default=None)
        if name == "dual":
            sp.add_argument(
                "--max-states", type=int, default=MAX_DUAL_STATES,
                help="give up (exit 3) once the dual has more states (default %(default)s)",
            )

    sp = sub.add_parser("equiv", help="test equivalence of two machines")
    sp.add_argument("file1")
    sp.add_argument("file2")

    sp = sub.add_parser("iso", help="look for a state isomorphism")
    sp.add_argument("file1")
    sp.add_argument("file2")

    sp = sub.add_parser("product", help="pair-synchronized product machine")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--combine", choices=["pair", "first", "second"], default="pair")
    sp.add_argument("-o", "--output", default=None)
    return p


def _run_moore(args_list) -> int:
    args = _moore_parser().parse_args(args_list)
    cmd = args.command

    if cmd == "validate":
        m = parse_machine(_read(args.file))
        print("ok: %d states, %d inputs, %d outputs" % (m.n, m.input_count, len(m.outputs)))
        return EXIT_OK

    if cmd == "run":
        m = parse_machine(_read(args.file))
        word = parse_word(args.word, m.input_count)
        out = run_right(m, word) if args.side == "right" else run_left(m, word)
        print(out)
        return EXIT_OK

    if cmd in ("minimize", "dual", "normal", "dot"):
        m = parse_machine(_read(args.file))
        if cmd == "dual":
            text = emit_machine(*dual_with_vectors(m, args.max_states))
        elif cmd == "dot":
            text = to_dot(m)
        else:
            text = emit_machine({"minimize": minimize, "normal": normal_form}[cmd](m))
        _write(text, args.output)
        return EXIT_OK

    # the remaining commands compare two machines
    m1 = parse_machine(_read(args.file1))
    m2 = parse_machine(_read(args.file2))

    if cmd == "equiv":
        verdict = equivalent(m1, m2)
        if verdict is True:
            print("equivalent")
            return EXIT_OK
        print(
            "not equivalent at %s: %s vs %s"
            % (_word_display(verdict.word, m1.input_count), verdict.left_output, verdict.right_output)
        )
        return EXIT_NEGATIVE

    if cmd == "iso":
        mapping = isomorphic(m1, m2)
        if mapping is None:
            print("not isomorphic")
            return EXIT_NEGATIVE
        for name in m1.states:
            print("%s -> %s" % (name, mapping[name]))
        return EXIT_OK

    if cmd == "product":
        _write(emit_machine(product(m1, m2, args.combine)), args.output)
        return EXIT_OK

    raise AssertionError("unhandled command %r" % cmd)


# --- subst ------------------------------------------------------------------------

def _subst_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subst", description="substitution toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse a substitution file and report its shape")
    sp.add_argument("file")

    sp = sub.add_parser("expand", help="print a prefix of the fixed point")
    sp.add_argument("file")
    sp.add_argument("-n", type=int, required=True, help="prefix length")
    sp.add_argument("--project", action="store_true", help="apply the output projection")

    sp = sub.add_parser("letter", help="letter of the fixed point by digit indexing")
    sp.add_argument("file")
    sp.add_argument("-k", type=int, required=True, help="iteration count")
    sp.add_argument("-n", type=int, required=True, help="letter index")
    sp.add_argument(
        "--start",
        default=None,
        help="constant-length route: index into the k-th image of this letter",
    )

    sp = sub.add_parser("phi", help="digit sum of a word in the file's base")
    sp.add_argument("file")
    sp.add_argument("--word", required=True)

    sp = sub.add_parser("psi", help="n-th valid digit word of the padded machine")
    sp.add_argument("file")
    sp.add_argument("-n", type=int, required=True)

    sp = sub.add_parser("minimize", help="substitution on the merged alphabet")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("to-machine", help="print the padded machine as .moore text")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default=None)
    return p


def _run_subst(args_list) -> int:
    # loaded here, so that `moore` commands never compile the substitution layer
    from . import substitution as sub

    args = _subst_parser().parse_args(args_list)
    cmd = args.command
    s, pad = sub.parse_substitution(_read(args.file))

    if cmd == "validate":
        print("ok: %d letters, q=%d, %d outputs" % (len(s.alphabet), s.q, len(s.outputs)))
        return EXIT_OK

    if cmd == "expand":
        letters = sub.expand_fixed_point(s, args.n, project=args.project)
        print("".join(letters) if args.project else sub.format_letters(s, letters))
        return EXIT_OK

    if cmd == "letter":
        if args.start is not None:
            print(sub.letter_at_constant(s, args.k, args.start, args.n))
        else:
            print(sub.letter_at(s, pad, args.k, args.n))
        return EXIT_OK

    if cmd == "phi":
        print(sub.phi(parse_word(args.word, s.q), s.q))
        return EXIT_OK

    if cmd == "psi":
        pm = sub.to_padded_machine(s, pad)
        print(format_word(sub.psi(pm, args.n), s.q))
        return EXIT_OK

    if cmd == "minimize":
        small, note = sub.minimize_substitution(s, pad)
        _write("# %s\n%s" % (note, sub.emit_substitution(small)), args.output)
        return EXIT_OK

    if cmd == "to-machine":
        _write(emit_machine(sub.to_padded_machine(s, pad).machine), args.output)
        return EXIT_OK

    raise AssertionError("unhandled command %r" % cmd)


# --- dispatch -----------------------------------------------------------------------

def run_cli(argv) -> int:
    """Dispatch a full argument list starting with 'moore' or 'subst'."""
    if not argv:
        print("usage: moore|subst <command> ...", file=sys.stderr)
        return EXIT_USAGE
    tool, rest = argv[0], list(argv[1:])
    try:
        if tool == "moore":
            return _run_moore(rest)
        if tool == "subst":
            return _run_subst(rest)
        print("unknown tool %r (expected 'moore' or 'subst')" % tool, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except DomainError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # argparse exits on usage errors and --help
        return e.code if isinstance(e.code, int) else EXIT_USAGE


def moore_main():
    raise SystemExit(run_cli(["moore"] + sys.argv[1:]))


def subst_main():
    raise SystemExit(run_cli(["subst"] + sys.argv[1:]))
