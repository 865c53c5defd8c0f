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


def _command(sub, name, help_text, *files, output=False, options=()):
    """Declare subcommand `name`: its positional input `files`, then `options` as
    (flags, settings) pairs, then -o/--output on the commands that write text."""
    sp = sub.add_parser(name, help=help_text)
    for f in files:
        sp.add_argument(f)
    for flags, settings in options:
        sp.add_argument(*flags, **settings)
    if output:
        sp.add_argument("-o", "--output", default=None)
    return sp


# --- moore ---------------------------------------------------------------------

def _moore_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="moore", description="Moore machine toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    _command(sub, "validate", "parse a machine file and report its shape", "file")
    sp = _command(sub, "run", "feed a word and print the output symbol", "file")
    sp.add_argument("--word", required=True)
    sp.add_argument("--side", choices=["right", "left"], default="right")
    _command(sub, "minimize", "print the canonical minimal equivalent machine", "file", output=True)
    sp = _command(sub, "dual", "print the dual machine (with vector comments)", "file", output=True)
    sp.add_argument(
        "--max-states", type=int, default=MAX_DUAL_STATES,
        help="give up (exit 3) once the dual has more states (default %(default)s)",
    )
    _command(sub, "normal", "print the normal form (trim + canonical state numbering)", "file", output=True)
    _command(sub, "dot", "print a Graphviz diagram", "file", output=True)
    _command(sub, "equiv", "test equivalence of two machines", "file1", "file2")
    _command(sub, "iso", "look for a state isomorphism", "file1", "file2")
    _command(
        sub, "product", "pair-synchronized product machine", "file1", "file2", output=True,
        options=[(["--combine"], dict(choices=["pair", "first", "second"], default="pair"))],
    )
    return p


def _run_moore(args_list) -> int:
    args = _moore_parser().parse_args(args_list)
    cmd = args.command
    machines = [parse_machine(_read(getattr(args, f))) for f in ("file", "file1", "file2") if f in args]
    m, m2 = machines[0], machines[-1]  # equiv, iso and product compare two

    if cmd == "validate":
        print("ok: %d states, %d inputs, %d outputs" % (m.n, m.input_count, len(m.outputs)))
    elif cmd == "run":
        word = parse_word(args.word, m.input_count)
        print(run_right(m, word) if args.side == "right" else run_left(m, word))
    elif cmd == "minimize":
        _write(emit_machine(minimize(m)), args.output)
    elif cmd == "dual":
        _write(emit_machine(*dual_with_vectors(m, args.max_states)), args.output)
    elif cmd == "normal":
        _write(emit_machine(normal_form(m)), args.output)
    elif cmd == "dot":
        _write(to_dot(m), args.output)
    elif cmd == "equiv":
        verdict = equivalent(m, m2)
        if verdict is not True:
            word = format_word(verdict.word, m.input_count) if verdict.word else "ε"
            print("not equivalent at %s: %s vs %s" % (word, verdict.left_output, verdict.right_output))
            return EXIT_NEGATIVE
        print("equivalent")
    elif cmd == "iso":
        mapping = isomorphic(m, m2)
        if mapping is None:
            print("not isomorphic")
            return EXIT_NEGATIVE
        for name in m.states:
            print("%s -> %s" % (name, mapping[name]))
    elif cmd == "product":
        _write(emit_machine(product(m, m2, args.combine)), args.output)
    return EXIT_OK


# --- subst ------------------------------------------------------------------------

def _subst_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subst", description="substitution toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    _command(sub, "validate", "parse a substitution file and report its shape", "file")
    sp = _command(sub, "expand", "print a prefix of the fixed point", "file")
    sp.add_argument("-n", type=int, required=True, help="prefix length")
    sp.add_argument("--project", action="store_true", help="apply the output projection")
    sp = _command(sub, "letter", "letter of the fixed point by digit indexing", "file")
    sp.add_argument("-k", type=int, required=True, help="iteration count")
    sp.add_argument("-n", type=int, required=True, help="letter index")
    sp.add_argument(
        "--start",
        default=None,
        help="constant-length route: index into the k-th image of this letter",
    )
    sp = _command(sub, "phi", "digit sum of a word in the file's base", "file")
    sp.add_argument("--word", required=True)
    sp = _command(sub, "psi", "n-th valid digit word of the padded machine", "file")
    sp.add_argument("-n", type=int, required=True)
    _command(sub, "minimize", "substitution on the merged alphabet", "file", output=True)
    _command(sub, "to-machine", "print the padded machine as .moore text", "file", output=True)
    return p


def _run_subst(args_list) -> int:
    # loaded here, so that `moore` commands never compile the substitution layer
    from . import substitution as sub

    args = _subst_parser().parse_args(args_list)
    cmd = args.command
    s, pad = sub.parse_substitution(_read(args.file))

    if cmd == "validate":
        print("ok: %d letters, q=%d, %d outputs" % (len(s.alphabet), s.q, len(s.outputs)))
    elif cmd == "expand":
        letters = sub.expand_fixed_point(s, args.n, project=args.project)
        print("".join(letters) if args.project else sub.format_letters(s, letters))
    elif cmd == "letter":
        if args.start is not None:
            print(sub.letter_at_constant(s, args.k, args.start, args.n))
        else:
            print(sub.letter_at(s, pad, args.k, args.n))
    elif cmd == "phi":
        print(sub.phi(parse_word(args.word, s.q), s.q))
    elif cmd == "psi":
        print(format_word(sub.psi(sub.to_padded_machine(s, pad), args.n), s.q))
    elif cmd == "minimize":
        small, note = sub.minimize_substitution(s, pad)
        _write("# %s\n%s" % (note, sub.emit_substitution(small)), args.output)
    elif cmd == "to-machine":
        _write(emit_machine(sub.to_padded_machine(s, pad).machine), args.output)
    return EXIT_OK


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
