"""Run one `moore` or `subst` command in a fresh interpreter (cold commands).

Usage: python3 worker.py '{"argv": ["subst", "psi", "f.subst", "-n", "7"], "trace": 0}'

Prints one JSON line: the exit code, the command's stdout and, with trace
1, the spans and sizes of the command.  Untraced, the command goes through
``run_cli`` as the console scripts do; traced, it is replayed stage by
stage through the same public functions.  The address space is capped at
MEM_MB so a runaway construction fails instead of exhausting the machine's
memory.
"""

import io
import json
import resource
import sys
from contextlib import redirect_stdout

MEM_MB = 768


def staged(tr, argv):
    """The traced equivalent of the commands the benchmark sends: (exit code, stdout)."""
    import ops
    from mooredual import DomainError, ParseError, format_word, to_padded_machine

    tool, cmd, path = argv[:3]
    flags = dict(zip(argv[3::2], argv[4::2]))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        if tool == "moore" and cmd == "minimize":
            return 0, ops.minimize_text(tr, text)
        s, pad = ops.parse_subst(tr, text)
        if cmd == "minimize":
            return 0, ops.minimize_subst(tr, s, pad)
        if cmd == "psi":
            with tr.span("substitution.to_padded_machine"):
                pm = to_padded_machine(s, pad)
            return 0, format_word(ops.numeral(tr, pm, int(flags["-n"])), s.q) + "\n"
        if cmd == "letter" and "--start" in flags:
            k, n = int(flags["-k"]), int(flags["-n"])
            return 0, ops.letter_constant(tr, s, k, flags["--start"], n) + "\n"
        if cmd == "letter":
            return 0, ops.letter(tr, s, pad, int(flags["-k"]), int(flags["-n"])) + "\n"
    except ParseError:
        return 2, ""
    except DomainError:
        return 3, ""
    raise ValueError("no staged form for %r" % (argv,))


def main():
    spec = json.loads(sys.argv[1])
    limit = MEM_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    tr = None
    if spec["trace"]:
        from tracing import Tracer

        tr = Tracer()
        tr.begin("cli")
        with tr.span("cli.import"):
            import mooredual.cli  # noqa: F401
        with tr.span("cli.command"):
            rc, out = staged(tr, spec["argv"])
    else:
        from mooredual.cli import run_cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = run_cli(spec["argv"])
        out = buf.getvalue()
    print(json.dumps({
        "rc": rc,
        "stdout": out,
        "record": tr.records[0] if tr else None,
    }))


if __name__ == "__main__":
    main()
