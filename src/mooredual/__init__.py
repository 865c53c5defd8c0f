"""Moore machine duality: duals and biduals, minimization, products, normal
forms, and substitution fixed-point indexing.

`machine` and `equivalence` load with the package.  `duality` and
`substitution` load on first use of one of their names, so a program that
only minimizes never compiles them.
"""

from .machine import (
    Counterexample,
    DomainError,
    MooreMachine,
    ParseError,
    emit_machine,
    format_word,
    left_action,
    parse_machine,
    parse_word,
    right_action,
    run_left,
    run_right,
    to_dot,
    trim,
)
from .equivalence import (
    equivalent,
    isomorphic,
    minimize,
    normal_form,
    product,
    state_classes,
    states_equivalent,
)

_LAZY = {
    "duality": ("bidual", "dual", "dual_with_vectors"),
    "substitution": (
        "PaddedMachine",
        "PaddingSpec",
        "Substitution",
        "apply",
        "emit_substitution",
        "expand_fixed_point",
        "letter_at",
        "letter_at_constant",
        "minimize_substitution",
        "parse_substitution",
        "phi",
        "psi",
        "to_padded_machine",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# the eager names are the classes and functions imported above from the submodules
__all__ = sorted(
    [name for name, value in globals().items()
     if getattr(value, "__module__", "").startswith(__name__ + ".")]
    + list(_HOME)
)


def __getattr__(name):
    """Import `duality` or `substitution` when it or one of its names is first asked for."""
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), name)
    elif name in _LAZY:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})
