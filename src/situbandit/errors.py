"""Exception types shared across the package, and the one check of a
config value's kind."""

import dataclasses
from numbers import Integral, Real


class SitubanditError(Exception):
    """Base class for all package errors."""


class ParseError(SitubanditError):
    """Malformed taxonomy, saved-world or case-base snapshot document,
    including a taxonomy that lists a concept under two parents."""


class UnknownConcept(SitubanditError):
    """Concept id not present in the taxonomy."""


class EmptyCandidates(SitubanditError):
    """Epsilon-greedy called with no candidate documents."""


class UnknownDoc(SitubanditError):
    """Document id not present in the synthetic world."""


class ConfigError(SitubanditError, ValueError):
    """Invalid or impossible configuration: among others an unknown policy
    name, more replay iterations than the situation pool holds, and more
    clusters than cases."""


class LabelMismatch(SitubanditError):
    """Predicted partition and ground-truth labels cover different items,
    or a situation the world does not list."""


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


_KINDS = {
    int: ("an integer in [-2**63, 2**63)", lambda v: _is_number(v)
          and isinstance(v, Integral) and -2**63 <= v < 2**63),
    float: ("a number", _is_number),
    tuple: ("a pair of numbers", lambda v: isinstance(v, tuple)
            and len(v) == 2 and all(map(_is_number, v))),
}


def check_kind(name: str, value, kind: type):
    """`value`, if it is of `kind` (int for an integer that fits int64,
    float for a number, or tuple for a pair of numbers), else raise
    ConfigError. Bools are not numbers and whole floats are not integers;
    numpy scalars count as Python ones."""
    noun, ok = _KINDS[kind]
    if not ok(value):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    return value


def check_fields(config, what: str) -> None:
    """Raise ConfigError unless each field of the dataclass `config` holds
    the kind of its default; `what` names the config in the message."""
    for f in dataclasses.fields(config):
        check_kind(f"{what} {f.name}", getattr(config, f.name),
                   type(f.default))
