"""Exception types shared across the package."""


class SitubanditError(Exception):
    """Base class for all package errors."""


class ParseError(SitubanditError):
    """Malformed taxonomy, config or snapshot document."""


class CycleError(SitubanditError):
    """Taxonomy parent links form a loop."""


class MultiRootError(SitubanditError):
    """Taxonomy has zero or more than one root, or a node with two parents."""


class UnknownConcept(SitubanditError):
    """Concept id not present in the taxonomy."""


class TooFewCases(SitubanditError):
    """Fewer cases than requested clusters."""


class EmptyCandidates(SitubanditError):
    """Epsilon-greedy called with no candidate documents."""


class UnknownDoc(SitubanditError):
    """Document id not present in the synthetic world."""


class ExhaustedPool(SitubanditError):
    """Situation pool emptied before the replay finished."""


class ConfigError(SitubanditError):
    """Invalid or impossible configuration."""


class UnknownPolicy(SitubanditError):
    """Policy name not recognized by the simulator."""


class LabelMismatch(SitubanditError):
    """Predicted partition and ground-truth labels cover different items."""
