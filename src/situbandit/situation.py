"""Situation triples and semantic situation similarity.

A situation is a (location, time, social) triple of concept ids, one per
taxonomy. Retrieval scores situations with a weighted sum of per-dimension
Wu-Palmer similarities; the threshold test uses the plain unweighted sum
(which is 3.0 exactly when the triples are equal). The weights are the
running mean of the per-dimension similarities of past retrievals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

from .errors import ConfigError, ParseError
from .ontology import DIMENSIONS, Taxonomy


class Situation(NamedTuple):
    """A (location, time, social) triple of concept ids.

    A named tuple, so that hashing and comparing one, as every lookup by
    situation does, runs in C. It therefore equals, and hashes as, the
    plain tuple of its concepts: `Situation("a", "b", "c") == ("a", "b",
    "c")`.
    """

    location: str
    time: str
    social: str

    def as_tuple(self) -> Tuple[str, str, str]:
        return tuple(self)


@dataclass
class Taxonomies:
    """The three per-dimension taxonomies backing situation similarity."""

    location: Taxonomy
    time: Taxonomy
    social: Taxonomy

    def __post_init__(self):
        for tax, dim in zip(self.as_tuple(), DIMENSIONS):
            if tax.dimension != dim:
                raise ConfigError(
                    f"taxonomy for slot {dim.value} has dimension {tax.dimension.value}"
                )

    def as_tuple(self) -> Tuple[Taxonomy, Taxonomy, Taxonomy]:
        return (self.location, self.time, self.social)


@dataclass
class DimensionWeights:
    """Per-dimension weights alpha, maintained as the running arithmetic
    mean of past per-dimension similarity observations (gamma).

    Only the per-dimension sums of gamma and the observation count are
    kept, so the state stays constant in size. Before any observation alpha
    is uniform 1/3.
    """

    sums: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    count: int = 0

    @property
    def alpha(self) -> Tuple[float, float, float]:
        n = self.count
        if not n:
            return (1.0 / 3, 1.0 / 3, 1.0 / 3)
        a, b, c = self.sums
        return (a / n, b / n, c / n)

    def record(self, per_dim_sims: Sequence[float]) -> None:
        """Add one gamma observation per dimension."""
        a, b, c = self.sums
        x, y, z = per_dim_sims
        self.sums = (a + float(x), b + float(y), c + float(z))
        self.count += 1

    def to_snapshot(self) -> dict:
        return {"sums": list(self.sums), "count": self.count}

    @classmethod
    def from_snapshot(cls, doc: dict) -> "DimensionWeights":
        """Rebuild weights from `to_snapshot` output. The sums are 0 before
        any observation; after one, every sum must be finite and > 0, as
        Wu-Palmer similarities are: an exact case is the unique argmax of a
        weighted scan only while every alpha is > 0."""
        if not isinstance(doc, dict) or not {"sums", "count"} <= doc.keys():
            raise ParseError(f"weights {doc!r} are not a mapping with "
                             f"'sums' and 'count'")
        sums, count = doc["sums"], doc["count"]
        if isinstance(count, bool) or not isinstance(count, int) \
                or count < 0:
            raise ParseError(f"weights count {count!r} is not a "
                             f"non-negative integer")
        if not isinstance(sums, list) or len(sums) != 3 or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in sums):
            raise ParseError(f"weights sums {sums!r} are not three numbers")
        if count and not all(0.0 < x < math.inf for x in sums):
            raise ParseError(f"weights sums {sums!r} must be finite and "
                             f"> 0 after {count} observations")
        if not count and any(x != 0 for x in sums):
            raise ParseError(f"weights sums {sums!r} must be 0 before any "
                             f"observation")
        return cls(sums=tuple(sums), count=count)


def unweighted_sum(per_dim_sims: Sequence[float]) -> float:
    """The unweighted similarity of three per-dimension similarities,
    added left to right. Not `sum`, which compensates float rounding from
    Python 3.12 on and would make threshold tests depend on the version."""
    a, b, c = per_dim_sims
    return a + b + c


# perfbench reads this to count exact hits
def is_exact_match(sim: float) -> bool:
    """Whether an unweighted similarity counts as sim == 3, within 1e-9."""
    return sim >= 3.0 - 1e-9

