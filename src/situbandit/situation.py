"""Situation triples and semantic situation similarity.

A situation is a (location, time, social) triple of concept ids, one per
taxonomy. Retrieval scores situations with a weighted sum of per-dimension
Wu-Palmer similarities; the threshold test uses the plain unweighted sum
(which is 3.0 exactly when the triples are equal). The weights are the
running mean of the per-dimension similarities of past retrievals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import ConfigError
from .ontology import DIMENSIONS, Taxonomy, wu_palmer

#: Tolerance for the exact-match test sim == 3.
EXACT_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Situation:
    location: str
    time: str
    social: str

    def as_tuple(self) -> Tuple[str, str, str]:
        return (self.location, self.time, self.social)


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

    def validate(self, s: Situation) -> None:
        for tax, cid in zip(self.as_tuple(), s.as_tuple()):
            tax.check(cid)


def sim_per_dimension(s1: Situation, s2: Situation,
                      taxonomies: Taxonomies) -> Tuple[float, float, float]:
    """Per-dimension Wu-Palmer similarities (location, time, social)."""
    return tuple(
        wu_palmer(tax, a, b)
        for tax, a, b in zip(taxonomies.as_tuple(), s1.as_tuple(), s2.as_tuple())
    )


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
        if not self.count:
            return (1.0 / 3, 1.0 / 3, 1.0 / 3)
        return tuple(s / self.count for s in self.sums)

    def record(self, per_dim_sims: Sequence[float]) -> "DimensionWeights":
        """Add one gamma observation per dimension."""
        self.sums = tuple(s + float(sim)
                          for s, sim in zip(self.sums, per_dim_sims))
        self.count += 1
        return self

    def to_snapshot(self) -> dict:
        return {"sums": list(self.sums), "count": self.count}

    @classmethod
    def from_snapshot(cls, doc: dict) -> "DimensionWeights":
        return cls(sums=tuple(doc["sums"]), count=doc["count"])


def weighted_similarity(s1: Situation, s2: Situation, w: DimensionWeights,
                        taxonomies: Taxonomies) -> float:
    """Sum of alpha_j * sim_j over the three dimensions."""
    sims = sim_per_dimension(s1, s2, taxonomies)
    return sum(a * s for a, s in zip(w.alpha, sims))


def unweighted_similarity(s1: Situation, s2: Situation,
                          taxonomies: Taxonomies) -> float:
    """Plain sum of per-dimension similarities, in (0, 3]."""
    return sum(sim_per_dimension(s1, s2, taxonomies))


# perfbench reads this to count exact hits
def is_exact_match(sim: float) -> bool:
    """Whether an unweighted similarity counts as sim == 3."""
    return sim >= 3.0 - EXACT_MATCH_TOL

