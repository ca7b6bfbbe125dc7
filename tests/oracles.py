"""Scalar reference implementations that tests compare the package to.

The package scores situations only through `SituationIndex`; these
functions compute the same Wu-Palmer similarities one pair at a time.
"""

from typing import Tuple

from situbandit.ontology import wu_palmer
from situbandit.situation import DimensionWeights, Situation, Taxonomies


def sim_per_dimension(s1: Situation, s2: Situation,
                      taxonomies: Taxonomies) -> Tuple[float, float, float]:
    """Per-dimension Wu-Palmer similarities (location, time, social)."""
    return tuple(
        wu_palmer(tax, a, b)
        for tax, a, b in zip(taxonomies.as_tuple(), s1.as_tuple(), s2.as_tuple())
    )


def weighted_similarity(s1: Situation, s2: Situation, w: DimensionWeights,
                        taxonomies: Taxonomies) -> float:
    """Sum of alpha_j * sim_j over the three dimensions."""
    sims = sim_per_dimension(s1, s2, taxonomies)
    return sum(a * s for a, s in zip(w.alpha, sims))


def unweighted_similarity(s1: Situation, s2: Situation,
                          taxonomies: Taxonomies) -> float:
    """Plain sum of per-dimension similarities, in (0, 3]."""
    return sum(sim_per_dimension(s1, s2, taxonomies))
