"""Scalar reference implementations that tests compare the package to.

The package scores situations only through `SituationIndex`; these
functions compute the same Wu-Palmer similarities one pair at a time, and
`weighted_to_many_reference` is its scan as first written, gathering the
similarities before scaling them.
The package picks slates only from a map's maintained CTR ranking;
`oracle_greedy_top_n` re-scores and re-sorts every candidate instead.
The package checks a world's group separation from per-group concept
counts; `separation_means` averages the full n x n similarity matrix.
`casebase_state` lists everything a case base holds, so tests can check
that an operation left it as it was.
"""

from typing import List, Tuple

import numpy as np

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


def weighted_to_many_reference(index, query, loc, tim, soc,
                               alpha) -> np.ndarray:
    """`SituationIndex.weighted_to_many` gathering each dimension's
    similarities first, then scaling and adding them."""
    m0, m1, m2 = index.matrices
    return (alpha[0] * m0[query[0], loc] + alpha[1] * m1[query[1], tim]
            + alpha[2] * m2[query[2], soc])


def oracle_ctr(ds) -> float:
    """Click-through rate of one `DocumentStats`, clicks capped at
    impressions; 0 for a document never shown."""
    if ds.impressions <= 0:
        return 0.0
    return min(ds.clicks, ds.impressions) / ds.impressions


def oracle_greedy_top_n(candidates, n: int) -> List[str]:
    """Top-n documents of a `UserPreferences` by CTR, ties broken by lowest
    doc id."""
    return sorted(candidates.docs,
                  key=lambda d: (-oracle_ctr(candidates.docs[d]), d))[:n]


def separation_means(world) -> Tuple[float, float]:
    """Mean unweighted similarity over ordered pairs of distinct situations
    in one group of a `SyntheticWorld`, and over pairs in two groups."""
    enc = np.array([world.index.encode(s) for s in world.situations]).T
    sim = world.index.pairwise_weighted(enc[0], enc[1], enc[2],
                                        (1.0, 1.0, 1.0))
    same = world.group_of[:, None] == world.group_of[None, :]
    off_diag = ~np.eye(len(world.situations), dtype=bool)
    return float(sim[same & off_diag].mean()), float(sim[~same].mean())


def casebase_state(cb) -> tuple:
    """A `CaseBase`'s contents as plain values: each case's situation and
    per-document (clicks, impressions), the weights' sums and count, and
    the encoded situation arrays."""
    cases = [(c.situation, {d: (s.clicks, s.impressions)
                            for d, s in c.prefs.docs.items()})
             for c in cb.cases]
    enc = cb.encoded
    encoded = [a.tolist() for a in (enc.loc, enc.tim, enc.soc)]
    return cases, cb.weights.sums, cb.weights.count, encoded
