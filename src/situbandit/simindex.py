"""Vectorized situation-similarity lookups.

Precomputes one Wu-Palmer matrix per dimension over the (small) concept
vocabularies, so the engine and the clusterer can score thousands of
situations with numpy indexing instead of per-pair tree walks. The scalar
functions in `situation` remain the reference semantics; tests pin the two
paths against each other.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .ontology import Taxonomy
from .situation import Situation, Taxonomies

#: Rows of the weighted similarity matrix gathered at a time after the first
#: dimension's term.
PAIRWISE_BLOCK_ROWS = 256


def concept_similarity_matrix(t: Taxonomy, order: Sequence[str]) -> np.ndarray:
    """Dense Wu-Palmer matrix over `order`, a listing of all concept ids.

    A concept has one ancestor-or-self per depth, so the depth of two
    concepts' least common subsumer counts the depths where their root
    paths agree.
    """
    pos = {cid: i for i, cid in enumerate(order)}
    paths = [t._root_path(cid) for cid in order]
    depths = np.array([len(p) for p in paths])
    at_depth = np.full((depths.max(), len(order)), -1)  # -1: below the concept
    for i, path in enumerate(paths):
        at_depth[:len(path), i] = [pos[c] for c in path]
    common = np.zeros((len(order), len(order)))
    for anc in at_depth:
        common += (anc[:, None] == anc[None, :]) & (anc >= 0)
    return 2.0 * common / (depths[:, None] + depths[None, :])


class SituationIndex:
    """Integer encoding of situations plus per-dimension similarity matrices."""

    def __init__(self, taxonomies: Taxonomies):
        self.taxonomies = taxonomies
        orders = [sorted(t.nodes) for t in taxonomies.as_tuple()]
        self.index_of: Tuple[dict, ...] = tuple(
            {cid: i for i, cid in enumerate(order)} for order in orders)
        self.matrices: Tuple[np.ndarray, ...] = tuple(
            concept_similarity_matrix(t, order)
            for t, order in zip(taxonomies.as_tuple(), orders))

    def encode(self, s: Situation) -> Tuple[int, int, int]:
        self.taxonomies.validate(s)
        return tuple(ix[c] for ix, c in zip(self.index_of, s.as_tuple()))

    def per_dim_sims(self, a: Sequence[int],
                     b: Sequence[int]) -> Tuple[float, float, float]:
        return tuple(m[i, j] for m, i, j in zip(self.matrices, a, b))

    def weighted_to_many(self, query: Sequence[int], loc: np.ndarray,
                         tim: np.ndarray, soc: np.ndarray,
                         alpha: Sequence[float]) -> np.ndarray:
        """Weighted similarity of one encoded situation to arrays of others."""
        m0, m1, m2 = self.matrices
        return (alpha[0] * m0[query[0], loc]
                + alpha[1] * m1[query[1], tim]
                + alpha[2] * m2[query[2], soc])

    def pairwise_weighted(self, loc: np.ndarray, tim: np.ndarray,
                          soc: np.ndarray,
                          alpha: Sequence[float]) -> np.ndarray:
        """Full weighted similarity matrix among encoded situations."""
        # scaling a concept matrix before the gather multiplies the same
        # pairs of floats as scaling the gathered n x n block; the sum keeps
        # its left-to-right order. The second and third terms are gathered
        # a block of rows at a time, so only one n x n array is ever held.
        m0, m1, m2 = (a * m for a, m in zip(alpha, self.matrices))
        out = m0.take(loc, 0).take(loc, 1)
        for start in range(0, len(loc), PAIRWISE_BLOCK_ROWS):
            rows = slice(start, start + PAIRWISE_BLOCK_ROWS)
            out[rows] += m1.take(tim[rows], 0).take(tim, 1)
            out[rows] += m2.take(soc[rows], 0).take(soc, 1)
        return out


class EncodedSituations:
    """Growable parallel int arrays of encoded situations."""

    def __init__(self):
        self._data = np.empty((3, 64), dtype=np.int64)
        self.size = 0

    def append(self, encoded: Sequence[int]) -> int:
        if self.size == self._data.shape[1]:
            self._data = np.concatenate(
                [self._data, np.empty_like(self._data)], axis=1)
        self._data[:, self.size] = encoded
        self.size += 1
        return self.size - 1

    @property
    def loc(self) -> np.ndarray:
        return self._data[0, :self.size]

    @property
    def tim(self) -> np.ndarray:
        return self._data[1, :self.size]

    @property
    def soc(self) -> np.ndarray:
        return self._data[2, :self.size]

    def row(self, i: int) -> Tuple[int, int, int]:
        return tuple(self._data[:, i])
