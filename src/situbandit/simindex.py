"""Vectorized situation-similarity lookups.

Precomputes one Wu-Palmer matrix per dimension over the (small) concept
vocabularies, so the engine and the clusterer can score thousands of
situations with numpy indexing instead of per-pair tree walks. The
scalar reference semantics live in the test suite (`tests/oracles.py`),
which pins these lookups against them.

Weighted scores scale a concept matrix (or one row of it) by alpha before
gathering the stored situations' entries: `(a * m[q]).take(codes)` holds
the same float products as `a * m[q, codes]`, since each entry is
multiplied once either way, and the per-dimension terms are added in the
same left-to-right order. The scaled gather only multiplies the small
concept vocabulary instead of every stored situation.
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
        """The concept indices of `s`; a concept that is not in its
        taxonomy raises UnknownConcept."""
        i0, i1, i2 = self.index_of
        try:
            return (i0[s.location], i1[s.time], i2[s.social])
        except KeyError:
            for tax, c in zip(self.taxonomies.as_tuple(), s.as_tuple()):
                tax.check(c)  # raises for the first missing concept
            raise

    def per_dim_sims(self, a: Sequence[int],
                     b: Sequence[int]) -> Tuple[float, float, float]:
        """The three per-dimension similarities of `a` and `b`, as Python
        floats."""
        m0, m1, m2 = self.matrices
        return (m0.item(a[0], b[0]), m1.item(a[1], b[1]),
                m2.item(a[2], b[2]))

    def weighted_to_many(self, query: Sequence[int], loc: np.ndarray,
                         tim: np.ndarray, soc: np.ndarray,
                         alpha: Sequence[float]) -> np.ndarray:
        """Weighted similarity of one encoded situation to arrays of others.

        Equal, value for value, to `alpha[0] * m0[query[0], loc] + alpha[1]
        * m1[query[1], tim] + alpha[2] * m2[query[2], soc]`: each concept
        row is scaled before the gather (see the module docstring)."""
        m0, m1, m2 = self.matrices
        a0, a1, a2 = alpha
        q0, q1, q2 = query
        out = (a0 * m0[q0]).take(loc)
        out += (a1 * m1[q1]).take(tim)
        out += (a2 * m2[q2]).take(soc)
        return out

    def pairwise_weighted(self, loc: np.ndarray, tim: np.ndarray,
                          soc: np.ndarray,
                          alpha: Sequence[float]) -> np.ndarray:
        """Full weighted similarity matrix among encoded situations."""
        # scaled before the gather, as in `weighted_to_many`. The second and
        # third terms are gathered a block of rows at a time, so only one
        # n x n array is ever held.
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
        """The `i`-th encoded situation, as Python ints."""
        return tuple(self._data[:, i].tolist())
