"""Semantic k-medoid clustering of situations.

This is the paper's clustering-precision experiment (`situbandit
cluster-eval`); the recommendation engine does not cluster. Medoids are
actual situations (symbolic triples admit no mean vector). The core loop
alternates similarity-maximizing assignment with medoid recomputation,
followed by greedy medoid-swap passes that escape the local optima a
purely random initialization tends to land in. The medoids stay distinct
and every cluster holds its own medoid, so no cluster is ever empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ConfigError, check_fields

#: Upper bound on greedy medoid-swap passes after the alternating loop.
MAX_SWAP_PASSES = 4

#: Rows of the similarity matrix scored at a time by the swap refinement.
SWAP_BLOCK_ROWS = 64


@dataclass
class ClusteringConfig:
    num_clusters: int = 10
    max_iterations: int = 60
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "clustering config")
        if self.num_clusters < 1 or self.max_iterations < 1:
            raise ConfigError("num_clusters and max_iterations must both "
                              "be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ClusteringResult:
    labels: np.ndarray          # case index -> cluster id
    medoids: List[int]          # cluster id -> case index
    objective_trace: List[float]


def _assign(sim: np.ndarray, medoids: np.ndarray) -> np.ndarray:
    labels = np.argmax(sim[:, medoids], axis=1)
    # a medoid always belongs to its own cluster (ties can occur between
    # duplicate situations; self-similarity is never exceeded)
    labels[medoids] = np.arange(len(medoids))
    return labels


def _objective(sim: np.ndarray, medoids: np.ndarray,
               labels: np.ndarray) -> float:
    return float(sim[np.arange(len(labels)), medoids[labels]].sum())


def _swap_refine(sim: np.ndarray, medoids: np.ndarray, passes: int) -> bool:
    """Greedy medoid swaps that improve the assignment objective.

    Replacing medoid `cid` by case c scores the sum over cases of
    max(without, sim[:, c]), where `without` is each case's best similarity
    to the other medoids. `sim` is symmetric, so column c is row c: the
    scores are contiguous row sums, taken a block of rows at a time in one
    reused buffer. Medoids need no masking: another medoid's terms are
    `without` itself, none larger than the terms of `cid`'s own row, and
    every row is summed in the same order with monotone rounding. So no
    medoid scores above `cid`'s row, which is the current objective, and a
    swap always goes to the lowest-index non-medoid with the highest score.
    """
    n = sim.shape[0]
    k = len(medoids)
    buf = np.empty((min(SWAP_BLOCK_ROWS, n), n))
    gains = np.empty(n)
    improved_any = False
    for _ in range(passes):
        improved = False
        for cid in range(k):
            without = sim[np.delete(medoids, cid)].max(axis=0,
                                                       initial=-np.inf)
            for start in range(0, n, len(buf)):
                rows = sim[start:start + len(buf)]
                block = np.maximum(rows, without, out=buf[:len(rows)])
                block.sum(axis=1, out=gains[start:start + len(rows)])
            current = gains[medoids[cid]]
            best = int(np.argmax(gains))
            if gains[best] > current + 1e-9:
                medoids[cid] = best
                improved = True
                improved_any = True
        if not improved:
            break
    return improved_any


def kmedoids(sim: np.ndarray, cfg: ClusteringConfig) -> ClusteringResult:
    """Cluster items given their full pairwise similarity matrix.

    `sim` must be symmetric: the swap refinement reads row c of `sim` as
    the similarities to case c. The medoids stay distinct: the first draw
    is without replacement, each update picks a medoid from its own
    cluster and the clusters are disjoint, and a swap never lands on
    another medoid (see `_swap_refine`).
    """
    n = sim.shape[0]
    if n < cfg.num_clusters:
        raise ConfigError(f"{n} cases for {cfg.num_clusters} clusters")
    rng = np.random.default_rng(cfg.seed)
    medoids = rng.choice(n, size=cfg.num_clusters, replace=False)
    trace: List[float] = []
    labels = _assign(sim, medoids)
    for _ in range(cfg.max_iterations):
        trace.append(_objective(sim, medoids, labels))
        new_medoids = medoids.copy()
        for cid in range(cfg.num_clusters):
            members = np.flatnonzero(labels == cid)
            sub = sim[np.ix_(members, members)]
            new_medoids[cid] = members[int(np.argmax(sub.mean(axis=1)))]
        # equal medoids give equal labels
        if np.array_equal(new_medoids, medoids):
            break
        medoids = new_medoids
        labels = _assign(sim, medoids)
    if _swap_refine(sim, medoids, MAX_SWAP_PASSES):
        labels = _assign(sim, medoids)
        trace.append(_objective(sim, medoids, labels))
    # canonical cluster ids: order clusters by their medoid's case index
    order = np.argsort(medoids, kind="stable")
    remap = np.empty(cfg.num_clusters, dtype=np.int64)
    remap[order] = np.arange(cfg.num_clusters)
    return ClusteringResult(labels=remap[labels],
                            medoids=[int(m) for m in medoids[order]],
                            objective_trace=trace)


# perfbench measures the peak memory of this function by name
def cluster_situations(cb, cfg: ClusteringConfig) -> ClusteringResult:
    """Partition a case base's situations under its current weights; the
    case base is not changed."""
    enc = cb.encoded
    return kmedoids(cb.index.pairwise_weighted(enc.loc, enc.tim, enc.soc,
                                               cb.weights.alpha), cfg)
