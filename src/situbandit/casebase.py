"""Case memory: (situation, preferences) pairs with cluster-routed retrieval.

Retrieval first picks the cluster whose medoid is most similar to the query
(weighted similarity), then the best of that cluster's members; a case base
never partitioned is one cluster of every case, so that is an exhaustive
scan. Preference maintenance merges feedback into an exactly-matching case
or inserts a new case otherwise; a new case joins the cluster its query was
routed to until the next re-clustering pass.

Each preference map also owns the CTR ranking that slate selection reads:
`DocumentStats.ctr` is the one CTR definition, and a map builds its ranking
on the first read and keeps it current in `merge` after that.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import LabelMismatch
from .simindex import EncodedSituations, SituationIndex
from .situation import (DimensionWeights, Situation, Taxonomies,
                        is_exact_match)


@dataclass
class DocumentStats:
    """Engagement counters for one document in one situation's preferences."""

    doc_id: str
    clicks: int = 0
    impressions: int = 0
    reading_time: float = 0.0
    rating: int = 0

    def merge(self, other: "DocumentStats") -> None:
        """Additive merge for counters; the newer rating wins."""
        self.clicks += other.clicks
        self.impressions += other.impressions
        self.reading_time += other.reading_time
        self.rating = other.rating

    def copy(self) -> "DocumentStats":
        return DocumentStats(self.doc_id, self.clicks, self.impressions,
                             self.reading_time, self.rating)

    @property
    def ctr(self) -> float:
        """Empirical click-through rate; zero-impression documents score 0,
        and clicks are capped at impressions (organic clicks never push the
        rate above 1)."""
        impressions = self.impressions
        if impressions <= 0:
            return 0.0
        clicks = self.clicks
        return clicks / impressions if clicks < impressions else 1.0


#: A map's CTR ranking: its doc ids in sorted order, and its
#: (-ctr, doc_id) keys in ascending order (best CTR first, lowest doc id
#: first among equal CTRs).
Ranking = Tuple[List[str], List[Tuple[float, str]]]


class UserPreferences:
    """Map of doc_id -> DocumentStats, with a CTR ranking derived from it.

    `docs` is the only source of truth. The ranking is built on the first
    call to `ranking()` and `merge` keeps it current from then on, so after
    the first slate read from a map its `docs` may change only through
    `merge`. Maps that are only merged from (feedback) never build one.
    """

    def __init__(self, docs: Optional[Dict[str, DocumentStats]] = None):
        self.docs: Dict[str, DocumentStats] = docs if docs is not None else {}
        self._ranking: Optional[Ranking] = None

    def ranking(self) -> Ranking:
        """The map's CTR ranking; treat both lists as read-only."""
        if self._ranking is None:
            docs = self.docs
            self._ranking = (sorted(docs),
                             sorted((-s.ctr, d) for d, s in docs.items()))
        return self._ranking

    def merge(self, other: "UserPreferences") -> None:
        docs = self.docs
        ranked = self._ranking
        for doc_id, stats in other.docs.items():
            mine = docs.get(doc_id)
            if mine is None:
                mine = docs[doc_id] = stats.copy()
                if ranked is not None:
                    insort(ranked[0], doc_id)
                    insort(ranked[1], (-mine.ctr, doc_id))
            elif ranked is None:
                mine.merge(stats)
            else:
                old = -mine.ctr
                mine.merge(stats)
                new = -mine.ctr
                if new != old:
                    keys = ranked[1]
                    del keys[bisect_left(keys, (old, doc_id))]
                    insort(keys, (new, doc_id))

    def copy(self) -> "UserPreferences":
        return UserPreferences({d: s.copy() for d, s in self.docs.items()})

    def __len__(self) -> int:
        return len(self.docs)

    def __bool__(self) -> bool:
        return bool(self.docs)


@dataclass
class Case:
    situation: Situation
    prefs: UserPreferences


@dataclass
class RetrievalResult:
    case_index: int
    case: Case
    per_dim_sims: Tuple[float, float, float]
    cluster: int  # the cluster the query was routed to

    @property
    def unweighted_sim(self) -> float:
        return sum(self.per_dim_sims)


class CaseBase:
    """All cases plus their partition, HLCS set and weights.

    The partition is `medoids` (cluster id -> case index) and `members`
    (cluster id -> ascending array of its case indices). Single-writer
    mutable state owned by one engine instance.
    """

    def __init__(self, taxonomies: Taxonomies,
                 weights: Optional[DimensionWeights] = None,
                 hlcs: Iterable[Situation] = (),
                 index: Optional[SituationIndex] = None):
        self.index = index if index is not None else SituationIndex(taxonomies)
        self.weights = weights if weights is not None else DimensionWeights()
        self.cases: List[Case] = []
        self.encoded = EncodedSituations()
        self.medoids: List[int] = []
        self.members: List[np.ndarray] = []
        self.hlcs: set = set(hlcs)

    def __len__(self) -> int:
        return len(self.cases)

    @property
    def num_clusters(self) -> int:
        return len(self.medoids)

    @property
    def cluster_of(self) -> List[int]:
        """Case index -> cluster id, derived from the member arrays."""
        labels = np.empty(len(self.cases), dtype=np.int64)
        for cluster, members in enumerate(self.members):
            labels[members] = cluster
        return labels.tolist()

    # -- retrieval ---------------------------------------------------------

    def retrieve(self, current: Situation) -> Optional[RetrievalResult]:
        """Nearest case via cluster routing; None on an empty case base."""
        if not self.cases:
            return None
        q = self.index.encode(current)
        alpha = self.weights.alpha
        enc = self.encoded
        cluster = 0
        if len(self.medoids) > 1:
            med = np.asarray(self.medoids)
            med_sims = self.index.weighted_to_many(
                q, enc.loc[med], enc.tim[med], enc.soc[med], alpha)
            cluster = int(np.argmax(med_sims))
        members = self.members[cluster]
        sims = self.index.weighted_to_many(
            q, enc.loc[members], enc.tim[members], enc.soc[members], alpha)
        best = int(members[int(np.argmax(sims))])
        per_dim = self.index.per_dim_sims(q, enc.row(best))
        return RetrievalResult(best, self.cases[best], per_dim, cluster)

    # -- maintenance -------------------------------------------------------

    def update_preferences(self, current: Situation,
                           retrieved: Optional[RetrievalResult],
                           feedback: UserPreferences) -> None:
        """Merge feedback into an exact-matching case, else insert a new one
        into the cluster `current` was routed to."""
        if retrieved is not None and is_exact_match(retrieved.unweighted_sim):
            retrieved.case.prefs.merge(feedback)
            return
        self._insert(Case(current, feedback.copy()),
                     0 if retrieved is None else retrieved.cluster)

    def _insert(self, case: Case, cluster: int = 0) -> int:
        idx = len(self.cases)
        self.cases.append(case)
        self.encoded.append(self.index.encode(case.situation))
        if not self.medoids:  # the first case founds cluster 0
            self.set_partition([0], [0])
        else:
            self.members[cluster] = np.append(self.members[cluster], idx)
        return idx

    def mark_hlcs(self, s: Situation) -> None:
        self.hlcs.add(s)

    def is_hlcs(self, s: Situation) -> bool:
        return s in self.hlcs

    def set_partition(self, labels: Sequence[int],
                      medoids: Sequence[int]) -> None:
        """Partition the cases: `labels` maps case index -> cluster id and
        `medoids` cluster id -> case index, a case of its own cluster."""
        labels = np.asarray(labels, dtype=np.int64)
        medoids = [int(m) for m in medoids]
        k = len(medoids)
        if len(labels) != len(self.cases):
            raise LabelMismatch(
                f"{len(labels)} labels for {len(self.cases)} cases")
        if np.any((labels < 0) | (labels >= k)) \
                or not all(0 <= m < len(labels) for m in medoids) \
                or not np.array_equal(labels[medoids], np.arange(k)):
            raise LabelMismatch(f"labels and medoids {medoids} are not a "
                                f"partition into {k} clusters")
        self.medoids = medoids
        self.members = [np.flatnonzero(labels == c) for c in range(k)]

    # -- persistence -------------------------------------------------------

    def to_snapshot(self) -> dict:
        return {
            "cases": [
                {
                    "situation": list(c.situation.as_tuple()),
                    "docs": [
                        {
                            "doc_id": s.doc_id,
                            "clicks": s.clicks,
                            "impressions": s.impressions,
                            "reading_time": s.reading_time,
                            "rating": s.rating,
                        }
                        for s in (c.prefs.docs[d] for d in sorted(c.prefs.docs))
                    ],
                }
                for c in self.cases
            ],
            "cluster_of": list(self.cluster_of),
            "medoids": list(self.medoids),
            "hlcs": sorted(list(s.as_tuple()) for s in self.hlcs),
            "weights": self.weights.to_snapshot(),
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_snapshot(), indent=1, sort_keys=True) + "\n")

    @classmethod
    def from_snapshot(cls, doc: dict, taxonomies: Taxonomies,
                      index: Optional[SituationIndex] = None) -> "CaseBase":
        cb = cls(taxonomies,
                 weights=DimensionWeights.from_snapshot(doc["weights"]),
                 index=index)
        for entry in doc["cases"]:
            prefs = UserPreferences({
                d["doc_id"]: DocumentStats(d["doc_id"], d["clicks"],
                                           d["impressions"],
                                           d["reading_time"], d["rating"])
                for d in entry["docs"]
            })
            cb.cases.append(Case(Situation(*entry["situation"]), prefs))
            cb.encoded.append(cb.index.encode(cb.cases[-1].situation))
        cb.set_partition(doc["cluster_of"], doc["medoids"])
        cb.hlcs = {Situation(*t) for t in doc["hlcs"]}
        return cb

    @classmethod
    def load(cls, path: Union[str, Path], taxonomies: Taxonomies,
             **kwargs) -> "CaseBase":
        return cls.from_snapshot(json.loads(Path(path).read_text()),
                                 taxonomies, **kwargs)
