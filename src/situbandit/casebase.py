"""Case memory: (situation, preferences) pairs with cluster-routed retrieval.

Retrieval first picks the cluster whose medoid is most similar to the query
(weighted similarity), then the best case inside that cluster; while the
case base holds a single cluster (it was never partitioned) that is an
exhaustive scan. Preference maintenance merges feedback into an
exactly-matching case or inserts a new case otherwise; new cases join the
nearest medoid's cluster until the next re-clustering pass.

Each preference map also owns the CTR ranking that slate selection reads:
`DocumentStats.ctr` is the one CTR definition, and a map builds its ranking
on the first read and keeps it current in `merge` after that.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

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

    @property
    def unweighted_sim(self) -> float:
        return sum(self.per_dim_sims)


class CaseBase:
    """All cases plus cluster assignments, medoids, HLCS set and weights.

    Single-writer mutable state owned by one engine instance.
    """

    def __init__(self, taxonomies: Taxonomies,
                 weights: Optional[DimensionWeights] = None,
                 hlcs: Iterable[Situation] = (),
                 index: Optional[SituationIndex] = None):
        self.taxonomies = taxonomies
        self.index = index if index is not None else SituationIndex(taxonomies)
        self.weights = weights if weights is not None else DimensionWeights()
        self.cases: List[Case] = []
        self.encoded = EncodedSituations(self.index)
        self.cluster_of: List[int] = []
        self.medoids: List[int] = []  # cluster id -> case index
        self.hlcs: set = set(hlcs)

    def __len__(self) -> int:
        return len(self.cases)

    @property
    def num_clusters(self) -> int:
        return len(self.medoids)

    # -- retrieval ---------------------------------------------------------

    def retrieve(self, current: Situation) -> Optional[RetrievalResult]:
        """Nearest case via cluster routing; None on an empty case base."""
        if not self.cases:
            return None
        q = self.index.encode(current)
        alpha = self.weights.alpha
        enc = self.encoded
        if len(self.medoids) > 1:
            med = np.asarray(self.medoids)
            med_sims = self.index.weighted_to_many(
                q, enc.loc[med], enc.tim[med], enc.soc[med], alpha)
            cluster = int(np.argmax(med_sims))
            members = np.flatnonzero(
                np.asarray(self.cluster_of) == cluster)
        else:
            members = np.arange(len(self.cases))
        sims = self.index.weighted_to_many(
            q, enc.loc[members], enc.tim[members], enc.soc[members], alpha)
        best = int(members[int(np.argmax(sims))])
        per_dim = self.index.per_dim_sims(q, self.encoded.row(best))
        return RetrievalResult(best, self.cases[best], per_dim)

    # -- maintenance -------------------------------------------------------

    def update_preferences(self, current: Situation,
                           retrieved: Optional[RetrievalResult],
                           feedback: UserPreferences) -> None:
        """Merge feedback into an exact-matching case, else insert a new one."""
        if retrieved is not None and is_exact_match(retrieved.unweighted_sim):
            retrieved.case.prefs.merge(feedback)
            return
        self._insert(Case(current, feedback.copy()))

    def _insert(self, case: Case) -> int:
        idx = len(self.cases)
        self.cases.append(case)
        q = self.index.encode(case.situation)
        self.encoded.append(q)
        if not self.medoids:
            self.medoids.append(idx)
            self.cluster_of.append(0)
        else:
            enc = self.encoded
            med = np.asarray(self.medoids)
            sims = self.index.weighted_to_many(
                q, enc.loc[med], enc.tim[med], enc.soc[med],
                self.weights.alpha)
            self.cluster_of.append(int(np.argmax(sims)))
        return idx

    def mark_hlcs(self, s: Situation) -> None:
        self.hlcs.add(s)

    def is_hlcs(self, s: Situation) -> bool:
        return s in self.hlcs

    def set_partition(self, labels: Iterable[int],
                      medoids: Iterable[int]) -> None:
        labels = list(labels)
        medoids = list(medoids)
        if len(labels) != len(self.cases):
            raise LabelMismatch(
                f"{len(labels)} labels for {len(self.cases)} cases")
        self.cluster_of = labels
        self.medoids = medoids

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
        cb.cluster_of = list(doc["cluster_of"])
        cb.medoids = list(doc["medoids"])
        cb.hlcs = {Situation(*t) for t in doc["hlcs"]}
        return cb

    @classmethod
    def load(cls, path: Union[str, Path], taxonomies: Taxonomies,
             **kwargs) -> "CaseBase":
        return cls.from_snapshot(json.loads(Path(path).read_text()),
                                 taxonomies, **kwargs)
