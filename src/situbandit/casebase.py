"""Case memory: (situation, preferences) pairs with nearest-case retrieval.

Each situation is stored in at most one case, and `CaseBase.case_of` maps
it to that case's index. Retrieval answers a query whose situation is
stored from that map; any other query is scored against every case by
weighted similarity. Preference maintenance merges feedback into the case
stored for the situation or inserts a new case.

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

from .errors import ParseError
from .simindex import EncodedSituations, SituationIndex
from .situation import DimensionWeights, Situation, Taxonomies


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
    """All cases plus their situation index, HLCS set and weights.

    `case_of` maps each stored situation to its case index; no situation
    is stored twice. Single-writer mutable state owned by one engine
    instance.
    """

    def __init__(self, taxonomies: Taxonomies,
                 weights: Optional[DimensionWeights] = None,
                 hlcs: Iterable[Situation] = (),
                 index: Optional[SituationIndex] = None):
        self.index = index if index is not None else SituationIndex(taxonomies)
        self.weights = weights if weights is not None else DimensionWeights()
        self.cases: List[Case] = []
        self.case_of: Dict[Situation, int] = {}
        self.encoded = EncodedSituations()
        self.hlcs: set = set(hlcs)

    def __len__(self) -> int:
        return len(self.cases)

    # -- retrieval ---------------------------------------------------------

    def retrieve(self, current: Situation) -> Optional[RetrievalResult]:
        """The case most similar to `current` by weighted similarity, the
        lowest case index among ties; None on an empty case base.

        A stored situation is answered from `case_of`. Wu-Palmer similarity
        is 1 only between identical concepts, and every alpha is > 0 (1/3
        at first, then a mean of such similarities): the stored case is the
        unique argmax of the scan, and its per-dimension similarities are
        exactly 1.0 (the concept-matrix diagonal is 2d/(2d)). Any other
        query is scored against every case.
        """
        if not self.cases:
            return None
        hit = self.case_of.get(current)
        if hit is not None:
            return RetrievalResult(hit, self.cases[hit], (1.0, 1.0, 1.0))
        q = self.index.encode(current)
        enc = self.encoded
        sims = self.index.weighted_to_many(q, enc.loc, enc.tim, enc.soc,
                                           self.weights.alpha)
        best = int(np.argmax(sims))
        per_dim = self.index.per_dim_sims(q, enc.row(best))
        return RetrievalResult(best, self.cases[best], per_dim)

    # -- maintenance -------------------------------------------------------

    def update_preferences(self, current: Situation,
                           feedback: UserPreferences) -> None:
        """Merge feedback into the case stored for `current`, else insert a
        new case holding a copy of it."""
        hit = self.case_of.get(current)
        if hit is not None:
            self.cases[hit].prefs.merge(feedback)
        else:
            self._insert(Case(current, feedback.copy()))

    def _insert(self, case: Case) -> None:
        self.encoded.append(self.index.encode(case.situation))
        self.case_of[case.situation] = len(self.cases)
        self.cases.append(case)

    def mark_hlcs(self, s: Situation) -> None:
        self.hlcs.add(s)

    def is_hlcs(self, s: Situation) -> bool:
        return s in self.hlcs

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
            "hlcs": sorted(list(s.as_tuple()) for s in self.hlcs),
            "weights": self.weights.to_snapshot(),
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_snapshot(), indent=1, sort_keys=True) + "\n")

    @classmethod
    def from_snapshot(cls, doc: dict, taxonomies: Taxonomies,
                      index: Optional[SituationIndex] = None) -> "CaseBase":
        """Rebuild a case base from `to_snapshot` output. The `cluster_of`
        and `medoids` keys of snapshots that still carry a partition are
        ignored; a snapshot that lists one situation twice is refused."""
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
            situation = Situation(*entry["situation"])
            if situation in cb.case_of:
                raise ParseError(f"snapshot lists situation "
                                 f"{situation.as_tuple()} twice")
            cb._insert(Case(situation, prefs))
        cb.hlcs = {Situation(*t) for t in doc["hlcs"]}
        return cb

    @classmethod
    def load(cls, path: Union[str, Path], taxonomies: Taxonomies,
             **kwargs) -> "CaseBase":
        return cls.from_snapshot(json.loads(Path(path).read_text()),
                                 taxonomies, **kwargs)
