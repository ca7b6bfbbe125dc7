"""Case memory: (situation, preferences) pairs with nearest-case retrieval.

Each situation is stored in at most one case, and `CaseBase.case_of` maps
it to that case's index. Retrieval answers a query whose situation is
stored from that map; any other query is scored against every case by
weighted similarity. Preference maintenance merges feedback into the case
stored for the situation or inserts a new case. Counts are immutable
`DocumentStats` values that maps share instead of copying.

Each preference map also owns the CTR ranking that slate selection reads:
`_ctr` is the one CTR definition, and a map builds its ranking on the
first read and keeps it current in `merge` after that.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import ParseError
from .simindex import EncodedSituations, SituationIndex
from .situation import DimensionWeights, Situation, unweighted_sum


def _ctr(clicks: int, impressions: int) -> float:
    """Empirical click-through rate; zero-impression documents score 0,
    and clicks are capped at impressions (organic clicks never push the
    rate above 1)."""
    if impressions <= 0:
        return 0.0
    return clicks / impressions if clicks < impressions else 1.0


class DocumentStats(NamedTuple):
    """Click and impression counts for one document in one situation's
    preferences, keyed by doc id in its map; immutable, so maps share it."""

    clicks: int = 0
    impressions: int = 0


#: A map's CTR ranking: its (-ctr, doc_id) keys in ascending order (best
#: CTR first, lowest doc id first among equal CTRs).
Ranking = List[Tuple[float, str]]


class UserPreferences:
    """Map of doc_id -> DocumentStats, with a CTR ranking derived from it.

    `docs` is the only source of truth. The ranking, one sorted list of
    `(-ctr, doc_id)` keys with the CTR of `_ctr`, is built on the first
    call to `ranking()` and `merge` keeps it current from then on, so
    after the first slate read from a map its `docs` may change only
    through `merge`. Maps that are only merged from (feedback) never build
    one.
    """

    def __init__(self, docs: Optional[Dict[str, DocumentStats]] = None):
        self.docs: Dict[str, DocumentStats] = docs if docs is not None else {}
        self._ranking: Optional[Ranking] = None

    def ranking(self) -> Ranking:
        """The map's CTR ranking; treat it as read-only."""
        if self._ranking is None:
            self._ranking = sorted([(-_ctr(c, n), d)
                                    for d, (c, n) in self.docs.items()])
        return self._ranking

    def merge(self, other: "UserPreferences") -> None:
        """Add the other map's counts to these, sharing a new document's
        value; a ranking already built moves each changed key once."""
        docs = self.docs
        get = docs.get
        ctr = _ctr
        keys = self._ranking
        make = tuple.__new__  # 2.5x faster than DocumentStats(...)
        for doc_id, stats in other.docs.items():
            mine = get(doc_id)
            if mine is None:
                docs[doc_id] = stats
                if keys is not None:
                    insort(keys, (-ctr(stats.clicks, stats.impressions),
                                  doc_id))
                continue
            clicks, impressions = mine
            new_clicks = clicks + stats.clicks
            new_impressions = impressions + stats.impressions
            docs[doc_id] = make(DocumentStats, (new_clicks, new_impressions))
            if keys is not None:
                old = -ctr(clicks, impressions)
                new = -ctr(new_clicks, new_impressions)
                if new != old:
                    del keys[bisect_left(keys, (old, doc_id))]
                    insort(keys, (new, doc_id))

    def __len__(self) -> int:
        return len(self.docs)


@dataclass
class Case:
    situation: Situation
    prefs: UserPreferences


@dataclass(slots=True)
class RetrievalResult:
    case_index: int
    case: Case
    per_dim_sims: Tuple[float, float, float]

    @property
    def unweighted_sim(self) -> float:
        return unweighted_sum(self.per_dim_sims)


def _field(doc, key: str, kind: type, what: str):
    """`doc[key]` of a snapshot mapping, which must be exactly a `kind`."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{what} has no {key!r} entry")
    if type(doc[key]) is not kind:
        raise ParseError(f"{what} {key} {doc[key]!r} is not of type "
                         f"{kind.__name__}")
    return doc[key]


def _situation(value) -> Situation:
    if not isinstance(value, list) or len(value) != 3 \
            or not all(type(c) is str for c in value):
        raise ParseError(f"snapshot situation {value!r} is not three "
                         f"concept ids")
    return Situation(*value)


def _document(doc) -> Tuple[str, DocumentStats]:
    """A snapshot doc entry's id and counters."""
    doc_id = _field(doc, "doc_id", str, "snapshot doc")
    stats = DocumentStats(_field(doc, "clicks", int, "snapshot doc"),
                          _field(doc, "impressions", int, "snapshot doc"))
    if stats.clicks < 0 or stats.impressions < 0:
        raise ParseError(f"snapshot doc {doc_id!r} has a negative count")
    return doc_id, stats


class CaseBase:
    """All cases plus their situation index and weights.

    `case_of` maps each stored situation to its case index; no situation
    is stored twice. Single-writer mutable state owned by one engine
    instance.
    """

    def __init__(self, index: SituationIndex):
        self.index = index
        self.weights = DimensionWeights()
        self.cases: List[Case] = []
        self.case_of: Dict[Situation, int] = {}
        self.encoded = EncodedSituations()

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
        index = self.index
        q = index.encode(current)
        enc = self.encoded
        sims = index.weighted_to_many(q, enc.loc, enc.tim, enc.soc,
                                      self.weights.alpha)
        best = int(sims.argmax())
        per_dim = index.per_dim_sims(q, enc.row(best))
        return RetrievalResult(best, self.cases[best], per_dim)

    # -- maintenance -------------------------------------------------------

    def update_preferences(self, current: Situation,
                           feedback: UserPreferences) -> None:
        """Merge feedback into the case stored for `current`, else insert a
        new case holding a copy of its map (the counts are shared)."""
        hit = self.case_of.get(current)
        if hit is not None:
            self.cases[hit].prefs.merge(feedback)
        else:
            self._insert(Case(current, UserPreferences(dict(feedback.docs))))

    def _insert(self, case: Case) -> None:
        self.encoded.append(self.index.encode(case.situation))
        self.case_of[case.situation] = len(self.cases)
        self.cases.append(case)

    # -- snapshot ----------------------------------------------------------

    def to_snapshot(self) -> dict:
        """The cases and weights as plain JSON-ready values."""
        return {
            "cases": [
                {
                    "situation": list(c.situation.as_tuple()),
                    "docs": [
                        {"doc_id": d, "clicks": s.clicks,
                         "impressions": s.impressions}
                        for d, s in sorted(c.prefs.docs.items())
                    ],
                }
                for c in self.cases
            ],
            "weights": self.weights.to_snapshot(),
        }

    @classmethod
    def from_snapshot(cls, doc: dict, index: SituationIndex) -> "CaseBase":
        """Rebuild a case base from `to_snapshot` output.

        A snapshot is outside input: a missing key, a malformed situation,
        document or count, and a situation or doc id listed twice raise
        ParseError. Keys that older snapshots carry are ignored: a
        partition's `cluster_of` and `medoids`, the former `hlcs` list of
        critical situations, and each document's two former fields besides
        its clicks and impressions.
        """
        cb = cls(index)
        cb.weights = DimensionWeights.from_snapshot(
            _field(doc, "weights", dict, "snapshot"))
        for entry in _field(doc, "cases", list, "snapshot"):
            situation = _situation(
                _field(entry, "situation", list, "snapshot case"))
            if situation in cb.case_of:
                raise ParseError(f"snapshot lists situation "
                                 f"{situation.as_tuple()} twice")
            docs: Dict[str, DocumentStats] = {}
            for d in _field(entry, "docs", list, "snapshot case"):
                doc_id, stats = _document(d)
                if doc_id in docs:
                    raise ParseError(f"snapshot case {situation.as_tuple()} "
                                     f"lists doc {doc_id!r} twice")
                docs[doc_id] = stats
            cb._insert(Case(situation, UserPreferences(docs)))
        return cb
