import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from situbandit.casebase import (Case, CaseBase, DocumentStats,
                                 UserPreferences)
from situbandit.clustering import (ClusteringConfig, cluster_situations,
                                   kmedoids)
from situbandit.errors import LabelMismatch
from situbandit.ontology import Dimension
from situbandit.simindex import SituationIndex
from situbandit.situation import Situation, Taxonomies, is_exact_match

from conftest import two_level


def prefs(**clicks):
    return UserPreferences({d: DocumentStats(d, clicks=c, impressions=c)
                            for d, c in clicks.items()})


def test_document_stats_merge_semantics():
    a = DocumentStats("d1", clicks=2, impressions=5, reading_time=1.5,
                      rating=3)
    a.merge(DocumentStats("d1", clicks=3, impressions=4, reading_time=0.5,
                          rating=5))
    assert (a.clicks, a.impressions, a.reading_time) == (5, 9, 2.0)
    assert a.rating == 5  # newest rating wins, counters add


def test_preferences_merge_disjoint_and_overlap():
    p = prefs(d1=2)
    p.merge(prefs(d1=3, d2=1))
    assert p.docs["d1"].clicks == 5
    assert p.docs["d2"].clicks == 1
    assert len(p) == 2 and bool(p)
    assert not UserPreferences()


def test_retrieve_empty_returns_none(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    assert cb.retrieve(Situation("La1", "Ta1", "Sa1")) is None


def test_retrieve_exact_copy(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    cb.update_preferences(base_situation, None, prefs(d1=1))
    got = cb.retrieve(Situation("La1", "Ta1", "Sa1"))
    assert got.case_index == 0
    assert got.per_dim_sims == (1.0, 1.0, 1.0)
    assert got.unweighted_sim == pytest.approx(3.0)


def test_update_merges_on_exact_match(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    cb.update_preferences(base_situation, None, prefs(d1=2))
    got = cb.retrieve(base_situation)
    cb.update_preferences(base_situation, got, prefs(d1=3))
    assert len(cb) == 1
    assert cb.cases[0].prefs.docs["d1"].clicks == 5


def test_update_inserts_on_inexact_match(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    cb.update_preferences(base_situation, None, prefs(d1=1))
    near = Situation("La2", "Ta1", "Sa1")  # sibling location, sim < 3
    got = cb.retrieve(near)
    cb.update_preferences(near, got, prefs(d2=1))
    assert len(cb) == 2
    assert cb.cases[0].prefs.docs["d1"].clicks == 1
    assert "d1" not in cb.cases[1].prefs.docs


def test_feedback_is_copied_on_insert(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    fb = prefs(d1=1)
    cb.update_preferences(base_situation, None, fb)
    fb.docs["d1"].clicks = 99
    assert cb.cases[0].prefs.docs["d1"].clicks == 1


@pytest.fixture
def routed_cb(tiny_taxonomies):
    """Six cases in two hand-labeled clusters: the 'a' corner and the
    'b' corner of each taxonomy."""
    cb = CaseBase(tiny_taxonomies)
    sits = [
        Situation("La1", "Ta1", "Sa1"),  # cluster 0
        Situation("La2", "Ta1", "Sa1"),
        Situation("La1", "Ta2", "Sa2"),
        Situation("Lb1", "Tb1", "Sb1"),  # cluster 1
        Situation("Lb2", "Tb1", "Sb1"),
        Situation("Lb1", "Tb2", "Sb2"),
    ]
    for i, s in enumerate(sits):
        cb.update_preferences(s, None, prefs(**{f"d{i}": 1}))
    cb.set_partition([0, 0, 0, 1, 1, 1], [0, 3])
    return cb


def test_cluster_routing_picks_right_corner(routed_cb):
    got = routed_cb.retrieve(Situation("La2", "Ta2", "Sa1"))
    assert got.case_index in (0, 1, 2)
    got = routed_cb.retrieve(Situation("Lb2", "Tb2", "Sb1"))
    assert got.case_index in (3, 4, 5)


def test_insert_joins_nearest_medoid_cluster(routed_cb):
    s = Situation("Lb2", "Tb2", "Sb2")
    routed_cb.update_preferences(s, routed_cb.retrieve(s), prefs(d9=1))
    assert routed_cb.cluster_of[-1] == 1


def test_tie_breaks_to_lowest_case_index(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    s = Situation("La1", "Ta1", "Sa1")
    # duplicate situations never arise through update_preferences
    cb._insert(Case(s, prefs(d1=1)))
    cb._insert(Case(s, prefs(d2=1)))
    assert cb.cluster_of == [0, 0] and cb.medoids == [0]
    assert cb.retrieve(s).case_index == 0


def test_retrieval_is_deterministic(routed_cb):
    q = Situation("La2", "Tb1", "Sa2")
    first = routed_cb.retrieve(q).case_index
    for _ in range(5):
        assert routed_cb.retrieve(q).case_index == first


def test_routing_agrees_with_exhaustive_when_separable(tiny_taxonomies):
    # corner-shaped clusters: route and exhaustive scan must agree on
    # the vast majority of queries; a never-partitioned base scans all cases
    routed = CaseBase(tiny_taxonomies)
    flat = CaseBase(tiny_taxonomies)
    rng = np.random.default_rng(5)
    corners = {"a": ("La", "Ta", "Sa"), "b": ("Lb", "Tb", "Sb")}
    sits = []
    for key in ("a", "b"):
        lp, tp, sp = corners[key]
        for _ in range(15):
            sits.append(Situation(f"{lp}{rng.integers(1, 3)}",
                                  f"{tp}{rng.integers(1, 3)}",
                                  f"{sp}{rng.integers(1, 3)}"))
    for cb in (routed, flat):
        for i, s in enumerate(sits):
            cb.update_preferences(s, cb.retrieve(s), prefs(**{f"d{i}": 1}))
    labels = [0 if s.location.startswith("La") else 1
              for s in (c.situation for c in routed.cases)]
    medoid0 = labels.index(0)
    medoid1 = labels.index(1)
    routed.set_partition(labels, [medoid0, medoid1])
    agree = 0
    queries = [Situation(f"L{c}{i}", f"T{c}{j}", f"S{c}{k}")
               for c in "ab" for i in (1, 2) for j in (1, 2) for k in (1, 2)]
    for q in queries:
        a = routed.retrieve(q)
        b = flat.retrieve(q)
        agree += abs(a.unweighted_sim - b.unweighted_sim) < 1e-12
    assert agree / len(queries) >= 0.95


def test_set_partition_label_mismatch(routed_cb):
    with pytest.raises(LabelMismatch):
        routed_cb.set_partition([0, 1], [0, 3])


@pytest.mark.parametrize("labels, medoids", [
    ([0, 0, 0, 1, 1, 2], [0, 3]),     # a label without a medoid
    ([0, 0, 0, 1, 1, -1], [0, 3]),    # a negative label
    ([0, 0, 0, 1, 1, 1], [0, 6]),     # a medoid past the last case
    ([0, 0, 0, 1, 1, 1], [0, -1]),    # a negative medoid
    ([0, 0, 0, 1, 1, 1], [0, 1]),     # a medoid outside its own cluster
])
def test_bad_partition_is_refused_on_load(routed_cb, tiny_taxonomies,
                                          labels, medoids):
    with pytest.raises(LabelMismatch):
        routed_cb.set_partition(labels, medoids)
    doc = routed_cb.to_snapshot()
    doc.update(cluster_of=labels, medoids=medoids)
    with pytest.raises(LabelMismatch):
        CaseBase.from_snapshot(doc, tiny_taxonomies)


def test_hlcs_membership(tiny_taxonomies, base_situation):
    cb = CaseBase(tiny_taxonomies)
    assert not cb.is_hlcs(base_situation)
    cb.mark_hlcs(base_situation)
    cb.mark_hlcs(base_situation)  # idempotent
    assert cb.is_hlcs(base_situation)
    assert cb.is_hlcs(Situation("La1", "Ta1", "Sa1"))  # value equality
    assert len(cb.hlcs) == 1


def test_snapshot_roundtrip(routed_cb, tmp_path, tiny_taxonomies):
    routed_cb.mark_hlcs(Situation("La1", "Ta1", "Sa1"))
    routed_cb.weights.record((0.5, 1.0, 0.25))
    path = tmp_path / "cases.json"
    routed_cb.save(path)
    back = CaseBase.load(path, tiny_taxonomies)
    assert len(back) == len(routed_cb)
    assert back.cluster_of == routed_cb.cluster_of
    assert back.medoids == routed_cb.medoids
    assert back.hlcs == routed_cb.hlcs
    assert back.weights.alpha == routed_cb.weights.alpha
    for mine, theirs in zip(routed_cb.cases, back.cases):
        assert mine.situation == theirs.situation
        assert {d: s.clicks for d, s in mine.prefs.docs.items()} == \
            {d: s.clicks for d, s in theirs.prefs.docs.items()}
    # and the reloaded base retrieves identically
    q = Situation("Lb2", "Ta1", "Sb1")
    assert back.retrieve(q).case_index == routed_cb.retrieve(q).case_index


TAXONOMIES = Taxonomies(two_level(Dimension.LOCATION, "L"),
                        two_level(Dimension.TIME, "T"),
                        two_level(Dimension.SOCIAL, "S"))
INDEX = SituationIndex(TAXONOMIES)
SITUATIONS = [Situation(*c) for c in itertools.product(
    *(sorted(t.nodes) for t in TAXONOMIES.as_tuple()))]


class LabelListPartition:
    """Reference partition kept as a case -> cluster label list: an insert
    joins the medoid nearest to it, and retrieval rebuilds the routed
    cluster's members from the labels on every call."""

    def __init__(self, weights):
        self.weights = weights
        self.encoded = []
        self.labels = []
        self.medoids = []

    def _nearest_medoid(self, q) -> int:
        loc, tim, soc = np.array(self.encoded, dtype=np.int64).T
        med = np.asarray(self.medoids)
        return int(np.argmax(INDEX.weighted_to_many(
            q, loc[med], tim[med], soc[med], self.weights.alpha)))

    def retrieve(self, q):
        if not self.encoded:
            return None
        if len(self.medoids) > 1:
            members = np.flatnonzero(
                np.asarray(self.labels) == self._nearest_medoid(q))
        else:
            members = np.arange(len(self.encoded))
        loc, tim, soc = np.array(self.encoded, dtype=np.int64)[members].T
        sims = INDEX.weighted_to_many(q, loc, tim, soc, self.weights.alpha)
        return int(members[int(np.argmax(sims))])

    def insert(self, q) -> None:
        self.encoded.append(q)
        if not self.medoids:
            self.medoids.append(0)
            self.labels.append(0)
        else:
            self.labels.append(self._nearest_medoid(q))

    def recluster(self, cfg: ClusteringConfig) -> None:
        loc, tim, soc = np.array(self.encoded, dtype=np.int64).T
        result = kmedoids(
            INDEX.pairwise_weighted(loc, tim, soc, self.weights.alpha), cfg)
        self.labels = [int(l) for l in result.labels]
        self.medoids = list(result.medoids)


partition_ops = st.lists(st.one_of(
    st.tuples(st.just("trial"), st.sampled_from(SITUATIONS)),
    st.tuples(st.just("record"), st.tuples(*[st.floats(0.0, 1.0)] * 3)),
    st.tuples(st.just("recluster"), st.integers(1, 4),
              st.integers(0, 2 ** 16))), max_size=60)


@given(partition_ops)
def test_partition_matches_label_list_reference(ops):
    cb = CaseBase(TAXONOMIES, index=INDEX)
    ref = LabelListPartition(cb.weights)
    for op in ops:
        if op[0] == "trial":
            s = op[1]
            q = INDEX.encode(s)
            got = cb.retrieve(s)
            want = ref.retrieve(q)
            assert (None if got is None else got.case_index) == want
            cb.update_preferences(s, got, prefs(d1=1))
            if want is None or not is_exact_match(
                    sum(INDEX.per_dim_sims(q, ref.encoded[want]))):
                ref.insert(q)
        elif op[0] == "record":
            cb.weights.record(op[1])
        elif len(cb) >= op[1]:
            cfg = ClusteringConfig(num_clusters=op[1], seed=op[2])
            cluster_situations(cb, cfg)
            ref.recluster(cfg)
        assert cb.cluster_of == ref.labels
    assert cb.medoids == ref.medoids
