import itertools

import numpy as np
import pytest

from situbandit.casebase import CaseBase, DocumentStats, UserPreferences
from situbandit.clustering import (ClusteringConfig, cluster_situations,
                                   kmedoids, should_recluster)
from situbandit.errors import TooFewCases
from situbandit.situation import Situation


def random_sim_matrix(rng, n):
    """Symmetric similarity matrix with unit diagonal, values in (0, 1]."""
    m = rng.uniform(0.01, 0.99, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    return m


def brute_force_best(sim, k):
    """Exhaustive optimum of the assignment objective over all medoid sets."""
    n = sim.shape[0]
    best = -np.inf
    for medoids in itertools.combinations(range(n), k):
        best = max(best, float(sim[:, list(medoids)].max(axis=1).sum()))
    return best


def objective(sim, labels, medoids):
    medoids = np.asarray(medoids)
    return float(sim[np.arange(len(labels)), medoids[labels]].sum())


def test_should_recluster_schedule():
    assert not should_recluster(0, 40)
    assert not should_recluster(39, 40)
    assert should_recluster(40, 40)
    assert should_recluster(80, 40)
    assert not should_recluster(41, 40)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusteringConfig(num_clusters=0)
    with pytest.raises(ValueError):
        ClusteringConfig(max_iterations=0)
    with pytest.raises(ValueError):
        ClusteringConfig(recluster_period=0)


def test_too_few_cases():
    sim = np.eye(3)
    with pytest.raises(TooFewCases):
        kmedoids(sim, ClusteringConfig(num_clusters=5))


def test_kmedoids_basic_invariants():
    rng = np.random.default_rng(0)
    sim = random_sim_matrix(rng, 30)
    res = kmedoids(sim, ClusteringConfig(num_clusters=4, seed=1))
    assert len(res.medoids) == 4
    assert len(set(res.medoids)) == 4
    assert len(res.labels) == 30
    assert set(res.labels) == set(range(4))
    for cid, m in enumerate(res.medoids):
        assert res.labels[m] == cid
    # canonical ids: clusters ordered by medoid index
    assert res.medoids == sorted(res.medoids)


def test_objective_trace_monotone_many_runs():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(2, min(6, n)))
        sim = random_sim_matrix(rng, n)
        res = kmedoids(sim, ClusteringConfig(num_clusters=k,
                                             seed=int(rng.integers(10**6))))
        trace = res.objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        # the reported partition realizes the final trace value
        assert objective(sim, res.labels, res.medoids) == \
            pytest.approx(trace[-1])


def test_kmedoids_finds_bruteforce_optimum_two_groups():
    # two tight blobs: within-sim high, across-sim low
    rng = np.random.default_rng(7)
    n = 10
    sim = np.full((n, n), 0.1)
    for block in (slice(0, 5), slice(5, 10)):
        sim[block, block] = rng.uniform(0.7, 0.9, size=(5, 5))
    sim = (sim + sim.T) / 2
    np.fill_diagonal(sim, 1.0)
    res = kmedoids(sim, ClusteringConfig(num_clusters=2, seed=3))
    assert objective(sim, res.labels, res.medoids) == \
        pytest.approx(brute_force_best(sim, 2))
    assert set(res.labels[:5]) != set(res.labels[5:])


def test_kmedoids_deterministic_given_seed():
    rng = np.random.default_rng(9)
    sim = random_sim_matrix(rng, 25)
    cfg = ClusteringConfig(num_clusters=3, seed=17)
    a = kmedoids(sim, cfg)
    b = kmedoids(sim, cfg)
    assert a.medoids == b.medoids
    assert np.array_equal(a.labels, b.labels)


def test_cluster_situations_roundtrip(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    corners = [("La", "Ta", "Sa"), ("Lb", "Tb", "Sb")]
    rng = np.random.default_rng(2)
    for lp, tp, sp in corners:
        for _ in range(8):
            s = Situation(f"{lp}{rng.integers(1, 3)}",
                          f"{tp}{rng.integers(1, 3)}",
                          f"{sp}{rng.integers(1, 3)}")
            cb.update_preferences(s, cb.retrieve(s), UserPreferences(
                {"d": DocumentStats("d", clicks=1, impressions=1)}))
    cluster_situations(cb, ClusteringConfig(num_clusters=2, seed=0))
    assert cb.num_clusters == 2
    # the two corners separate perfectly
    corner = ["a" if c.situation.location.startswith("La") else "b"
              for c in cb.cases]
    by_label = {}
    for lab, c in zip(cb.cluster_of, corner):
        by_label.setdefault(lab, set()).add(c)
    assert all(len(v) == 1 for v in by_label.values())


def test_similarity_matrix_matches_scalar_path(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    from situbandit.situation import weighted_similarity
    sits = [Situation("La1", "Ta2", "Sb1"), Situation("Lb2", "Tb1", "Sa2"),
            Situation("Lroot", "Troot", "Sroot")]
    for s in sits:
        cb.update_preferences(s, None, UserPreferences(
            {"d": DocumentStats("d", clicks=1, impressions=1)}))
    enc = cb.encoded
    mat = cb.index.pairwise_weighted(enc.loc, enc.tim, enc.soc,
                                     cb.weights.alpha)
    for i, a in enumerate(sits):
        for j, b in enumerate(sits):
            assert mat[i, j] == pytest.approx(
                weighted_similarity(a, b, cb.weights, tiny_taxonomies),
                abs=1e-12)
