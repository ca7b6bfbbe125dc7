import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from situbandit import clustering, simindex
from situbandit.casebase import CaseBase, DocumentStats, UserPreferences
from situbandit.clustering import (ClusteringConfig, cluster_situations,
                                   kmedoids)
from situbandit.errors import ConfigError, TooFewCases
from situbandit.ontology import Dimension
from situbandit.simdata import balanced_taxonomy
from situbandit.simindex import SituationIndex
from situbandit.situation import DimensionWeights, Situation, Taxonomies

from oracles import casebase_state


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


def test_config_validation():
    with pytest.raises(ValueError):
        ClusteringConfig(num_clusters=0)
    with pytest.raises(ValueError):
        ClusteringConfig(max_iterations=0)
    for bad in ({"num_clusters": 2.5}, {"num_clusters": True},
                {"max_iterations": "60"}, {"seed": -1}):
        with pytest.raises(ConfigError):
            ClusteringConfig(**bad)


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
            cb.update_preferences(s, UserPreferences(
                {"d": DocumentStats(clicks=1, impressions=1)}))
    before = casebase_state(cb)
    result = cluster_situations(cb, ClusteringConfig(num_clusters=2, seed=0))
    assert len(result.medoids) == 2
    assert len(result.labels) == len(cb)
    assert casebase_state(cb) == before  # the case base is left as it was
    # the two corners separate perfectly
    corner = ["a" if c.situation.location.startswith("La") else "b"
              for c in cb.cases]
    by_label = {}
    for lab, c in zip(result.labels, corner):
        by_label.setdefault(lab, set()).add(c)
    assert all(len(v) == 1 for v in by_label.values())


def test_similarity_matrix_matches_scalar_path(tiny_taxonomies):
    cb = CaseBase(tiny_taxonomies)
    from oracles import weighted_similarity
    sits = [Situation("La1", "Ta2", "Sb1"), Situation("Lb2", "Tb1", "Sa2"),
            Situation("Lroot", "Troot", "Sroot")]
    for s in sits:
        cb.update_preferences(s, UserPreferences(
            {"d": DocumentStats(clicks=1, impressions=1)}))
    enc = cb.encoded
    mat = cb.index.pairwise_weighted(enc.loc, enc.tim, enc.soc,
                                     cb.weights.alpha)
    for i, a in enumerate(sits):
        for j, b in enumerate(sits):
            assert mat[i, j] == pytest.approx(
                weighted_similarity(a, b, cb.weights, tiny_taxonomies),
                abs=1e-12)


# -- oracles: the column-scan swap refinement, and the np.ix_ and
# whole-matrix gather-add similarity builds, that the blocked forms replaced


def oracle_swap_refine(sim, medoids, passes):
    n = sim.shape[0]
    k = len(medoids)
    improved_any = False
    for _ in range(passes):
        improved = False
        for cid in range(k):
            others = np.delete(medoids, cid)
            if len(others):
                without = sim[:, others].max(axis=1)
            else:
                without = np.full(n, -np.inf)
            current = float(np.maximum(without, sim[:, medoids[cid]]).sum())
            cand = np.setdiff1d(np.arange(n), medoids)
            if not len(cand):
                continue
            gains = np.maximum(without[:, None], sim[:, cand]).sum(axis=0)
            best = int(np.argmax(gains))
            if gains[best] > current + 1e-9:
                medoids[cid] = cand[best]
                improved = True
                improved_any = True
        if not improved:
            break
    return improved_any


def oracle_kmedoids(sim, cfg):
    with mock.patch.object(clustering, "_swap_refine", oracle_swap_refine):
        return kmedoids(sim, cfg)


def oracle_pairwise_weighted(index, loc, tim, soc, alpha):
    m0, m1, m2 = index.matrices
    return (alpha[0] * m0[np.ix_(loc, loc)]
            + alpha[1] * m1[np.ix_(tim, tim)]
            + alpha[2] * m2[np.ix_(soc, soc)])


def oracle_gather_add(index, loc, tim, soc, alpha):
    m0, m1, m2 = (a * m for a, m in zip(alpha, index.matrices))
    out = m0.take(loc, 0).take(loc, 1)
    out += m1.take(tim, 0).take(tim, 1)
    out += m2.take(soc, 0).take(soc, 1)
    return out


def quantized_sim_matrix(rng, n, levels, duplicates):
    """Exactly symmetric matrix with unit diagonal whose off-diagonal values
    are multiples of 1/levels, so equal gains occur; `duplicates` cases are
    made copies of others, so equal rows occur too."""
    m = rng.integers(0, levels + 1, size=(n, n)) / levels
    m = np.triu(m, 1) + np.triu(m, 1).T
    np.fill_diagonal(m, 1.0)
    for _ in range(duplicates):
        i, j = rng.integers(n, size=2)
        m[i] = m[j]
        m[:, i] = m[:, j]
    assert np.array_equal(m, m.T)
    return m


@st.composite
def swap_problems(draw):
    """(sim, k, seed): n from k to 300, with sizes next to multiples of
    the swap refinement's row block and of numpy's 128-term pairwise-sum
    block drawn often. A hub case, fully similar to every case, at either
    end of the matrix makes the first or the last row the best swap."""
    k = draw(st.integers(1, 6))
    edges = sorted({m + d for m in (clustering.SWAP_BLOCK_ROWS, 128, 256)
                    for d in (-1, 0, 1)})
    n = draw(st.one_of(st.integers(k, 300), st.sampled_from([k, *edges])))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    sim = quantized_sim_matrix(rng, n,
                               levels=draw(st.sampled_from([1, 2, 3, 7, 10,
                                                            1000])),
                               duplicates=draw(st.integers(0, n // 2)))
    hub = draw(st.sampled_from([None, 0, n - 1]))
    if hub is not None:
        sim[hub] = sim[:, hub] = 1.0
    return sim, k, seed


@settings(deadline=None)
@given(swap_problems(), st.integers(1, clustering.MAX_SWAP_PASSES))
def test_swap_refine_matches_column_scan_oracle(problem, passes):
    sim, k, seed = problem
    medoids = np.random.default_rng(seed).choice(sim.shape[0], size=k,
                                                 replace=False)
    expected = medoids.copy()
    assert clustering._swap_refine(sim, medoids, passes) == \
        oracle_swap_refine(sim, expected, passes)
    assert np.array_equal(medoids, expected)


@settings(deadline=None)
@given(swap_problems(), st.sampled_from([1, 2, 60]))
def test_kmedoids_matches_column_scan_oracle(problem, max_iterations):
    sim, k, seed = problem
    cfg = ClusteringConfig(num_clusters=k, max_iterations=max_iterations,
                           seed=seed)
    got, expected = kmedoids(sim, cfg), oracle_kmedoids(sim, cfg)
    assert got.medoids == expected.medoids
    assert np.array_equal(got.labels, expected.labels)
    assert np.array(got.objective_trace).tobytes() == \
        np.array(expected.objective_trace).tobytes()


SIM_INDEX = SituationIndex(Taxonomies(
    *(balanced_taxonomy(d, depth=4, branching=3)
      for d in (Dimension.LOCATION, Dimension.TIME, Dimension.SOCIAL))))


def alpha_after(observations):
    """α of fresh DimensionWeights after recording `observations`."""
    w = DimensionWeights()
    for sims in observations:
        w.record(sims)
    return w.alpha


unit = st.floats(0.0, 1.0)
alphas = st.one_of(
    st.tuples(unit, unit, unit),
    st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=8).map(
        alpha_after))


@given(st.integers(1, 80), st.integers(0, 2 ** 32 - 1), alphas,
       st.sampled_from([1, 7, 64, simindex.PAIRWISE_BLOCK_ROWS]))
def test_pairwise_weighted_is_symmetric_and_matches_ix_oracle(n, seed,
                                                             alpha, block):
    rng = np.random.default_rng(seed)
    loc, tim, soc = (rng.integers(len(m), size=n) for m in SIM_INDEX.matrices)
    with mock.patch.object(simindex, "PAIRWISE_BLOCK_ROWS", block):
        sim = SIM_INDEX.pairwise_weighted(loc, tim, soc, alpha)
    assert sim.tobytes() == sim.T.copy().tobytes()
    assert sim.tobytes() == oracle_pairwise_weighted(
        SIM_INDEX, loc, tim, soc, alpha).tobytes()
    assert np.array_equal(sim, oracle_gather_add(SIM_INDEX, loc, tim, soc,
                                                 alpha))


def test_pairwise_weighted_holds_one_n_by_n_array():
    n = 1000
    rng = np.random.default_rng(0)
    loc, tim, soc = (rng.integers(len(m), size=n) for m in SIM_INDEX.matrices)
    tracemalloc.start()
    try:
        sim = SIM_INDEX.pairwise_weighted(loc, tim, soc, (0.2, 0.3, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.nbytes <= peak < 1.5 * sim.nbytes
