from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from situbandit import bandit
from situbandit.bandit import (BanditConfig, Branch, EpsilonTunerState,
                               GlobalEpsilonGreedy, RecommendationEngine,
                               epsilon_greedy, greedy_top_n, step,
                               tune_epsilon)
from situbandit.casebase import DocumentStats, UserPreferences
from situbandit.errors import EmptyCandidates
from situbandit.situation import Situation


def stats(doc_id, clicks, impressions):
    return DocumentStats(doc_id, clicks=clicks, impressions=impressions)


@pytest.fixture
def candidates():
    return UserPreferences({
        "d1": stats("d1", 3, 10),   # ctr 0.3
        "d2": stats("d2", 8, 10),   # ctr 0.8
        "d3": stats("d3", 0, 10),   # ctr 0.0
        "d4": stats("d4", 0, 0),    # never shown, ctr 0.0
        "d5": stats("d5", 8, 10),   # ctr 0.8, ties with d2
    })


def test_config_validation():
    with pytest.raises(ValueError):
        BanditConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        BanditConfig(slate_size=0)
    with pytest.raises(ValueError):
        BanditConfig(threshold_b=3.5)


def test_get_ctr():
    assert stats("d", 3, 10).ctr == pytest.approx(0.3)
    assert stats("d", 0, 0).ctr == 0.0
    assert stats("d", 4, 0).ctr == 0.0  # organic clicks, never shown
    # clicks are clamped to impressions (organic clicks never push ctr > 1)
    assert stats("d", 7, 5).ctr == 1.0


def test_greedy_top_n_order_and_ties(candidates):
    assert greedy_top_n(candidates, 3) == ["d2", "d5", "d1"]
    assert greedy_top_n(candidates, 10) == ["d2", "d5", "d1", "d3", "d4"]


def test_epsilon_greedy_empty_candidates():
    with pytest.raises(EmptyCandidates):
        epsilon_greedy(UserPreferences(), 3, 0.1,
                       np.random.default_rng(0))


def test_epsilon_zero_is_greedy(candidates):
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert epsilon_greedy(candidates, 3, 0.0, rng) == ["d2", "d5", "d1"]


def test_slate_is_distinct_and_capped(candidates):
    rng = np.random.default_rng(1)
    for eps in (0.0, 0.5, 1.0):
        for _ in range(50):
            slate = epsilon_greedy(candidates, 3, eps, rng)
            assert len(slate) == 3
            assert len(set(slate)) == 3
        assert len(epsilon_greedy(candidates, 99, eps, rng)) == 5


def test_epsilon_one_is_uniform(candidates):
    rng = np.random.default_rng(2)
    counts = Counter()
    n = 10000
    for _ in range(n):
        counts[epsilon_greedy(candidates, 1, 1.0, rng)[0]] += 1
    expect = n / 5
    for doc in candidates.docs:
        assert abs(counts[doc] - expect) < 5 * np.sqrt(expect)


# Reference selection: re-score and re-sort every candidate on each call,
# reading nothing but `docs`.

def oracle_ctr(ds):
    if ds.impressions <= 0:
        return 0.0
    return min(ds.clicks, ds.impressions) / ds.impressions


def oracle_greedy_top_n(candidates, n):
    return sorted(candidates.docs,
                  key=lambda d: (-oracle_ctr(candidates.docs[d]), d))[:n]


def oracle_epsilon_greedy(candidates, n, epsilon, rng):
    remaining = sorted(candidates.docs)
    ctr = {d: oracle_ctr(candidates.docs[d]) for d in remaining}
    slate = []
    for _ in range(min(n, len(remaining))):
        q = rng.random()
        if q > epsilon:
            pick = 0
            best = ctr[remaining[0]]
            for i in range(1, len(remaining)):
                if ctr[remaining[i]] > best:
                    best, pick = ctr[remaining[i]], i
        else:
            pick = int(rng.integers(len(remaining)))
        slate.append(remaining.pop(pick))
    return slate


doc_ids = st.sampled_from([f"d{i:02d}" for i in range(12)])
# small counters: many CTR ties, zero-impression organic clicks and
# clicks > impressions all occur
doc_maps = st.dictionaries(
    doc_ids, st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8)
slate_calls = st.tuples(
    st.integers(1, 15),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.booleans())


def as_prefs(counts):
    return UserPreferences({d: stats(d, c, i) for d, (c, i) in counts.items()})


@given(doc_maps, st.lists(st.one_of(doc_maps, slate_calls), max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_slates_match_rescoring_oracle(initial, ops, seed):
    # `prefs` is long-lived like a case's map or the context-free pooled
    # map: read, then merged into, then read again; `mirror` gets the same
    # merges and is read only by the oracle
    prefs, mirror = as_prefs(initial), as_prefs(initial)
    rng, oracle_rng = (np.random.default_rng(seed),
                       np.random.default_rng(seed))
    for op in ops:
        if isinstance(op, dict):
            prefs.merge(as_prefs(op))
            mirror.merge(as_prefs(op))
            continue
        n, epsilon, greedy = op
        if greedy:
            assert greedy_top_n(prefs, n) == oracle_greedy_top_n(mirror, n)
        elif not mirror:
            with pytest.raises(EmptyCandidates):
                epsilon_greedy(prefs, n, epsilon, rng)
        else:
            assert (epsilon_greedy(prefs, n, epsilon, rng)
                    == oracle_epsilon_greedy(mirror, n, epsilon, oracle_rng))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def make_engine(tiny_taxonomies, **kw):
    return RecommendationEngine(
        tiny_taxonomies, doc_pool=[f"d{i}" for i in range(20)],
        config=kw.pop("config", BanditConfig(seed=0)), **kw)


def feedback_all_clicked(situation, slate):
    fb = UserPreferences({d: stats(d, 1, 1) for d in slate})
    return fb, {d: 1 for d in slate}


def feedback_none_clicked(situation, slate):
    fb = UserPreferences({d: stats(d, 0, 1) for d in slate})
    return fb, {d: 0 for d in slate}


def test_engine_cold_start_on_empty_base(tiny_taxonomies, base_situation):
    eng = make_engine(tiny_taxonomies)
    rec = eng.recommend(base_situation)
    assert rec.branch == Branch.COLD_START
    assert len(rec.slate) == 10 and len(set(rec.slate)) == 10


def test_engine_no_recommend_variant(tiny_taxonomies, base_situation):
    eng = make_engine(tiny_taxonomies,
                      config=BanditConfig(cold_start_fallback=False))
    rec = eng.recommend(base_situation)
    assert rec.branch == Branch.NO_RECOMMEND
    assert rec.slate == []


def test_engine_threshold_gate(tiny_taxonomies, base_situation):
    eng = make_engine(tiny_taxonomies)
    step(eng, base_situation, feedback_all_clicked)
    # far-corner query: sim well below B = 2.4 -> cold start
    far = Situation("Lb2", "Tb2", "Sb2")
    assert eng.recommend(far).branch == Branch.COLD_START
    # exact repeat passes the gate
    assert eng.recommend(base_situation).branch == Branch.EPS_GREEDY


def test_engine_gate_requires_nonempty_prefs(tiny_taxonomies, base_situation):
    eng = make_engine(tiny_taxonomies)
    rec = eng.recommend(base_situation)
    eng.observe(base_situation, rec, UserPreferences())  # nothing clicked
    assert len(eng.casebase) == 1
    assert eng.recommend(base_situation).branch == Branch.COLD_START


def test_engine_hlcs_branch_is_greedy_and_spreads(tiny_taxonomies):
    crisis = Situation("La1", "Ta1", "Sa1")
    eng = make_engine(tiny_taxonomies, hlcs=[crisis])
    step(eng, crisis, feedback_all_clicked)
    rec = eng.recommend(crisis)
    assert rec.branch == Branch.HLCS_GREEDY
    assert rec.slate == greedy_top_n(eng.casebase.cases[0].prefs, 10)
    # a nearby situation served from the critical case is marked critical too
    near = Situation("La2", "Ta1", "Sa1")
    assert eng.recommend(near).branch == Branch.HLCS_GREEDY
    assert eng.casebase.is_hlcs(near)


def test_engine_counts_and_weights_update(tiny_taxonomies, base_situation):
    eng = make_engine(tiny_taxonomies)
    step(eng, base_situation, feedback_all_clicked)
    assert eng.tt == 1
    # first trial retrieves nothing, so no gamma observation yet
    assert eng.casebase.weights.count == 0
    step(eng, base_situation, feedback_all_clicked)
    assert eng.tt == 2
    assert eng.casebase.weights.alpha == pytest.approx((1.0, 1.0, 1.0))


def test_engine_no_clustering_variant(tiny_taxonomies):
    # the engine never clusters, and stores each situation in one case
    eng = RecommendationEngine(tiny_taxonomies, doc_pool=["d1", "d2"])
    rng = np.random.default_rng(4)
    sits = [Situation(f"L{c}{rng.integers(1, 3)}", f"T{c}{rng.integers(1, 3)}",
                      f"S{c}{rng.integers(1, 3)}")
            for c in "ab" for _ in range(40)]
    with mock.patch.object(bandit, "cluster_situations",
                           side_effect=AssertionError("engine clustered")):
        for s in sits:
            step(eng, s, feedback_all_clicked)
    assert eng.tt == len(sits)
    assert len(eng.casebase) == len(eng.casebase.case_of) == len(set(sits))


def test_engine_deterministic_given_seed(tiny_taxonomies):
    def run():
        eng = make_engine(tiny_taxonomies, config=BanditConfig(seed=11))
        rng = np.random.default_rng(5)
        slates = []
        for _ in range(30):
            s = Situation(f"La{rng.integers(1, 3)}",
                          f"Ta{rng.integers(1, 3)}", "Sa1")
            slates.append(step(eng, s, feedback_all_clicked).shown)
        return slates

    assert run() == run()


def test_global_baseline_learns(tiny_taxonomies, base_situation):
    pol = GlobalEpsilonGreedy(["d1", "d2", "d3"],
                              BanditConfig(epsilon=0.0, slate_size=1, seed=0))
    rec = pol.recommend(base_situation)
    assert rec.branch == Branch.COLD_START
    pol.observe(base_situation, rec,
                UserPreferences({"d3": stats("d3", 5, 5)}))
    rec = pol.recommend(base_situation)
    assert rec.branch == Branch.EPS_GREEDY
    assert rec.slate == ["d3"]


def test_tuner_state_validation():
    with pytest.raises(ValueError):
        EpsilonTunerState(candidates=[])
    with pytest.raises(ValueError):
        EpsilonTunerState(candidates=[0.1], weights=[1.0, 2.0])


def test_tuner_explores_all_then_exploits_best():
    state = EpsilonTunerState(candidates=[0.0, 0.1, 0.5, 1.0])
    rng = np.random.default_rng(0)
    payout = {0.0: 1.0, 0.1: 10.0, 0.5: 2.0, 1.0: 0.5}
    chosen = []
    for _ in range(300):
        eps, state = tune_epsilon(state, lambda e: payout[e], rng)
        chosen.append(eps)
    assert state.tried == {0, 1, 2, 3}
    assert state.best == 0.1
    # tau = 1 after round 100: pure exploitation of the best weight
    assert set(chosen[100:]) == {0.1}


def test_tuner_weight_bookkeeping():
    state = EpsilonTunerState(candidates=[0.2])
    rng = np.random.default_rng(1)
    for clicks in (3.0, 4.0):
        _, state = tune_epsilon(state, lambda e: clicks, rng)
    assert state.weights == [1.0 + 3.0 + 4.0]
    assert state.trial_index == 2
