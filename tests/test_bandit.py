from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from situbandit import bandit
from situbandit.bandit import (BanditConfig, Branch, EpsilonTunerState,
                               GlobalEpsilonGreedy, RecommendationEngine,
                               epsilon_greedy, step, tune_epsilon)
from situbandit.casebase import DocumentStats, UserPreferences
from situbandit.errors import ConfigError, EmptyCandidates
from situbandit.situation import Situation

from oracles import oracle_greedy_top_n


def stats(clicks, impressions):
    return DocumentStats(clicks=clicks, impressions=impressions)


@pytest.fixture
def candidates():
    return UserPreferences({
        "d1": stats(3, 10),   # ctr 0.3
        "d2": stats(8, 10),   # ctr 0.8
        "d3": stats(0, 10),   # ctr 0.0
        "d4": stats(0, 0),    # never shown, ctr 0.0
        "d5": stats(8, 10),   # ctr 0.8, ties with d2
    })


def test_config_validation():
    with pytest.raises(ValueError):
        BanditConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        BanditConfig(slate_size=0)
    with pytest.raises(ValueError):
        BanditConfig(threshold_b=3.5)
    for bad in ({"slate_size": 2.5}, {"slate_size": "3"},
                {"slate_size": True}, {"epsilon": "abc"},
                {"epsilon": False}, {"threshold_b": None}):
        with pytest.raises(ValueError):
            BanditConfig(**bad)
    # every field is checked, and a config error is a ValueError
    for bad in ({"seed": 1.5}, {"seed": -1}):
        with pytest.raises(ConfigError):
            BanditConfig(**bad)
    # numpy scalars are numbers too
    BanditConfig(epsilon=np.float64(0.2), slate_size=np.int64(3))


def test_get_ctr():
    def ctr(clicks, impressions):
        # a map's ranking keys are (-ctr, doc_id)
        prefs = UserPreferences({"d": stats(clicks, impressions)})
        [(key, _)] = prefs.ranking()
        return -key

    assert ctr(3, 10) == pytest.approx(0.3)
    assert ctr(0, 0) == 0.0
    assert ctr(4, 0) == 0.0  # organic clicks, never shown
    # clicks are clamped to impressions (organic clicks never push ctr > 1)
    assert ctr(7, 5) == 1.0


def test_greedy_top_n_order_and_ties(candidates):
    rng = np.random.default_rng(0)
    assert epsilon_greedy(candidates, 3, 0.0, rng) == ["d2", "d5", "d1"]
    assert (epsilon_greedy(candidates, 10, 0.0, rng)
            == ["d2", "d5", "d1", "d3", "d4"])


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

def oracle_epsilon_greedy(candidates, n, epsilon, rng):
    remaining = oracle_greedy_top_n(candidates, len(candidates.docs))
    slate = []
    for _ in range(min(n, len(remaining))):
        q = rng.random()
        if q > epsilon:
            pick = 0
        else:
            pick = int(rng.integers(len(remaining)))
        slate.append(remaining.pop(pick))
    return slate


doc_ids = st.sampled_from([f"d{i:02d}" for i in range(40)])
# small counters: many CTR ties, zero-impression organic clicks and
# clicks > impressions all occur
doc_maps = st.dictionaries(
    doc_ids, st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30)
# slates as long as the largest maps, so that several explored positions
# wait above the first untaken one
slate_calls = st.tuples(
    st.integers(1, 40),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))


def as_prefs(counts):
    return UserPreferences({d: stats(c, i) for d, (c, i) in counts.items()})


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
            # one feedback map merged into both, so they share its counts
            feedback = as_prefs(op)
            prefs.merge(feedback)
            mirror.merge(feedback)
            assert feedback.docs == as_prefs(op).docs
            continue
        n, epsilon = op
        if not mirror:
            with pytest.raises(EmptyCandidates):
                epsilon_greedy(prefs, n, epsilon, rng)
        else:
            assert (epsilon_greedy(prefs, n, epsilon, rng)
                    == oracle_epsilon_greedy(mirror, n, epsilon, oracle_rng))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


@given(doc_maps, st.lists(slate_calls, min_size=1, max_size=10),
       st.integers(0, 2 ** 32 - 1))
def test_slates_match_oracle_after_half_used_word(counts, calls, seed):
    # an `integers(7)` before each slate leaves half of a 64-bit word in
    # PCG64's 32-bit buffer; the raw-word tests must leave it for the next
    # `integers`, as `rng.random()` does
    prefs, mirror = as_prefs(counts), as_prefs(counts)
    rng, oracle_rng = (np.random.default_rng(seed),
                       np.random.default_rng(seed))
    for n, epsilon in calls:
        assert rng.integers(7) == oracle_rng.integers(7)
        if not mirror.docs:
            continue
        assert (epsilon_greedy(prefs, n, epsilon, rng)
                == oracle_epsilon_greedy(mirror, n, epsilon, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_epsilon_greedy_needs_pcg64(candidates):
    # MT19937's raw words are 32 bits wide: read as PCG64's, every pick
    # would explore
    with pytest.raises(TypeError, match="PCG64"):
        epsilon_greedy(candidates, 3, 0.1,
                       np.random.Generator(np.random.MT19937(0)))


def make_engine(tiny_taxonomies, **kw):
    return RecommendationEngine(
        tiny_taxonomies, doc_pool=[f"d{i}" for i in range(20)],
        config=kw.pop("config", BanditConfig(seed=0)), **kw)


def feedback_all_clicked(situation, slate):
    return UserPreferences({d: stats(1, 1) for d in slate})


def test_engine_cold_start_on_empty_base(tiny_taxonomies, base_situation):
    eng = make_engine(tiny_taxonomies)
    rec = eng.recommend(base_situation)
    assert rec.branch == Branch.COLD_START
    assert len(rec.slate) == 10 and len(set(rec.slate)) == 10


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


def test_engine_counts_and_weights_update(tiny_taxonomies, base_situation):
    eng = make_engine(tiny_taxonomies)
    step(eng, base_situation, feedback_all_clicked)
    # first trial retrieves nothing, so no gamma observation yet
    assert eng.casebase.weights.count == 0
    step(eng, base_situation, feedback_all_clicked)
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
                UserPreferences({"d3": stats(5, 5)}))
    rec = pol.recommend(base_situation)
    assert rec.branch == Branch.EPS_GREEDY
    assert rec.slate == ["d3"]


def test_tuner_state_validation():
    with pytest.raises(ConfigError):
        EpsilonTunerState(candidates=[])
    with pytest.raises(ConfigError):
        EpsilonTunerState(candidates=[0.1], weights=[1.0, 2.0])
    # a repeated value would be two arms for one setting
    with pytest.raises(ConfigError):
        EpsilonTunerState(candidates=[0.0, 0.5, 0.5])


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
