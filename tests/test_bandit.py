import dataclasses
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from situbandit import bandit
from situbandit.bandit import (BanditConfig, Branch, EpsilonTunerState,
                               GlobalEpsilonGreedy, RecommendationEngine,
                               bounded_integer, epsilon_greedy,
                               slate_draws, step, tune_epsilon)
from situbandit.casebase import DocumentStats, UserPreferences
from situbandit.errors import ConfigError, EmptyCandidates
from situbandit.situation import Situation

from oracles import oracle_epsilon_greedy, oracle_greedy_top_n


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
    draws = slate_draws(rng, 0.0)
    assert epsilon_greedy(candidates, 3, draws) == ["d2", "d5", "d1"]
    assert (epsilon_greedy(candidates, 10, draws)
            == ["d2", "d5", "d1", "d3", "d4"])


def test_epsilon_greedy_empty_candidates():
    with pytest.raises(EmptyCandidates):
        epsilon_greedy(UserPreferences(), 3,
                       slate_draws(np.random.default_rng(0), 0.1))


def test_epsilon_zero_is_greedy(candidates):
    rng = np.random.default_rng(0)
    draws = slate_draws(rng, 0.0)
    for _ in range(20):
        assert epsilon_greedy(candidates, 3, draws) == ["d2", "d5", "d1"]


def test_slate_is_distinct_and_capped(candidates):
    rng = np.random.default_rng(1)
    for eps in (0.0, 0.5, 1.0):
        draws = slate_draws(rng, eps)
        for _ in range(50):
            slate = epsilon_greedy(candidates, 3, draws)
            assert len(slate) == 3
            assert len(set(slate)) == 3
        assert len(epsilon_greedy(candidates, 99, draws)) == 5


def test_epsilon_one_is_uniform(candidates):
    rng = np.random.default_rng(2)
    draws = slate_draws(rng, 1.0)
    counts = Counter()
    n = 10000
    for _ in range(n):
        counts[epsilon_greedy(candidates, 1, draws)[0]] += 1
    expect = n / 5
    for doc in candidates.docs:
        assert abs(counts[doc] - expect) < 5 * np.sqrt(expect)


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
                epsilon_greedy(prefs, n, slate_draws(rng, epsilon))
        else:
            assert (epsilon_greedy(prefs, n, slate_draws(rng, epsilon))
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
        assert (epsilon_greedy(prefs, n, slate_draws(rng, epsilon))
                == oracle_epsilon_greedy(mirror, n, epsilon, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


# every bit generator numpy ships with a 32-bit draw, buffered (PCG64,
# PCG64DXSM, Philox, SFC64) or native (MT19937)
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64]
# no draw (1), both ends of numpy's 32-bit path, its 64-bit path past it,
# a bound that rejects about half its words (2**31 + 7), and any other
bounds = st.one_of(
    st.sampled_from([1, 2, 2**31 + 7, 2**32 - 1, 2**32, 2**32 + 1]),
    st.integers(1, 100), st.integers(1, 2**34))


def plain_state(state):
    """A `bit_generator.state` with its numpy arrays (MT19937's key,
    Philox's counter) as lists, so that two states compare with ==."""
    if isinstance(state, dict):
        return {k: plain_state(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@given(st.sampled_from(BIT_GENERATORS), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 2), bounds), min_size=1,
                max_size=20))
def test_bounded_integer_matches_numpy(bit_generator, seed, draws):
    # 0-2 `integers(7)` before each draw leave a buffered half-word behind
    # at times; value and generator state must be numpy's after every draw
    rng = np.random.Generator(bit_generator(seed))
    want = np.random.Generator(bit_generator(seed))
    ctypes = rng.bit_generator.ctypes
    for skips, r in draws:
        for _ in range(skips):
            assert rng.integers(7) == want.integers(7)
        got = bounded_integer(r, ctypes.next_uint32, ctypes.state, rng)
        assert type(got) is int
        assert got == int(want.integers(r))
        assert (plain_state(rng.bit_generator.state)
                == plain_state(want.bit_generator.state))


def test_epsilon_greedy_needs_pcg64():
    # MT19937's raw words are 32 bits wide: read as PCG64's, every pick
    # would explore; the draw source refuses it before any slate is made
    with pytest.raises(TypeError, match="PCG64"):
        slate_draws(np.random.Generator(np.random.MT19937(0)), 0.1)


def make_engine(tiny_index, **kw):
    return RecommendationEngine(
        tiny_index, doc_pool=[f"d{i}" for i in range(20)],
        config=kw.pop("config", BanditConfig(seed=0)), **kw)


def feedback_all_clicked(situation, slate):
    return UserPreferences({d: stats(1, 1) for d in slate})


def test_engine_cold_start_on_empty_base(tiny_index, base_situation):
    eng = make_engine(tiny_index)
    rec = eng.recommend(base_situation)
    assert rec.branch == Branch.COLD_START
    assert len(rec.slate) == 10 and len(set(rec.slate)) == 10


def test_engine_threshold_gate(tiny_index, base_situation):
    eng = make_engine(tiny_index)
    step(eng, base_situation, feedback_all_clicked)
    # far-corner query: sim well below B = 2.4 -> cold start
    far = Situation("Lb2", "Tb2", "Sb2")
    assert eng.recommend(far).branch == Branch.COLD_START
    # exact repeat passes the gate
    assert eng.recommend(base_situation).branch == Branch.EPS_GREEDY


def test_engine_gate_requires_nonempty_prefs(tiny_index, base_situation):
    eng = make_engine(tiny_index)
    rec = eng.recommend(base_situation)
    eng.observe(base_situation, rec, UserPreferences())  # nothing clicked
    assert len(eng.casebase) == 1
    assert eng.recommend(base_situation).branch == Branch.COLD_START


def test_engine_counts_and_weights_update(tiny_index, base_situation):
    eng = make_engine(tiny_index)
    step(eng, base_situation, feedback_all_clicked)
    # first trial retrieves nothing, so no gamma observation yet
    assert eng.casebase.weights.count == 0
    step(eng, base_situation, feedback_all_clicked)
    assert eng.casebase.weights.alpha == pytest.approx((1.0, 1.0, 1.0))


def test_engine_no_clustering_variant(tiny_index):
    # the engine never clusters, and stores each situation in one case
    eng = RecommendationEngine(tiny_index, doc_pool=["d1", "d2"])
    rng = np.random.default_rng(4)
    sits = [Situation(f"L{c}{rng.integers(1, 3)}", f"T{c}{rng.integers(1, 3)}",
                      f"S{c}{rng.integers(1, 3)}")
            for c in "ab" for _ in range(40)]
    with mock.patch.object(bandit, "cluster_situations",
                           side_effect=AssertionError("engine clustered")):
        for s in sits:
            step(eng, s, feedback_all_clicked)
    assert len(eng.casebase) == len(eng.casebase.case_of) == len(set(sits))


def test_engine_deterministic_given_seed(tiny_index):
    def run():
        eng = make_engine(tiny_index, config=BanditConfig(seed=11))
        rng = np.random.default_rng(5)
        slates = []
        for _ in range(30):
            s = Situation(f"La{rng.integers(1, 3)}",
                          f"Ta{rng.integers(1, 3)}", "Sa1")
            slates.append(step(eng, s, feedback_all_clicked)[0].slate)
        return slates

    assert run() == run()


@pytest.mark.parametrize("policy", ["engine", "global"])
def test_swapped_config_draws_at_its_epsilon(tiny_index, base_situation,
                                             policy):
    # `tune-epsilon` replaces a policy's config between episodes; each
    # slate after a swap is the oracle's at the new epsilon, drawn from
    # the policy's generator
    cfg = BanditConfig(epsilon=0.0, slate_size=4, seed=3)
    docs = [f"d{i}" for i in range(20)]
    pol = (RecommendationEngine(tiny_index, docs, cfg) if policy == "engine"
           else GlobalEpsilonGreedy(docs, cfg))
    oracle_rng = np.random.default_rng()
    greedy_trials = 0
    for epsilon in (0.0, 1.0, 0.5, 0.0, 1.0):
        pol.config = dataclasses.replace(pol.config, epsilon=epsilon)
        for _ in range(15):
            oracle_rng.bit_generator.state = pol.rng.bit_generator.state
            rec = pol.recommend(base_situation)
            if rec.branch == Branch.EPS_GREEDY:
                greedy_trials += 1
                prefs = (rec.retrieval.case.prefs if policy == "engine"
                         else pol.prefs)
                assert rec.slate == oracle_epsilon_greedy(
                    prefs, 4, epsilon, oracle_rng)
                assert (pol.rng.bit_generator.state
                        == oracle_rng.bit_generator.state)
            # every slate doc shown, the first clicked: the map grows
            # and its CTRs differ
            pol.observe(base_situation, rec, UserPreferences(
                {d: stats(int(d == rec.slate[0]), 1) for d in rec.slate}))
    assert greedy_trials == 5 * 15 - 1


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
    # a repeated value would be two arms for one setting
    with pytest.raises(ConfigError):
        EpsilonTunerState(candidates=[0.0, 0.5, 0.5])


def test_tuner_explores_all_then_exploits_best():
    state = EpsilonTunerState(candidates=[0.0, 0.1, 0.5, 1.0])
    rng = np.random.default_rng(0)
    payout = {0.0: 1.0, 0.1: 10.0, 0.5: 2.0, 1.0: 0.5}
    chosen = []
    for _ in range(300):
        eps, clicks = tune_epsilon(state, lambda e: payout[e], rng)
        assert clicks == payout[eps]
        chosen.append(eps)
    assert state.tried == {0, 1, 2, 3}
    assert state.best == 0.1
    # tau = 1 after round 100: pure exploitation of the best weight
    assert set(chosen[100:]) == {0.1}


def test_tuner_weight_bookkeeping():
    state = EpsilonTunerState(candidates=[0.2])
    rng = np.random.default_rng(1)
    for clicks in (3.0, 4.0):
        assert tune_epsilon(state, lambda e: clicks, rng) == (0.2, clicks)
    assert state.weights == [1.0 + 3.0 + 4.0]
    assert state.trial_index == 2
