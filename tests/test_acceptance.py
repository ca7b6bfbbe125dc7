"""End-to-end statistical acceptance suite.

Each test covers one numbered criterion, runs on fixed seeds with fixed
tolerances and a runtime budget, and prints a single pass/fail line
(visible in the -rA summary). The multi-run replay criteria (5-7) share
one synthetic world; every one of their runs is recounted from the trials
recorded at the policy boundary, and the recount is checked exactly in
criterion 9.
"""

import itertools
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from scipy import stats as scipy_stats

from situbandit.bandit import (BanditConfig, EpsilonTunerState,
                               epsilon_greedy, slate_draws, tune_epsilon)
from situbandit.casebase import DocumentStats, UserPreferences
from situbandit.cli import main as cli_main
from situbandit.clustering import ClusteringConfig, kmedoids
from situbandit.ontology import wu_palmer
from situbandit.simdata import (WorldConfig, build_policy,
                                clustering_precision, generate_world,
                                replay_evaluate)
from situbandit.simindex import SituationIndex
from situbandit.situation import Situation

from conftest import brute_force_wu_palmer, random_tree
from oracles import TrialLog, oracle_greedy_top_n

RUN_SEEDS = list(range(1, 11))
EPS_GRID = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
B_GRID = [round(0.3 * i, 1) for i in range(11)]

# Replay world sized so that 180+ seeded 10000-iteration runs fit the
# stated budgets on one core; all engine parameters stay at defaults.
REPLAY_WORLD = WorldConfig(groups=10, situations_per_group=30, docs=400,
                           preferred_docs_per_group=10,
                           occurrences_per_situation=40)

# Labeled sample for the clustering-precision criterion: 10 groups x 50
# distinct situations. A group outgrows its prototype's one-step
# neighbourhood, so most members sit two or more steps from it.
SAMPLE_WORLD = WorldConfig(groups=10, situations_per_group=50, docs=200,
                           preferred_docs_per_group=5, max_prototype_sim=2.3)

RECOUNTS = []  # (criterion, ok) from every replay run in criteria 5-7


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{desc}]: {status}  {detail}".rstrip())
    assert ok, f"criterion {num} ({desc}): {detail}"


@pytest.fixture(scope="module")
def world():
    return generate_world(REPLAY_WORLD, seed=1)


def run_replay(criterion, policy_name, world, seed, epsilon=0.1, b=2.4,
               iterations=10000):
    log = TrialLog(build_policy(policy_name, world,
                                BanditConfig(epsilon=epsilon, threshold_b=b,
                                             seed=seed)))
    rep = replay_evaluate(log, world, iterations=iterations,
                          report_period=1000, seed=seed + 1000)
    # independent recount from the trials recorded at the policy boundary
    # (criterion 9)
    clicks = sum(sum(t.clicks.values()) for t in log.trials)
    displays = sum(len(t.shown) for t in log.trials)
    recounted = clicks / displays if displays else 0.0
    RECOUNTS.append((criterion, recounted == rep.final_avctr))
    return rep.final_avctr


def test_criterion_1_similarity_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    ok = True
    worst = 0.0
    for _ in range(50):
        tree = random_tree(rng, int(rng.integers(2, 31)))
        nodes = sorted(tree.nodes)
        for a in nodes:
            for b in nodes:
                s = wu_palmer(tree, a, b)
                ok &= s == wu_palmer(tree, b, a)
                ok &= 0.0 < s <= 1.0
                ok &= (s == 1.0) == (a == b)
                err = abs(s - brute_force_wu_palmer(tree, a, b))
                worst = max(worst, err)
                ok &= err <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, "similarity axioms + path oracle", ok,
           f"max |err|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_policy_degeneracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    docs = [f"d{i:02d}" for i in range(8)]
    cands = UserPreferences({
        d: DocumentStats(clicks=int(rng.integers(0, 10)), impressions=10)
        for d in docs})
    # eps=0 equals the deterministic top-N oracle
    greedy = slate_draws(rng, 0.0)
    greedy_ok = all(epsilon_greedy(cands, 3, greedy) ==
                    oracle_greedy_top_n(cands, 3) for _ in range(100))
    # eps=1 uniformity of the first pick over 10^4 seeded slates
    counts = {d: 0 for d in docs}
    uniform = slate_draws(rng, 1.0)
    for _ in range(10**4):
        counts[epsilon_greedy(cands, 3, uniform)[0]] += 1
    _, p = scipy_stats.chisquare(list(counts.values()))
    uniform_ok = p > 0.01
    # slate uniqueness on 10^4 random trials
    unique_ok = True
    for _ in range(10**4):
        slate = epsilon_greedy(cands, 5,
                               slate_draws(rng, float(rng.random())))
        unique_ok &= len(set(slate)) == len(slate) == 5
    elapsed = time.perf_counter() - t0
    ok = greedy_ok and uniform_ok and unique_ok and elapsed < 30.0
    report(2, "policy degeneracy", ok,
           f"chi2 p={p:.3f}, {elapsed:.1f}s")


def test_criterion_3_kmedoid_suite(tiny_taxonomies):
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    monotone_ok = True
    for _ in range(100):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(2, min(6, n)))
        m = rng.uniform(0.01, 0.99, size=(n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        res = kmedoids(m, ClusteringConfig(num_clusters=k,
                                           seed=int(rng.integers(10**6))))
        trace = res.objective_trace
        monotone_ok &= all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    # 2-group separable world: identical within, sibling concepts across
    index = SituationIndex(tiny_taxonomies)
    situations = [Situation(*triple)
                  for triple in (("La1", "Ta1", "Sa1"), ("La2", "Ta2", "Sa2"))
                  for _ in range(4)]
    ground = [0] * 4 + [1] * 4
    loc, tim, soc = np.array([index.encode(s) for s in situations]).T
    sim = index.pairwise_weighted(loc, tim, soc, (1 / 3, 1 / 3, 1 / 3))
    res = kmedoids(sim, ClusteringConfig(num_clusters=2, seed=0))
    best = max(float(sim[:, list(pair)].max(axis=1).sum())
               for pair in itertools.combinations(range(len(situations)), 2))
    got = float(sim[np.arange(len(situations)),
                    np.asarray(res.medoids)[res.labels]].sum())
    optimum_ok = abs(got - best) < 1e-9
    partition_ok = clustering_precision(res.labels, ground) == 1.0
    elapsed = time.perf_counter() - t0
    ok = monotone_ok and optimum_ok and partition_ok and elapsed < 30.0
    report(3, "k-medoid monotonicity + 2-group optimum", ok,
           f"objective {got:.4f} vs brute-force {best:.4f}, {elapsed:.1f}s")


def test_criterion_4_clustering_precision():
    t0 = time.perf_counter()
    sample = generate_world(SAMPLE_WORLD, seed=0)
    enc = np.array([sample.index.encode(s) for s in sample.situations]).T
    sim = sample.index.pairwise_weighted(enc[0], enc[1], enc[2],
                                         (1.0, 1.0, 1.0))

    def precision(t_max, seed):
        res = kmedoids(sim, ClusteringConfig(num_clusters=10,
                                             max_iterations=t_max,
                                             seed=seed))
        return clustering_precision(res.labels, sample.group_of)

    p60 = [precision(60, s) for s in RUN_SEEDS]
    p5 = [precision(5, s) for s in RUN_SEEDS]
    ordered = sum(a >= b for a, b in zip(p60, p5))
    elapsed = time.perf_counter() - t0
    ok = min(p60) >= 0.75 and ordered >= 8 and elapsed < 120.0
    report(4, "clustering precision", ok,
           f"p60 min={min(p60):.3f} mean={np.mean(p60):.3f}, "
           f"p60>=p5 on {ordered}/10 seeds, {elapsed:.1f}s")


def test_criterion_5_threshold_sweep(world):
    t0 = time.perf_counter()
    interior = 0
    argmaxes = []
    for seed in RUN_SEEDS:
        vals = [run_replay(5, "clustering-eps-greedy", world, seed, b=b,
                           iterations=6000) for b in B_GRID]
        arg = int(np.argmax(vals))
        argmaxes.append(B_GRID[arg])
        interior += 0 < arg < len(B_GRID) - 1
    elapsed = time.perf_counter() - t0
    ok = interior >= 8 and elapsed < 300.0
    report(5, "interior B optimum", ok,
           f"interior on {interior}/10 seeds, argmax B={argmaxes}, "
           f"{elapsed:.0f}s")


@pytest.fixture(scope="module")
def eps_sweep_clustering(world):
    t0 = time.perf_counter()
    table = {(e, s): run_replay(6, "clustering-eps-greedy", world, s,
                                epsilon=e)
             for e in EPS_GRID for s in RUN_SEEDS}
    return table, time.perf_counter() - t0


def test_criterion_6_epsilon_sweep_shape(eps_sweep_clustering):
    table, elapsed = eps_sweep_clustering
    ok_seeds = 0
    for s in RUN_SEEDS:
        vals = {e: table[(e, s)] for e in EPS_GRID}
        interior_best = max(v for e, v in vals.items() if 0.0 < e < 1.0)
        if interior_best >= 1.05 * vals[0.0] \
                and interior_best >= 1.05 * vals[1.0]:
            ok_seeds += 1
    means = {e: float(np.mean([table[(e, s)] for s in RUN_SEEDS]))
             for e in EPS_GRID}
    ok = ok_seeds >= 8 and elapsed < 300.0
    report(6, "interior epsilon beats both extremes by 5%", ok,
           f"ok on {ok_seeds}/10 seeds, mean AVCTR by eps="
           f"{ {e: round(v, 3) for e, v in means.items()} }, {elapsed:.0f}s")


def test_criterion_7_clustering_benefit(world, eps_sweep_clustering):
    table, _ = eps_sweep_clustering
    t0 = time.perf_counter()
    glob = {(e, s): run_replay(7, "eps-greedy", world, s, epsilon=e)
            for e in EPS_GRID for s in RUN_SEEDS}
    wins = 0
    for s in RUN_SEEDS:
        best_clustering = max(table[(e, s)] for e in EPS_GRID)
        best_global = max(glob[(e, s)] for e in EPS_GRID)
        wins += best_clustering >= best_global
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and elapsed < 300.0
    report(7, "clustering beats plain eps-greedy at best eps", ok,
           f"wins on {wins}/10 seeds, {elapsed:.0f}s")


def test_criterion_8_tuner_convergence():
    t0 = time.perf_counter()
    candidates = [0.1, 0.9]
    payoff = {0.1: 0.6, 0.9: 0.2}
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(800 + rep)
        state = EpsilonTunerState(list(candidates))
        for _ in range(500):
            tune_epsilon(state, lambda e: float(rng.random() < payoff[e]),
                         rng)
        hits += state.best == 0.1
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 120.0
    report(8, "tuner picks dominant epsilon", ok,
           f"{hits}/100 replications, {elapsed:.1f}s")


def test_criterion_9_replay_bookkeeping():
    exact = sum(ok for _, ok in RECOUNTS)
    ok = RECOUNTS and exact == len(RECOUNTS)
    report(9, "AVCTR recount exact on all runs", bool(ok),
           f"{exact}/{len(RECOUNTS)} runs exact")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "world": {"groups": 3, "situations_per_group": 8, "docs": 30,
                  "preferred_docs_per_group": 3,
                  "occurrences_per_situation": 30,
                  "max_prototype_sim": 2.2},
        "sample_world": {"groups": 3, "situations_per_group": 8, "docs": 30,
                         "preferred_docs_per_group": 3,
                         "max_prototype_sim": 2.2},
        "iterations": 200, "report_period": 100, "slate_size": 5, "nc": 3,
        "h_epsilon": [0.0, 0.5], "rounds": 5, "episode_length": 5,
    }))

    def run_all(tag):
        out = tmp_path / tag
        out.mkdir()
        cmds = [
            ["gen-data", "--config", str(cfg), "--seed", "1",
             "--out", str(out / "data")],
            ["simulate", "--config", str(cfg),
             "--world", str(out / "data" / "world.json"), "--seed", "2",
             "--out", str(out / "report.tsv")],
            ["sweep", "--config", str(cfg),
             "--world", str(out / "data" / "world.json"),
             "--param", "epsilon", "--grid", "0.0,0.5", "--seeds", "1",
             "--out", str(out / "sweep.tsv")],
            ["tune-epsilon", "--config", str(cfg),
             "--world", str(out / "data" / "world.json"), "--seed", "3",
             "--out", str(out / "tune.tsv")],
            ["cluster-eval", "--config", str(cfg), "--grid", "1,5",
             "--seeds", "0", "--out", str(out / "clusters.tsv")],
        ]
        for cmd in cmds:
            res = runner.invoke(cli_main, cmd)
            assert res.exit_code == 0, f"{cmd[0]}: {res.output}"
        return sorted(p for p in out.rglob("*") if p.is_file())

    first = run_all("a")
    second = run_all("b")
    identical = [f.read_bytes() == s.read_bytes()
                 for f, s in zip(first, second)]
    elapsed = time.perf_counter() - t0
    ok = len(first) == len(second) == 7 and all(identical)
    report(10, "byte-identical CLI reruns", ok,
           f"{sum(identical)}/{len(identical)} files identical, "
           f"{elapsed:.1f}s")
