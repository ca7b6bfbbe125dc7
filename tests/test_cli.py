import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from situbandit.cli import main

TINY_WORLD = {
    "groups": 3,
    "situations_per_group": 8,
    "docs": 30,
    "preferred_docs_per_group": 3,
    "occurrences_per_situation": 30,
    "max_prototype_sim": 2.2,
}

FAST_RUN = {
    "world": TINY_WORLD,
    "iterations": 100,
    "report_period": 50,
    "slate_size": 5,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, doc):
    Path(path).write_text(yaml.safe_dump(doc))


def gen_world(runner, tmp_path, seed=1):
    cfg = tmp_path / "config.yaml"
    write_config(cfg, FAST_RUN)
    res = runner.invoke(main, ["gen-data", "--config", str(cfg),
                               "--seed", str(seed),
                               "--out", str(tmp_path / "data")])
    assert res.exit_code == 0, res.output
    return tmp_path / "data" / "world.json", cfg


def test_gen_data_outputs(runner, tmp_path):
    world_path, _ = gen_world(runner, tmp_path)
    data = tmp_path / "data"
    assert world_path.exists()
    assert (data / "situations.tsv").exists()
    assert (data / "navigation.tsv").exists()
    doc = json.loads(world_path.read_text())
    assert len(doc["situations"]) == 3 * 8
    header = (data / "situations.tsv").read_text().splitlines()[0]
    assert header == "IDS\tTime\tPlace\tSocial"


def test_gen_data_rejects_bad_config(runner, tmp_path):
    cfg = tmp_path / "bad.yaml"
    write_config(cfg, {"world": {"groups": 0}})
    res = runner.invoke(main, ["gen-data", "--config", str(cfg),
                               "--out", str(tmp_path / "d")])
    assert res.exit_code != 0
    assert "Error" in res.output


def test_simulate_writes_report(runner, tmp_path):
    world_path, cfg = gen_world(runner, tmp_path)
    out = tmp_path / "report.tsv"
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--world", str(world_path),
                               "--policy", "clustering-eps-greedy",
                               "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "final avg CTR" in res.output
    lines = out.read_text().splitlines()
    assert lines[0].startswith("iteration\tavg_ctr")
    assert len(lines) == 1 + 100 // 50


def test_simulate_reruns_are_byte_identical(runner, tmp_path):
    world_path, cfg = gen_world(runner, tmp_path)
    outs = []
    for name in ("a.tsv", "b.tsv"):
        out = tmp_path / name
        res = runner.invoke(main, ["simulate", "--config", str(cfg),
                                   "--world", str(world_path),
                                   "--seed", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_all_policies(runner, tmp_path):
    world_path, cfg = gen_world(runner, tmp_path)
    for policy in ("eps-greedy", "random", "oracle"):
        out = tmp_path / f"{policy}.tsv"
        res = runner.invoke(main, ["simulate", "--config", str(cfg),
                                   "--world", str(world_path),
                                   "--policy", policy, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.exists()


def test_sweep_table_shape(runner, tmp_path):
    world_path, cfg = gen_world(runner, tmp_path)
    out = tmp_path / "sweep.tsv"
    res = runner.invoke(main, ["sweep", "--config", str(cfg),
                               "--world", str(world_path),
                               "--param", "epsilon", "--grid", "0.0,0.5",
                               "--seeds", "1,2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "param\tvalue\tseed\tfinal_avctr"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].split("\t")[:3] == ["epsilon", "0", "1"]


def test_sweep_rejects_unknown_param(runner, tmp_path):
    world_path, _ = gen_world(runner, tmp_path)
    res = runner.invoke(main, ["sweep", "--world", str(world_path),
                               "--param", "gamma", "--grid", "1"])
    assert res.exit_code != 0


def test_removed_choices_are_usage_errors(runner, tmp_path):
    # the engine no longer clusters: t_max and ct change no replay, and
    # context-eps-greedy was the same engine as clustering-eps-greedy
    world_path, cfg = gen_world(runner, tmp_path)
    world = ["--config", str(cfg), "--world", str(world_path)]
    cases = [
        ["sweep", *world, "--param", "ct", "--grid", "40"],
        ["sweep", *world, "--param", "t_max", "--grid", "60"],
        ["simulate", *world, "--policy", "context-eps-greedy"],
    ]
    for args in cases:
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o.tsv")])
        assert res.exit_code == 2, (args, res.output)
        assert "Invalid value" in res.output, args
        assert "Traceback" not in res.output, args
        assert isinstance(res.exception, SystemExit), (args, res.exception)
        assert not (tmp_path / "o.tsv").exists()


def test_tune_epsilon_trace(runner, tmp_path):
    world_path, _ = gen_world(runner, tmp_path)
    cfg = tmp_path / "tune.yaml"
    write_config(cfg, dict(FAST_RUN, h_epsilon=[0.0, 0.5], rounds=10,
                           episode_length=5))
    out = tmp_path / "tune.tsv"
    res = runner.invoke(main, ["tune-epsilon", "--config", str(cfg),
                               "--world", str(world_path),
                               "--seed", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "chosen epsilon:" in res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "round\tepsilon\tclicks\tw_0\tw_0.5"
    assert len(lines) == 11
    chosen = float(res.output.split("chosen epsilon:")[1].split()[0])
    assert chosen in (0.0, 0.5)


def test_cluster_eval_table(runner, tmp_path):
    cfg = tmp_path / "ce.yaml"
    write_config(cfg, {"sample_world": dict(TINY_WORLD), "nc": 3})
    out = tmp_path / "clusters.tsv"
    res = runner.invoke(main, ["cluster-eval", "--config", str(cfg),
                               "--grid", "1,5", "--seeds", "0,1",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "t_max\tseed\tprecision"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        assert 0.0 <= float(line.split("\t")[2]) <= 1.0


def test_cluster_eval_default_grid(runner, tmp_path):
    cfg = tmp_path / "ce.yaml"
    write_config(cfg, {"sample_world": dict(TINY_WORLD), "nc": 3})
    out = tmp_path / "clusters.tsv"
    res = runner.invoke(main, ["cluster-eval", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert [(t, s) for t, s, _ in rows] == [
        (t, "0") for t in ("1", "5", "10", "20", "40", "60")]


def test_missing_world_file(runner, tmp_path):
    res = runner.invoke(main, ["simulate", "--world",
                               str(tmp_path / "none.json")])
    assert res.exit_code != 0


def test_out_of_range_values_are_clean_errors(runner, tmp_path):
    world_path, cfg = gen_world(runner, tmp_path)
    tune_cfg = tmp_path / "tune.yaml"
    write_config(tune_cfg, dict(FAST_RUN, h_epsilon=[0.5, 1.5]))
    bad_tune_cfg = tmp_path / "bad_tune.yaml"
    write_config(bad_tune_cfg, dict(FAST_RUN, h_epsilon=[0.5, "high"]))
    eval_cfg = tmp_path / "ce.yaml"
    write_config(eval_cfg, {"sample_world": dict(TINY_WORLD), "nc": 3})
    no_seeds_cfg = tmp_path / "no_seeds.yaml"
    write_config(no_seeds_cfg, dict(FAST_RUN, seeds=[]))
    half_seed_cfg = tmp_path / "half_seed.yaml"
    write_config(half_seed_cfg, dict(FAST_RUN, seeds=[1.5, 1]))
    world = ["--world", str(world_path)]
    cases = [
        ["sweep", "--config", str(cfg), *world, "--param", "epsilon",
         "--grid", "1.5"],
        ["tune-epsilon", "--config", str(tune_cfg), *world],
        ["cluster-eval", "--config", str(eval_cfg), "--grid", "0"],
        # fractional integer parameters are refused, not truncated
        ["cluster-eval", "--config", str(eval_cfg), "--grid", "2.5"],
        # malformed numbers are refused, not raised as a ValueError
        ["sweep", "--config", str(cfg), *world, "--param", "epsilon",
         "--grid", "abc"],
        ["sweep", "--config", str(cfg), *world, "--param", "epsilon",
         "--grid", "0.1", "--seeds", "1,x"],
        ["tune-epsilon", "--config", str(bad_tune_cfg), *world],
        ["cluster-eval", "--config", str(eval_cfg), "--seeds", "y"],
        # an empty seed list is refused, not run as zero replays
        ["sweep", "--config", str(cfg), *world, "--param", "epsilon",
         "--grid", "0.1", "--seeds", ","],
        ["sweep", "--config", str(no_seeds_cfg), *world, "--param",
         "epsilon", "--grid", "0.1"],
        # fractional seeds are refused, not truncated into a repeated seed
        ["sweep", "--config", str(half_seed_cfg), *world, "--param",
         "epsilon", "--grid", "0.1"],
    ]
    for args in cases:
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o.tsv")])
        assert res.exit_code == 1, (args, res.output)
        assert "Error:" in res.output, args
        # a clean click error, not an uncaught exception and its traceback
        assert isinstance(res.exception, SystemExit), (args, res.exception)
        assert not (tmp_path / "o.tsv").exists()
