import json
from pathlib import Path
from unittest import mock

import pytest
import yaml
from click.testing import CliRunner

from situbandit import cli
from situbandit.bandit import Branch
from situbandit.cli import CONFIG_KEYS, main
from situbandit.simdata import WorldConfig, generate_world, world_to_dict

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
        # negative seeds are refused, not passed on to numpy
        ["simulate", "--config", str(cfg), *world, "--seed", "-1"],
        ["sweep", "--config", str(cfg), *world, "--param", "epsilon",
         "--grid", "0.1", "--seeds=-1"],
        ["gen-data", "--config", str(cfg), "--seed", "-1"],
        ["cluster-eval", "--config", str(eval_cfg), "--seeds=-1"],
    ]
    for args in cases:
        res = runner.invoke(main, args + ["--out", str(tmp_path / "o.tsv")])
        assert res.exit_code == 1, (args, res.output)
        assert "Error:" in res.output, args
        # a clean click error, not an uncaught exception and its traceback
        assert isinstance(res.exception, SystemExit), (args, res.exception)
        assert not (tmp_path / "o.tsv").exists()


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "slate_size", 2.5),
    ("simulate", "slate_size", "3"),
    ("simulate", "slate_size", True),
    ("simulate", "epsilon", "abc"),
    ("simulate", "threshold_b", [2.4]),
    ("simulate", "iterations", 150.5),
    ("simulate", "report_period", "fifty"),
    ("simulate", "report_period", 0),
    ("simulate", "seed", 1.5),
    ("sweep", "iterations", 150.5),
    ("tune-epsilon", "rounds", "x"),
    ("tune-epsilon", "episode_length", 2.5),
    ("tune-epsilon", "slate_size", 2.5),
    ("cluster-eval", "nc", 2.5),
    ("cluster-eval", "seed", "s"),
    # one setting, not two arms
    ("tune-epsilon", "h_epsilon", [0.5, 0.5]),
    # one integer rule: a whole float is not an integer, for any key
    ("simulate", "iterations", 200.0),
    ("cluster-eval", "nc", 3.0),
    ("tune-epsilon", "h_epsilon", []),
    ("tune-epsilon", "rounds", -3),
    ("tune-epsilon", "episode_length", -1),
])
def test_wrongly_typed_config_values_are_clean_errors(runner, tmp_path,
                                                       command, key, value):
    world_path, _ = gen_world(runner, tmp_path)
    cfg = tmp_path / "typed.yaml"
    doc = dict(FAST_RUN, h_epsilon=[0.0, 0.5], rounds=2, episode_length=5)
    doc[key] = value
    doc["sample_world"] = TINY_WORLD
    write_config(cfg, doc)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "o.tsv")]
    if command != "cluster-eval":
        args += ["--world", str(world_path)]
    if command == "sweep":
        args += ["--param", "epsilon", "--grid", "0.1"]
    res = runner.invoke(main, args)
    assert res.exit_code == 1, res.output
    assert "Error:" in res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert not (tmp_path / "o.tsv").exists()


def test_unknown_config_key_is_refused(runner, tmp_path):
    world_path, _ = gen_world(runner, tmp_path)
    cfg = tmp_path / "typo.yaml"
    out = tmp_path / "o.tsv"
    # a misspelt key, and a retired one
    for key, value in (("epsilom", 1.0), ("cold_start_fallback", False)):
        write_config(cfg, dict(FAST_RUN, **{key: value}))
        res = runner.invoke(main, ["simulate", "--config", str(cfg),
                                   "--world", str(world_path),
                                   "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert f"Error: unknown config keys: {key}" in res.output
        assert not out.exists()


def test_config_file_must_hold_a_mapping(runner, tmp_path):
    # an empty file runs with the defaults, as no file does
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    outputs = []
    for config in ([], ["--config", str(empty)]):
        out = tmp_path / f"clusters{len(config)}.tsv"
        res = runner.invoke(main, ["cluster-eval", *config, "--grid", "1",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    listing = tmp_path / "list.yaml"
    write_config(listing, ["nc", 3])
    res = runner.invoke(main, ["cluster-eval", "--config", str(listing),
                               "--out", str(tmp_path / "o.tsv")])
    assert res.exit_code == 1, res.output
    assert "Error:" in res.output and "must hold a mapping" in res.output
    assert not (tmp_path / "o.tsv").exists()


def _deep_yaml(depth):
    """A `world:` mapping nested `depth` deep, one level per line."""
    return "".join(f"{'  ' * i}world:\n" for i in range(depth)).encode()


#: Each command with the arguments it needs, and whether it takes --world.
COMMANDS = [
    (["gen-data"], False),
    (["simulate"], True),
    (["sweep", "--param", "epsilon", "--grid", "0.1"], True),
    (["tune-epsilon"], True),
    (["cluster-eval", "--grid", "1"], False),
]


@pytest.mark.parametrize("option, content", [
    pytest.param("--config", b"epsilon: [", id="config-not-yaml"),
    pytest.param("--config", _deep_yaml(600), id="config-nested-too-deep"),
    pytest.param("--config", b"\xff\xfe", id="config-not-utf8"),
    pytest.param("--config", None, id="config-directory"),
    pytest.param("--world", None, id="world-directory"),
])
def test_unreadable_input_file_is_a_clean_error(runner, tmp_path, option,
                                                content):
    # every command taking `option` refuses the file with an `Error:` line:
    # exit 1, or click's usage exit 2 for a directory
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    world_path, cfg = gen_world(runner, tmp_path)
    out = tmp_path / "out"
    for command, takes_world in COMMANDS:
        if option == "--world" and not takes_world:
            continue
        files = {"--config": cfg, "--world": world_path, option: bad}
        args = [*command, "--config", str(files["--config"]),
                "--out", str(out)]
        if takes_world:
            args += ["--world", str(files["--world"])]
        res = runner.invoke(main, args)
        assert res.exit_code == (2 if content is None else 1), res.output
        assert "Error:" in res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert not out.exists()


def _a_file(path):
    path.write_text("taken\n")
    return path


def _a_directory(path):
    path.mkdir()
    return path


def _holds_world_json_directory(path):
    (path / "world.json").mkdir(parents=True)
    return path


@pytest.mark.parametrize("make_out, kinds, code", [
    pytest.param(_a_file, {"directory"}, 2, id="directory-is-a-file"),
    pytest.param(_a_directory, {"file"}, 2, id="file-is-a-directory"),
    pytest.param(lambda p: p / "missing" / "out.tsv", {"file"}, 1,
                 id="parent-missing"),
    pytest.param(lambda p: _a_file(p) / "out", {"directory", "file"}, 1,
                 id="parent-is-a-file"),
    pytest.param(_holds_world_json_directory, {"directory"}, 1,
                 id="world-json-is-a-directory"),
])
def test_unwritable_out_is_a_clean_error(runner, tmp_path, make_out, kinds,
                                         code):
    # gen-data's --out names a directory, every other command's a file;
    # an --out that cannot be written ends in an `Error:` line: click's
    # usage exit 2 for a path of the wrong kind, else exit 1, and the
    # commands that replay or cluster refuse it before they start
    world_path, cfg = gen_world(runner, tmp_path)
    spies = [mock.patch.object(cli, name, wraps=getattr(cli, name))
             for name in ("replay_evaluate", "step", "kmedoids")]
    for command, takes_world in COMMANDS:
        kind = "directory" if command[0] == "gen-data" else "file"
        if kind not in kinds:
            continue
        out = make_out(tmp_path / command[0])
        args = [*command, "--config", str(cfg), "--out", str(out)]
        if takes_world:
            args += ["--world", str(world_path)]
        with spies[0] as replay, spies[1] as step, spies[2] as kmedoids:
            res = runner.invoke(main, args)
        assert res.exit_code == code, (command, res.output, res.exception)
        assert "Error:" in res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert not (replay.called or step.called or kmedoids.called)


def test_readme_lists_every_config_key():
    # the first cell of each row of README's config-key table names keys
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Config keys")[1].split("\n#")[0]
    listed = [key.rstrip(":") for row in section.splitlines()
              if row.startswith("| `")
              for key in row.split("|")[1].split("`")[1::2]]
    assert sorted(listed) == sorted(CONFIG_KEYS)


def test_readme_names_every_branch():
    # README's report-TSV line spells out the header `simulate` writes
    text = (Path(__file__).parents[1] / "README.md").read_text()
    header = text.split("- **report TSV** (`simulate`) — `")[1].split("`")[0]
    assert header.split() == ["iteration", "avg_ctr",
                              *[b.value for b in Branch]]


@pytest.mark.parametrize("command, key, entry", [
    ("gen-data", "world", {"colour": "red"}),
    ("gen-data", "world", {"groups": "3"}),
    ("gen-data", "world", {"high_affinity": 0.5}),
    ("gen-data", "world", {"organic_good_bias": [0.4]}),
    ("gen-data", "world", {"preferred_docs_per_group": 0}),
    ("gen-data", "world", {"organic_browse": -1}),
    ("gen-data", "world", ["groups", 3]),
    ("cluster-eval", "sample_world", {"colour": "red"}),
    ("cluster-eval", "sample_world", {"docs": 30.5}),
    ("gen-data", "world", {"occurrences_per_situation": -1}),
    ("cluster-eval", "sample_world", {"high_affinity": [0.9, 0.5]}),
    ("gen-data", "world", {"organic_browse": 2**70}),
])
def test_bad_world_config_is_a_clean_error(runner, tmp_path, command, key,
                                           entry):
    cfg = tmp_path / "world.yaml"
    doc = {"nc": 3}
    doc[key] = dict(TINY_WORLD, **entry) if isinstance(entry, dict) else entry
    write_config(cfg, doc)
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--out", str(out)]
    if command == "cluster-eval":
        args += ["--grid", "1"]
    res = runner.invoke(main, args)
    assert res.exit_code == 1, res.output
    assert "Error:" in res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert not out.exists()


SAVED_WORLD = world_to_dict(generate_world(WorldConfig(**TINY_WORLD), 1))


def edited_world(**edits):
    """SAVED_WORLD as JSON text, with each named entry passed through its
    edit function."""
    doc = dict(SAVED_WORLD)
    for key, edit in edits.items():
        doc[key] = edit(doc[key])
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    '{"config": {}}',
    "not json",
    "[]",
    '{"config": {"colour": "red"}}',
    pytest.param(edited_world(group_of=lambda g: g[:-1]),
                 id="short-group-of"),
    pytest.param(edited_world(occurrences=lambda o: o + [30]),
                 id="long-occurrences"),
    pytest.param(edited_world(affinity=lambda a: [r[:-1] for r in a]),
                 id="narrow-affinity"),
    pytest.param(edited_world(affinity=lambda a: a[:-1]),
                 id="short-affinity"),
    pytest.param(edited_world(group_of=lambda g: g[:-1] + [3]),
                 id="group-id-too-large"),
    pytest.param(edited_world(group_of=lambda g: [-1] + g[1:]),
                 id="negative-group-id"),
    pytest.param(edited_world(preferred=lambda p: [p[0][:-1] + [30]] + p[1:]),
                 id="preferred-index-too-large"),
    pytest.param(edited_world(situations=lambda s: s[:-1] + [s[0]]),
                 id="situation-in-two-groups"),
    pytest.param(edited_world(occurrences=lambda o: [-5] + o[1:]),
                 id="negative-occurrences"),
    pytest.param(edited_world(config=lambda c: dict(
        c, parent_perturb_prob=0.3)), id="retired-perturbation-knob"),
    pytest.param(edited_world(affinity=lambda a: [[str(x) for x in r]
                                                  for r in a]),
                 id="affinity-as-strings"),
    pytest.param(edited_world(affinity=lambda a: [[7.5] + a[0][1:]] + a[1:]),
                 id="affinity-above-one"),
    pytest.param(edited_world(affinity=lambda a: [[float("nan")] + a[0][1:]]
                              + a[1:]), id="affinity-nan"),
    pytest.param(edited_world(preferred=lambda p: [[]] + p[1:]),
                 id="empty-preferred"),
    pytest.param(edited_world(situations=lambda s: [["Nowhere", *s[0][1:]]]
                              + s[1:]), id="unknown-concept"),
    pytest.param(edited_world(doc_ids=lambda d: [d[0]] * len(d)),
                 id="doc-ids-repeated"),
    pytest.param(edited_world(doc_ids=lambda d: list(range(len(d)))),
                 id="doc-ids-not-strings"),
    *(pytest.param(edited_world(seed=lambda _, v=bad: v), id=f"seed-{bad}")
      for bad in ("abc", -5, 1.5, True, None)),
    # both load as Python ints but cannot be int64s in the replay
    pytest.param(edited_world(occurrences=lambda o: [2**70] + o[1:]),
                 id="occurrences-2**70"),
    pytest.param(edited_world(config=lambda c: dict(c, organic_browse=2**70)),
                 id="organic-browse-2**70"),
    pytest.param(b"\xff\xfe" + json.dumps(SAVED_WORLD).encode(),
                 id="not-utf8"),
    pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deep"),
])
def test_malformed_world_file_is_a_clean_error(runner, tmp_path, text):
    world_path = tmp_path / "world.json"
    if isinstance(text, bytes):
        world_path.write_bytes(text)
    else:
        world_path.write_text(text)
    out = tmp_path / "o.tsv"
    res = runner.invoke(main, ["simulate", "--world", str(world_path),
                               "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "Error:" in res.output and "is not a saved world" in res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert not out.exists()
