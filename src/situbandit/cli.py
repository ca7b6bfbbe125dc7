"""Command-line entry point: data generation, simulation, sweeps, tuning.

All commands are batch and reproducible: every random draw flows from the
seeds in the config file or the --seed flag, and outputs are plot-ready
delimited text. CLI flags override config-file values.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional

import click
import numpy as np
import yaml

from .bandit import BanditConfig, EpsilonTunerState, step, tune_epsilon
from .clustering import ClusteringConfig, kmedoids
from .errors import ConfigError, SitubanditError, check_kind
from .simdata import (POLICY_NAMES, WorldConfig, build_policy,
                      clustering_precision, export_diary, generate_world,
                      load_world, replay_evaluate, save_world)

#: An existing file (not a directory): the type of every --config and
#: --world option.
INPUT_FILE = click.Path(exists=True, dir_okay=False)


def _output_file(ctx, param, value: str) -> str:
    """An --out file's directory must exist. Checked while the options
    are parsed, so before any replay runs."""
    parent = Path(value).parent
    if not parent.is_dir():
        raise click.ClickException(f"cannot write {value}: {parent} is not "
                                   f"a directory")
    return value


#: A file (not a directory) in an existing directory: every --out option
#: but gen-data's, which names a directory.
OUTPUT_FILE = {"type": click.Path(dir_okay=False), "callback": _output_file}

DEFAULT_H_EPSILON = [round(0.1 * i, 1) for i in range(11)]

#: Config keys set on `BanditConfig` (the run seed sets its `seed`), config
#: keys -> `ClusteringConfig` fields, `replay_evaluate` arguments, and the
#: commands' own keys.
BANDIT_KEYS = [f.name for f in dataclasses.fields(BanditConfig)
               if f.name != "seed"]
CLUSTERING_KEYS = {"nc": "num_clusters", "t_max": "max_iterations"}
REPLAY_KEYS = ["iterations", "report_period"]
RUN_KEYS = ["seed", "seeds", "grid", "h_epsilon", "rounds", "episode_length",
            "world", "sample_world"]
CONFIG_KEYS = [*BANDIT_KEYS, *CLUSTERING_KEYS, *REPLAY_KEYS, *RUN_KEYS]


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except (yaml.YAMLError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} cannot be read as YAML: "
                          f"{type(exc).__name__}: {exc}") from exc
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: "
                          f"{', '.join(sorted(map(str, unknown)))}")
    return doc


def _bandit_config(cfg: dict, seed: int) -> BanditConfig:
    return BanditConfig(**{k: cfg[k] for k in BANDIT_KEYS if k in cfg},
                        seed=seed)


def _clustering_config(cfg: dict, seed: int) -> ClusteringConfig:
    return ClusteringConfig(**{field: cfg[k]
                               for k, field in CLUSTERING_KEYS.items()
                               if k in cfg}, seed=seed)


def _replay_keys(cfg: dict) -> dict:
    return {k: cfg[k] for k in REPLAY_KEYS if k in cfg}


def _world_config(cfg: dict, key: str = "world", **extra) -> WorldConfig:
    merged = cfg.get(key, {})
    if not isinstance(merged, dict):
        raise ConfigError(f"{key} must be a mapping, got {merged!r}")
    return WorldConfig.from_dict({**extra, **merged})


def _numbers(kind: type, flag: Optional[str], cfg: dict, key: str,
             default: list) -> list:
    """The comma-separated `flag` values, else the config's `key` list, else
    `default`: a non-empty list, each entry a `kind` (int or float)."""
    if flag:
        values = []
        for text in filter(str.strip, flag.split(",")):
            try:
                values.append(kind(text))
            except ValueError:
                values.append(text)  # not a `kind`: refused below
    else:
        values = cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key} must be a non-empty list, got {values!r}")
    return [kind(check_kind(f"{key} entry", v, kind)) for v in values]


def _config_int(cfg: dict, key: str, default: int) -> int:
    return check_kind(key, cfg.get(key, default), int)


@click.group()
def main():
    """Contextual-bandit recommendation engine: offline experiments."""


def _run(fn):
    try:
        fn()
    except (SitubanditError, OSError) as exc:
        raise click.ClickException(str(exc))


@main.command("gen-data")
@click.option("--config", "config_path", type=INPUT_FILE)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              default="data")
def cmd_gen_data(config_path, seed, out_dir):
    """Generate a synthetic diary world and its delimited exports."""
    def go():
        cfg = _load_config(config_path)
        world_seed = seed if seed is not None else _config_int(cfg, "seed", 0)
        world = generate_world(_world_config(cfg), world_seed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_world(world, out / "world.json")
        export_diary(world, out / "situations.tsv", out / "navigation.tsv")
        click.echo(f"world: {len(world.situations)} situations, "
                   f"{len(world.doc_ids)} documents -> {out}")
    _run(go)


@main.command("simulate")
@click.option("--config", "config_path", type=INPUT_FILE)
@click.option("--world", "world_path", type=INPUT_FILE,
              required=True)
@click.option("--policy", type=click.Choice(POLICY_NAMES),
              default="clustering-eps-greedy")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", **OUTPUT_FILE, default="report.tsv")
def cmd_simulate(config_path, world_path, policy, seed, out_path):
    """Replay-evaluate one policy on a generated world."""
    def go():
        cfg = _load_config(config_path)
        base = seed if seed is not None else _config_int(cfg, "seed", 0)
        world = load_world(world_path)
        pol = build_policy(policy, world, _bandit_config(cfg, base))
        report = replay_evaluate(pol, world, **_replay_keys(cfg),
                                 seed=base + 10 ** 6, keep_trials=False)
        report.to_tsv(out_path)
        click.echo(f"{policy}: final avg CTR {report.final_avctr:.4f} "
                   f"-> {out_path}")
    _run(go)


@main.command("sweep")
@click.option("--config", "config_path", type=INPUT_FILE)
@click.option("--world", "world_path", type=INPUT_FILE,
              required=True)
@click.option("--param", type=click.Choice(["epsilon", "threshold_b"]),
              required=True)
@click.option("--grid", default=None, help="comma-separated grid values")
@click.option("--seeds", "seeds_flag", default=None,
              help="comma-separated seeds")
@click.option("--policy", type=click.Choice(POLICY_NAMES),
              default="clustering-eps-greedy")
@click.option("--out", "out_path", **OUTPUT_FILE, default="sweep.tsv")
def cmd_sweep(config_path, world_path, param, grid, seeds_flag, policy,
              out_path):
    """One replay run per (grid value, seed); merged result table."""
    def go():
        cfg = _load_config(config_path)
        values = _numbers(float, grid, cfg, "grid", [])
        seeds = _numbers(int, seeds_flag, cfg, "seeds", [0])
        # the --param names are the config keys; build (and so validate)
        # every run's config before the first replay
        runs = [(value, s, _bandit_config({**cfg, param: value}, s))
                for value in values for s in seeds]
        world = load_world(world_path)
        lines = ["param\tvalue\tseed\tfinal_avctr"]
        for value, s, bandit_cfg in runs:
            pol = build_policy(policy, world, bandit_cfg)
            report = replay_evaluate(pol, world, **_replay_keys(cfg),
                                     seed=s + 10 ** 6, keep_trials=False)
            lines.append(f"{param}\t{value:g}\t{s}\t"
                         f"{report.final_avctr:.6f}")
        Path(out_path).write_text("\n".join(lines) + "\n")
        click.echo(f"{len(values) * len(seeds)} runs -> {out_path}")
    _run(go)


@main.command("tune-epsilon")
@click.option("--config", "config_path", type=INPUT_FILE)
@click.option("--world", "world_path", type=INPUT_FILE,
              required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", **OUTPUT_FILE, default="tune.tsv")
def cmd_tune_epsilon(config_path, world_path, seed, out_path):
    """Adaptive epsilon selection over candidate values."""
    def go():
        cfg = _load_config(config_path)
        base = seed if seed is not None else _config_int(cfg, "seed", 0)
        candidates = _numbers(float, None, cfg, "h_epsilon",
                              DEFAULT_H_EPSILON)
        state = EpsilonTunerState(candidates)
        configs = {e: _bandit_config({**cfg, "epsilon": e}, base)
                   for e in candidates}
        rounds = _config_int(cfg, "rounds", 200)
        episode_length = _config_int(cfg, "episode_length", 50)
        if rounds < 1 or episode_length < 1:
            raise ConfigError("rounds and episode_length must both be >= 1")
        world = load_world(world_path)
        engine = build_policy("clustering-eps-greedy", world,
                              _bandit_config(cfg, base))
        rng = np.random.default_rng(base + 10 ** 6)
        source = world.feedback_source(rng)
        n_situations = len(world.situations)

        def run_episode(epsilon: float) -> float:
            engine.config = configs[epsilon]
            clicks = 0
            for _ in range(episode_length):
                s = world.situations[int(rng.integers(n_situations))]
                clicks += sum(step(engine, s, source).clicks.values())
            return clicks

        lines = ["round\tepsilon\tclicks\t"
                 + "\t".join(f"w_{e:g}" for e in candidates)]
        for _ in range(rounds):
            before = list(state.weights)
            chosen, state = tune_epsilon(state, run_episode, rng)
            clicks = sum(a - b for a, b in zip(state.weights, before))
            weights = "\t".join(f"{w:g}" for w in state.weights)
            lines.append(f"{state.trial_index}\t{chosen:g}\t{clicks:g}\t"
                         f"{weights}")
        Path(out_path).write_text("\n".join(lines) + "\n")
        click.echo(f"chosen epsilon: {state.best:g} -> {out_path}")
    _run(go)


@main.command("cluster-eval")
@click.option("--config", "config_path", type=INPUT_FILE)
@click.option("--grid", default=None,
              help="comma-separated t_max values")
@click.option("--seeds", "seeds_flag", default=None,
              help="comma-separated seeds")
@click.option("--out", "out_path", **OUTPUT_FILE, default="clusters.tsv")
def cmd_cluster_eval(config_path, grid, seeds_flag, out_path):
    """Cluster a labeled synthetic sample across a t_max grid and report
    pairwise precision against the ground-truth groups."""
    def go():
        cfg = _load_config(config_path)
        values = _numbers(int, grid, cfg, "grid", [1, 5, 10, 20, 40, 60])
        seeds = _numbers(int, seeds_flag, cfg, "seeds", [0])
        sample_cfg = _world_config(cfg, key="sample_world", groups=10,
                                   situations_per_group=50, docs=200,
                                   preferred_docs_per_group=5)
        # the sample and its similarity matrix do not depend on the seed,
        # which only varies the clustering's initial medoids
        world = generate_world(sample_cfg, seed=_config_int(cfg, "seed", 0))
        enc = np.array([world.index.encode(x) for x in world.situations]).T
        sim = world.index.pairwise_weighted(
            enc[0], enc[1], enc[2], (1.0, 1.0, 1.0))
        lines = ["t_max\tseed\tprecision"]
        for s in seeds:
            for t_max in values:
                result = kmedoids(
                    sim, _clustering_config({**cfg, "t_max": t_max}, s))
                prec = clustering_precision(result.labels, world.group_of)
                lines.append(f"{t_max}\t{s}\t{prec:.6f}")
        Path(out_path).write_text("\n".join(lines) + "\n")
        click.echo(f"{len(values) * len(seeds)} clusterings -> {out_path}")
    _run(go)


if __name__ == "__main__":
    main()
