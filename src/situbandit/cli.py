"""Command-line entry point: data generation, simulation, sweeps, tuning.

All commands are batch and reproducible: every random draw flows from the
seeds in the config file or the --seed flag, and outputs are plot-ready
delimited text. CLI flags override config-file values.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

import click
import numpy as np
import yaml

from .bandit import BanditConfig, EpsilonTunerState, step, tune_epsilon
from .clustering import ClusteringConfig, kmedoids
from .errors import ConfigError, SitubanditError
from .simdata import (POLICY_NAMES, WorldConfig, build_policy,
                      clustering_precision, export_diary, generate_world,
                      load_world, replay_evaluate, save_world)

DEFAULT_H_EPSILON = [round(0.1 * i, 1) for i in range(11)]


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    doc = yaml.safe_load(Path(path).read_text())
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return doc


def _bandit_config(cfg: dict, seed: int) -> BanditConfig:
    try:
        return BanditConfig(
            epsilon=cfg.get("epsilon", 0.1),
            slate_size=cfg.get("slate_size", 10),
            threshold_b=cfg.get("threshold_b", 2.4),
            seed=seed,
            cold_start_fallback=cfg.get("cold_start_fallback", True))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _clustering_config(cfg: dict, seed: int) -> ClusteringConfig:
    try:
        return ClusteringConfig(
            num_clusters=cfg.get("nc", 10),
            max_iterations=cfg.get("t_max", 60),
            seed=seed,
            refine=cfg.get("refine", True))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _world_config(cfg: dict, key: str = "world", **extra) -> WorldConfig:
    merged = dict(cfg.get(key, {}))
    for k, v in extra.items():
        merged.setdefault(k, v)
    for tkey in ("high_affinity", "background_affinity", "foreign_affinity"):
        if tkey in merged:
            merged[tkey] = tuple(merged[tkey])
    return WorldConfig(**merged)


def _numbers(kind: type, flag: Optional[str], cfg: dict, key: str,
             default: list) -> list:
    """The comma-separated `flag` values, else the config's `key` list, else
    `default`, each converted by `kind`; a malformed value is a ConfigError."""
    values = ([v for v in flag.split(",") if v.strip() != ""] if flag
              else cfg.get(key, default))
    try:
        return [kind(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of numbers, got "
                          f"{values!r}") from None


def _parse_grid(grid: Optional[str], cfg: dict, key: str,
                default: Optional[List[float]] = None) -> List[float]:
    values = _numbers(float, grid, cfg, key, default or [])
    if not values:
        raise ConfigError("empty sweep grid")
    return values


def _integer(name: str, value: float) -> int:
    """A grid value for an integer parameter; fractions are refused, not
    truncated."""
    if not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value:g}")
    return int(value)


def _seed(value) -> int:
    """One `--seeds` string or config `seeds` entry; a fractional number is
    refused, not truncated."""
    if isinstance(value, float):
        return _integer("seed", value)
    return int(value)


def _seeds(flag: Optional[str], cfg: dict) -> List[int]:
    seeds = _numbers(_seed, flag, cfg, "seeds", [0])
    if not seeds:
        raise ConfigError("empty seed list")
    return seeds


@click.group()
def main():
    """Contextual-bandit recommendation engine: offline experiments."""


def _run(fn):
    try:
        fn()
    except SitubanditError as exc:
        raise click.ClickException(str(exc))


@main.command("gen-data")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default="data")
def cmd_gen_data(config_path, seed, out_dir):
    """Generate a synthetic diary world and its delimited exports."""
    def go():
        cfg = _load_config(config_path)
        world_seed = seed if seed is not None else cfg.get("seed", 0)
        world = generate_world(_world_config(cfg), world_seed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_world(world, out / "world.json")
        export_diary(world, out / "situations.tsv", out / "navigation.tsv")
        click.echo(f"world: {len(world.situations)} situations, "
                   f"{len(world.doc_ids)} documents -> {out}")
    _run(go)


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--world", "world_path", type=click.Path(exists=True),
              required=True)
@click.option("--policy", type=click.Choice(POLICY_NAMES),
              default="clustering-eps-greedy")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default="report.tsv")
def cmd_simulate(config_path, world_path, policy, seed, out_path):
    """Replay-evaluate one policy on a generated world."""
    def go():
        cfg = _load_config(config_path)
        base = seed if seed is not None else cfg.get("seed", 0)
        world = load_world(world_path)
        pol = build_policy(policy, world, _bandit_config(cfg, base))
        report = replay_evaluate(
            pol, world,
            iterations=cfg.get("iterations", 10000),
            report_period=cfg.get("report_period", 1000),
            seed=base + 10 ** 6, keep_trials=False)
        report.to_tsv(out_path)
        click.echo(f"{policy}: final avg CTR {report.final_avctr:.4f} "
                   f"-> {out_path}")
    _run(go)


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--world", "world_path", type=click.Path(exists=True),
              required=True)
@click.option("--param", type=click.Choice(["epsilon", "threshold_b"]),
              required=True)
@click.option("--grid", default=None, help="comma-separated grid values")
@click.option("--seeds", "seeds_flag", default=None,
              help="comma-separated seeds")
@click.option("--policy", type=click.Choice(POLICY_NAMES),
              default="clustering-eps-greedy")
@click.option("--out", "out_path", type=click.Path(), default="sweep.tsv")
def cmd_sweep(config_path, world_path, param, grid, seeds_flag, policy,
              out_path):
    """One replay run per (grid value, seed); merged result table."""
    def go():
        cfg = _load_config(config_path)
        values = _parse_grid(grid, cfg, "grid")
        seeds = _seeds(seeds_flag, cfg)
        # the --param names are the config keys; build (and so validate)
        # every run's config before the first replay
        runs = [(value, s, _bandit_config({**cfg, param: value}, s))
                for value in values for s in seeds]
        world = load_world(world_path)
        lines = ["param\tvalue\tseed\tfinal_avctr"]
        for value, s, bandit_cfg in runs:
            pol = build_policy(policy, world, bandit_cfg)
            report = replay_evaluate(
                pol, world,
                iterations=cfg.get("iterations", 10000),
                report_period=cfg.get("report_period", 1000),
                seed=s + 10 ** 6, keep_trials=False)
            lines.append(f"{param}\t{value:g}\t{s}\t"
                         f"{report.final_avctr:.6f}")
        Path(out_path).write_text("\n".join(lines) + "\n")
        click.echo(f"{len(values) * len(seeds)} runs -> {out_path}")
    _run(go)


@main.command("tune-epsilon")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--world", "world_path", type=click.Path(exists=True),
              required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default="tune.tsv")
def cmd_tune_epsilon(config_path, world_path, seed, out_path):
    """Adaptive epsilon selection over candidate values."""
    def go():
        cfg = _load_config(config_path)
        base = seed if seed is not None else cfg.get("seed", 0)
        candidates = _numbers(float, None, cfg, "h_epsilon",
                              DEFAULT_H_EPSILON)
        configs = {e: _bandit_config({**cfg, "epsilon": e}, base)
                   for e in candidates}
        world = load_world(world_path)
        rounds = int(cfg.get("rounds", 200))
        episode_length = int(cfg.get("episode_length", 50))
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

        state = EpsilonTunerState(candidates)
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
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--grid", default=None,
              help="comma-separated t_max values")
@click.option("--seeds", "seeds_flag", default=None,
              help="comma-separated seeds")
@click.option("--out", "out_path", type=click.Path(), default="clusters.tsv")
def cmd_cluster_eval(config_path, grid, seeds_flag, out_path):
    """Cluster a labeled synthetic sample across a t_max grid and report
    pairwise precision against the ground-truth groups."""
    def go():
        cfg = _load_config(config_path)
        values = [_integer("t_max", v)
                  for v in _parse_grid(grid, cfg, "grid",
                                       [1, 5, 10, 20, 40, 60])]
        seeds = _seeds(seeds_flag, cfg)
        sample_cfg = _world_config(cfg, key="sample_world", groups=10,
                                   situations_per_group=50, docs=200,
                                   preferred_docs_per_group=5)
        # the sample and its similarity matrix do not depend on the seed,
        # which only varies the clustering's initial medoids
        world = generate_world(sample_cfg, seed=cfg.get("seed", 0))
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
