#!/usr/bin/env python3
"""Closed-loop replay benchmark for situbandit.

    python3 perfbench/run.py [--workload NAME|all] --seed N [--seconds S]
                             [--trace 0|1]

One workload run builds its world from --seed and replays it through the
public `build_policy` -> `replay_evaluate` path with one client: the next
situation is sent only after `observe` returns. Before each replay the
world and policy are set up repeatedly for a short slice; the median of
all set-ups is `setup_s`. Replays of the same seed repeat until --seconds
are used (at least two, so that determinism is checked). Every trial
passes a boundary proxy that times it and keeps its slate; after each
replay the slates are checked and the clicks recounted. The run fails if
any check fails.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
machine speed that is sampled every 0.1 s during the run (see
`reference_time`); --trace 1 alternates untraced and traced replays and
prints the per-layer metrics (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
every workload in its own process and combines their results.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; child processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up runs for at least this long before each replay, so that its
# samples spread over the whole run as the replays' do.
SETUP_SLICE_S = 0.5

# With --trace 0, the machine's speed is sampled after the first trial
# that ends this long after the previous sample.
SPEED_EVERY_NS = 100_000_000
# End-to-end times are scaled to a machine on which `reference_time`
# reads this, a round figure within its range on the VM the baseline was
# taken on.
REFERENCE_NS = 1e6

END_TO_END = (("trials_per_s", "1/s"), ("recommend_us.p50", "us"),
              ("recommend_us.p99", "us"), ("trial_us.p99", "us"),
              ("avctr", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Spans inside one replay, in report order. `perfbench.check` is the
#: benchmark's own exhaustive-scan check of each retrieval; it has its own
#: span so that it is charged to no layer of the package.
REPLAY_SPANS = ("simdata.replay", "bandit.recommend", "casebase.retrieve",
                "bandit.epsilon_greedy", "simdata.feedback", "bandit.observe",
                "casebase.update_preferences", "situation.weights_record",
                "clustering.cluster_situations", "perfbench.check")

PER_LAYER = (
    *((f"{s}.calls", "count") for s in REPLAY_SPANS if s != "perfbench.check"),
    *((f"{s}.self_s", "s") for s in REPLAY_SPANS),
    ("bandit.epsilon_greedy.candidates_mean", "count"),
    ("casebase.retrieve.routed_agree_ratio", "ratio"),
    ("casebase.retrieve.exact_hit_ratio", "ratio"),
    ("casebase.retrieve.exact_exists", "count"),
    ("casebase.inserts", "count"), ("casebase.size_final", "count"),
    ("casebase.duplicate_cases", "count"),
    ("clustering.peak_mb", "MB"), ("clustering.cases_mean", "count"),
    ("clustering.unchanged_ratio", "ratio"),
    ("simindex.init.calls", "count"), ("simindex.init.self_s", "s"),
    ("simdata.replay.wall_s", "s"), ("trace_overhead", "ratio"))


def _run_seconds() -> float:
    """`run_seconds` of BENCHMARK.json, the run length of every run."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["run_seconds"])


def _load_package():
    """Import situbandit from this checkout's src/, or exit with an error."""
    if not (SRC / "situbandit" / "__init__.py").is_file():
        sys.exit(f"error: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import situbandit
    if Path(situbandit.__file__).resolve().parent != SRC / "situbandit":
        sys.exit(f"error: situbandit imported from {situbandit.__file__}")


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


_REFERENCE_STATS = {f"d{i:03d}": (i * 37 % 51, 1 + i * 53 % 100)
                    for i in range(400)}


def _reference_work():
    """Fixed interpreter work of the kind slate selection does (dicts of
    ratios, keyed sorts, small tuples and lists). It uses nothing from the
    package, so no change to the package changes its time."""
    for _ in range(4):
        ctr = {d: (c / n, d) for d, (c, n) in _REFERENCE_STATS.items()}
        ranked = sorted(ctr, key=ctr.__getitem__, reverse=True)
        rows = [(d, ctr[d][0], [d]) for d in ranked]
    return rows


def reference_time():
    """(wall ns, CPU ns) of the fastest of three `_reference_work` calls.

    The shared VM the benchmark was built on runs the same code up to 3x
    slower in phases that last from seconds to minutes. Scaling a stretch
    of trials by REFERENCE_NS over the reference time read right after it
    removes most of that swing from the figures.
    """
    wall = cpu = None
    for _ in range(3):
        w0, c0 = time.perf_counter_ns(), time.thread_time_ns()
        _reference_work()
        c1, w1 = time.thread_time_ns(), time.perf_counter_ns()
        wall = w1 - w0 if wall is None else min(wall, w1 - w0)
        cpu = c1 - c0 if cpu is None else min(cpu, c1 - c0)
    return wall, cpu


class Boundary:
    """Policy proxy at the replay boundary. Inside the replay it only
    times each trial and keeps its slate and click count; `verify` checks
    them after the replay's clock stops, so that the checks are charged to
    neither the latencies nor `trials_per_s`.

    Trial latencies are read from the thread's CPU clock. The engine is
    single-threaded, does no I/O and never sleeps, so on a dedicated core
    this equals wall time; on a shared VM it leaves out the milliseconds in
    which the host takes the virtual CPU away, which otherwise set the p99.

    With `speed`, the trials are cut into blocks of about SPEED_EVERY_NS,
    each closed by a `reference_time` reading outside every trial's clock.
    """

    def __init__(self, policy, iterations, speed):
        self.policy = policy
        self.speed = speed
        self.recommend_ns = np.zeros(iterations, dtype=np.int64)
        self.trial_ns = np.zeros(iterations, dtype=np.int64)
        self.slates = []
        self.clicks = []
        # (trials so far, block wall ns, reference wall ns, reference CPU ns)
        self.blocks = []
        self.i = 0
        self._t0 = 0
        self._block_t0 = time.perf_counter_ns()

    def recommend(self, s):
        t0 = time.thread_time_ns()
        rec = self.policy.recommend(s)
        self.recommend_ns[self.i] = time.thread_time_ns() - t0
        self._t0 = t0
        return rec

    def observe(self, s, rec, feedback):
        self.policy.observe(s, rec, feedback)
        self.trial_ns[self.i] = time.thread_time_ns() - self._t0
        self.slates.append(rec.slate)
        self.clicks.append(sum(feedback.docs[d].clicks for d in rec.slate))
        self.i += 1
        if (self.speed and time.perf_counter_ns() - self._block_t0
                >= SPEED_EVERY_NS):
            self.close_block()

    def close_block(self):
        """End the current block of trials with a reading of the speed."""
        wall = time.perf_counter_ns() - self._block_t0
        self.blocks.append((self.i, wall, *reference_time()))
        self._block_t0 = time.perf_counter_ns()

    def verify(self, pool, slate_size):
        """(invalid slates, clicks, displays, SHA-256 of the slate stream)."""
        pool = frozenset(pool)
        digest = hashlib.sha256()
        invalid = 0
        for slate in self.slates:
            digest.update("\x1f".join(slate).encode() + b"\x1e")
            if (len(slate) != slate_size or len(set(slate)) != len(slate)
                    or not pool.issuperset(slate)):
                invalid += 1
        displays = sum(len(slate) for slate in self.slates)
        return invalid, sum(self.clicks), displays, digest.hexdigest()

    def figures(self, scaled):
        """The replay's trials/s and latency percentiles (us), from the
        blocks' wall time, at reference speed if `scaled`; and the number
        of trials above the trial latency p99."""
        ends, walls, ref_wall, ref_cpu = (np.array(x, dtype=float)
                                          for x in zip(*self.blocks))
        if scaled:
            walls = walls * REFERENCE_NS / ref_wall
            sizes = np.diff(ends, prepend=0).astype(int)
            cpu = np.repeat(REFERENCE_NS / ref_cpu, sizes)
        else:
            cpu = 1.0
        rec_us = self.recommend_ns * cpu / 1e3
        trial_us = self.trial_ns * cpu / 1e3
        p50, p99 = np.percentile(rec_us, [50, 99])
        trial_p99 = np.percentile(trial_us, 99)
        return ({"trials_per_s": self.i / walls.sum() * 1e9,
                 "recommend_us.p50": float(p50),
                 "recommend_us.p99": float(p99),
                 "trial_us.p99": float(trial_p99)},
                int(np.sum(trial_us > trial_p99)))


class Run:
    """State and checks of one workload run."""

    def __init__(self, workload, seed, speed):
        self.w = workload
        self.seed = seed
        self.speed = speed  # sample the machine's speed (--trace 0)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup_s = []
        self.setup_ref_ns = []  # wall reference time after each set-up
        self.inputs = None  # fingerprint of the generated world
        self.first = None   # (avctr, digest) of the first replay

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)

    def setup(self):
        """Build world and policy until SETUP_SLICE_S has passed, at least
        once; returns the last world."""
        from situbandit.simdata import build_policy
        from worlds import build_world, fingerprint
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            world = build_world(self.w, self.seed)
            build_policy(self.w.policy, world, seed=self.seed)
            t1 = time.perf_counter()
            self.setup_s.append(t1 - t0)
            if self.speed:
                self.setup_ref_ns.append(reference_time()[0])
            if time.perf_counter() - start >= SETUP_SLICE_S:
                break
        self.check(len(set(world.situations)) == len(world.situations),
                   "world lists a situation twice")
        inputs = fingerprint(world)
        if self.inputs is None:
            self.inputs = inputs
        self.check(inputs == self.inputs, "same seed built another world")
        return world

    def replay(self, world, rec=None):
        """One replay; returns (wall seconds, boundary, policy) or None."""
        from situbandit.simdata import build_policy, replay_evaluate
        w = self.w
        policy = build_policy(w.policy, world, seed=self.seed)
        b = Boundary(policy, w.iterations, self.speed)
        self.attempted += w.iterations
        root = rec.open(rec.code("simdata.replay")) if rec else None
        t0 = time.perf_counter()
        try:
            report = replay_evaluate(b, world, iterations=w.iterations,
                                     report_period=w.iterations,
                                     seed=self.seed, keep_trials=False)
        except Exception:
            traceback.print_exc()
            self.failed += w.iterations - b.i
            self.errors.append(f"replay raised after {b.i} trials")
            return None
        finally:
            wall = time.perf_counter() - t0
            if rec:
                rec.close(root)
        if self.speed:
            b.close_block()
        invalid, clicks, displays, digest = b.verify(
            world.doc_ids, policy.config.slate_size)
        self.failed += invalid
        self.check(b.i == w.iterations, "trial count")
        self.check(invalid == 0, f"{invalid} invalid slates")
        self.check(clicks == report.total_clicks
                   and displays == report.total_displays
                   and clicks / displays == report.final_avctr,
                   "avctr recount differs from final_avctr")
        self.check(sum(report.branch_counts.values()) == w.iterations,
                   "branch counts do not sum to the trial count")
        got = (report.final_avctr, digest)
        if self.first is None:
            self.first = got
        self.check(got == self.first, "same seed gave another avctr or "
                   "slate stream")
        return wall, b, policy


def _more(start, seconds, last):
    """Whether another round of `last` seconds still fits in the run."""
    return time.perf_counter() - start + last <= seconds


def end_to_end(run, seconds):
    """Replays until `seconds` are used. Times are scaled to reference
    speed block by block (see `Boundary`), and each set-up by the
    reference time read right after it. Trials/s and the latency
    percentiles are taken per replay and their median reported, so that a
    burst of interference in one replay does not move the run's figure.
    Returns the scaled metrics and the same figures unscaled."""
    start = time.perf_counter()
    scaled, unscaled, reference_ns = [], [], []
    last = 0.0
    while len(scaled) < 2 or _more(start, seconds, last):
        t0 = time.perf_counter()
        out = run.replay(run.setup())
        if out is None:
            break
        b = out[1]
        figures, above = b.figures(scaled=True)
        run.check(above >= 20, f"only {above} trials above trial_us.p99")
        scaled.append(figures)
        unscaled.append(b.figures(scaled=False)[0])
        reference_ns.extend(block[2] for block in b.blocks)
        last = time.perf_counter() - t0
    if not scaled:
        return {}, {}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def report(per_replay, setup_s):
        out = {k: statistics.median(f[k] for f in per_replay)
               for k in per_replay[0]}
        out.update({"avctr": run.first[0],
                    "setup_s": statistics.median(setup_s),
                    "peak_rss_mb": rss})
        return {name: out[name] for name, _ in END_TO_END}

    setup_scaled = [x * REFERENCE_NS / r
                    for x, r in zip(run.setup_s, run.setup_ref_ns)]
    return (report(scaled, setup_scaled),
            {**report(unscaled, run.setup_s), "replays": unscaled,
             "reference_wall_ns.p50": statistics.median(reference_ns)})


def per_layer(run, seconds):
    """Alternate untraced and traced replays; per-replay layer figures."""
    from spans import (Recorder, clustering_peak_bytes, nesting_ok,
                       self_times, tracing, trials_ok)
    rec = Recorder()
    per_trial = [rec.code(name) for name in
                 ("bandit.recommend", "simdata.feedback", "bandit.observe")]
    start = time.perf_counter()
    plain, traced, check_s, sizes, dups, peaks = [], [], [], [], [], []
    last = 0.0
    while not traced or _more(start, seconds, last):
        t0 = time.perf_counter()
        with tracing(rec):
            world = run.setup()
        out = run.replay(world)
        if out is None:
            break
        plain.append(out[0])
        root = len(rec.name)
        rec.last_partition = None
        with tracing(rec):
            out = run.replay(world, rec)
        rec.trial_id = -1   # spans outside a replay carry trial id -1
        if out is None:
            break
        wall, _, policy = out
        a = rec.arrays()
        run.check(trials_ok(a, root, run.w.iterations, per_trial),
                  "recommend, feedback or observe spans do not match the "
                  "trials one to one")
        own = self_times(a)[root:]
        check = a["name"][root:] == rec.code("perfbench.check")
        check_s.append(own[check].sum() / 1e9)
        traced.append(wall)
        cb = getattr(policy, "casebase", None)
        sizes.append(len(cb) if cb is not None else 0)
        dups.append(len(cb) - len({c.situation for c in cb.cases})
                    if cb is not None else 0)
        peaks.append(clustering_peak_bytes(policy))
        last = time.perf_counter() - t0
    if not traced:
        return {}, rec
    n = len(traced)
    a = rec.arrays()
    run.check(nesting_ok(a), "a span lies outside its parent")
    own = self_times(a)
    names = a["name"]
    metrics = {}
    for name in REPLAY_SPANS:
        sel = names == rec.code(name)
        if name != "perfbench.check":
            metrics[f"{name}.calls"] = int(sel.sum()) / n
        metrics[f"{name}.self_s"] = own[sel].sum() / 1e9 / n
    c = rec.counters

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    init = own[names == rec.code("simindex.init")]
    metrics.update({
        "bandit.epsilon_greedy.candidates_mean": ratio(
            "epsilon_greedy.candidates", "epsilon_greedy.calls"),
        "casebase.retrieve.routed_agree_ratio": ratio("retrieve.agree",
                                                      "retrieve.checked"),
        "casebase.retrieve.exact_hit_ratio": ratio("retrieve.exact_hit",
                                                   "retrieve.exact_exists"),
        "casebase.retrieve.exact_exists":
            c.get("retrieve.exact_exists", 0) / n,
        "casebase.inserts": c.get("casebase.inserts", 0) / n,
        "casebase.size_final": statistics.median(sizes),
        "casebase.duplicate_cases": statistics.median(dups),
        "clustering.peak_mb": max(peaks) / 2**20,
        "clustering.cases_mean": ratio("clustering.cases",
                                       "clustering.passes"),
        "clustering.unchanged_ratio": ratio("clustering.unchanged",
                                            "clustering.passes"),
        "simindex.init.calls": len(init) / len(run.setup_s),
        "simindex.init.self_s": float(np.median(init)) / 1e9
        if len(init) else 0.0,
        # a mean, like the per-replay self times, so that they sum to it
        "simdata.replay.wall_s": statistics.mean(traced),
        "trace_overhead": statistics.median(
            t - x for t, x in zip(traced, check_s))
        / statistics.median(plain) - 1,
    })
    return metrics, rec


def run_one(args):
    _load_package()
    from worlds import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; pick one of "
                 f"{', '.join(WORKLOADS)} or all")
    run = Run(WORKLOADS[args.workload], args.seed, speed=not args.trace)
    if args.trace:
        metrics, rec = per_layer(run, args.seconds)
        units = dict(PER_LAYER)
    else:
        metrics, unscaled = end_to_end(run, args.seconds)
        units = dict(END_TO_END)
    w = run.w
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "policy": w.policy, "iterations": w.iterations,
        "inputs": run.inputs,
        "situations": w.groups * w.situations_per_group, "docs": w.docs,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _commit(), "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "errors": run.errors,
    }
    if not args.trace:
        meta["unscaled"] = unscaled
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rec.save(OUT / f"{stem}-spans.npz")
    result = {
        "correct": bool(metrics) and not run.errors and run.failed == 0,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n")
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"{args.workload:>12}  {k:<42} {v:>14.6g} {units[k]}")
    print(f"{args.workload:>12}  failed_share {run.failed}/{run.attempted}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, so its peak RSS is its own."""
    from worlds import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=600)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} timed out", file=sys.stderr)
            combined["correct"] = False
            continue
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            pass
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v
                                    in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, required=True)
    # The run length is fixed by BENCHMARK.json; the option exists because
    # the benchmark interface passes `--seconds <run_seconds>` on each run.
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        _load_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
