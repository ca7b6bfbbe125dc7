"""Span tracing for the replay benchmark, from outside the package.

`tracing(recorder)` swaps the package's public entry points for wrappers
that record one span per call (name, start, end, parent span, trial id)
and the counters the per-layer report needs, and restores the originals
on exit. Spans are held in compact arrays in memory and written out once,
when the run ends. Nothing inside the package changes. A wrapper's own
bookkeeping outside its span (counter updates, about a microsecond) is
charged to the parent span.
"""

from __future__ import annotations

import functools
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List

import numpy as np

from situbandit import (bandit, casebase, clustering, simdata, simindex,
                        situation)


class Recorder:
    """In-memory span store plus the per-layer counters."""

    def __init__(self):
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self._stack = [-1]
        self.trial_id = -1
        self.counters: Dict[str, float] = {}
        self.last_partition = None

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, code: int) -> int:
        i = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.trial.append(self.trial_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the span columns as numpy arrays."""
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.int64),
                "end": np.array(self.end, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "trial": np.array(self.trial, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(a: Dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def nesting_ok(a: Dict[str, np.ndarray]) -> bool:
    """Every span closed and lying inside its parent's interval."""
    if np.any(a["end"] < a["start"]):
        return False
    p = a["parent"]
    has = p >= 0
    return bool(np.all(a["start"][has] >= a["start"][p[has]])
                and np.all(a["end"][has] <= a["end"][p[has]]))


def trials_ok(a: Dict[str, np.ndarray], root: int, iterations: int,
              per_trial: List[int]) -> bool:
    """In the replay whose root span is `root`: each span named by a code
    in `per_trial` occurs exactly once per trial, in trial order, and every
    span below those carries its parent's trial id."""
    trial = a["trial"][root:]
    name = a["name"][root:]
    for code in per_trial:
        if not np.array_equal(trial[name == code], np.arange(iterations)):
            return False
    parent = a["parent"][root:]
    below = parent > root
    return bool(np.all(trial[below] == a["trial"][parent[below]]))


def _span(rec: Recorder, name: str, fn):
    code = rec.code(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(code)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    return wrapper


def _wrappers(rec: Recorder) -> Dict[tuple, object]:
    """(owner, attribute) -> traced replacement."""
    check = rec.code("perfbench.check")

    def recommend(fn):
        traced = _span(rec, "bandit.recommend", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.trial_id += 1
            return traced(*args, **kwargs)
        return wrapper

    def retrieve(fn):
        traced = _span(rec, "casebase.retrieve", fn)

        @functools.wraps(fn)
        def wrapper(cb, current):
            res = traced(cb, current)
            if res is None:
                return res
            i = rec.open(check)
            try:
                q = cb.index.encode(current)
                enc = cb.encoded
                weighted = cb.index.weighted_to_many(
                    q, enc.loc, enc.tim, enc.soc, cb.weights.alpha)
                plain = cb.index.weighted_to_many(
                    q, enc.loc, enc.tim, enc.soc, (1.0, 1.0, 1.0))
                rec.count("retrieve.checked")
                rec.count("retrieve.agree",
                          weighted[res.case_index] >= weighted.max())
                if situation.is_exact_match(float(plain.max())):
                    rec.count("retrieve.exact_exists")
                    rec.count("retrieve.exact_hit",
                              situation.is_exact_match(res.unweighted_sim))
            finally:
                rec.close(i)
            return res
        return wrapper

    def update_preferences(fn):
        traced = _span(rec, "casebase.update_preferences", fn)

        @functools.wraps(fn)
        def wrapper(cb, *args):
            n = len(cb)
            traced(cb, *args)
            rec.count("casebase.inserts", len(cb) - n)
        return wrapper

    def epsilon_greedy(fn):
        traced = _span(rec, "bandit.epsilon_greedy", fn)

        @functools.wraps(fn)
        def wrapper(candidates, *args):
            rec.count("epsilon_greedy.calls")
            rec.count("epsilon_greedy.candidates", len(candidates))
            return traced(candidates, *args)
        return wrapper

    def cluster_situations(fn):
        traced = _span(rec, "clustering.cluster_situations", fn)

        @functools.wraps(fn)
        def wrapper(cb, cfg):
            out = traced(cb, cfg)
            partition = (len(cb), list(cb.cluster_of), list(cb.medoids))
            rec.count("clustering.passes")
            rec.count("clustering.cases", len(cb))
            rec.count("clustering.unchanged", partition == rec.last_partition)
            rec.last_partition = partition
            return out
        return wrapper

    def feedback_source(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _span(rec, "simdata.feedback", fn(*args, **kwargs))
        return wrapper

    return {
        (bandit.RecommendationEngine, "recommend"): recommend,
        (bandit.GlobalEpsilonGreedy, "recommend"): recommend,
        (bandit.RecommendationEngine, "observe"):
            lambda fn: _span(rec, "bandit.observe", fn),
        (bandit.GlobalEpsilonGreedy, "observe"):
            lambda fn: _span(rec, "bandit.observe", fn),
        (bandit, "epsilon_greedy"): epsilon_greedy,
        (bandit, "cluster_situations"): cluster_situations,
        (casebase.CaseBase, "retrieve"): retrieve,
        (casebase.CaseBase, "update_preferences"): update_preferences,
        (situation.DimensionWeights, "record"):
            lambda fn: _span(rec, "situation.weights_record", fn),
        (simdata.SyntheticWorld, "feedback_source"): feedback_source,
        (simindex.SituationIndex, "__init__"):
            lambda fn: _span(rec, "simindex.init", fn),
    }


def clustering_peak_bytes(policy) -> int:
    """Peak traced allocation of one re-clustering pass over the policy's
    final case base, its largest, measured apart from the timed spans
    because tracemalloc slows every allocation it sees."""
    cb = getattr(policy, "casebase", None)
    if cb is None or len(cb) < policy.clustering_cfg.num_clusters:
        return 0
    tracemalloc.start()
    try:
        clustering.cluster_situations(cb, policy.clustering_cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextmanager
def tracing(rec: Recorder):
    """Install the traced wrappers for the duration of the block."""
    saved = []
    try:
        for (owner, attr), make in _wrappers(rec).items():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
