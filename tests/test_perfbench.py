"""Smoke test of the replay benchmark: it patches package entry points by
name (see perfbench/spans.py), so a rename or a changed signature there
breaks it without failing any other test."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# Traced calls per workload for seed 1; the replays' lengths and branch
# mix decide them, so they move only if a stream moves.
CALLS = {
    "saturated": {"bandit.epsilon_greedy": 9990, "simdata.feedback": 10000,
                  "casebase.retrieve": 10000},
    "growing": {"bandit.epsilon_greedy": 1887, "simdata.feedback": 2000,
                "casebase.retrieve": 2000},
    "context-free": {"bandit.epsilon_greedy": 9999,
                     "simdata.feedback": 10000,
                     "casebase.retrieve": 10000},
}


def test_traced_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    got = {(w, s): result["metrics"][f"{w}.{s}.calls"]["value"]
           for w, spans in CALLS.items() for s in spans}
    assert got == {(w, s): n for w, spans in CALLS.items()
                   for s, n in spans.items()}
