#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload at miniature size through `run.py`: twice with
tracing off and once with tracing on. Checks that every run is correct,
that the three runs of a workload report the same output digest, that
the metric names printed are exactly those in BENCHMARK.json, and that
the traced run measured every layer the workload runs. Exits 1 if any
check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 2
# The layers whose per-layer metrics each workload prints; the others
# must read 0 as not run.
LAYERS = {
    "paper_chip": ("workloads.", "sim.", "par.", "topology.", "core.", "rl.", "power.", "trace."),
    "fig_campaign": ("rl.", "campaign.", "trace."),
    "fault_storm": ("scenario.", "faults.", "trace."),
}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--mini"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    meta, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return meta["meta"], result


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    names = {t: [m["name"] for m in bench[key]]
             for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        before = len(problems)
        digests = []
        for trace in (0, 0, 1):
            meta, result = run(w, trace)
            digests.append(meta["digest"])
            if not result["correct"]:
                problems.append(f"{w} trace={trace}: not correct: {result}")
            if list(result["metrics"]) != names[trace]:
                problems.append(f"{w} trace={trace}: metric names {list(result['metrics'])}")
            if trace:
                expected = [n for n in names[1] if not n.startswith(LAYERS[w])]
                if meta["not_run"] != expected:
                    problems.append(f"{w}: layers not run {meta['not_run']}, expected {expected}")
        if len(set(digests)) != 1:
            problems.append(f"{w}: digests differ across invocations: {digests}")
        print(f"{w}: digest {digests[0]}, {'FAILED' if len(problems) > before else 'ok'}")
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
