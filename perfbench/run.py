#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result record.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

`--seconds` defaults to BENCHMARK.json's `run_seconds`.

Builds the `perfbench` runner from source (release profile, offline),
then runs the workload in a process of its own, in a fresh working
directory under `.bench_work/`, with every `ADAPTNOC_*` environment
override removed. The runner's output digests are compared with the ones
recorded in `perfbench/digests.json` for the default seed; for any other
seed every operation of the run must agree with the first. The last line
printed is the result: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics of BENCHMARK.json with `--trace 0`, the
per-layer ones with `--trace 1`). The line before it carries the run's
metadata (commit, cores, compiler, build profile, digest, and the
per-layer metrics of layers the workload does not run, which read 0).

`--workload all` runs every workload, each in its own process, and
prints each one's metrics with their units, operations attempted and
failed. `--mini` runs miniature sizes; `perfbench/smoke.py` uses it.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# Each run must end within 180 s; leave the runner room to report.
RUNNER_TIMEOUT_S = 170


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the runner; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark runner failed", 3)
    return target / "release" / "perfbench"


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        h = hashlib.sha256()
        files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
        for top in ("crates", "perfbench"):
            files += [p for p in (ROOT / top).rglob("*")
                      if p.is_file() and "target" not in p.parts]
        for p in sorted(files):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
        return "sources-sha256:" + h.hexdigest()


def metadata(args, cleared, digest, not_run):
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    with open(HERE / "Cargo.toml", "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "mini": args.mini,
        "commit": source_id(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "profile": {"name": "release", **profile},
        "env_cleared": cleared,
        "digest": digest,
        "not_run": not_run,
    }


def run_all(args, names):
    """Runs every workload through this script and prints a summary."""
    ok = True
    for w in names:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.mini:
            cmd.append("--mini")
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"{w}: run.py exited with {out.returncode}")
            ok = False
            continue
        r = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and r["correct"]
        print(f"{w}: correct {r['correct']}, attempted {r['attempted']}, failed {r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mini", action="store_true")
    args = p.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload == "all":
        run_all(args, names)
    if args.workload not in names:
        fail(f"unknown workload {args.workload}", 2)
    if not (ROOT / "crates").is_dir():
        fail("no workspace sources (crates/) next to the benchmark", 3)
    runner = build()

    # Hermetic run: a fresh working directory (figs::trained_policy reads
    # and writes results/policy.json relative to it) and no overrides.
    cleared = {k: v for k, v in os.environ.items() if k.startswith("ADAPTNOC_")}
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(runner), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.mini:
        cmd.append("--mini")
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with {proc.returncode}", 4)
    rec = json.loads(lines[-1])

    problems = list(rec["check_failures"])
    digests = rec["digests"]
    with open(HERE / "digests.json") as f:
        recorded = json.load(f)
    expected = None
    if args.seed == recorded["seed"] and not args.mini:
        expected = recorded["digests"].get(args.workload)
    reference = expected or (digests[0] if digests else None)
    mismatched = sum(d != reference for d in digests)
    if mismatched:
        problems.append(f"{mismatched} of {len(digests)} digests differ from {reference}")
    failed = rec["errors"] + mismatched

    # Every metric of the chosen list, in its order and unit. A per-layer
    # metric the workload does not run reads 0.
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    got = rec["metrics"]
    metrics = {}
    not_run = []
    for m in wanted:
        entry = got.pop(m["name"], None)
        if entry is None and args.trace:
            not_run.append(m["name"])
            entry = {"value": 0.0, "unit": m["unit"]}
        if entry is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if entry["unit"] != m["unit"] or not math.isfinite(entry["value"]):
            problems.append(f"metric {m['name']} reads {entry}")
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    if got:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(got)}")

    for line in problems:
        print(f"run.py: {line}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, cleared, digests[0] if digests else None, not_run)}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": rec["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
