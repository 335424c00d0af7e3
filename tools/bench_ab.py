"""A/B comparison for the benchmark: alternating pairs of runs of a parent
commit and of the working tree, summarised in one BENCH file.

    python3 tools/bench_ab.py --parent REV --label NAME [--workload W]...
        [--seed N] [--claim W:METRIC]

The parent side is `git archive REV`; the change side is the working tree's
`src/` and `benchmark/`.  Each side is unpacked in its own temporary tree,
and its bytecode is compiled before any run.  Per workload, pair i of ten
runs `benchmark/run.py --trace 0` for BENCHMARK.json's `run_seconds` on
both sides with seed N + i, the change first when that seed is odd and the
parent first when it is even.  The pairs of one workload run one after
another, workloads in the order given (all of BENCHMARK.json's by
default).  `BENCH_<label>.json` at the root of the working tree records
every run and, per end-to-end metric of each workload, both sides' medians
and quartiles, the pairs in which the change was better, the BENCHMARK.json
bound and whether the change is within it; it also records each tree's
`src/` line count (`src_lines`, `src/**/*.py` as `wc -l` counts it).  The
quartiles are those of `benchmark/run.py`'s steadiness check, so both
tools judge spread alike.
A run that does not end in time is killed and recorded as failed.  The
temporary trees are removed at the end, and every run is a child that is
waited for, so nothing is left running.  Stdlib only.
"""

import argparse
import compileall
import importlib.util
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SCHEMA = "bench-ab/1"
PAIRS = 10


def _load_bench_run():
    """benchmark/run.py of the working tree, as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", ROOT / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


quartiles = _load_bench_run().quartiles


def build_parent(rev, dest):
    """Unpack `git archive rev` into dest; the resolved commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def build_change(dest):
    """Copy the working tree's src/, benchmark/ and BENCHMARK.json."""
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out", "*.pyc")
    for name in ("src", "benchmark"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def src_lines(tree):
    """The lines of `tree`'s src/**/*.py, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src").rglob("*.py"))


def compile_tree(tree):
    """Write the bytecode of src/ and benchmark/; whether every file
    compiled."""
    return all(compileall.compile_dir(str(tree / name), quiet=1)
               for name in ("src", "benchmark"))


def run_once(tree, workload, seed, seconds):
    """One `run.py --trace 0` run in `tree`: its exit status and the JSON
    object of its last line of stdout ({} when there is none).  A run
    still going after 60 * seconds + 600 seconds is killed: its status
    is None and its object {}."""
    cmd = [sys.executable, str(tree / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=60 * seconds + 600)
    except subprocess.TimeoutExpired:
        return None, {}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    return done.returncode, result


def pair_order(seed):
    """The sides of a pair in run order: the change first at odd seeds."""
    return ("change", "parent") if seed % 2 else ("parent", "change")


def summarize(runs, spec):
    """Per end-to-end metric of BENCHMARK.json `spec`, from the `runs` of
    one workload, dicts {"seed", "side", "exit", "result"}: both sides'
    quartiles, the pairs (same seed, both runs with the metric) in which
    the change was better, the relative change of the median (positive is
    worse), the bound and whether the change is within it."""
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: {} for side in SIDES}
        for run in runs:
            found = run["result"].get("metrics", {}).get(name)
            if found is not None:
                values[run["side"]][run["seed"]] = found["value"]
        if not all(values[side] for side in SIDES):
            continue
        stats = {side: dict(zip(("q1", "median", "q3"),
                                quartiles(list(values[side].values()))))
                 for side in SIDES}
        before, after = stats["parent"]["median"], stats["change"]["median"]
        seeds = sorted(set(values["parent"]) & set(values["change"]))
        better = sum((values["change"][s] > values["parent"][s]) if higher
                     else (values["change"][s] < values["parent"][s])
                     for s in seeds)
        if before and after:
            worse = before / after - 1 if higher else after / before - 1
        else:
            worse = 0.0 if before == after else float("inf")
        gain = (after - before) if higher else (before - after)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": stats["parent"],
            "change": stats["change"],
            "pairs": len(seeds),
            "change_better_pairs": better,
            "worse_by": worse,
            "median_gain_exceeds_parent_iqr":
                gain > stats["parent"]["q3"] - stats["parent"]["q1"],
            "bound": metric["bound"],
            "within_bound": worse <= metric["bound"],
        }
    return out


def run_health(runs):
    """Per side: whether every run exited 0 and was correct, and the
    share of failed operations over its runs."""
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        attempted = sum(r["result"].get("attempted", 0) for r in mine)
        failed = sum(r["result"].get("failed", 0) for r in mine)
        out[side] = {
            "runs": len(mine),
            "all_correct": all(r["exit"] == 0 and r["result"].get("correct")
                               for r in mine),
            "failed_share": failed / attempted if attempted else None,
        }
    return out


def claim_verdict(workloads, claim):
    """The claimed metric `workload:metric` read from the summaries."""
    workload, metric = claim.split(":", 1)
    row = workloads[workload]["metrics"][metric]
    return {"workload": workload, "metric": metric,
            "parent_median": row["parent"]["median"],
            "change_median": row["change"]["median"],
            "gain": -row["worse_by"],
            "change_better_pairs": row["change_better_pairs"],
            "pairs": row["pairs"],
            "median_gain_exceeds_parent_iqr":
                row["median_gain_exceeds_parent_iqr"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the commit the working tree is compared with")
    parser.add_argument("--label", required=True,
                        help="the name in BENCH_<label>.json")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (all by default), in order")
    parser.add_argument("--seed", type=int, default=1,
                        help="the seed of the first pair")
    parser.add_argument("--claim", help="WORKLOAD:METRIC this change claims")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.seed, args.seed + PAIRS))
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commit = build_parent(args.parent, trees["parent"])
        build_change(trees["change"])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        compiled = {side: compile_tree(trees[side]) for side in SIDES}
        workloads = {}
        for name in names:
            runs = []
            for seed in seeds:
                for side in pair_order(seed):
                    start = time.time()
                    status, result = run_once(trees[side], name, seed, seconds)
                    runs.append({"seed": seed, "side": side, "exit": status,
                                 "started": start, "result": result})
                    print("%s seed %d %s: exit %s %s" % (
                        name, seed, side, status,
                        {k: round(v["value"], 5) for k, v in
                         result.get("metrics", {}).items()}), flush=True)
            workloads[name] = {"health": run_health(runs),
                               "metrics": summarize(runs, spec),
                               "runs": runs}
    doc = {
        "schema": SCHEMA,
        "label": args.label,
        "parent": commit,
        "change": "working tree: src/, benchmark/ and BENCHMARK.json",
        "command": "python3 benchmark/run.py --workload W --seed N "
                   "--seconds %d --trace 0" % seconds,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "bytecode_compiled": compiled,
        "src_lines": lines,
        "seeds": seeds,
        "order": "per workload, pairs in seed order; the change first at "
                 "odd seeds, the parent first at even seeds",
        "quartiles": "benchmark/run.py's quartiles: statistics.quantiles("
                     "n=4), exclusive, over the runs of a side",
        "worse_by": "change/parent - 1 of the medians for a lower-is-better "
                    "metric, parent/change - 1 for a higher-is-better one; "
                    "the claim's gain is -worse_by",
        "claim": claim_verdict(workloads, args.claim) if args.claim else None,
        "workloads": workloads,
    }
    path = ROOT / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote %s" % path.name)
    within = all(row["within_bound"] for w in workloads.values()
                 for row in w["metrics"].values())
    healthy = all(h["all_correct"] for w in workloads.values()
                  for h in w["health"].values())
    return 0 if within and healthy else 1


if __name__ == "__main__":
    sys.exit(main())
