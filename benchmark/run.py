"""Benchmark for picardlab: whole reports and one-shot counts.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --steadiness [--runs N] [--workload NAME]...

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory.  One process makes one `picardlab.cli.main` call at a
time (a closed loop, no threads) and checks every output against the
independent oracle in `oracle.py`.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and the metrics, end to end with
`--trace 0` and per layer with `--trace 1`.  Raw results and trace files go
to `.bench_out/`.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from tracer import Tracer, layer_metrics, span_table  # noqa: E402

# Count calls are drawn per countable entry and per class p = 1, 5 mod 6 of
# the primes 5 <= p <= pmax: the class is cut into `bands` equal bands, and
# each band gives the pair of primes at offsets u and 1 - u from its ends.
# Counting cost grows with p and depends on p mod 3 (the shift-orbit loop is
# three times longer at p = 2 mod 3), so with classes kept apart and
# antithetic pairs every draw has nearly the same cost.  count-oneshot draws
# u from the seed, so its stream covers every prime over many seeds.  The
# report workloads time a fixed probe (u = 1/4, in seeded order), so their
# count metrics do not hang on a few dear primes; the oracle checks their
# reports at the probe primes and at a seeded draw as well.
WORKLOADS = {
    "report-p200": {"report": ["report", "--all", "--pmax", "200",
                               "--depth", "1"],
                    "pmax": 200, "depth": 1, "bands": 2},
    "report-p499-d3": {"report": ["report", "--all", "--pmax", "499",
                                  "--depth", "3"],
                       "pmax": 499, "depth": 3, "bands": 2},
    "count-oneshot": {"report": None, "pmax": 499, "depth": 1, "bands": 6},
}
SETUP_RUNS = 4      # fresh interpreters at the start and again at the end

# Host speed.  On a shared 2-CPU virtual machine the host's speed changed by
# up to 2.5x within minutes as neighbours loaded it, far more than the
# changes the benchmark must resolve.  So every time metric is reported in
# calibrated seconds: wall time x KERNEL_REF / (time of the calibration
# kernel while the measured work ran).  The kernel is fixed pure-Python work
# (integers, dicts, tuples, lists, fractions) that does not touch picardlab;
# measured side by side, it cut the spread of catalog-load and plane-scan
# times by 4 to 16 times (see README.md).
KERNEL_REF = 0.0025     # seconds: the kernel's time on an unloaded host
SAMPLE_PERIOD = 0.25    # seconds between kernel samples during a call
SAMPLE_WINDOW = 0.5     # samples this close to a call calibrate it


def kernel():
    start = time.perf_counter()
    p, table = 499, {}
    for x in range(1800):
        v = (x * x * x + 7 * x + 1) % p
        table[x % 41, v] = table.get((x % 41, v), 0) + pow(v, 5, p)
    row = [(3 * y + 1) % p for y in range(1200)]
    sum(1 for a, b in zip(row, row[1:]) if a * b % 7 == 0)
    sum(Fraction(k, k + 1) for k in range(1, 100))
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples: every SAMPLE_PERIOD seconds on SIGALRM while armed,
    and on demand between calls."""

    def __init__(self):
        self.samples = []           # (perf_counter at start, kernel seconds)
        self.spent = 0.0            # seconds spent sampling
        self._busy = False

    def sample(self, *_):
        if self._busy:              # a timer tick during an explicit sample
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, kernel()))
        self.spent += time.perf_counter() - start
        self._busy = False

    def arm(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, start=None, end=None):
        """Mean KERNEL_REF / kernel time over the samples near [start, end]
        (all samples when no interval is given)."""
        near = [KERNEL_REF / k for t, k in self.samples
                if start is None or start - SAMPLE_WINDOW <= t <= end + SAMPLE_WINDOW]
        return statistics.fmean(near)


SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import picardlab.cli
from picardlab.catalog import builtin_catalog
builtin_catalog()
print(time.perf_counter() - start)
"""


def load_program():
    if not (SRC / "picardlab" / "cli.py").is_file():
        sys.exit("benchmark: no picardlab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import picardlab.cli
    if not Path(picardlab.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit("benchmark: picardlab was imported from outside %s" % SRC)
    return picardlab.cli


def measure_setup(runs, speed):
    """(calibrated, wall) seconds for `import picardlab.cli` plus
    `builtin_catalog()`, each in a fresh interpreter, calibrated by kernel
    samples just before and after it."""
    out = []
    for _ in range(runs):
        speed.sample()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        end = time.perf_counter()
        speed.sample()
        wall = float(done.stdout.split()[-1])
        out.append((wall * speed.factor(start, end), wall))
    return out


def draw(pmax, bands, offsets):
    """(entry, prime) pairs: per countable entry and class p = 1, 5 mod 6,
    two primes per band at offsets u and 1 - u, u taken from `offsets`."""
    primes = oracle.primes_between(5, pmax)
    pairs = []
    for entry in oracle.COUNTABLE:
        for residue in (1, 5):
            ring = [p for p in primes if p % 6 == residue]
            u = next(offsets)
            for j in range(bands):
                for x in (j + u, j + 1 - u):
                    k = min(int(x * len(ring) / bands), len(ring) - 1)
                    pairs.append((entry, ring[k]))
    return pairs


def count_plan(workload, seed):
    """(the count calls of one round in seeded order, the oracle's sample)."""
    rng = random.Random(seed)
    seeded = draw(workload["pmax"], workload["bands"], iter(rng.random, None))
    if workload["report"] is None:
        calls, sample = seeded, seeded
    else:
        calls = draw(workload["pmax"], workload["bands"], itertools.repeat(0.25))
        sample = calls + seeded
    rng.shuffle(calls)
    return calls, sample


class Runner:
    def __init__(self, cli, workload, name, speed, tracer=None):
        self.cli = cli
        self.speed = speed
        self.workload = workload
        self.name = name
        self.tracer = tracer
        self.oracle = oracle.Oracle()
        self.attempted = 0
        self.failed = 0
        self.report_text = None
        self.report_times = []
        self.count_times = []
        self.round_count_times = []
        self.count_rows = 0
        self.wall = 0.0

    def call(self, argv):
        """(stdout, exit status, calibrated seconds) of one in-process CLI
        call; time spent sampling the host speed is taken out."""
        buf = io.StringIO()
        sampled = self.speed.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if self.tracer is None:
                    status = self.cli.main(argv)
                else:
                    self.tracer.run_id = self.attempted
                    status = self.tracer.span("cli." + argv[0], self.cli.main,
                                              argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:       # a crash is a failed operation
            status = "%s: %s" % (type(exc).__name__, exc)
        end = time.perf_counter()
        wall = end - start - (self.speed.spent - sampled)
        self.speed.sample()
        self.wall += wall
        self.attempted += 1
        return buf.getvalue(), status, wall * self.speed.factor(start, end)

    def fail(self, what, problems):
        self.failed += 1
        for line in problems[:5]:
            print("FAILED %s: %s" % (what, line), file=sys.stderr)

    def report(self, pairs):
        wl = self.workload
        text, status, elapsed = self.call(wl["report"])
        self.report_times.append(elapsed)
        problems = [] if status == 0 else ["exit status %r" % (status,)]
        try:
            sample = {}
            for entry, p in pairs:
                sample.setdefault(entry, set()).add(p)
            problems += oracle.check_report(text, wl["pmax"], wl["depth"],
                                            sample, self.oracle)
        except Exception as exc:
            problems.append("unreadable report: %s: %s"
                            % (type(exc).__name__, exc))
        problems += self.check_identical(text)
        if problems:
            self.fail("report", problems)
        if self.report_text is None:
            self.report_text = text

    def check_identical(self, text):
        """Byte-identity with earlier reports of this run and, through a
        digest kept in .bench_out/, with earlier runs in this checkout."""
        if self.report_text is not None and text != self.report_text:
            return ["report differs from the first report of this run"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        path = OUT / ("report-%s.sha256" % self.name)
        if path.exists():
            if path.read_text().strip() != digest:
                return ["report differs from an earlier run (%s)" % path.name]
            return []
        OUT.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(digest + "\n")
        tmp.replace(path)
        return []

    def counts(self, plan):
        reported = None
        if self.report_text is not None:
            try:
                reported = oracle.report_counts(self.report_text)
            except Exception:          # already counted as a failed report
                pass
        spent = 0.0
        for entry, p in plan:
            text, status, elapsed = self.call(
                ["count", "--entry", entry, "--prime", str(p)])
            spent += elapsed
            self.count_times.append(elapsed)
            problems = [] if status == 0 else ["exit status %r" % (status,)]
            try:
                problems += oracle.check_count(entry, p, text, self.oracle,
                                               reported)
            except Exception as exc:
                problems.append("%s: %s" % (type(exc).__name__, exc))
            if problems:
                self.fail("count %s p=%d" % (entry, p), problems)
            self.count_rows += len(text.splitlines())
        self.round_count_times.append(spent)

    def run(self, plan, seconds):
        calls, sample = plan
        start = time.perf_counter()
        rounds = 0
        self.speed.arm()
        try:
            while rounds == 0 or time.perf_counter() - start < seconds:
                if self.workload["report"]:
                    self.report(sample)
                self.counts(calls)
                rounds += 1
        finally:
            self.speed.disarm()
        return rounds

    def end_to_end(self, rounds, setup):
        lat = self.count_times
        if self.workload["report"]:
            report_s = statistics.median(self.report_times)
            try:
                checks = sum(len(e["checks"]) for e in
                             json.loads(self.report_text)["entries"])
            except (ValueError, KeyError, TypeError):
                checks = 0                 # already counted as failed
        else:
            report_s = statistics.median(self.round_count_times)
            checks = self.count_rows / rounds
        deciles = statistics.quantiles(lat, n=10)
        return {
            "setup_s": (setup, "s"),
            "report_s": (report_s, "s"),
            "checks": (checks, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "count_call_s.p50": (statistics.median(lat), "s"),
            "count_call_s.p90": (deciles[8], "s"),
            "count_calls_per_s": (len(lat) / sum(lat), "1/s"),
        }


def per_layer(runner, tracer, rounds, label):
    factor = runner.speed.factor()
    values = {k: v * factor if k.endswith("_s") or "_s." in k else v
              for k, v in layer_metrics(tracer, oracle.ENTRIES, rounds).items()}
    if runner.workload["report"]:
        values["trace.report_s"] = statistics.median(runner.report_times)
    else:
        values["trace.report_s"] = statistics.median(runner.round_count_times)
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / ("spans-%s.jsonl.gz" % label), "wt") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dict(zip(
                ("id", "parent", "run", "name", "start", "end"), span))) + "\n")
    table = span_table(tracer.spans)
    lines = ["# per round: %d round(s); wall seconds x host factor %.4f; "
             "missing targets: %s"
             % (rounds, factor, ", ".join(tracer.missing) or "none"),
             "%-44s %10s %12s %12s" % ("span", "calls", "busy_s", "self_s")]
    for name, (calls, busy, own) in sorted(table.items(),
                                           key=lambda kv: -kv[1][1]):
        lines.append("%-44s %10.1f %12.6f %12.6f" % (
            name, calls / rounds, busy * factor / rounds, own * factor / rounds))
    (OUT / ("layers-%s.txt" % label)).write_text("\n".join(lines) + "\n")
    return {k: (v, "s" if k.endswith("_s") or "_s." in k else
                "bytes" if k == "report.bytes" else "count")
            for k, v in values.items()}


def bench(args):
    # One CPU for the whole run, set-up children included, so that the
    # kernel samples time the same CPU as the work they calibrate.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = load_program()
    workload = WORKLOADS[args.workload]
    plan = count_plan(workload, args.seed)
    tracer = None
    speed = HostSpeed()
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        measure_setup(1, speed)          # writes the bytecode; not measured
        setup = measure_setup(SETUP_RUNS, speed)
    runner = Runner(cli, workload, args.workload, speed, tracer)
    try:
        rounds = runner.run(plan, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    label = "%s-seed%d" % (args.workload, args.seed)
    if tracer is not None:
        metrics = per_layer(runner, tracer, rounds, label)
    else:
        setup += measure_setup(SETUP_RUNS, speed)
        metrics = runner.end_to_end(
            rounds, statistics.median(s for s, _ in setup))
        print("wall seconds: setup median %.6f, calls %.3f; host factor %.4f "
              "over %d kernel samples" % (statistics.median(w for _, w in setup),
                                          runner.wall, speed.factor(),
                                          len(speed.samples)), file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


# -- steadiness: two sets of runs of the same code ----------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    raw = {}
    for name in names:
        for which, base in (("A", 1000), ("B", 2000)):
            for i in range(args.runs):
                seed = base + i
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=900)
                line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() \
                    else "{}"
                result = json.loads(line) if done.returncode == 0 else {}
                raw.setdefault(name, {}).setdefault(which, []).append(
                    {"seed": seed, "exit": done.returncode, "result": result})
                print("%s set %s seed %d: exit %d %s" % (
                    name, which, seed, done.returncode,
                    {k: round(v["value"], 4) for k, v in
                     result.get("metrics", {}).items()}), flush=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (OUT / ("steadiness-%s.json" % stamp)).write_text(json.dumps(raw, indent=1))
    ok = True
    for name in names:
        print("\n%s" % name)
        print("%-20s %3s %12s %12s %12s %8s" % ("metric", "set", "q1", "median",
                                                "q3", "iqr/med"))
        sets = raw[name]
        shares = set()
        for which, runs in sets.items():
            for run in runs:
                r = run["result"]
                if not r:
                    ok = False
                    print("  set %s seed %d failed to run" % (which, run["seed"]))
                    continue
                shares.add((which, r["failed"] / r["attempted"]))
        if len({share for _, share in shares}) > 1:
            ok = False
            print("  failed share differs between runs: %s" % sorted(shares))
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            med = {}
            for which, runs in sets.items():
                values = [run["result"]["metrics"][key]["value"]
                          for run in runs if run["result"]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                med[which] = q2
                steady = key == "setup_s" or spread <= bound
                ok = ok and steady
                print("%-20s %3s %12.6g %12.6g %12.6g %8.4f%s" % (
                    key, which, q1, q2, q3, spread,
                    "" if steady else "  > bound %.2f" % bound))
            worse = med["B"] / med["A"] - 1
            if metric["better"] == "higher":
                worse = med["A"] / med["B"] - 1
            agree = worse <= bound
            ok = ok and agree
            print("%-20s     set B vs A worse by %+.4f (bound %.2f): %s" % (
                key, worse, bound, "agree" if agree else "DISAGREE"))
    print("\nsteady: %s" % ("yes" if ok else "no"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of --runs runs per workload and "
                             "compare them with the bounds in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        parser.error("give one --workload and --seconds")
    args.workload = args.workload[0]
    bench(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
