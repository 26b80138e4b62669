#!/usr/bin/env python3
"""End-to-end `edsim sweep` benchmark with a traced per-layer replay.

Run from the root of a source checkout:

    python3 sweepbench/run.py --workload regular-d5 --seed 7 --seconds 20 --trace 0
    python3 sweepbench/run.py --self-test

The first run builds `edsim` and the `sweep_trace` replay program from
source into .bench_build/sweepbench/Release/ (Release, EDS_NATIVE=OFF).

--trace 0 (end-to-end mode) launches the real `edsim sweep ... --ndjson
--seed S'` once per pass, times each pass from outside, checks its rows,
and reports medians over the passes.  Pass k of a run uses a seed derived
from (--seed, k) for k = 1..K, in whole rotations, so one run measures
K instances of the workload's input family, each equally often, and the
figures do not hinge on one random graph.  An untimed warm-up pass
runs with exactly `--seed S`; its rows give the workload fingerprint.

--trace 1 (traced mode) alternates passes with exactly `--seed S` and
replays of the same sweep in `sweep_trace`, which records a span around
every call into a layer and reports per-layer time and work.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  Everything before it is a human-readable report.
Each run also writes a results file (with build provenance), and traced
runs a Chrome trace-event file, under .bench_build/sweepbench/results/.
See NOTES.md in this directory for why each workload exists.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build", "sweepbench")

# Seed never used while the benchmark was tuned; check claims on it too.
HELD_OUT_SEED = 9001

# Longest a single pass or replay may take before it is killed.
PASS_TIMEOUT_S = 120

# Fewest rotations a run makes, however long they take.
MIN_ROTATIONS = 2


def manifest_metrics():
    """Metric names and units per --trace mode, as BENCHMARK.json lists
    them: 0 -> end_to_end, 1 -> per_layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return manifest, {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }


FINGERPRINT_KEYS = ("jobs", "edges", "rounds", "messages", "solution",
                    "plans_compiled", "plan_hits")

# Summary fields that only appear when the shard resilience layer had to
# step in; a clean run never prints them.
RESILIENCE_KEYS = ("jobs_retried", "jobs_poisoned", "deadline_kills",
                   "batch_timeouts", "workers_respawned", "pool_quarantines",
                   "fallback_jobs", "summaries_lost")

# One `edsim sweep` command per workload; `toy` shrinks the sizes for the
# self-test.  An end-to-end run measures the instances of pass seeds
# pass_seed(S, 1..seeds), in whole rotations, so every run with the same
# --seed measures the same instances equally often, however fast the
# build is.  NOTES.md records why each workload was chosen.
WORKLOADS = {
    "regular-d5": {
        "family": "regular", "d": 5, "min": 2048, "max": 8192,
        "repeat": 3, "threads": 4, "seeds": 4,
        "toy": {"min": 64, "max": 256},
    },
    "powerlaw-sparse": {
        "family": "powerlaw", "min": 256, "max": 1024, "threads": 4,
        "seeds": 48,
        "toy": {"min": 64, "max": 256},
    },
    "torus-sharded": {
        "family": "torus", "min": 16384, "max": 262144, "shards": 4,
        "seeds": 4,
        "toy": {"min": 64, "max": 256},
    },
    "regular-async": {
        "family": "regular", "d": 3, "min": 2048, "max": 8192, "repeat": 2,
        "threads": 4, "model": "async", "delay": "uniform:1:9", "seeds": 4,
        "toy": {"min": 32, "max": 128},
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def workload_spec(name, toy):
    spec = {k: v for k, v in WORKLOADS[name].items() if k != "toy"}
    if toy:
        spec.update(WORKLOADS[name]["toy"])
    return spec


def sweep_sizes(spec):
    sizes, n = [], spec["min"]
    while n <= spec["max"]:
        sizes.append(n)
        n *= 2
    return sizes


def expected_jobs(spec):
    return len(sweep_sizes(spec)) * spec.get("repeat", 1)


def sweep_argv(edsim, spec, seed):
    argv = [edsim, "sweep", spec["family"], "--min", str(spec["min"]),
            "--max", str(spec["max"])]
    if "d" in spec:
        argv += ["--d", str(spec["d"])]
    if spec.get("repeat", 1) > 1:
        argv += ["--repeat", str(spec["repeat"])]
    if "shards" in spec:
        argv += ["--shards", str(spec["shards"])]
    else:
        argv += ["--threads", str(spec["threads"])]
    if spec.get("model") == "async":
        argv += ["--model", "async", "--delay", spec["delay"]]
    return argv + ["--ndjson", "--seed", str(seed)]


def trace_argv(replayer, edsim, spec, seed, trace_out, traced_first):
    """One untraced and one traced replay of the workload on `seed`."""
    argv = [replayer, "--family", spec["family"], "--min", str(spec["min"]),
            "--max", str(spec["max"]), "--repeat", str(spec.get("repeat", 1)),
            "--lanes", str(spec.get("threads", spec.get("shards"))),
            "--seed", str(seed), "--trace-out", trace_out,
            "--traced-first", str(int(traced_first))]
    if "d" in spec:
        argv += ["--d", str(spec["d"])]
    if "shards" in spec:
        argv += ["--shards", str(spec["shards"]), "--edsim", edsim]
    if spec.get("model") == "async":
        argv += ["--model", "async", "--delay", spec["delay"]]
    return argv


def pass_seed(seed, k):
    """Seed of timed pass k >= 1 (splitmix64 of the run seed and k)."""
    mask = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + k * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) >> 1


# --------------------------------------------------------------- build


def build():
    """Configures (once) and builds edsim and sweep_trace as a Release
    build with EDS_NATIVE=OFF; returns their paths."""
    build_dir = os.path.join(OUT_DIR, "Release")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DEDS_NATIVE=OFF"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "edsim", "sweep_trace"])
    with open(build_log, "ab") as sink:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = f"{type(e).__name__}: {e}"
            if rc != 0:
                if "-S" in step:
                    # A failed configure must not leave a cache behind that
                    # makes the next run skip configuring.
                    cache = os.path.join(build_dir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                with open(build_log, "rb") as f:
                    tail = f.read()[-3000:].decode(errors="replace")
                log(tail)
                raise SystemExit(f"sweepbench: build step failed ({rc}): "
                                 f"{' '.join(step)}; see {build_log}")
    return (os.path.join(build_dir, "eds", "src", "edsim"),
            os.path.join(build_dir, "sweep_trace"))


def provenance(replayer):
    out = subprocess.run([replayer, "--provenance"], capture_output=True,
                         text=True, timeout=30, check=True).stdout
    info = json.loads(out)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except OSError:
            pass
    info.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "python": sys.version.split()[0],
    })
    if info["build_type"] != "Release" or not info["ndebug"]:
        log("=" * 72)
        log(f"WARNING: sweepbench is measuring a {info['build_type']} build "
            f"(NDEBUG={info['ndebug']}).")
        log("WARNING: these timings are not comparable with Release figures.")
        log("=" * 72)
    return info


# ------------------------------------------------------------ one pass


class Pass:
    """One launch of `edsim sweep`, timed and checked from outside."""

    def __init__(self, argv, jobs, async_model):
        self.jobs = jobs
        self.async_model = async_model
        self.problems = []
        self.fingerprint = {}
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=ROOT)
        killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # Read stderr on the side so a chatty child cannot block on it.
            err_chunks = []
            reader = threading.Thread(
                target=lambda: err_chunks.append(proc.stderr.read()))
            reader.start()
            lines, first_row = [], None
            for line in proc.stdout:
                if first_row is None and b'"index"' in line:
                    first_row = time.perf_counter()
                lines.append(line)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            reader.join()
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        self.sweep_s = t1 - t0
        self.setup_s = (first_row if first_row is not None else t1) - t0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.exit_code = proc.returncode
        self.stderr = b"".join(c for c in err_chunks if c).decode(
            errors="replace")
        self.failed = self._check(lines)

    def _check(self, lines):
        """Returns the number of jobs this pass failed: all of them when
        the pass as a whole is broken, else the rows that are missing,
        infeasible or inconsistent."""
        broken = self.exit_code != 0
        if broken:
            self.problems.append(f"exit status {self.exit_code}: "
                                 f"{self.stderr.strip()[-300:]}")
        rows, summary = {}, None
        for raw in lines:
            try:
                obj = json.loads(raw)
            except ValueError:
                self.problems.append(f"not JSON: {raw[:120]!r}")
                return self.jobs
            if "summary" in obj:
                summary = obj["summary"]
            elif "index" in obj:
                broken |= obj["index"] in rows
                rows[obj["index"]] = obj
        if len(rows) != self.jobs or set(rows) != set(range(self.jobs)):
            broken = True
            self.problems.append(f"rows {sorted(rows)} for {self.jobs} jobs")
        if summary is None:
            broken = True
            self.problems.append("no summary line")
        else:
            counters = [k for k in RESILIENCE_KEYS if k in summary]
            if (summary.get("jobs") != self.jobs
                    or summary.get("all_feasible", True) is not True
                    or counters):
                broken = True
                self.problems.append(f"summary {summary}")
            self.fingerprint = {
                "jobs": len(rows),
                "plans_compiled": summary.get("plans_compiled"),
                "plan_hits": summary.get("plan_hits"),
            }
            for key in ("edges", "rounds", "messages", "solution"):
                self.fingerprint[key] = sum(r.get(key, 0)
                                            for r in rows.values())
        bad = 0
        for i in range(self.jobs):
            row = rows.get(i, {})
            if row.get("feasible") is not True or (
                    self.async_model and row.get("consistent") is not True):
                bad += 1
                self.problems.append(f"row {i}: {row}")
        return self.jobs if broken else bad


def timed_passes(make_argv, spec, seconds):
    """Whole rotations over passes k = 1..spec["seeds"], for as many
    rotations as fit in `seconds` (at least MIN_ROTATIONS)."""
    passes, start, rotations = [], time.perf_counter(), 0
    while True:
        for k in range(1, spec["seeds"] + 1):
            passes.append(Pass(make_argv(k), expected_jobs(spec),
                               spec.get("model") == "async"))
        rotations += 1
        elapsed = time.perf_counter() - start
        if (rotations >= MIN_ROTATIONS
                and elapsed + elapsed / rotations > seconds):
            return passes


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    k = n - 10
    return 100.0 * k / n, ordered[k - 1]


def run_replay(argv, problems):
    """One sweep_trace invocation; returns its result with the self-time
    table, or None (with the reason in `problems`) when it failed."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=2 * PASS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
    except (subprocess.TimeoutExpired, ValueError) as e:
        problems.append(f"sweep_trace: {type(e).__name__}: {e}")
        return None
    if proc.returncode != 0 or result is None:
        problems.append(f"sweep_trace exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}")
        return None
    result["table"] = lines[:-1]
    return result


# --------------------------------------------------------------- report


def print_report(title, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>14} {unit:<6} {note}")


def e2e_rows(passes, units):
    rows = []
    for name, unit in units.items():
        values = [getattr(p, name) for p in passes]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [0] * 3
        rows.append((name, statistics.median(values), unit,
                     f"median of {len(values)} passes, "
                     f"q1={q[0]:.4g} q3={q[2]:.4g}"))
    tail = tail_percentile([p.sweep_s for p in passes])
    if tail is not None:
        rows.append((f"sweep_s.p{tail[0]:.0f}", tail[1], "s",
                     f"{len(passes)} passes, 10 beyond it"))
    return rows


# ----------------------------------------------------------------- main


def run_workload(args):
    spec = workload_spec(args.workload, args.toy)
    _, units = manifest_metrics()
    edsim, replayer = build()
    info = provenance(replayer)
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    async_model = spec.get("model") == "async"

    warmup = Pass(sweep_argv(edsim, spec, args.seed), expected_jobs(spec),
                  async_model)
    fingerprint = warmup.fingerprint
    problems = [f"warm-up: {p}" for p in warmup.problems]
    metrics = {}
    replays = []
    if args.trace == 0:
        passes = timed_passes(
            lambda k: sweep_argv(edsim, spec, pass_seed(args.seed, k)), spec,
            args.seconds)
    else:
        # CLI passes on exactly this seed alternate with replay pairs (one
        # traced, one untraced), so that cli.residual_s and
        # trace.overhead_frac compare figures taken side by side.
        trace_file = os.path.join(results_dir, f"{stem}.trace.json")
        passes, start = [], time.perf_counter()
        while not replays or time.perf_counter() - start < args.seconds:
            passes.append(Pass(sweep_argv(edsim, spec, args.seed),
                               expected_jobs(spec), async_model))
            replays.append(run_replay(
                trace_argv(replayer, edsim, spec, args.seed, trace_file,
                           traced_first=len(replays) % 2), problems))
    for i, p in enumerate(passes, start=1):
        problems += [f"pass {i}: {q}" for q in p.problems]
    attempted = warmup.jobs + sum(p.jobs for p in passes)
    failed = warmup.failed + sum(p.failed for p in passes)
    rows = e2e_rows(passes, units[0])

    if args.trace == 0:
        for name in units[0]:
            metrics[name] = statistics.median(getattr(p, name) for p in passes)
    else:
        done = [r for r in replays if r is not None]
        lost = len(replays) - len(done)
        attempted += sum(r["attempted"] for r in done) + lost * expected_jobs(
            spec)
        failed += sum(r["failed"] for r in done) + lost * expected_jobs(spec)
        layer = {}
        for name in {n for r in done for n in r["metrics"]}:
            layer[name] = statistics.median(r["metrics"][name] for r in done
                                            if name in r["metrics"])
        for r in done:
            for key in FINGERPRINT_KEYS:
                got = r["metrics"].get(f"fingerprint.{key}")
                if got != fingerprint.get(key):
                    problems.append(f"replay fingerprint {key}={got} but the "
                                    f"CLI printed {fingerprint.get(key)}")
        if done:
            layer["trace.overhead_frac"] = (
                layer["trace.traced_wall_s"] / layer["trace.untraced_wall_s"]
                - 1.0)
            layer["cli.residual_s"] = (
                statistics.median(p.sweep_s for p in passes)
                - layer["trace.layer_total_s"])
        layer["jobs_failed_frac"] = failed / attempted
        for name in units[1]:
            metrics[name] = float(layer.get(name, 0.0))
        print(f"== self time per layer (last of {len(done)} traced replays)")
        for line in (done[-1]["table"] if done else []):
            print("  " + line)
        print(f"  chrome trace: {os.path.relpath(trace_file, ROOT)}")

    rows.append(("jobs_failed_frac", failed / attempted, "frac",
                 f"{failed} of {attempted} jobs"))
    print_report(f"{args.workload} seed={args.seed} trace={args.trace}"
                 f"{' toy' if args.toy else ''}", rows)
    print_report("fingerprint (CLI rows of --seed "
                 f"{args.seed})", [(f"fingerprint.{k}", fingerprint.get(k),
                                     "count", "") for k in FINGERPRINT_KEYS])
    print("== provenance: " + json.dumps(info, sort_keys=True))
    for problem in problems[:20]:
        log(f"sweepbench: FAILED CHECK: {problem}")

    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[args.trace][name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "command": sweep_argv("edsim", spec,
                                                         args.seed)[1:],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "provenance": info, "fingerprint": fingerprint,
        "passes": [{"sweep_s": p.sweep_s, "setup_s": p.setup_s,
                    "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb,
                    "failed": p.failed} for p in passes],
        "problems": problems, "result": result,
    }
    with open(os.path.join(results_dir, f"{stem}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def self_test():
    """Runs every workload at toy size in both modes and checks that every
    metric named in BENCHMARK.json is printed, with its unit."""
    manifest, expected = manifest_metrics()
    errors = []
    if sorted(w["name"] for w in manifest["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json and run.py name different workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--toy",
                    "--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  cwd=ROOT, timeout=900)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                errors.append(f"{label}: no JSON result line "
                              f"(exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or result.get("correct") is not True \
                    or result.get("failed") != 0:
                errors.append(f"{label}: exit {proc.returncode}, "
                              f"result {lines[-1][:200]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                errors.append(f"{label}: missing {missing} extra {extra} "
                              f"wrong units {wrong}")
            for name, entry in result["metrics"].items():
                if not isinstance(entry.get("value"), (int, float)):
                    errors.append(f"{label}: {name} has no numeric value")
            report = "\n".join(lines[:-1])
            if trace == 0 and "jobs_failed_frac" not in report:
                errors.append(f"{label}: report lacks jobs_failed_frac")
            print(f"self-test: {label}: {len(got)} metrics, "
                  f"{result.get('attempted')} jobs checked")
    for e in errors:
        print(f"self-test: FAIL {e}")
    print("self-test: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed; seed {HELD_OUT_SEED} was held "
                        "out from tuning, check claimed gains on it too")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy input sizes (seconds-long self-test runs)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at toy size in both modes")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
