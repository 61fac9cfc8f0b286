#!/usr/bin/env python3
"""Driver for rankties-e2e, the repository's end-to-end benchmark.

Builds bench_e2e from source (Release, into .bench_build/e2e under the
repository root), runs it, and reports. Run from anywhere; paths resolve
against the repository root.

  run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One run of one workload. The last stdout line is a JSON object with
      "correct", "attempted", "failed" and "metrics": the end-to-end metrics
      for --trace 0, the per-layer metrics for --trace 1.
  run.py [--seeds 1,2] [--repeat R] [--seconds S] [--out FILE]
      Every workload, R rounds interleaved, per seed: prints the end-to-end
      table and saves the result set (default .bench_build/e2e-results/).
  run.py --traced [--seconds S]
      Every workload traced (default 10 s): per-layer table plus one
      Chrome/Perfetto trace file per workload.
  run.py --compare A.json B.json
      Median delta of every end-to-end metric against its bound. Refuses
      sets taken on different machines or settings.
  run.py --smoke --bin PATH
      The ctest self-check: 1 s runs of every workload checked against
      BENCHMARK.json, and --compare must refuse an edited header.

Exit status: 0 on success; 1 on a wrong answer, a failed build, a
regression or a failed self-check; 2 when --compare refuses its inputs.
"""

import argparse
import copy
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
WORK_DIR = os.path.join(ROOT, ".bench_build", "e2e-work")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "e2e-results")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
THREADS = 4
TRACED_SECONDS = 10
# A hung harness is killed in time for run.py to exit within 180 s.
HARNESS_TIMEOUT_S = 170
# Header fields that must agree before two result sets may be compared.
MACHINE_FIELDS = ("nproc", "compiler", "build_type", "simd", "threads",
                  "run_seconds")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def build():
    """Configures once, then brings bench_e2e up to date; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "--build", BUILD_DIR, f"-j{THREADS}",
              "--target", "bench_e2e"]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log(f"build failed: {' '.join(step)} (log: {build_log})")
                return None
    return os.path.join(BUILD_DIR, "bench_e2e")


def git_sha():
    """HEAD of the repository, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_harness(binary, workload, seed, seconds, traced):
    """One bench_e2e process; returns its result document or None."""
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--work-dir", WORK_DIR]
    if traced:
        command += ["--traced", "--trace-out", stem + "-trace.json"]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(HARNESS_TIMEOUT_S, 4 * seconds))
    except subprocess.TimeoutExpired:
        log(f"{workload}: bench_e2e timed out")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: bench_e2e exited {done.returncode} without a result")
        return None
    doc["header"]["git_sha"] = git_sha()
    doc["exit_code"] = done.returncode
    with open(stem + ("-traced" if traced else "") + ".json", "w") as f:
        json.dump(doc, f, indent=1)
    return doc


def is_correct(doc):
    values = [m["value"] for m in doc["metrics"].values()]
    return (doc["exit_code"] == 0 and doc["failed"] == 0 and not doc["errors"]
            and all(isinstance(v, (int, float)) and math.isfinite(v)
                    for v in values))


def contract_line(doc):
    if doc is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"correct": is_correct(doc), "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": doc["metrics"]}


def spread(values):
    """Interquartile range over the median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def format_value(value):
    if value is None:
        return "-"
    return f"{value:.4g}"


def run_set(binary, workloads, seeds, repeat, seconds, traced):
    """Runs every (seed, workload) `repeat` times, round-robin."""
    runs = []
    for _ in range(repeat):
        for seed in seeds:
            for w in workloads:
                doc = run_harness(binary, w, seed, seconds, traced)
                if doc is None:
                    return None
                runs.append(doc)
                log(f"{w} seed {seed}: attempted {doc['attempted']}, "
                    f"failed {doc['failed']}")
    return runs


def median_or_none(values):
    finite = [v for v in values if v is not None]
    return statistics.median(finite) if finite else None


def print_table(runs, metric_names):
    """Median per workload of every metric, plus the two fields reported
    beside the metrics: job_p90_ms and failed_frac (worst run)."""
    columns = list(metric_names) + ["job_p90_ms", "failed_frac"]
    print(f"{'workload':<12}" + "".join(f"{c:>18}" for c in columns))
    for w in dict.fromkeys(r["header"]["workload"] for r in runs):
        mine = [r for r in runs if r["header"]["workload"] == w]
        cells = []
        for c in metric_names:
            median = median_or_none([r["metrics"][c]["value"] for r in mine])
            unit = mine[0]["metrics"][c]["unit"]
            cells.append(f"{format_value(median)} {unit}")
        p90 = median_or_none([r["job_p90_ms"] for r in mine])
        cells.append(f"{format_value(p90)} ms")
        cells.append(f"{max(r['failed_frac'] for r in mine):g} ratio")
        print(f"{w:<12}" + "".join(f"{c:>18}" for c in cells))


def compare(path_a, path_b, bench):
    sets = []
    for path in (path_a, path_b):
        with open(path) as f:
            sets.append(json.load(f)["runs"])
    headers = [r["header"] for runs in sets for r in runs]
    for field in MACHINE_FIELDS:
        seen = {json.dumps(h.get(field)) for h in headers}
        if len(seen) > 1:
            log(f"refusing to compare: header field '{field}' differs "
                f"({', '.join(sorted(seen))})")
            return 2
    a, b = sets
    regressions = 0
    print(f"{'workload':<12}{'metric':<16}{'median A':>12}{'median B':>12}"
          f"{'worse by':>10}{'bound':>8}{'spread A':>10}{'spread B':>10}  "
          "verdict")
    for w in dict.fromkeys(r["header"]["workload"] for r in a + b):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a
                  if r["header"]["workload"] == w]
            vb = [r["metrics"][name]["value"] for r in b
                  if r["header"]["workload"] == w]
            if not va or not vb:
                print(f"{w:<12}{name:<16}  missing on one side")
                regressions += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma if metric["better"] == "lower" else ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            if sa > metric["bound"] or sb > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{w:<12}{name:<16}{ma:>12.4g}{mb:>12.4g}{worse:>+10.1%}"
                  f"{metric['bound']:>8.0%}{sa:>10.1%}{sb:>10.1%}  {verdict}")
    return 1 if regressions else 0


def save_set(runs, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"schema": "rankties-e2e-set-v1", "runs": runs}, f, indent=1)
    log(f"saved {len(runs)} runs to {path}")


def smoke(binary, bench):
    """Self-check of the harness against BENCHMARK.json."""
    problems = []
    workloads = [w["name"] for w in bench["workloads"]]
    plain = run_set(binary, workloads, [1], 1, 1, traced=False)
    traced = run_set(binary, workloads, [1], 1, 1, traced=True)
    if plain is None or traced is None:
        return 1
    for runs, section in ((plain, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[section]}
        for doc in runs:
            w = doc["header"]["workload"]
            got = {k: v.get("unit") for k, v in doc["metrics"].items()}
            if set(got) != set(expected):
                problems.append(f"{w}: {section} names differ: "
                                f"{sorted(set(got) ^ set(expected))}")
            for name, unit in got.items():
                if not unit or (name in expected and unit != expected[name]):
                    problems.append(f"{w}: {name} has unit {unit!r}")
            if doc["failed_frac"] != 0 or not is_correct(doc):
                problems.append(f"{w}: failed_frac {doc['failed_frac']}, "
                                f"errors {doc['errors']}")
    smoke_dir = os.path.join(ROOT, ".bench_build", "e2e-smoke")
    good = os.path.join(smoke_dir, "plain.json")
    edited = os.path.join(smoke_dir, "edited.json")
    save_set(plain, good)
    tampered = copy.deepcopy(plain)
    tampered[0]["header"]["nproc"] += 1
    save_set(tampered, edited)
    if compare(good, good, bench) == 2:
        problems.append("--compare refused two identical sets")
    if compare(good, edited, bench) != 2:
        problems.append("--compare accepted a set with an edited header")
    for p in problems:
        log(f"smoke: {p}")
    log("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="comma-separated, for the table mode")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="use this bench_e2e instead of building")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    binary = args.bin or build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary, bench)

    if args.workload:
        seconds = args.seconds or bench["run_seconds"]
        doc = run_harness(binary, args.workload, args.seed, seconds,
                          args.trace == 1)
        line = contract_line(doc)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in (args.seeds or str(args.seed)).split(",")]
    if args.traced:
        seconds = args.seconds or TRACED_SECONDS
        runs = run_set(binary, workloads, seeds, args.repeat, seconds, True)
        names = [m["name"] for m in bench["per_layer"]]
    else:
        seconds = args.seconds or bench["run_seconds"]
        runs = run_set(binary, workloads, seeds, args.repeat, seconds, False)
        names = [m["name"] for m in bench["end_to_end"]]
    if runs is None:
        return 1
    if args.traced:
        for name in names:
            print(f"{name:<36}" + "".join(
                f"{format_value(r['metrics'][name]['value']):>12}"
                for r in runs) + f"  {runs[0]['metrics'][name]['unit']}")
        print(f"{'(workload)':<36}" + "".join(
            f"{r['header']['workload']:>12}" for r in runs))
    else:
        print_table(runs, names)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    save_set(runs, args.out or os.path.join(
        RESULTS_DIR, f"set-{'traced-' if args.traced else ''}{stamp}.json"))
    return 0 if all(is_correct(r) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
