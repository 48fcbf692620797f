#!/usr/bin/env python3
"""Build and run the gbpol benchmark, or compare two sets of its results.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload zdock_hybrid --seed 1 --seconds 15 --trace 0 \
        [--out results.jsonl]

The first run configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
The run's report goes to standard output; its last line is one JSON object
with the keys correct, attempted, failed and metrics. --out appends the
result, with its workload, seed and provenance, to a JSON-lines file.

Compare two result sets (files or directories of .jsonl files):

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

Run the self-tests (C++ and Python):

    python3 perfbench/run.py selftest
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail("build step failed: %s (log: %s)" % (" ".join(cmd), log_path))
    return os.path.join(out, target)


def revision():
    """The git revision, or a digest of the sources when there is no git."""
    # The ceiling keeps git from reporting an enclosing repository's HEAD.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def parse_run_args(argv):
    args = {"workload": None, "seed": None, "seconds": None, "trace": None, "out": None}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if not flag.startswith("--") or flag[2:] not in args or i + 1 >= len(argv):
            fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 [--out F]")
        args[flag[2:]] = argv[i + 1]
        i += 2
    for key in ("workload", "seed", "seconds", "trace"):
        if args[key] is None:
            fail("missing --" + key)
    if args["trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return args


def run(argv):
    args = parse_run_args(argv)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args["workload"] not in names:
        fail("unknown workload %r (have: %s)" % (args["workload"], ", ".join(names)))
    binary = build("perfbench")
    cmd = [binary, "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"], "--rev", revision()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result (exit %d)" % proc.returncode, 1)

    # The metric set is the contract BENCHMARK.json states for the mode.
    section = "per_layer" if args["trace"] == "1" else "end_to_end"
    expected = [(m["name"], m["unit"]) for m in bench[section]]
    got = [(name, m.get("unit")) for name, m in result.get("metrics", {}).items()]
    if sorted(got) != sorted(expected):
        sys.stdout.write(proc.stdout)
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s"
             % (section, missing, extra), 1)

    if args["out"]:
        provenance = {}
        for line in lines:
            if line.startswith("provenance "):
                provenance = json.loads(line[len("provenance "):])
        record = {"workload": args["workload"], "seed": int(args["seed"]),
                  "seconds": float(args["seconds"]), "trace": int(args["trace"]),
                  "provenance": provenance, "result": result}
        with open(args["out"], "a") as f:
            f.write(json.dumps(record) + "\n")
    # The result stays the last line of standard output.
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    ok = proc.returncode == 0 and result.get("correct") is True
    sys.exit(0 if ok else 1)


# --- compare mode ---------------------------------------------------------


def spread(values):
    """(median, q1, q3) with q1/q3 from statistics.quantiles(values, n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, new, better, bound):
    """improved / unchanged / worse / unresolved for one (workload, metric)."""
    b_med, b_q1, b_q3 = spread(base)
    n_med, n_q1, n_q3 = spread(new)
    if b_med == 0:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (n_med - b_med) / abs(b_med)  # > 0 is better
    noise = max(b_q3 - b_q1, n_q3 - n_q1) / abs(b_med)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    all_worse = all(sign * (n - b) < 0 for n in new for b in base)
    # A gain also needs the new side to win nine tenths of the run pairs,
    # taken in record order (runs of the two sides made alternately).
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if noise > bound:
        # Runs this noisy decide only when the two sides do not overlap.
        if all_better:
            return "improved"
        if all_worse and -gain > bound:
            return "worse"
        return "unresolved"
    if -gain > bound:
        return "worse"
    if gain > noise and gain > 0 and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def load_results(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".jsonl")]
    else:
        files = [path]
    records = []
    for name in files:
        with open(name) as f:
            records += [json.loads(line) for line in f if line.strip()]
    return records


def group(records, trace):
    out = {}
    for r in records:
        if r["trace"] != trace:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def compare(argv):
    if len(argv) != 2:
        fail("usage: run.py compare BASE NEW")
    bench = load_benchmark()
    base, new = load_results(argv[0]), load_results(argv[1])
    for label, records in (("base", base), ("new", new)):
        revs = sorted({r.get("provenance", {}).get("rev", "?") for r in records})
        dispatch = sorted({str(r.get("provenance", {}).get("simd_dispatch", "?"))
                           for r in records})
        print("%s: %d records, rev %s, dispatch %s" % (label, len(records),
                                                        ",".join(revs), ",".join(dispatch)))
    b_e2e, n_e2e = group(base, 0), group(new, 0)
    b_layer, n_layer = group(base, 1), group(new, 1)
    workloads = [w["name"] for w in bench["workloads"]]
    print("\n%-13s %-20s %-34s %-34s %s" % ("workload", "metric", "base median [q1, q3]",
                                           "new median [q1, q3]", "verdict"))
    for w in workloads:
        for m in bench["end_to_end"]:
            key = (w, m["name"])
            if key not in b_e2e or key not in n_e2e:
                continue
            bm, bq1, bq3 = spread(b_e2e[key])
            nm, nq1, nq3 = spread(n_e2e[key])
            print("%-13s %-20s %-34s %-34s %s" % (
                w, m["name"], "%.5g [%.5g, %.5g] n=%d" % (bm, bq1, bq3, len(b_e2e[key])),
                "%.5g [%.5g, %.5g] n=%d" % (nm, nq1, nq3, len(n_e2e[key])),
                verdict(b_e2e[key], n_e2e[key], m["better"], m["bound"])))
    if b_layer and n_layer:
        print("\n%-13s %-28s %14s %14s %9s" % ("workload", "per-layer metric", "base median",
                                               "new median", "delta"))
        for w in workloads:
            for m in bench["per_layer"]:
                key = (w, m["name"])
                if key not in b_layer or key not in n_layer:
                    continue
                bm = statistics.median(b_layer[key])
                nm = statistics.median(n_layer[key])
                delta = "%+.1f%%" % (100.0 * (nm - bm) / abs(bm)) if bm else "-"
                print("%-13s %-28s %14.6g %14.6g %9s" % (w, m["name"], bm, nm, delta))


# --- self-tests -------------------------------------------------------------


def python_selftest():
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what)
        failures += 0 if ok else 1

    expect(spread([1, 2, 3, 4, 5]) == (3, 1.5, 4.5), "spread: median and quartiles of 1..5")
    expect(spread(list(range(10, 0, -1))) == (5.5, 2.75, 8.25),
           "spread: quartiles of 1..10 interpolate (exclusive method)")
    expect(spread([2.0]) == (2.0, 2.0, 2.0), "spread: one value is its own quartiles")
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    expect(verdict(base, [v * 0.80 for v in base], "lower", 0.1) == "improved",
           "verdict: 20% faster with 4% noise is improved")
    expect(verdict(base, [v * 1.03 for v in base], "lower", 0.1) == "unchanged",
           "verdict: 3% slower within a 10% bound is unchanged")
    expect(verdict(base, [v * 1.30 for v in base], "lower", 0.1) == "worse",
           "verdict: 30% slower beyond a 10% bound is worse")
    expect(verdict(base, [v * 1.30 for v in base], "higher", 0.1) == "improved",
           "verdict: direction follows 'better'")
    mixed = [v * (0.80 if i < 8 else 1.05) for i, v in enumerate(base * 2)]
    expect(verdict(base * 2, mixed, "lower", 0.1) == "unchanged",
           "verdict: a gain that loses two of ten run pairs is not improved")
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7]
    expect(verdict(noisy, [v * 1.2 for v in noisy], "lower", 0.1) == "unresolved",
           "verdict: spread wider than the bound is unresolved")
    return failures


def selftest():
    failures = python_selftest()
    binary = build("perfbench_selftest")
    code = subprocess.call([binary], cwd=ROOT)
    if failures or code:
        sys.exit(1)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        compare(argv[1:])
    elif argv and argv[0] == "selftest":
        selftest()
    else:
        run(argv)


if __name__ == "__main__":
    main()
