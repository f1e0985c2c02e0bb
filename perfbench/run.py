"""homolink benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,classify,long_words}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
Every pass runs in a fresh interpreter (perfbench/worker.py), because the
skein memo and the reference-signature cache are process-global. Workloads:

  sweep       a seeded, stratified sample of 3,000 of the 30,998
              homogeneous connected non-weak words with n <= 4, m <= 8,
              each put through every two-route cross-check: thousands of
              tiny determinants, no Jones.
  classify    `analyze` and `monodromy` on the 30 class representatives of
              degree 0..4 and genus 0..1 (five rounds, reported per
              round), then `enumerate --degree k`
              (k = 0..4) and `--genus g` (g = 0..1) as JSON. Exhaustive,
              so the seed has no effect.
  long_words  `analyze` and `monodromy` in text mode on the dense 3-strand
              family (1 -2)^r at k = 16, 18, 20, a 4-strand word at the
              Jones cap m = 16, and one seeded random word per 3-strand
              shape: few huge determinants and state sums.

With --trace 0 the run repeats untraced passes for about --seconds and
reports the median over passes of each end-to-end metric. With --trace 1
it runs two traced passes around an untraced one and reports per-layer
self times and counts from the traced ones; the counts must repeat
exactly between them.
The last line of stdout is one JSON object: correct, attempted, failed
(checks on the program's output) and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs
from tracing import self_times

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
TRACES = os.path.join(BENCH, "traces")
WORKLOADS = ("sweep", "classify", "long_words")
SETUP_PROBES = 5   # setup-only interpreters per run, besides each pass's own
DEADLINE_S = 170   # the whole run must end within 180 s

# Per-layer metrics from the traced passes: span name -> metric name.
SPAN_METRICS = {
    "enumeration.generate": "enumeration.generate_s",
    "enumeration.reduce": "enumeration.reduce_s",
    "enumeration.signature": "enumeration.signature_s",
    "enumeration.classify": "enumeration.classify_s",
    "jones.kauffman": "jones.kauffman_s",
    "polynomials.det": "polynomials.det_s",
    "monodromy.twist": "monodromy.twist_s",
    "monodromy.solve": "monodromy.solve_s",
    "monodromy.char_poly": "monodromy.char_poly_s",
    "monodromy.form": "monodromy.form_s",
    "seifert.surface": "seifert.surface_s",
    "seifert.conway": "seifert.conway_s",
    "seifert.alexander": "seifert.alexander_s",
    "burau.alexander": "burau.alexander_s",
    "skein.conway": "skein.conway_s",
    "reference.load": "reference.load_s",
    "reference.signature": "reference.signature_s",
    "cli.analyze": "cli.analyze_self_s",
    "cli.monodromy": "cli.monodromy_self_s",
    "cli.enumerate": "cli.enumerate_self_s",
}
# Exact counts that must repeat between the two traced passes.
REPEATED = ("enumeration.raw_words", "enumeration.orbits",
            "enumeration.classes", "jones.calls", "jones.states",
            "polynomials.det_calls", "polynomials.det_max_dim",
            "skein.memo_entries")


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline, *extra):
    """Start one worker, wait for it, and return its result object.

    The seeded words are generated here, for every worker, and sent on its
    stdin; the worker's setup_s runs from just before the generation."""
    env = {k: v for k, v in os.environ.items() if k != "HOMOLINK_THREADS"}
    t0 = time.monotonic_ns()
    words = json.dumps(inputs.workload_inputs(args.workload, args.seed))
    cmd = [sys.executable, "-I", WORKER, "--workload", args.workload,
           "--t0", str(t0), *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, input=words,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {DEADLINE_S} s run limit") \
            from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return json.loads(lines[-1])


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"machine: nproc {os.cpu_count()}, python "
            f"{platform.python_version()}, cpu {cpu}")


def untraced(args, deadline):
    """Setup probes, then passes until the next would overrun --seconds."""
    start = time.monotonic()
    setups = [spawn(args, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes, last = [], 0.0
    while not passes or time.monotonic() - start + last <= args.seconds:
        t = time.monotonic()
        passes.append(spawn(args, deadline))
        last = time.monotonic() - t
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    metrics = {
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]),
                    "s"),
        "wall_s": (med("wall_s"), "s"),
        "words_per_s": (statistics.median(p["words"] / p["wall_s"]
                                          for p in passes), "1/s"),
        "analyze_s": (med("analyze_s"), "s"),
        "monodromy_s": (med("monodromy_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    return passes, metrics


def traced_pass(args, deadline, k):
    """One traced pass; its spans are read back and reduced to self times."""
    path = os.path.join(TRACES, f"{args.workload}-{k}.jsonl")
    run_id = f"{args.workload}-seed{args.seed}-pass{k}"
    res = spawn(args, deadline, "--trace-file", path, "--run-id", run_id)
    with open(path, encoding="utf-8") as fh:
        res["self"] = self_times([json.loads(line) for line in fh])
    res["counts"]["skein.memo_entries"] = res["memo_entries"]
    return res


def traced(args, deadline):
    """Two traced passes around one untraced pass; per-layer metrics.

    The untraced pass runs between the traced ones so that a drift in
    machine speed during the run cancels out of the tracing overhead.
    """
    os.makedirs(TRACES, exist_ok=True)
    first = traced_pass(args, deadline, 1)
    base = spawn(args, deadline)
    runs = [first, traced_pass(args, deadline, 2)]
    metrics = {}
    for span, name in SPAN_METRICS.items():
        metrics[name] = (statistics.median(r["self"].get(span, 0.0)
                                           for r in runs), "s")
    counts = runs[0]["counts"]
    for name in REPEATED:
        metrics[name] = (counts[name], "count")
    raw = counts["enumeration.raw_words"]
    metrics["enumeration.orbit_ratio"] = (
        counts["enumeration.orbits"] / raw if raw else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in runs) - base["wall_s"], "s")
    repeat_errors = [f"{name} differs between traced passes: "
                     f"{runs[0]['counts'][name]} vs {runs[1]['counts'][name]}"
                     for name in REPEATED
                     if runs[0]["counts"][name] != runs[1]["counts"][name]]
    return [first, base, runs[1]], metrics, repeat_errors


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "homolink", "__init__.py")):
        sys.stderr.write(f"no homolink package under {ROOT}/src; run from the "
                         "root of a homolink checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S

    print(machine())
    if args.workload == "classify":
        print("classify is exhaustive: the seed has no effect")
    try:
        if args.trace:
            passes, metrics, extra_errors = traced(args, deadline)
            extra_checks = len(REPEATED)
        else:
            passes, metrics = untraced(args, deadline)
            extra_errors, extra_checks = [], 0
    except WorkerError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    attempted = sum(res["attempted"] for res in passes) + extra_checks
    failed = sum(res["failed"] for res in passes) + len(extra_errors)
    if not args.trace:
        metrics["pass_frac"] = ((attempted - failed) / attempted, "ratio")
    for k, res in enumerate(passes, 1):
        print(f"pass {k}: " + ", ".join(
            f"{key} {res[key]:.4f}" for key in ("setup_s", "wall_s",
                                                "analyze_s", "monodromy_s",
                                                "peak_rss_mb")))
        for err in res["errors"]:
            print(f"check failed: {err}")
    for err in extra_errors:
        print(f"check failed: {err}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} checks, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
