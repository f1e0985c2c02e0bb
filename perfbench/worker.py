"""One pass of one workload, in a fresh interpreter.

run.py starts this file once per pass, because skein's memo and the
reference-signature cache are process-global and unbounded: a second pass
in the same process would measure warm caches. The last line of stdout is
one JSON object with the pass's timings, check tallies and counts.

    python3 -I perfbench/worker.py --workload W --t0 NS
        [--setup-only] [--trace-file PATH --run-id ID] < words.json

stdin holds the pass's seeded words as JSON, built by run.py from
perfbench/inputs.py, so this process holds only what homolink is fed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

from tracing import Tracer  # noqa: E402

DEGREE4_NAMES = sorted(["5_1", "6_2", "6_3", "7_6", "7_7", "8_12", "granny",
                        "square", "sum_3_1_4_1", "sum_4_1_4_1"]
                       + ["unidentified"] * 10)
# classify: (argv tail, sorted matched names of the expected classes).
CLASSIFY = (
    (["--degree", "0"], ["unknot"]),
    (["--degree", "1"], ["hopf"]),
    (["--degree", "2"], ["3_1", "4_1", "chain_3"]),
    (["--degree", "3"], ["3_1_meridian", "chain_4", "degree3_link_a",
                         "degree3_link_b", "torus_2_4", "whitehead"]),
    (["--degree", "4"], DEGREE4_NAMES),
    (["--genus", "0"], ["unknot"]),
    (["--genus", "1"], ["3_1", "4_1"]),
)
# The non-empty class representatives that those seven reports listed when
# the benchmark was defined, each once: the words a user inspecting the
# classification would analyze next.
REP_ROUNDS = 5
CLASS_REPS = (
    (2, (-1, -1)),
    (2, (-1, -1, -1)),
    (3, (-2, -2, -1, -1)),
    (3, (-2, 1, -2, 1)),
    (2, (-1, -1, -1, -1)),
    (3, (-2, -2, -2, -1, -1)),
    (3, (-2, -2, 1, -2, 1)),
    (4, (-3, -3, -2, -2, -1, -1)),
    (4, (-3, -3, -2, 1, -2, 1)),
    (4, (-3, -1, 2, -3, -1, 2)),
    (2, (-1, -1, -1, -1, -1)),
    (3, (-2, -2, -2, -2, -1, -1)),
    (3, (-2, -2, -2, -1, -1, -1)),
    (3, (-2, -2, -2, 1, -2, 1)),
    (3, (-2, -2, -2, 1, 1, 1)),
    (3, (-2, -2, -1, -2, -2, -1)),
    (3, (-2, -2, 1, -2, -2, 1)),
    (3, (-2, -2, 1, -2, 1, 1)),
    (3, (-2, 1, -2, 1, -2, 1)),
    (4, (-3, -3, -3, -2, -2, -1, -1)),
    (4, (-3, -3, -3, -2, 1, -2, 1)),
    (4, (-3, -3, -2, -2, 1, -2, 1)),
    (4, (-3, -3, -1, 2, -3, -1, 2)),
    (4, (-3, -1, 2, -3, -1, 2, 2)),
    (4, (-3, -1, 2, -3, 2, -1, 2)),
    (5, (-4, -4, -3, -3, -2, -2, -1, -1)),
    (5, (-4, -4, -3, -3, -2, 1, -2, 1)),
    (5, (-4, -4, -3, -1, 2, -3, -1, 2)),
    (5, (-4, -2, 1, -2, 1, 3, -4, 3)),
    (5, (-4, -2, 1, 3, -4, -2, 1, 3)),
)
# Raw words in the seven classify spaces (degree 0..4, genus 0..1), the
# input size that words_per_s is stated at for classify.
RAW_WORDS = 1 + 2 + 26 + 802 + 45562 + 1 + 26
# Lines of `analyze` / `monodromy` text output that report a cross-check.
VERDICTS = {"analyze": ("routes agree:",),
            "monodromy": ("char poly matches alexander up to unit:",
                          "intersection form preserved:",
                          "twist route equals seifert route:")}
# sha256 of the stdout of `analyze` and `monodromy` on the fixed long words,
# recorded from the package as it stood when the benchmark was defined.
LONG_DIGESTS = {
    "[1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2] on 3": {
        "analyze": "52f08139196ecfe64535b148f82b7db9973cafa6adc90255fc0a4d3a982b9cfc",
        "monodromy": "c1bd3df929476e0d150d597812a91edac8d452f8a99ccc4c18df1c20c5651a1b",
    },
    "[1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2] on 3": {
        "analyze": "8a347aea2c893af1083b60c945f0c13631b80ac263f9f473acbc6af5e5797011",
        "monodromy": "e323ac91fdbe3409b64183b76c6f081b5ee52fd00c1d6a2395c972e0347875b7",
    },
    "[1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2] on 3": {
        "analyze": "49590c3716b040d2ae19f7daf996e38a55ccf64b52560603568e1a8c60c0d278",
        "monodromy": "89c03a331f11839129b6d4d0f8b2e6a1ce635f8c53c77e2726d1f04275801cbe",
    },
    "[1 -2 3 1 -2 3 1 -2 3 1 -2 3 1 -2 3 1] on 4": {
        "analyze": "328211d662d66a52ccc076e569d4e88b8c492354e67c7543f94c5a8cb1d6e169",
        "monodromy": "d291deccd08715e7c52932253cdce7ea1ea4b46de63a95e81db0a861562a66cb",
    },
}


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)
        return ok


def word_text(letters):
    return " ".join(str(x) for x in letters)


def run_cli(hl, tracer, argv):
    """(exit code, stdout, seconds) of homolink.cli.main(argv).

    A command that raises is reported with the exception in place of its
    exit code, so that it counts as a failed check instead of ending the
    pass."""
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = hl.cli.main(argv)
            else:
                rc = tracer.call("cli." + argv[0], hl.cli.main, argv)
        except Exception as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - t


def check_verdicts(tally, command, text, label):
    lines = text.splitlines()
    for prefix in VERDICTS[command]:
        hits = [ln for ln in lines if ln.startswith(prefix)]
        tally.check(len(hits) == 1 and hits[0].endswith(": True"),
                    f"{label}: {prefix} {hits}")


def sweep_pass(hl, words, tally):
    """Every two-route cross-check on every sampled word."""
    seifert, monodromy = hl.seifert, hl.monodromy
    t_an = t_mo = 0.0
    for n, letters in words:
        w = hl.words.BraidWord(n, letters)
        label = f"sweep [{word_text(letters)}] on {n}"
        try:
            t = time.perf_counter()
            V = seifert.seifert_matrix(seifert.build_surface(w))
            skein = hl.skein.conway_skein(w)
            conway = seifert.conway_from_seifert(V)
            alex = seifert.alexander_from_seifert(V)
            burau = hl.burau.alexander_via_burau(w)
            t2 = time.perf_counter()
            twists = monodromy.twist_sequence(w)
            act = monodromy.action_of_word(w)
            form = act.preserves_form()
            solved = monodromy.monodromy_from_seifert(V)
            unit = hl.polynomials.equal_up_to_unit(monodromy.char_poly(act),
                                                   alex)
            t3 = time.perf_counter()
        except Exception as exc:  # a raising engine is a failed word
            tally.check(False, f"{label}: {type(exc).__name__}: {exc}")
            t_an += time.perf_counter() - t
            continue
        t_an += t2 - t
        t_mo += t3 - t2
        tally.check(skein == conway, f"{label}: skein vs seifert conway")
        tally.check(alex == burau, f"{label}: seifert vs burau alexander")
        tally.check(len(twists) == len(letters) - n + 1, f"{label}: twists")
        tally.check(solved.matrix == act.matrix, f"{label}: twist vs V^-1V^T")
        tally.check(unit, f"{label}: char poly vs alexander")
        tally.check(form, f"{label}: form preservation")
    return {"analyze_s": t_an, "monodromy_s": t_mo, "wall_s": t_an + t_mo,
            "words": len(words)}


def follow_up(hl, tracer, tally, n, letters, label, digests=None):
    """`analyze` then `monodromy` on one word; (analyze s, monodromy s).

    digests, when given, maps each command to the sha256 its stdout must
    have."""
    times = []
    for command in ("analyze", "monodromy"):
        argv = [command, word_text(letters), "--strands", str(n)]
        rc, text, dt = run_cli(hl, tracer, argv)
        times.append(dt)
        tag = f"{label} {command}"
        if tally.check(rc == 0, f"{tag}: exit {rc}"):
            check_verdicts(tally, command, text, tag)
        if digests is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            tally.check(digest == digests.get(command),
                        f"{tag}: stdout digest {digest}")
    return times


def classify_pass(hl, tracer, tally):
    """analyze/monodromy on every class representative, then the seven
    enumerate reports.

    The representatives take milliseconds each. On a shared 2-vCPU KVM
    guest (Xeon) the CPU speed was seen to flip between two levels about
    30% apart every second or so; one round would catch one level or the
    other, so the pass reports the mean of REP_ROUNDS rounds, which span
    several flips. skein's memo is cleared before each round, so that
    every round pays for its skein trees, as the first one does."""
    t_an = t_mo = 0.0
    for _ in range(REP_ROUNDS):
        hl.skein._memo.clear()
        for n, letters in CLASS_REPS:
            a, m = follow_up(hl, tracer, tally, n, letters,
                             f"class rep [{word_text(letters)}]")
            t_an += a
            t_mo += m
    wall = 0.0
    for tail, names in CLASSIFY:
        argv = ["enumerate", *tail, "--format", "json"]
        rc, text, dt = run_cli(hl, tracer, argv)
        wall += dt
        tag = " ".join(tail)
        if not tally.check(rc == 0, f"{tag}: exit {rc}"):
            continue
        classes = json.loads(text)["classes"]
        tally.check(len(classes) == len(names), f"{tag}: {len(classes)} classes")
        got = sorted(c["matched"] for c in classes)
        tally.check(got == names, f"{tag}: names {got}")
    return {"wall_s": wall, "analyze_s": t_an / REP_ROUNDS,
            "monodromy_s": t_mo / REP_ROUNDS, "words": RAW_WORDS}


def long_pass(hl, tracer, words, tally):
    t_an = t_mo = 0.0
    for n, letters, fixed in words:
        label = f"[{word_text(letters)}] on {n}"
        a, m = follow_up(hl, tracer, tally, n, letters, label,
                         LONG_DIGESTS.get(label, {}) if fixed else None)
        t_an += a
        t_mo += m
    return {"analyze_s": t_an, "monodromy_s": t_mo, "wall_s": t_an + t_mo,
            "words": len(words)}


def peak_rss_mb():
    """Peak resident set of this process image since exec.

    getrusage's ru_maxrss is not used: Linux carries the parent's peak
    across fork and exec into it, so it would report run.py's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def load_homolink():
    sys.path.insert(0, SRC)
    import homolink
    import homolink.cli
    here = os.path.realpath(homolink.__file__)
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"homolink imported from {here}, not from {SRC}")
    return homolink


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=("sweep", "classify", "long_words"))
    p.add_argument("--t0", type=int, required=True,
                   help="time.monotonic_ns() before run.py built the inputs")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file")
    p.add_argument("--run-id", default="")
    args = p.parse_args()

    hl = load_homolink()
    tracer = None
    if args.trace_file:
        tracer = Tracer(args.run_id)
        tracer.install()
    hl.reference.load_reference_table()
    words = json.load(sys.stdin)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9

    result = {"setup_s": setup_s}
    tally = Tally()
    if not args.setup_only:
        if args.workload == "sweep":
            result.update(sweep_pass(hl, words, tally))
        elif args.workload == "classify":
            result.update(classify_pass(hl, tracer, tally))
        else:
            result.update(long_pass(hl, tracer, words, tally))
        result["memo_entries"] = len(hl.skein._memo)
    result["peak_rss_mb"] = peak_rss_mb()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors)
    if tracer is not None:
        result["counts"] = tracer.counts
        tracer.dump(args.trace_file)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
