"""Seeded inputs for the benchmark, generated without importing homolink.

run.py builds them and hands the worker only the words, so a change to
homolink's own enumeration cannot change what the benchmark feeds it, and
the worker's memory holds nothing of the population they were drawn from.
"""

import itertools
import random
from collections import Counter

# Homogeneous, connected, non-weak words with n <= 4 and m <= 8: every
# generator 1..n-1 occurs at least twice and always with one sign.
SWEEP_STRANDS = range(2, 5)
SWEEP_MAX_LENGTH = 8
SWEEP_POPULATION = 30998
SWEEP_SAMPLE = 3000

# The dense 3-strand family (1 -2)^r at k = m - 2 = 16, 18, 20, and one
# 4-strand word at the brute-force Jones length cap m = 16.
LONG_FIXED = (
    (3, (1, -2) * 9),
    (3, (1, -2) * 10),
    (3, (1, -2) * 11),
    (4, (1, -2, 3) * 5 + (1,)),
)
# The seed adds one random homogeneous word for each of these (n, m). The
# 4-strand m = 16 shape is left out: its Jones state sum costs ~10 s per
# pass whatever the word, which would crowd out repeated passes.
LONG_SEEDED_SHAPES = ((3, 18), (3, 20), (3, 22))


def nonweak_words(n, m):
    """All homogeneous connected non-weak words with exactly (n, m)."""
    cols = range(1, n)
    signings = list(itertools.product((1, -1), repeat=n - 1))
    for seq in itertools.product(cols, repeat=m):
        counts = Counter(seq)
        if any(counts[c] < 2 for c in cols):
            continue
        for signs in signings:
            yield tuple(c * signs[c - 1] for c in seq)


def sweep_population():
    """{(n, m): [letters, ...]} over the whole sweep space."""
    strata = {}
    for n in SWEEP_STRANDS:
        for m in range(2 * (n - 1), SWEEP_MAX_LENGTH + 1):
            strata[(n, m)] = list(nonweak_words(n, m))
    total = sum(len(v) for v in strata.values())
    if total != SWEEP_POPULATION:
        raise RuntimeError(f"sweep population has {total} words, "
                           f"expected {SWEEP_POPULATION}")
    return strata


def sweep_sample(seed):
    """[(n, letters)], stratified by (n, m) so every seed has the same mix.

    The per-stratum counts depend only on the population, so seeds differ
    in which words are drawn, not in how many of each shape.
    """
    rng = random.Random(seed)
    strata = sweep_population()
    out = []
    for (n, m), words in strata.items():
        share = round(SWEEP_SAMPLE * len(words) / SWEEP_POPULATION)
        k = min(len(words), max(1, share))
        out.extend((n, w) for w in rng.sample(words, k))
    return out


def random_word(rng, n, m):
    """A uniformly drawn column sequence with every column used twice or
    more, each column given one random sign."""
    while True:
        seq = [rng.randrange(1, n) for _ in range(m)]
        counts = Counter(seq)
        if all(counts[c] >= 2 for c in range(1, n)):
            break
    signs = {c: rng.choice((1, -1)) for c in range(1, n)}
    return tuple(c * signs[c] for c in seq)


def long_words(seed):
    """[(n, letters, fixed)] for the long_words workload."""
    rng = random.Random(seed)
    out = [(n, w, True) for n, w in LONG_FIXED]
    out.extend((n, random_word(rng, n, m), False)
               for n, m in LONG_SEEDED_SHAPES)
    return out


def workload_inputs(workload, seed):
    """The words one pass of workload is fed; classify takes none."""
    if workload == "sweep":
        return sweep_sample(seed)
    if workload == "long_words":
        return long_words(seed)
    return []
