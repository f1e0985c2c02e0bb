"""Braided Seifert surfaces and the matrix route to Conway/Alexander.

The closure of a word on n strands bounds the surface made of n disks
joined by one half-twisted band per letter. For any connected word that is
a Seifert surface, a fiber only when the word is homogeneous (Stallings,
1978). Its first homology has the basis of loops running through
consecutive bands of one column, and each band keeps its own sign, so a
loop through bands of opposite sign has self-linking 0. The Seifert matrix
of that basis gives the Conway polynomial as a symmetrized determinant,
independently of the skein recursion and of Burau.

Sign conventions (push-off side, twist handedness) are not forced by the
combinatorics. The constants below were calibrated so the determinant
agrees with the skein route on sigma_1^2 and sigma_1^3, then the whole
rule set was validated against the skein route on every homogeneous
connected word with n <= 4, m <= 8, and against Burau on mixed-sign words.
tests/test_seifert.py re-runs that scan over all 512 candidate
assignments at n <= 3, m <= 5 and pins the eight that survive, the
shipped one among them. Do not edit one constant in isolation.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .polynomials import (ConwayPolynomial, LaurentPolynomial, alexander_sign,
                          pencil_det, transpose, z_extract)
from .record import Record, set_field
from .words import BraidWord, letter_counts, require_connected


class BraidedSurface(Record):
    """Disks-and-bands surface of a braid word.

    bands follow the letter order of the word; entry (i, j, s) is the j-th
    band (1-based, top to bottom) in column i, with half-twist sign s.
    basis_loops lists the loop ids (i, j), the loop entering column i's
    band j and returning through band j+1.
    """

    __slots__ = ("word", "bands", "basis_loops")

    def __init__(self, word: BraidWord, bands: tuple, basis_loops: tuple):
        set_field(self, "word", word)
        set_field(self, "bands", bands)
        set_field(self, "basis_loops", basis_loops)

    def _key(self):
        return (self.word, self.bands, self.basis_loops)


class SeifertMatrix(Record):
    """Integer Seifert matrix indexed by the surface's basis loops.

    band_order lists the loop indices by the word position of each loop's
    first band. Only symmetrized_det reads it, so it is left out of
    equality and the hash. The instance __dict__ holds the two cached
    values.
    """

    __slots__ = ("entries", "loops", "band_order", "__dict__")

    def __init__(self, entries: tuple, loops: tuple, band_order: tuple):
        set_field(self, "entries", entries)
        set_field(self, "loops", loops)
        set_field(self, "band_order", band_order)

    def _key(self):
        return (self.entries, self.loops)

    @property
    def dimension(self):
        return len(self.entries)

    @cached_property
    def intersection_form(self):
        """J = V - V^T, the skew pairing of the basis loops; computed once,
        for both the twist route and the Seifert route."""
        V = self.entries
        return tuple(tuple(map(operator.sub, row, col))
                     for row, col in zip(V, transpose(V)))

    @cached_property
    def symmetrized_det(self) -> LaurentPolynomial:
        """det(x*V - (1/x)*V^T), x = t^(1/2), so exponents at scale 2;
        computed once, for both the Conway and the Alexander value.

        It is x^-k det(tV - V^T): the pencil is listed at t, like
        `char_poly`'s, and t^e is read back as x^(2e - k). It is eliminated
        in band_order, a simultaneous permutation of rows and columns that
        leaves the determinant unchanged. Only loops whose spans meet link,
        so in that order V is banded (width 2 on (1 -2)^r, where the basis
        order has width about k/2) and the elimination updates only the
        rows of the band.
        """
        k = self.dimension
        pos = {a: i for i, a in enumerate(self.band_order)}
        # V[a][b] = v is v*t at (a, b) and -v at (b, a)
        entries = []
        for a, row in enumerate(self.entries):
            for b, v in enumerate(row):
                if v:
                    entries.append((pos[a], pos[b], v, 1))
                    entries.append((pos[b], pos[a], -v, 0))
        return LaurentPolynomial.from_dict(
            {2 * e - k: c for e, c in pencil_det(k, entries, 0).items()},
            scale=2)


def build_surface(w: BraidWord) -> BraidedSurface:
    slot = [0] * w.strands
    bands = []
    for x in w.letters:
        i = abs(x)
        slot[i] += 1
        bands.append((i, slot[i], 1 if x > 0 else -1))
    q = letter_counts(w.letters, w.strands)
    loops = tuple((i, j) for i in range(1, w.strands)
                  for j in range(1, q[i]))
    return BraidedSurface(w, tuple(bands), loops)


# Calibrated linking contributions (see module docstring). Each pair is
# (V[a][b], V[b][a]) for the loop pair in the stated configuration.
_SELF = 1                 # times the mean sign of the loop's two bands
_SAME_COL_POS = (0, -1)   # adjacent loops sharing a positive band
_SAME_COL_NEG = (1, 0)    # adjacent loops sharing a negative band
_CROSS_OPEN = (0, 1)      # right loop's first band inside the left loop
_CROSS_CLOSE = (0, -1)    # right loop's second band inside the left loop


def seifert_matrix(s: BraidedSurface) -> SeifertMatrix:
    """Seifert matrix of the surface of any connected word, mixed signs too."""
    require_connected(s.word, "seifert_matrix")
    eps = [sign for _, _, sign in s.bands]
    pos = {(i, j): p for p, (i, j, _) in enumerate(s.bands)}
    # per basis loop: its column and the word positions of its two bands
    spans = [(i, pos[i, j], pos[i, j + 1]) for i, j in s.basis_loops]
    g = len(spans)
    by_column = {}
    for a, span in enumerate(spans):
        by_column.setdefault(span[0], []).append((a, span))
    V = [[0] * g for _ in range(g)]
    for a, (ia, p1, p2) in enumerate(spans):
        V[a][a] = _SELF * (eps[p1] + eps[p2]) // 2
        # only loops of the same column and of the next one can link
        for b, (ib, r1, r2) in by_column[ia] + by_column.get(ia + 1, []):
            if ib == ia and r1 == p2:
                # same column: only loops sharing a band link, and they
                # share exactly when b starts at a's second band
                pr = _SAME_COL_POS if eps[p2] > 0 else _SAME_COL_NEG
            elif ib == ia + 1 and (p1 < r1 < p2) != (p1 < r2 < p2):
                # neighbouring columns share a disk; linking happens iff
                # exactly one endpoint of b sits between a's bands
                pr = _CROSS_OPEN if p1 < r1 < p2 else _CROSS_CLOSE
            else:
                continue
            V[a][b] += pr[0]
            V[b][a] += pr[1]
    entries = tuple(tuple(row) for row in V)
    order = tuple(sorted(range(g), key=lambda a: spans[a][1]))
    return SeifertMatrix(entries, tuple(s.basis_loops), order)


def conway_from_seifert(V: SeifertMatrix) -> ConwayPolynomial:
    try:
        return ConwayPolynomial.from_dict(
            z_extract(V.symmetrized_det.as_dict()))
    except ArithmeticError as exc:
        raise RuntimeError(
            "symmetrized Seifert determinant is not a polynomial in "
            "x - 1/x; the matrix conventions are broken") from exc


def alexander_from_seifert(V: SeifertMatrix) -> LaurentPolynomial:
    """Alexander polynomial in symmetric normalization, exponents in t^(1/2).

    Sign is fixed so the value at t = 1 is positive when nonzero (knots),
    falling back to a positive leading coefficient (links).
    """
    return LaurentPolynomial.from_dict(
        alexander_sign(V.symmetrized_det.as_dict()), scale=2)
