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
connected word with n <= 4, m <= 8, and against Burau on mixed-sign words
(scripts/calibrate_conventions.py). Do not edit one constant in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedWordError, InhomogeneousWordError
from .polynomials import (ConwayPolynomial, LaurentPolynomial, alexander_sign,
                          pencil_det, transpose, z_extract)
from .words import (BraidWord, connected, homogeneous_letters, letter_counts,
                    sign_map, split_factors)


@dataclass(frozen=True)
class BraidedSurface:
    """Disks-and-bands surface of a braid word.

    bands follow the letter order of the word; entry (i, j, s) is the j-th
    band (1-based, top to bottom) in column i, with half-twist sign s.
    basis_loops lists the loop ids (i, j), the loop entering column i's
    band j and returning through band j+1.
    """

    word: BraidWord
    disks: int
    bands: tuple
    basis_loops: tuple

    @property
    def band_count(self):
        return len(self.bands)

    @property
    def euler_characteristic(self):
        return self.disks - len(self.bands)


@dataclass(frozen=True)
class SeifertMatrix:
    """Integer Seifert matrix indexed by the surface's basis loops."""

    entries: tuple
    loops: tuple

    @property
    def dimension(self):
        return len(self.entries)

    def intersection_form(self):
        """J = V - V^T, the skew pairing of the basis loops."""
        V = self.entries
        k = len(V)
        return tuple(tuple(V[a][b] - V[b][a] for b in range(k))
                     for a in range(k))


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
    return BraidedSurface(w, w.strands, tuple(bands), loops)


def knot_genus(w: BraidWord) -> int:
    """Genus of a homogeneous knot closure, (1 + m - n) / 2.

    The braided surface of a homogeneous word is a fiber, hence of minimal
    genus. An inhomogeneous word's surface need not be: 8_20 closes
    1 1 1 -2 -1 -1 -1 -2, whose surface has genus 3 while the knot has
    genus 2, so such words are refused.
    """
    from .words import component_count
    if component_count(w) != 1:
        raise ValueError(f"closure of {w} is not a knot")
    if not homogeneous_letters(w.letters):
        raise InhomogeneousWordError(
            f"knot_genus needs a homogeneous word, got {w}")
    return (1 + len(w.letters) - w.strands) // 2


def decompose_murasugi(s: BraidedSurface) -> list:
    """Plumbing summands, one per column: (column, sign, band count).

    Summand i is the fiber of the (2, sign*count) torus link; the whole
    surface is their iterated Murasugi sum along the shared disks.
    """
    w = s.word
    if not homogeneous_letters(w.letters):
        raise InhomogeneousWordError(
            f"decompose_murasugi needs a homogeneous word, got {w}")
    if not connected(w.letters, w.strands):
        raise DisconnectedWordError(
            f"decompose_murasugi needs a connected word, {w} skips a "
            "generator", factors=split_factors(w))
    q = letter_counts(w.letters, w.strands)
    sgn = sign_map(w.letters)
    return [(i, sgn[i], q[i]) for i in range(1, w.strands)]


# Calibrated linking contributions (see module docstring). Each pair is
# (V[a][b], V[b][a]) for the loop pair in the stated configuration.
_SELF = 1                 # times the mean sign of the loop's two bands
_SAME_COL_POS = (0, -1)   # adjacent loops sharing a positive band
_SAME_COL_NEG = (1, 0)    # adjacent loops sharing a negative band
_CROSS_OPEN = (0, 1)      # right loop's first band inside the left loop
_CROSS_CLOSE = (0, -1)    # right loop's second band inside the left loop


def seifert_matrix(s: BraidedSurface) -> SeifertMatrix:
    """Seifert matrix of the surface of any connected word, mixed signs too."""
    w = s.word
    if not connected(w.letters, w.strands):
        raise DisconnectedWordError(
            f"seifert_matrix needs a connected word, {w} skips a generator",
            factors=split_factors(w))
    eps = [sign for _, _, sign in s.bands]
    pos = {(i, j): p for p, (i, j, _) in enumerate(s.bands)}
    # per basis loop: its column and the word positions of its two bands
    spans = [(i, pos[i, j], pos[i, j + 1]) for i, j in s.basis_loops]
    g = len(spans)
    V = [[0] * g for _ in range(g)]
    for a, (ia, p1, p2) in enumerate(spans):
        V[a][a] = _SELF * (eps[p1] + eps[p2]) // 2
        for b, (ib, r1, r2) in enumerate(spans):
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
    return SeifertMatrix(entries, tuple(s.basis_loops))


def _symmetrized_det(V: SeifertMatrix):
    """det(x*V - (1/x)*V^T) as a dict over x-exponents (x = t^(1/2))."""
    E = V.entries
    return pencil_det(((1, E), (-1, [[-v for v in row]
                                     for row in transpose(E)])))


def conway_from_seifert(V: SeifertMatrix) -> ConwayPolynomial:
    sym = _symmetrized_det(V)
    try:
        return ConwayPolynomial.from_dict(z_extract(sym))
    except ArithmeticError as exc:
        raise RuntimeError(
            "symmetrized Seifert determinant is not a polynomial in "
            "x - 1/x; the matrix conventions are broken") from exc


def alexander_from_seifert(V: SeifertMatrix) -> LaurentPolynomial:
    """Alexander polynomial in symmetric normalization, exponents in t^(1/2).

    Sign is fixed so the value at t = 1 is positive when nonzero (knots),
    falling back to a positive leading coefficient (links).
    """
    return LaurentPolynomial.from_dict(alexander_sign(_symmetrized_det(V)),
                                       scale=2)


def surface_conway(w: BraidWord) -> ConwayPolynomial:
    """Conway polynomial through the surface route, one call."""
    return conway_from_seifert(seifert_matrix(build_surface(w)))
