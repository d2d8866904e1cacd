"""Exact linear-algebra oracle: Kirillov forms, ranks, principal elements.

The index of a Lie algebra is the minimum over linear functionals f of
the kernel dimension of the skew form f([x, y]).  Every rank is computed
by one kernel, exact elimination over F_p with p = 2**61 - 1 and no
floating point.  Rational entries reach F_p by one path: each row of a
matrix with a ``Fraction`` entry is scaled to integers, then reduced.
The rank mod p never exceeds the rank over the rationals, so a sampled
kernel dimension is an upper bound on the index, exact for generic
functionals: a random functional fails with probability of order m/p
per trial (Schwartz-Zippel).  A skew form has even rank, over the
rationals and over F_p alike, so no kernel is below m mod 2; the trials
stop as soon as one reaches that floor.

Principal elements are solved over F_p by the same elimination, so they
are the reductions mod p of the rational ones.  Their adjoint spectra
(the obstruction test for embedding a Frobenius algebra as a seaweed)
are integer eigenvalue multiplicities read as kernel dimensions of
shifted matrices over F_p, never the output of a numerical eigensolver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Sequence

from .matrices import LieData

FUNCTIONAL_BOUND = 10**6
# The prime of the rank kernel: 2**61 - 1 (a Mersenne prime).
P = (1 << 61) - 1
DEFAULT_TRIALS = 5


class NotFrobeniusFunctionalError(ValueError):
    """The supplied functional's Kirillov form is degenerate."""


class NotFrobeniusError(ValueError):
    """No sampled functional was nondegenerate; the algebra has index > 0."""


class PrincipalElementError(ArithmeticError):
    """The solved principal element does not satisfy f([F, x]) = f(x)."""


class SpectrumOvercountError(ArithmeticError):
    """Eigenvalue multiplicities summed past the dimension.

    Each multiplicity is a kernel dimension mod p, an upper bound; a sum
    beyond m means at least one of them was not exact.
    """


@dataclass(frozen=True)
class SpectrumReport:
    """Integer eigenvalue multiplicities of ad applied to a principal element.

    ``integral`` records whether the multiplicities account for the whole
    dimension; when they do not, ``defect`` is the number of missing
    eigenvalues (non-integer or non-semisimple spectrum).
    """

    eigenvalues: dict[int, int]
    integral: bool
    unbroken: bool
    symmetric_about_half: bool
    defect: int


def kirillov_matrix(lie: LieData, f: Sequence[int | Fraction]) -> list[list[int | Fraction]]:
    """Matrix of the form (x, y) -> f([x, y]) on the basis; skew by construction."""
    m = lie.dimension
    if len(f) != m:
        raise ValueError(f"functional has length {len(f)}, expected {m}")
    matrix = [[0] * m for _ in range(m)]
    for (i, j), coeffs in lie.brackets.items():
        value = sum(f[k] * c for k, c in coeffs.items())
        matrix[i][j] = value
        matrix[j][i] = -value
    return matrix


def rank_exact(matrix: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over F_p, p = 2**61 - 1, by sparse Gaussian elimination.

    Reduction mod p is a ring map from the p-integral rationals, so the
    result never exceeds the rank r over the rationals, and equals it
    unless p divides every nonzero r x r minor.  There is no floating
    point and no rounding.
    """
    return len(_eliminate(_rows_mod_p(matrix)))


def _eliminate(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Eliminate ``{column: value}`` rows mod p; the (column, row) pivots in order.

    Each step takes the sparsest remaining row as the pivot row and its
    first stored column as the pivot column, and clears that column from
    every other remaining row.  A pivot row is not touched again, so it
    is zero in the columns of the pivots taken before it.
    """
    pivots = []
    while rows:
        pivot = min(rows, key=len)
        col = next(iter(pivot))
        pivots.append((col, pivot))
        factor = None  # -1 / pivot[col], inverted only once a row needs it
        kept = []
        for row in rows:
            if row is pivot:
                continue
            v = row.get(col)
            if v is not None:
                if factor is None:
                    factor = P - pow(pivot[col], -1, P)
                v = v * factor % P
                get = row.get
                # Adds v * pivot to the row; the pivot column becomes zero.
                for c, w in pivot.items():
                    x = (get(c, 0) + v * w) % P
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                if not row:
                    continue
            kept.append(row)
        rows = kept
    return pivots


def _rows_mod_p(matrix: Sequence[Sequence[int | Fraction]]) -> list[dict[int, int]]:
    """The nonzero rows of the matrix mod p, as ``{column: value}`` dicts.

    A matrix with any non-``int`` entry has every row scaled to integers
    first.  Scaling a row by an integer L changes no rank over the
    rationals, and mod p it multiplies the row by a unit unless p | L.
    """
    if not set(map(type, chain.from_iterable(matrix))) <= {int}:
        matrix = [_integer_row(r) for r in matrix]
    rows = [{c: v % P for c, v in enumerate(r) if v % P} for r in matrix]
    return [row for row in rows if row]


def _integer_row(row: Sequence[int | Fraction]) -> list[int]:
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def kernel_dimension(matrix: Sequence[Sequence[int | Fraction]]) -> int:
    if not matrix:
        return 0
    return len(matrix[0]) - rank_exact(matrix)


def random_functional(rng: random.Random, dimension: int) -> list[int]:
    return [rng.randint(-FUNCTIONAL_BOUND, FUNCTIONAL_BOUND) for _ in range(dimension)]


def _sampled_kernels(lie: LieData, trials: int, seed: int):
    """Seeded trial functionals with their Kirillov kernel dimensions, drawn lazily."""
    if trials < 1:  # raised at the call, before any draw
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    functionals = (random_functional(rng, lie.dimension) for _ in range(trials))
    return ((f, kernel_dimension(kirillov_matrix(lie, f))) for f in functionals)


def index_oracle(lie: LieData, trials: int = DEFAULT_TRIALS, seed: int = 0) -> int:
    """Min kernel dimension of the Kirillov form over seeded random functionals.

    Each kernel dimension is computed over F_p (see rank_exact), so the
    result is an upper bound for the index that is exact for generic
    functionals; with coordinates up to 1e6, p = 2**61 - 1 and the min
    over several trials, a non-generic result is vanishingly unlikely.
    The trials stop once the kernel reaches m mod 2: a skew-symmetric
    matrix has even rank, so no kernel is smaller.  Deterministic for a
    given (trials, seed), and the same minimum as running every trial.
    """
    samples = _sampled_kernels(lie, trials, seed)
    if lie.dimension == 0:
        return 0
    best = lie.dimension
    floor = lie.dimension % 2
    for _, kernel in samples:
        best = min(best, kernel)
        if best == floor:
            break
    return best


def principal_element(lie: LieData, f: Sequence[int | Fraction]) -> list[int]:
    """Solve f([F, x_j]) = f(x_j) for F over F_p; its coordinates mod p.

    F = sum c_i x_i with sum_i c_i B[i][j] = f_j (B the Kirillov matrix).
    B is skew, so that is B c + f = 0, and (c, 1) spans the kernel of
    [B | f], read back from the pivots of the rank kernel's elimination.
    The Kirillov form must be nondegenerate mod p
    (NotFrobeniusFunctionalError otherwise); then F is the reduction mod p
    of the rational principal element.  A residual row B c + f that does
    not vanish mod p raises PrincipalElementError.
    """
    m = lie.dimension
    matrix = kirillov_matrix(lie, f)
    pivots = _eliminate(_rows_mod_p([row + [fj] for row, fj in zip(matrix, f)]))
    free = set(range(m + 1)).difference(col for col, _ in pivots)
    # Free columns are set to 1 and the pivot columns solved back up.
    x = dict.fromkeys(free, 1)
    for col, row in reversed(pivots):
        x[col] = -sum(v * x[c] for c, v in row.items() if c != col) * pow(row[col], -1, P) % P
    if len(free) > 1 or not x[m]:
        raise NotFrobeniusFunctionalError("Kirillov form is degenerate for this functional")
    scale = pow(x[m], -1, P)
    solution = [x[i] * scale % P for i in range(m)]
    residual = [sum(map(mul, row, solution)) + fj for row, fj in zip(matrix, f)]
    missed = _rows_mod_p([residual])
    if missed:
        j = min(missed[0])
        raise PrincipalElementError(f"principal element misses f([F, x_{j}]) = f(x_{j}) mod p")
    return solution


def ad_matrix(lie: LieData, element: Sequence[int | Fraction]) -> list[list[int | Fraction]]:
    """Matrix of x -> [element, x] on the basis (columns indexed by x_j).

    Given F mod p, the entries are ad(F) over F_p up to multiples of p.
    """
    m = lie.dimension
    out = [[0] * m for _ in range(m)]
    for (i, j), coeffs in lie.brackets.items():
        for k, c in coeffs.items():
            out[k][j] += element[i] * c
            out[k][i] -= element[j] * c
    return out


def _spectrum_scan_order(lo: int, hi: int) -> list[int]:
    # Closest to one-half first: 0, 1, -1, 2, -2, ...
    return sorted(range(lo, hi + 1), key=lambda k: (abs(2 * k - 1), k))


def ad_spectrum(lie: LieData, trials: int = DEFAULT_TRIALS, seed: int = 0) -> SpectrumReport:
    """Integer spectrum of ad(principal element) by exact kernel sweeps.

    The first functional of ``index_oracle``'s seeded trials with a
    nondegenerate Kirillov form is used; if none of the ``trials``
    samples works the algebra is not Frobenius (for these samples) and
    NotFrobeniusError is raised.

    For each integer k in [-m, m+1] the geometric multiplicity is the
    kernel dimension of ad(F) - k*I; the scan stops once the
    multiplicities account for the whole dimension.  A defect
    is reported, not raised: it signals eigenvalues outside the integers
    (the obstruction to realizing the algebra as a seaweed) or a
    non-semisimple ad(F).  Multiplicities summing past m cannot be exact
    and raise SpectrumOvercountError.
    """
    samples = _sampled_kernels(lie, trials, seed)
    m = lie.dimension
    if m == 0:
        return SpectrumReport({}, True, True, True, 0)
    f = next((f for f, kernel in samples if kernel == 0), None)
    if f is None:
        raise NotFrobeniusError(f"no nondegenerate functional found in {trials} trials")

    principal = principal_element(lie, f)
    ad = ad_matrix(lie, principal)
    eigenvalues: dict[int, int] = {}
    total = 0
    for k in _spectrum_scan_order(-m, m + 1):
        shifted = [row[:] for row in ad]
        for i in range(m):
            shifted[i][i] -= k
        mult = kernel_dimension(shifted)
        if mult:
            eigenvalues[k] = mult
            total += mult
            if total > m:
                raise SpectrumOvercountError(
                    f"eigenvalue multiplicities {eigenvalues} sum to {total} > dimension {m}"
                )
            if total == m:
                break

    support = sorted(eigenvalues)
    integral = total == m
    unbroken = bool(support) and support == list(range(support[0], support[-1] + 1))
    symmetric = all(
        eigenvalues.get(k, 0) == eigenvalues.get(1 - k, 0)
        for k in set(support) | {1 - k for k in support}
    )
    return SpectrumReport(
        eigenvalues=dict(sorted(eigenvalues.items())),
        integral=integral,
        unbroken=unbroken,
        symmetric_about_half=symmetric,
        defect=m - total,
    )
