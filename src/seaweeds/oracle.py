"""Exact linear-algebra oracle: Kirillov forms, ranks, principal elements.

The index of a Lie algebra is the minimum over linear functionals f of
the kernel dimension of the skew form f([x, y]).  One kernel computes
every such dimension: the form is built as sparse skew rows from the
pairs the bracket table lists, reduced mod p = 2**61 - 1 and ranked by
symplectic elimination, two ranks per pivot pair.  There is no floating
point.  The rank mod p never exceeds the rank over the rationals, so a
sampled kernel dimension is an upper bound on the index, exact for
generic functionals.  Trial functionals are drawn uniformly from F_p,
so one is degenerate with probability at most (m/2)/p (Schwartz-Zippel
on a nonzero Pfaffian of degree at most m/2), and a form whose scale p
divides gives only the bound.  A skew form has even rank, over the
rationals and over F_p alike, so no kernel is below m mod 2; the trials
stop as soon as one reaches that floor, or once two trials have read
the current minimum.  So, with two trials or more, a result above the
index needs two degenerate draws: probability at most ((m/2)/p)**2.

Every matrix reaches F_p through one reduction, ``_mod_p``: sparse rows
scaled by the lcm of their denominators, then reduced mod p.  The form
has one scale (1 for a seaweed): each value above the diagonal is
reduced once and its mirror written as p - v, so it stays skew; the
principal element's system [B | f] has one, with f as column m; so has
ad(F); and ``rank_exact`` scales each row of any matrix on its own.
Principal elements are solved by sparse Gaussian elimination, so they
are the reductions mod p of the rational ones.  Their adjoint spectra
(the obstruction test for embedding a Frobenius algebra as a seaweed)
are integer eigenvalue multiplicities read as kernel dimensions over F_p
of ad(F) - k; never the output of a numerical eigensolver.  The dense
``kirillov_matrix`` and ``ad_matrix`` are views of the same rows.

Every seaweed of type A, B, C or D first tries its meander: the meander
functional (ones on the arc cells, plus cells at the tail: (v, 2n+1-v)
in type C, the tail vertices in pairs in types B and D, and (v, n+1)
for a last unpaired v in type B) has a diagonal principal element,
found by one walk along the meander, and each basis element is an
eigenvector of its ad.  The walk's spectrum is returned only under a
certificate: every eigenvalue an integer, eigenvalue 1 on the support
of f (so the diagonal is a principal element of f), and a zero
Kirillov kernel of f mod p (so f is Frobenius over the rationals and
the principal element is unique).
Otherwise, and for abstract tables, the scans run."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .matrices import LieData, matrix_dim
from .meander import components, meander_of_valid
from .specs import AlgebraType, SeaweedSpec

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
    out = [[0] * m for _ in range(m)]
    for i, row in _kirillov_upper(lie, f).items():
        for j, v in row.items():
            out[i][j], out[j][i] = v, -v
    return out


def _kirillov_upper(lie: LieData, f: Sequence[int | Fraction]) -> dict[int, dict[int, int | Fraction]]:
    """The nonzero f([x_i, x_j]), i < j, as rows ``{i: {j: value}}``, read only off ``lie.brackets``."""
    if len(f) != lie.dimension:
        raise ValueError(f"functional has length {len(f)}, expected {lie.dimension}")
    rows: dict[int, dict[int, int | Fraction]] = {}
    coordinate = f.__getitem__
    for (i, j), coeffs in lie.brackets.items():
        value = sum(map(mul, map(coordinate, coeffs), coeffs.values()))
        if value:
            rows.setdefault(i, {})[j] = value
    return rows


def _skew_mod_p(rows: dict[int, dict[int, int | Fraction]], m: int) -> dict[int, dict[int, int]]:
    """Reduce the upper rows of a skew form mod p and add their mirrors, in place; the rows.

    Each entry (i, j) is reduced once, by ``_mod_p`` at one scale, and
    its mirror at (j, i) written as p - v.  Entries in column m (the
    principal element's f) reduce at the same scale and are not mirrored.
    """
    _mod_p(rows)
    lower: dict[int, dict[int, int]] = {}
    for i, row in rows.items():
        for j, v in row.items():
            if j < m:
                lower.setdefault(j, {})[i] = P - v
    for j, row in lower.items():
        rows.setdefault(j, {}).update(row)
    return rows


def _dense(rows: dict[int, dict[int, int | Fraction]], m: int) -> list[list[int | Fraction]]:
    out = [[0] * m for _ in range(m)]
    for r, row in rows.items():
        for c, v in row.items():
            out[r][c] = v
    return out


def _mod_p(rows: dict[int, dict[int, int | Fraction]]) -> int:
    """Scale ``rows`` by the lcm of their denominators and reduce them mod p, in place; the scale.

    One scale keeps a skew matrix skew and a system's solutions; mod p
    it is a unit unless p divides it.  Entries and rows that vanish mod
    p are deleted.
    """
    scale = 1
    for row in rows.values():
        for v in row.values():
            if type(v) is not int:
                scale = lcm(scale, v.denominator)
    for r, row in list(rows.items()):
        for c, v in row.items():
            row[c] = (v * scale).numerator % P  # no key is added or removed while iterating
        if not all(row.values()):
            for c in [c for c, v in row.items() if not v]:
                del row[c]
        if not row:
            del rows[r]
    return scale


def _kirillov_kernel(lie: LieData, f: Sequence[int | Fraction]) -> int:
    """Kernel dimension mod p of the Kirillov form of f, built sparse and ranked skew.

    It equals ``kernel_dimension(kirillov_matrix(lie, f))`` unless p
    divides the form's scale, and bounds the rational kernel in any case.
    """
    return lie.dimension - _skew_rank(_skew_mod_p(_kirillov_upper(lie, f), lie.dimension))


def _skew_rank(rows: dict[int, dict[int, int]]) -> int:
    """Rank over F_p of a skew matrix given by its nonzero rows; consumes ``rows``.

    Symplectic elimination: the sparsest row i is the pivot row and its
    partner j is the sparsest row among i's columns, b = B[i][j].  By
    skewness the rows to update are exactly the columns of rows i and j;
    each becomes row_r - (B[r][j] / b) row_i + (B[r][i] / b) row_j, which
    clears columns i and j and keeps the rest skew.  Rows i and j then
    drop out with rank 2, for one modular inverse.
    """
    rank = 0
    while rows:
        i = min(rows, key=lambda r: len(rows[r]))
        row_i = rows.pop(i)
        j = min(row_i, key=lambda c: len(rows[c]))
        row_j = rows.pop(j)
        inverse = pow(row_i.pop(j), -1, P)
        del row_j[i]
        rank += 2
        for r in row_i.keys() | row_j.keys():
            row = rows[r]
            entry = row.pop(j, 0)
            if entry:
                _add_multiple(row, row_i, -entry * inverse % P)
            entry = row.pop(i, 0)
            if entry:
                _add_multiple(row, row_j, entry * inverse % P)
            if not row:
                del rows[r]
    return rank


def _add_multiple(row: dict[int, int], pivot: dict[int, int], factor: int) -> None:
    """row += factor * pivot mod p, in place; entries that cancel are deleted."""
    get = row.get
    for c, w in pivot.items():
        x = (get(c, 0) + factor * w) % P
        if x:
            row[c] = x
        else:
            del row[c]  # a sum can only cancel where the row had an entry


def rank_exact(matrix: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over F_p, p = 2**61 - 1, by sparse Gaussian elimination.

    Reduction mod p is a ring map from the p-integral rationals, so the
    result never exceeds the rank r over the rationals, and equals it
    unless p divides every nonzero r x r minor.  Each row is scaled to
    integers on its own first.  There is no floating point and no
    rounding.
    """
    singles = [{0: dict(enumerate(row))} for row in matrix]
    for single in singles:
        _mod_p(single)  # each row at its own scale
    return len(_eliminate([row for single in singles for row in single.values()]))


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
                # The pivot column of the row becomes zero.
                _add_multiple(row, pivot, v * factor % P)
                if not row:
                    continue
            kept.append(row)
        rows = kept
    return pivots


def kernel_dimension(matrix: Sequence[Sequence[int | Fraction]]) -> int:
    if not matrix:
        return 0
    return len(matrix[0]) - rank_exact(matrix)


def random_functional(rng: random.Random, dimension: int) -> list[int]:
    """A functional with coordinates drawn uniformly from F_p, as integers in [0, p).

    A degenerate draw is a zero of a nonzero Pfaffian of degree at most
    m/2, so by Schwartz-Zippel it has probability at most (m/2)/p.
    """
    return [rng.randrange(P) for _ in range(dimension)]


def _trial_functionals(lie: LieData, trials: int, seed: int):
    """At most ``trials`` seeded random functionals, drawn lazily."""
    if trials < 1:  # raised at the call, before any draw
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    return (random_functional(rng, lie.dimension) for _ in range(trials))


def index_oracle(lie: LieData, trials: int = DEFAULT_TRIALS, seed: int = 0) -> int:
    """Min kernel dimension of the Kirillov form over seeded random functionals.

    Each kernel dimension is computed over F_p by the skew elimination of
    the sparse form (see _kirillov_kernel), so the result is an upper
    bound for the index that is exact for generic functionals.  At most
    ``trials`` functionals are drawn, uniformly from F_p.  The trials
    stop once the kernel reaches m mod 2, a proof (a skew-symmetric
    matrix has even rank, so no kernel is smaller), or once two trials
    have read the current minimum.  The result exceeds the index only if
    every trial run is degenerate, and unless the floor stops them at
    least two run, so with trials >= 2 that has probability at most
    ((m/2)/p)**2.  Deterministic for a given (trials, seed).
    """
    functionals = _trial_functionals(lie, trials, seed)
    if lie.dimension == 0:
        return 0
    best = lie.dimension + 1  # above every kernel, so the first trial agrees with nothing
    floor = lie.dimension % 2
    for f in functionals:
        kernel = _kirillov_kernel(lie, f)
        if kernel == best or kernel == floor:
            return kernel
        best = min(best, kernel)
    return best


def principal_element(lie: LieData, f: Sequence[int | Fraction]) -> list[int]:
    """Solve f([F, x_j]) = f(x_j) for F over F_p; its coordinates mod p.

    F = sum c_i x_i with sum_i c_i B[i][j] = f_j (B the Kirillov matrix).
    B is skew, so that is B c + f = 0, and (c, 1) spans the kernel of
    [B | f], read back from the pivots of the rank kernel's elimination
    on the sparse rows of the form, with f as column m, so that one scale
    covers the denominators of both.  The Kirillov
    form must be nondegenerate mod p (NotFrobeniusFunctionalError
    otherwise); then F is the reduction mod p of the rational principal
    element.  A residual row B c + f that does not vanish mod p raises
    PrincipalElementError.
    """
    m = lie.dimension
    rows = _kirillov_upper(lie, f)
    for r, fr in enumerate(f):
        if fr:
            rows.setdefault(r, {})[m] = fr
    _skew_mod_p(rows, m)
    pivots = _eliminate([dict(row) for row in rows.values()])  # copies: the residual reads rows
    free = set(range(m + 1)).difference(col for col, _ in pivots)
    # Free columns are set to 1 and the pivot columns solved back up.
    x = dict.fromkeys(free, 1)
    for col, row in reversed(pivots):
        x[col] = -sum(v * x[c] for c, v in row.items() if c != col) * pow(row[col], -1, P) % P
    if len(free) > 1 or not x[m]:
        raise NotFrobeniusFunctionalError("Kirillov form is degenerate for this functional")
    unit = pow(x[m], -1, P)
    solution = [x[i] * unit % P for i in range(m)] + [1]
    # Row j of [B | f] at (F, 1) is the residual f(x_j) - f([F, x_j]).
    for j, row in rows.items():
        if sum(v * solution[c] for c, v in row.items()) % P:
            raise PrincipalElementError(f"principal element misses f([F, x_{j}]) = f(x_{j}) mod p")
    return solution[:m]


def ad_matrix(lie: LieData, element: Sequence[int | Fraction]) -> list[list[int | Fraction]]:
    """Matrix of x -> [element, x] on the basis (columns indexed by x_j).

    Given F mod p, the entries are ad(F) over F_p up to multiples of p.
    """
    return _dense(_ad_rows(lie, element), lie.dimension)


def _ad_rows(lie: LieData, element: Sequence[int | Fraction]) -> dict[int, dict[int, int | Fraction]]:
    """The rows of ad(element) as ``{row: {col: value}}``, read off ``lie.brackets``.

    Each (i, j) -> {k: c} adds element_i c at (k, j) and subtracts
    element_j c at (k, i).  Entries that cancel are kept as zeros.
    """
    rows: dict[int, dict[int, int | Fraction]] = {}
    for (i, j), coeffs in lie.brackets.items():
        for k, c in coeffs.items():
            row = rows.setdefault(k, {})
            row[j] = row.get(j, 0) + element[i] * c
            row[i] = row.get(i, 0) - element[j] * c
    return rows


def _shifted_kernel(rows: dict[int, dict[int, int]], m: int, shift: int) -> int:
    """Kernel dimension over F_p of the m x m matrix ``rows`` minus shift * I.

    ``rows`` holds the nonzero entries mod p and is not modified.
    """
    shifted = []
    for r in range(m):
        row = dict(rows.get(r, {}))
        x = (row.get(r, 0) - shift) % P
        if x:
            row[r] = x
        else:
            row.pop(r, None)
        if row:
            shifted.append(row)
    return m - len(_eliminate(shifted))


def _spectrum_scan_order(lo: int, hi: int) -> list[int]:
    # Closest to one-half first: 0, 1, -1, 2, -2, ...
    return sorted(range(lo, hi + 1), key=lambda k: (abs(2 * k - 1), k))


def ad_spectrum(lie: LieData, trials: int = DEFAULT_TRIALS, seed: int = 0) -> SpectrumReport:
    """Integer spectrum of ad(principal element), read off the meander or by kernel scans.

    A seaweed of type A, B, C or D (``lie.spec`` set by ``seaweed_basis``)
    first tries the meander functional f: ones on the arc cells, plus
    cells at the tail (``_meander_walk``): (v, 2n+1-v) in type C, and in
    types B and D the tail vertices in pairs (v, w), each giving the
    roots e_v - e_w and e_v + e_w.  One walk along the meander gives a
    diagonal F, and each basis element's eigenvalue is H_a - H_b at its
    cells (a, b).  That spectrum is returned only when all of these hold:
    every eigenvalue is an integer; every element of the support of f
    has eigenvalue 1, so f([F, x]) = f(x) for all x; and the Kirillov
    kernel of f is 0 mod p, so f is Frobenius over the rationals and F
    its only principal element (``_meander_spectrum``).  The spectrum of
    a Frobenius algebra's principal element does not depend on the
    Frobenius functional, so the scans below would report the same.

    Otherwise (structure-constant tables, or a failed certificate)
    ``principal_element`` is tried on ``index_oracle``'s seeded trial
    functionals in order, and the first that solves is used: it raises
    exactly when the Kirillov kernel mod p is nonzero, so no kernel is
    ranked beforehand.  If none of the ``trials`` samples solves, the
    algebra is not Frobenius (for these samples) and NotFrobeniusError
    is raised; a Frobenius algebra gives that error with probability at
    most ((m/2)/p)**trials.

    For each integer k in [-m, m+1] the geometric multiplicity is the
    kernel dimension of ad(F) - k*I; the scan stops once the
    multiplicities account for the whole dimension.  A defect
    is reported, not raised: it signals eigenvalues outside the integers
    (the obstruction to realizing the algebra as a seaweed) or a
    non-semisimple ad(F).  Multiplicities summing past m cannot be exact
    and raise SpectrumOvercountError.
    """
    functionals = _trial_functionals(lie, trials, seed)
    m = lie.dimension
    if m == 0:
        return SpectrumReport({}, True, True, True, 0)
    eigenvalues = _meander_spectrum(lie)
    if eigenvalues is None:
        for f in functionals:
            try:
                principal = principal_element(lie, f)
            except NotFrobeniusFunctionalError:
                continue
            break
        else:
            raise NotFrobeniusError(f"no nondegenerate functional found in {trials} trials")
        eigenvalues = _scanned_spectrum(lie, principal)
    return _spectrum_report(eigenvalues, m)


def _meander_spectrum(lie: LieData) -> dict[int, int] | None:
    """Eigenvalue multiplicities of a type-A, B, C or D seaweed off its meander; None unless certified.

    ``_meander_walk`` gives the support of the meander functional f and
    the diagonal H of F.  A basis element all of whose cells (a, b) read
    one H_a - H_b is an eigenvector of ad(F) with that eigenvalue; every
    element must be one, with an integer eigenvalue, and eigenvalue 1 on
    the support, before the Kirillov kernel of f is computed (the
    certificate of ``ad_spectrum``).  GL is never Frobenius and has no
    walk.  The result never rests on the walk being right.
    """
    spec = lie.spec
    if spec is None or lie.basis is None or spec.algebra is AlgebraType.GL:
        return None
    support, diagonal = _meander_walk(spec)
    doubled = []
    lead = {}
    for k, x in enumerate(lie.basis):
        values = {diagonal[a] - diagonal[b] for a, b in x.entries}
        if len(values) != 1:
            return None
        value = values.pop()
        if value % 2:
            return None
        doubled.append(value)
        lead[min(x.entries)] = k
    f = [0] * lie.dimension
    for cell in support:
        k = lead.get(cell)
        if k is None or doubled[k] != 2:
            return None
        f[k] = 1
    if _kirillov_kernel(lie, f):
        return None
    return Counter(value // 2 for value in doubled)


def _meander_walk(spec: SeaweedSpec) -> tuple[list[tuple[int, int]], list[int]]:
    """The support cells of the meander functional and the doubled diagonal 2H, 1-based.

    f is 1 on the element whose lead cell is an arc cell, (j, i) for a
    top arc i < j and (i, j) for a bottom arc, and on tail cells, with
    N = ``matrix_dim(spec)``.  In type C each tail vertex v adds
    (v, N+1-v) and anchors 2h_v = 1.  In types B and D the tail vertices,
    in increasing order, go in consecutive pairs (v, w): each pair adds
    (v, w) (root e_v - e_w) and (v, N+1-w) (root e_v + e_w) and anchors
    2h_v = 2 and 2h_w = 0, so both roots read 1.  In type B a last
    unpaired vertex v adds (v, n+1) (root e_v) and anchors 2h_v = 2; a
    type-D tail has even length (``meander.tail``).  Along the vertex
    order of each component one arc joins each consecutive pair, and 2h
    rises by 2 up a top arc or down a bottom arc (2h_j - 2h_i = 2 on a
    top arc, 2h_i - 2h_j = 2 on a bottom arc).  Each component is then
    shifted so that its least tail vertex reads its anchor, or, with no
    tail vertex, its least vertex reads 0.  Types B, C and D mirror it,
    H_{N+1-v} = -h_v, with H_{n+1} = 0 in type B.  diag(H) lies in the
    Cartan subalgebra, up to a scalar in type A that ad ignores.
    """
    meander = meander_of_valid(spec)  # seaweed_basis validated the spec
    n, top, bottom, tail = spec.n, meander.top, meander.bottom, meander.tail
    size = matrix_dim(spec)
    anchor: dict[int, int] = {}
    support: list[tuple[int, int]] = []
    if spec.algebra is AlgebraType.C:
        anchor = dict.fromkeys(tail, 1)
        support = [(v, size + 1 - v) for v in tail]
    else:  # type A has no tail; B and D take it in pairs
        for v, w in zip(tail[::2], tail[1::2]):
            anchor[v], anchor[w] = 2, 0
            support += [(v, w), (v, size + 1 - w)]
        if len(tail) % 2:  # type B only: every type-D tail is even
            anchor[tail[-1]] = 2
            support.append((tail[-1], n + 1))
    support += [(top[v], v) for v in range(1, n + 1) if v < top[v]]
    support += [(v, bottom[v]) for v in range(1, n + 1) if v < bottom[v]]
    twice = [0] * (n + 1)
    for comp in components(meander)[1]:
        order = comp.vertices
        for v, w in zip(order, order[1:]):
            twice[w] = twice[v] + (2 if (top[v] == w) == (v < w) else -2)
        tails = [v for v in order if v in anchor]
        root = min(tails) if tails else min(order)
        shift = anchor.get(root, 0) - twice[root]
        for v in order:
            twice[v] += shift
    diagonal = twice[1:]
    if spec.algebra is not AlgebraType.A:
        diagonal += [0] * (size - 2 * n) + [-h for h in reversed(diagonal)]
    return support, [0] + diagonal


def _scanned_spectrum(lie: LieData, principal: Sequence[int]) -> dict[int, int]:
    """Multiplicities as kernel dimensions of ad(F) - k, F a principal element mod p."""
    m = lie.dimension
    rows = _ad_rows(lie, principal)
    scale = _mod_p(rows)
    eigenvalues: dict[int, int] = {}
    total = 0
    for k in _spectrum_scan_order(-m, m + 1):
        mult = _shifted_kernel(rows, m, scale * k % P)
        if mult:
            eigenvalues[k] = mult
            total += mult
            if total > m:
                raise SpectrumOvercountError(
                    f"eigenvalue multiplicities {eigenvalues} sum to {total} > dimension {m}"
                )
            if total == m:
                break
    return eigenvalues


def _spectrum_report(eigenvalues: dict[int, int], m: int) -> SpectrumReport:
    """The multiplicities, sorted, with the integral, unbroken and symmetric flags and the defect."""
    support = sorted(eigenvalues)
    total = sum(eigenvalues.values())
    return SpectrumReport(
        eigenvalues={k: eigenvalues[k] for k in support},
        integral=total == m,
        unbroken=bool(support) and support == list(range(support[0], support[-1] + 1)),
        symmetric_about_half=all(eigenvalues.get(k, 0) == eigenvalues.get(1 - k, 0) for k in support),
        defect=m - total,
    )
