"""Exact linear-algebra oracle: Kirillov forms, ranks, principal elements.

The index of a Lie algebra is the minimum over linear functionals f of
the kernel dimension of the skew form f([x, y]).  One kernel computes
every such dimension: the form is built as sparse skew rows, off the
basis cells for a seaweed and off the bracket table otherwise, reduced
mod p = 2**61 - 1 and ranked by symplectic elimination: rank 2 per
pivot pair, for one mirrored rank-2 update of the rows it touches, each
pair of them reduced once.  There is
no floating point.  The rank mod p never exceeds the rank over the
rationals, so a kernel dimension is an upper bound on the index, exact
for generic functionals.  A lower bound (a floor) turns a kernel into a
proof: a kernel equal to it is the index.  The oracle reads one floor,
c + ((m - c) mod 2), c the dimension of the diagonal center read off the
two compositions (``_center_floor``): every central element is in every
kernel, and a skew form has even rank, over the rationals and over F_p
alike.  The floor has the parity of m and is at least m mod 2, so it
also answers wherever the parity bound m mod 2 would.  A seaweed of any
family first runs the meander trial: the sparse 0/1 meander functional
below, which answers only at the floor and is dropped otherwise.  Then
trial functionals are drawn uniformly from F_p, so one is degenerate
with probability at most (m/2)/p (Schwartz-Zippel on a nonzero Pfaffian
of degree at most m/2), and a form whose scale p divides gives only the
bound.  The trials stop at the floor, or once two trials have read the
current minimum.  So, with two trials or more, a result above the index
needs two degenerate draws: probability at most ((m/2)/p)**2.

Every sparse row reaches F_p at a scale settled before it is reduced
once.  A Kirillov form does so in the pass that builds it
(``_kirillov_rows``): one scale, the lcm of the denominators of f and of
the table (1 for a seaweed), each value above the diagonal reduced and
its mirror written as p - v, so it stays skew; the principal element's
system [B | f] takes f as column m at that scale.  Other rows go through
``_reduced``: ad(F) at the table's scale, ``rank_exact`` each row at its own.
Principal elements are solved by sparse Gaussian elimination, so they
are the reductions mod p of the rational ones.  Their adjoint spectra
(the obstruction test for embedding a Frobenius algebra as a seaweed)
are integer eigenvalue multiplicities read as kernel dimensions over F_p
of ad(F) - k; never the output of a numerical eigensolver.  Once a shift
misses (kernel 0), the characteristic polynomial chi of ad(F) is computed
mod p, by one Hessenberg reduction, and only the k that are roots of chi
are ranked: every other kernel is 0.  The dense
``kirillov_matrix`` and ``ad_matrix`` are exact views of the same
bracket table.

A seaweed's table is built only on the first read of ``lie.brackets``
(``seaweed_basis``), and that read raises ClosureError if a bracket
leaves the span.  One rule says who reads it: every Kirillov form of a
seaweed (the meander trial, the seeded trials, the spectrum certificate
and the principal element) is read off its basis cells
(``_support_rows``), which assumes closure, a theorem for seaweeds, and
only ad(F) in the scans and the dense views read its table.

The meander functional of a seaweed is read off one meander and its
tail (``_meander_functional``), which returns it with that meander and
the tail's anchors.  The oracle's meander trial reads the functional
alone.  Only the spectrum walks the meander's components
(``_doubled_diagonal``) for a diagonal principal element, under a
certificate.  Otherwise, and for abstract tables, the scans run."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .matrices import LieData, matrix_dim
from .meander import Meander, components, meander_of_valid
from .specs import AlgebraType, SeaweedSpec

# The prime of the rank kernel: 2**61 - 1 (a Mersenne prime).
P = (1 << 61) - 1
DEFAULT_TRIALS = 5
# Above this many rows _skew_rank takes its pivot rows from a heap, at or below it from a scan.
_SCAN_ROWS = 16


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


class SpectrumReport(NamedTuple):
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
    """Matrix of the form (x, y) -> f([x, y]) on the basis, exact, read off ``lie.brackets``; skew by construction."""
    _check_length(lie, f)
    m = lie.dimension
    out = [[0] * m for _ in range(m)]
    coordinate = f.__getitem__
    for (i, j), coeffs in lie.brackets.items():
        value = sum(map(mul, map(coordinate, coeffs), coeffs.values()))
        if value:
            out[i][j], out[j][i] = value, -value
    return out


def _check_length(lie: LieData, f: Sequence[int | Fraction]) -> None:
    if len(f) != lie.dimension:
        raise ValueError(f"functional has length {len(f)}, expected {lie.dimension}")


def _kirillov_rows(lie: LieData, f: Sequence[int | Fraction]) -> tuple[dict[int, dict[int, int]], Sequence]:
    """The nonzero rows mod p of the Kirillov form of s f, s its one scale; and s f.

    The scale is settled before the pass: the lcm of the denominators of
    f times that of the table (``_table_scale``, 1 for a seaweed), so
    every s f([x_i, x_j]) is an integer, and mod p s is a unit unless p
    divides it.  The input kind chooses the pass: a seaweed (``lie.basis``
    set) is read off its basis cells (``_support_rows``) and builds no
    table; an abstract table is read off ``lie.brackets``.  Either pass
    reduces each value above the diagonal once, in the same order, and
    writes its mirror as p - v, so the rows stay skew.  The principal
    element's system [B | f] takes s f as column m.
    """
    _check_length(lie, f)
    scale = _table_scale(lie) * lcm(*{v.denominator for v in f})
    scaled = [v * scale for v in f] if scale != 1 else f
    if lie.basis is not None:
        return _support_rows(lie, scaled), scaled
    coordinate = scaled.__getitem__
    rows: dict[int, dict[int, int]] = {}
    for (i, j), coeffs in lie.brackets.items():
        v = sum(map(mul, map(coordinate, coeffs), coeffs.values())).numerator % P
        if v:
            rows.setdefault(i, {})[j] = v
            rows.setdefault(j, {})[i] = P - v
    return rows, scaled


def _table_scale(lie: LieData) -> int:
    """The lcm of the denominators of ``lie.brackets``; 1, unread, for a table read off a basis.

    ``_bracket_table`` divides each bracket exactly by lead entries, so a
    table with a basis holds integers (the first read of ``lie.brackets``
    raises ClosureError otherwise).
    """
    if lie.basis is not None:
        return 1
    return lcm(*[v.denominator for coeffs in lie.brackets.values() for v in coeffs.values()])


def _dense(rows: dict[int, dict[int, int | Fraction]], m: int) -> list[list[int | Fraction]]:
    out = [[0] * m for _ in range(m)]
    for r, row in rows.items():
        for c, v in row.items():
            out[r][c] = v
    return out


def _reduced(entries: Iterable[tuple[int, int | Fraction]], scale: int) -> dict[int, int]:
    """``{c: (v * scale) mod p}`` of ``(c, v)`` pairs, dropping zeros; each v * scale must be an integer."""
    return {c: x for c, v in entries if (x := (v * scale).numerator % P)}


def _kirillov_kernel(lie: LieData, f: Sequence[int | Fraction]) -> int:
    """Kernel dimension mod p of the Kirillov form of f, built sparse and ranked skew.

    The rows come reduced mod p from ``_kirillov_rows``: off the basis
    cells for a seaweed, which builds no table, and off ``lie.brackets``
    for an abstract table.  It equals ``kernel_dimension(kirillov_matrix(lie, f))``
    unless p divides the form's scale, and bounds the rational kernel in
    any case.
    """
    return lie.dimension - _skew_rank(_kirillov_rows(lie, f)[0])


def _support_rows(lie: LieData, f: Sequence[int | Fraction]) -> dict[int, dict[int, int]]:
    """The nonzero rows mod p of the Kirillov form of an integral f on a seaweed, read off its basis cells.

    Every Kirillov form of a seaweed is built here (``_kirillov_rows``
    checks the length of f and scales it); no bracket table is read.
    Each element's lead (first) cell lies in no other element and holds
    1, and a bracket lies in the span of the basis, so its coordinate
    along x_k is its entry at the lead (a, d) of x_k.  Hence f([x_i, x_j]) = sum of f_k [x_i, x_j][a, d] over the
    k with f_k != 0, and [x_i, x_j][a, d] = sum over b of
    x_i[a, b] x_j[b, d] - x_j[a, b] x_i[b, d]: for each column b of row
    a, the elements at (a, b) against those at (b, d), through the kept
    cell index (``lie.cells``).  The cost follows the support of f times
    the matrix size.  Closure is assumed; the table
    (``_bracket_table``) checks it.  The rows equal those of the same
    algebra given as a table alone, in the same order: each pair i < j is
    reduced once, in ascending order, and its mirror written as p - v.
    """
    at_cell, in_row = lie.cells
    form: dict[tuple[int, int], int] = {}
    for x, weight in zip(lie.basis, f):
        if not weight:
            continue
        a, d = next(iter(x.entries))
        for b in in_row[a]:
            right = at_cell.get((b, d))
            if right is None:
                continue
            for i, v in at_cell[a, b]:
                for j, w in right:
                    # x_i x_j adds to [x_i, x_j] and subtracts from [x_j, x_i]
                    if i < j:
                        form[i, j] = form.get((i, j), 0) + weight * v * w
                    elif j < i:
                        form[j, i] = form.get((j, i), 0) - weight * v * w
    rows: dict[int, dict[int, int]] = {}
    for i, j in sorted(form):
        v = form[i, j].numerator % P
        if v:
            rows.setdefault(i, {})[j] = v
            rows.setdefault(j, {})[i] = P - v
    return rows


def _skew_rank(rows: dict[int, dict[int, int]]) -> int:
    """Rank over F_p of a skew matrix given by its nonzero rows; consumes ``rows``.

    Symplectic elimination: each pivot pair takes rank 2 and one mirrored
    rank-2 update of the rows it touches (``_pivot_pair``).  Each pivot
    row i is the sparsest row left, ties going to the row stored first: a
    scan reads every row's length and takes the first least one.  While
    more than ``_SCAN_ROWS`` rows remain, i comes from a heap of
    (length, position in ``rows``, row) instead, so a pivot costs a
    logarithm, not a pass over every row.  Entries are deleted lazily: a
    popped entry whose row is gone or whose length has changed is
    skipped, and every row an update keeps is pushed again.  Rows are
    only deleted, never re-inserted, so the first position among the
    shortest rows is the scan's choice and the pivot sequence is the
    scan's.  Below the threshold the scan costs no more than the heap,
    and most forms of small seaweeds never build one.
    """
    rank = 0
    if len(rows) > _SCAN_ROWS:
        position = {r: k for k, r in enumerate(rows)}
        queue = [(len(row), k, r) for k, (r, row) in enumerate(rows.items())]
        heapify(queue)
        while len(rows) > _SCAN_ROWS:
            length, _, i = heappop(queue)
            row = rows.get(i)
            if row is None or len(row) != length:
                continue
            for r in _pivot_pair(rows, i):
                heappush(queue, (len(rows[r]), position[r], r))
            rank += 2
    while rows:
        lengths = list(map(len, rows.values()))
        _pivot_pair(rows, list(rows)[lengths.index(min(lengths))])
        rank += 2
    return rank


def _pivot_pair(rows: dict[int, dict[int, int]], i: int) -> list[int]:
    """Eliminate pivot row i and its partner j from a skew ``rows``; the updated rows that stay nonzero.

    j is the sparsest row among i's columns, b = B[i][j].  By skewness
    the rows to update are exactly the columns of rows i and j, and
    B[r][i] = -B[i][r], B[r][j] = -B[j][r].  With u = row_i / b and
    v = row_j, each unordered pair r, c of them takes one rank-2 update,
    B[r][c] += v_r u_c - u_r v_c, reduced once, and its mirror is written
    as p minus the sum; a sum that cancels deletes both halves, so the
    rows stay skew with no stored zero.  Columns i and j are cleared and
    rows i and j drop out with rank 2, for one modular inverse.  A leaf,
    a row i whose only entry is j, has u = 0: it takes no inverse and no
    product, and only column j leaves j's neighbours.  Rows that reach
    zero are deleted.
    """
    row_i = rows.pop(i)
    j = min(row_i, key=lambda c: len(rows[c]))
    row_j = rows.pop(j)
    b = row_i.pop(j)
    del row_j[i]
    kept = []
    if not row_i:  # a leaf: no row but j has column i, and the update is zero
        for r in row_j:
            row = rows[r]
            del row[j]
            if row:
                kept.append(r)
            else:
                del rows[r]
        return kept
    inverse = pow(b, -1, P)
    touched = []
    for r in row_i.keys() | row_j.keys():
        row = rows[r]
        # row r has column i exactly where row i has column r, and so for j
        u = row.pop(i, 0) and row_i[r] * inverse % P
        v = row.pop(j, 0) and row_j[r]
        touched.append((r, row, u, v))
    for k, (r, row, u_r, v_r) in enumerate(touched):
        get = row.get
        for c, col, u_c, v_c in touched[k + 1 :]:
            x = (get(c, 0) + v_r * u_c - u_r * v_c) % P
            if x:
                row[c] = x
                col[r] = P - x
            elif c in row:
                del row[c], col[r]
        if row:
            kept.append(r)
        else:
            del rows[r]
    return kept


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
    integers by the lcm of its own denominators, then reduced
    (``_reduced``).  There is no floating point and no rounding.
    """
    rows = [_reduced(enumerate(row), lcm(*[v.denominator for v in row])) for row in matrix]
    return len(_eliminate([row for row in rows if row]))


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
    CPython's randrange(P) draws getrandbits(61) and redraws every value
    >= P, and 2**61 - 1 = P is the only such value.
    """
    return [rng.randrange(P) for _ in range(dimension)]


def _trial_functionals(lie: LieData, trials: int, seed: int):
    """At most ``trials`` seeded random functionals, drawn lazily.

    Raises on ``trials < 1`` at the call; the generator is seeded at its
    first draw, so a caller answered before any trial builds no rng.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def draws():
        rng = random.Random(seed)
        for _ in range(trials):
            yield random_functional(rng, lie.dimension)

    return draws()


def index_oracle(lie: LieData, trials: int = DEFAULT_TRIALS, seed: int = 0) -> int:
    """Min kernel dimension of the Kirillov form over trial functionals, stopped early by a floor.

    Each kernel dimension is computed over F_p by the skew elimination of
    the sparse form (see _kirillov_kernel), so it bounds the index from
    above: kernel mod p >= kernel over the rationals >= index.  Any kernel
    that equals a lower bound on the index (a floor) therefore proves
    the index and is returned at once.  The floor is c + ((m - c) mod 2),
    c the dimension of the diagonal center read off the two compositions
    (``_center_floor``, 0 for a table), since every form's rank is even
    and at most m - c.  It is computed once per call, before any kernel.
    It has the parity of m and is at least m mod 2, so a kernel at
    m mod 2 is at the floor too.

    Every form of a seaweed is read off its basis cells, so a seaweed
    builds no bracket table here; an abstract table's forms read
    ``lie.brackets`` (``_kirillov_rows``).  A seaweed (``lie.spec`` set),
    GL included, first runs the meander trial: the sparse 0/1 functional
    of ``_meander_functional``.  Its kernel answers only at the floor;
    otherwise it is discarded and counts toward nothing below.  Then at
    most ``trials`` seeded functionals are drawn, uniformly from F_p.
    They stop at the floor, or once two of them have read the current minimum.
    The result exceeds the index only if every seeded trial run is
    degenerate, and unless the floor stops them at least two run, so
    with trials >= 2 that has probability at most ((m/2)/p)**2.
    Deterministic for a given (trials, seed).
    """
    functionals = _trial_functionals(lie, trials, seed)
    m = lie.dimension
    if m == 0:
        return 0
    c = _center_floor(lie)
    floor = c + (m - c) % 2
    meander = _meander_functional(lie)  # f alone: the trial runs no walk
    if meander is not None and (kernel := _kirillov_kernel(lie, meander[0])) == floor:
        return kernel
    best = m + 1  # above every kernel, so the first trial agrees with nothing
    for f in functionals:
        kernel = _kirillov_kernel(lie, f)
        if kernel == best or kernel == floor:
            return kernel
        best = min(best, kernel)
    return best


def _center_floor(lie: LieData) -> int:
    """The dimension of a central subspace of a seaweed, read off its compositions ``lie.spec``; 0 for a table.

    A cut is a partial sum of a composition, and c counts the cuts that
    top and bottom share, one fewer in type A.  Every basis element lies
    inside one block between shared cuts: its cells lie in the lower
    triangle of a top block or the upper triangle of a bottom block, and
    neither crosses a cut of its own side (nor, in types B, C and D, the
    mirror N - k of a cut k).  In type D a side that sums to n - 1 also
    cuts at n: its middle block is the 2 x 2 one of so(2n), where
    X = -antitranspose(X) forces X[n, n+1] = 0, so it holds no
    off-diagonal element.  A diagonal matrix d that is constant on each
    block commutes with every basis element, since
    [d, e_ab] = (d_a - d_b) e_ab, so it is central once it lies in the
    algebra.  GL holds every such d: one per block, and the blocks end at
    the shared cuts, n among them.  Type A holds the traceless ones: one
    fewer.  Types B, C and D hold those with d_{N+1-a} = -d_a: the block
    that ends at a shared cut k <= n and its mirror take one value, and a
    middle block, its own mirror, reads 0, so one per shared cut.

    A central z satisfies f([z, y]) = 0 for every y, so it lies in the
    kernel of every Kirillov form, over the rationals and over F_p alike:
    each form has rank at most m - c, and even.  So with c this
    dimension, c + ((m - c) mod 2) is a floor on the index.
    """
    spec = lie.spec
    if spec is None:
        return 0
    top, bottom = (set(accumulate(parts)) for parts in (spec.top, spec.bottom))
    if spec.algebra is AlgebraType.D:  # the middle 2 x 2 block holds no off-diagonal element
        for cuts, parts in ((top, spec.top), (bottom, spec.bottom)):
            if sum(parts) == spec.n - 1:
                cuts.add(spec.n)
    shared = len(top & bottom)
    return shared - 1 if spec.algebra is AlgebraType.A else shared


def principal_element(lie: LieData, f: Sequence[int | Fraction]) -> list[int]:
    """Solve f([F, x_j]) = f(x_j) for F over F_p; its coordinates mod p.

    F = sum c_i x_i with sum_i c_i B[i][j] = f_j (B the Kirillov matrix).
    B is skew, so that is B c + f = 0, and (c, 1) spans the kernel of
    [B | f], read back from the pivots of the rank kernel's elimination.
    The rows of B are the kernel's own (``_kirillov_rows``: a seaweed's
    off its basis cells, with no bracket table), and f joins them as
    column m at the same scale, which covers the denominators of both.
    The Kirillov form must be nondegenerate mod p
    (NotFrobeniusFunctionalError otherwise); then F is the reduction mod
    p of the rational principal element.  A residual row B c + f that does not vanish mod p raises
    PrincipalElementError.
    """
    m = lie.dimension
    rows, scaled = _kirillov_rows(lie, f)
    for r, v in _reduced(enumerate(scaled), 1).items():
        rows.setdefault(r, {})[m] = v
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
    element_j c at (k, i).  Entries that cancel are kept as zeros, which
    only the dense ``ad_matrix`` shows: ``_reduced`` drops them.
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

    An odd dimension m raises NotFrobeniusError at once: a skew form on
    an odd-dimensional space is degenerate.  A seaweed of type A, B, C or
    D (``lie.spec`` set by ``seaweed_basis``) first tries the certified
    spectrum of its meander functional (``_meander_spectrum``).  The
    spectrum of a Frobenius algebra's principal element does not depend
    on the Frobenius functional, so the scans below would report the same.

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
    multiplicities account for the whole dimension.  After the first k
    whose kernel is 0, the characteristic polynomial chi of ad(F) is
    computed once mod p and only the roots of chi are ranked, since every
    other kernel is 0 (``_scanned_spectrum``); a spectrum that never
    misses computes no chi.  A defect
    is reported, not raised: it signals eigenvalues outside the integers
    (the obstruction to realizing the algebra as a seaweed) or a
    non-semisimple ad(F).  Multiplicities summing past m cannot be exact
    and raise SpectrumOvercountError.
    """
    functionals = _trial_functionals(lie, trials, seed)
    m = lie.dimension
    if m == 0:
        return SpectrumReport({}, True, True, True, 0)
    if m % 2:
        raise NotFrobeniusError(f"no nondegenerate functional: dimension {m} is odd")
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
    """Eigenvalue multiplicities of ad(F) off the meander (``_meander_functional``); None unless certified.

    The only reader of the doubled diagonal 2H: it runs the walk that the
    oracle's meander trial skips.  A basis element all of whose cells
    (a, b) read one H_a - H_b is an eigenvector of ad(F) with that
    eigenvalue.  The certificate: every element is one, with an integer
    eigenvalue; eigenvalue 1 on the support of f, so f([F, x]) = f(x)
    for all x; and, checked last, a zero Kirillov kernel of f mod p
    (``_kirillov_kernel``, off the basis cells like every seaweed form),
    so f is Frobenius over the rationals and F its only principal element.
    The result never rests on the walk being right.
    """
    found = _meander_functional(lie)
    if found is None:
        return None
    f, meander, anchor = found
    twice_h = _doubled_diagonal(lie.spec, meander, anchor)
    doubled = []
    for x, on in zip(lie.basis, f):
        values = {twice_h[a] - twice_h[b] for a, b in x.entries}
        value = values.pop()
        if values or value % 2 or (on and value != 2):
            return None
        doubled.append(value)
    if _kirillov_kernel(lie, f):
        return None
    return Counter(value // 2 for value in doubled)


def _meander_functional(lie: LieData) -> tuple[list[int], Meander, dict[int, int]] | None:
    """The meander functional f of a seaweed, with its meander and tail anchors.

    f is a 0/1 vector on the basis: 1 on the element ``lie.cells`` lists
    at each support cell.  A support cell lies off the diagonal and, in
    types B, C and D, above the antidiagonal or (type C) on it; an
    element of GL has one cell, and the second cell of an element lies
    on the diagonal in type A and below the antidiagonal otherwise, so a
    support cell is a cell of one element only, its lead (least) cell.
    GL takes A's support rule: a GL seaweed is the A seaweed plus the
    central identity, on which f vanishes, so its kernel is A's plus the
    identity.  None for tables (no ``lie.spec``).  The meander and the
    anchors are what ``_doubled_diagonal`` walks to give 2H of the F
    that is the principal element of f whenever the certificate of
    ``_meander_spectrum`` holds, which a GL seaweed never passes (its
    identity is in every kernel); the meander trial reads f alone.

    Each arc gives its arc cell: (j, i) for a top arc i < j and (i, j)
    for a bottom arc.  The tail gives support cells, each with the anchor
    of 2h that makes it read 1: in type C each tail vertex v gives
    (v, N+1-v) with 2h_v = 1; in types B and D the tail vertices, in
    increasing order, go in consecutive pairs (v, w), each giving
    (v, w) (root e_v - e_w) and (v, N+1-w) (root e_v + e_w) with
    2h_v = 2 and 2h_w = 0; in type B a last unpaired vertex v gives
    (v, n+1) (root e_v) with 2h_v = 2 (a type-D tail has even length,
    ``meander.tail``); N = ``matrix_dim(spec)``.
    """
    spec = lie.spec
    if spec is None or lie.basis is None:
        return None
    meander = meander_of_valid(spec)  # seaweed_basis validated the spec
    n, top, bottom, tail = spec.n, meander.top, meander.bottom, meander.tail
    size = matrix_dim(spec)
    support, anchor = set(), {}
    if spec.algebra is AlgebraType.C:
        for v in tail:
            support.add((v, size + 1 - v))
            anchor[v] = 1
    else:  # type A has no tail; B and D take it in pairs
        for v, w in zip(tail[::2], tail[1::2]):
            support.update([(v, w), (v, size + 1 - w)])
            anchor[v], anchor[w] = 2, 0
        if len(tail) % 2:  # type B only: every type-D tail is even
            support.add((tail[-1], n + 1))
            anchor[tail[-1]] = 2
    support.update((top[v], v) for v in range(1, n + 1) if v < top[v])
    support.update((v, bottom[v]) for v in range(1, n + 1) if v < bottom[v])
    f, at_cell = [0] * lie.dimension, lie.cells[0]
    for cell in support:
        f[at_cell[cell][0][0]] = 1  # the one element with this cell
    return f, meander, anchor


def _doubled_diagonal(spec: SeaweedSpec, meander: Meander, anchor: dict[int, int]) -> list[int]:
    """The doubled diagonal 2H, 1-based, of the meander functional's F, by one component walk.

    Along the vertex order of each component one arc joins each
    consecutive pair, and 2h rises by 2 up a top arc or down a bottom
    arc, so every arc cell reads 1.  Each component is then shifted so
    that its least tail vertex reads its ``anchor``, or, with no tail
    vertex, its least vertex reads 0.  Types B, C and D mirror it,
    H_{N+1-v} = -h_v, with H_{n+1} = 0 in type B; GL and A do not.
    diag(H) lies in the Cartan subalgebra, up to a scalar in type A that
    ad ignores.
    """
    n, top = spec.n, meander.top
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
    if not spec.algebra.full_compositions_required:
        twice += [0] * (matrix_dim(spec) - 2 * n) + [-h for h in reversed(twice[1:])]
    return twice


def _scanned_spectrum(lie: LieData, principal: Sequence[int]) -> dict[int, int]:
    """Multiplicities as kernel dimensions of ad(F) - k, F a principal element mod p.

    F is integral, so the table's scale s clears ad(F) (and k) of
    denominators: A is ad(F) reduced at s, and k is scanned as s k.  The
    scan ranks every shift until one misses (kernel 0).  Then it computes
    chi(t) = det(tI - A) mod p once (``_charpoly``) and ranks only the
    shifts with chi(s k) = 0 mod p: at any other, A - s k is invertible
    mod p, so its kernel is exactly 0 and ranking it would add nothing.
    The multiplicities, the stop at m and the overcount check are those
    of ranking every shift.  An unbroken integral spectrum, as every
    Frobenius seaweed has, reaches m before a miss and computes no chi; a
    non-integral one pays one O(m**3) reduction instead of up to 2m + 2
    kernels (``A16:7|9/16``'s table with the z = 1 table, m = 196: 39 s
    to 1.7 s in process, ``BENCH_scan_roots.json``).
    """
    m = lie.dimension
    scale = _table_scale(lie)
    rows = {r: _reduced(row.items(), scale) for r, row in _ad_rows(lie, principal).items()}
    eigenvalues: dict[int, int] = {}
    total = 0
    chi = None  # computed at the first miss
    for k in _spectrum_scan_order(-m, m + 1):
        shift = scale * k % P
        if chi is not None and _evaluate(chi, shift):
            continue  # not a root of chi: A - shift is invertible mod p
        mult = _shifted_kernel(rows, m, shift)
        if mult:
            eigenvalues[k] = mult
            total += mult
            if total > m:
                raise SpectrumOvercountError(
                    f"eigenvalue multiplicities {eigenvalues} sum to {total} > dimension {m}"
                )
            if total == m:
                break
        elif chi is None:
            chi = _charpoly(rows, m)
    return eigenvalues


def _charpoly(rows: dict[int, dict[int, int]], m: int) -> list[int]:
    """The coefficients mod p of det(tI - A), A the m x m matrix ``rows``, constant term first.

    A is reduced to upper Hessenberg form H by similarity over F_p: for
    each column j, a row below j + 1 with a nonzero entry in column j is
    swapped into row j + 1 (with the matching column swap), and each row
    r below it takes away u_r times row j + 1 while column j + 1 takes
    u_r times column r, which clears column j below the subdiagonal
    (those entries are never read again, so they are not written).
    Then, with p_0 = 1 and indices 1-based, the recurrence
    p_k = (t - h_kk) p_(k-1) - sum over i < k of h_ik h_(i+1,i) ... h_(k,k-1) p_(i-1)
    gives det(tI - H) = p_m, the product stopping at a zero subdiagonal
    entry.  ``rows`` is not modified; the dense H holds m**2 values.
    """
    h = [[0] * m for _ in range(m)]
    for r, row in rows.items():
        for c, v in row.items():
            h[r][c] = v
    for j in range(m - 2):
        below = j + 1
        pivot = next((r for r in range(below, m) if h[r][j]), None)
        if pivot is None:
            continue
        if pivot != below:
            h[pivot], h[below] = h[below], h[pivot]
            for row in h:
                row[pivot], row[below] = row[below], row[pivot]
        pivot_row = h[below]
        inverse = pow(pivot_row[j], -1, P)
        cleared, factors = [], []
        for r in range(below + 1, m):
            row = h[r]
            if row[j]:
                u = row[j] * inverse % P
                # columns before j are zero in both rows; column j is never read again
                row[j + 1 :] = [(x - u * y) % P for x, y in zip(row[j + 1 :], pivot_row[j + 1 :])]
                cleared.append(r)
                factors.append(u)
        if cleared:
            for row in h:
                row[below] = (row[below] + sum(map(mul, factors, [row[r] for r in cleared]))) % P
    polys = [[1]]
    for k in range(m):
        prev = polys[-1]
        diagonal = h[k][k]
        nxt = [0, *prev]
        nxt[:-1] = [x - diagonal * y for x, y in zip(nxt, prev)]
        product = 1
        for i in range(k, 0, -1):
            product = product * h[i][i - 1] % P
            if not product:
                break
            w = h[i - 1][k] * product % P
            if w:
                nxt[:i] = [x - w * y for x, y in zip(nxt, polys[i - 1])]
        polys.append([x % P for x in nxt])
    return polys[m]


def _evaluate(coeffs: list[int], t: int) -> int:
    """The polynomial with ``coeffs`` (constant term first) at t, mod p, by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = (value * t + c) % P
    return value


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
