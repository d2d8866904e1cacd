"""Matrix realizations: admissible masks, bases, brackets, structure constants.

Every family is realized inside square matrices with 1-based indices:
GL/A in size n, C/D in size 2n, B in size 2n+1.  The admissible mask is
the union of the lower triangle intersected with the top block diagonal
and the upper triangle intersected with the bottom block diagonal; for
B/C/D the block lists are palindromes around a middle block of size
2(n - sum) (plus one for B), so the mask is symmetric about the
antidiagonal.

The ambient algebras are cut out by antitranspose symmetries: B and D
matrices satisfy X = -antitranspose(X); C matrices satisfy it on the
diagonal blocks and the opposite sign on the off blocks.  The seaweed
basis keeps exactly the symmetric ambient basis elements all of whose
cells are admissible; every basis entry is an integer, so brackets and
structure constants are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .specs import AlgebraType, SeaweedSpec, require_valid

Cell = tuple[int, int]


class ZeroEntryError(ValueError):
    """A SparseIntMatrix was handed an explicit zero entry."""


class MaskSymmetryError(RuntimeError):
    """A B/C/D admissible mask is not antidiagonal-symmetric (construction bug)."""


class SparseIntMatrix:
    """A dim x dim integer matrix as its nonzero entries, cell -> value.

    A ``__slots__`` record, since a frozen dataclass sets each field
    through ``object.__setattr__`` at several times the cost of the
    entries dict, once per basis element.  Equality, hash and repr are a
    dataclass's; the fields are not meant to be reassigned.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict[Cell, int]):
        if not all(entries.values()):
            raise ZeroEntryError("a SparseIntMatrix stores nonzero entries only; build it with sparse()")
        self.dim = dim
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseIntMatrix(dim={self.dim!r}, entries={self.entries!r})"


def sparse(dim: int, entries: dict[Cell, int]) -> SparseIntMatrix:
    return SparseIntMatrix(dim, {c: v for c, v in entries.items() if v != 0})


def bracket(x: SparseIntMatrix, y: SparseIntMatrix) -> SparseIntMatrix:
    """Matrix commutator xy - yx over exact integers.

    One pass over the pairs of entries: x[i,k] y[k,j] adds to (i, j) and
    y[l,j] x[j,k] subtracts from (l, k).  Basis elements have at most two
    entries, so the pass is at most four products.
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    out: dict[Cell, int] = {}
    y_entries = y.entries.items()
    for (i, k), v in x.entries.items():
        for (l, j), w in y_entries:
            if k == l:
                out[i, j] = out.get((i, j), 0) + v * w
            if j == i:
                out[l, k] = out.get((l, k), 0) - w * v
    return sparse(x.dim, out)


@dataclass(frozen=True)
class AdmissibleMask:
    dim: int
    cells: frozenset[Cell]


def _symmetric_blocks(spec: SeaweedSpec, parts: tuple[int, ...]) -> list[int]:
    middle = 2 * (spec.n - sum(parts))
    if spec.algebra is AlgebraType.B:
        middle += 1
    sizes = list(parts)
    if middle:
        sizes.append(middle)
    sizes.extend(reversed(parts))
    return sizes


def matrix_dim(spec: SeaweedSpec) -> int:
    if spec.algebra.full_compositions_required:
        return spec.n
    if spec.algebra is AlgebraType.B:
        return 2 * spec.n + 1
    return 2 * spec.n


def admissible_mask(spec: SeaweedSpec) -> AdmissibleMask:
    """Union of top-blocks-within-lower and bottom-blocks-within-upper, as a set of cells."""
    require_valid(spec)
    spans = _row_spans(spec)
    cells = frozenset((i, j) for i, (lo, hi) in enumerate(spans, 1) for j in range(lo, hi + 1))
    return AdmissibleMask(len(spans), cells)


def _row_spans(spec: SeaweedSpec) -> list[tuple[int, int]]:
    """The admissible columns lo..hi of rows 1, ..., N, in order; the spec is valid.

    Row i meets the lower triangle in its top block, from the block's
    first column to i, and the upper triangle in its bottom block, from i
    to the block's last column, so its cells are the one interval from
    the first column of its top block to the last column of its bottom
    block.  Reflection in the antidiagonal keeps each triangle and maps a
    block diagonal to that of the reversed blocks, so a B/C/D mask is
    antidiagonal-symmetric exactly when both block lists are palindromes;
    MaskSymmetryError otherwise.
    """
    if spec.algebra.full_compositions_required:
        top_sizes, bottom_sizes = spec.top, spec.bottom
    else:
        top_sizes = _symmetric_blocks(spec, spec.top)
        bottom_sizes = _symmetric_blocks(spec, spec.bottom)
        if top_sizes[::-1] != top_sizes or bottom_sizes[::-1] != bottom_sizes:
            raise MaskSymmetryError(f"the admissible mask of {spec} is not antidiagonal-symmetric")
    firsts, lasts = [], []
    for size in top_sizes:
        firsts += [len(firsts) + 1] * size
    for size in bottom_sizes:
        lasts += [len(lasts) + size] * size
    return list(zip(firsts, lasts))


class LieData:
    """Basis plus structure constants.

    ``brackets`` maps (i, j) with i < j, ascending, to the coefficients of
    [x_i, x_j] over the basis, in no set order; the (j, i) entry is implied
    by antisymmetry.  ``basis`` and ``spec`` are None for abstract
    (structure-constant) input; ``seaweed_basis`` sets both, and its
    coefficients are integers.  A table of None is read off ``basis``
    on the first read of ``brackets`` (``_bracket_table``) and kept, as
    is the cell index ``cells`` the Kirillov forms read, so a caller
    that reads only the basis cells builds no table; the read raises
    ClosureError if a bracket leaves the span.
    """

    __slots__ = ("dimension", "_brackets", "basis", "spec", "_cells")

    def __init__(
        self,
        dimension: int,
        brackets: dict[tuple[int, int], dict[int, int | Fraction]] | None,
        basis: list[SparseIntMatrix] | None = None,
        spec: SeaweedSpec | None = None,
    ):
        if brackets is None and basis is None:
            raise ValueError("a LieData with no basis needs its bracket table")
        self.dimension = dimension
        self._brackets = brackets
        self.basis = basis
        self.spec = spec
        self._cells = None

    @property
    def brackets(self) -> dict[tuple[int, int], dict[int, int | Fraction]]:
        if self._brackets is None:
            self._brackets = _bracket_table(self.spec, self.basis)
        return self._brackets

    @property
    def cells(self) -> tuple[dict[Cell, list[tuple[int, int]]], dict[int, list[int]]]:
        if self._cells is None:
            self._cells = _cell_index(self.basis)
        return self._cells

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dimension, self.basis, self.spec, self.brackets) == (
            other.dimension,
            other.basis,
            other.spec,
            other.brackets,
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"LieData(dimension={self.dimension!r}, brackets={self.brackets!r}, "
            f"basis={self.basis!r}, spec={self.spec!r})"
        )

    def bracket_coeffs(self, i: int, j: int) -> dict[int, int | Fraction]:
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}


class ClosureError(RuntimeError):
    """A bracket of basis elements left the basis span (construction bug)."""


class JacobiError(ValueError):
    """The Jacobi identity fails; ``triple`` is 0-based, the message names e_1, e_2, ..."""

    def __init__(self, triple, residual):
        names = ", ".join(f"e_{k + 1}" for k in triple)
        terms = ", ".join(f"e_{k + 1}: {v}" for k, v in residual.items())
        super().__init__(f"Jacobi identity fails on ({names}): residual {{{terms}}}")
        self.triple = triple


def seaweed_basis(spec: SeaweedSpec) -> LieData:
    """Generate the seaweed's basis; its structure constants follow on first read.

    The ambient standard basis is filtered by the admissible mask (an
    element is kept only if every cell it touches is admissible), read
    row by row off the mask's row spans (``_row_spans``), so the elements
    come in the order of their least cells, with type A's diagonal
    elements last; no cell set is built.  The bracket table is built by
    ``_bracket_table`` on the first read of ``lie.brackets``, not here:
    the oracle's meander trial and the spectrum certificate read only
    the basis cells.  That read raises ClosureError if a bracket fails to
    reduce exactly, since the span would not be a subalgebra.
    """
    require_valid(spec)
    spans = _row_spans(spec)
    algebra = spec.algebra
    if algebra.full_compositions_required:
        basis = _gl_basis(spans, algebra is AlgebraType.A)
    else:
        basis = _symmetric_basis(algebra, spans)
    return LieData(len(basis), None, basis, spec)


def _gl_basis(spans: list[tuple[int, int]], traceless: bool) -> list[SparseIntMatrix]:
    """Matrix units on the mask; for sl (traceless) its off-diagonal ones, then e_ii - e_nn."""
    n = len(spans)
    basis = [
        SparseIntMatrix(n, {(i, j): 1})
        for i, (lo, hi) in enumerate(spans, 1)
        for j in range(lo, hi + 1)
        if j != i or not traceless
    ]
    if traceless:
        basis.extend(SparseIntMatrix(n, {(i, i): 1, (n, n): -1}) for i in range(1, n))
    return basis


def _symmetric_basis(algebra: AlgebraType, spans: list[tuple[int, int]]) -> list[SparseIntMatrix]:
    """One element per mirror pair of mask cells, from the cell above the antidiagonal.

    Cell (i, j) mirrors to (N+1-j, N+1-i), which is the same cell when
    i + j = N + 1 and a later one when i + j < N + 1.  A cell on the
    antidiagonal is free for C off blocks and forced zero under
    X = -antitranspose(X) for B and D.
    """
    dim = len(spans)
    half = dim // 2
    basis = []
    for i, (lo, hi) in enumerate(spans, 1):
        for j in range(lo, min(hi, dim - i) + 1):
            if algebra is AlgebraType.C:
                sign = -1 if (i <= half) == (j <= half) else 1
            else:
                sign = -1
            basis.append(SparseIntMatrix(dim, {(i, j): 1, (dim + 1 - j, dim + 1 - i): sign}))
        if algebra is AlgebraType.C and lo <= dim + 1 - i <= hi:
            basis.append(SparseIntMatrix(dim, {(i, dim + 1 - i): 1}))
    return basis


def _cell_index(basis) -> tuple[dict[Cell, list[tuple[int, int]]], dict[int, list[int]]]:
    """The cell index of ``basis``, read by ``_bracket_table`` and kept as ``LieData.cells``.

    ``at_cell`` maps a cell to its [(element, entry)], elements ascending;
    ``in_row`` maps a row to the columns that hold a cell.
    """
    at_cell: dict[Cell, list[tuple[int, int]]] = {}
    for idx, x in enumerate(basis):
        for cell, v in x.entries.items():
            at_cell.setdefault(cell, []).append((idx, v))
    in_row: dict[int, list[int]] = {}
    for a, b in at_cell:
        in_row.setdefault(a, []).append(b)
    return at_cell, in_row


def _bracket_table(spec, basis) -> dict[tuple[int, int], dict[int, int]]:
    """The bracket table of ``basis``, one element at a time; each element's lead cell must be its first entry.

    For x_i, a cell (a, b) against a cell (b, d) of x_j, j > i, adds x_i x_j
    at (a, d), and against a cell (c, a) of x_j subtracts x_j x_i at (c, b),
    read off the cell index (``_cell_index``) and its column map; only x_i's
    products are held.  The lead, the least cell, which ``_gl_basis`` and
    ``_symmetric_basis`` insert first, lies in no other element, so each
    product is divided at lead cells by the lead entry; ClosureError if
    anything is left, since the bracket then leaves the span.
    """
    at_cell, in_row = _cell_index(basis)
    in_col: dict[int, list[int]] = {}
    for c, a in at_cell:
        in_col.setdefault(a, []).append(c)
    lead = {next(iter(x.entries)): idx for idx, x in enumerate(basis)}
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for i, x in enumerate(basis):
        products: dict[int, dict[Cell, int]] = {}
        for (a, b), v in x.entries.items():
            for d in in_row.get(b, ()):
                for j, w in at_cell[b, d]:
                    if j > i:
                        product = products.setdefault(j, {})
                        product[a, d] = product.get((a, d), 0) + v * w
            for c in in_col.get(a, ()):
                for j, w in at_cell[c, a]:
                    if j > i:
                        product = products.setdefault(j, {})
                        product[c, b] = product.get((c, b), 0) - w * v
        for j, product in sorted(products.items()):
            coeffs: dict[int, int] = {}
            residual = dict(product)
            for cell, value in product.items():
                k = lead.get(cell)
                if value and k is not None:
                    entries = basis[k].entries
                    q = coeffs[k] = value // entries[cell]
                    for c, u in entries.items():
                        residual[c] = residual.get(c, 0) - q * u
            if any(residual.values()):
                terms = {c: v for c, v in product.items() if v}
                raise ClosureError(f"{spec}: bracket {terms} is not in the span of the basis")
            if coeffs:
                brackets[i, j] = coeffs
    return brackets


def lie_from_structure_constants(
    table: dict[tuple[int, int], dict[int, int | Fraction]],
    dimension: int | None = None,
) -> LieData:
    """Abstract Lie algebra from a bracket table, validating Jacobi.

    Keys are 0-based pairs; (j, i) entries, when present, must be the
    negations of their (i, j) mates.  The dimension defaults to one more
    than the largest index seen; an index outside 0..dimension-1, in a
    key or a coefficient, is rejected.  Jacobi is checked only on the
    triples that hold a pair with a nonzero bracket and whose third
    index some such pair names, since it holds trivially on the rest (an
    index that no pair names brackets to zero with every element), so
    its cost follows the table.  Messages name the basis 1-based, e_1,
    e_2, ..., as the text format does.
    """
    seen = [k for pair in table for k in pair]
    seen.extend(k for coeffs in table.values() for k in coeffs)
    dim = dimension if dimension is not None else (max(seen) + 1 if seen else 0)
    for k in seen:
        if not 0 <= k < dim:
            raise ValueError(f"e_{k + 1} is outside e_1..e_{dim}")
    brackets: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    for (i, j), coeffs in table.items():
        if not coeffs or i == j:
            if i == j and any(coeffs.values()):
                raise ValueError(f"[e_{i + 1}, e_{i + 1}] must vanish")
            continue
        key, vec = ((i, j), coeffs) if i < j else ((j, i), {k: -v for k, v in coeffs.items()})
        if key in brackets:
            if brackets[key] != {k: v for k, v in vec.items() if v}:
                raise ValueError(f"bracket table is not antisymmetric at [e_{key[0] + 1}, e_{key[1] + 1}]")
        else:
            brackets[key] = {k: v for k, v in vec.items() if v}
    lie = LieData(dimension=dim, brackets=brackets, basis=None)
    _check_jacobi(lie)
    return lie


def _check_jacobi(lie: LieData) -> None:
    """Raise JacobiError at the first failing triple i < j < k holding a stored bracket."""

    def ad(i: int, vec: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
        out: dict[int, int | Fraction] = {}
        for k, coeff in vec.items():
            for l, c in lie.bracket_coeffs(i, k).items():
                out[l] = out.get(l, 0) + coeff * c
        return {k: v for k, v in out.items() if v}

    # an index that no key names brackets to zero with everything: its triples hold
    named = {k for pair in lie.brackets for k in pair}
    triples = {tuple(sorted((a, b, c))) for a, b in lie.brackets for c in named if c != a and c != b}
    for i, j, k in sorted(triples):
        residual: dict[int, int | Fraction] = {}
        for term in (
            ad(i, lie.bracket_coeffs(j, k)),
            ad(k, lie.bracket_coeffs(i, j)),
            ad(j, lie.bracket_coeffs(k, i)),
        ):
            for l, v in term.items():
                residual[l] = residual.get(l, 0) + v
        residual = {l: v for l, v in residual.items() if v}
        if residual:
            raise JacobiError((i, j, k), residual)


def parse_structure_constants(text: str) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Parse the bracket-table format: one line ``i j -> k:coeff[,k:coeff...]``.

    Indices are 1-based ASCII digits in the text (matching written bases
    e_1, e_2, ...) and 0-based in the returned table; an index below 1 is
    rejected, as is a pair listed twice in the same order or an index
    repeated within one line.  A coefficient is an optional sign and ASCII
    digits, or p/q with q nonzero, so no exponent, point, underscore or
    non-ASCII digit reaches ``int`` or ``Fraction``.  Blank lines and '#'
    comments are ignored.
    """

    def index(text: str) -> int:
        if not re.fullmatch("[0-9]+", text.strip()):
            raise ValueError(f"index {text.strip()!r} is not ASCII digits")
        value = int(text)
        if value < 1:
            raise ValueError(f"index {value} is below 1")
        return value - 1

    def coefficient(text: str) -> Fraction:
        if not re.fullmatch("[-+]?[0-9]+(/[0-9]+)?", text.strip()):
            raise ValueError(f"coefficient {text.strip()!r} is not an integer or p/q")
        return Fraction(text.strip())

    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, tail = line.split("->")
            i_text, j_text = head.split()
            coeffs: dict[int, Fraction] = {}
            for piece in tail.strip().split(","):
                k_text, coeff_text = piece.split(":")
                k = index(k_text)
                if k in coeffs:
                    raise ValueError(f"e_{k + 1} appears twice")
                coeffs[k] = coefficient(coeff_text)
            pair = (index(i_text), index(j_text))
            if pair in table:
                raise ValueError(f"[e_{pair[0] + 1}, e_{pair[1] + 1}] is already given")
            table[pair] = coeffs
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise ValueError(f"bad structure-constant line {lineno}: {raw!r} ({exc})") from exc
    return table
