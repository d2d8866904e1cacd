"""Verification sweeps and helpers that only the tests and CI use.

Each sweep enumerates one special shape family and checks a closed
criterion (the delta congruence, the xi tails, the split-top gcd
conditions, the rooted-forest criterion) against the meander; they
return their failures.  ``combinatorial_sweep`` runs the combinatorial
routes on every spec up to a size, for CI.  Pytest does not collect
this module; the test modules import it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from seaweeds import oracle
from seaweeds.delta import DeltaReport, NotSinglePathError, TourError, delta_of_spec
from seaweeds.formulas import IndexReport, classify_frobenius, index_closed_form, index_combinatorial, xi
from seaweeds.matrices import SparseIntMatrix, bracket, matrix_dim
from seaweeds.meander import (
    Component,
    Meander,
    TailDegreeError,
    build_meander,
    components,
)
from seaweeds.specs import AlgebraType, SeaweedSpec, compositions, enumerate_specs, format_spec


def reference_mask(spec: SeaweedSpec) -> frozenset[tuple[int, int]]:
    """The admissible mask cell by cell: each top block's lower triangle and each bottom block's upper one.

    B/C/D blocks are the parts, a middle block of 2(n - sum) (plus one
    for B) if nonzero, and the parts reversed.
    """

    def blocks(parts):
        if spec.algebra.full_compositions_required:
            return list(parts)
        middle = 2 * (spec.n - sum(parts)) + (spec.algebra is AlgebraType.B)
        return list(parts) + ([middle] if middle else []) + list(reversed(parts))

    cells = set()
    start = 1
    for size in blocks(spec.top):
        for i in range(start, start + size):
            for j in range(start, i + 1):
                cells.add((i, j))
        start += size
    start = 1
    for size in blocks(spec.bottom):
        for i in range(start, start + size):
            for j in range(i, start + size):
                cells.add((i, j))
        start += size
    return frozenset(cells)


def reference_basis(spec: SeaweedSpec) -> list[dict[tuple[int, int], int]]:
    """The entries of the seaweed basis elements in order, filtered from the sorted mask cells.

    GL: every cell.  A: the off-diagonal cells, then e_ii - e_nn.  B, C,
    D: cell (i, j) with its mirror (N+1-j, N+1-i) at sign -1 (C: +1 off
    the diagonal blocks), from the lesser of the two; an antidiagonal
    cell alone in C, dropped in B and D.
    """
    cells = sorted(reference_mask(spec))
    dim = max(i for i, _ in cells)
    algebra = spec.algebra
    if algebra is AlgebraType.GL:
        return [{cell: 1} for cell in cells]
    if algebra is AlgebraType.A:
        return [{(i, j): 1} for i, j in cells if i != j] + [{(i, i): 1, (dim, dim): -1} for i in range(1, dim)]
    basis = []
    for i, j in cells:
        partner = (dim + 1 - j, dim + 1 - i)
        if (i, j) == partner:
            if algebra is AlgebraType.C:
                basis.append({(i, j): 1})
        elif (i, j) < partner:
            off_blocks = algebra is AlgebraType.C and (i <= dim // 2) != (j <= dim // 2)
            basis.append({(i, j): 1, partner: 1 if off_blocks else -1})
    return basis


def reference_brackets(basis: list[SparseIntMatrix]) -> dict[tuple[int, int], dict[int, Fraction]]:
    """The bracket table of a seaweed basis, one commutator matrix per pair.

    Every pair i < j is bracketed with ``bracket`` and the commutator
    read off the lead cells (the first cell of each element, which lies
    in no other element); the combination must reproduce the commutator
    exactly, or ValueError is raised.
    """
    lead = {min(x.entries): k for k, x in enumerate(basis)}
    table = {}
    for i, x in enumerate(basis):
        for j in range(i + 1, len(basis)):
            product = bracket(x, basis[j]).entries
            coeffs = {}
            for cell, value in product.items():
                if cell in lead:
                    k = lead[cell]
                    coeffs[k] = Fraction(value, basis[k].entries[cell])
            combination = {}
            for k, c in coeffs.items():
                for cell, v in basis[k].entries.items():
                    combination[cell] = combination.get(cell, 0) + c * v
            if {cell: v for cell, v in combination.items() if v} != product:
                raise ValueError(f"[x_{i}, x_{j}] = {product} is not in the span of the basis")
            if coeffs:
                table[i, j] = coeffs
    return table


def reference_skew_rank(rows: dict[int, dict[int, int]]) -> int:
    """Rank over F_p of a skew matrix given by its nonzero rows, each pivot row found by a scan; consumes ``rows``.

    The symplectic elimination of ``oracle._skew_rank`` as it was before
    its pivot rows came from a heap and each pivot pair took one mirrored
    rank-2 update: the sparsest row i, the first in ``rows`` among equals,
    is the pivot row and its partner j is the sparsest row among i's
    columns.  Each touched row takes two ``oracle._add_multiple`` passes,
    one by row i and one by row j, so every entry is reduced on its own,
    with no use of skewness.
    """
    P = oracle.P
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
                oracle._add_multiple(row, row_i, -entry * inverse % P)
            entry = row.pop(i, 0)
            if entry:
                oracle._add_multiple(row, row_j, entry * inverse % P)
            if not row:
                del rows[r]
    return rank


def scan_skew_rank(rows: dict[int, dict[int, int]]) -> int:
    """``oracle._skew_rank`` with every pivot row found by a scan; consumes ``rows``.

    The sparsest row, the first in ``rows`` among equals, is each pivot
    row, eliminated with its partner by ``oracle._pivot_pair``, read from
    the module at each call so a test can record the pivot rows.  This is
    what ``oracle._skew_rank`` does below ``oracle._SCAN_ROWS`` rows.
    """
    rank = 0
    while rows:
        oracle._pivot_pair(rows, min(rows, key=lambda r: len(rows[r])))
        rank += 2
    return rank


def reference_scanned_spectrum(lie, principal) -> dict[int, int]:
    """``oracle._scanned_spectrum`` as it was before it skipped the shifts that are not roots of chi.

    Every shift k of the scan order is ranked (``oracle._shifted_kernel``)
    until the multiplicities reach m; a sum past m raises
    ``SpectrumOvercountError``.
    """
    m = lie.dimension
    scale = oracle._table_scale(lie)
    rows = {r: oracle._reduced(row.items(), scale) for r, row in oracle._ad_rows(lie, principal).items()}
    eigenvalues: dict[int, int] = {}
    total = 0
    for k in oracle._spectrum_scan_order(-m, m + 1):
        mult = oracle._shifted_kernel(rows, m, scale * k % oracle.P)
        if mult:
            eigenvalues[k] = mult
            total += mult
            if total > m:
                raise oracle.SpectrumOvercountError(
                    f"eigenvalue multiplicities {eigenvalues} sum to {total} > dimension {m}"
                )
            if total == m:
                break
    return eigenvalues


def reference_charpoly(matrix: list[list[int]]) -> list[int]:
    """det(tI - A) mod p of a square integer matrix by Faddeev-LeVerrier, constant term first.

    M_0 = 0 and c_m = 1; for k = 1, ..., m, M_k = A M_(k-1) + c_(m-k+1) I
    and c_(m-k) = -tr(A M_k) / k, the division by k < p done mod p.
    """
    P = oracle.P
    m = len(matrix)
    a = [[v % P for v in row] for row in matrix]

    def times_a(b):
        return [[sum(a[i][l] * b[l][j] for l in range(m)) % P for j in range(m)] for i in range(m)]

    coeffs = [0] * m + [1]
    current = [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        current = times_a(current)
        for i in range(m):
            current[i][i] = (current[i][i] + coeffs[m - k + 1]) % P
        trace = sum(times_a(current)[i][i] for i in range(m))
        coeffs[m - k] = -trace * pow(k, -1, P) % P
    return coeffs


def reference_center_floor(lie) -> int:
    """``oracle._center_floor`` read off the basis cells, as it was before it read the compositions; 0 for a table.

    Merge the intervals [min(a, b), max(a, b)] of the cells (a, b) of
    every basis element.  A diagonal matrix constant on each merged
    interval is central once it lies in the algebra: GL holds one per
    interval, type A one fewer (traceless), and types B, C and D the
    mirror-odd ones, one per interval that ends at v <= N/2.
    """
    if not lie.basis:
        return 0
    reach: dict[int, int] = {}  # each interval's start -> its farthest end
    for x in lie.basis:
        for a, b in x.entries:
            lo, hi = (a, b) if a < b else (b, a)
            if reach.get(lo, 0) < hi:
                reach[lo] = hi
    ends: list[int] = []
    for lo in sorted(reach):
        if ends and lo <= ends[-1]:
            ends[-1] = max(ends[-1], reach[lo])
        else:
            ends.append(reach[lo])
    algebra = lie.spec.algebra
    if algebra is AlgebraType.GL:
        return len(ends)
    if algebra is AlgebraType.A:
        return len(ends) - 1
    size = lie.basis[0].dim
    return sum(2 * v <= size for v in ends)


def reference_support_cells(spec: SeaweedSpec, meander: Meander) -> list[tuple[int, int]]:
    """The support cells of the meander functional, as the docstring of ``oracle._meander_functional`` lists them."""
    size = matrix_dim(spec)
    cells = [(w, v) for v, w in meander.top_edges] + meander.bottom_edges
    tail = meander.tail
    if spec.algebra is AlgebraType.C:
        cells += [(v, size + 1 - v) for v in tail]
    else:
        for v, w in zip(tail[::2], tail[1::2]):
            cells += [(v, w), (v, size + 1 - w)]
        if len(tail) % 2:
            cells.append((tail[-1], spec.n + 1))
    return cells


def reference_meander_functional(lie, meander: Meander) -> list[int]:
    """The meander functional as ``oracle._meander_functional`` read it before the cell index: 1 on each element that meets the support."""
    support = set(reference_support_cells(lie.spec, meander))
    return [0 if support.isdisjoint(x.entries) else 1 for x in lie.basis]


def component_counts(comps: list[Component]) -> tuple[int, int, int]:
    """The cycles, the paths, and the paths with zero or two tail vertices of a component list."""
    cycles = sum(1 for c in comps if c.kind == "cycle")
    tailed = sum(1 for c in comps if c.kind == "path" and c.tail_count in (0, 2))
    return cycles, len(comps) - cycles, tailed


def reference_components(meander: Meander) -> list[Component]:
    """The component walk one vertex at a time, with a side flag and a seen mark.

    Vertices are scanned in increasing order, so every path is first met
    at its lower-numbered endpoint and walked from there; every vertex
    left over then lies on a cycle, which is first met at its minimum
    and walked from it along its top edge.  Tail membership is looked up
    at every vertex, and a tail vertex with both arcs raises
    ``TailDegreeError`` when the walk reaches it.
    """
    n, top, bottom = meander.n_vertices, meander.top, meander.bottom
    tail_set = set(meander.tail)
    seen = bytearray(n + 1)
    comps: list[Component] = []
    for kind in ("path", "cycle"):
        for start in range(1, n + 1):
            if seen[start] or (kind == "path" and top[start] and bottom[start]):
                continue
            arcs = (top, bottom) if top[start] else (bottom, top)
            order = []
            tail_count = 0
            v, side = start, 0
            while v and not seen[v]:
                seen[v] = 1
                order.append(v)
                if v in tail_set:
                    if top[v] and bottom[v]:
                        raise TailDegreeError(f"tail vertex {v} carries a top and a bottom arc")
                    tail_count += 1
                v = arcs[side][v]
                side ^= 1
            comps.append(Component(tuple(order), kind, tail_count))

    comps.sort(key=lambda c: c.vertices[0])
    return comps


def reference_index_combinatorial(spec: SeaweedSpec) -> IndexReport:
    """``index_combinatorial`` as it was before the winding-down moves: the component walk of the built meander."""
    cycles, paths, tailed = component_counts(components(build_meander(spec)))
    if spec.algebra is AlgebraType.GL:
        return IndexReport(2 * cycles + paths, cycles, paths, tailed)
    if spec.algebra is AlgebraType.A:
        return IndexReport(2 * cycles + paths - 1, cycles, paths, tailed)
    return IndexReport(2 * cycles + tailed, cycles, paths, tailed)


def reference_gcd3_path(spec: SeaweedSpec) -> bool:
    """Whether vertices n - 2 and n lie on one component of the built meander, by the component walk.

    This is the question the ``GCD3_PATH`` rule (type D, a|b over n - 3
    with a + b = n and b > 3) answers off the winding-down moves.
    """
    n = spec.n
    comps = components(build_meander(spec))
    return any(n - 2 in comp.vertices and n in comp.vertices for comp in comps)


def reference_delta(spec: SeaweedSpec) -> DeltaReport:
    """``delta_of_spec`` by iterating t(b(.)) n times from the path's lower endpoint.

    Every missing partner is filled with the vertex itself, and the
    meander is read through ``reference_components``.
    """
    meander = build_meander(spec)
    if spec.algebra is not AlgebraType.A:
        raise NotSinglePathError("the delta construction needs a type-A seaweed")
    comps = reference_components(meander)
    cycles, paths, _ = component_counts(comps)
    if cycles or paths != 1:
        raise NotSinglePathError(
            f"meander is not a single path ({cycles} cycle{'s' * (cycles != 1)}, "
            f"{paths} path{'s' * (paths != 1)})"
        )
    n = meander.n_vertices
    top = [w or v for v, w in enumerate(meander.top)]
    bottom = [w or v for v, w in enumerate(meander.bottom)]
    start = comps[0].vertices[0]
    sigma = [start]
    v = start
    for _ in range(n - 1):
        v = top[bottom[v]]
        sigma.append(v)
    if top[bottom[v]] != start or len(set(sigma)) != n:
        raise TourError(f"t∘b from {start} does not close into one {n}-cycle")
    diffs = tuple((sigma[(k + 1) % n] - sigma[k]) % n for k in range(n))
    counts = Counter(diffs)
    distinct = tuple(sorted(counts.items(), key=lambda item: (item[1], item[0])))
    canonical = diffs[0] if len(counts) == 1 else None
    return DeltaReport(tuple(sigma), diffs, distinct, canonical)


def degree(meander: Meander, v: int) -> int:
    return sum(1 for e in meander.top_edges if v in e) + sum(
        1 for e in meander.bottom_edges if v in e
    )


def canonical_delta_formula(a: int, b: int, c: int, d: int) -> int:
    """(a+d) mod n for a Frobenius a|b over c|d seaweed (n = a+b = c+d).

    The precondition is checked on the meander; non-Frobenius shapes and
    mismatched sums are rejected.
    """
    n = a + b
    if c + d != n:
        raise ValueError("top and bottom sums differ")
    spec = SeaweedSpec(AlgebraType.A, n, (a, b), (c, d))
    comps = components(build_meander(spec))
    cycles, paths, _ = component_counts(comps)
    if cycles or paths != 1:
        raise NotSinglePathError(f"{spec} is not Frobenius ({len(comps)} components)")
    return (a + d) % n


def delta_congruence_sweep(n_max: int = 20) -> list[dict]:
    """For Frobenius a|b over c|d shapes, every cyclic difference of the
    permutation tour must equal (a+d) mod n.  Returns failures."""
    failures = []
    for n in range(2, n_max + 1):
        for a in range(1, n):
            b = n - a
            for c in range(1, n):
                d = n - c
                spec = SeaweedSpec(AlgebraType.A, n, (a, b), (c, d))
                if index_combinatorial(spec).index != 0:
                    continue
                report = delta_of_spec(spec)
                expected = (a + d) % n
                if report.canonical_delta != expected:
                    failures.append(
                        {
                            "spec": format_spec(spec),
                            "expected_delta": expected,
                            "differences": list(report.differences),
                        }
                    )
    return failures


def delta_cardinality_probe(n_max: int = 12) -> list[dict]:
    """The cardinality pattern of Frobenius a_1|...|a_m over n, for n <= n_max.

    With the one bottom block [1, n], top block [l_k, h_k] is one piece
    of t∘b with shift l_k + h_k - n - 1.  So the distinct differences
    are exactly (l_k + h_k - n - 1) mod n, and each value's cardinality
    is the sum of the parts a_k that share it: ``expected``, in the
    order of ``distinct_values``, and ``exact`` when the tour agrees.
    Two parts can share a value, and then their cardinalities merge:
    the cardinalities always coarsen the top parts (``coarsens``, every
    cardinality a sum of a group of parts) and equal them (``matches``)
    only when the values are distinct.
    """
    results = []
    for n in range(1, n_max + 1):
        for top in compositions(n):
            spec = SeaweedSpec(AlgebraType.A, n, top, (n,))
            if index_combinatorial(spec).index != 0:
                continue
            report = delta_of_spec(spec)
            shared = Counter()
            h = 0
            for part in top:
                l, h = h + 1, h + part
                shared[(l + h - n - 1) % n] += part
            expected = tuple(sorted(shared.items(), key=lambda item: (item[1], item[0])))
            cardinalities = sorted(count for _, count in report.distinct_values)
            results.append(
                {
                    "spec": format_spec(spec),
                    "cardinalities": cardinalities,
                    "top_parts": sorted(top),
                    "expected": expected,
                    "exact": report.distinct_values == expected,
                    "matches": cardinalities == sorted(top),
                    "coarsens": _is_coarsening(sorted(top), cardinalities),
                }
            )
    return results


def _is_coarsening(parts: list[int], targets: list[int]) -> bool:
    """True when `parts` can be split into groups summing to `targets`."""
    if sum(parts) != sum(targets):
        return False
    if not targets:
        return not parts

    from itertools import combinations

    goal = max(targets)
    rest_targets = list(targets)
    rest_targets.remove(goal)
    indexed = list(enumerate(parts))
    for r in range(1, len(indexed) + 1):
        for chosen in combinations(indexed, r):
            if sum(p for _, p in chosen) == goal:
                picked = {i for i, _ in chosen}
                rest = [p for i, p in indexed if i not in picked]
                if _is_coarsening(rest, rest_targets):
                    return True
    return False


def xi_tail2_sweep(n_max: int = 40) -> list[dict]:
    """Type D, configuration III, c = n-3, gcd(a+b, b+c) = 1: the xi
    criterion must match the meander verdict on every shape.

    The classifier takes delta = (a + (n-c)) mod n from the congruence;
    here it is independently read off the permutation tour of the
    completed a|b over c|n-c shape (a single path since the gcd is 1)
    and the two must agree.
    """
    failures = []
    for n in range(4, n_max + 1):
        c = n - 3
        for b in range(1, n):
            a = n - b
            if math.gcd(a + b, b + c) != 1:
                continue
            spec = SeaweedSpec(AlgebraType.D, n, (a, b), (c,))
            delta = (a + (n - c)) % n
            completed = SeaweedSpec(AlgebraType.A, n, (a, b), (c, n - c))
            from_tour = delta_of_spec(completed).canonical_delta
            value = xi(n, delta)
            by_xi = Fraction(0) < value < Fraction(1, 2)
            by_meander = index_combinatorial(spec).index == 0
            if by_xi != by_meander or from_tour != delta:
                failures.append(
                    {
                        "spec": format_spec(spec),
                        "xi": str(value),
                        "meander": by_meander,
                        "delta": delta,
                        "delta_from_tour": from_tour,
                    }
                )
    return failures


def xi_tail4_sweep(n_max: int = 44) -> list[dict]:
    """Type D, configuration III, c = n-5, gcd(a+b, b+c) = 2: the halved
    xi criterion must match the meander verdict on every shape."""
    failures = []
    for n in range(6, n_max + 1):
        c = n - 5
        for b in range(1, n):
            a = n - b
            if math.gcd(a + b, b + c) != 2:
                continue
            delta = (a + (n - c)) % n
            value = xi(n // 2, delta // 2)
            by_xi = Fraction(0) < value < Fraction(1, 2)
            spec = SeaweedSpec(AlgebraType.D, n, (a, b), (c,))
            by_meander = index_combinatorial(spec).index == 0
            if by_xi != by_meander:
                failures.append({"spec": format_spec(spec), "xi": str(value), "meander": by_meander})
    return failures


def split_top_gcd_sweep(n_max: int = 30) -> list[dict]:
    """Full-top three-block type C: conditions (i)-(iii) hold exactly for
    the index-zero shapes."""
    failures = []
    for n in range(2, n_max + 1):
        for a in range(1, n):
            b = n - a
            for c in range(1, n + 1):
                g = math.gcd(a + b, b + c)
                predicted = (
                    (c == n - 1 and g == 1)
                    or (c == n - 2 and g == 1)
                    or (c == n - 3 and g == 2 and a % 2 and b % 2 and c % 2)
                )
                spec = SeaweedSpec(AlgebraType.C, n, (a, b), (c,))
                actual = index_combinatorial(spec).index == 0
                if predicted != actual:
                    failures.append({"spec": format_spec(spec), "predicted": predicted})
    return failures


def forest_criterion_sweep(algebra: AlgebraType, n_max: int) -> list[dict]:
    """Index zero iff no cycles and every path has exactly one tail endpoint."""
    failures = []
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            comps = components(build_meander(spec))
            rooted_forest = all(
                c.kind == "path" and c.tail_count == 1 for c in comps
            )
            frobenius = index_combinatorial(spec).index == 0
            if rooted_forest != frobenius:
                failures.append({"spec": format_spec(spec)})
    return failures


def combinatorial_sweep(
    gl_a_n_max: int = 10, bcd_n_max: int = 8
) -> tuple[dict[tuple[str, int], tuple[int, int]], list[dict]]:
    """The combinatorial routes on every spec of GL/A up to ``gl_a_n_max`` and B/C/D up to ``bcd_n_max``.

    ``classify_frobenius`` raises ``RuleDisagreement`` where a rule
    contradicts the meander index.  Beside it, ``index_combinatorial``
    (the winding-down moves) must equal ``reference_index_combinatorial``
    (the component walk), the verdict must be index zero by the walk,
    ``index_closed_form`` must equal the verdict's closed form, and a
    closed value must equal the walk's index.  Returns the spec and
    Frobenius counts per (family, n), and the failures.
    """
    counts = {}
    failures = []
    for algebra in AlgebraType:
        n_max = gl_a_n_max if algebra.full_compositions_required else bcd_n_max
        for n in range(1, n_max + 1):
            specs = frobenius = 0
            for spec in enumerate_specs(algebra, n):
                verdict = classify_frobenius(spec)
                report = index_combinatorial(spec)
                walk = reference_index_combinatorial(spec)
                if report != walk or verdict.frobenius != (walk.index == 0):
                    failures.append({"spec": format_spec(spec), "winding": report, "walk": walk})
                closed = index_closed_form(spec)
                if closed != verdict.closed_form or (closed is not None and closed[0] != walk.index):
                    failures.append({"spec": format_spec(spec), "closed_form": closed, "index": walk.index})
                specs += 1
                frobenius += verdict.frobenius
            counts[algebra.value, n] = (specs, frobenius)
    return counts, failures
