"""Index computation and Frobenius classification.

Three layers live here:

* ``index_combinatorial`` counts the meander's cycles and paths
  (always applicable, authoritative for every family).  It reads them
  off the winding-down moves on the two compositions (flip, component
  and block elimination, batched rotation, pure contraction), which
  reduce one block pair at a time as Euclid's algorithm does and build
  no meander.  The counts equal the component walk's, which stays the
  test reference: the tests check all four on every GL/A spec with
  n <= 8 and every B/C/D spec with n <= 6;
* ``index_closed_form`` evaluates the gcd/floor formulas on the shapes
  whose hypotheses they cover, returning None elsewhere;
* ``classify_frobenius`` returns the verdict of ``index_combinatorial``
  together with the strongest classification rule whose hypotheses
  hold, carrying gcd, delta and xi certificates, and the closed form
  evaluated on the type-D configuration read off the two sums.  No
  rule builds or walks the meander: ``GCD3_PATH`` asks the moves too.

The xi criterion compares the exact rational
xi(n, d) = (d**(phi(n)-1) mod n) / n against one half; no floating
point is involved anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .meander import TAIL_I, TAIL_II, TAIL_III, TAIL_NONE, d_tail_config
from .meander import tail as meander_tail
from .specs import AlgebraType, SeaweedSpec, require_valid

_GL, _A, _B, _C, _D = AlgebraType


class IndexReport(NamedTuple):
    """The meander index and the component counts it is read from."""

    index: int
    cycles: int
    paths: int
    tailed_paths: int


class FrobeniusVerdict(NamedTuple):
    """One analysis of a spec: the verdict, its rule and certificate, the
    meander index it rests on, and the closed form (``index_closed_form``:
    a (value, rule) pair, or None where no formula applies).  ``report``
    is ``index_combinatorial``'s, read off the winding-down moves."""

    frobenius: bool
    justification: str
    report: IndexReport
    certificate: dict
    closed_form: tuple[int, str] | None = None


def euler_phi(n: int) -> int:
    """Euler's totient by trial-division factorization."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def xi(n: int, delta: int) -> Fraction:
    """Fractional part of delta**(phi(n)-1) / n, as an exact rational."""
    if n < 2:
        raise ValueError("xi needs n >= 2")
    if delta < 1:
        raise ValueError("xi needs delta >= 1")
    return Fraction(pow(delta, euler_phi(n) - 1, n), n)


def index_combinatorial(spec: SeaweedSpec) -> IndexReport:
    """The meander's index and component counts, read off the winding-down moves; no meander is built.

    ``_wind_down`` reduces the two compositions to the cycles C and
    paths P that its eliminations remove, and the blocks left on the
    longer side.  GL gives 2C + P and A gives 2C + P - 1.  In B/C/D the
    blocks left lie on the tail: one of size k adds ceil(k/2) paths,
    floor(k/2) of them tailed, and each of the n - r vertices past the
    top sum r is one more tailed path; the index is 2C plus the tailed
    paths.  Type D with r - s odd moves a vertex into or out of the
    tail: one tailed path fewer if r < n (configuration II), and at
    r = n (III) one fewer when the last block left has size above 1 and
    one more when it has size 1.  The counts equal those read off the
    component list, ``components(build_meander(spec))``: its cycles, its
    paths, and the paths whose ``tail_count`` is not 1.  The spec is
    validated first.
    """
    require_valid(spec)
    algebra, n, top, bottom = spec
    cycles, paths, left = _wind_down(top, bottom)
    if algebra is _GL:
        return IndexReport(2 * cycles + paths, cycles, paths, paths)
    if algebra is _A:
        return IndexReport(2 * cycles + paths - 1, cycles, paths, paths)
    isolated = n - sum(top)
    tailed = paths = paths + isolated
    for k in left:
        paths += k - k // 2
        tailed += k // 2
    if algebra is _D and sum(left) % 2:  # r - s odd
        tailed += 1 if not isolated and left[-1] == 1 else -1
    return IndexReport(2 * cycles + tailed, cycles, paths, tailed)


def _wind_down(top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """The cycles and paths that the winding-down moves remove from ``top`` over ``bottom``, and the blocks left.

    Each side is a stack of parts.  The first move that fits a1 over b1
    is applied until one side is empty:

    * flip, if a1 < b1: the sides swap;
    * component elimination, if a1 = b1 = c: c // 2 cycles and c % 2
      paths leave;
    * block elimination, if a1 = 2b1: b1|a2|... over b2|...;
    * rotation, if b1 < a1 < 2b1: the k = (b1 - 1) // d rotations in a
      row that keep d = a1 - b1 are one step,
      (a1, b1) -> (b1 - (k-1)d, b1 - kd);
    * pure contraction, if a1 > 2b1: (a1 - 2b1)|b1|a2|... over b2|....

    Every move keeps the difference of the side sums, so the blocks
    left, returned in composition order, sum to it.  The batched
    rotations make the moves Euclid-like, not one per vertex:
    ``A1000000:377|999623/1000000`` takes 16 moves and its n = 10**18
    analogue 17; 2,000 random GL/A shapes with n from 10**5 to 10**18
    and 2 to 40 parts took a median of 70 moves per part, at most 114.
    """
    a = list(reversed(top))  # a[-1] is a1
    b = list(reversed(bottom))
    cycles = paths = 0
    while a and b:
        a1 = a[-1]
        b1 = b[-1]
        if a1 < b1:
            a, b, a1, b1 = b, a, b1, a1
        if a1 == b1:
            a.pop()
            b.pop()
            cycles += a1 // 2
            paths += a1 % 2
        elif a1 == 2 * b1:
            a[-1] = b1
            b.pop()
        elif a1 < 2 * b1:
            d = a1 - b1
            b1 -= (b1 - 1) // d * d  # b1 - kd
            a[-1] = b1 + d
            b[-1] = b1
        else:
            a[-1] = b1
            a.append(a1 - 2 * b1)
            b.pop()
    left = a or b
    left.reverse()
    return cycles, paths, left


# --- closed forms ---------------------------------------------------------

# Rule tags name the shape family and the criterion, not a source:
# GCD_THREE_BLOCK   type A, a|b|c over n (or a|b over c|d): gcd(a+b, b+c) - 1
# GCD_TWO_BLOCK     type A, a|c over n: gcd(a, c) - 1
# GCD_SPLIT_TOP     types B/C, a|b over c with a+b = n, c in {n-1, n-2}
# GCD_SPLIT_BOTTOM  types B/C, n over a|b with a+b = n-1 or n-2
# TWO_PART          at most one part per side (B/C/D)
# CONFIG_I/II       type-D reductions by tail configuration
# TAIL_GAP_MATCH    type-D configuration III with b = n-c
RULE_GCD_THREE_BLOCK = "GCD_THREE_BLOCK"
RULE_GCD_TWO_BLOCK = "GCD_TWO_BLOCK"
RULE_GCD_SPLIT_TOP = "GCD_SPLIT_TOP"
RULE_GCD_SPLIT_BOTTOM_1 = "GCD_SPLIT_BOTTOM_1"
RULE_GCD_SPLIT_BOTTOM_2 = "GCD_SPLIT_BOTTOM_2"
RULE_TWO_PART = "TWO_PART"
RULE_CONFIG_I = "CONFIG_I"
RULE_CONFIG_II = "CONFIG_II"
RULE_TAIL_GAP_MATCH = "TAIL_GAP_MATCH"


def index_closed_form(spec: SeaweedSpec) -> tuple[int, str] | None:
    """First matching gcd/floor formula, or None when no hypothesis holds.

    No rule is attempted for type-A tops with four or more parts: counting
    components there is provably not a gcd of polynomials in the parts.
    """
    _, config = meander_tail(spec)
    return _closed_form(spec, config)


def _closed_form(spec: SeaweedSpec, config: str) -> tuple[int, str] | None:
    """``index_closed_form`` for a valid spec with tail configuration ``config``."""
    algebra = spec.algebra
    if algebra is _A:
        return _closed_form_a(spec)
    if algebra is _B or algebra is _C:
        return _closed_form_bc(spec.n, spec.top, spec.bottom)
    if algebra is _D:
        return _closed_form_d(spec, config)
    return None


def _closed_form_a(spec: SeaweedSpec) -> tuple[int, str] | None:
    n, top, bottom = spec.n, spec.top, spec.bottom
    if len(top) == 3 and bottom == (n,):
        a, b, c = top
        return math.gcd(a + b, b + c) - 1, RULE_GCD_THREE_BLOCK
    if len(top) == 2 and len(bottom) == 2:
        (a, b), (c, _) = top, bottom
        return math.gcd(a + b, b + c) - 1, RULE_GCD_THREE_BLOCK
    if len(top) == 2 and bottom == (n,):
        a, c = top
        return math.gcd(a, c) - 1, RULE_GCD_TWO_BLOCK
    return None


def _closed_form_bc(n: int, top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[int, str] | None:
    if len(top) == 2 and len(bottom) == 1 and sum(top) == n:
        a, b = top
        c = bottom[0]
        if c in (n - 1, n - 2):
            return math.gcd(a + b, b + c) - 1, RULE_GCD_SPLIT_TOP
    if top == (n,) and len(bottom) == 2:
        a, b = bottom
        if a + b == n - 1:
            return math.gcd(a + b, b + 1) - 1, RULE_GCD_SPLIT_BOTTOM_1
        if a + b == n - 2:
            return math.gcd(a + b, b + 2) - 1, RULE_GCD_SPLIT_BOTTOM_2
    if len(top) <= 1 and len(bottom) <= 1:
        a = top[0] if top else 0
        b = bottom[0] if bottom else 0
        if a == b:
            return n, RULE_TWO_PART
        # The floor branch is keyed on the parity of a, not of n; the two
        # agree on the full-top case a == n and the sweeps pin the rest.
        if a % 2 == 0:
            return n - a + (a - b) // 2, RULE_TWO_PART
        return n - a + (a - b - 1) // 2, RULE_TWO_PART
    return None


def _closed_form_d(spec: SeaweedSpec, config: str) -> tuple[int, str] | None:
    n, top, bottom = spec.n, spec.top, spec.bottom
    if config == TAIL_I:
        # Same tail as type C, hence the same meander count.
        inner = _closed_form_bc(n, top, bottom)
        if inner is None:
            return None
        value, rule = inner
        return value, f"{RULE_CONFIG_I}+{rule}"
    if len(top) != 2 or len(bottom) != 1:
        return None
    a, b = top
    c = bottom[0]
    if config == TAIL_II:
        inner = SeaweedSpec(_C, a + b, top, bottom)
        reduced = index_combinatorial(inner).index
        return n - (a + b + 1) + reduced, RULE_CONFIG_II
    if config == TAIL_III and b == n - c:
        # b is forced odd here (the tail offset b must be odd in III).
        if b == 1:
            # The component on the last vertex falls outside the tail and
            # contributes one; cross-checked against the rank oracle.
            return a + 1, RULE_TAIL_GAP_MATCH
        return a + (b - 3) // 2, RULE_TAIL_GAP_MATCH
    return None


# --- Frobenius classification --------------------------------------------

TAG_GL_NEVER = "GL_NEVER_FROBENIUS"
TAG_MEANDER_PATH = "MEANDER_SINGLE_PATH"
TAG_MEANDER_FOREST = "MEANDER_FOREST"
# Classifier tags, by shape family and criterion:
# SPLIT_TOP_GCD_C1/C2/C3   B/C split-top shapes: coprime at c = n-1 or n-2,
#                          or all-odd gcd 2 at c = n-3 (family tag alone
#                          means none matched, hence not Frobenius)
# TAIL_GAP_MATCH           D config III, b = n-c: index formula decides
# SHORT_TAIL_BLOCK         D config III, b < n-c: only b=2 at c=n-3 and
#                          b=3 at c=n-5 with even n survive
# GCD3_PATH                D config III, c = n-3, the two outermost tail-
#                          side vertices share a path: Frobenius iff gcd 3
# XI_TAIL2 / XI_TAIL4      totient criteria on the tails of size 2 and 4
# TAIL4_GCD_REQUIRED       c = n-5 needs gcd 2 with a, b, c odd
# TAIL_TOO_LONG            c not in {n-3, n-5} with b > n-c: never Frobenius
# DETACHED_BLOCK_SIZE      a detached final top block must have size 2 or 3
TAG_SPLIT_TOP_GCD = "SPLIT_TOP_GCD"
TAG_SPLIT_TOP_GCD_C1 = "SPLIT_TOP_GCD_C1"
TAG_SPLIT_TOP_GCD_C2 = "SPLIT_TOP_GCD_C2"
TAG_SPLIT_TOP_GCD_C3 = "SPLIT_TOP_GCD_C3"
TAG_TAIL_GAP_MATCH = "TAIL_GAP_MATCH"
TAG_SHORT_TAIL_BLOCK = "SHORT_TAIL_BLOCK"
TAG_CONFIG_II = "CONFIG_II"
TAG_GCD3_PATH = "GCD3_PATH"
TAG_XI_TAIL2 = "XI_TAIL2"
TAG_XI_TAIL4 = "XI_TAIL4"
TAG_TAIL4_GCD_REQUIRED = "TAIL4_GCD_REQUIRED"
TAG_TAIL_TOO_LONG = "TAIL_TOO_LONG"
TAG_DETACHED_BLOCK_SIZE = "DETACHED_BLOCK_SIZE"


class RuleDisagreement(AssertionError):
    """A classification rule contradicted the meander verdict (a bug)."""


def classify_frobenius(spec: SeaweedSpec) -> FrobeniusVerdict:
    """Meander-index verdict with the strongest applicable rule attached.

    The verdict itself always comes from ``index_combinatorial``, which
    validates the spec; whenever a closed rule decides the same question
    its answer is checked against the index and a disagreement raises.
    The type-D configuration is read off the two sums; no meander is built.
    """
    report = index_combinatorial(spec)
    algebra, n, top, bottom = spec
    config = d_tail_config(sum(top), sum(bottom), n) if algebra is _D else TAIL_NONE
    closed = _closed_form(spec, config)
    frobenius = report.index == 0
    tag, certificate, decided = _justification(spec, report, config, closed)
    if decided is not None and decided != frobenius:
        raise RuleDisagreement(
            f"{tag} predicts frobenius={decided} but meander index is {report.index} for {spec}"
        )
    return FrobeniusVerdict(frobenius, tag, report, certificate, closed)


def _justification(spec: SeaweedSpec, report: IndexReport, config: str, closed):
    """Return (tag, certificate, decided) where decided is the rule's own
    verdict when its hypotheses fully determine one, else None.  The type-D
    CONFIG_II and TAIL_GAP_MATCH rules read their index off ``closed``."""
    algebra = spec.algebra
    if algebra is _GL:
        # 2C+P >= 1 on a nonempty vertex set.
        return TAG_GL_NEVER, {}, False
    if algebra is _A:
        return TAG_MEANDER_PATH, {"cycles": report.cycles, "paths": report.paths}, None
    if algebra is _B or algebra is _C:
        return _justify_bc(spec.n, spec.top, spec.bottom)
    return _justify_d(spec, report, config, closed)


def _justify_bc(n: int, top: tuple[int, ...], bottom: tuple[int, ...]):
    if len(top) == 2 and sum(top) == n and len(bottom) == 1:
        a, b = top
        c = bottom[0]
        g = math.gcd(a + b, b + c)
        cert = {"gcd": g, "a": a, "b": b, "c": c}
        if c == n - 1 and g == 1:
            return TAG_SPLIT_TOP_GCD_C1, cert, True
        if c == n - 2 and g == 1:
            return TAG_SPLIT_TOP_GCD_C2, cert, True
        if c == n - 3 and g == 2 and a % 2 and b % 2 and c % 2:
            return TAG_SPLIT_TOP_GCD_C3, cert, True
        return TAG_SPLIT_TOP_GCD, cert, False
    return TAG_MEANDER_FOREST, {}, None


def _justify_d(spec: SeaweedSpec, report: IndexReport, config: str, closed: tuple[int, str] | None):
    """The type-D rules.  ``GCD3_PATH`` (a|b over c = n - 3, a + b = n,
    b > 3) asks if n - 2 and n share a path.  The type-A meander of a|b
    over c|3 adds the bottom arc (n - 2, n) to this one, where both lack
    a bottom arc and so end paths: the arc closes a cycle exactly when
    they end the same path, and joins two paths otherwise.  So the moves
    count more cycles on a|b over c|3 than ``report`` exactly then."""
    n, top, bottom = spec.n, spec.top, spec.bottom
    if config == TAIL_I:
        tag, cert, decided = _justify_bc(n, top, bottom)
        if tag != TAG_MEANDER_FOREST:
            return f"{RULE_CONFIG_I}+{tag}", cert, decided
        return TAG_MEANDER_FOREST, {}, None
    if config == TAIL_II and len(top) == 2 and len(bottom) == 1:
        value = closed[0]
        isolated = n - (sum(top) + 1)
        return TAG_CONFIG_II, {"isolated": isolated, "inner_index": value - isolated}, value == 0
    if config != TAIL_III:
        return TAG_MEANDER_FOREST, {}, None

    if len(top) == 2 and len(bottom) == 1:
        a, b = top
        c = bottom[0]
        d = n - c
        g = math.gcd(a + b, b + c)
        if b == d:
            return TAG_TAIL_GAP_MATCH, {"index": closed[0]}, closed[0] == 0
        if b < d:
            ok = (b == 2 and c == n - 3) or (b == 3 and c == n - 5 and n % 2 == 0)
            return TAG_SHORT_TAIL_BLOCK, {"b": b, "c": c}, ok
        # b > n - c: tail of size two (c = n-3) or four (c = n-5), else never.
        if c == n - 3:
            if _wind_down(top, (c, 3))[0] > report.cycles:
                return TAG_GCD3_PATH, {"gcd": g}, g == 3
            if g == 1:
                delta = (a + d) % n
                value = xi(n, delta)
                cert = {"gcd": g, "delta": delta, "xi": value}
                return TAG_XI_TAIL2, cert, Fraction(0) < value < Fraction(1, 2)
            return TAG_MEANDER_FOREST, {"gcd": g}, None
        if c == n - 5:
            if g == 2 and a % 2 and b % 2 and c % 2:
                delta = (a + d) % n
                value = xi(n // 2, delta // 2)
                cert = {"gcd": g, "delta": delta, "xi": value}
                return TAG_XI_TAIL4, cert, Fraction(0) < value < Fraction(1, 2)
            return TAG_TAIL4_GCD_REQUIRED, {"gcd": g}, False
        return TAG_TAIL_TOO_LONG, {"c": c}, False

    # Multi-part configuration III: a final top block lying beyond the
    # bottom composition separates from the rest, and only sizes 2 and 3
    # leave its subgraph rooted in the tail.
    if top and bottom:
        last = top[-1]
        if last < n - sum(bottom) and last not in (2, 3):
            return TAG_DETACHED_BLOCK_SIZE, {"last_top_part": last}, False
    return TAG_MEANDER_FOREST, {}, None
