"""Seaweed specifications: parsing, validation, enumeration.

A seaweed subalgebra of a classical Lie algebra is determined by an
algebra family (GL, A, B, C, D), a size parameter n, and two ordered
compositions.  For GL and A both compositions must be full compositions
of n; for B, C and D they are *partial* compositions (sums at most n,
possibly empty), with the convention that the top sum dominates the
bottom sum.

The compact text form is ``<T><n>:<p1>|<p2>|.../<q1>|...``, e.g.
``A5:4|1/2|1|2`` or ``C5:1|4/3``; an empty side is written with nothing
after or before the slash (``D5:1|4/``).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple, Sequence


class AlgebraType(Enum):
    GL = "GL"
    A = "A"
    B = "B"
    C = "C"
    D = "D"

    def __init__(self, tag: str):
        self.full_compositions_required = tag in ("GL", "A")


Composition = tuple[int, ...]


class SeaweedSpec(NamedTuple):
    """Algebra family plus the two defining (partial) compositions.

    ``n`` is the matrix size for GL/A and the rank parameter for B/C/D
    (so the ambient matrices have size 2n+1 for B and 2n for C/D).
    """

    algebra: AlgebraType
    n: int
    top: Composition
    bottom: Composition

    def __str__(self) -> str:
        return format_spec(self)


class ValidationReport(NamedTuple):
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class SpecSyntaxError(ValueError):
    """Raised by parse_spec; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class InvalidSpecError(ValueError):
    """Raised when an operation is handed a spec that fails validation."""

    def __init__(self, spec: SeaweedSpec, report: ValidationReport):
        super().__init__(f"invalid spec {spec}: {', '.join(report.violations)}")
        self.spec = spec
        self.report = report


_TAGS = ("GL", "A", "B", "C", "D")
# Decimal means ASCII digits: str.isdigit also accepts superscript and
# fullwidth digits, which int() then rejects or reads as ASCII.
_DIGITS = "0123456789"
_VALID = ValidationReport()  # the one report of every valid spec
_TOO_LONG = "{} has {} digits, more than Python converts to an int"


def parse_spec(text: str) -> SeaweedSpec:
    """Parse the compact ``<T><n>:<top>/<bottom>`` form.

    Whitespace anywhere in the string is ignored.  Syntax errors carry
    the byte offset into the original text; semantic problems (sums not
    matching n, top/bottom convention) are left to validate().
    """
    stripped = "".join(text.split())
    for tag in _TAGS:
        if stripped.startswith(tag):
            algebra = AlgebraType[tag]
            pos = len(tag)
            break
    else:
        raise SpecSyntaxError("expected algebra tag GL, A, B, C or D", _offset(text, 0))

    start = pos
    while pos < len(stripped) and stripped[pos] in _DIGITS:
        pos += 1
    if pos == start:
        raise SpecSyntaxError("expected decimal n after algebra tag", _offset(text, pos))
    try:
        n = int(stripped[start:pos])
    except ValueError:  # past the interpreter's digit limit for int(str)
        raise SpecSyntaxError(_TOO_LONG.format("n", pos - start), _offset(text, start)) from None

    if pos >= len(stripped) or stripped[pos] != ":":
        raise SpecSyntaxError("expected ':' after n", _offset(text, pos))
    pos += 1

    rest = stripped[pos:]
    if rest.count("/") != 1:
        raise SpecSyntaxError("expected exactly one '/' between compositions", _offset(text, pos))
    top_text, bottom_text = rest.split("/")
    top = _parse_parts(text, top_text, pos)
    bottom = _parse_parts(text, bottom_text, pos + len(top_text) + 1)
    return SeaweedSpec(algebra, n, top, bottom)


def _offset(text: str, k: int) -> int:
    """Offset in ``text`` of its k-th non-whitespace character, or len(text) past the last."""
    chars = [i for i, ch in enumerate(text) if not ch.isspace()]
    return chars[k] if k < len(chars) else len(text)


def _parse_parts(text: str, parts_text: str, start: int) -> Composition:
    """The parts of one composition, ``parts_text``, found at index ``start`` of ``text`` stripped.

    A bad part is reported at the offset in ``text`` of its first
    character; an empty part, at the character after it (len(text) at
    the end).
    """
    if not parts_text:
        return ()
    parts = []
    skipped = 0
    for piece in parts_text.split("|"):
        try:
            part = int(piece) if piece.isascii() and piece.isdigit() else 0
        except ValueError:  # past the interpreter's digit limit for int(str)
            offset = _offset(text, start + skipped)
            raise SpecSyntaxError(_TOO_LONG.format("composition part", len(piece)), offset) from None
        if part < 1:
            offset = _offset(text, start + skipped)
            raise SpecSyntaxError(f"composition part {piece!r} is not a positive integer", offset)
        parts.append(part)
        skipped += len(piece) + 1
    return tuple(parts)


def format_spec(spec: SeaweedSpec) -> str:
    """Canonical formatter; parse_spec(format_spec(s)) == s."""
    top = "|".join(str(p) for p in spec.top)
    bottom = "|".join(str(p) for p in spec.bottom)
    return f"{spec.algebra.value}{spec.n}:{top}/{bottom}"


def validate(spec: SeaweedSpec) -> ValidationReport:
    """Check the structural rules; violations are data, not failures, and a valid spec gets ``_VALID``."""
    algebra, n, top, bottom = spec
    violations = []
    if n < 1:
        violations.append("n-positive")
    if min(top + bottom, default=1) < 1:
        violations.append("parts-positive")
    r, s = sum(top), sum(bottom)
    if algebra.full_compositions_required:
        if r != n or s != n:
            violations.append("A-sums-equal-n")
    else:
        if r > n:
            violations.append("top-sum-le-n")
        if s > n:
            violations.append("bottom-sum-le-n")
        if r < s:
            violations.append("top-sum-ge-bottom-sum")
    return ValidationReport(tuple(violations)) if violations else _VALID


def require_valid(spec: SeaweedSpec) -> None:
    report = validate(spec)
    if not report.ok:
        raise InvalidSpecError(spec, report)


def compositions(n: int) -> Iterator[Composition]:
    """All compositions of n, in cut-mask order: (n) first, (1,...,1) last."""
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        parts = []
        size = 1
        for gap in range(n - 1):
            if mask >> gap & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        yield tuple(parts)


def partial_compositions(n: int) -> Iterator[Composition]:
    """All compositions of 0..n, ordered by total then cut mask."""
    for total in range(n + 1):
        yield from compositions(total)


def enumerate_specs(algebra: AlgebraType, n: int) -> Iterator[SeaweedSpec]:
    """Every valid spec for the family at parameter n, top-major order.

    GL/A yield all ordered pairs of compositions of n (4^(n-1) specs);
    B/C/D yield all ordered pairs of partial compositions with
    sum(top) >= sum(bottom).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if algebra.full_compositions_required:
        tops: Sequence[Composition] = list(compositions(n))
        for top in tops:
            for bottom in tops:
                yield SeaweedSpec(algebra, n, top, bottom)
    else:
        partials = list(partial_compositions(n))
        for top in partials:
            for bottom in partials:
                if sum(top) >= sum(bottom):
                    yield SeaweedSpec(algebra, n, top, bottom)
