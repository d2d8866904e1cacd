"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed moves by
up to twofold, switching within a second or holding for minutes (CPU
time moves with wall time, so it is not only scheduling).  ``calibrate``
times a fixed piece of pure-Python work, independent of the ``seaweeds``
package and of the seed, of the kinds the package does: Fraction
Gauss-Jordan, integer Bareiss elimination and command-line parsing.
``HostSpeed`` repeats it around every measured step and, inside a pass,
between inputs at least every ``EVERY_S`` seconds.  A step's *reference
time* is its measured time scaled by ``REFERENCE_S`` over the mean
calibration time around it: the time the step would take on a host
running the calibration in ``REFERENCE_S`` seconds.  The runner reports
reference times and keeps the raw ones in its record.

The calibration runs with the garbage collector off, so a large heap
left by the program does not slow it; nothing it allocates outlives it
or needs the collector to be freed, so it does not move the program's
own collections (which would move its peak memory).
"""

from __future__ import annotations

import argparse
import functools
import gc
import random
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# About the calibration time on a 2-vCPU Xeon at 2.1 GHz when its host is
# quiet; any fixed value works, it only sets the scale of reference times.
REFERENCE_S = 0.005
# Longest stretch of a pass without a calibration (one input may be longer).
# The host's speed holds for a fraction of a second at a time, so a
# calibration further from the input tracks it less well.
EVERY_S = 0.05


def _fraction_gauss_jordan(rng: random.Random, n: int) -> int:
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, n) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _bareiss_rank(rng: random.Random, n: int) -> int:
    m = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
    prev, rank = 1, 0
    for c in range(n):
        pivot = next((i for i in range(rank, n) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, n):
            mi, f = m[i], m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(mi, m[rank])]
        prev = p
        rank += 1
    return rank


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once: building a parser leaves cyclic garbage, whose collection
    # would move the program's own garbage collections; parsing leaves none.
    parser = argparse.ArgumentParser(prog="calibrate")
    commands = parser.add_subparsers(dest="command")
    for name in ("index", "meander", "sweep", "spectrum", "delta"):
        command = commands.add_parser(name, help=name)
        command.add_argument("spec")
        command.add_argument("--format", choices=("dot", "json", "tikz"))
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--json", action="store_true")
    return parser


def _argument_parsing(count: int) -> int:
    parser = _parser()
    argv = ["meander", "A5:4|1/2|1|2", "--format", "dot", "--seed", "3"]
    return sum(parser.parse_args(argv).seed for _ in range(count))


def work() -> tuple[int, ...]:
    """The fixed calibration work; its result never changes.

    The mix was chosen so that, measured between two calibrations that
    agree, the time of each workload's inputs moves with the calibration
    time (log-log slope 0.9 to 1.0 on the host named at ``REFERENCE_S``).
    """
    rng = random.Random(20220414)
    return (
        _fraction_gauss_jordan(rng, 8),
        _bareiss_rank(rng, 24),
        _argument_parsing(30),
    )


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Calibration times taken through a run, in order, and the scale
    factors they give to the steps measured between them."""

    def __init__(self):
        self.times: list[float] = []
        self._last = 0.0

    @property
    def latest(self) -> int:
        """Index of the last calibration taken."""
        return len(self.times) - 1

    def calibrate(self) -> int:
        self.times.append(calibrate())
        self._last = perf_counter()
        return self.latest

    def mark(self) -> int:
        """Before an input: calibrate if the last calibration is more than
        ``EVERY_S`` old; the input is measured after calibration ``latest``."""
        if perf_counter() - self._last > EVERY_S:
            self.calibrate()
        return self.latest

    def factor(self, first: int, last: int) -> float:
        """Scale to reference time for a step between calibrations
        ``first`` and ``last``, using every calibration in between."""
        return REFERENCE_S / fmean(self.times[first : last + 1])
