"""Exhaustive cross-validation sweeps.

A sweep enumerates every seaweed of a family up to a size bound and
compares the meander count against the closed forms (where applicable)
and against the exact rank oracle.  Each spec is analysed once: the
classifier's verdict carries the meander count, read off the
winding-down moves, and the closed form.  The verdict is index zero by
construction, and a rule that contradicts it raises ``RuleDisagreement``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from .formulas import classify_frobenius
from .matrices import seaweed_basis
from .oracle import DEFAULT_TRIALS, index_oracle
from .specs import AlgebraType, SeaweedSpec, enumerate_specs, format_spec

CHUNK_SIZE = 64  # specs per task sent to a worker process


@dataclass
class SweepReport:
    algebra: str
    n_range: tuple[int, int]
    specs_checked: int
    mismatches: list[dict]
    frobenius_counts: dict[int, int]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_payload(self) -> dict:
        return {
            "schema": "seaweeds/sweep/v1",
            "algebra": self.algebra,
            "n_range": list(self.n_range),
            "specs_checked": self.specs_checked,
            "mismatches": self.mismatches,
            "frobenius_counts": {str(n): c for n, c in sorted(self.frobenius_counts.items())},
            "elapsed_seconds": round(self.elapsed, 3),
        }


def check_spec(spec: SeaweedSpec, trials: int = DEFAULT_TRIALS, seed: int = 0) -> dict:
    """All-routes record for one spec: meander, closed form, oracle, verdict."""
    verdict = classify_frobenius(spec)
    closed = verdict.closed_form
    oracle_value = index_oracle(seaweed_basis(spec), trials=trials, seed=seed)
    return {
        "spec": format_spec(spec),
        "combinatorial": verdict.report.index,
        "closed_form": None if closed is None else closed[0],
        "closed_form_rule": None if closed is None else closed[1],
        "oracle": oracle_value,
        "frobenius": verdict.frobenius,
        "justification": verdict.justification,
    }


def _mismatch_of(record: dict) -> dict | None:
    problems = []
    if record["closed_form"] is not None and record["closed_form"] != record["combinatorial"]:
        problems.append("closed_form")
    if record["oracle"] != record["combinatorial"]:
        problems.append("oracle")
    if not problems:
        return None
    return {**record, "disagreeing": problems}


def run_sweep(
    algebra: AlgebraType,
    n_max: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    n_min: int = 1,
    workers: int = 1,
) -> SweepReport:
    """Cross-validate every spec of the family with n_min <= n <= n_max.

    The specs go to the pool in chunks of CHUNK_SIZE, and the pool has
    at most one process per chunk and per CPU: under the fork start
    method every process is forked at the first submit, however few
    chunks there are.  A pool of one runs in this process.
    """
    start = time.monotonic()
    specs = [spec for n in range(n_min, n_max + 1) for spec in enumerate_specs(algebra, n)]
    workers = min(workers, -(-len(specs) // CHUNK_SIZE), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(check_spec, specs, repeat(trials), repeat(seed), chunksize=CHUNK_SIZE))
    else:
        records = [check_spec(s, trials, seed) for s in specs]

    mismatches = []
    frobenius_counts: dict[int, int] = {}
    for spec, record in zip(specs, records):
        if record["frobenius"]:
            frobenius_counts[spec.n] = frobenius_counts.get(spec.n, 0) + 1
        bad = _mismatch_of(record)
        if bad is not None:
            mismatches.append(bad)
    mismatches.sort(key=lambda r: r["spec"])
    return SweepReport(
        algebra=algebra.value,
        n_range=(n_min, n_max),
        specs_checked=len(specs),
        mismatches=mismatches,
        frobenius_counts=frobenius_counts,
        elapsed=time.monotonic() - start,
    )
