"""The benchmark's four workloads.

Each workload has a ``setup_*`` that builds its inputs from the seed
(the program sees only these inputs) and a ``pass_*`` that sends every
input once through the public ``seaweeds`` API, as a closed loop with a
single caller, timing each input.  Calls go through module attributes
at call time so that the traced run sees them.  Only the calls into the
program are timed; each output is checked and hashed between calls.

Sizes: ``bench`` is what the gated benchmark runs, ``tiny`` is for the
smoke tests.

An output that fails a check, or whose check raises (malformed JSON, a
changed return type), is recorded as a failed input, never as a fault
of the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from array import array
from pathlib import Path
from time import perf_counter

FAMILIES = ("GL", "A", "B", "C", "D")

# Acceptance fixtures (tests/test_acceptance.py) plus three larger type-A
# shapes; the values are the index every route agrees on.
FIXTURE_INDEX = {
    "GL26:5|7|4|10/8|6|6|6": 3,
    "A5:4|1/2|1|2": 0,
    "A8:3|5/8": 0,
    "A8:4|4/8": 3,
    "C5:1|4/3": 0,
    "C14:7|7/11": 0,
    "B5:3|2/4": 0,
    "D5:1|4/2": 2,
    "D8:3|5/4": 1,
    "D9:4|3/3|3": 2,
    "D9:4|3|2/2|3|1": 1,
    "C8:4|4/7": 0,
    "C8:5|3/6": 0,
    "C8:7|1/5": 0,
    "D8:6|2/5": 0,
    "D9:3|6/6": 0,
    "D10:4|6/7": 0,
    "D14:5|9/9": 0,
    "A10:6|4/7|3": 0,
    "A12:3|4|5/6|6": 0,
    "A14:5|9/14": 0,
}

# Specs with committed meander renderings in tests/data.
FIGURE_SPECS = (
    "A5:4|1/2|1|2",
    "C5:1|4/3",
    "C14:7|7/11",
    "D5:1|4/2",
    "D8:3|5/4",
    "D9:4|3/3|3",
    "D9:4|3|2/2|3|1",
    "A10:6|4/7|3",
)

A4_SPECTRUM = {-1: 1, 0: 3, 1: 3, 2: 1}
Z_FAMILY = range(-3, 4)
Z_INTEGRAL = (0, -2)

# D22:9|13/17 (dim 292, minutes per oracle run), GL26 (14 s) and A14 (3 s)
# are left out, so that a run repeats every input several times.
INDEX_CLI_SPECS = {
    "tiny": ("A5:4|1/2|1|2", "C5:1|4/3", "D5:1|4/2", "A8:4|4/8"),
    "bench": tuple(s for s in FIXTURE_INDEX if s not in ("GL26:5|7|4|10/8|6|6|6", "A14:5|9/14")),
}
INDEX_CLI_FIGURES = {"tiny": ("A5:4|1/2|1|2", "D5:1|4/2"), "bench": FIGURE_SPECS}
# Options of the meander command per figure spec.  Plain dot and json
# have golden files; the others are checked by the digest.  At the bench
# size the 40 meander commands outnumber the 19 index commands, so the
# median latency falls among the (similar) meander renderings, and with
# 59 inputs per pass the tail (p90) sits about six samples per pass below
# the top: inside the cluster of mid-cost index commands (A10, D10, D8,
# A8:3|5/8 at 40-60 ms), not on the edge between two of them.
MEANDER_OPTIONS = (
    ("--format", "dot"),
    ("--format", "json"),
    ("--format", "tikz"),
    ("--format", "svg"),
    ("--format", "dot", "--color-components"),
)
GOLDEN_OPTIONS = {("--format", "dot"): "dot", ("--format", "json"): "json"}

# (n_min, n_max) per family.  The gated size leaves out A1 (the zero
# algebra) so that the number of (family, n) slices is odd and the median
# latency sits inside one slice's samples rather than between two.
SWEEP_RANGE = {
    "tiny": {"GL": (1, 3), "A": (2, 3), "B": (1, 2), "C": (1, 2), "D": (1, 2)},
    "bench": {"GL": (1, 5), "A": (2, 5), "B": (1, 4), "C": (1, 4), "D": (1, 4)},
}
SPECTRUM_N_MAX = {"tiny": 2, "bench": 4}
CLASSIFY_RANGE = {
    "tiny": {"GL": 4, "A": 4, "B": 3, "C": 3, "D": 3},
    "bench": {"GL": 7, "A": 7, "B": 5, "C": 5, "D": 6},
}
# Large-n draw: (n_lo, n_hi, type-A shapes, type-D shapes) per pass.  The
# shapes come from a narrow band, so the seed moves the cost of a pass by
# a few percent at most.  The reported tail (p99.95 at the bench size)
# sits about eight samples per pass below the top, so sixteen shapes put
# it at the middle of the large-shape latencies, pooled over all passes,
# rather than on the few cheapest of them.
LARGE_N = {
    "tiny": (1_000, 1_100, 2, 2),
    "bench": (10_000, 10_500, 13, 3),
}

TRIALS = 5


class PassResult:
    """Timings and checked outputs of one pass over every input.

    Only calls into the program are timed: ``latencies`` holds one entry
    per input and ``other`` the program work that is not one input (spec
    enumeration).  Outputs are checked and hashed between timed calls.
    Latencies are kept as packed doubles, so that the benchmark's own
    memory barely grows with the number of passes a run makes.
    """

    def __init__(self, specs: int):
        self.specs = specs
        self.latencies = array("d")
        self.other: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self._hash = hashlib.sha256()
        # Set by the runner: the host-speed scale of the pass and each
        # latency scaled by the calibrations around it (calibrate.py).
        self.factor = 1.0
        self.ref_latencies = array("d")

    @property
    def wall(self) -> float:
        return sum(self.latencies) + sum(self.other)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def output(self, line: str) -> None:
        """Add one normalized output line to the digest."""
        self._hash.update(line.encode("utf-8") + b"\n")

    def fail(self, label: str, problem: str) -> None:
        self.failures.append(f"{label}: {problem}")


def _golden_path(data_dir: Path, text: str, fmt: str) -> Path:
    safe = text.replace(":", "_").replace("/", "_").replace("|", "-")
    return data_dir / f"{safe}.{fmt}"


# --- oracle_sweep -----------------------------------------------------------


def setup_oracle_sweep(sw, size: str, seed: int, data_dir: Path) -> dict:
    slices = []
    for family, (n_min, n_max) in SWEEP_RANGE[size].items():
        algebra = sw.AlgebraType(family)
        for n in range(n_min, n_max + 1):
            slices.append((family, n, sum(1 for _ in sw.enumerate_specs(algebra, n))))
    return {"slices": slices, "seed": seed, "specs": sum(s[2] for s in slices)}


def pass_oracle_sweep(sw, inputs: dict, mark) -> PassResult:
    """One input is one run_sweep call over one (family, n) slice."""
    result = PassResult(inputs["specs"])
    seed = inputs["seed"]
    for i, (family, n, expected) in enumerate(inputs["slices"]):
        mark(i)
        algebra = sw.AlgebraType(family)
        t0 = perf_counter()
        try:
            report = sw.sweep.run_sweep(algebra, n_max=n, n_min=n, trials=TRIALS, seed=seed, workers=1)
        except Exception as exc:  # a raising input counts as failed
            report = exc
        result.latencies.append(perf_counter() - t0)
        result.attempted += 1
        label = f"sweep {family}{n}"
        if isinstance(report, Exception):
            result.fail(label, f"raised {report!r}")
            continue
        try:
            if report.mismatches or report.specs_checked != expected:
                result.fail(label, f"{len(report.mismatches)} mismatches, {report.specs_checked} specs")
            payload = report.to_payload()
            del payload["elapsed_seconds"]
            result.output(json.dumps(payload, sort_keys=True))
        except Exception as exc:
            result.fail(label, f"checking the output raised {exc!r}")
    return result


def sweep_by_family(sw, size: str, seed: int, workers: int) -> tuple[float, list[str]]:
    """The oracle_sweep inputs as one run_sweep call per family."""
    failures = []
    elapsed = 0.0
    for family, (n_min, n_max) in SWEEP_RANGE[size].items():
        t0 = perf_counter()
        report = sw.sweep.run_sweep(
            sw.AlgebraType(family), n_max=n_max, n_min=n_min, trials=TRIALS, seed=seed, workers=workers
        )
        elapsed += perf_counter() - t0
        if report.mismatches:
            failures.append(f"sweep {family} workers={workers}: {len(report.mismatches)} mismatches")
    return elapsed, failures


# --- index_cli --------------------------------------------------------------


def setup_index_cli(sw, size: str, seed: int, data_dir: Path) -> dict:
    calls = []
    for text in INDEX_CLI_SPECS[size]:
        argv = ["index", text, "--json", "--explain", "--seed", str(seed)]
        calls.append((text, argv, FIXTURE_INDEX[text]))
    for text in INDEX_CLI_FIGURES[size]:
        for options in MEANDER_OPTIONS:
            fmt = GOLDEN_OPTIONS.get(options)
            golden = _golden_path(data_dir, text, fmt).read_bytes() if fmt else None
            calls.append((text, ["meander", text, *options], golden))
    return {"calls": calls, "specs": len(calls)}


def pass_index_cli(sw, inputs: dict, mark) -> PassResult:
    """One input is one in-process ``seaweed`` command with captured output."""
    result = PassResult(inputs["specs"])
    for i, (text, argv, expected) in enumerate(inputs["calls"]):
        mark(i)
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sw.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        result.latencies.append(perf_counter() - t0)
        result.attempted += 1
        label = " ".join(argv[:-2] if argv[0] == "index" else argv)  # without --seed N
        stdout = out.getvalue()
        result.output(f"{label} {code}\n{stdout}")
        if code != 0:
            result.fail(label, f"exit {code} {err.getvalue().strip()}")
        elif argv[0] == "meander":
            if expected is not None and stdout.encode("utf-8") != expected:
                result.fail(label, "output differs from the golden file")
        else:
            try:
                payload = json.loads(stdout)
                methods = {v for v in payload["methods"].values() if v is not None}
                if payload["index"] != expected or methods != {expected}:
                    result.fail(label, f"got {payload['index']} {payload['methods']}, expected {expected}")
            except Exception as exc:
                result.fail(label, f"checking the output raised {exc!r}")
    return result


# --- spectrum ---------------------------------------------------------------


def z_family_table(z: int) -> dict:
    """Four-dimensional algebra whose spectrum is integral iff z in {0, -2}."""
    return {
        (0, 3): {0: -1},
        (1, 2): {0: -1},
        (1, 3): {2: -1},
        (2, 3): {k: v for k, v in {2: -1, 1: z}.items() if v},
    }


def setup_spectrum(sw, size: str, seed: int, data_dir: Path) -> dict:
    items = []
    for family in FAMILIES:
        algebra = sw.AlgebraType(family)
        for n in range(1, SPECTRUM_N_MAX[size] + 1):
            for spec in sw.enumerate_specs(algebra, n):
                if sw.index_combinatorial(spec).index == 0:
                    items.append((sw.format_spec(spec), spec, None))
    items.append(("A4:2|2/1|3", sw.parse_spec("A4:2|2/1|3"), None))
    for z in Z_FAMILY:
        items.append((f"z={z}", None, z_family_table(z)))
    return {"items": items, "seed": seed, "specs": len(items)}


def pass_spectrum(sw, inputs: dict, mark) -> PassResult:
    """One input is one ad_spectrum call, basis or structure constants included."""
    result = PassResult(inputs["specs"])
    seed = inputs["seed"]
    for i, (label, spec, table) in enumerate(inputs["items"]):
        mark(i)
        t0 = perf_counter()
        try:
            lie = sw.seaweed_basis(spec) if spec is not None else sw.lie_from_structure_constants(table)
            report = sw.ad_spectrum(lie, trials=TRIALS, seed=seed)
        except Exception as exc:
            report = exc
        result.latencies.append(perf_counter() - t0)
        result.attempted += 1
        if isinstance(report, Exception):
            result.fail(label, f"raised {report!r}")
            continue
        try:
            _check_spectrum(result, label, table, report)
        except Exception as exc:
            result.fail(label, f"checking the output raised {exc!r}")
    return result


def _check_spectrum(result, label, table, report) -> None:
    flags = (report.integral, report.unbroken, report.symmetric_about_half)
    result.output(f"{label} {sorted(report.eigenvalues.items())} {flags} {report.defect}")
    if table is not None:
        z = int(label[2:])
        ok = report.integral == (z in Z_INTEGRAL) and (report.defect == 0) == report.integral
    else:
        ok = all(flags) and report.defect == 0
        if label == "A4:2|2/1|3":
            ok = ok and report.eigenvalues == A4_SPECTRUM
    if not ok:
        result.fail(label, f"spectrum {report}")


# --- classify_bulk ----------------------------------------------------------


def draw_large_specs(sw, size: str, seed: int) -> list:
    """Seeded large-n shapes every route can check without the oracle.

    Type A: a|b|c over n with gcd(a+b, b+c) = 1, so the closed form
    applies and the seaweed is Frobenius (delta runs too).  Type D:
    a|b over n-3, a two-vertex tail decided by the classifier's own
    gcd and xi rules, which raise on disagreement with the meander.
    """
    lo, hi, count_a, count_d = LARGE_N[size]
    rng = random.Random(seed)
    specs = []
    for k in range(count_a + count_d):
        n = rng.randint(lo, hi)
        if k < count_a:
            a = rng.randint(1, n // 2)
            b = rng.randint(1, n - a - 1)
            while math.gcd(a + b, n - a) != 1:  # b + c = n - a
                b = b % (n - a - 1) + 1
            specs.append(sw.SeaweedSpec(sw.AlgebraType.A, n, (a, b, n - a - b), (n,)))
        else:
            a = rng.randint(1, n - 1)
            specs.append(sw.SeaweedSpec(sw.AlgebraType.D, n, (a, n - a), (n - 3,)))
    return specs


def setup_classify_bulk(sw, size: str, seed: int, data_dir: Path) -> dict:
    ranges = [(family, n) for family, n_max in CLASSIFY_RANGE[size].items() for n in range(1, n_max + 1)]
    large = draw_large_specs(sw, size, seed)
    small = sum(sum(1 for _ in sw.enumerate_specs(sw.AlgebraType(f), n)) for f, n in ranges)
    return {"ranges": ranges, "large": large, "specs": small + len(large)}


def pass_classify_bulk(sw, inputs: dict, mark) -> PassResult:
    """One input is one spec: format, parse, the three combinatorial calls
    and, for Frobenius type-A specs, delta.  Enumeration is timed as well."""
    result = PassResult(inputs["specs"])
    type_a = sw.AlgebraType.A
    batches = []
    for family, n in inputs["ranges"]:
        algebra = sw.AlgebraType(family)
        t0 = perf_counter()
        batches.append(list(sw.enumerate_specs(algebra, n)))
        result.other.append(perf_counter() - t0)
    batches.append(inputs["large"])
    latencies = result.latencies
    i = 0
    for b, batch in enumerate(batches):
        is_large = b == len(batches) - 1
        for spec in batch:
            mark(i)
            i += 1
            t0 = perf_counter()
            try:
                text = sw.format_spec(spec)
                parsed = sw.parse_spec(text)
                report = sw.index_combinatorial(parsed)
                closed = sw.index_closed_form(parsed)
                verdict = sw.classify_frobenius(parsed)
                delta = sw.delta_of_spec(parsed) if parsed.algebra is type_a and report.index == 0 else None
            except Exception as exc:
                latencies.append(perf_counter() - t0)
                result.attempted += 1
                result.fail(repr(spec), f"raised {exc!r}")
                continue
            latencies.append(perf_counter() - t0)
            result.attempted += 1
            try:
                _check_classified(result, is_large, type_a, spec, text, parsed, report, closed, verdict, delta)
            except Exception as exc:
                result.fail(text, f"checking the output raised {exc!r}")
    return result


def _check_classified(result, is_large, type_a, spec, text, parsed, report, closed, verdict, delta) -> None:
    """Check one spec's outputs; ``text`` is the program's own formatting of
    ``spec`` (str(spec) would call format_spec again, outside the timing)."""
    problems = []
    if parsed != spec:
        problems.append("format/parse round trip")
    if closed is not None and closed[0] != report.index:
        problems.append(f"closed form {closed}")
    if verdict.frobenius != (report.index == 0):
        problems.append(f"verdict {verdict.frobenius}")
    if delta is not None and len(delta.sigma) != spec.n:
        problems.append("delta permutation length")
    if is_large and spec.algebra is type_a and (closed is None or report.index != 0):
        problems.append("large type-A shape must be Frobenius by the closed form")
    if problems:
        result.fail(text, ", ".join(problems))
    if not is_large:
        # The large-n draw depends on the seed, so it stays out of the digest.
        certificate = sorted((key, str(value)) for key, value in verdict.certificate.items())
        tour = None if delta is None else (delta.sigma, delta.differences, delta.canonical_delta)
        result.output(repr((text, report.index, report.cycles, report.paths, report.tailed_paths,
                            closed, verdict.frobenius, verdict.justification, certificate, tour)))


WORKLOADS = {
    "oracle_sweep": (setup_oracle_sweep, pass_oracle_sweep),
    "index_cli": (setup_index_cli, pass_index_cli),
    "spectrum": (setup_spectrum, pass_spectrum),
    "classify_bulk": (setup_classify_bulk, pass_classify_bulk),
}
