"""Benchmark of the seaweeds index routes: four workloads, one command.

    python3 perfbench/run.py --workload classify_bulk --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``oracle_sweep`` (run_sweep, all three
routes on thousands of small algebras), ``index_cli`` (the ``seaweed
index``/``meander`` commands in process), ``spectrum`` (ad_spectrum on
every small Frobenius seaweed and the z family) and ``classify_bulk``
(the combinatorial routes only, plus a seeded large-n draw).

A run sends every input once per pass, repeating passes for
``--seconds`` (at least three passes).  It sets up before the first
pass and again after every untraced pass, and reports the median
set-up time.  Every time it reports is a reference time: the measured
time scaled by the host's speed, which a fixed calibration timed around
each step and between inputs gives (calibrate.py); the raw times are
printed beside them and kept in the record.  Every output is checked:
the routes must agree, index values must equal the fixtures, meander
renderings must equal the ``tests/data`` golden files byte for byte,
spectra must be integral, unbroken and symmetric, and a digest of all
normalized outputs must equal the one recorded in ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced passes, then traced passes with every layer function wrapped
(tracer.py), and reports the per-layer metrics: self times per pass,
call counts, coverage of the pass by spans and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(machine and run context, per-pass timings, all metrics) is written to
``.perfbench_out/`` in the checkout.  The exit code is 0 only when every
output was correct.

``--probe [SPEC]`` times the stages of one spec (default A20:7|13/20:
meander, basis, Kirillov matrix, exact rank), which takes about two
minutes on the default spec; it is not part of the gated benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads
from calibrate import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DATA_DIR = ROOT / "tests" / "data"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("spec_ms_p50", "ms"),
    ("spec_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

COUNT_METRICS = (
    ("specs.validate_calls_per_spec", "calls/spec"),
    ("meander.build_calls_per_spec", "calls/spec"),
    ("matrices.basis_dim_sum", "count"),
    ("matrices.bracket_terms", "count"),
    ("oracle.kirillov_calls", "count"),
    ("oracle.rank_calls", "count"),
    ("oracle.rank_order_sum", "count"),
    ("oracle.spectrum_scans", "count"),
    ("render.bytes_out", "bytes"),
)
RATIO_METRICS = (
    ("oracle.trials_useful_ratio", "ratio"),
    ("oracle.spectrum_hit_ratio", "ratio"),
    ("sweep.workers_speedup", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)
PER_LAYER = tuple((f"{stem}_s", "s") for stem in tracing.STEMS) + COUNT_METRICS + RATIO_METRICS

MIN_PASSES = 3
# No new pass starts after this many seconds, whatever --seconds says.
HARD_LIMIT_S = 120.0
UNTRACED_SHARE = 0.4
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999)
DEFAULT_PROBE = "A20:7|13/20"


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs (package, data, reference)."""


def load_package():
    """Import ``seaweeds`` afresh from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "seaweeds" / "__init__.py").is_file():
        raise SetupError(f"no seaweeds package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "seaweeds" or m.startswith("seaweeds.")]:
        del sys.modules[name]
    sw = importlib.import_module("seaweeds")
    importlib.import_module("seaweeds.cli")
    importlib.import_module("seaweeds.sweep")
    if Path(sw.__file__).resolve().parent != (src / "seaweeds").resolve():
        raise SetupError(f"seaweeds imported from {sw.__file__}, not from {src}")
    return sw


def load_reference(size: str, workload: str) -> str | None:
    if not REFERENCE.is_file():
        raise SetupError(f"missing {REFERENCE.name}")
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(size, {}).get(workload)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples_guaranteed: int) -> float:
    """Highest listed percentile with ten or more samples beyond it."""
    best = PERCENTILES[0]
    for q in PERCENTILES:
        if samples_guaranteed * (100 - q) / 100 >= 10:
            best = q
    return best


def percentile(sorted_values: list[float], q: float) -> float:
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class Run:
    """One benchmark run of one workload: set-up, passes, checks, metrics."""

    def __init__(self, workload: str, size: str, seed: int, seconds: float):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.seconds = seconds
        self.setup_fn, self.pass_fn = workloads.WORKLOADS[workload]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []
        self.speed = HostSpeed()
        self.setup_times: list[float] = []  # reference times
        self.setup_raw: list[float] = []

    def setup(self) -> None:
        """Import the package afresh and build the inputs; later passes use
        this package and these inputs."""
        before = self.speed.latest if self.speed.times else self.speed.calibrate()
        t0 = perf_counter()
        sw = load_package()
        reference = load_reference(self.size, self.workload)
        inputs = self.setup_fn(sw, self.size, self.seed, DATA_DIR)
        elapsed = perf_counter() - t0
        self.setup_raw.append(elapsed)
        self.setup_times.append(elapsed * self.speed.factor(before, self.speed.calibrate()))
        self.sw, self.reference, self.inputs = sw, reference, inputs

    def one_pass(self, mark, traced: bool) -> workloads.PassResult:
        if not traced:
            installed = tracing.wrapped_objects()
            if installed:
                raise RuntimeError(f"tracer wrappers installed during an untraced pass: {installed[:3]}")
        speed = self.speed
        first = speed.latest
        measured_after: list[int] = []

        def marked(input_id: int) -> None:
            measured_after.append(speed.mark())
            mark(input_id)

        gc.collect()
        result = self.pass_fn(self.sw, self.inputs, marked)
        last = speed.calibrate()
        if len(measured_after) != len(result.latencies):
            raise RuntimeError(f"{self.workload}: {len(result.latencies)} latencies, {len(measured_after)} marks")
        # The pass as a whole scales by every calibration from its start to
        # its end, each input by the two around it.
        result.factor = speed.factor(first, last)
        result.ref_latencies = array(
            "d", (x * speed.factor(c, c + 1) for x, c in zip(result.latencies, measured_after))
        )
        bad = len(result.failures)
        problems = list(result.failures)
        if result.digest != self.reference:
            bad = result.attempted
            problems.append(
                f"output digest {result.digest} differs from the reference {self.reference} "
                f"({self.size}/{self.workload})"
            )
        self.note(problems)
        self.attempted += result.attempted
        self.failed += bad
        self.passes.append(
            {
                "traced": traced,
                "wall_s": result.wall,
                "ref_wall_s": result.wall * result.factor,
                "factor": result.factor,
                "inputs": result.attempted,
                "failed": bad,
            }
        )
        return result

    def note(self, problems: list[str]) -> None:
        """Keep each distinct failure message once."""
        for problem in problems:
            if problem not in self.failures:
                self.failures.append(problem)

    def untraced_passes(self, until: float, at_least: int, started: float) -> list[workloads.PassResult]:
        results = []
        while len(results) < at_least or perf_counter() - started < until:
            if results and perf_counter() - started > HARD_LIMIT_S:
                break
            results.append(self.one_pass(_no_mark, traced=False))
            # Set-up lasts well under a second; repeating it between passes
            # samples it over the whole run, as the passes are sampled.
            self.setup()
        return results

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, results: list[workloads.PassResult]) -> tuple[dict, dict]:
        # Read before the samples are pooled and sorted below, whose size
        # grows with the number of passes and so with the host's speed.
        peak = peak_rss_mb()
        samples = sorted(x for r in results for x in r.ref_latencies)
        raw = sorted(x for r in results for x in r.latencies)
        per_pass = len(results[0].latencies)
        q = tail_percentile(per_pass * MIN_PASSES)
        tail = percentile(samples, q)
        values = {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.median(r.wall * r.factor for r in results),
            "spec_ms_p50": statistics.median(samples) * 1000.0,
            "spec_ms_tail": tail * 1000.0,
            "peak_rss_mb": peak,
        }
        calibrations = self.speed.times
        detail = {
            "tail_percentile": q,
            "latency_samples": len(samples),
            "samples_beyond_tail": sum(1 for x in samples if x > tail),
            "inputs_per_pass": per_pass,
            "raw": {
                "setup_s": statistics.median(self.setup_raw),
                "wall_s": statistics.median(r.wall for r in results),
                "spec_ms_p50": statistics.median(raw) * 1000.0,
                "spec_ms_tail": percentile(raw, q) * 1000.0,
            },
            "calibration_s": {
                "count": len(calibrations),
                "min": min(calibrations),
                "median": statistics.median(calibrations),
                "max": max(calibrations),
            },
        }
        return values, detail

    def per_layer(self, untraced, traced, summaries, speedup: float) -> dict:
        specs = traced[0].specs
        first = summaries[0]

        def med(key):
            return statistics.median(s[key] for s in summaries)

        calls, counters = first["calls"], first["counters"]
        values = {
            f"{stem}_s": statistics.median(s["self_time"][stem] * r.factor for s, r in zip(summaries, traced))
            for stem in tracing.STEMS
        }
        values.update(
            {
                "specs.validate_calls_per_spec": calls["specs.validate"] / specs,
                "meander.build_calls_per_spec": calls["meander.build_meander"] / specs,
                "matrices.basis_dim_sum": counters.get("matrices.basis_dim_sum", 0),
                "matrices.bracket_terms": counters.get("matrices.bracket_terms", 0),
                "oracle.kirillov_calls": calls["oracle.kirillov_matrix"],
                "oracle.rank_calls": calls["oracle.rank_exact"],
                "oracle.rank_order_sum": counters.get("oracle.rank_order_sum", 0),
                "oracle.spectrum_scans": first["spectrum_scans"],
                "render.bytes_out": counters.get("render.bytes_out", 0),
                "oracle.trials_useful_ratio": _ratio(first["trials_useful"], first["trials_run"]),
                "oracle.spectrum_hit_ratio": _ratio(first["spectrum_hits"], first["spectrum_scans"]),
                "sweep.workers_speedup": speedup,
                "trace.coverage": med("coverage"),
                "trace.overhead_ratio": statistics.median(r.wall * r.factor for r in traced)
                / statistics.median(r.wall * r.factor for r in untraced),
            }
        )
        return values


def _no_mark(_input_id: int) -> None:
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_untraced(run: Run) -> tuple[dict, dict]:
    started = perf_counter()
    results = run.untraced_passes(run.seconds, MIN_PASSES, started)
    return run.end_to_end(results)


def run_traced(run: Run, spans_path: Path) -> tuple[dict, dict]:
    started = perf_counter()
    untraced = run.untraced_passes(UNTRACED_SHARE * run.seconds, 2, started)
    e2e, detail = run.end_to_end(untraced)
    tracer = tracing.Tracer()

    def mark(input_id: int) -> None:
        tracer.input_id = input_id

    traced, summaries = [], []
    tracer.install()
    try:
        while not traced or perf_counter() - started < run.seconds:
            if perf_counter() - started > HARD_LIMIT_S:
                break
            tracer.reset()
            result = run.one_pass(mark, traced=True)
            traced.append(result)
            summaries.append(tracer.summary(result.wall))
    finally:
        tracer.restore()
    leftover = tracing.wrapped_objects()
    if leftover:
        run.note([f"tracer wrappers left installed: {leftover[:3]}"])
        run.failed += 1
    tracer.write(spans_path)
    counts_repeat = all(
        (s["calls"], s["counters"]) == (summaries[0]["calls"], summaries[0]["counters"]) for s in summaries
    )

    speedup = 0.0
    if run.workload == "oracle_sweep":
        workers = nproc()
        serial, failures = workloads.sweep_by_family(run.sw, run.size, run.seed, workers=1)
        parallel, more = workloads.sweep_by_family(run.sw, run.size, run.seed, workers=workers)
        run.note(failures + more)
        run.failed += len(failures) + len(more)
        speedup = serial / parallel
    layer = run.per_layer(untraced, traced, summaries, speedup)
    detail.update(
        {
            "counts_repeat_within_run": counts_repeat,
            "spans_per_pass": summaries[0]["spans"],
            "wrapper_s_per_pass": statistics.median(s["wrapper_s"] for s in summaries),
            "end_to_end_untraced": e2e,
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    )
    return layer, detail


def probe(spec_text: str, seed: int) -> int:
    """Stage timings of one spec; the North-star numbers in ROADMAP.md."""
    context = machine_context()
    context["loadavg_before"] = os.getloadavg()
    sw = load_package()
    spec = sw.parse_spec(spec_text)
    stages = {}
    t0 = perf_counter()
    index = sw.index_combinatorial(spec).index
    stages["meander_s"] = perf_counter() - t0
    t0 = perf_counter()
    lie = sw.seaweed_basis(spec)
    stages["basis_s"] = perf_counter() - t0
    functional = sw.oracle.random_functional(random.Random(seed), lie.dimension)
    t0 = perf_counter()
    matrix = sw.kirillov_matrix(lie, functional)
    stages["kirillov_s"] = perf_counter() - t0
    t0 = perf_counter()
    rank = sw.rank_exact(matrix)
    stages["rank_s"] = perf_counter() - t0
    kernel = lie.dimension - rank
    context["loadavg_after"] = os.getloadavg()
    for name, value in stages.items():
        print(f"{name:12s} {value:.6f} s")
    record = {
        "spec": spec_text,
        "dimension": lie.dimension,
        "meander_index": index,
        "kernel_dimension": kernel,
        "stages": stages,
        "context": context,
    }
    print(json.dumps(record))
    # One functional bounds the index from above; it is exact when generic.
    return 0 if kernel >= index else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("tiny", "bench"), default="bench")
    parser.add_argument("--probe", nargs="?", const=DEFAULT_PROBE, metavar="SPEC")
    args = parser.parse_args(argv)

    try:
        if args.probe:
            return probe(args.probe, args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        load_before = os.getloadavg()
        run = Run(args.workload, args.size, args.seed, args.seconds)
        run.setup()
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}"
    try:
        if args.trace:
            metrics, detail = run_traced(run, OUT_DIR / f"{args.workload}-{args.size}-spans.json")
            units = dict(PER_LAYER)
        else:
            metrics, detail = run_untraced(run)
            units = dict(END_TO_END)
    except Exception as exc:
        # A fault in the benchmark itself (not in an input) yields no result.
        print(f"error: {exc!r}", file=sys.stderr)
        return 2

    context = machine_context()
    context.update({"loadavg_before": load_before, "loadavg_after": os.getloadavg()})
    failed_ratio = run.failed / run.attempted
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "setup_times_s": run.setup_times,
        "setup_raw_s": run.setup_raw,
        "calibrations_s": run.speed.times,
        "passes": run.passes,
        "metrics": metrics,
        "failed_ratio": failed_ratio,
        "detail": detail,
        "failures": run.failures[:50],
    }
    record_path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload} size {args.size} seed {args.seed} trace {args.trace}: "
          f"{len(run.passes)} passes, record {record_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  {'failed_ratio':34s} {failed_ratio:.6g} ratio ({run.failed}/{run.attempted})")
    if not args.trace:
        print(f"  spec_ms_tail is p{detail['tail_percentile']} of {detail['latency_samples']} samples "
              f"({detail['samples_beyond_tail']} beyond)")
        cal = detail["calibration_s"]
        print(f"  times above are reference times; calibration {cal['median']:.4g} s median of {cal['count']} "
              f"({cal['min']:.4g}-{cal['max']:.4g}), raw times:")
        for name, value in detail["raw"].items():
            print(f"  {'raw ' + name:34s} {value:.6g} {units[name]}")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    correct = run.failed == 0 and not run.failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
