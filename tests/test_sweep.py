"""The exhaustive sweep: serial and process-pool runs agree."""

from seaweeds import formulas, meander, specs, sweep
from seaweeds.formulas import index_closed_form
from seaweeds.specs import AlgebraType, enumerate_specs, format_spec, parse_spec
from seaweeds.sweep import check_spec, run_sweep


def test_worker_pool_matches_serial_sweep():
    serial = run_sweep(AlgebraType.D, n_max=4, workers=1).to_payload()
    pooled = run_sweep(AlgebraType.D, n_max=4, workers=2).to_payload()
    assert serial["specs_checked"] > sweep.CHUNK_SIZE  # two chunks or more: a real pool of two
    del serial["elapsed_seconds"], pooled["elapsed_seconds"]
    assert pooled == serial


def test_worker_pool_is_capped_by_chunks_and_cpus(monkeypatch):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            assert chunksize == sweep.CHUNK_SIZE
            return map(fn, *iterables)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
    serial = run_sweep(AlgebraType.D, n_max=4).to_payload()  # 228 specs: four chunks
    pooled = run_sweep(AlgebraType.D, n_max=4, workers=100_000).to_payload()
    assert pools == [4]
    del serial["elapsed_seconds"], pooled["elapsed_seconds"]
    assert pooled == serial
    assert run_sweep(AlgebraType.A, n_max=2, workers=100_000).specs_checked == 5  # one chunk
    assert run_sweep(AlgebraType.D, n_max=4, workers=3).ok
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    assert run_sweep(AlgebraType.D, n_max=4, workers=100_000).ok
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert run_sweep(AlgebraType.D, n_max=4, workers=100_000).ok
    assert pools == [4, 3, 2]


def test_check_spec_builds_no_meander(monkeypatch):
    # The oracle's meander trial keeps its own bindings; only the classifier's route is counted.
    calls = []
    for module in (meander, formulas):
        for name in ("build_meander", "meander_of_valid", "components"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    for text in ("A5:4|1/2|1|2", "C4:2|2/3", "D5:1|4/3", "GL3:1|2/3", "D5:1|4/2"):  # D5:1|4/2 is a GCD3_PATH shape
        calls.clear()
        record = check_spec(parse_spec(text))
        assert record["combinatorial"] == record["oracle"]
        assert calls == [], text


def test_check_spec_validates_at_most_twice(monkeypatch):
    validated = []
    original = specs.validate

    def counting(spec):
        validated.append(spec)
        return original(spec)

    monkeypatch.setattr(specs, "validate", counting)
    for text in ("A5:4|1/2|1|2", "C4:2|2/3", "D5:1|4/2", "GL3:1|2/3"):
        validated.clear()
        check_spec(parse_spec(text))
        assert len(validated) <= 2, text
    validated.clear()
    index_closed_form(parse_spec("D5:1|4/2"))
    assert len(validated) == 1


def test_an_oracle_off_by_one_is_reported_for_every_spec(monkeypatch):
    oracle = sweep.index_oracle
    monkeypatch.setattr(sweep, "index_oracle", lambda lie, **kw: oracle(lie, **kw) + 1)
    report = run_sweep(AlgebraType.C, n_max=3)
    assert not report.ok
    expected = sorted(format_spec(s) for n in (1, 2, 3) for s in enumerate_specs(AlgebraType.C, n))
    assert [m["spec"] for m in report.mismatches] == expected
    for mismatch in report.mismatches:
        assert mismatch["disagreeing"] == ["oracle"]
        assert mismatch["oracle"] == mismatch["combinatorial"] + 1
