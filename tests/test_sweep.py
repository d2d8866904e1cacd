"""The exhaustive sweep: serial and process-pool runs agree."""

from seaweeds.specs import AlgebraType
from seaweeds.sweep import run_sweep


def test_worker_pool_matches_serial_sweep():
    serial = run_sweep(AlgebraType.D, n_max=3, workers=1).to_payload()
    pooled = run_sweep(AlgebraType.D, n_max=3, workers=2).to_payload()
    del serial["elapsed_seconds"], pooled["elapsed_seconds"]
    assert pooled == serial
