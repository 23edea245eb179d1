"""One round of each bench workload runs on the library with no failure.

The bench calls the library by name (bench/workloads.py); a rename or a
deletion there shows up here, not only when the bench next runs.
"""

import os
import warnings

import pytest

import entire_growth as eg
import entire_growth.cli  # noqa: F401  (eg.cli, which the CLI workload runs)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["cli-report", "reverse-scan", "conjugate-kernels"])
def test_one_round(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads as wl

    round_fn, probes, _ = wl.WORKLOADS[workload]
    ctx, led = wl.Context(eg, ROOT, str(tmp_path)), wl.Ledger()
    with warnings.catch_warnings():
        # as bench/run.py does: a capped window is part of what it measures
        warnings.simplefilter("ignore", eg.errors.WindowSaturationWarning)
        ctx.inputs = wl.make_inputs(eg, 1, str(tmp_path))
        wl.warm_up(eg)
        round_fn(ctx, led)
        led.own = False
        for probe in probes:
            probe(ctx, led)
    assert led.attempted > 0
    assert led.failed == 0 and not led.unexpected, led.unexpected
