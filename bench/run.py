"""Benchmark entry point.

    python3 bench/run.py --workload reverse-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The library is imported from ./src and
driven through its public functions only.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics (end-to-end ones
with --trace 0, per-layer ones with --trace 1).  Result files and spans go
to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

# one caller: keep numerical libraries from starting their own thread pools
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def _import_library():
    """Import entire_growth from ./src; returns the package."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "entire_growth", "__init__.py")):
        raise SystemExit(f"bench: no library at {src}; run from the root of a checkout")
    if not os.path.isfile(os.path.join(ROOT, "configs", "all.cfg")):
        raise SystemExit("bench: configs/all.cfg is missing")
    sys.path.insert(0, src)
    eg = importlib.import_module("entire_growth")
    for mod in ("legendre", "entire", "bounds", "scales", "multivar", "probgen", "cli"):
        importlib.import_module(f"entire_growth.{mod}")
    if not os.path.abspath(eg.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported entire_growth from {eg.__file__}, not {src}")
    return eg


def _import_seconds():
    """Time a first import of the library in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
            "import entire_growth.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def _rounds(ctx, led, round_fn, probes, seconds, min_rounds, tracer=None):
    """Whole rounds until `seconds` have passed; returns per-round main times.

    With a tracer, rounds alternate untraced and traced, in pairs, and the
    function returns (untraced times, traced times).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for walls, tr in ((plain, None), (traced, tracer))[:2 if tracer else 1]:
            if tr:
                tr.install(ctx.eg)
                ctx.tracer = tr
            led.own = True
            try:
                walls.append(round_fn(ctx, led))
            finally:
                if tr:
                    tr.uninstall()
                    ctx.tracer = None
            led.own = False
            for probe in probes:
                probe(ctx, led)
        if len(plain) >= min_rounds and time.perf_counter() - start >= seconds:
            return (plain, traced) if tracer else plain


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    eg = _import_library()
    sys.path.insert(0, HERE)
    import workloads as wl
    from tracer import LAYER_FUNCTIONS, PER_LAYER, Tracer

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    round_fn, probes, min_rounds = wl.WORKLOADS[args.workload]
    warnings.simplefilter("ignore", eg.errors.WindowSaturationWarning)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = wl.Context(eg, ROOT, workdir)
        led = wl.Ledger()
        setups = []
        for _ in range(SETUP_REPEATS):
            import_s = _import_seconds()
            t0 = time.perf_counter()
            ctx.inputs = wl.make_inputs(eg, args.seed, workdir)
            wl.warm_up(eg)
            setups.append(import_s + time.perf_counter() - t0)
            led.calibrate_after(setups[-1])

        if args.trace == 0:
            _rounds(ctx, led, round_fn, probes, args.seconds, min_rounds)
        else:
            tracer = Tracer()
            plain, traced = _rounds(ctx, led, round_fn, probes, args.seconds, 1, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the CLI's own contract: the same config gives a byte-identical MANIFEST
    digests = {}
    for label, manifests in led.manifests.items():
        if any(m != manifests[0] for m in manifests):
            led.unexpected.append(f"cli:{label}: MANIFEST differs between runs")
        digests[label] = hashlib.sha256(manifests[0]).hexdigest()

    if args.trace == 0:
        metrics = wl.end_to_end(led, setups, peak_rss_mb)
    else:
        calls, self_s = tracer.layer_totals()
        spanned = {f"{m}.{f}" for m, f in LAYER_FUNCTIONS}
        n = len(traced)
        metrics = {}
        for name, unit in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if layer in spanned and kind == "calls":
                value = calls.get(layer, 0) / n
            elif layer in spanned and kind == "self_s":
                value = self_s.get(layer, 0.0) / n
            elif name == "bounds.profile.points":
                value = tracer.counts.get(name, 0) / max(tracer.counts.get(
                    "bounds.profile.calls", 0), 1)
            elif name == "trace.overhead_ratio":
                value = statistics.median(traced) / statistics.median(plain)
            else:
                value = tracer.counts.get(name, 0) / n
            metrics[name] = {"value": float(value), "unit": unit}
        tracer.write(os.path.join(OUT, f"trace-{tag}.jsonl"))

    for msg in led.unexpected:
        print(f"bench: unexpected failure: {msg}", file=sys.stderr)
    result = {"correct": not led.unexpected, "attempted": led.attempted,
              "failed": led.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, manifest_sha256=digests,
                       setups=setups, samples=led.samples, unscaled=sorted(led.unscaled),
                       calibration=led.cals), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
