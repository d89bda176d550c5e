"""Benchmark harness for symbandit.

    python3 bench/run.py --workload exact-ladder --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`. With `--trace 0` the harness times set-up in fresh
processes, then runs untraced passes of one workload for `--seconds`,
gates every pass's outputs, and prints the end-to-end metrics. With
`--trace 1` it runs traced passes of every workload (the named one
repeated, against untraced passes, for `trace.overhead_frac`), probes
each layer directly, writes all spans to `.bench_out/`, and prints the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` prints a
table of the end-to-end metrics and error rate of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("exact-ladder", "closed-form-grid", "mc-episodes", "cli-session")
SETUP_SAMPLES = 7  # fresh processes timed for setup_s; the median is reported
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}


def import_program():
    """Import the checkout's symbandit and the workloads that drive it."""
    if not (SRC / "symbandit" / "__init__.py").is_file():
        sys.exit(f"error: no symbandit sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import symbandit

    if Path(symbandit.__file__).resolve().parent != (SRC / "symbandit").resolve():
        sys.exit(f"error: imported symbandit from {symbandit.__file__}, not {SRC}")
    import workloads

    return workloads


def result(gate, metrics: dict) -> dict:
    for what in gate.failures[:5]:
        print(f"FAILED: {what}", file=sys.stderr)
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end(wl, name: str, seed: int, seconds: float, workdir: Path, size=None) -> dict:
    """Set-up in fresh processes, then untraced passes for `seconds`."""
    cls = wl.WORKLOADS[name]
    probe = [str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    setups = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        code, text, _ = wl.run_child(probe, ROOT)
        setups.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up failed:\n{text}")
    w = cls(seed, workdir, size or cls.FULL)
    w.references()
    gate = wl.Gate()
    walls = []
    end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < end:
        wall, out = wl.untraced_pass(w)
        walls.append(wall)
        w.check(out, gate)
    wall = statistics.median(walls)
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall,
               "throughput": w.work / wall, "peak_rss_mb": w.peak_rss_mb()}
    print(f"{name} seed={seed} passes={len(walls)} setup_samples={len(setups)} "
          + " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
          + f" ({w.op}/s) error_rate={gate.failed / gate.attempted:.3g}"
          f" ({gate.failed}/{gate.attempted})")
    return result(gate, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})


def traced(wl, name: str, seed: int, seconds: float, workdir: Path, sizes=None) -> dict:
    """Traced passes and layer probes of every workload; per-layer metrics."""
    gate = wl.Gate()
    metrics = {}
    record = {"workload": name, "seed": seed, "machine": machine(), "workloads": {}}
    for other in sorted(NAMES, key=lambda n: n != name):  # the named workload first
        cls = wl.WORKLOADS[other]
        w = cls(seed, workdir, (sizes or {}).get(other, cls.FULL))
        w.references()
        if other == name:
            passes, walls = [], []
            end = time.perf_counter() + seconds / 4
            while not walls or time.perf_counter() < end:
                traced_first = len(walls) % 2 == 1  # alternate the order within a pair
                if traced_first:
                    passes.append(traced_pass(w, gate))
                wall, out = wl.untraced_pass(w)
                w.check(out, gate)
                walls.append(wall)
                if not traced_first:
                    passes.append(traced_pass(w, gate))
            overhead = statistics.median(t.total("pass") for t in passes) / statistics.median(walls)
            metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
        else:
            passes = [traced_pass(w, gate)]
        probe = Tracer()
        w.probes(probe)
        metrics.update(w.layer_metrics(passes, probe))
        record["workloads"][other] = {"passes": [t.spans for t in passes], "probes": probe.spans}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{name} seed={seed} traced: {len(metrics)} per-layer metrics, spans in {path}")
    return result(gate, metrics)


def traced_pass(w, gate) -> Tracer:
    tr = Tracer()
    with tr.span("pass"):
        out = w.run(tr)
    w.check(out, gate)
    return tr


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_all(wl, seed: int, seconds: float) -> int:
    """Each workload in its own process, one after another; prints a table."""
    cols = ("setup_s", "wall_s", "throughput", "peak_rss_mb")
    print(f"{'workload':18}" + "".join(f"{c:>14}" for c in cols) + f"{'error_rate':>12}")
    ok = True
    for name in NAMES:
        args = [str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        code, text, _ = wl.run_child(args, ROOT)
        if code != 0:
            print(text, file=sys.stderr)
            return 1
        res = json.loads(text.splitlines()[-1])
        ok = ok and res["correct"]
        m = res["metrics"]
        print(f"{name:18}" + "".join(f"{m[c]['value']:>14.6g}" for c in cols)
              + f"{res['failed'] / res['attempted']:>12.3g}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    wl = import_program()
    if args.workload == "all":
        return run_all(wl, args.seed, args.seconds)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            wl.WORKLOADS[args.workload](args.seed, workdir)
            return 0
        run = traced if args.trace else end_to_end
        res = run(wl, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
