"""polyfock benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Workloads: verify, symbol-sweep, fiber-kernel (see workloads.py and
BENCHMARK.json).  The run imports polyfock from ``src/`` of the checkout it
sits in, sets up several times, then repeats the workload's fixed pass until
``--seconds`` have passed (at least one pass), checks the outputs of the last
pass and prints one line per metric, then a JSON summary as the last line.

With ``--trace 0`` the summary holds the end-to-end metrics, measured with
no instrumentation.  With ``--trace 1`` the untimed passes are followed by
one traced pass, and the summary holds the per-layer metrics of that pass
plus ``trace.overhead`` (traced pass time over the median untraced one).
Spans and the full result go to ``.bench_out/`` in the checkout.

``attempted`` counts checked units and ``failed`` the failed checks that
are not known defects; failures from known defects are counted in the
``fail_ratio`` line.  The run refuses to start while POLYFOCK_QUAD_ORDER is
set, because it changes every default quadrature order.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
ENV_ORDER = "POLYFOCK_QUAD_ORDER"
IMPORT_REPEATS = 7
SETUP_REPEATS = 7
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import polyfock; "
                "print(time.perf_counter() - t)")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_seconds(src: Path) -> float:
    """Time `import polyfock` in a fresh interpreter (numpy, scipy included)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _quantile(values, q):
    """Inclusive-method quantile (q in 0..1) of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if ENV_ORDER in os.environ:
        return _fail(f"{ENV_ORDER} is set; it changes every default order, unset it")
    src = ROOT / "src"
    if not (src / "polyfock" / "__init__.py").is_file():
        return _fail(f"no polyfock sources under {src}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    import workloads
    from workloads import API, KNOWN_DEFECTS, WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    import_times = [_import_seconds(src) for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, str(src))
    import polyfock

    if Path(polyfock.__file__).resolve().parent != (src / "polyfock").resolve():
        return _fail(f"imported polyfock from {polyfock.__file__}, not from {src}")
    workloads.bind_api()
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, OUT_DIR)
        setup_times.append(time.perf_counter() - t0)

    walls, ops, op_log = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        outputs = None  # free the previous pass's outputs before the next pass
        t0 = time.perf_counter()
        pass_ops, outputs = workload.run_pass(state)
        walls.append(time.perf_counter() - t0)
        ops += [seconds for _, seconds in pass_ops]
        op_log.append(pass_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        from layers import API_SPANS, TARGETS
        from spans import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
        for entry, (name, work, kind) in API_SPANS.items():
            tracer.wrap_attribute(API, entry, name, work, kind)
        outputs = None
        t0 = time.perf_counter()
        try:
            _, outputs = workload.run_pass(state)
        finally:
            traced_wall = time.perf_counter() - t0
            tracer.uninstall()

    checks, info = workload.check(state, outputs)
    failed = [c for c in checks if not c.ok]
    unexpected = [c for c in failed if c.defect is None]
    by_defect = {key: sum(1 for c in failed if c.defect == key) for key in KNOWN_DEFECTS}

    end_to_end = {
        "setup_s": min(import_times) + statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_p90_ms": 1e3 * _quantile(ops, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    fail_ratio = len(failed) / len(checks)
    notes = {
        "setup_s": f"fastest import of {IMPORT_REPEATS} fresh interpreters + median of "
                   f"{SETUP_REPEATS} in-process set-ups",
        "wall_s": f"median of {len(walls)} passes",
        "op_p50_ms": f"{len(ops)} ops pooled over {len(walls)} passes",
        "op_p90_ms": f"{len(ops)} ops pooled over {len(walls)} passes",
        "peak_rss_mb": "ru_maxrss of this process after the untraced passes",
    }

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, 1 caller, 1 process)")
    if args.trace:
        from layers import per_layer_metrics

        layer_values = per_layer_metrics(tracer, info.get("cli_bytes_out", 0))
        layer_values["spectral.R_F_max_abs_err"] = info.get("R_F_max_abs_err", 0.0)
        layer_values["trace.overhead"] = traced_wall / statistics.median(walls)
        layer_values["checks.fail_ratio"] = fail_ratio
        wanted = spec["per_layer"]
        values = layer_values
        if tracer.absent:
            print(f"# absent wrapper targets: {', '.join(tracer.absent)}")
    else:
        wanted = spec["end_to_end"]
        values = end_to_end
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        return _fail(f"metrics not produced: {missing}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        note = notes.get(name, "traced pass" if args.trace else "")
        print(f"{name:34s} {values[name]:<16.6g} {metric['unit']:8s} {note}")
    print(f"{'fail_ratio':34s} {fail_ratio:<16.6g} {'ratio':8s} {len(failed)} failed / "
          f"{len(checks)} checked; known defects "
          + ", ".join(f"{k}={v}" for k, v in by_defect.items())
          + f"; unexpected {len(unexpected)}")
    for check in unexpected[:20]:
        print(f"# UNEXPECTED FAILURE: {check.unit}")

    from envinfo import environment

    env = environment(ROOT)
    print(f"# environment {json.dumps(env)}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "end_to_end": end_to_end, "fail_ratio": fail_ratio,
        "checked": len(checks), "failed": len(failed),
        "known_defect_failures": by_defect, "unexpected_failures": [c.unit for c in unexpected],
        "walls_s": walls, "ops_by_pass": op_log, "setup_times_s": setup_times,
        "import_times_s": import_times,
        "per_layer": values if args.trace else None,
        "absent_targets": tracer.absent if tracer else [],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()),
                                                    encoding="utf-8")
    print(json.dumps({"correct": not unexpected, "attempted": len(checks),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
