#!/usr/bin/env python3
"""Benchmark of the subriemann library: two closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0

One client in one process on one thread (BLAS threads capped at 1)
repeats identical passes of the workload until ``--seconds`` have
passed.  Inputs are made from ``--seed``.  Every operation is checked;
the table lists every metric with its unit and every failed check, and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
median pass time, peak RSS).  With ``--trace 1`` passes alternate
untraced and traced, and the metrics are the per-layer ones, taken from
spans around every call into the library, plus the tracing overhead.
Spans, checks and the output fingerprint are written to
``.perfbench/<workload>-seed<n>-trace<t>.json`` when the run ends.
Workloads, metrics and the layer-to-end-to-end mapping are described in
``perfbench/README.md``.
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
import traceback
from pathlib import Path

# one thread per process: closed-loop, single-client measurements
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("exact", "numeric")
SETUP_SAMPLES = 4          # fresh-process set-ups, besides the run's own
SETUP_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# Printed with every untraced run; each also appears among the per-layer
# metrics.  fail_frac is 0 on the exact workload, and the others exist on
# one workload only, so none of them can carry a ratio bound.
WORKLOAD_METRICS = (
    ("fail_frac", "ratio"),
    ("exact.analyses_per_s", "1/s"),
    ("metric.nodes_per_s", "1/s"),
    ("metric.ballbox_spread", "ratio"),
    ("sobolev.time_to_solution_s", "s"),
    ("sobolev.constant_rel_oracle", "ratio"),
    ("sobolev.grushin_quotient", "quotient"),
)

PER_LAYER = (
    ("polynomials.parse_s", "s"),
    ("polynomials.laws_s", "s"),
    ("fields.basis_s", "s"),
    ("fields.basis_entries", "count"),
    ("fields.hypotheses_s", "s"),
    ("fields.flag_s", "s"),
    ("fields.flag_calls", "count"),
    ("nsw.build_s", "s"),
    ("nsw.determinants", "count"),
    ("nsw.nonzero_frac", "ratio"),
    ("nsw.eval_s", "s"),
    ("nsw.eval_calls", "count"),
    ("nsw.nu_s", "s"),
    ("automorph.verify_s", "s"),
    ("automorph.families", "count"),
    ("metric.distance_field_s", "s"),
    ("metric.distance_fields", "count"),
    ("metric.nodes", "count"),
    ("metric.ns_per_node", "ns"),
    ("metric.table_entries", "count"),
    ("metric.reached_frac", "ratio"),
    ("metric.ball_volume_s", "s"),
    ("metric.scan_s", "s"),
    ("sobolev.grid_setup_s", "s"),
    ("sobolev.minimize_s", "s"),
    ("sobolev.iterations", "count"),
    ("sobolev.ms_per_iter", "ms"),
    ("sobolev.energy_report_s", "s"),
    ("sobolev.energy_ns_per_node", "ns"),
    ("sobolev.stop_max_iter", "count"),
    ("sobolev.tail_rel_drop", "ratio"),
    ("sobolev.probe_s", "s"),
    ("sobolev.decay_fit_s", "s"),
    ("sobolev.decay_exponent", "power"),
    ("trace.overhead_s", "s"),
) + WORKLOAD_METRICS

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(pt, out, parse_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (0 where a layer is unused)."""
    st = pt.self_times()
    c = pt.counts

    def s(*names):
        return sum(st.get(n, 0.0) for n in names)

    checks = out.checks
    df_s, scan_s = s("metric.distance_field"), s("metric.ball_box_scan")
    minimize_s, energy_s = s("sobolev.minimize_quotient"), s("sobolev.energy_report")
    m = {
        "polynomials.parse_s": parse_s,
        "polynomials.laws_s": s("polynomials.laws"),
        "fields.basis_s": s("fields.enumerate_commutators"),
        "fields.basis_entries": c["fields.basis_entries"],
        "fields.hypotheses_s": s("fields.check_h1", "fields.check_h2"),
        "fields.flag_s": s("fields.flag_at"),
        "fields.flag_calls": pt.calls("fields.flag_at"),
        "nsw.build_s": s("nsw.build_nsw"),
        "nsw.determinants": c["nsw.determinants"],
        "nsw.nonzero_frac": _ratio(c["nsw.nonzero"], c["nsw.determinants"]),
        "nsw.eval_s": s("nsw.eval_lambda"),
        "nsw.eval_calls": pt.calls("nsw.eval_lambda"),
        "nsw.nu_s": s("nsw.pointwise_nu"),
        "automorph.verify_s": s("automorph.verify_transitive_family"),
        "automorph.families": pt.calls("automorph.verify_transitive_family"),
        "metric.distance_field_s": df_s,
        "metric.distance_fields": c["metric.distance_fields"],
        "metric.nodes": c["metric.nodes"],
        "metric.ns_per_node": _ratio(df_s + scan_s, c["metric.nodes"], 1e9),
        "metric.table_entries": c["metric.table_entries"],
        "metric.reached_frac": _ratio(c["metric.reached_nodes"], c["metric.direct_nodes"]),
        "metric.ball_volume_s": s("metric.ball_volume"),
        "metric.scan_s": scan_s,
        "sobolev.grid_setup_s": s("sobolev.GridDomain", "sobolev.field_grids"),
        "sobolev.minimize_s": minimize_s,
        "sobolev.iterations": c["sobolev.iterations"],
        "sobolev.ms_per_iter": _ratio(minimize_s, c["sobolev.iterations"], 1e3),
        "sobolev.energy_report_s": energy_s,
        "sobolev.energy_ns_per_node": _ratio(energy_s, c["sobolev.energy_nodes"], 1e9),
        "sobolev.stop_max_iter": c["sobolev.stop_max_iter"],
        "sobolev.probe_s": s("sobolev.exponent_probe"),
        "sobolev.decay_fit_s": s("sobolev.decay_profile"),
        "fail_frac": _ratio(sum(not ok for _, ok, _, _ in checks), len(checks)),
    }
    for name, _ in PER_LAYER:
        m.setdefault(name, out.values.get(name, 0.0))
    return m


def layer_shares(pt) -> dict[str, float]:
    """Share of a pass's self time per library layer; steps count as 'benchmark'."""
    totals: dict[str, float] = {}
    for name, t in pt.self_times().items():
        layer = name.split(".", 1)[0] if "." in name else "benchmark"
        totals[layer] = totals.get(layer, 0.0) + t
    whole = sum(totals.values())
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def timed_setup(name: str, seed: int, tracer: Tracer):
    """Import the library, build fixtures, parse specs, make inputs."""
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and subriemann

    wl = workloads.WORKLOADS[name](seed)
    with tracer.step("setup"):
        wl.setup(tracer)
    return wl, time.perf_counter() - t0


def setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(wl, tracer: Tracer, seconds: float, traced: bool) -> list[dict]:
    """Identical passes until ``seconds`` pass; with tracing, alternate off/on."""
    from workloads import PassOutput

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer.enabled = traced and len(passes) % 2 == 1
        out = PassOutput()
        mark = tracer.mark()
        with tracer.step("pass") as step:
            try:
                wl.run_pass(tracer, out)
            except Exception as exc:  # record the failure and keep measuring
                traceback.print_exc(file=sys.stderr)
                out.error("pass", exc)
        passes.append({"traced": tracer.enabled, "seconds": step.seconds,
                       "out": out, "trace": tracer.since(mark)})
        if time.perf_counter() >= deadline and (not traced or len(passes) >= 2):
            return passes


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit (used for setup_s)")
    args = ap.parse_args(argv)

    if not (SRC / "subriemann" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer(enabled=bool(args.trace))
    mark = tracer.mark()
    wl, setup_own = timed_setup(args.workload, args.seed, tracer)
    setup_trace = tracer.since(mark)
    import subriemann

    if not Path(subriemann.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {subriemann.__file__}, not the checkout's", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    passes = run_passes(wl, tracer, args.seconds, bool(args.trace))
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall_s = statistics.median(p["seconds"] for p in plain)

    checks = [c for p in passes for c in p["out"].checks]
    attempted = len(checks)
    failed = sum(not ok for _, ok, _, _ in checks)
    prints = {p["out"].fingerprint for p in passes}
    correct = len(prints) == 1 and not any(exact and not ok for _, ok, exact, _ in checks)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced + {len(traced)} traced")
    if args.trace:
        parse_s = sum(t for n, t in setup_trace.self_times().items()
                      if n.split(".")[-1].startswith("parse_"))
        per_pass = [layer_metrics(p["trace"], p["out"], parse_s) for p in traced]
        metrics = {name: statistics.median(pp[name] for pp in per_pass) for name, _ in PER_LAYER}
        metrics["trace.overhead_s"] = statistics.median(p["seconds"] for p in traced) - wall_s
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            print(f"  {name:32s} {_fmt(metrics[name]):>14s} {unit}")
        shares = layer_shares(traced[0]["trace"])
        print("self time by layer (first traced pass): "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        setups = [setup_own] + [setup_in_fresh_process(args.workload, args.seed)
                                for _ in range(SETUP_SAMPLES)]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"  {name:32s} {_fmt(metrics[name]):>14s} {unit}")
        first = plain[0]["out"]
        shown = dict(first.values, fail_frac=failed / attempted)
        for name, unit in WORKLOAD_METRICS:
            value = _fmt(shown[name]) if name in shown else "n/a"
            print(f"  {name:32s} {value:>14s} {unit}")
        print(f"  set-up samples: {', '.join(f'{t:.4f}' for t in setups)} s")

    print(f"checks: {attempted} attempted, {failed} failed"
          f"{'' if correct else ', OUTPUT INCORRECT'}")
    seen = set()
    for name, ok, exact, detail in checks:
        if not ok and name not in seen:
            seen.add(name)
            kind = "exact rule" if exact else "numerical rule"
            print(f"  FAILED ({kind}): {name}" + (f" [{detail}]" if detail else ""))
    if len(prints) > 1:
        print("  FAILED: passes at one seed gave different outputs")
    fingerprint = passes[0]["out"].fingerprint
    print(f"fingerprint {fingerprint}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{run_id}.json"
    record.write_text(json.dumps({
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "passes": [{"traced": p["traced"], "seconds": p["seconds"],
                    "fingerprint": p["out"].fingerprint} for p in passes],
        "failed_checks": [c for c in checks if not c[1]],
        "metrics": metrics,
        "spans": tracer.spans,
    }))
    print(f"wrote {record.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
