#!/usr/bin/env python3
"""The repository benchmark: four workloads, two clocks, a layer ladder.

One pass of one workload (the protocol ``BENCHMARK.json`` declares; the
last line of standard output is the result object)::

    python3 benchmarks/perf/run.py --workload node-lap27 --seed 0 \\
        --seconds 24 --trace 0        # timed: the end-to-end metrics
    python3 benchmarks/perf/run.py --workload node-lap27 --seed 0 \\
        --seconds 24 --trace 1        # traced: the per-layer metrics

Everything (every workload, timed then traced, each pass in a fresh
single-threaded subprocess; prints every metric with unit and sample
count; writes one JSON)::

    python3 benchmarks/perf/run.py [--seed S] [--seconds T] [--smoke]
        [--workload W ...] [--json OUT] [--modeled-json OUT]

Compare two sets of such JSON files under the manifest's own bounds::

    python3 benchmarks/perf/run.py --compare A1.json A2.json --against B1.json B2.json

See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import warnings
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import harness  # noqa: E402
from harness import ROOT  # noqa: E402

SMOKE_SECONDS = 0.5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload name (repeatable without --trace)")
    p.add_argument("--seed", type=int, default=0,
                   help="drives every RHS vector and the request stream")
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement budget of one pass "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="run ONE pass of ONE workload in this process: "
                        "0 = timed, 1 = traced")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized problems and reps (20-30 s in total)")
    p.add_argument("--json", metavar="OUT",
                   help="write the full result of a complete run")
    p.add_argument("--modeled-json", metavar="OUT",
                   help="write only exact metrics and counts "
                        "(byte-identical between invocations)")
    p.add_argument("--out-dir", default=str(PERF_DIR / "out"),
                   help="where per-pass detail files and spans.json go")
    p.add_argument("--compare", nargs="+", metavar="RUN.json",
                   help="baseline run files (with --against) or exactly "
                        "two files: baseline, candidate")
    p.add_argument("--against", nargs="+", metavar="RUN.json",
                   help="candidate run files for --compare")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# One pass of one workload, in this process
# ---------------------------------------------------------------------------

def run_pass(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    harness.reexec_in_bench_env()
    sys.path.insert(0, str(ROOT / "src"))

    from checks import Checker, ExactLedger
    from metrics import Declared
    from workloads import WORKLOADS

    declared = Declared()
    (name,) = args.workload
    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = resolve_seconds(args, declared)
    if args.trace == 1:
        harness.prefault_heap(256 if args.smoke else 1024)
    usage = harness.Usage()
    check, ledger = Checker(), ExactLedger()
    workload = WORKLOADS[name](args.seed, args.smoke)
    out_dir = Path(args.out_dir)

    if args.trace == 0:
        metrics = workload.timed(seconds, check, ledger)
        use = usage.snapshot()
        wanted = declared.end_to_end
    else:
        tracer = harness.Tracer(name)
        with tracer.span(name):
            metrics = workload.traced(seconds, tracer, check, ledger)
        use = usage.snapshot()
        metrics["failure_rate"] = harness.exact(
            check.failed / max(check.attempted, 1), "ratio")
        metrics["vehicle.sys_share"] = harness.exact(use["sys_share"],
                                                     "wall_ratio")
        metrics["vehicle.minor_faults"] = harness.exact(
            use["minor_faults"], "faults")
        tracer.write(out_dir / f"spans-{name}.json")
        wanted = declared.per_layer

    # The manifest is the contract: no metric outside it, no other unit.
    undeclared = sorted(set(metrics) - set(wanted))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    for m, entry in metrics.items():
        if entry["unit"] != wanted[m]["unit"]:
            raise SystemExit(f"{m}: measured in {entry['unit']!r}, declared "
                             f"in {wanted[m]['unit']!r}")
    for msg in check.messages + ledger.mismatches:
        print(f"FAILED CHECK [{name}]: {msg}", file=sys.stderr)
    correct = check.failed == 0 and not ledger.mismatches
    detail = {
        "workload": name, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": check.attempted, "failed": check.failed,
        "failures": check.messages + ledger.mismatches,
        "metrics": metrics, "usage": use,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    # The protocol line: every declared metric of this pass, value and unit
    # only.  A per-layer metric this workload does not exercise reads 0.
    line = {
        "correct": correct,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {
            m: {"value": metrics[m]["value"] if m in metrics else 0.0,
                "unit": spec["unit"]}
            for m, spec in wanted.items()},
    }
    print(json.dumps(line))
    return 1 if ledger.mismatches else 0


def resolve_seconds(args, declared) -> float:
    if args.seconds is not None:
        return args.seconds
    return SMOKE_SECONDS if args.smoke else float(
        declared.manifest["run_seconds"])


# ---------------------------------------------------------------------------
# A complete run: every workload, timed then traced, fresh subprocesses
# ---------------------------------------------------------------------------

def run_all(args: argparse.Namespace) -> int:
    from metrics import Declared

    declared = Declared()
    names = args.workload or declared.workloads
    seconds = resolve_seconds(args, declared)
    out_dir = Path(args.out_dir)
    result = {"schema": 1, "seed": args.seed, "seconds": seconds,
              "smoke": args.smoke, "workloads": {}}
    status = 0
    # Strictly sequential: two measuring processes would contend for the
    # same cores and caches.
    for name in names:
        passes = {}
        for trace, label in ((0, "timed"), (1, "traced")):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--out-dir", str(out_dir)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, env=harness.bench_env(),
                                  stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"error: {name} ({label}) exited {proc.returncode}",
                      file=sys.stderr)
                status = 1
            detail_path = out_dir / f"{name}.trace{trace}.json"
            if not detail_path.exists():
                return 1
            passes[label] = json.loads(detail_path.read_text())
            # Raw samples stay in the per-pass detail file only.
            for entry in passes[label]["metrics"].values():
                entry.pop("samples", None)
        result["workloads"][name] = passes
        print_workload(name, passes, declared)
        if not all(p["correct"] for p in passes.values()):
            status = 1

    if args.json:
        write_json(args.json, result)
    if args.modeled_json:
        write_json(args.modeled_json, modeled_view(result, declared))
    return status


def print_workload(name: str, passes: dict, declared) -> None:
    for label, section in (("timed", "end-to-end"), ("traced", "per-layer")):
        p = passes[label]
        print(f"\n== {name} · {section} ({label} pass, seed {p['seed']}, "
              f"{p['attempted']} checked, {p['failed']} failed) ==")
        for m in sorted(p["metrics"]):
            e = p["metrics"][m]
            kind = "exact" if declared.is_exact(m) else "wall"
            extra = ""
            if "min" in e:
                extra = f"  [min {e['min']:.6g}  max {e['max']:.6g}]"
                extra += "".join(f"  {k} {v:.6g}" for k, v in e.items()
                                 if k.startswith("p"))
            print(f"  {m:<42s} {e['value']:>14.6g} {e['unit']:<10s} "
                  f"n={e['n']:<4d} {kind}{extra}")
    u = passes["timed"]["usage"]
    print(f"  (timed pass: wall {u['wall_s']:.1f} s, sys share "
          f"{u['sys_share']:.3f}, {u['minor_faults']} minor faults)")


def modeled_view(result: dict, declared) -> dict:
    """Only what must repeat bit-for-bit: exact metrics of the traced pass
    plus the check counts of both passes."""
    out = {"schema": result["schema"], "seed": result["seed"],
           "smoke": result["smoke"], "workloads": {}}
    for name, passes in result["workloads"].items():
        exact = {m: e["value"] for m, e in passes["traced"]["metrics"].items()
                 if declared.is_exact(m)}
        for label in ("timed", "traced"):
            exact[f"{label}.attempted"] = passes[label]["attempted"]
            exact[f"{label}.failed"] = passes[label]["failed"]
        out["workloads"][name] = exact
    return out


def write_json(path: str, obj: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    warnings.simplefilter("always")
    if args.compare:
        from compare import compare_main

        return compare_main(args.compare, args.against)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            print("error: --trace needs exactly one --workload",
                  file=sys.stderr)
            return 2
        return run_pass(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
