"""``run.py --compare``: two sets of run files under the manifest's bounds.

One row per metric x workload.  Wall metrics compare set medians through
the metric's own bound; exact metrics compare by equality across *every*
file of both sets.  Verdicts:

``ok``          candidate median no worse than the baseline's by more than
                the bound (or better in every run)
``REGRESSED``   worse by more than the bound, with the sets' own spread
                inside the bound
``unresolved``  a set's run-to-run spread exceeds the bound, so neither
                "unchanged" nor "regressed" can be claimed
``CHANGED``     an exact metric differs between (or within) the sets
``info``        a wall per-layer metric: no bound, relative change only

Exit code: 0 all ok, 1 any REGRESSED / CHANGED, 3 only unresolved rows.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from metrics import Declared


def spread(values) -> float:
    """Run-to-run spread of one set as a share of its median: the
    interquartile distance from four values up, the range below that
    (0 for a single run, whose spread is unknown)."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if med == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(med)
    return (max(values) - min(values)) / abs(med)


def worse_by(base: float, cand: float, better: str) -> float:
    """How much worse *cand* is than *base*, as a share of *base*
    (negative = better)."""
    if base == 0:
        return 0.0 if cand == 0 else float("inf")
    change = (cand - base) / abs(base)
    return change if better == "lower" else -change


def judge_wall(base, cand, better: str, bound: float) -> tuple[str, float]:
    delta = worse_by(statistics.median(base), statistics.median(cand), better)
    if better == "lower":
        all_better = max(cand) < min(base)
    else:
        all_better = min(cand) > max(base)
    if all_better:
        return "ok", delta
    if max(spread(base), spread(cand)) > bound:
        return "unresolved", delta
    return ("REGRESSED" if delta > bound else "ok"), delta


def metric_values(run: dict, workload: str) -> dict[str, float]:
    passes = run["workloads"].get(workload, {})
    out = {}
    for label in ("timed", "traced"):
        for name, entry in passes.get(label, {}).get("metrics", {}).items():
            out[name] = entry["value"]
    return out


def compare(base_runs: list[dict], cand_runs: list[dict],
            declared: Declared) -> list[dict]:
    rows = []
    workloads = [w for w in declared.workloads
                 if any(w in r["workloads"] for r in base_runs + cand_runs)]
    for w in workloads:
        base = [metric_values(r, w) for r in base_runs if w in r["workloads"]]
        cand = [metric_values(r, w) for r in cand_runs if w in r["workloads"]]
        names = [n for n in list(declared.end_to_end) + list(declared.per_layer)
                 if any(n in v for v in base + cand)]
        for name in names:
            spec = declared.entry(name)
            b = [v[name] for v in base if name in v]
            c = [v[name] for v in cand if name in v]
            row = {"workload": w, "metric": name, "unit": spec["unit"],
                   "base": b, "cand": c, "delta": None}
            if not b or not c:
                row["verdict"] = "CHANGED"
                row["note"] = "absent on one side"
            elif declared.is_exact(name):
                row["verdict"] = ("ok" if len(set(b + c)) == 1 else "CHANGED")
            elif "bound" in spec:
                row["verdict"], row["delta"] = judge_wall(
                    b, c, spec["better"], spec["bound"])
                row["bound"] = spec["bound"]
            else:
                row["verdict"] = "info"
                row["delta"] = worse_by(statistics.median(b),
                                        statistics.median(c), spec["better"])
            rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<18s} {'metric':<40s} {'baseline':>13s} "
             f"{'candidate':>13s} {'worse by':>9s} {'bound':>6s}  verdict"]
    for r in rows:
        b = statistics.median(r["base"]) if r["base"] else float("nan")
        c = statistics.median(r["cand"]) if r["cand"] else float("nan")
        delta = "" if r["delta"] is None else f"{100 * r['delta']:+.1f}%"
        bound = f"{100 * r['bound']:.0f}%" if "bound" in r else ""
        lines.append(f"{r['workload']:<18s} {r['metric']:<40s} {b:>13.6g} "
                     f"{c:>13.6g} {delta:>9s} {bound:>6s}  {r['verdict']}")
    return "\n".join(lines)


def exit_code(rows: list[dict]) -> int:
    verdicts = {r["verdict"] for r in rows}
    if verdicts & {"REGRESSED", "CHANGED"}:
        return 1
    return 3 if "unresolved" in verdicts else 0


def compare_main(first: list[str], against: list[str] | None) -> int:
    if against:
        base_paths, cand_paths = first, against
    elif len(first) == 2:
        base_paths, cand_paths = first[:1], first[1:]
    else:
        print("error: give --compare BASE... --against CAND..., or exactly "
              "two files", file=sys.stderr)
        return 2
    base, cand = ([json.loads(Path(p).read_text()) for p in paths]
                  for paths in (base_paths, cand_paths))
    rows = compare(base, cand, Declared())
    print(format_rows(rows))
    code = exit_code(rows)
    counts = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("\n" + ", ".join(f"{v}: {n}" for v, n in sorted(counts.items())))
    return code
