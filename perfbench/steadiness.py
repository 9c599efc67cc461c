"""Steadiness evidence: two sets of runs per workload, spread per metric.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --trace-runs 2 \
        --out perfbench/results/steadiness

Each run is a fresh ``perfbench/run.py`` process with its own seed (set
1 uses seeds 1..runs, set 2 the next ``runs`` seeds).  For every
end-to-end metric the report gives each set's median, quartiles and
IQR/median, probe-normalised and raw, the shift of the second set's
median against the first, and the metric's bound.  It also gives the
correlation, across runs, between the run's median probe reading and its
raw session time, and the per-layer figures of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import END_TO_END, WORKLOADS  # noqa: E402

#: Sets of runs per workload: the second set's medians are compared
#: with the first's, as a parent and a change would be.
SETS = 2


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its record and result lines."""
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "returncode": proc.returncode, "stderr": proc.stderr[-2000:], "wall_s": wall}
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return {"seed": seed, "returncode": 0, "wall_s": wall, "record": record, "result": result}


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR/median (``statistics.quantiles``, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else float("inf"),
    }


def correlation(xs: list[float], ys: list[float]) -> float:
    if len(xs) < 3 or statistics.pstdev(xs) == 0 or statistics.pstdev(ys) == 0:
        return float("nan")
    return statistics.correlation(xs, ys)


def summarise(workload: str, sets: list[list[dict]]) -> dict:
    out: dict = {"workload": workload, "sets": []}
    for runs in sets:
        good = [r for r in runs if r.get("returncode") == 0]
        entry: dict = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "correct": sum(1 for r in good if r["result"]["correct"]),
            "attempted": sum(r["result"]["attempted"] for r in good),
            "failed": sum(r["result"]["failed"] for r in good),
            "wall_s": spread([r["wall_s"] for r in runs]),
            "metrics": {},
        }
        for name, unit, better, bound in END_TO_END:
            normalised = [r["result"]["metrics"][name]["value"] for r in good]
            raw = [r["record"]["raw"][name] for r in good]
            entry["metrics"][name] = {
                "unit": unit,
                "bound": bound,
                "normalised": spread(normalised),
                "raw": spread(raw),
            }
        probes = [r["record"]["probe_ms"]["median"] for r in good]
        raw_session = [r["record"]["raw"]["session_s"] for r in good]
        entry["probe_ms"] = spread(probes)
        entry["probe_vs_raw_session_correlation"] = correlation(probes, raw_session)
        out["sets"].append(entry)
    first, second = out["sets"]
    shifts = {}
    for name, _unit, better, bound in END_TO_END:
        a = first["metrics"][name]["normalised"]["median"]
        b = second["metrics"][name]["normalised"]["median"]
        worse = (b - a) / a if better == "lower" else (a - b) / a
        shifts[name] = {"second_vs_first_worse_by": worse, "bound": bound}
    out["median_shift"] = shifts
    return out


def render(summaries: list[dict], traced: dict) -> str:
    lines = ["# Steadiness evidence", ""]
    for summary in summaries:
        lines.append(f"## {summary['workload']}")
        lines.append("")
        for index, entry in enumerate(summary["sets"], 1):
            lines.append(
                f"Set {index}: seeds {entry['seeds'][0]}..{entry['seeds'][-1]}, "
                f"{entry['correct']}/{entry['runs']} runs correct, "
                f"{entry['failed']} of {entry['attempted']} sessions failed, "
                f"wall median {entry['wall_s']['median']:.1f} s; probe median "
                f"{entry['probe_ms']['median']:.3f} ms (IQR/median "
                f"{entry['probe_ms']['iqr_over_median']:.3f}); correlation of probe "
                f"with raw session_s across runs {entry['probe_vs_raw_session_correlation']:.2f}"
            )
        lines.append("")
        lines.append(
            "| metric | bound | set | median (norm) | q1 | q3 | IQR/median (norm) "
            "| median (raw) | IQR/median (raw) |"
        )
        lines.append("|---|---|---|---|---|---|---|---|---|")
        for name, unit, _better, bound in END_TO_END:
            for index, entry in enumerate(summary["sets"], 1):
                m = entry["metrics"][name]
                n, r = m["normalised"], m["raw"]
                lines.append(
                    f"| {name} ({unit}) | {bound} | {index} | {n['median']:.6g} | {n['q1']:.6g} "
                    f"| {n['q3']:.6g} | {n['iqr_over_median']:.3f} | {r['median']:.6g} "
                    f"| {r['iqr_over_median']:.3f} |"
                )
        lines.append("")
        lines.append("Second set's median worse than the first's by (negative = better):")
        lines.append("")
        for name, shift in summary["median_shift"].items():
            lines.append(
                f"- {name}: {shift['second_vs_first_worse_by']:+.3f} (bound {shift['bound']})"
            )
        runs = traced.get(summary["workload"], [])
        good = [r for r in runs if r.get("returncode") == 0]
        if good:
            lines.append("")
            lines.append(f"Traced runs (seeds {[r['seed'] for r in good]}), per-layer values:")
            lines.append("")
            lines.append("| metric | unit | " + " | ".join(f"seed {r['seed']}" for r in good) + " |")
            lines.append("|---|---|" + "---|" * len(good))
            for name, metric in good[0]["result"]["metrics"].items():
                values = " | ".join(f"{r['result']['metrics'][name]['value']:.6g}" for r in good)
                lines.append(f"| {name} | {metric['unit']} | {values} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True, help="output path without suffix")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summaries = []
    traced: dict[str, list[dict]] = {}
    raw_runs: dict = {}
    for workload in args.workloads:
        sets = []
        for index in range(SETS):
            seeds = range(1 + index * args.runs, 1 + (index + 1) * args.runs)
            runs = []
            for seed in seeds:
                run = run_once(workload, seed, seconds, 0)
                print(
                    f"{workload} set {index + 1} seed {seed}: wall {run['wall_s']:.1f} s "
                    f"rc {run['returncode']}",
                    file=sys.stderr,
                    flush=True,
                )
                runs.append(run)
            sets.append(runs)
        traced[workload] = [
            run_once(workload, 1000 + seed, seconds, 1) for seed in range(args.trace_runs)
        ]
        summaries.append(summarise(workload, sets))
        raw_runs[workload] = {
            "sets": [
                [
                    {
                        "seed": r["seed"],
                        "wall_s": r["wall_s"],
                        "result": r.get("result"),
                        "raw": r.get("record", {}).get("raw"),
                        "probe_ms": r.get("record", {}).get("probe_ms"),
                        "facts": r.get("record", {}).get("facts"),
                        "rss_baseline_mb": r.get("record", {}).get("rss_baseline_mb"),
                    }
                    for r in runs
                ]
                for runs in sets
            ],
            "traced": [
                {"seed": r["seed"], "wall_s": r["wall_s"], "result": r.get("result")}
                for r in traced[workload]
            ],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.with_suffix(".json").write_text(
        json.dumps({"summaries": summaries, "runs": raw_runs}, indent=1) + "\n"
    )
    args.out.with_suffix(".md").write_text(render(summaries, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
