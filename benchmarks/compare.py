"""Collect result sets and compare two of them.

    # ten alternating pairs per workload, parent vs change checkout
    python3 benchmarks/compare.py collect --parent ../parent --change . --out .bench_results/x --runs 10
    # one checkout only, to see its run-to-run spread
    python3 benchmarks/compare.py collect --parent . --out .bench_results/base --runs 10
    python3 benchmarks/compare.py report .bench_results/x

A result set is a directory holding `<workload>.jsonl`, one result line per
run in run order; run i of both sides uses seed i (from 1) and runs for
BENCHMARK.json's `run_seconds`, and the side that runs first alternates from
one pair to the next.  `report` applies the
rule of the benchmark's guide, per workload and metric:

- unresolved: the parent's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every change run beats every parent
  run;
- gain: the change wins at least 9 of 10 pairs (ties count for neither side)
  and its median beats the parent's by more than the parent's quartile spread;
- regression: the change's median is worse than the parent's by more than
  the bound;
- same: none of these.

`eq-corpus`'s setup_s times only the benchmark's own game generator, which
no change to the package can move, so it is shown without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")
NO_VERDICT = {("eq-corpus", "setup_s"): "benchmark code only"}


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def collect(args) -> int:
    spec = _spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    sides = [s for s in SIDES if checkouts[s] is not None]
    out = Path(args.out)
    for i in range(args.runs):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for side in order:
                line = _run(Path(checkouts[side]), spec["command"], workload, i + 1, spec["run_seconds"], args.trace)
                target = out / side / f"{workload}.jsonl"
                target.parent.mkdir(parents=True, exist_ok=True)
                with target.open("a") as f:
                    f.write(line + "\n")
                print(f"run {i} {workload} {side}: {line[:100]}", file=sys.stderr)
    return 0


def _run(checkout: Path, command: list[str], workload: str, seed: int, seconds: int, trace: int) -> str:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def _load(path: Path) -> dict[str, list[dict]]:
    return {f.stem: [json.loads(line) for line in f.read_text().splitlines() if line.strip()]
            for f in sorted(path.glob("*.jsonl"))}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """The verdict on one metric, and the number of pairs the change won."""
    sign = -1.0 if better == "lower" else 1.0
    p1, pm, p3 = _quartiles(parent)
    _, cm, _ = _quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (cm - pm)
    if gap > 0 and wins >= 0.9 * min(len(parent), len(change)) and gap > p3 - p1:
        return "gain", wins
    if pm and (p3 - p1) / abs(pm) > bound:
        every = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("gain" if every else "unresolved"), wins
    if pm and -gap / abs(pm) > bound:
        return "regression", wins
    return "same", wins


def report(args) -> int:
    spec = _spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    root = Path(args.results)
    sets = {side: _load(root / side) for side in SIDES if (root / side).is_dir()}
    for workload, runs in sets.get("parent", {}).items():
        change_runs = sets.get("change", {}).get(workload)
        failed = {side: sum(r["failed"] for r in sets[side].get(workload, [])) for side in sets}
        print(f"\n{workload}: {len(runs)} parent runs, failed {failed}")
        print(f"  {'metric':<28}{'parent q1 / median / q3':>34}  {'spread':>7} {'bound':>6}"
              + (f"{'change q1 / median / q3':>34}  {'wins':>5}  verdict" if change_runs else ""))
        for name in runs[0]["metrics"]:
            spec_m = metrics.get(name, {})
            bound = spec_m.get("bound")
            parent = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = _quartiles(parent)
            spread = (q3 - q1) / abs(med) if med else 0.0
            row = f"  {name:<28}{q1:>11.5g} /{med:>10.5g} /{q3:>10.5g}  {spread:>7.3f} {bound if bound is not None else '-':>6}"
            if change_runs:
                change = [r["metrics"][name]["value"] for r in change_runs]
                c1, cm, c3 = _quartiles(change)
                # Per-layer metrics have no bound: any change beyond the spread shows.
                what, wins = verdict(parent, change, spec_m.get("better", "lower"), bound or 0.0)
                what = NO_VERDICT.get((workload, name), what)
                row += f"{c1:>11.5g} /{cm:>10.5g} /{c3:>10.5g}  {wins:>2}/{min(len(parent), len(change)):<2}  {what}"
            print(row)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark and append result lines")
    p.add_argument("--parent", required=True, help="checkout measured as the parent side")
    p.add_argument("--change", help="checkout measured as the change side")
    p.add_argument("--out", required=True, help="result directory")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append", help="repeatable; default: all")
    p.set_defaults(fn=collect)
    p = sub.add_parser("report", help="medians, quartiles and verdicts of a result directory")
    p.add_argument("results")
    p.set_defaults(fn=report)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
