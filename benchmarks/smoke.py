"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced.  Checks that each metric BENCHMARK.json names is reported with its
unit, and that no request failed.  Takes about a minute.

    python3 benchmarks/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def _shrink(workloads) -> None:
    eq, bm = workloads["eq-corpus"], workloads["bimatrix-ne"]
    eq.GAMES, eq.COST_BAND, eq.CANDIDATES = 3, (0, 2000), 10
    bm.SIZES = (2, 3)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run._import_package()
    import workloads

    _shrink(workloads.WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
            result = json.loads(out.getvalue().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if code != 0:
                problems.append(f"{where}: exit code {code}")
            if units != expected[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {sorted(set(units.items()) ^ set(expected[trace].items()))}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} requests failed")
            print(f"{where}: {result['attempted']} requests, {result['failed']} failed", file=sys.stderr)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
