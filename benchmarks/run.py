"""Benchmark of the galcheck package: one closed-loop client, one process at a time.

    python3 benchmarks/run.py --workload eq-corpus --seed 1 --seconds 55 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`, never from an installed copy.  A run generates one
request list from --seed and sends it in rounds within --seconds, at least
MIN_ROUNDS times.  The first SETUPS rounds set the inputs up again (timed
for setup_s).  Each round forks a child that sends the requests one after
another, times each, records its peak memory and only then checks the
outputs: the first round against the workload's reference, later ones
against the digests of the outputs that passed it, which gives the same
verdicts.  A child starts from the parent's state, which has never run a
request, so no round reuses what an earlier one computed, and the
reference's memory never counts toward peak_rss_mb.  A request's latency
is its best time over the rounds: on a shared host the same work runs up
to twice as slowly in spells of many seconds, and the best of several
rounds spread over the run is what a spell shorter than the run leaves
alone.

With --trace 0 the result carries the end-to-end metrics.  With --trace 1
each iteration runs the pass untraced and then traced on the same inputs,
in this process; the per-layer metrics come from the first traced
iteration, its spans are written to .bench_traces/, and trace.overhead_s
is the median gap between traced and untraced pass wall time.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
# The first SETUPS rounds set the inputs up again before they run; later
# rounds reuse the last set-up's requests.  setup_s is the median of those.
SETUPS = 10
# A set-up is repeated until this much time has passed, and a setup_s sample
# is the mean of one set-up in that block.  A set-up of a few ms timed once
# reads high or low as a garbage collection falls inside it or not, and the
# median of such readings jumps between the two.
SETUP_BLOCK_S = 0.2


def _import_package() -> None:
    """Put the checkout's source first on the path; refuse anything else."""
    if not (SRC / "galcheck" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import galcheck

    if Path(galcheck.__file__).resolve().parent != SRC / "galcheck":
        raise SystemExit(f"error: imported galcheck from {galcheck.__file__}, not {SRC}")


class Pass:
    """Timings and outputs of one pass over a request list."""

    def __init__(self, workload, requests, tracer=None):
        self.latencies: list[float] = []
        self.outputs = []
        t0 = time.perf_counter()
        for k, request in enumerate(requests):
            if tracer is not None:
                tracer.current_request = k
            t = time.perf_counter()
            try:
                out = workload.run(request)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = _FAILED
            self.latencies.append(time.perf_counter() - t)
            self.outputs.append(out)
        self.wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.current_request = -1
        self.attempted = len(requests)


_FAILED = object()


def _clear_caches() -> None:
    """Empty the package's module caches, as a fresh process has them."""
    from galcheck import logic

    clear = getattr(getattr(logic, "free_variables", None), "cache_clear", None)
    if clear is not None:
        clear()


def _count_failed(workload, requests, outputs) -> int:
    return sum(
        out is _FAILED or not _verified(workload, request, out)
        for request, out in zip(requests, outputs)
    )


def _in_child(work):
    """Run `work()` in a forked child and return the JSON value it returns,
    or None if the child dies without one."""
    read, write = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "w") as f:
                json.dump(work(), f)
            code = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as f:
        answer = f.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(answer) if status == 0 and answer else None


def _digest(out) -> str | None:
    return None if out is _FAILED else hashlib.sha256(repr(out).encode()).hexdigest()


def _round(workload, requests, expected):
    """One pass in a child: latencies, peak memory read before the outputs
    are checked, and per request its output's digest and whether it passed.
    Without `expected`, each output is checked against the workload's
    reference; with it, against the digest of the output that passed the
    reference in an earlier round (None where none did)."""

    def work():
        gc.collect()  # a full collection now, not inside the first request
        p = Pass(workload, requests)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        digests = [_digest(out) for out in p.outputs]
        if expected is None:
            ok = [d is not None and _verified(workload, r, out) for d, r, out in zip(digests, requests, p.outputs)]
        else:
            ok = [d is not None and d == e for d, e in zip(digests, expected)]
        return {"latencies": p.latencies, "rss_kb": rss_kb, "digests": digests, "ok": ok}

    return _in_child(work)


def _verified(workload, request, out) -> bool:
    try:
        return workload.verify(request, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def _timed_setup(workload, seed, workdir):
    """The run's requests, from the last of a block of set-ups, and the
    mean time of one set-up in the block."""
    _clear_caches()
    count, t0 = 0, time.perf_counter()
    while True:
        requests = workload.setup(seed, workdir)
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_BLOCK_S:
            return requests, elapsed / count


def measure(workload, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics: untraced rounds, each a pass in a child."""
    setups, rounds = [], []
    expected = None
    attempted = failed = tries = 0
    start = last = time.perf_counter()
    # Start a round only if it ends in time, when it takes as long as the last.
    while tries < MIN_ROUNDS or 2 * time.perf_counter() - last - start < seconds:
        tries += 1
        last = time.perf_counter()
        if len(setups) < SETUPS:
            requests, setup_s = _timed_setup(workload, seed, workdir)
            setups.append(setup_s)
        result = _round(workload, requests, expected)
        attempted += len(requests)
        if result is None:
            failed += len(requests)
            continue
        failed += result["ok"].count(False)
        rounds.append(result)
        if expected is None:
            expected = [d if ok else None for d, ok in zip(result["digests"], result["ok"])]
    if not rounds:
        raise SystemExit("error: no round completed")
    best = [min(times) for times in zip(*(r["latencies"] for r in rounds))]
    wall = sum(best)
    latencies_ms = [x * 1000.0 for x in best]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    metrics = {
        "wall_s": wall,
        "latency_ms_p50": deciles[4],
        "latency_ms_p90": deciles[8],
        "profiles_per_s": sum(workload.profiles(r) for r in requests) / wall,
        "checks_per_s": len(requests) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024.0,
    }
    notes = {
        "rounds": f"{len(rounds)} of {tries}",
        "latency_samples": len(latencies_ms),
        "beyond_p90": sum(x > deciles[8] for x in latencies_ms),
    }
    return attempted, failed, metrics, notes


def measure_traced(workload, name: str, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics from the first traced iteration, and the overhead."""
    import spans

    first, gaps = None, []
    attempted = failed = 0
    start = time.perf_counter()
    while not gaps or time.perf_counter() - start < seconds:
        tracer = spans.Tracer()
        walls = []
        for traced in (False, True):
            _clear_caches()
            undo = spans.install(tracer) if traced else None
            try:  # set-up is traced too: it crosses gamegen and textio
                requests = workload.setup(seed, workdir)
                p = Pass(workload, requests, tracer if traced else None)
            finally:
                if traced:
                    spans.uninstall(tracer, undo)
            walls.append(p.wall)
            checked = _in_child(lambda: _count_failed(workload, requests, p.outputs))
            attempted += p.attempted
            failed += p.attempted if checked is None else checked
        gaps.append(walls[1] - walls[0])
        if first is None:
            first = tracer
    out = ROOT / ".bench_traces" / f"{name}-seed{seed}.jsonl.gz"
    first.write(out)
    metrics = spans.per_layer_metrics(first, statistics.median(gaps))
    notes = {"iterations": len(gaps), "spans_file": str(out.relative_to(ROOT))}
    return attempted, failed, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            attempted, failed, metrics, notes = measure_traced(workload, args.workload, args.seed, args.seconds, workdir)
        else:
            attempted, failed, metrics, notes = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        raise SystemExit(f"error: metrics {sorted(metrics.keys() ^ units.keys())} differ from BENCHMARK.json")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key:<28} {value}")
    print(f"  {'failed_ratio':<28} {failed / attempted:.6g}  ({failed} of {attempted})")
    for key, value in metrics.items():
        print(f"  {key:<28} {value:.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
