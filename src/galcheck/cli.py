"""Command-line entry point.

Subcommands: `check` a formula against a structure file, `eq` to enumerate
equilibria of a game file, `gen` to produce experiment inputs, and `bench`
to time pure-equilibrium enumeration over generated tables.

Machine-readable output (JSON or CSV) goes to standard output or the -o
file; diagnostics go to standard error.  Exit codes: 0 success (for
`check`: every initial state satisfies the formula), 1 a `check` whose
formula fails on some initial state, 2 usage/input errors (including an
input file nested too deeply to read, and a formula nested deeper than
`logic.MAX_DEPTH` or too deep to parse), 3 an internal cross-check
disagreement in `eq`, 4 an internal failure (a defect), reported on one
line as `error: internal: ...`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .checker import check, result_json
from .errors import GalcheckError
from .extensive import (
    EquilibriumConcept,
    enumerate_equilibria,
    oracle_equilibria,
    profile_count,
)
from .gamegen import (
    FirstAvailable,
    Minimax,
    SpreadAll,
    derive_seed,
    pure_ne,
    random_bimatrix,
    tictactoe_structure,
)
from .logic import free_variables, parse_formula
from .textio import (
    BenchRecord,
    dump_bimatrix,
    dump_structure,
    load_game,
    load_structure,
    write_bench_csv,
)

MAX_PROFILES = 10**6


class _UsageError(Exception):
    pass


def _parse_policy(text: str):
    if text == "all":
        return SpreadAll()
    if text == "first":
        return FirstAvailable()
    if text.startswith("minimax:"):
        try:
            depth = int(text.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad minimax depth in policy {text!r}") from None
        if depth < 1:
            raise _UsageError("minimax depth must be >= 1")
        return Minimax(depth)
    raise _UsageError(f"unknown policy {text!r} (use all | first | minimax:DEPTH)")


def _parse_sizes(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise _UsageError(f"bad size range {text!r} (use A..B)")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"bad size range {text!r}") from None
    if lo < 1 or lo > hi:
        raise _UsageError(f"bad size range {text!r} (need 1 <= A <= B)")
    return lo, hi


# --------------------------------------------------------------------------- #
# Subcommands


def cmd_check(args: argparse.Namespace) -> int:
    g = load_structure(Path(args.model).read_bytes())
    if args.formula is not None:
        text = args.formula
    else:
        text = Path(args.formula_file).read_text(encoding="utf-8")
    formula = parse_formula(text, g.sig)

    by_name = {var.name: var for var in free_variables(formula)}
    valuation = {}
    for binding in args.bind or []:
        if "=" not in binding:
            raise _UsageError(f"bad binding {binding!r} (use VAR=ELEM)")
        name, label = binding.split("=", 1)
        var = by_name.get(name)
        if var is None:
            raise _UsageError(f"binding for {name!r}, which is not a free variable")
        try:
            valuation[var] = g.element(var.sort, label)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None

    sat = check(g, formula, valuation)
    print(json.dumps(result_json(sat, g.initial)))
    return 0 if set(g.initial) <= sat.states else 1


def cmd_eq(args: argparse.Namespace) -> int:
    game = load_game(Path(args.game).read_bytes())
    count = profile_count(game)
    if count > MAX_PROFILES and not args.force:
        raise _UsageError(
            f"game has {count} strategy profiles (> {MAX_PROFILES}); rerun with --force"
        )
    concept = EquilibriumConcept(args.concept)
    found = enumerate_equilibria(game, concept)
    reference = oracle_equilibria(game, concept)
    agree = found == reference
    print(
        json.dumps(
            {
                "concept": concept.value,
                "players": list(game.players),
                "profiles": [list(p.labels) for p in found],
                "count": len(found),
                "oracle_agrees": agree,
            }
        )
    )
    if not agree:
        print(
            "error: logic layer and definition oracle disagree on the equilibrium set",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.generator == "tictactoe":
        px = _parse_policy(args.playerX)
        po = _parse_policy(args.playerO)
        t0 = time.perf_counter()
        g = tictactoe_structure(px, po)
        millis = (time.perf_counter() - t0) * 1000.0
        Path(args.output).write_bytes(dump_structure(g))
        print(json.dumps({"states": len(g.states), "actions": len(g.actions)}))
        print(f"generated in {millis:.1f} ms", file=sys.stderr)
        return 0
    if args.generator == "random-2p":
        b = random_bimatrix(args.m, args.n, args.bound, args.seed)
        Path(args.output).write_bytes(dump_bimatrix(b))
        print(json.dumps({"m": b.m, "n": b.n, "cells": b.m * b.n}))
        return 0
    raise _UsageError(f"unknown generator {args.generator!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    lo, hi = _parse_sizes(args.sizes)
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    if args.bound < 0:
        raise _UsageError("--bound must be >= 0")
    # bound 0 means the constant-payoff family (every payoff is 0).
    payoff_bound = 1 if args.bound == 0 else args.bound
    records = []
    for size in range(lo, hi + 1):
        per_size = []
        for trial in range(args.trials):
            seed = derive_seed(args.seed, size, trial)
            table = random_bimatrix(size, size, payoff_bound, seed)
            t0 = time.perf_counter()
            solutions = pure_ne(table)
            millis = (time.perf_counter() - t0) * 1000.0
            per_size.append(millis)
            records.append(
                BenchRecord(
                    experiment="random-2p",
                    m=size,
                    n=size,
                    payoff_bound=payoff_bound,
                    seed=seed,
                    equilibria=len(solutions),
                    millis=millis,
                )
            )
        print(
            f"size {size}: {len(per_size)} trials, mean {sum(per_size) / len(per_size):.3f} ms",
            file=sys.stderr,
        )
    Path(args.output).write_bytes(write_bench_csv(records))
    return 0


# --------------------------------------------------------------------------- #
# Argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="galcheck",
        description="Check formulas against game structures and solve games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate a formula on a structure file")
    p_check.add_argument("--model", required=True, help="structure JSON file")
    src = p_check.add_mutually_exclusive_group(required=True)
    src.add_argument("--formula", help="formula text")
    src.add_argument("--formula-file", help="file containing the formula")
    p_check.add_argument(
        "--bind",
        action="append",
        metavar="VAR=ELEM",
        help="assign a free variable to a domain element (repeatable)",
    )
    p_check.set_defaults(fn=cmd_check)

    p_eq = sub.add_parser("eq", help="enumerate equilibria of a game file")
    p_eq.add_argument("--game", required=True, help="game JSON file")
    p_eq.add_argument("--concept", required=True, choices=["ne", "spe"])
    p_eq.add_argument("--force", action="store_true", help="ignore the profile-count guard")
    p_eq.set_defaults(fn=cmd_eq)

    p_gen = sub.add_parser("gen", help="generate experiment inputs")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_ttt = gen_sub.add_parser("tictactoe", help="policy-expanded tic-tac-toe structure")
    p_ttt.add_argument("--playerX", required=True, help="all | first | minimax:DEPTH")
    p_ttt.add_argument("--playerO", required=True, help="all | first | minimax:DEPTH")
    p_ttt.add_argument("-o", "--output", required=True)
    p_rnd = gen_sub.add_parser("random-2p", help="random two-player payoff table")
    p_rnd.add_argument("--m", type=int, required=True)
    p_rnd.add_argument("--n", type=int, required=True)
    p_rnd.add_argument("--bound", type=int, required=True)
    p_rnd.add_argument("--seed", type=int, required=True)
    p_rnd.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(fn=cmd_gen)

    p_bench = sub.add_parser("bench", help="time pure-equilibrium enumeration")
    bench_sub = p_bench.add_subparsers(dest="family", required=True)
    p_b2 = bench_sub.add_parser("random-2p")
    p_b2.add_argument("--sizes", required=True, metavar="A..B")
    p_b2.add_argument("--trials", type=int, required=True)
    p_b2.add_argument("--bound", type=int, required=True, help="0 for constant payoffs")
    p_b2.add_argument("--seed", type=int, required=True)
    p_b2.add_argument("-o", "--output", required=True)
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (_UsageError, GalcheckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never exit 1 ("formula false") on a failure
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main_entry() -> None:
    sys.exit(main())
