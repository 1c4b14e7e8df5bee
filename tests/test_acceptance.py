"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance (exactness or runtime budget) and
prints one PASS line; run with `pytest tests/test_acceptance.py -v -s` to see
them.  Random corpora are seeded, so every run checks the same inputs.
"""

import collections
import csv
import json
import random
import time
from dataclasses import dataclass

import pytest

from galcheck.checker import holds_at
from galcheck.cli import main
from galcheck.extensive import (
    EquilibriumConcept,
    backward_induction,
    ne_formula,
    oracle_equilibria,
    profile_valuation,
    profiles,
    spe_formula,
    to_gal_structure,
)
from galcheck.logic import App
from galcheck.structure import eval_term

from _helpers import random_game, random_structure, run_identity_suite, run_path_oracle_suite

CORPUS_SEED = 20260810
CORPUS_GAMES = 220
SUITE_SEED = 90137
SUITE_STRUCTURES = 120


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


# --------------------------------------------------------------------------- #
# Shared corpora


@dataclass
class GameAudit:
    game: object
    per_profile: list  # (labels, spe_logic, spe_oracle, ne_logic, ne_oracle)
    state_count: int
    action_count: int
    terminal_flags_consistent: bool
    history_designator_ok: bool


@pytest.fixture(scope="module")
def corpus_audit():
    """Per-profile logic-vs-oracle audit over the random game corpus; built
    once and shared by criteria 2, 7, and 8.  Wall time is recorded so
    criterion 2 can enforce its budget."""
    rng = random.Random(CORPUS_SEED)
    games = [random_game(rng) for _ in range(CORPUS_GAMES)]
    t0 = time.perf_counter()
    audits = []
    for game in games:
        gs = to_gal_structure(game)
        spe_f, ne_f = spe_formula(game), ne_formula(game)
        spe_oracle = {p.labels for p in oracle_equilibria(game, EquilibriumConcept.SPE)}
        ne_oracle = {p.labels for p in oracle_equilibria(game, EquilibriumConcept.NE)}
        rows = []
        for s in profiles(game):
            v = profile_valuation(gs, game, s)
            rows.append(
                (
                    s.labels,
                    holds_at(gs, "()", spe_f, v),
                    s.labels in spe_oracle,
                    holds_at(gs, "()", ne_f, v),
                    s.labels in ne_oracle,
                )
            )
        hs = list(game.nodes)
        flags_ok = all(
            gs.is_deadlock(e) == (not gs.players_at[e]) for e in gs.states
        )
        designator_ok = all(
            eval_term(gs, e, App("h")).label == e for e in gs.states
        )
        audits.append(
            GameAudit(game, rows, len(gs.states), len(gs.actions), flags_ok, designator_ok)
        )
    elapsed = time.perf_counter() - t0
    return games, audits, elapsed


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(SUITE_SEED)
    structures = [random_structure(rng, max_states=20) for _ in range(SUITE_STRUCTURES)]
    return structures, rng


# --------------------------------------------------------------------------- #
# Criterion 1 — worked example exactness


def test_criterion_1_worked_example(example_game_path, capsys):
    t0 = time.perf_counter()
    assert main(["eq", "--game", str(example_game_path), "--concept", "ne"]) == 0
    ne_doc = json.loads(capsys.readouterr().out)
    assert main(["eq", "--game", str(example_game_path), "--concept", "spe"]) == 0
    spe_doc = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0

    assert ne_doc["profiles"] == [["<A>", "<R>"], ["<B>", "<L>"]]
    assert spe_doc["profiles"] == [["<A>", "<R>"]]
    assert ne_doc["oracle_agrees"] and spe_doc["oracle_agrees"]
    assert elapsed < 1.0
    with capsys.disabled():
        _report("1", f"both concepts exact on the worked example in {elapsed:.3f}s")


# --------------------------------------------------------------------------- #
# Criterion 2 — per-profile equivalence of formulas and definitions


def test_criterion_2_equivalence_audit(corpus_audit, capsys):
    games, audits, elapsed = corpus_audit
    assert len(games) >= 200
    checked = 0
    for audit in audits:
        for labels, spe_logic, spe_oracle, ne_logic, ne_oracle in audit.per_profile:
            assert spe_logic == spe_oracle, (audit.game, labels, "spe")
            assert ne_logic == ne_oracle, (audit.game, labels, "ne")
            checked += 1
    assert elapsed < 300.0
    with capsys.disabled():
        _report(
            "2",
            f"{checked} profile checks across {len(games)} games agree bit-for-bit "
            f"for both concepts in {elapsed:.1f}s",
        )


# --------------------------------------------------------------------------- #
# Criterion 3 — semantic identity suite


def test_criterion_3_semantic_identities(random_suite, capsys):
    structures, rng = random_suite
    assert len(structures) >= 100
    t0 = time.perf_counter()
    run_identity_suite(structures, 2, rng)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        _report(
            "3",
            f"nine identities, three dualities, and extensionality hold on "
            f"{len(structures)} structures in {elapsed:.1f}s",
        )


# --------------------------------------------------------------------------- #
# Criterion 4 — path-semantics oracle


def test_criterion_4_path_oracle(random_suite, capsys):
    structures, rng = random_suite
    small = [g for g in structures if len(g.states) <= 8]
    assert small, "the random suite must contain small structures"
    t0 = time.perf_counter()
    run_path_oracle_suite(small, 3, rng)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        _report(
            "4",
            f"fixpoint EU/AU/AX match maximal-path enumeration on "
            f"{len(small)} structures (<= 8 states) in {elapsed:.1f}s",
        )


# --------------------------------------------------------------------------- #
# Criterion 5 — tic-tac-toe reproduction (qualitative)


def test_criterion_5_tictactoe(tmp_path, capsys):
    t0 = time.perf_counter()
    strong = tmp_path / "ttt-minimax.json"
    weak = tmp_path / "ttt-first.json"
    assert main(["gen", "tictactoe", "--playerX", "minimax:9", "--playerO", "all", "-o", str(strong)]) == 0
    assert main(["gen", "tictactoe", "--playerX", "first", "--playerO", "all", "-o", str(weak)]) == 0
    capsys.readouterr()

    codes = {}
    codes["minimax_af"] = main(["check", "--model", str(strong), "--formula", "AF (winX | Draw)"])
    codes["minimax_ag"] = main(["check", "--model", str(strong), "--formula", "AG !winO"])
    codes["first_af"] = main(["check", "--model", str(weak), "--formula", "AF (winX | Draw)"])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0

    assert codes["minimax_af"] == 0
    assert codes["minimax_ag"] == 0
    assert codes["first_af"] == 1
    assert elapsed < 300.0
    with capsys.disabled():
        _report(
            "5",
            f"minimax(9) vs spread-all never loses and always wins-or-draws; "
            f"first-available does not (generation + checks {elapsed:.1f}s)",
        )


# --------------------------------------------------------------------------- #
# Criterion 6 — constant vs random payoff bench


def test_criterion_6_bench_families(tmp_path, capsys):
    trials = 50
    t0 = time.perf_counter()
    const_csv = tmp_path / "const.csv"
    rand_csv = tmp_path / "rand.csv"
    assert main(["bench", "random-2p", "--sizes", "2..10", "--trials", str(trials),
                 "--bound", "0", "--seed", "42", "-o", str(const_csv)]) == 0
    assert main(["bench", "random-2p", "--sizes", "2..10", "--trials", str(trials),
                 "--bound", "1000", "--seed", "42", "-o", str(rand_csv)]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - t0

    def per_size(path, check_counts):
        totals = collections.defaultdict(float)
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                size = int(row["m"])
                totals[size] += float(row["millis"])
                if check_counts:
                    assert int(row["equilibria"]) == size * size
        return totals

    const_totals = per_size(const_csv, check_counts=True)
    rand_totals = per_size(rand_csv, check_counts=False)
    assert set(const_totals) == set(rand_totals) == set(range(2, 11))
    worst = 0.0
    for size in range(2, 11):
        hi = max(const_totals[size], rand_totals[size])
        lo = min(const_totals[size], rand_totals[size])
        ratio = hi / lo if lo > 0 else 1.0
        worst = max(worst, ratio)
        assert ratio <= 5.0, f"size {size}: constant vs random ratio {ratio:.2f}"
    assert elapsed < 300.0
    with capsys.disabled():
        _report(
            "6",
            f"constant-payoff counts are exactly n^2 and per-size runtime within "
            f"5x of the random family (worst ratio {worst:.2f}) in {elapsed:.1f}s",
        )


# --------------------------------------------------------------------------- #
# Criterion 7 — structure mapping audit


def test_criterion_7_structure_mapping(corpus_audit, capsys):
    games, audits, _ = corpus_audit
    for game, audit in zip(games, audits):
        hs = list(game.nodes)
        assert audit.state_count == len(hs)
        assert audit.action_count == len(hs) - 1
        assert audit.terminal_flags_consistent
        assert audit.history_designator_ok
    with capsys.disabled():
        _report(
            "7",
            f"|states| = |H|, |actions| = |H|-1, terminal <=> deadlock <=> no players, "
            f"and the history designator is exact on all {len(games)} games",
        )


# --------------------------------------------------------------------------- #
# Criterion 8 — SPE sanity


def test_criterion_8_spe_sanity(corpus_audit, capsys):
    games, audits, _ = corpus_audit
    for game, audit in zip(games, audits):
        spe = {labels for labels, spe_logic, *_ in audit.per_profile if spe_logic}
        ne = {labels for labels, _, _, ne_logic, _ in audit.per_profile if ne_logic}
        assert spe, "every finite game must have a subgame perfect equilibrium"
        assert backward_induction(game).labels in spe
        assert spe <= ne
    with capsys.disabled():
        _report(
            "8",
            f"SPE set nonempty, contains the backward-induction profile, and is "
            f"a subset of the NE set on all {len(games)} games",
        )
