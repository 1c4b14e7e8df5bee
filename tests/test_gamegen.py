import random
from fractions import Fraction

import pytest

from galcheck.checker import check, holds_at
from galcheck.gamegen import (
    Bimatrix,
    Board,
    FirstAvailable,
    Minimax,
    SpreadAll,
    derive_seed,
    minimax_value,
    policy_actions,
    pure_ne,
    random_bimatrix,
    tictactoe_structure,
)
from galcheck.logic import parse_formula

from _helpers import negamax_value, oracle_pure_ne, ttt_reachable_positions, ttt_winner


# --------------------------------------------------------------------------- #
# Boards


def test_board_basics():
    b = Board()
    assert b.mover == "X" and not b.is_terminal
    b2 = b.play(4)
    assert b2.cells == "....X...." and b2.mover == "O"
    with pytest.raises(ValueError):
        b2.play(4)


def test_board_rejects_impossible_counts():
    with pytest.raises(ValueError, match=r"^unreachable piece counts in 'XX\.+'$"):
        Board("XX.......")


def test_board_rejects_two_winners():
    with pytest.raises(ValueError, match=r"^both sides have completed lines in 'XXXOOO\.\.\.'$"):
        Board("XXXOOO...")


@pytest.mark.parametrize("cells", ["XX", "XX?......"])
def test_board_rejects_malformed_cells(cells):
    with pytest.raises(ValueError) as info:
        Board(cells)
    assert str(info.value) == f"bad board {cells!r}"


def test_board_winner_lines():
    assert Board("XXX.OO...").winner() == "X"
    assert Board("OO.XX.X.O").winner() is None


# --------------------------------------------------------------------------- #
# minimax


def test_minimax_terminal_scores():
    won = Board("XXXOO....")
    assert minimax_value(won, 5, None, "X") == Fraction(1)
    assert minimax_value(won, 5, None, "O") == Fraction(-1)


def test_minimax_depth0_returns_eval():
    b = Board("X...O....")
    assert minimax_value(b, 0, lambda _: Fraction(7, 2), "X") == Fraction(7, 2)
    assert minimax_value(b, 0, None, "X") == Fraction(0)


def test_minimax_full_depth_empty_board_is_draw():
    # the full 9-ply search must agree with an independently written negamax
    assert minimax_value(Board(), 9, None, "X") == Fraction(negamax_value("." * 9, "X"))


def test_minimax_matches_negamax_on_sample_positions():
    rng = random.Random(31)
    boards = []
    while len(boards) < 30:
        b = Board()
        for _ in range(rng.randrange(9)):
            if b.is_terminal:
                break
            b = b.play(rng.choice(b.legal_moves()))
        boards.append(b)
    for b in boards:
        for player in "XO":
            got = minimax_value(b, 9, None, player)
            assert got == Fraction(negamax_value(b.cells, player))


# --------------------------------------------------------------------------- #
# policies


def test_spread_all_on_empty_board():
    assert policy_actions(SpreadAll(), Board()) == list(range(9))


def test_first_available_picks_lowest_cell():
    assert policy_actions(FirstAvailable(), Board()) == [0]
    assert policy_actions(FirstAvailable(), Board("XO.......")) == [2]


def test_minimax_takes_the_winning_move():
    # X to move: only cell 2 completes the top row; other moves let O win
    b = Board("XX.OO....")
    assert policy_actions(Minimax(9), b) == [2]


def test_policy_rejects_terminal_board():
    with pytest.raises(ValueError):
        policy_actions(SpreadAll(), Board("XXXOO...."))


def test_minimax_depth_must_be_positive():
    with pytest.raises(ValueError):
        Minimax(0)


def test_minimax_choice_invariant_under_affine_eval_rescaling():
    rng = random.Random(97)

    def base_eval(b: Board) -> Fraction:
        w = b.winner()
        if w == "X":
            return Fraction(1)
        if w == "O":
            return Fraction(-1)
        return Fraction(b.cells.count("X") - b.cells.count("O"), 9)

    def rescaled(b: Board) -> Fraction:
        return Fraction(5) * base_eval(b) + Fraction(3, 7)

    boards = []
    while len(boards) < 20:
        b = Board()
        for _ in range(rng.randrange(8)):
            if b.is_terminal:
                break
            b = b.play(rng.choice(b.legal_moves()))
        if not b.is_terminal:
            boards.append(b)
    for b in boards:
        for depth in (1, 2, 3):
            a = policy_actions(Minimax(depth, base_eval), b)
            c = policy_actions(Minimax(depth, rescaled), b)
            assert a == c


# --------------------------------------------------------------------------- #
# tic-tac-toe structures


def test_spread_spread_reaches_all_positions():
    g = tictactoe_structure(SpreadAll(), SpreadAll())
    expected = ttt_reachable_positions()
    assert len(g.states) == len(expected) == 5478
    assert set(g.states) == expected


def test_initial_state_is_empty_board():
    g = tictactoe_structure(Minimax(3), FirstAvailable())
    assert g.initial == ("." * 9,)
    assert not Board(g.states[0]).is_terminal


def test_terminal_states_marked_exactly():
    g = tictactoe_structure(FirstAvailable(), SpreadAll())
    f = parse_formula("winX | winO | Draw", g.sig)
    flagged = check(g, f).states
    deadlocks = {e for e in g.states if g.is_deadlock(e)}
    empty_players = {e for e in g.states if not g.players_at[e]}
    assert flagged == deadlocks == empty_players


def test_win_predicates_never_both():
    g = tictactoe_structure(SpreadAll(), SpreadAll())
    both = check(g, parse_formula("winX & winO", g.sig)).states
    assert both == set()


def test_win_predicate_matches_independent_line_check():
    g = tictactoe_structure(SpreadAll(), SpreadAll())
    winx = check(g, parse_formula("winX", g.sig)).states
    assert winx == {e for e in g.states if ttt_winner(e) == "X"}


def test_minimax_player_never_loses():
    g = tictactoe_structure(Minimax(9), SpreadAll())
    assert not any(ttt_winner(e) == "O" for e in g.states)
    assert holds_at(g, g.states[0], parse_formula("AG !winO", g.sig))
    assert holds_at(g, g.states[0], parse_formula("AF (winX | Draw)", g.sig))


def test_first_available_can_lose():
    g = tictactoe_structure(FirstAvailable(), SpreadAll())
    assert not holds_at(g, g.states[0], parse_formula("AF (winX | Draw)", g.sig))


# --------------------------------------------------------------------------- #
# random tables


def test_random_bimatrix_constant_when_bound_one():
    b = random_bimatrix(3, 4, 1, 99)
    assert all(x == 0 for row in b.u1 for x in row)
    assert all(x == 0 for row in b.u2 for x in row)


def test_random_bimatrix_deterministic():
    assert random_bimatrix(4, 4, 10, 123) == random_bimatrix(4, 4, 10, 123)
    assert random_bimatrix(4, 4, 10, 123) != random_bimatrix(4, 4, 10, 124)


def test_random_bimatrix_golden_table():
    # frozen output of the pinned generator (splitmix64-mod-v1, seed 7)
    b = random_bimatrix(2, 2, 10, 7)
    assert b.u1 == ((7, 4), (6, 3))
    assert b.u2 == ((4, 5), (8, 2))


def test_random_bimatrix_range():
    b = random_bimatrix(6, 6, 5, 42)
    assert all(0 <= x < 5 for row in (*b.u1, *b.u2) for x in row)


@pytest.mark.parametrize(
    "m, n, bound, message",
    [
        (0, 2, 5, "action counts must be >= 1"),
        (2, 0, 5, "action counts must be >= 1"),
        (2, 2, 0, "payoff bound must be >= 1"),
    ],
)
def test_random_bimatrix_rejects_empty_shapes(m, n, bound, message):
    with pytest.raises(ValueError) as info:
        random_bimatrix(m, n, bound, 1)
    assert str(info.value) == message


def test_derive_seed_is_stable():
    assert derive_seed(5, 2, 0) == derive_seed(5, 2, 0)
    assert derive_seed(5, 2, 0) != derive_seed(5, 2, 1)
    assert derive_seed(5, 2, 0) != derive_seed(6, 2, 0)


def test_pure_ne_all_zero_table():
    for k in (1, 2, 4):
        b = random_bimatrix(k, k, 1, 0)
        assert len(pure_ne(b)) == k * k


def test_pure_ne_prisoners_dilemma():
    b = Bimatrix(2, 2, ((3, 0), (5, 1)), ((3, 5), (0, 1)))
    assert pure_ne(b) == [(1, 1)]


def test_pure_ne_matching_pennies():
    b = Bimatrix(2, 2, ((1, 0), (0, 1)), ((0, 1), (1, 0)))
    assert pure_ne(b) == []


def test_pure_ne_matches_deviation_oracle():
    rng = random.Random(613)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        b = random_bimatrix(m, n, rng.randint(1, 8), rng.randrange(1 << 32))
        assert pure_ne(b) == oracle_pure_ne(b.u1, b.u2)
