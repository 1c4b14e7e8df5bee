"""Experiment input generators: tic-tac-toe transition systems and random
two-player payoff tables.

Tic-tac-toe states are boards (transpositions merged), not move histories.
Each side expands according to a pluggable policy: spread-all branches on
every legal move, first-available and minimax commit to a single move.  The
random payoff tables come from a pinned deterministic generator
(splitmix64, draws reduced modulo the bound) so seeds are portable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .logic import PredDecl, Signature
from .structure import GalStructure

_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),  # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),  # columns
    (0, 4, 8), (2, 4, 6),             # diagonals
)


@dataclass(frozen=True)
class Board:
    """Nine cells, 'X'/'O'/'.'; X moves first, so X never trails O."""

    cells: str = "........."

    def __post_init__(self):
        if len(self.cells) != 9 or any(c not in "XO." for c in self.cells):
            raise ValueError(f"bad board {self.cells!r}")
        x, o = self.cells.count("X"), self.cells.count("O")
        if x - o not in (0, 1):
            raise ValueError(f"unreachable piece counts in {self.cells!r}")
        lines = {self.cells[a] for a, b, c in _LINES if self.cells[a] == self.cells[b] == self.cells[c]}
        if {"X", "O"} <= lines:
            raise ValueError(f"both sides have completed lines in {self.cells!r}")

    @property
    def mover(self) -> str:
        return "X" if self.cells.count("X") == self.cells.count("O") else "O"

    def winner(self) -> str | None:
        for a, b, c in _LINES:
            if self.cells[a] != "." and self.cells[a] == self.cells[b] == self.cells[c]:
                return self.cells[a]
        return None

    @property
    def is_full(self) -> bool:
        return "." not in self.cells

    @property
    def is_terminal(self) -> bool:
        return self.is_full or self.winner() is not None

    def legal_moves(self) -> list[int]:
        return [i for i, c in enumerate(self.cells) if c == "."]

    def play(self, cell: int) -> "Board":
        if self.cells[cell] != ".":
            raise ValueError(f"cell {cell} is occupied")
        return Board(self.cells[:cell] + self.mover + self.cells[cell + 1 :])


EvalFn = Callable[[Board], Fraction]


def exact_eval(player: str) -> EvalFn:
    """Score +1 for a won terminal, -1 for a lost one, 0 otherwise."""

    def score(b: Board) -> Fraction:
        w = b.winner()
        if w == player:
            return Fraction(1)
        if w is not None:
            return Fraction(-1)
        return Fraction(0)

    return score


@dataclass(frozen=True)
class SpreadAll:
    pass


@dataclass(frozen=True)
class FirstAvailable:
    pass


@dataclass(frozen=True)
class Minimax:
    """Depth-limited minimax.  The evaluation function scores every
    position (terminals included) for the maximizing player; None means
    exact terminal scoring."""

    depth: int
    eval: EvalFn | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("minimax depth must be >= 1")


Policy = SpreadAll | FirstAvailable | Minimax


def minimax_value(
    b: Board,
    depth: int,
    eval_fn: EvalFn | None,
    maximizing: str,
    _memo: dict | None = None,
) -> Fraction:
    """Depth-limited minimax value of `b` for `maximizing`.

    The search stops at terminal positions and at depth 0 and applies the
    evaluation function there; the move ordering below never affects the
    value, only policy_actions' tie-breaking does.
    """
    fn = eval_fn if eval_fn is not None else exact_eval(maximizing)
    memo = _memo if _memo is not None else {}

    def go(b: Board, depth: int) -> Fraction:
        if b.is_terminal or depth == 0:
            return fn(b)
        key = (b.cells, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        values = (go(b.play(c), depth - 1) for c in b.legal_moves())
        out = max(values) if b.mover == maximizing else min(values)
        memo[key] = out
        return out

    return go(b, depth)


def policy_actions(p: Policy, b: Board, _memo: dict | None = None) -> list[int]:
    """The cells a policy plays at `b` (the side to move owns the policy).

    Spread-all plays every legal move; first-available the lowest empty
    cell; minimax the argmax child value with ties going to the lowest cell.
    """
    if b.is_terminal:
        raise ValueError("no actions at a terminal board")
    moves = b.legal_moves()
    if isinstance(p, SpreadAll):
        return moves
    if isinstance(p, FirstAvailable):
        return [moves[0]]
    best_cell, best_val = None, None
    for c in moves:
        val = minimax_value(b.play(c), p.depth - 1, p.eval, b.mover, _memo)
        if best_val is None or val > best_val:
            best_cell, best_val = c, val
    return [best_cell]


def tictactoe_structure(px: Policy, po: Policy) -> GalStructure:
    """Expand the game from the empty board, X via `px` and O via `po`.

    States are the reachable boards; the mover's player set sits on each
    nonterminal state, and the 0-ary predicates winX, winO, and Draw are
    interpreted per state.
    """
    start = Board()
    memos = {"X": {}, "O": {}}
    states = [start.cells]
    actions: list[tuple[str, str]] = []
    players_at: dict[str, frozenset[str]] = {}
    seen = {start.cells}
    frontier = [start]
    while frontier:
        board = frontier.pop()
        if board.is_terminal:
            players_at[board.cells] = frozenset()
            continue
        players_at[board.cells] = frozenset((board.mover,))
        policy = px if board.mover == "X" else po
        for cell in policy_actions(policy, board, memos[board.mover]):
            child = board.play(cell)
            actions.append((board.cells, child.cells))
            if child.cells not in seen:
                seen.add(child.cells)
                states.append(child.cells)
                frontier.append(child)

    holds = {
        "winX": lambda b: b.winner() == "X",
        "winO": lambda b: b.winner() == "O",
        "Draw": lambda b: b.is_full and b.winner() is None,
    }
    sig = Signature(
        sorts=(),
        functions={},
        predicates={name: PredDecl(()) for name in holds},
        players=("X", "O"),
    )

    def meaning(name: str, state: str, args: tuple[str, ...]) -> bool:
        return holds[name](Board(state))

    # no function is declared, so the provider never calls `fun_eval`
    return GalStructure(
        sig=sig,
        states=states,
        initial=[start.cells],
        actions=actions,
        domains={},
        players_at=players_at,
        fun_eval=meaning,
        pred_eval=meaning,
    )


# --------------------------------------------------------------------------- #
# Random two-player tables

_M64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 stream; pinned so seeds mean the same thing everywhere."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next() % bound


def derive_seed(seed: int, *parts: int) -> int:
    """A per-(size, trial) seed for bench runs, mixed through the stream."""
    rng = SplitMix64(seed)
    out = rng.next()
    for part in parts:
        rng = SplitMix64(out ^ (part & _M64))
        out = rng.next()
    return out


@dataclass(frozen=True)
class Bimatrix:
    """Payoff tables of a two-player one-shot game; u1/u2 are row-major."""

    m: int
    n: int
    u1: tuple[tuple[int, ...], ...]
    u2: tuple[tuple[int, ...], ...]
    seed: int = 0


def random_bimatrix(m: int, n: int, payoff_bound: int, seed: int) -> Bimatrix:
    """Payoffs drawn uniformly from [0, payoff_bound) by splitmix64-mod-v1.

    Draw order is pinned: all of u1 row-major, then all of u2 row-major.
    payoff_bound = 1 yields the all-zero (constant payoff) table.
    """
    if m < 1 or n < 1:
        raise ValueError("action counts must be >= 1")
    if payoff_bound < 1:
        raise ValueError("payoff bound must be >= 1")
    rng = SplitMix64(seed)
    u1 = tuple(tuple(rng.below(payoff_bound) for _ in range(n)) for _ in range(m))
    u2 = tuple(tuple(rng.below(payoff_bound) for _ in range(n)) for _ in range(m))
    return Bimatrix(m, n, u1, u2, seed)


def pure_ne(b: Bimatrix) -> list[tuple[int, int]]:
    """All pure-strategy equilibria: cells that maximize u1 within their
    column and u2 within their row, in row-major order."""
    col_best = [max(b.u1[r][c] for r in range(b.m)) for c in range(b.n)]
    row_best = [max(b.u2[r][c] for c in range(b.n)) for r in range(b.m)]
    return [
        (r, c)
        for r, c in itertools.product(range(b.m), range(b.n))
        if b.u1[r][c] == col_best[c] and b.u2[r][c] == row_best[r]
    ]
