"""Finite perfect-information game trees, strategies, and their structure encoding.

A game is a rooted tree whose edges carry action names; histories are the
root-to-node action sequences, terminal histories carry one rational utility
per player, and every nonterminal history names the player to move.  The
canonical sibling order is the lexicographic order of action names, which
fixes strategy enumeration order, tie-breaking, and all serialized output.

The structure encoding turns each history into a state: sort H holds all
histories, T the terminal ones, U the occurring utility values, and one sort
per player holds that player's strategies.  The state-dependent 0-ary
function `h` designates the state's own history; `u<i>`, `O`, `O_h`, the
comparison `ge` on U, and the prefix predicate `onpath` are rigid.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .checker import check_all
from .errors import SortError, ValidationError
from .logic import (
    AG,
    EG,
    And,
    App,
    Forall,
    Formula,
    FuncDecl,
    Implies,
    PlayerAtom,
    Pred,
    PredDecl,
    Signature,
    Var,
)
from .structure import GalStructure, Valuation

History = tuple[str, ...]


@dataclass(frozen=True)
class GameNode:
    """A tree node: either a decision node (player + moves) or a terminal
    node (utilities covering every player)."""

    player: str | None = None
    moves: tuple[tuple[str, "GameNode"], ...] = ()
    utilities: tuple[tuple[str, Fraction], ...] | None = None

    @property
    def is_terminal(self) -> bool:
        return not self.moves

    def child(self, action: str) -> "GameNode":
        for a, node in self.moves:
            if a == action:
                return node
        raise ValueError(f"no action {action!r} here")


def decision(player: str, moves: Mapping[str, GameNode]) -> GameNode:
    """A decision node; moves are put in canonical (sorted) order."""
    return GameNode(player=player, moves=tuple(sorted(moves.items())))


def terminal(utilities: Mapping[str, Fraction | int]) -> GameNode:
    return GameNode(utilities=tuple(sorted((p, Fraction(u)) for p, u in utilities.items())))


@dataclass(frozen=True)
class ExtensiveGame:
    players: tuple[str, ...]
    root: GameNode


@dataclass(frozen=True)
class Strategy:
    """A total choice of one available action at each of the owner's
    decision histories (reachable or not), in canonical history order."""

    owner: str
    choice: tuple[tuple[History, str], ...]

    @property
    def label(self) -> str:
        return "<" + ",".join(a for _, a in self.choice) + ">"

    def action_at(self, h: History) -> str:
        for hist, a in self.choice:
            if hist == h:
                return a
        raise ValueError(f"strategy of {self.owner!r} has no choice at {h!r}")


@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple[Strategy, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.strategies)

    def by_owner(self, owner: str) -> Strategy:
        for s in self.strategies:
            if s.owner == owner:
                return s
        raise ValueError(f"profile has no strategy for {owner!r}")


class EquilibriumConcept(enum.Enum):
    NE = "ne"
    SPE = "spe"


def history_label(h: History) -> str:
    return f"({','.join(h)})"


# --------------------------------------------------------------------------- #
# Tree traversal


def node_at(g: ExtensiveGame, h: History) -> GameNode:
    node = g.root
    for a in h:
        node = node.child(a)
    return node


def histories(g: ExtensiveGame) -> list[History]:
    """All histories in preorder; siblings in canonical order."""
    out: list[History] = []

    def walk(node: GameNode, h: History) -> None:
        out.append(h)
        for a, child in node.moves:
            walk(child, h + (a,))

    walk(g.root, ())
    return out


def terminal_histories(g: ExtensiveGame) -> list[History]:
    return [h for h in histories(g) if node_at(g, h).is_terminal]


def decision_histories(g: ExtensiveGame, i: str) -> list[History]:
    return [h for h in histories(g) if node_at(g, h).player == i]


def utility(g: ExtensiveGame, h: History, i: str) -> Fraction:
    node = node_at(g, h)
    if node.utilities is None:
        raise ValueError(f"history {h!r} is not terminal")
    for p, u in node.utilities:
        if p == i:
            return u
    raise ValueError(f"terminal {h!r} has no utility for {i!r}")


def validate_game(g: ExtensiveGame) -> list[str]:
    """Invariant violations, empty iff the game is well formed."""
    out: list[str] = []
    if not g.players:
        out.append("game declares no players")
    if len(set(g.players)) != len(g.players):
        out.append("duplicate player ids")
    players = set(g.players)

    def walk(node: GameNode, h: History) -> None:
        where = history_label(h)
        if node.is_terminal:
            if node.utilities is None:
                out.append(f"terminal {where} has no utilities")
                return
            given = {p for p, _ in node.utilities}
            for p in g.players:
                if p not in given:
                    out.append(f"terminal {where} lacks a utility for player {p!r}")
            for p in given - players:
                out.append(f"terminal {where} has a utility for unknown player {p!r}")
        else:
            if node.player is None:
                out.append(f"nonterminal {where} has no player to move")
            elif node.player not in players:
                out.append(f"nonterminal {where} is moved by unknown player {node.player!r}")
            if node.utilities is not None:
                out.append(f"nonterminal {where} carries utilities")
            actions = [a for a, _ in node.moves]
            if len(set(actions)) != len(actions):
                out.append(f"duplicate sibling actions at {where}")
            for a, child in node.moves:
                walk(child, h + (a,))

    walk(g.root, ())
    return out


# --------------------------------------------------------------------------- #
# Strategies and outcomes


def strategies(g: ExtensiveGame, i: str) -> list[Strategy]:
    """All of player i's strategies: the Cartesian product of available
    actions over i's decision histories, in lexicographic order."""
    if i not in g.players:
        raise ValueError(f"unknown player {i!r}")
    hs = decision_histories(g, i)
    menus = [[a for a, _ in node_at(g, h).moves] for h in hs]
    out = []
    for picks in itertools.product(*menus):
        out.append(Strategy(i, tuple(zip(hs, picks))))
    return out


def profile_count(g: ExtensiveGame) -> int:
    n = 1
    for h in histories(g):
        node = node_at(g, h)
        if not node.is_terminal:
            n *= len(node.moves)
    return n


def outcome_from(g: ExtensiveGame, h: History, s: StrategyProfile) -> History:
    """The terminal history reached by following the profile from `h`."""
    node = node_at(g, h)
    while not node.is_terminal:
        action = s.by_owner(node.player).action_at(h)
        h = h + (action,)
        node = node.child(action)
    return h


def outcome(g: ExtensiveGame, s: StrategyProfile) -> History:
    """The terminal history reached by following the profile from the root."""
    return outcome_from(g, (), s)


def profiles(g: ExtensiveGame) -> Iterator[StrategyProfile]:
    per_player = [strategies(g, i) for i in g.players]
    for combo in itertools.product(*per_player):
        yield StrategyProfile(tuple(combo))


# --------------------------------------------------------------------------- #
# Structure encoding

_FIXED_SYMBOLS = ("h", "O", "O_h", "ge", "onpath", "H", "T", "U")


def to_gal_structure(g: ExtensiveGame) -> GalStructure:
    """Encode the game as a structure whose states are the histories."""
    violations = validate_game(g)
    if violations:
        raise ValidationError(violations)
    for p in g.players:
        if p in _FIXED_SYMBOLS or f"u{p}" in _FIXED_SYMBOLS:
            raise SortError(f"player id {p!r} collides with a generated symbol name")

    hs = histories(g)
    terms = [h for h in hs if node_at(g, h).is_terminal]
    by_label = {history_label(h): h for h in hs}
    strategy_sets = {p: strategies(g, p) for p in g.players}
    strat_by_label = {
        p: {s.label: s for s in strategy_sets[p]} for p in g.players
    }
    utils = sorted({u for h in terms for _, u in node_at(g, h).utilities})
    util_value = {_frac_label(u): u for u in utils}

    sorts = {"H", "T", "U"} | {f"S{p}" for p in g.players}
    functions = {
        "h": FuncDecl((), "H", rigid=False),
        "O": FuncDecl(tuple(f"S{p}" for p in g.players), "T", rigid=True),
        "O_h": FuncDecl(("H", *(f"S{p}" for p in g.players)), "T", rigid=True),
    }
    for p in g.players:
        functions[f"u{p}"] = FuncDecl(("T",), "U", rigid=True)
    predicates = {
        "ge": PredDecl(("U", "U"), rigid=True),
        "onpath": PredDecl(("H", "T"), rigid=True),
    }
    sig = Signature(sorts, functions, predicates, g.players)

    domains = {
        "H": [history_label(h) for h in hs],
        "T": [history_label(h) for h in terms],
        "U": [_frac_label(u) for u in utils],
    }
    for p in g.players:
        domains[f"S{p}"] = [s.label for s in strategy_sets[p]]

    def profile_of(labels: Sequence[str]) -> StrategyProfile:
        return StrategyProfile(
            tuple(strat_by_label[p][lab] for p, lab in zip(g.players, labels))
        )

    def fun_eval(name: str, state: str, args: tuple[str, ...]) -> str:
        if name == "h":
            return state
        if name == "O":
            return history_label(outcome(g, profile_of(args)))
        if name == "O_h":
            return history_label(outcome_from(g, by_label[args[0]], profile_of(args[1:])))
        if name.startswith("u"):
            return _frac_label(utility(g, by_label[args[0]], name[1:]))
        raise ValueError(f"unknown function {name!r}")

    def pred_eval(name: str, state: str, args: tuple[str, ...]) -> bool:
        if name == "ge":
            return util_value[args[0]] >= util_value[args[1]]
        if name == "onpath":
            h, t = by_label[args[0]], by_label[args[1]]
            return t[: len(h)] == h
        raise ValueError(f"unknown predicate {name!r}")

    states = [history_label(h) for h in hs]
    actions = []
    for h in hs:
        for a, _ in node_at(g, h).moves:
            actions.append((history_label(h), history_label(h + (a,))))
    players_at = {
        history_label(h): (
            frozenset() if node_at(g, h).is_terminal else frozenset((node_at(g, h).player,))
        )
        for h in hs
    }
    return GalStructure(
        sig=sig,
        states=states,
        initial=[history_label(())],
        actions=actions,
        domains=domains,
        players_at=players_at,
        fun_eval=fun_eval,
        pred_eval=pred_eval,
    )


def _frac_label(u: Fraction) -> str:
    return str(u.numerator) if u.denominator == 1 else f"{u.numerator}/{u.denominator}"


# --------------------------------------------------------------------------- #
# Equilibrium formulas

def profile_variables(g: ExtensiveGame) -> dict[str, Var]:
    """The free profile variables `v<i>`, one per player, valuation-bound."""
    return {p: Var(f"v{p}", f"S{p}") for p in g.players}


def _no_gain_by_deviation(g: ExtensiveGame) -> Formula:
    """For each player: if it is their move, no unilateral change of their
    strategy improves their utility from the current history onward."""
    vs = profile_variables(g)
    conjuncts = []
    for i in g.players:
        w = Var(f"w{i}", f"S{i}")
        kept = (App("h"), *(vs[p] for p in g.players))
        swapped = (App("h"), *(w if p == i else vs[p] for p in g.players))
        body = Pred(
            "ge",
            (App(f"u{i}", (App("O_h", kept),)), App(f"u{i}", (App("O_h", swapped),))),
        )
        conjuncts.append(Implies(PlayerAtom(i), Forall(w, body)))
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = And(out, c)
    return out


def spe_formula(g: ExtensiveGame) -> Formula:
    """Holds at the root under a profile valuation iff the profile is
    optimal for the mover at every history, reachable or not."""
    return AG(_no_gain_by_deviation(g))


def ne_formula(g: ExtensiveGame) -> Formula:
    """Holds at the root under a profile valuation iff the profile is
    optimal for the mover along its own outcome path."""
    vs = profile_variables(g)
    on_outcome = Pred(
        "onpath", (App("h"), App("O", tuple(vs[p] for p in g.players)))
    )
    return EG(And(on_outcome, _no_gain_by_deviation(g)))


def profile_valuation(gs: GalStructure, g: ExtensiveGame, s: StrategyProfile) -> Valuation:
    vs = profile_variables(g)
    return {
        vs[p]: gs.element(f"S{p}", strat.label)
        for p, strat in zip(g.players, s.strategies)
    }


# --------------------------------------------------------------------------- #
# Equilibrium computation


def enumerate_equilibria(
    g: ExtensiveGame,
    concept: EquilibriumConcept,
    gs: GalStructure | None = None,
) -> list[StrategyProfile]:
    """All profiles whose equilibrium formula holds at the initial state,
    in lexicographic profile order."""
    gs = gs or to_gal_structure(g)
    formula = spe_formula(g) if concept is EquilibriumConcept.SPE else ne_formula(g)
    root = history_label(())
    candidates = list(profiles(g))
    sats = check_all(gs, formula, [profile_valuation(gs, g, s) for s in candidates])
    return [s for s, sat in zip(candidates, sats) if root in sat.states]


def oracle_equilibria(g: ExtensiveGame, concept: EquilibriumConcept) -> list[StrategyProfile]:
    """Equilibria by direct definition-chasing over players, histories, and
    deviations; no logic layer involved."""
    out = []
    for s in profiles(g):
        if _oracle_holds(g, s, concept):
            out.append(s)
    return out


def _oracle_holds(g: ExtensiveGame, s: StrategyProfile, concept: EquilibriumConcept) -> bool:
    path = outcome(g, s)
    for i in g.players:
        for h in decision_histories(g, i):
            if concept is EquilibriumConcept.NE and path[: len(h)] != h:
                continue  # only histories on the profile's own path
            base = utility(g, outcome_from(g, h, s), i)
            for dev in strategies(g, i):
                swapped = StrategyProfile(
                    tuple(dev if t.owner == i else t for t in s.strategies)
                )
                if utility(g, outcome_from(g, h, swapped), i) > base:
                    return False
    return True


def backward_induction(g: ExtensiveGame) -> StrategyProfile:
    """One optimal profile computed bottom-up; ties go to the first action
    in canonical sibling order.  Always a member of the SPE set."""
    violations = validate_game(g)
    if violations:
        raise ValidationError(violations)
    choices: dict[str, dict[History, str]] = {p: {} for p in g.players}

    def solve(node: GameNode, h: History) -> dict[str, Fraction]:
        if node.is_terminal:
            return dict(node.utilities or ())
        best_action = None
        best_values: dict[str, Fraction] | None = None
        for a, child in node.moves:
            values = solve(child, h + (a,))
            if best_values is None or values[node.player] > best_values[node.player]:
                best_action, best_values = a, values
        choices[node.player][h] = best_action
        return best_values

    solve(g.root, ())
    strats = []
    for p in g.players:
        hs = decision_histories(g, p)
        strats.append(Strategy(p, tuple((h, choices[p][h]) for h in hs)))
    return StrategyProfile(tuple(strats))
