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
from functools import cached_property
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


def decision(player: str, moves: Mapping[str, GameNode]) -> GameNode:
    """A decision node; moves are put in canonical (sorted) order."""
    return GameNode(player=player, moves=tuple(sorted(moves.items())))


def terminal(utilities: Mapping[str, Fraction | int]) -> GameNode:
    return GameNode(utilities=tuple(sorted((p, Fraction(u)) for p, u in utilities.items())))


@dataclass(frozen=True)
class ExtensiveGame:
    players: tuple[str, ...]
    root: GameNode

    @cached_property
    def nodes(self) -> dict[History, GameNode]:
        """Every history's node in preorder, built once without recursion.
        A duplicated sibling action keeps one child; `validate_game` reports it."""
        out: dict[History, GameNode] = {}
        stack: list[tuple[History, GameNode]] = [((), self.root)]
        while stack:
            h, node = stack.pop()
            out[h] = node
            stack.extend((h + (a,), child) for a, child in reversed(node.moves))
        return out


@dataclass(frozen=True)
class Strategy:
    """A total choice of one available action at each of the owner's
    decision histories (reachable or not), in canonical history order."""

    owner: str
    choice: tuple[tuple[History, str], ...]

    @property
    def label(self) -> str:
        return "<" + ",".join(a for _, a in self.choice) + ">"

    @cached_property
    def _by_history(self) -> dict[History, str]:
        return dict(reversed(self.choice))  # the first choice at a history wins

    def action_at(self, h: History) -> str:
        try:
            return self._by_history[h]
        except KeyError:
            raise ValueError(f"strategy of {self.owner!r} has no choice at {h!r}") from None


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


def histories(g: ExtensiveGame) -> list[History]:
    """All histories in preorder; siblings in canonical order."""
    return list(g.nodes)


def terminal_histories(g: ExtensiveGame) -> list[History]:
    return [h for h, node in g.nodes.items() if node.is_terminal]


def decision_histories(g: ExtensiveGame, i: str) -> list[History]:
    return [h for h, node in g.nodes.items() if node.player == i]


def utility(g: ExtensiveGame, h: History, i: str) -> Fraction:
    node = g.nodes.get(h)
    if node is None or node.utilities is None:
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

    # The raw tree, not `g.nodes`, so both children of a duplicated action are checked.
    stack: list[tuple[History, GameNode]] = [((), g.root)]
    while stack:
        h, node = stack.pop()
        where = history_label(h)
        if node.is_terminal:
            if node.utilities is None:
                out.append(f"terminal {where} has no utilities")
                continue
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
            stack.extend((h + (a,), child) for a, child in reversed(node.moves))
    return out


# --------------------------------------------------------------------------- #
# Strategies and outcomes


def strategies(g: ExtensiveGame, i: str) -> list[Strategy]:
    """All of player i's strategies: the Cartesian product of available
    actions over i's decision histories, in lexicographic order."""
    if i not in g.players:
        raise ValueError(f"unknown player {i!r}")
    hs = decision_histories(g, i)
    menus = [[a for a, _ in g.nodes[h].moves] for h in hs]
    out = []
    for picks in itertools.product(*menus):
        out.append(Strategy(i, tuple(zip(hs, picks))))
    return out


def profile_count(g: ExtensiveGame) -> int:
    n = 1
    for node in g.nodes.values():
        if not node.is_terminal:
            n *= len(node.moves)
    return n


def outcome_from(g: ExtensiveGame, h: History, s: StrategyProfile) -> History:
    """The terminal history reached by following the profile from `h`."""
    node = g.nodes[h]
    while not node.is_terminal:
        h = h + (s.by_owner(node.player).action_at(h),)
        node = g.nodes[h]
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

    states, terms, actions = [], [], []
    players_at, by_label, utils_seen = {}, {}, set()
    for h, node in g.nodes.items():
        label = history_label(h)
        states.append(label)
        by_label[label] = h
        if node.is_terminal:
            terms.append(label)
            players_at[label] = frozenset()
            utils_seen.update(u for _, u in node.utilities)
        else:
            players_at[label] = frozenset((node.player,))
            actions.extend((label, history_label(h + (a,))) for a, _ in node.moves)

    strategy_sets = {p: strategies(g, p) for p in g.players}
    strat_by_label = {
        p: {s.label: s for s in strategy_sets[p]} for p in g.players
    }
    utils = sorted(utils_seen)
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
        "H": states,
        "T": terms,
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


def enumerate_equilibria(g: ExtensiveGame, concept: EquilibriumConcept) -> list[StrategyProfile]:
    """All profiles whose equilibrium formula holds at the initial state,
    in lexicographic profile order."""
    gs = to_gal_structure(g)
    formula = spe_formula(g) if concept is EquilibriumConcept.SPE else ne_formula(g)
    root = history_label(())
    candidates = list(profiles(g))
    sats = check_all(gs, formula, [profile_valuation(gs, g, s) for s in candidates], at=[root])
    return [s for s, sat in zip(candidates, sats) if root in sat.states]


def oracle_equilibria(g: ExtensiveGame, concept: EquilibriumConcept) -> list[StrategyProfile]:
    """Equilibria by direct definition-chasing over players, histories, and
    deviations; no logic layer involved."""
    decisions = {i: decision_histories(g, i) for i in g.players}
    deviations = {i: strategies(g, i) for i in g.players}
    return [s for s in profiles(g) if _oracle_holds(g, s, concept, decisions, deviations)]


def _oracle_holds(
    g: ExtensiveGame,
    s: StrategyProfile,
    concept: EquilibriumConcept,
    decisions: Mapping[str, list[History]],
    deviations: Mapping[str, list[Strategy]],
) -> bool:
    path = outcome(g, s)
    for i in g.players:
        for h in decisions[i]:
            if concept is EquilibriumConcept.NE and path[: len(h)] != h:
                continue  # only histories on the profile's own path
            base = utility(g, outcome_from(g, h, s), i)
            for dev in deviations[i]:
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
    # Reversed preorder visits every child before its parent.
    values: dict[History, dict[str, Fraction]] = {}
    best: dict[History, str] = {}
    for h, node in reversed(g.nodes.items()):
        if node.is_terminal:
            values[h] = dict(node.utilities)
            continue
        choice, chosen = None, None
        for a, _ in node.moves:
            child = values.pop(h + (a,))
            if chosen is None or child[node.player] > chosen[node.player]:
                choice, chosen = a, child
        best[h], values[h] = choice, chosen
    return StrategyProfile(
        tuple(
            Strategy(p, tuple((h, best[h]) for h in decision_histories(g, p)))
            for p in g.players
        )
    )
