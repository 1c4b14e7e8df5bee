"""Finite perfect-information game trees, strategies, and their structure encoding.

A game is a rooted tree whose edges carry action names; histories are the
root-to-node action sequences, terminal histories carry one rational utility
per player, and every nonterminal history names the player to move.  The
canonical sibling order is the lexicographic order of action names, which
fixes strategy enumeration order, tie-breaking, and all serialized output.

The structure encoding turns each history into a state: sort H holds all
histories, T the terminal ones, U the occurring utility values, and one sort
per player i, `S<i>` (the sort of i's profile variable), holds i's
strategies.  One symbol table in `to_gal_structure` defines the encoding:
it gives each function and predicate its declaration and its meaning, a
callback on the argument labels at a state.  The state-dependent 0-ary
function `h` designates the state's own history; `u<i>`, `O`, `O_h`, the
comparison `ge` on U, and the prefix predicate `onpath` are rigid.  A
player id equal to any of these names is a `SortError` from the `Signature`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .checker import check_all
from .errors import ValidationError
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
    """A well-formed game: construction raises `ValidationError` listing
    every violation.  What it derives is built once per game: `nodes` (each
    history's node, in preorder) by the validating walk, the profile
    variables `v<i>`, and each player's strategies on first use."""

    players: tuple[str, ...]
    root: GameNode

    def __post_init__(self):
        violations = self._violations()
        if violations:
            raise ValidationError(violations)
        d = self.__dict__
        d["_strategies"] = {}
        d["_profile_variables"] = {p: Var(f"v{p}", f"S{p}") for p in self.players}

    def _violations(self) -> list[str]:
        """Every violated invariant, found in one walk of the raw tree that
        also fills `self.nodes`.  Action names must be nonempty and hold no
        `,`, so that history and strategy labels are one-to-one."""
        out: list[str] = []
        if not self.players:
            out.append("game declares no players")
        if len(set(self.players)) != len(self.players):
            out.append("duplicate player ids")
        players = set(self.players)

        # The raw tree: both children of a duplicated action are walked and checked.
        nodes = self.__dict__["nodes"] = {}
        stack: list[tuple[History, GameNode]] = [((), self.root)]
        while stack:
            h, node = stack.pop()
            nodes[h] = node
            where = history_label(h)
            if node.is_terminal:
                if node.utilities is None:
                    out.append(f"terminal {where} has no utilities")
                    continue
                given = {p for p, _ in node.utilities}
                for p in self.players:
                    if p not in given:
                        out.append(f"terminal {where} lacks a utility for player {p!r}")
                for p in sorted(given - players):
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
                for a in actions:
                    if not a or "," in a:
                        out.append(f"action {a!r} at {where} is empty or contains ','")
                stack.extend((h + (a,), child) for a, child in reversed(node.moves))
        return out


@dataclass(frozen=True)
class Strategy:
    """A total choice of one available action at each of the owner's
    decision histories (reachable or not), in canonical history order.
    Its hash, label and history -> action table are computed when it is
    built; hash and equality are by fields."""

    owner: str
    choice: tuple[tuple[History, str], ...]

    def __post_init__(self):
        d = self.__dict__
        d["_hash"] = hash((self.owner, self.choice))
        d["label"] = "<" + ",".join([a for _, a in self.choice]) + ">"
        d["_by_history"] = dict(reversed(self.choice))  # the first choice at a history wins

    def __hash__(self) -> int:
        return self._hash

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


# --------------------------------------------------------------------------- #
# Strategies and outcomes


def strategies(g: ExtensiveGame, i: str) -> list[Strategy]:
    """All of player i's strategies: the Cartesian product of available
    actions over i's decision histories, in lexicographic order."""
    if i not in g.players:
        raise ValueError(f"unknown player {i!r}")
    table = g._strategies.get(i)
    if table is None:
        hs = decision_histories(g, i)
        menus = [[a for a, _ in g.nodes[h].moves] for h in hs]
        table = g._strategies[i] = [Strategy(i, tuple(zip(hs, picks))) for picks in itertools.product(*menus)]
    return list(table)


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


def to_gal_structure(g: ExtensiveGame) -> GalStructure:
    """The game's structure: its states are the histories, its symbols one table's."""
    label = {h: history_label(h) for h in g.nodes}
    by_label = {lab: h for h, lab in label.items()}
    terms, actions, players_at, utils_seen = [], [], {}, set()
    for h, node in g.nodes.items():
        if node.is_terminal:
            terms.append(label[h])
            players_at[label[h]] = frozenset()
            utils_seen.update(u for _, u in node.utilities)
        else:
            players_at[label[h]] = frozenset((node.player,))
            actions.extend((label[h], label[h + (a,)]) for a, _ in node.moves)

    profile = tuple(g._profile_variables[p].sort for p in g.players)  # the strategy sorts
    util_value = {_frac_label(u): u for u in sorted(utils_seen)}
    domains = {"H": list(label.values()), "T": terms, "U": list(util_value)}
    tables = {}  # per player, each strategy's history -> action table by its label
    for p, sort in zip(g.players, profile):
        tables[p] = {s.label: s._by_history for s in strategies(g, p)}
        domains[sort] = list(tables[p])

    def play(h: History, labels: Sequence[str]) -> str:
        """The label of the terminal history the labelled profile reaches from `h`."""
        choices = {p: tables[p][lab] for p, lab in zip(g.players, labels)}
        node = g.nodes[h]
        while not node.is_terminal:
            h = h + (choices[node.player][h],)
            node = g.nodes[h]
        return label[h]

    def payoff(p: str):
        return lambda e, a: _frac_label(utility(g, by_label[a[0]], p))

    def on_path(e: str, a: tuple[str, ...]) -> bool:
        h, t = by_label[a[0]], by_label[a[1]]
        return t[: len(h)] == h

    symbols = {  # name -> (declaration, meaning at state e on the argument labels a)
        "h": (FuncDecl((), "H", rigid=False), lambda e, a: e),
        "O": (FuncDecl(profile, "T", rigid=True), lambda e, a: play((), a)),
        "O_h": (FuncDecl(("H", *profile), "T", rigid=True), lambda e, a: play(by_label[a[0]], a[1:])),
        **{f"u{p}": (FuncDecl(("T",), "U", rigid=True), payoff(p)) for p in g.players},
        "ge": (PredDecl(("U", "U"), rigid=True), lambda e, a: util_value[a[0]] >= util_value[a[1]]),
        "onpath": (PredDecl(("H", "T"), rigid=True), on_path),
    }

    def meaning(name: str, e: str, a: tuple[str, ...]):
        return symbols[name][1](e, a)

    return GalStructure(
        sig=Signature(
            set(domains),
            {name: d for name, (d, _) in symbols.items() if isinstance(d, FuncDecl)},
            {name: d for name, (d, _) in symbols.items() if isinstance(d, PredDecl)},
            g.players,
        ),
        states=domains["H"],
        initial=[label[()]],
        actions=actions,
        domains=domains,
        players_at=players_at,
        fun_eval=meaning,
        pred_eval=meaning,
    )


def _frac_label(u: Fraction) -> str:
    return str(u.numerator) if u.denominator == 1 else f"{u.numerator}/{u.denominator}"


# --------------------------------------------------------------------------- #
# Equilibrium formulas

def profile_variables(g: ExtensiveGame) -> dict[str, Var]:
    """The free profile variables `v<i>`, one per player, valuation-bound.
    They are the game's one set: `ne_formula`, `spe_formula` and every
    `profile_valuation` share these nodes, so `check_all` finds each
    binding by identity.  The dict is a copy."""
    return dict(g._profile_variables)


def _no_gain_by_deviation(g: ExtensiveGame) -> Formula:
    """For each player: if it is their move, no unilateral change of their
    strategy improves their utility from the current history onward."""
    vs = profile_variables(g)
    h = App("h")
    kept = App("O_h", (h, *(vs[p] for p in g.players)))
    conjuncts = []
    for i in g.players:
        w = Var(f"w{i}", vs[i].sort)
        swapped = App("O_h", (h, *(w if p == i else vs[p] for p in g.players)))
        body = Pred("ge", (App(f"u{i}", (kept,)), App(f"u{i}", (swapped,))))
        conjuncts.append(Implies(PlayerAtom(i), Forall(w, body)))
    return reduce(And, conjuncts)


def spe_formula(g: ExtensiveGame) -> Formula:
    """Holds at the root under a profile valuation iff the profile is
    optimal for the mover at every history, reachable or not."""
    return AG(_no_gain_by_deviation(g))


def ne_formula(g: ExtensiveGame) -> Formula:
    """Holds at the root under a profile valuation iff the profile is
    optimal for the mover along its own outcome path."""
    vs = profile_variables(g)
    on_outcome = Pred("onpath", (App("h"), App("O", tuple(vs[p] for p in g.players))))
    return EG(And(on_outcome, _no_gain_by_deviation(g)))


def profile_valuation(gs: GalStructure, g: ExtensiveGame, s: StrategyProfile) -> Valuation:
    vs = profile_variables(g)
    return {vs[p]: gs.element(vs[p].sort, t.label) for p, t in zip(g.players, s.strategies)}


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
    best: dict[tuple, Fraction] = {}
    return [s for s in profiles(g) if _oracle_holds(g, s, concept, decisions, deviations, best)]


def _oracle_holds(
    g: ExtensiveGame,
    s: StrategyProfile,
    concept: EquilibriumConcept,
    decisions: Mapping[str, list[History]],
    deviations: Mapping[str, list[Strategy]],
    best: dict[tuple, Fraction],
) -> bool:
    """No player gains at any of their decision histories (on the outcome
    path, for NE) by a unilateral deviation.  The best utility player i
    reaches from h by any strategy depends only on h and the others'
    strategies, so `best` keeps it per (i, h, others) across profiles."""
    path = outcome(g, s)
    for i in g.players:
        others = tuple(t for t in s.strategies if t.owner != i)
        for h in decisions[i]:
            if concept is EquilibriumConcept.NE and path[: len(h)] != h:
                continue  # only histories on the profile's own path
            key = (i, h, others)
            if key not in best:
                best[key] = max(
                    utility(g, outcome_from(g, h, _swapped(s, dev)), i) for dev in deviations[i]
                )
            if best[key] > utility(g, outcome_from(g, h, s), i):
                return False
    return True


def _swapped(s: StrategyProfile, dev: Strategy) -> StrategyProfile:
    """`s` with its strategy for `dev`'s owner replaced by `dev`."""
    return StrategyProfile(tuple(dev if t.owner == dev.owner else t for t in s.strategies))


def backward_induction(g: ExtensiveGame) -> StrategyProfile:
    """One optimal profile computed bottom-up; ties go to the first action
    in canonical sibling order.  Always a member of the SPE set."""
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
