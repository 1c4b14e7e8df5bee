"""Seeded extensive games for the `eq-corpus` workload, with a backward-induction
reference that shares no code with the package under test.

A game is a nested tuple: a terminal is ``("t", {player: payoff})`` and a
decision node is ``("d", player, ((action, child), ...))`` with actions in
sorted order, which is the canonical sibling order the package uses for
strategy labels.
"""

from __future__ import annotations

import json
import random

PLAYERS = ("1", "2", "3")
# The acceptance corpus's shape.
MAX_DEPTH, MAX_BRANCHING, PAYOFF_BOUND, MAX_PROFILES = 3, 3, 5, 324


def random_game(rng: random.Random):
    """A game with 2-3 players, depth <= 3, branching <= 3, payoffs below 5
    and at most 324 strategy profiles."""
    players = PLAYERS[: rng.randint(2, 3)]
    while True:
        def node(depth: int):
            if depth == 0 or (depth < MAX_DEPTH and rng.random() < 0.35):
                return ("t", {p: rng.randrange(PAYOFF_BOUND) for p in players})
            width = rng.randint(1, MAX_BRANCHING)
            moves = tuple(("abc"[k], node(depth - 1)) for k in range(width))
            return ("d", rng.choice(players), moves)

        root = node(rng.randint(1, MAX_DEPTH))
        if root[0] == "d" and shape(players, root)[0] <= MAX_PROFILES:
            return players, root


def shape(players, root) -> tuple[int, int, int]:
    """(strategy profiles, histories, summed strategies over players)."""
    per_player = dict.fromkeys(players, 1)
    histories = 0
    stack = [root]
    while stack:
        node = stack.pop()
        histories += 1
        if node[0] == "d":
            per_player[node[1]] *= len(node[2])
            stack.extend(child for _, child in node[2])
    profiles = 1
    for n in per_player.values():
        profiles *= n
    return profiles, histories, sum(per_player.values())


def cost(players, root) -> int:
    """Work proxy for the two equilibrium requests on a game: each profile's
    check evaluates one deviation atom per (history, strategy, player).
    Fitted on 90 games, NE plus SPE time is about 16 ms + 25 us * cost with a
    spread of 21% (2-core Xeon, Python 3.11)."""
    profiles, histories, strategies = shape(players, root)
    return profiles * histories * (strategies + 2) * len(players)


def game_json(players, root) -> bytes:
    def node(n):
        if n[0] == "t":
            return {"utilities": dict(n[1])}
        return {"player": n[1], "moves": {a: node(c) for a, c in n[2]}}

    return json.dumps({"players": list(players), "root": node(root)}).encode()


def backward_induction_labels(players, root) -> tuple[str, ...]:
    """Strategy labels of one subgame-perfect profile, first maximiser on
    ties, in the package's label format ``<a,b,...>`` (choices in preorder
    over the owner's decision histories)."""
    choice: dict[int, str] = {}

    def solve(n):
        if n[0] == "t":
            return n[1]
        best_action, best = None, None
        for a, child in n[2]:
            values = solve(child)
            if best is None or values[n[1]] > best[n[1]]:
                best_action, best = a, values
        choice[id(n)] = best_action
        return best

    solve(root)
    picks: dict[str, list[str]] = {p: [] for p in players}

    def preorder(n):
        if n[0] == "d":
            picks[n[1]].append(choice[id(n)])
            for _, child in n[2]:
                preorder(child)

    preorder(root)
    return tuple("<" + ",".join(picks[p]) + ">" for p in players)
