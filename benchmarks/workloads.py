"""The workloads.  Each one generates its inputs from the seed,
runs requests through the package's public entry points one at a time, and
judges every output against a reference that does not use the checker.

A workload has `setup(seed, workdir) -> requests`, `run(request)`
(the timed call into the package) and `verify(request, output)` (untimed),
plus `profiles(request)`, the strategy profiles the request decides.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import bimatrix
import games
from galcheck import checker, cli, gamegen, logic


def _rng(seed: int, name: str, *parts) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, name, *parts)))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class EqCorpus:
    """`galcheck eq` on random games; two requests (NE, SPE) per game.

    A run draws GAMES games of the acceptance corpus's shape whose work
    proxy lies in COST_BAND, so that the work of a run, and the position of
    p50 and p90 within it, hardly change from seed to seed.  The corpus's
    cheapest games (a few ms, mostly fixed cost) and heaviest ones (seconds
    per request) are left out for the same reason.  GAMES gives 110
    requests, so 11 latencies lie beyond p90.
    """

    name = "eq-corpus"
    GAMES = 55
    COST_BAND = (800, 1600)
    CANDIDATES = 1500  # all drawn, so setup work is about the same for every seed

    def setup(self, seed: int, workdir: Path) -> list:
        rng = _rng(seed, self.name)
        lo, hi = self.COST_BAND
        chosen = []
        drawn = 0
        while drawn < self.CANDIDATES or len(chosen) < self.GAMES:
            players, root = games.random_game(rng)
            drawn += 1
            if len(chosen) < self.GAMES and lo <= games.cost(players, root) < hi:
                chosen.append((players, root))
        requests = []
        for k, (players, root) in enumerate(chosen):
            path = workdir / f"game{k}.json"
            path.write_bytes(games.game_json(players, root))
            game = {"players": players, "root": root, "results": {}}
            profiles = games.shape(players, root)[0]
            for concept in ("ne", "spe"):
                requests.append((game, concept, str(path), profiles))
        return requests

    def run(self, request):
        _, concept, path, _ = request
        return _cli(["eq", "--game", path, "--concept", concept])

    def verify(self, request, output) -> bool:
        game, concept, _, _ = request
        code, text = output
        if code != 0:
            return False
        doc = json.loads(text)
        found = {tuple(p) for p in doc["profiles"]}
        if not doc["oracle_agrees"] or doc["count"] != len(found):
            return False
        game["results"][concept] = found
        if concept == "spe":
            ne = game["results"].get("ne")
            bi = games.backward_induction_labels(game["players"], game["root"])
            return ne is not None and found <= ne and bi in found
        return True

    def profiles(self, request) -> int:
        return request[3]


class BimatrixNe:
    """`check` of the pure-equilibrium formula, one request per cell, on
    constant (bound 1) and random (bound 1000) tables of each size.

    A table larger than CELLS cells sends CELLS of them, the same seeded
    ones for both bounds.  That gives 272 requests, which take about 0.6 s,
    so a run has dozens of rounds to take each request's best time from.
    """

    name = "bimatrix-ne"
    SIZES = (4, 8, 12, 16)
    BOUNDS = (1, 1000)
    CELLS = 40

    def setup(self, seed: int, workdir: Path) -> list:
        requests = []
        for n in self.SIZES:
            cells = [(r, c) for r in range(n) for c in range(n)]
            if len(cells) > self.CELLS:
                cells = _rng(seed, self.name, n).sample(cells, self.CELLS)
            for bound in self.BOUNDS:
                table_seed = _rng(seed, self.name, n, bound).getrandbits(64)
                table = gamegen.random_bimatrix(n, n, bound, table_seed)
                entry = {"table": table, "structure": bimatrix.encode(table)}
                requests += [(entry, r, c) for r, c in cells]
        return requests

    def run(self, request):
        entry, r, c = request
        g = entry["structure"]
        formula = logic.parse_formula(bimatrix.NE_FORMULA, g.sig)
        valuation = {bimatrix.V1: g.domains["S1"][r], bimatrix.V2: g.domains["S2"][c]}
        return "s" in checker.check(g, formula, valuation).states

    def verify(self, request, output) -> bool:
        entry, r, c = request
        table = entry["table"]
        if "ne" not in entry:
            ne = set(gamegen.pure_ne(table))
            constant = len({x for u in (table.u1, table.u2) for row in u for x in row}) == 1
            # On a constant table every cell is an equilibrium.
            entry["ne"] = None if constant and len(ne) != table.m * table.n else ne
        if entry["ne"] is None:
            return False
        return output == ((r, c) in entry["ne"])

    def profiles(self, request) -> int:
        return 1


WORKLOADS = {w.name: w for w in (EqCorpus(), BimatrixNe())}
