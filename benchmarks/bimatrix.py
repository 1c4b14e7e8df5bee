"""Bimatrix games encoded as one-state structures through the public API.

Sorts ``S1`` and ``S2`` hold the row and column strategies, ``P`` the payoffs
that occur; rigid ``u1``/``u2`` map a cell to its payoffs and rigid ``ge``
compares payoffs.  A cell (v1, v2) is a pure equilibrium iff NE_FORMULA holds
with v1 and v2 bound to it.
"""

from __future__ import annotations

from galcheck.logic import FuncDecl, PredDecl, Signature, Var
from galcheck.structure import GalStructure

NE_FORMULA = (
    "(forall w1:S1. ge(u1(v1:S1, v2:S2), u1(w1, v2))) & "
    "(forall w2:S2. ge(u2(v1, v2), u2(v1, w2)))"
)
V1, V2 = Var("v1", "S1"), Var("v2", "S2")

SIGNATURE = Signature(
    sorts=("S1", "S2", "P"),
    functions={
        "u1": FuncDecl(("S1", "S2"), "P", rigid=True),
        "u2": FuncDecl(("S1", "S2"), "P", rigid=True),
    },
    predicates={"ge": PredDecl(("P", "P"), rigid=True)},
)


def encode(table) -> GalStructure:
    """One state, no actions, domains sized by the table."""
    rows = [f"r{i}" for i in range(table.m)]
    cols = [f"c{j}" for j in range(table.n)]
    row_of = {r: i for i, r in enumerate(rows)}
    col_of = {c: j for j, c in enumerate(cols)}
    payoffs = sorted({x for u in (table.u1, table.u2) for row in u for x in row})
    payoff_tables = {"u1": table.u1, "u2": table.u2}

    def fun_eval(name: str, state: str, args: tuple[str, ...]) -> str:
        return str(payoff_tables[name][row_of[args[0]]][col_of[args[1]]])

    def pred_eval(name: str, state: str, args: tuple[str, ...]) -> bool:
        return int(args[0]) >= int(args[1])

    return GalStructure(
        sig=SIGNATURE,
        states=["s"],
        initial=["s"],
        actions=[],
        domains={"S1": rows, "S2": cols, "P": [str(x) for x in payoffs]},
        players_at={},
        fun_eval=fun_eval,
        pred_eval=pred_eval,
    )
