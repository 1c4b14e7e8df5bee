"""The operand table in `logic` against one instance of every syntax class."""

import dataclasses
import typing

import pytest

from galcheck.logic import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    And,
    App,
    Bottom,
    DomainConst,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    PlayerAtom,
    Pred,
    Term,
    Top,
    Var,
    operands,
    rebuild,
)

X, Y = Var("x", "S"), Var("y", "S")
T = App("g", (X, DomainConst("S", 2)))
P, Q = Pred("p", (X,)), Pred("q", (T, Y))

# One instance of each syntax class; every operand is a distinct node.
INSTANCES = [
    X,
    DomainConst("S", 1),
    T,
    Top(),
    Bottom(),
    PlayerAtom("1"),
    Q,
    Eq(T, Y),
    Not(P),
    And(P, Q),
    Or(P, Q),
    Implies(P, Q),
    EX(P),
    AX(P),
    EF(P),
    AF(P),
    EG(P),
    AG(P),
    EU(P, Q),
    AU(P, Q),
    Exists(Y, Q),
    Forall(Y, Q),
]
SYNTAX_CLASSES = set(typing.get_args(Term)) | set(Formula.__subclasses__())


def _node_fields(x) -> tuple:
    """The syntax nodes among `x`'s field values, in field order; a tuple
    field contributes its elements."""
    out = []
    for field in dataclasses.fields(x):
        value = getattr(x, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if type(item) in SYNTAX_CLASSES:
                out.append(item)
    return tuple(out)


def test_instances_cover_every_syntax_class():
    assert len(SYNTAX_CLASSES) == 22
    assert {type(x) for x in INSTANCES} == SYNTAX_CLASSES
    assert len(INSTANCES) == len(SYNTAX_CLASSES)


@pytest.mark.parametrize("x", INSTANCES, ids=lambda x: type(x).__name__)
def test_operands_are_the_node_fields_and_rebuild_inverts_them(x):
    ops = operands(x)
    expected = _node_fields(x)
    assert len(ops) == len(expected)
    assert all(a is b for a, b in zip(ops, expected))
    again = rebuild(x, ops)
    assert type(again) is type(x)
    assert again == x


def test_operands_rejects_a_non_node():
    with pytest.raises(TypeError):
        operands(("not", "a", "node"))
