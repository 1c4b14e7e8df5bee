import random

import pytest

from galcheck.errors import InterpretationError
from galcheck.logic import App, DomainConst, FuncDecl, PredDecl, Signature, Var
from galcheck.structure import (
    GalStructure,
    Path,
    eval_term,
    maximal_paths,
    path_violations,
    table_provider,
)

from _helpers import random_structure


def tiny_structure(actions, players_at, states=("e0", "e1", "e2")):
    sig = Signature(sorts=set(), functions={}, predicates={"q": PredDecl(())}, players=("1", "2"))
    fun_eval, pred_eval = table_provider({}, {}, {}, {})
    return GalStructure(
        sig=sig,
        states=states,
        initial=[states[0]],
        actions=actions,
        domains={},
        players_at=players_at,
        fun_eval=fun_eval,
        pred_eval=pred_eval,
    )


# --------------------------------------------------------------------------- #
# validate


def test_validate_example_structure(example_structure):
    assert example_structure.validate() == []


def test_validate_flags_player_without_successor():
    g = tiny_structure(actions=[("e0", "e1")], players_at={"e0": ["1"], "e1": ["1"], "e2": []})
    report = g.validate()
    assert len(report) == 1 and "e1" in report[0]


def test_validate_flags_unknown_action_endpoint():
    g = tiny_structure(actions=[("e0", "nowhere")], players_at={})
    report = g.validate()
    assert len(report) == 1 and "nowhere" in report[0]


def test_validate_flags_missing_domain():
    sig = Signature(sorts={"S"}, functions={}, predicates={}, players=())
    fun_eval, pred_eval = table_provider({}, {}, {}, {})
    g = GalStructure(sig, ["e0"], ["e0"], [], {}, {}, fun_eval, pred_eval)
    assert any("'S'" in v for v in g.validate())


# --------------------------------------------------------------------------- #
# successors / deadlock


def test_successors_of_example_root(example_structure):
    assert example_structure.successors("()") == ["(A)", "(B)"]
    assert example_structure.successors("(B)") == []


def test_successors_unknown_state(example_structure):
    with pytest.raises(ValueError):
        example_structure.successors("bogus")


def test_successors_empty_relation():
    g = tiny_structure(actions=[], players_at={})
    assert all(g.successors(e) == [] for e in g.states)


def test_deadlock_examples(example_structure):
    assert example_structure.is_deadlock("(A,L)")
    assert not example_structure.is_deadlock("()")
    g = tiny_structure(actions=[], players_at={}, states=("only",))
    assert g.is_deadlock("only")


# --------------------------------------------------------------------------- #
# eval_term


def test_eval_term_paper_utility(example_structure):
    # u1 at the (A,R) terminal is 2
    got = eval_term(example_structure, "(A,R)", App("u1", (App("h"),)))
    assert got.label == "2"


def test_eval_term_variable_lookup(example_structure):
    v = Var("v", "S1")
    elem = example_structure.element("S1", "<B>")
    assert eval_term(example_structure, "()", v, {v: elem}) == elem


def test_eval_term_unassigned_variable(example_structure):
    with pytest.raises(InterpretationError):
        eval_term(example_structure, "()", Var("v", "S1"))


def test_eval_term_rigid_constants_state_independent():
    rng = random.Random(5)
    for _ in range(25):
        g = random_structure(rng, max_states=6)
        values = {eval_term(g, e, App("r")) for e in g.states}
        assert len(values) == 1


def test_eval_term_referentially_transparent():
    rng = random.Random(6)
    g = random_structure(rng, max_states=6)
    t = App("f", (App("c"),))
    for e in g.states:
        assert eval_term(g, e, t) == eval_term(g, e, t)


def test_eval_term_domain_literal(example_structure):
    assert eval_term(example_structure, "()", DomainConst("U", 2)).label == "2"
    with pytest.raises(InterpretationError):
        eval_term(example_structure, "()", DomainConst("U", 9))


def test_provider_rejects_result_outside_domain():
    sig = Signature(sorts={"S"}, functions={"c": FuncDecl((), "S")}, predicates={}, players=())
    g = GalStructure(
        sig,
        ["e0"],
        ["e0"],
        [],
        {"S": ["x"]},
        {},
        fun_eval=lambda name, state, args: "not-an-element",
        pred_eval=lambda name, state, args: False,
    )
    with pytest.raises(InterpretationError):
        eval_term(g, "e0", App("c"))


def test_provider_memoizes_per_state_and_rigid():
    calls = []
    sig = Signature(
        sorts={"S"},
        functions={"c": FuncDecl((), "S"), "r": FuncDecl((), "S", rigid=True)},
        predicates={},
        players=(),
    )

    def fun_eval(name, state, args):
        calls.append((name, state))
        return "x"

    g = GalStructure(sig, ["e0", "e1"], ["e0"], [], {"S": ["x"]}, {}, fun_eval, lambda *a: False)
    for e in ("e0", "e1", "e0", "e1"):
        eval_term(g, e, App("c"))
        eval_term(g, e, App("r"))
    assert calls.count(("c", "e0")) == 1
    assert calls.count(("c", "e1")) == 1
    assert sum(1 for name, _ in calls if name == "r") == 1


# --------------------------------------------------------------------------- #
# paths


def test_path_validity_on_example(example_structure):
    ok = Path(("()", "(A)", "(A,L)"))
    assert path_violations(example_structure, ok) == []
    not_maximal = Path(("()", "(A)"))
    assert path_violations(example_structure, not_maximal)
    bad_edge = Path(("()", "(A,R)"))
    assert path_violations(example_structure, bad_edge)


def test_lasso_path_must_close():
    g = tiny_structure(actions=[("e0", "e1"), ("e1", "e0"), ("e1", "e2")], players_at={})
    assert path_violations(g, Path(("e0", "e1"), cycle_start=0)) == []
    assert path_violations(g, Path(("e0", "e1"), cycle_start=1))


def test_maximal_paths_end_in_deadlock_or_lasso():
    rng = random.Random(17)
    for _ in range(30):
        g = random_structure(rng, max_states=6)
        for start in g.states:
            for p in maximal_paths(g, start, limit=5000):
                assert path_violations(g, p) == []
                if p.cycle_start is None:
                    assert g.is_deadlock(p.states[-1])


def test_element_by_label(example_structure):
    for sort, elems in example_structure.domains.items():
        for elem in elems:
            assert example_structure.element(sort, elem.label) is elem
    with pytest.raises(ValueError, match="no element 'nope' in domain of sort 'S1'"):
        example_structure.element("S1", "nope")
    with pytest.raises(ValueError, match="no element '<B>' in domain of sort 'Nope'"):
        example_structure.element("Nope", "<B>")
