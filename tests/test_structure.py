import random

import pytest

from galcheck.checker import check_all
from galcheck.errors import InterpretationError, ValidationError
from galcheck.extensive import to_gal_structure
from galcheck.logic import App, DomainConst, FuncDecl, Pred, PredDecl, Signature, Var
from galcheck.structure import (
    GalStructure,
    Path,
    eval_term,
    maximal_paths,
    path_violations,
    table_provider,
)

from _helpers import random_structure


def tiny_structure(actions, players_at, states=("e0", "e1", "e2"), **changes):
    """A structure without sorts over `states`; `changes` replace any other
    constructor argument."""
    sig = Signature(sorts=set(), functions={}, predicates={"q": PredDecl(())}, players=("1", "2"))
    fun_eval, pred_eval = table_provider({}, {}, {}, {})
    fields = dict(
        sig=sig,
        states=states,
        initial=list(states[:1]),
        actions=actions,
        domains={},
        players_at=players_at,
        fun_eval=fun_eval,
        pred_eval=pred_eval,
    )
    return GalStructure(**{**fields, **changes})


# --------------------------------------------------------------------------- #
# validation at construction


def test_validate_example_structure(example_game):
    # construction validates, so encoding the example raises nothing
    assert to_gal_structure(example_game).states


def test_validate_flags_player_without_successor():
    with pytest.raises(ValidationError) as err:
        tiny_structure(actions=[("e0", "e1")], players_at={"e0": ["1"], "e1": ["1"], "e2": []})
    report = err.value.violations
    assert len(report) == 1 and "e1" in report[0]


def test_validate_flags_unknown_action_endpoint():
    with pytest.raises(ValidationError) as err:
        tiny_structure(actions=[("e0", "nowhere")], players_at={})
    report = err.value.violations
    assert len(report) == 1 and "nowhere" in report[0]


def test_validate_flags_missing_domain():
    sig = Signature(sorts={"S"}, functions={}, predicates={}, players=())
    fun_eval, pred_eval = table_provider({}, {}, {}, {})
    with pytest.raises(ValidationError) as err:
        GalStructure(sig, ["e0"], ["e0"], [], {}, {}, fun_eval, pred_eval)
    assert any("'S'" in v for v in err.value.violations)


def test_constructor_lists_every_violation():
    with pytest.raises(ValidationError) as err:
        tiny_structure(actions=[("e0", "nowhere")], players_at={"e2": ["1"]})
    assert err.value.violations == [
        "action ('e0', 'nowhere'): target is not a declared state",
        "state 'e2' has players ['1'] but no outgoing action",
    ]
    assert str(err.value) == "; ".join(err.value.violations)


@pytest.mark.parametrize(
    "changes, violation",
    [
        ({"states": ()}, "structure has no states"),
        ({"initial": ["e0", "x"]}, "initial state 'x' is not a declared state"),
        ({"actions": [("x", "e1")]}, "action ('x', 'e1'): source is not a declared state"),
        ({"domains": {"Q": ["b"]}}, "domain given for undeclared sort 'Q'"),
        ({"players_at": {"x": ["1"]}}, "players listed for unknown state 'x'"),
        ({"actions": [("e0", "e1")], "players_at": {"e0": ["9"]}}, "state 'e0' lists undeclared player '9'"),
    ],
)
def test_each_violation_is_named(changes, violation):
    with pytest.raises(ValidationError) as err:
        tiny_structure(**{"actions": [], "players_at": {}, **changes})
    assert err.value.violations == [violation]


def test_duplicates_are_violations():
    with pytest.raises(ValidationError) as err:
        tiny_structure(actions=[("e0", "e1")], players_at={}, states=("e0", "e1", "e0"))
    assert err.value.violations == ["duplicate state ids"]
    sig = Signature(sorts={"S"}, functions={}, predicates={}, players=())
    fun_eval, pred_eval = table_provider({}, {}, {}, {})
    with pytest.raises(ValidationError) as err:
        GalStructure(sig, ["e0"], ["e0"], [], {"S": ["a", "b", "a"]}, {}, fun_eval, pred_eval)
    assert err.value.violations == ["duplicate elements in domain of sort 'S'"]


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
    with pytest.raises(InterpretationError) as err:
        eval_term(g, "e0", App("c"))
    assert str(err.value) == "function 'c' at state 'e0' returned 'not-an-element', not an element of sort 'S'"


def test_provider_names_the_symbol_state_and_labels_of_a_failing_callback():
    def fun_eval(name, state, args):
        raise ZeroDivisionError("defect")

    sig = Signature({"S"}, {"f": FuncDecl(("S",), "S")}, {}, ())
    g = tiny_structure([], {}, sig=sig, domains={"S": ["a"]}, fun_eval=fun_eval)
    with pytest.raises(InterpretationError) as err:
        eval_term(g, "e1", App("f", (DomainConst("S", 0),)))
    assert str(err.value) == "function 'f' failed at state 'e1' on ('a',): defect"
    assert isinstance(err.value.__cause__, ZeroDivisionError)


def test_provider_passes_a_callbacks_interpretation_error_through():
    failure = InterpretationError("no such row")

    def pred_eval(name, state, args):
        raise failure

    g = tiny_structure([], {}, pred_eval=pred_eval)
    with pytest.raises(InterpretationError) as err:
        g.interp.pred("q", "e1", ())
    assert err.value is failure


def test_provider_runs_the_callbacks_again_on_every_call():
    # the structure keeps no answers between calls: the same check_all and
    # eval_term run every callback again, as often; inside one check_all a
    # term of rigid symbols alone is evaluated at one state only
    calls = []
    sig = Signature(
        sorts={"S"},
        functions={"c": FuncDecl((), "S"), "r": FuncDecl((), "S", rigid=True)},
        predicates={"p": PredDecl(("S", "S"))},
        players=(),
    )

    def fun_eval(name, state, args):
        calls.append((name, state))
        return "x"

    def pred_eval(name, state, args):
        calls.append((name, state))
        return True

    g = GalStructure(sig, ["e0", "e1"], ["e0"], [], {"S": ["x"]}, {}, fun_eval, pred_eval)
    f = Pred("p", (App("c"), App("r")))
    runs = []
    for _ in range(2):
        calls.clear()
        assert check_all(g, f, [{}])[0].states == {"e0", "e1"}
        checked = list(calls)
        for e in ("e0", "e1", "e0"):
            eval_term(g, e, App("c"))
            eval_term(g, e, App("r"))
        runs.append((checked, calls[len(checked):]))
    assert runs[0] == runs[1]
    checked, evaluated = runs[0]
    assert sorted(checked) == [("c", "e0"), ("c", "e1"), ("p", "e0"), ("p", "e1"), ("r", "e0")]
    assert len(evaluated) == 6


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
    assert path_violations(g, Path(("e0", "e1"), cycle_start=2)) == ["cycle start out of range"]


def test_maximal_paths_stop_at_their_limit(example_structure):
    assert len(list(maximal_paths(example_structure, "()", limit=3))) == 3
    with pytest.raises(RuntimeError, match="^more than 2 maximal paths$"):
        list(maximal_paths(example_structure, "()", limit=2))


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
