import itertools
import random
import time
from fractions import Fraction

import pytest

from galcheck.checker import holds_at
from galcheck.errors import SortError, ValidationError
from galcheck.extensive import (
    EquilibriumConcept,
    ExtensiveGame,
    GameNode,
    Strategy,
    StrategyProfile,
    backward_induction,
    decision,
    decision_histories,
    enumerate_equilibria,
    history_label,
    ne_formula,
    oracle_equilibria,
    outcome,
    outcome_from,
    profile_count,
    profile_valuation,
    profile_variables,
    profiles,
    spe_formula,
    strategies,
    terminal,
    to_gal_structure,
    utility,
)
from galcheck.logic import App, Var, free_variables, post_order
from galcheck.structure import eval_term

from _helpers import random_game


@pytest.fixture(scope="module")
def depth0():
    return ExtensiveGame(("1",), terminal({"1": 3}))


# --------------------------------------------------------------------------- #
# validation at construction


def test_validate_example(example_game):
    # construction validates, so rebuilding the example raises nothing
    assert ExtensiveGame(example_game.players, example_game.root) == example_game


def test_validate_missing_mover():
    with pytest.raises(ValidationError) as err:
        ExtensiveGame(("1",), GameNode(player=None, moves=(("A", terminal({"1": 0})),)))
    assert any("no player" in v for v in err.value.violations)


def test_validate_missing_utility():
    with pytest.raises(ValidationError) as err:
        ExtensiveGame(("1", "2"), decision("1", {"A": terminal({"1": 0})}))
    assert any("lacks a utility" in v for v in err.value.violations)


def test_validate_checks_both_children_of_a_duplicated_action():
    # the node index keeps one child per action; validation must see both
    with pytest.raises(ValidationError) as err:
        ExtensiveGame(
            ("1",),
            GameNode(player="1", moves=(("a", terminal({"1": 0})), ("a", GameNode()))),
        )
    assert "duplicate sibling actions at ()" in err.value.violations
    assert "terminal (a) has no utilities" in err.value.violations


def test_validate_rejects_empty_and_comma_actions():
    # either would give two histories or two strategies the same label
    with pytest.raises(ValidationError) as err:
        ExtensiveGame(("1",), decision("1", {"": terminal({"1": 0}), "a": terminal({"1": 1})}))
    assert err.value.violations == ["action '' at () is empty or contains ','"]
    with pytest.raises(ValidationError) as err:
        ExtensiveGame(("1",), decision("1", {"a": decision("1", {"b,c": terminal({"1": 0})})}))
    assert err.value.violations == ["action 'b,c' at (a) is empty or contains ','"]


@pytest.mark.parametrize(
    "players, root, violation",
    [
        ((), terminal({}), "game declares no players"),
        (
            ("1",),
            GameNode(player="1", moves=(("a", terminal({"1": 0})),), utilities=(("1", Fraction(0)),)),
            "nonterminal () carries utilities",
        ),
    ],
)
def test_game_violations_are_named(players, root, violation):
    with pytest.raises(ValidationError) as err:
        ExtensiveGame(players, root)
    assert err.value.violations == [violation]


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda g: strategies(g, "1")[0].action_at(("Z",)), "strategy of '1' has no choice at ('Z',)"),
        (lambda g: next(profiles(g)).by_owner("9"), "profile has no strategy for '9'"),
        (lambda g: utility(g, ("A",), "1"), "history ('A',) is not terminal"),
        (lambda g: utility(g, ("Z",), "1"), "history ('Z',) is not terminal"),
        (lambda g: utility(g, ("B",), "9"), "terminal ('B',) has no utility for '9'"),
    ],
)
def test_lookups_name_what_is_missing(example_game, lookup, message):
    with pytest.raises(ValueError) as err:
        lookup(example_game)
    assert str(err.value) == message


def _centipede(n):
    """Players 1 and 2 alternate n times between `take` (the mover gets
    k + 2, the other k) and `pass`; after n passes both get n."""
    node = terminal({"1": n, "2": n})
    for k in reversed(range(n)):
        mover, other = ("1", "2") if k % 2 == 0 else ("2", "1")
        node = decision(mover, {"pass": node, "take": terminal({mover: k + 2, other: k})})
    return ExtensiveGame(("1", "2"), node)


def test_deep_game_walks_without_recursion():
    g = _centipede(2000)  # built, so validated, without recursion
    assert len(g.nodes) == 4001
    bi = backward_induction(g)
    assert [len(s.choice) for s in bi.strategies] == [1000, 1000]
    assert all(a == "take" for s in bi.strategies for _, a in s.choice)


def test_deep_outcome_indexes_choices():
    g = _centipede(2000)
    everyone_passes = StrategyProfile(
        tuple(Strategy(p, tuple((h, "pass") for h in decision_histories(g, p))) for p in g.players)
    )
    t0 = time.perf_counter()
    reached = outcome(g, everyone_passes)
    assert time.perf_counter() - t0 < 0.5  # 3.2 s when each step scanned the choice tuples
    assert reached == ("pass",) * 2000


# --------------------------------------------------------------------------- #
# strategies / outcomes


def test_strategies_of_example(example_game):
    assert [s.label for s in strategies(example_game, "1")] == ["<A>", "<B>"]
    assert [s.label for s in strategies(example_game, "2")] == ["<L>", "<R>"]


def test_strategies_unknown_player(example_game):
    with pytest.raises(ValueError):
        strategies(example_game, "9")


def test_strategy_without_decisions_is_single_empty():
    g = ExtensiveGame(("1", "2"), decision("1", {"A": terminal({"1": 0, "2": 0})}))
    only = strategies(g, "2")
    assert len(only) == 1 and only[0].label == "<>"


def _profile(game, label1, label2):
    by1 = {s.label: s for s in strategies(game, "1")}
    by2 = {s.label: s for s in strategies(game, "2")}
    return StrategyProfile((by1[label1], by2[label2]))


def test_outcomes_of_example(example_game):
    assert outcome(example_game, _profile(example_game, "<B>", "<L>")) == ("B",)
    assert outcome(example_game, _profile(example_game, "<A>", "<R>")) == ("A", "R")
    assert outcome_from(example_game, ("A",), _profile(example_game, "<B>", "<L>")) == ("A", "L")
    assert outcome_from(example_game, ("A", "L"), _profile(example_game, "<B>", "<L>")) == ("A", "L")


def test_outcome_utility_from_history(example_game):
    s = _profile(example_game, "<B>", "<L>")
    assert utility(example_game, outcome_from(example_game, ("A",), s), "1") == Fraction(0)


def test_outcome_depth0(depth0):
    only = StrategyProfile((strategies(depth0, "1")[0],))
    assert outcome(depth0, only) == ()


# --------------------------------------------------------------------------- #
# to_gal_structure


def test_structure_matches_worked_mapping(example_structure):
    assert example_structure.states == ("()", "(A)", "(A,L)", "(A,R)", "(B)")
    assert set(example_structure.actions) == {
        ("()", "(A)"),
        ("()", "(B)"),
        ("(A)", "(A,L)"),
        ("(A)", "(A,R)"),
    }
    assert example_structure.players_at["()"] == {"1"}
    assert example_structure.players_at["(A)"] == {"2"}
    assert example_structure.players_at["(B)"] == frozenset()
    assert [e.label for e in example_structure.domains["U"]] == ["0", "1", "2"]
    assert [e.label for e in example_structure.domains["S1"]] == ["<A>", "<B>"]
    assert [e.label for e in example_structure.domains["S2"]] == ["<L>", "<R>"]
    assert [e.label for e in example_structure.domains["T"]] == ["(A,L)", "(A,R)", "(B)"]
    assert example_structure.initial == ("()",)


def test_structure_depth0(depth0):
    gs = to_gal_structure(depth0)
    assert len(gs.states) == 1
    assert gs.actions == ()
    assert gs.players_at[gs.states[0]] == frozenset()


# Generated names: sorts H, T, U and S<i>, functions h, O, O_h and u<i>,
# predicates ge and onpath.
@pytest.mark.parametrize(
    "players",
    [("h",), ("O",), ("O_h",), ("ge",), ("onpath",), ("H",), ("T",), ("U",), ("1", "S1"), ("1", "u1")],
)
def test_player_ids_colliding_with_generated_names_are_sort_errors(players):
    g = ExtensiveGame(players, decision(players[0], {"a": terminal({p: 0 for p in players})}))
    with pytest.raises(SortError):
        to_gal_structure(g)


def test_structure_history_designator(example_structure):
    # the state-indexed 0-ary function h names the state's own history
    for state in example_structure.states:
        assert eval_term(example_structure, state, App("h")).label == state


def test_structure_utilities_rigid_and_exact(example_game, example_structure):
    for t in ("(A,L)", "(A,R)", "(B)"):
        telem = example_structure.element("T", t)
        for p in example_game.players:
            expected = utility(example_game, tuple(t[1:-1].split(",")) if t != "()" else (), p)
            for state in example_structure.states:
                got = example_structure.interp.fun(f"u{p}", state, (telem,))
                assert got.label == str(expected)


def test_structure_shape_counts_random():
    rng = random.Random(11)
    for _ in range(20):
        g = random_game(rng)
        gs = to_gal_structure(g)
        hs = list(g.nodes)
        assert len(gs.states) == len(hs)
        assert len(gs.actions) == len(hs) - 1
        for state in gs.states:
            deadlock = gs.is_deadlock(state)
            empty_players = not gs.players_at[state]
            assert deadlock == empty_players


# --------------------------------------------------------------------------- #
# equilibrium formulas


def test_spe_formula_shape(example_game):
    f = spe_formula(example_game)
    assert free_variables(f) == {Var("v1", "S1"), Var("v2", "S2")}


def test_spe_formula_one_player():
    g = ExtensiveGame(("1",), decision("1", {"A": terminal({"1": 1}), "B": terminal({"1": 0})}))
    f = spe_formula(g)
    assert free_variables(f) == {Var("v1", "S1")}


def test_ne_formula_free_variables(example_game):
    f = ne_formula(example_game)
    assert free_variables(f) == {Var("v1", "S1"), Var("v2", "S2")}


def test_formulas_and_valuations_share_the_games_profile_variables(example_game, example_structure):
    g = example_game
    vs = profile_variables(g)
    assert vs == {"1": Var("v1", "S1"), "2": Var("v2", "S2")}
    for f in (ne_formula(g), spe_formula(g)):
        # post_order visits each distinct node object once
        found = [x for x, _ in post_order(f) if type(x) is Var and x.name.startswith("v")]
        assert len(found) == 2 and all(x is vs[x.name[1:]] for x in found)
    for s in profiles(g):
        v = profile_valuation(example_structure, g, s)
        assert [var for var in v] == [vs["1"], vs["2"]]
        assert all(var is vs[var.name[1:]] for var in v)
    # the caller's dict is a copy: changing it changes no later call
    vs["1"] = Var("x", "S1")
    del vs["2"]
    again = profile_variables(g)
    assert list(again) == ["1", "2"] and again["1"] is not vs["1"]
    assert all(again[p] is profile_variables(g)[p] for p in g.players)


def test_ne_formula_paper_valuations(example_game, example_structure):
    f = ne_formula(example_game)
    for labels, expected in [
        (("<A>", "<R>"), True),
        (("<B>", "<L>"), True),
        (("<A>", "<L>"), False),
    ]:
        s = _profile(example_game, *labels)
        v = profile_valuation(example_structure, example_game, s)
        assert holds_at(example_structure, "()", f, v) is expected


# --------------------------------------------------------------------------- #
# equilibrium computation


def test_enumerate_equilibria_example(example_game):
    ne = enumerate_equilibria(example_game, EquilibriumConcept.NE)
    spe = enumerate_equilibria(example_game, EquilibriumConcept.SPE)
    assert [p.labels for p in ne] == [("<A>", "<R>"), ("<B>", "<L>")]
    assert [p.labels for p in spe] == [("<A>", "<R>")]


def test_oracle_equilibria_example(example_game):
    assert [p.labels for p in oracle_equilibria(example_game, EquilibriumConcept.SPE)] == [("<A>", "<R>")]
    assert len(oracle_equilibria(example_game, EquilibriumConcept.NE)) == 2


def test_equilibria_depth0(depth0):
    for concept in EquilibriumConcept:
        got = enumerate_equilibria(depth0, concept)
        assert len(got) == 1 and got[0].labels == ("<>",)


def test_backward_induction_example(example_game):
    assert backward_induction(example_game).labels == ("<A>", "<R>")


def test_backward_induction_depth0(depth0):
    assert backward_induction(depth0).labels == ("<>",)


def test_backward_induction_tie_breaks_to_first_action():
    g = ExtensiveGame(
        ("1", "2"),
        decision(
            "1",
            {
                "a": decision("2", {"a": terminal({"1": 1, "2": 1}), "b": terminal({"1": 1, "2": 1})}),
                "b": terminal({"1": 1, "2": 1}),
            },
        ),
    )
    assert backward_induction(g).labels == ("<a>", "<a>")


def test_profile_count(example_game):
    assert profile_count(example_game) == 4
    assert sum(1 for _ in profiles(example_game)) == 4


def test_random_games_oracle_agreement_sample():
    rng = random.Random(501)
    for _ in range(12):
        g = random_game(rng, max_profiles=64)
        for concept in EquilibriumConcept:
            logic = [p.labels for p in enumerate_equilibria(g, concept)]
            direct = [p.labels for p in oracle_equilibria(g, concept)]
            assert logic == direct


def test_spe_subset_of_ne_and_contains_bi():
    rng = random.Random(502)
    for _ in range(12):
        g = random_game(rng, max_profiles=64)
        spe = {p.labels for p in oracle_equilibria(g, EquilibriumConcept.SPE)}
        ne = {p.labels for p in oracle_equilibria(g, EquilibriumConcept.NE)}
        assert spe
        assert spe <= ne
        assert backward_induction(g).labels in spe


def test_encoding_outcomes_and_strategy_tables_on_random_games():
    rng = random.Random(1313)
    for _ in range(30):
        g = random_game(rng)
        for i in g.players:
            # the enumeration from the definition: one pick per decision history
            hs = decision_histories(g, i)
            menus = [[a for a, _ in g.nodes[h].moves] for h in hs]
            expected = [Strategy(i, tuple(zip(hs, picks))) for picks in itertools.product(*menus)]
            first, second = strategies(g, i), strategies(g, i)
            assert first == second == expected and first is not second
            first.clear()
            assert strategies(g, i) == expected
            for s in expected:
                assert hash(s) == hash((s.owner, s.choice))
        gs = to_gal_structure(g)
        fun = gs.interp.fun
        for s in profiles(g):
            elems = tuple(gs.element(f"S{p}", t.label) for p, t in zip(g.players, s.strategies))
            assert fun("O", "()", elems).label == history_label(outcome(g, s))
            for h in g.nodes:
                state = history_label(h)
                reached = fun("O_h", state, (gs.element("H", state), *elems)).label
                assert reached == history_label(outcome_from(g, h, s))
