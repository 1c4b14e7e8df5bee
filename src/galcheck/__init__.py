"""Explicit-state checking of first-order branching-time properties over
game structures, with an extensive-game frontend and equilibrium search."""

from .checker import SatSet, check, check_all, holds_at
from .errors import (
    BindingError,
    GalcheckError,
    InterpretationError,
    ParseError,
    SchemaError,
    SortError,
    UnknownIdentifierError,
    ValidationError,
)
from .extensive import (
    EquilibriumConcept,
    ExtensiveGame,
    Strategy,
    StrategyProfile,
    backward_induction,
    enumerate_equilibria,
    ne_formula,
    oracle_equilibria,
    outcome,
    outcome_from,
    spe_formula,
    strategies,
    to_gal_structure,
)
from .gamegen import (
    Bimatrix,
    Board,
    FirstAvailable,
    Minimax,
    SpreadAll,
    minimax_value,
    policy_actions,
    pure_ne,
    random_bimatrix,
    tictactoe_structure,
)
from .logic import (
    DomainElem,
    Formula,
    FuncDecl,
    PredDecl,
    Signature,
    Var,
    expand_abbreviations,
    free_variables,
    parse_formula,
    pretty,
)
from .structure import GalStructure, InterpretationProvider, eval_term

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
