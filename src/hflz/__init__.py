"""HFL(Z) toolkit: syntax, semantics, transformations, and bridges."""

from .syntax import (  # noqa: F401
    HflError, HflTypeError, PropType, IntType, Arrow, SimpleType, PROP, INT,
    arrow, order_of, is_predicate_type, IConst, IVar, Add, Sub, INeg, IntExpr,
    Var, TrueF, FalseF, Or, And, Diamond, Box, Mu, Nu, Lambda, App, Atom,
    Exists, Forall, Formula, TRUE, FALSE, app, lam, atom, typecheck,
    substitute, dualize, unfold_fixpoint, beta_step, beta_step_anywhere,
    alpha_eq, free_vars, is_pure,
)
from .parser import parse_formula, parse_int_expr, HflSyntaxError  # noqa: F401
from .pretty import to_text, int_to_text, type_to_text  # noqa: F401
from .lts import Lts, parse_lts, lts_to_text, trivial_model, LtsFormatError  # noqa: F401
from .semantics import (  # noqa: F401
    check_pure, check_pure_stats, eval_bounded, ImpureFormulaError,
    TableCapError,
)
from .transforms import (  # noqa: F401
    BoundExpr, desugar_quantifiers, eliminate_mu, abstract_predicates,
    PredicateSet, WindowEntailment, SmtEntailment, HigherOrderMuError,
    AbstractionError,
)
from .chc import (  # noqa: F401
    ChcSystem, Clause, PredApp, chc_to_hfl, hfl_to_chc, emit_smtlib_horn,
    parse_smtlib_horn, solve_external, SolverVerdict, ChcShapeError,
    validate_model,
)
from .programs import parse_program, translate_program, Program, ProgramError  # noqa: F401
