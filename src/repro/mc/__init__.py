"""Symbolic/explicit model-checking substrate (the paper's NuXmv role).

Layers:

- :mod:`repro.mc.expr` — finite-domain state predicates + guard parser;
- :mod:`repro.mc.ltl` — LTL formulas (NNF by construction) + parser;
- :mod:`repro.mc.buchi` — GPVW tableau LTL→Büchi translation, memoised
  per normalised formula (alpha-renamed atoms, canonical operators);
- :mod:`repro.mc.model` — guarded-command transition systems (SMV
  stand-in) with content fingerprints;
- :mod:`repro.mc.graph` — dense-integer interning of reachable state
  graphs (shared successor expansion + literal truth columns);
- :mod:`repro.mc.checker` — invariant BFS and on-the-fly nested-DFS
  Büchi-product LTL checking;
- :mod:`repro.mc.cache` — persistent cross-run verdict cache (a
  :class:`repro.blobstore.BlobStore`, like the report store);
- :mod:`repro.mc.api` — the supported :class:`ModelChecker` facade;
- :mod:`repro.mc.counterexample` — lasso traces consumed by the CEGAR
  loop.

The supported checking surface is :class:`ModelChecker` /
:class:`CheckRequest` / :class:`CheckResult`.
"""

from .expr import (And, Compare, Const, Expr, ExprError, FALSE, Not, Or,
                   TRUE, conjoin, parse_expr, var_equals)
from .ltl import (Atom, F, Formula, G, Implies, LTLError, R, U, X, And_,
                  Or_, Not_, LTL_FALSE, LTL_TRUE, atom, closure_size,
                  parse_ltl)
from .buchi import (BuchiAutomaton, clear_buchi_cache, ltl_to_buchi,
                    normalise_ltl, normalised_key)
from .model import (Choice, Command, Model, ModelError, Plus, Ref, Variable)
from .graph import StateGraph
from .checker import as_invariant, formula_to_expr
from .counterexample import ADVERSARY_PREFIX, CheckResult, Step, Trace
from .cache import McCacheError, McVerdictCache, verdict_digest
from .api import CheckRequest, ModelChecker
from .smv import SmvExportError, to_smv

__all__ = [
    "And", "Compare", "Const", "Expr", "ExprError", "FALSE", "Not", "Or",
    "TRUE", "conjoin", "parse_expr", "var_equals",
    "Atom", "F", "Formula", "G", "Implies", "LTLError", "R", "U", "X",
    "And_", "Or_", "Not_", "LTL_FALSE", "LTL_TRUE", "atom", "closure_size",
    "parse_ltl",
    "BuchiAutomaton", "clear_buchi_cache",
    "ltl_to_buchi", "normalise_ltl", "normalised_key",
    "Choice", "Command", "Model", "ModelError", "Plus", "Ref", "Variable",
    "StateGraph",
    "as_invariant", "formula_to_expr",
    "ADVERSARY_PREFIX", "CheckResult", "Step", "Trace",
    "McCacheError", "McVerdictCache", "verdict_digest",
    "CheckRequest", "ModelChecker",
    "SmvExportError", "to_smv",
]
