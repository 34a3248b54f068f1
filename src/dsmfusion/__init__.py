"""Evidence combination over hyper-power sets.

Library layout:

  lattice    canonical propositions (free distributive lattice) and u(X);
             an atom is stored as a digit bitset, decoded to a digit
             tuple only where generators come out; the public
             Proposition constructor checks its mask
  exprparse  expression grammar shared by the CLI and scenario files
  bba        mass assignments (stored by atom bitset), belief, plausibility
  model      integrity constraints, equivalence classes, compression
  rules      DSm classic/hybrid rules, DST baselines, Bayesian mixture:
             the classic fold (S1) under all, on Shafer's singleton atoms
             for DST; Dubois-Prade is the hybrid rule under Shafer's model
  dynamic    staged sessions (frame growth, re-constraining): run_session
             keeps S1 and no results, takes stages from any iterable and
             yields each compressed result in turn
  render     text and CSV tables shared by the CLI and the worked examples
  cli        command-line interface
"""

from . import errors
from .bba import MassAssignment, bel, complement, pl, vacuous
from .dynamic import Stage, embed, embed_proposition, run_session
from .exprparse import parse
from .lattice import (
    ENUMERATION_LIMIT,
    FOLD_LIMIT,
    FRAME_LIMIT,
    LOAD_LIMIT,
    Frame,
    Proposition,
    build_frame,
    empty,
    enumerate_hpset,
    from_generators,
    singleton,
    to_expression,
    total_ignorance,
    u_of,
)
from .model import (
    EquivClass,
    HybridModel,
    build_model,
    compress,
    encoding_matrix,
    shafer_model,
    survivors,
)
from .rules import (
    HybridBreakdown,
    MixtureSpec,
    RULE_NAMES,
    bayesian_mixture,
    dempster,
    dsm_classic,
    dsm_hybrid,
    dubois_prade,
    lefevre_combine,
    smets,
    yager,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
