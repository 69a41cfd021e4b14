"""Mod-p homology dimensions of finitely presented groups.

Computes dim H1(G; F_p) exactly from the abelianized relation matrix
and dim H2(G; F_p) via the Hopf formula, either exactly or as a
certified upper bound when the rewriting budget runs out.  See
``run_pipeline`` for the one-call entry point and ``cli`` for the
command-line front end.
"""

from .cosets import CosetTable
from .fplinalg import as_fp, left_kernel_basis, rank, rref
from .hopf import (
    ORDER_CAP,
    BoundKind,
    HopfResult,
    RemovalCertificate,
    build_p_cover,
    h1_dimension,
    image_matrix,
    replay_certificates,
    run_pipeline,
    to_json,
)
from .oracle import DEFAULT_CAP, OracleUnavailable, bar_h1, bar_h2, check, multiplication_table
from .presentation import (
    ParseError,
    Presentation,
    SubstitutionMap,
    apply_substitution,
    corpus,
    corpus_names,
    corpus_substitution,
    parse_presentation,
    parse_substitution,
    parse_word,
    render_presentation,
    render_word,
    simplify,
)
from .rewrite import (
    DEFAULT_BUDGET,
    Budget,
    Overflow,
    RewriteSystem,
    dump_rules,
    enumerate_elements,
    group_order,
    initial_rules,
    knuth_bendix,
    normal_form,
    orient_relator,
    reduce_with_allowance,
)

__version__ = "0.1.0"

__all__ = [
    "BoundKind",
    "Budget",
    "CosetTable",
    "DEFAULT_BUDGET",
    "DEFAULT_CAP",
    "HopfResult",
    "ORDER_CAP",
    "OracleUnavailable",
    "Overflow",
    "ParseError",
    "Presentation",
    "RemovalCertificate",
    "RewriteSystem",
    "SubstitutionMap",
    "apply_substitution",
    "as_fp",
    "bar_h1",
    "bar_h2",
    "build_p_cover",
    "check",
    "corpus",
    "corpus_names",
    "corpus_substitution",
    "dump_rules",
    "enumerate_elements",
    "group_order",
    "h1_dimension",
    "image_matrix",
    "initial_rules",
    "knuth_bendix",
    "left_kernel_basis",
    "multiplication_table",
    "normal_form",
    "orient_relator",
    "parse_presentation",
    "parse_substitution",
    "parse_word",
    "rank",
    "reduce_with_allowance",
    "render_presentation",
    "render_word",
    "replay_certificates",
    "rref",
    "run_pipeline",
    "simplify",
    "to_json",
]
