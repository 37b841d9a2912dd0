"""quadchase: forward-chaining reasoner for contextualized RDF
quad-systems with forall-existential bridge rules.

The pipeline: parse quads/rules, analyze the context dependency graph
for acyclicity and levels, materialize the chase, then answer
contextualized conjunctive queries over the result.
"""

__version__ = "0.1.0"

from .terms import (
    Constant,
    Quad,
    QuadGraph,
    QuadPattern,
    Variable,
    apply_substitution,
    blank,
    iri,
    literal,
    skolem_constant,
)
from .engine import (
    BridgeRule,
    QuadSystem,
    SkolemRule,
    check_constraints,
    derive,
    skolemize,
    symbol_size,
)
from .syntax import (
    ParseError,
    QueryDocument,
    RuleDocument,
    parse_nquads,
    parse_query,
    parse_rules,
    serialize_nquads,
    serialize_query,
    serialize_rules,
)
from .semantics import (
    SIMPLE,
    LocalSemantics,
    get_semantics,
    lclosure_graph,
    lclosure_quadgraph,
    rdfs_core,
)
from .contextgraph import (
    AcyclicityVerdict,
    ContextDependencyGraph,
    LevelMap,
    build_dependency_graph,
    compute_levels,
    is_context_acyclic,
    predicted_generating_iterations,
)
from .chase import (
    BudgetRequiredError,
    ChaseConfig,
    ChaseResult,
    entailment_closure_check,
    run_chase,
    saturation_report,
)
from .query import (
    AnswerSet,
    answers,
    entails_boolean,
    entails_quad,
    entails_quadgraph,
)

__all__ = [
    "__version__",
    "Constant", "Quad", "QuadGraph", "QuadPattern", "Variable",
    "apply_substitution", "blank", "iri", "literal", "skolem_constant",
    "BridgeRule", "QuadSystem", "SkolemRule", "check_constraints",
    "derive", "skolemize", "symbol_size",
    "ParseError", "QueryDocument", "RuleDocument", "parse_nquads",
    "parse_query", "parse_rules", "serialize_nquads", "serialize_query",
    "serialize_rules",
    "SIMPLE", "LocalSemantics", "get_semantics", "lclosure_graph",
    "lclosure_quadgraph", "rdfs_core",
    "AcyclicityVerdict", "ContextDependencyGraph", "LevelMap",
    "build_dependency_graph", "compute_levels", "is_context_acyclic",
    "predicted_generating_iterations",
    "BudgetRequiredError", "ChaseConfig", "ChaseResult",
    "entailment_closure_check", "run_chase", "saturation_report",
    "AnswerSet", "answers", "entails_boolean", "entails_quad",
    "entails_quadgraph",
]
