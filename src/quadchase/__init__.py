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
    "blank", "iri", "literal", "skolem_constant",
    "BridgeRule", "QuadSystem", "SkolemRule", "check_constraints",
    "derive", "skolemize",
    "ParseError", "QueryDocument", "RuleDocument", "parse_nquads",
    "parse_query", "parse_rules", "serialize_nquads", "serialize_query",
    "serialize_rules",
    "SIMPLE", "LocalSemantics", "get_semantics", "lclosure_quadgraph",
    "rdfs_core",
    "AcyclicityVerdict", "ContextDependencyGraph", "LevelMap",
    "build_dependency_graph", "compute_levels", "is_context_acyclic",
    "BudgetRequiredError", "ChaseConfig", "ChaseResult",
    "entailment_closure_check", "run_chase", "saturation_report",
    "AnswerSet", "answers", "entails_boolean", "entails_quad",
    "entails_quadgraph",
]
