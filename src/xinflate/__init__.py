"""Abductive and contrastive explanations with maximal value-set inflation."""

from .errors import (
    BudgetExceededError,
    DualityConstructionError,
    SchemaError,
    ValidationError,
    XInflateError,
)
from .model import (
    ABDUCTIVE,
    CONTINUOUS,
    CONTRASTIVE,
    INTEGER,
    CatSet,
    Categorical,
    FeatureSpace,
    InflatedExplanation,
    Instance,
    Interval,
    IntervalUnion,
    Ordinal,
    ValueSet,
    cat_set,
    full_set,
    interval_union,
    rational,
    rational_str,
    singleton_set,
    vs_complement,
    vs_contains,
    vs_intersect,
    vs_is_full,
    vs_pieces,
    vs_subset,
    vs_union,
)
from .classifiers import (
    DecisionList,
    DecisionTree,
    LabelEq,
    LabelSplit,
    Leaf,
    MonotonicClassifier,
    OrdinalSplit,
    Rule,
    SetMember,
    TreeEnsemble,
    validate_classifier,
)
from .oracle import CompiledModel, Oracle, OracleStats, classifier_is_constant, discretize
from .explain import (
    ExplanationProblem,
    enumerate_all,
    find_axp,
    find_cxp,
    minimal_hitting_sets,
)
from .inflate import (
    InflationConfig,
    inflate_axp,
    inflate_categorical,
    inflate_from_full,
    inflate_ordinal,
    inflate_ordinal_cells,
    shrink_cxp,
)
from .duality import (
    ExplanationSets,
    check_hits,
    enumerate_iaxps,
    enumerate_icxps,
    iaxp_from_icxps,
    icxp_from_iaxps,
)

from .serialize import (
    MODEL_SCHEMA,
    ModelFile,
    explanation_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_point,
    render_rule,
    save_model,
    set_text,
    valueset_to_dict,
)
from .trainer import Dataset, load_dataset, model_accuracy, train_forest, train_tree
from .bench import BenchRecord, BenchReport, run_bench, widening

__version__ = "0.1.0"
