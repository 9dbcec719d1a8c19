"""Logical semantics for self-organising maps.

Train a map on labelled stimuli, read off a finite preferential model whose
per-category preferences rank domain elements by relative distance to the
learned best-matching units, check strict and defeasible inclusions between
categories, combine the preferences into one global typicality order, and
replay training as stepwise belief revision.
"""

from .checker import (
    CheckReport,
    KbExtraction,
    SpecificityRelation,
    check_strict,
    check_typicality,
    derive_specificity,
    extract_kb,
    kb_file_text,
    rd_bmu_set,
)
from .concepts import (
    And,
    Bot,
    ConceptExpr,
    Inclusion,
    Name,
    Top,
    extension_mask,
    inclusion_text,
    parse_query,
    pretty,
)
from .datagen import gaussian_clusters, three_cluster_dataset
from .errors import (
    ConfigError,
    ConsistencyError,
    DatasetError,
    InputError,
    ParseError,
    SomLogicError,
    SpecificityCycleError,
    UnknownCategoryError,
)
from .model import (
    CategoryTable,
    DomainElement,
    SemanticModel,
    build_model,
    initial_model,
    load_model,
    model_from_snapshot,
    model_snapshot,
    save_model,
)
from .preferences import (
    PreferentialModel,
    PropertyCheck,
    build_preferential,
    default_concept_pool,
    minima,
    verify_klm,
    verify_order_axioms,
)
from .revision import RevisionState, RevisionStep, initial_state, revise, run_trace
from .som import (
    SomMap,
    Stimulus,
    TrainConfig,
    apply_presentation,
    feature_range,
    init_map,
    load_map,
    presentation_schedule,
    quantization_error,
    save_map,
    train,
)

__version__ = "0.1.0"
