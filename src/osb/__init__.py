"""Order-statistic averages of matrices over map families: computation and
two-sided inequality verification at desk scale."""

from .errors import DomainError, FormatError, HypothesisError, ResourceError
from .matrices import (
    Matrix,
    OrderMap,
    load_matrix,
    order_map,
    reduce_to_top,
)
from .families import (
    FamilySpec,
    MapFamily,
    MeasureCertificate,
    check_marginals,
    explicit_family,
    family_for_cell,
    full_mapping_family,
    load_family,
    pairwise_constant,
    parse_family_spec,
    sample_array,
    symmetric_group,
)
from .orderstats import (
    HitCountTable,
    OrderStatResult,
    build_hit_table,
    expected_top_sum,
    expected_top_sum_mc,
    lemma_suite,
)
from .orlicz import (
    luxemburg_norm,
    orlicz_upper_bound_check,
    top_sum_sandwich_check,
)
from .interpolation import (
    KFunctionalCurve,
    ScalarExpectation,
    expected_lp_norm,
    head_tail_bound,
    interpolation_norm,
    interpolation_norm_from_curve,
    k_functional,
    mixed_k_curve,
    verify_lp_bounds,
)
from .reports import (
    VerificationReport,
    all_passed,
    canonical_json,
    reports_to_csv,
    reports_to_json,
    summarize,
)
from .corpus import (
    Corpus,
    CorpusSpec,
    default_corpus,
    generate_corpus,
    load_corpus,
    single_matrix_corpus,
)
from .campaigns import (
    lower_constant,
    run_lemmas,
    run_verify_lp,
    run_verify_main,
)

__version__ = "0.1.0"
