"""Exact local-global arithmetic for division-algebra bounds over Q and F_q(t)."""

from .arith import QZ, QZ_ZERO
from .brauer import (
    BrauerClass,
    check_lemma_2_1,
    construct_class,
    fiber_index,
    index,
    local_index,
    make_class,
    random_class,
    restricted_index,
    restricted_local_index,
    splits,
)
from .covers import (
    BoundReport,
    CertReport,
    Cover,
    bound_report,
    build_cover,
    candidate_radicands,
    check_Bm,
    check_cor210,
    cover_local_degree,
    full_local_degree,
)
from .errors import InvariantError, SearchExhausted, ValidationError
from .extensions import (
    AbExt,
    build_extension,
    find_places_with_frobenius,
    galois_group,
    gal_exponent,
    is_real_field,
    local_data,
    local_degree,
    qsigma_search,
    ramified_places,
    s0_search,
)
from .fields import (
    BaseField,
    FqtElt,
    Place,
    QQ,
    enumerate_places,
    fqt_from_factors,
    infinite_place,
    poly_place,
    prime_place,
    rational_function_field,
    real_place,
)
from .groupext import (
    CentralExt,
    beta,
    ext_build,
    fiber_is_cyclic,
    gamma,
    prop32_scan,
    verify_lemma_34,
    verify_lemma_35,
)
from .isolation import IsolationReport, d_value, isolated_places, isolation_report, u_values
from .worked import (
    DEFAULT_SEED,
    MUTATIONS,
    PaperReport,
    SuiteReport,
    run_ex41,
    run_ex43,
    run_prop42,
    run_property_suite,
)

__version__ = "0.1.0"
