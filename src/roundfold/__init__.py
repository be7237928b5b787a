"""roundfold: decide, construct and classify round fold maps of closed
n-manifolds (n >= 4) into R^(n-1) through labeled Reeb graphs of their page
Morse functions."""

from .census import (
    MAX_CLUTCHING,
    MAX_ENUMERATION_S,
    CensusRow,
    CensusTable,
    census_table,
    enumerate_pages,
)
from .classify import a_equivalent, canonical_form
from .errors import (
    InvalidDescriptorError,
    InvalidPageError,
    ManifoldSpecError,
    NonOrientableError,
    OpenBookUnsupportedError,
    PageFormatError,
    RoundFoldError,
)
from .foldmaps import (
    Direction,
    OpenBookDescriptor,
    RoundFoldDescriptor,
    admits_directed,
    admits_round_fold,
    build_total_space,
    component_directions,
    euler_via_folds,
    fold_counts,
    is_directed,
    is_sphere_page,
    open_book,
)
from .jsonio import (
    census_jsonl,
    census_text,
    parse_manifold_spec,
    parse_page,
    serialize_page,
)
from .manifolds import (
    FreeGroup,
    GroupDescriptor,
    HandleSum,
    ManifoldDescriptor,
    Sphere,
    SurfaceGroup,
    SurfaceProduct,
    Trivial,
    TwistedS2S2,
    describe,
    equivalent,
    euler_characteristic,
    fundamental_group,
    is_orientable_manifold,
    normalize,
)
from .pages import (
    Edge,
    LabeledReebGraph,
    SurfaceType,
    TwistClass,
    ValidationReport,
    Vertex,
    VertexKind,
    Violation,
    annulus_page,
    canonical_page_encoding,
    directed_page,
    disk_page,
    handle_page,
    klein_page,
    moebius_page,
    nonorientable_closed_page,
    nonorientable_surface,
    orientable_closed_page,
    orientable_surface,
    page_isomorphic,
    page_orientable,
    regular_fiber_counts,
    sphere_page,
    surface_type,
    twist_class,
    validate_page,
)
from .render import render_critical_values, render_reeb

__version__ = "0.8.0"
