"""Exact computations in the enhanced (GL_n) and exotic (Sp_2n) modules:
orbit combinatorics, induction, Jordan classes, sheets, and the
finite-field oracles that certify them at small rank."""

from .fields import GF, QQ
from .partitions import (
    Bipartition,
    Composition,
    add,
    ah_closure_leq,
    double,
    enumerate_bipartitions,
    format_bipartition,
    multiplicity,
    parse_bipartition,
    parse_partition,
    transpose,
)
from .linalg import (
    Mat,
    Vec,
    charpoly,
    jordan_chevalley_split,
    jordan_type_nilpotent,
    limit_along_cocharacter,
    nullspace,
    rank,
    restricted_jordan_type,
    stabilizer_dim_gl,
    stabilizer_dim_sp,
)
from .enhanced import (
    EnhancedElement,
    InductionDatum,
    build_representative,
    closure_leq,
    closure_oracle_flag,
    closure_oracle_sweep,
    identify_orbit,
    induce,
    induce_from_vector,
    induction_representative,
    is_rigid,
    jkv_decompose,
    orbit_dim,
    rigid_datum,
)
from .exotic import (
    ExoticElement,
    build_semisimple_exotic,
    embed_phi,
    embed_psi,
    exotic_orbit_dim,
    identify_exotic_orbit,
)
from .jordan_classes import (
    ClassLabel,
    class_closure_leq,
    class_dim_enhanced,
    class_dim_exotic,
    class_nilcone_orbit,
    enumerate_classes,
    identify_class,
)
from .sheets import (
    SheetLabel,
    enhanced_invariants,
    enumerate_sheets,
    exotic_invariants,
    sheet_dim_enhanced,
    sheet_nilpotent_orbit,
    sheets_are_maximal_check,
)

__version__ = "0.1.0"
