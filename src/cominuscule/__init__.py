"""Decomposition of twisted differential-form bundles on cominuscule
Grassmannians: exact root-system arithmetic, Young-diagram minimal twists,
a weight-level plethysm engine, degree-zero Bott-Borel-Weil answers, and
the numeric invariants of minimal-degree foliation families."""

from .rootsys import LieType, RootSystem, LeviSubsystem, root_system, is_dominant
from .partitions import (
    Partition,
    MinTwistWitness,
    dual,
    hooks_q1,
    hooks_qm1,
    min_twist_grass,
    min_twist_grass_oracle,
    min_twist_lagr,
    min_twist_lagr_oracle,
    min_twist_spinor,
    min_twist_spinor_oracle,
)
from .catalog import (
    GrassmannianSpec,
    make_spec,
    grassmannian,
    quadric,
    lagrangian,
    spinor,
    cayley,
    freudenthal,
    check_table1,
    iter_catalog_specs,
    parse_space,
)
from .plethysm import (
    WeightMultiset,
    IrreducibleSummand,
    DecompositionReport,
    omega_p_weights,
    decompose,
    omega_decompose,
    cauchy_decompose,
    hooks_decompose,
    twist_via_lemma,
)
from .twists import (
    MinTwistReport,
    h0_dim,
    min_twist,
    nonvanishing_scan,
    table_audit,
)
from .foliations import (
    FoliationFamilyReport,
    rect_family,
    symplectic_family,
    orthogonal_family,
    cayley_family,
    foliation_atlas,
)

__version__ = "0.1.0"
