"""Exact p-adic torus volumes, orbital integrals, and trace formula checks."""

from .exact import (
    QHalfPower,
    abs_p,
    fundamental_discriminant,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    ord_p,
    qhalf,
    squarefree_part,
)
from .localquad import (
    LocalQuadType,
    Norm1VolumeReport,
    P2Detail,
    QuadKind,
    TorusVolumeReport,
    artin_L_at_1,
    chi_at_p,
    classify_quad,
    classnum_local_check,
    kronecker_symbol,
    norm1_report,
    norm1_volume,
    res_torus_volume,
)
from .pointcount import (
    Constraint,
    CountProfile,
    DigitTable,
    NormEquation,
    count_mod,
    digit_table,
    raw_count_mod,
    volume_profile,
)
from .weylsteinberg import (
    Gl2OrbitClass,
    GroupKind,
    OrbitKind,
    SpectralData,
    chevalley_sl2_lie,
    delta_abs_gl2,
    gsp_charpoly_factor,
    sp4_identity_check,
    sp4_jacobian,
    steinberg_sl2,
    steinberg_sp4,
    weyl_disc,
)
from .gl2local import (
    OrbitalReport,
    building_fixed_points,
    conversion_factor,
    dgbar_scale,
    full_report,
    orbital_canonical_f0,
    orbital_geometric_f0,
    report_for_class,
)
from .quadglobal import (
    QuadFieldData,
    ReducedForm,
    class_number,
    class_number_scan,
    cnf_report,
    cnf_residual,
    dirichlet_L1,
    finite_adelic_volume,
    global_identity_check,
    hurwitz_hw,
    quad_field_data,
    reduced_forms,
)
from .eichlerselberg import (
    PowerSeriesZ,
    TraceTerms,
    dim_cusp_forms,
    eigenform_coeffs,
    eta_tau,
    gegenbauer_like,
    oracle_coefficient,
    trace_formula,
)
from .kirillov import (
    cone_pullback_check,
    sl2_conversion_coefficient,
    sl2_conversion_report,
    sphere_density_spherical,
    sphere_form,
    sphere_frame_contraction,
)

__version__ = "0.1.0"
