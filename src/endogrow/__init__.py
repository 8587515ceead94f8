"""Growth rates of endomorphisms of finitely generated groups.

Exact integer linear algebra, concrete group normal forms, a BFS
Cayley-ball oracle, growth-rate estimators, and a runnable law-check
harness with a CLI front end.
"""

from endogrow.intmat import (
    CharPoly,
    IntMatrix,
    SmithForm,
    char_poly,
    mat_mul,
    mat_pow,
    smith_normal_form,
    spectral_radius,
)
from endogrow.groups import (
    Free,
    FreeAbelian,
    Heisenberg,
    lower_central_layer,
)
from endogrow.products import (
    AbelianQuotient,
    DirectProduct,
    FreeProduct,
    Semidirect,
    Sublattice,
    abelian_quotient,
    direct_product,
    free_product,
    semidirect,
    sublattice,
)
from endogrow.endos import (
    HeisenbergEndo,
    MatrixEndo,
    ProductEndo,
    QuotientEndo,
    SemidirectEndo,
    WordEndo,
    abelianization,
    identity_endo,
    induce_on_quotient,
    restrict,
)
from endogrow.ball import (
    BallCensus,
    distortion_profile,
    enumerate_ball,
    exact_length,
)
from endogrow.growth import (
    DistortionRate,
    GrowthEstimate,
    NilpotentRate,
    distortion_rate,
    exact_growth_rate,
    extension_bounds,
    growth_table,
    nilpotent_growth_rate,
)
from endogrow.laws import LawCheck, LawConfig, run_law, run_suite

__version__ = "0.1.0"
