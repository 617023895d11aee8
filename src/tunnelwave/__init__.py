"""Resonance poles of layered 1-D potentials and transmitted-packet transients."""

from .potential import (
    PotentialProfile,
    TransferMatrix,
    UnitSystem,
    t22,
    t22_prime,
    transfer_matrix,
    transmission_amplitude,
    transmission_coefficient,
)
from .poles import (
    PoleCatalog,
    PoleSearchConfig,
    asymptotic_seed,
    breit_wigner_seeds,
    load_catalog,
    mirror_poles,
    newton_step_sequence,
    save_catalog,
    sweep_poles,
)
from .resonances import (
    ResidueSet,
    ResonanceState,
    coefficient_C,
    expansion_t,
    residues,
    resonance_state,
)
from .evolution import (
    GaussianPacket,
    cutoff_error_estimate,
    eta,
    free_packet,
    longtime_exponent,
    tau_system,
    transmitted_packet,
    zeta,
)
from .oracle import QuadratureConfig, phi0, psi_free_quadrature, psi_quadrature
from .specfun import faddeeva, faddeeva_asymptotic, faddeeva_log_scaled, moshinsky
from .presets import preset_profile

__version__ = "0.1.0"
