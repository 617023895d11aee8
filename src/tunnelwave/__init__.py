"""Resonance poles of layered 1-D potentials and transmitted-packet transients."""

from .potential import (
    PotentialProfile,
    TransferMatrix,
    UnitSystem,
    t22,
    transfer_matrix,
    transmission_amplitude,
    transmission_coefficient,
)
from .poles import (
    PoleCatalog,
    PoleSearchConfig,
    asymptotic_seed,
    load_catalog,
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
    eta,
    free_packet,
    longtime_exponent,
    tau_system,
    transmitted_packet,
    zeta,
)
from .oracle import QuadratureConfig, phi0, psi_free_quadrature, psi_quadrature
from .specfun import faddeeva, faddeeva_log_scaled
from .presets import preset_profile

__version__ = "0.1.0"
