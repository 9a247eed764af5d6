"""Classical information capacities of multimode bosonic Gaussian channels.

Library layout:

* :mod:`gausscap.phasespace`     -- symplectic linear algebra, bosonic entropy
* :mod:`gausscap.channels`       -- Gaussian channel construction/validation
* :mod:`gausscap.decomposition`  -- reduction to parallel single-mode channels
* :mod:`gausscap.capacity`       -- Holevo/het/hom/classical capacities
* :mod:`gausscap.ensembles`      -- Haar-random passive channels, Jacobi laws
* :mod:`gausscap.active`         -- random weakly-active (squeezed) channels
* :mod:`gausscap.cli`            -- the ``gausscap`` command
"""

from .capacity import (
    CapacityResult,
    PowerAllocation,
    asymptotic_limits,
    classical_capacity,
    het_hom_general,
    het_hom_per_mode,
    holevo_diagonal,
    holevo_general,
    hom_general_aligned,
    waterfill_het_hom,
    waterfill_holevo,
)
from .channels import (
    GaussianChannel,
    GlobalSymplectic,
    NoiseParams,
    apply_channel,
    block_form_channel,
    channel_from_global,
    channel_from_json,
    channel_to_json,
    minimal_noise,
    validate_channel,
)
from .decomposition import ModeDecomposition, block_svd, diagonal_channel_params
from .ensembles import (
    EnsembleSpec,
    JacobiDensity,
    expected_capacity_passive,
    haar_unitary,
    mc_expected_capacity_passive,
    passive_channel_sample,
    spectral_density,
)
from .active import active_sample, bogoliubov_sample, mc_capacity_active
from .phasespace import (
    entropy_g,
    is_symplectic,
    matrix_abs,
    real_representation,
    symplectic_eigenvalues,
    symplectic_form,
)

__version__ = "0.1.0"
