"""confmech: numerical conformal mechanics.

Generators H = p^2/2 + V, D = p.q, K = q^2/2 over degree minus-two
potentials; Poisson brackets with the {p, x} = +1 convention (so
df/dt = {H, f}); hyperspherical reduction to (r, p_r) x T*S^(d-1);
closed-form radial dynamics with reparametrized-time reconstruction; a
catalog of integrable models; and the half-plane decoupling coordinate
with its canonicity analysis.
"""

from types import ModuleType as _ModuleType

from .conformal import (
    ConformalSystem,
    build_system,
    casimir_I,
    check_homogeneity,
    sample_states,
    verify_algebra,
)
from .errors import (
    ChartSingularError,
    CollapseOnPathError,
    ConfmechError,
    DomainError,
    IncompleteResultError,
    NonFiniteError,
    NonPositiveEnergyError,
    NotHomogeneousError,
    SingularityApproachError,
    StepUnderflowError,
    UsageError,
    ZeroAngularEnergyError,
    ZeroWError,
)
from .lobachevsky import (
    KleinPoint,
    assemble_omega,
    bracket_matrix,
    canonicity_report,
    expected_brackets,
    invert,
    killing_forms,
    tilde_map,
    to_klein,
)
from .models import (
    ModelSpec,
    calogero_relative,
    catalog,
    potential,
    reference_state,
    singular_directions,
    spec,
)
from .phase import (
    Observable,
    PhaseState,
    Trajectory,
    grad,
    integrate_adaptive,
    integrate_verlet,
    poisson_bracket,
)
from .radial import (
    RadialData,
    fall_time,
    radial_squared,
    reconstruct,
    reparam_time,
)
from .reduction import (
    ReducedState,
    SphericalSystem,
    angular_potential,
    from_hyperspherical,
    spherical_energy,
    spherical_system_from,
    to_hyperspherical,
)

__version__ = "0.1.0"

# the public names imported above; the submodules those imports bind
# (confmech.phase, ...) stay reachable as attributes but are not exported
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
