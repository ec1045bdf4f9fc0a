import os

import numpy as np
import pytest
from hypothesis import settings

from confmech import dual, models
from confmech.conformal import sample_states
from confmech.phase import Observable, PhaseState
from confmech.reduction import (
    _chart_components,
    hyperspherical_rows,
    to_hyperspherical,
)

# HYPOTHESIS_PROFILE=ci draws every property's examples from a fixed
# sequence, so a CI run cannot flake on a newly drawn example; a local run
# draws new examples and prints a failure's @reproduce_failure blob
settings.register_profile("default", print_blob=True)
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def catalog_specs():
    return models.catalog()


@pytest.fixture(scope="session")
def catalog_systems(catalog_specs):
    return [(ms, models.build(ms)) for ms in catalog_specs]


def chart_interior(s, margin=1e-2):
    """True when the state reduces without getting near a chart pole."""
    try:
        to_hyperspherical(s, delta=margin)
    except Exception:
        return False
    return True


def chart_observable(d):
    """The chart map as one observable on the Cartesian phase space, with
    the ``2d`` components ``(r, p_r, phi_0, ..., phi_{d-2}, pi_0, ...,
    pi_{d-2})`` of one ``hyperspherical_rows`` call, so a bracket table
    differentiates the chart map once. Like the chart it raises
    ``ChartSingularError`` outside it, at d = 1 wherever x <= 0."""
    return Observable(d, lambda q, p: dual.stack(
        _chart_components(*hyperspherical_rows(q, p))),
        name="chart", vectorized=True)


def sphere_hamiltonian(sphere):
    """The angular energy I of a ``SphericalSystem`` as an observable on
    the chart phase space (q = angles, p = momenta)."""
    return Observable(sphere.d - 1, lambda q, p: sphere.energy(q, p),
                      name="I(sphere)")


def ww_residual(table):
    """|{w, wbar} numeric - formula| of a ``BracketTable``."""
    return abs(table.ww_numeric - table.ww_formula)


def max_mixed_residual(table):
    """The largest |{u, w} numeric - (w - wbar) V / (4 I)| of a
    ``BracketTable``'s mixed rows (0 with none)."""
    return max((abs(row.numeric - row.consistent) for row in table.mixed),
               default=0.0)


def model_states(sys_, n, seed, predicate=None):
    """Seeded states at least 5e-2 off the singular set for one system."""
    rng = np.random.default_rng(seed)
    sdist = sys_.singular_distance

    def ok(s):
        if sdist is not None and sdist(s.q) < 5e-2:
            return False
        if sys_.d == 1 and s.q[0] <= 1e-2:
            return False
        return predicate(s) if predicate is not None else True

    return sample_states(sys_.d, n, rng, singular_distance=sdist,
                         predicate=lambda Q, P: np.array(
                             [ok(PhaseState(q, p)) for q, p in zip(Q, P)],
                             dtype=bool))
