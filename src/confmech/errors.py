"""Typed errors raised by the numerical machinery.

Integrators and coordinate maps never return NaNs silently: anything that
would produce one raises a subclass of :class:`ConfmechError` carrying
enough context (offending state, last good time) to diagnose the run.
"""

from __future__ import annotations


class ConfmechError(Exception):
    """Base class for all library errors."""


class NonFiniteError(ConfmechError):
    """An evaluation returned NaN or infinity.

    The offending phase point, when known, is attached as ``state``.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class SingularityApproachError(ConfmechError):
    """A trajectory came within the exclusion radius of a potential singularity.

    ``last_good_time`` is the last sample time before the guard tripped;
    this is the finite-time-collapse diagnostic.
    """

    def __init__(self, message, last_good_time, state=None):
        super().__init__(message)
        self.last_good_time = last_good_time
        self.state = state


class StepUnderflowError(ConfmechError):
    """The adaptive integrator could not keep the local error bound without
    shrinking the step below the resolution limit (typically near a
    singularity). ``t_reached`` is how far the integration got."""

    def __init__(self, message, t_reached, state=None):
        super().__init__(message)
        self.t_reached = t_reached
        self.state = state


class ChartSingularError(ConfmechError):
    """The hyperspherical chart is singular at the requested point (a pole).

    Rotating the state to move the pole, reducing, and rotating back is the
    supported workaround; see the reduction module docs.
    """


class NotHomogeneousError(ConfmechError):
    """The potential failed the degree minus-two homogeneity requirement."""


class DomainError(ConfmechError):
    """A model potential was evaluated exactly on its singular set."""


class ZeroAngularEnergyError(ConfmechError):
    """The half-plane coordinate degenerates at I = 0; both branches are
    undefined there."""


class ZeroWError(ConfmechError):
    """Inversion w -> -1/w is undefined at w = 0."""


class NonPositiveEnergyError(ConfmechError):
    """The tilde map requires H > 0."""


class CollapseOnPathError(ConfmechError):
    """r^2(t) vanishes somewhere on the requested time interval."""

    def __init__(self, message, collapse_time=None):
        super().__init__(message)
        self.collapse_time = collapse_time


class IncompleteResultError(ConfmechError):
    """A computation stopped short of its result: a rejection sampler used
    up its attempt budget (the admissible region is empty or too small), or
    a flow did not record every requested time."""


class UsageError(ConfmechError):
    """Bad command-line or config-file input (exit code 2)."""
