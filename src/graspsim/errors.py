"""Exception types shared across the package, and the integer check."""

import numpy as np


class GraspSimError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(GraspSimError, ValueError):
    """An argument is non-finite, out of range, or otherwise unusable."""


class NotFoundError(GraspSimError, KeyError):
    """A named entity (object id, parameter) does not exist."""


class CatalogError(GraspSimError, ValueError):
    """An object catalog file failed validation; message names the offender."""


class ShapeError(GraspSimError, ValueError):
    """Tensor shapes do not agree; message names both shapes."""


class ArchitectureError(GraspSimError, ValueError):
    """A weight store does not match the expected architecture manifest."""


class SingularJacobianError(GraspSimError, ValueError):
    """J·Jᵀ is numerically singular; no pseudoinverse step exists."""


class EmptyBankError(GraspSimError, ValueError):
    """A grasp memory bank with zero candidates was queried."""


class NotReadyError(GraspSimError, RuntimeError):
    """A result was asked for before it exists: an observation stack before
    the first render, or the per-step log of an episode run without it."""


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; anything but an int or a numpy integer (a bool
    too) is rejected, and so is a value below ``minimum`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {value}")
    return int(value)
