"""Exception types shared across the package, and the batch fallback that isolates a failing item."""


class ValidationError(ValueError):
    """An input violates a documented precondition or schema."""


class SingularGeometryError(ValidationError):
    """A geometric configuration has no valid pairwise representation
    (arrival angle at 0 or pi, zero vertical offset, coincident points)."""


class DegenerateGeometryError(ValidationError):
    """Positions cannot be recovered from pairwise data (rank-deficient system)."""


class SingularCovarianceError(ValidationError):
    """The array covariance is not invertible."""


def batch_or_each(run, items) -> list:
    """``run(items)``, one result per item; if that raises ValidationError, the list of ``run``
    on each item alone (``items[i : i + 1]``), so only the failing items get their error."""
    try:
        return run(items)
    except ValidationError as exc:
        if len(items) == 1:
            return [exc]
    return [batch_or_each(run, items[i : i + 1])[0] for i in range(len(items))]
