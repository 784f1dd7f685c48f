"""Exception types shared across the package, the batch fallback that isolates failing items, and held errors."""


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
    """``run(items)``, one result per item; if that raises ValidationError, each half of ``items``
    run the same way, so only failing items get their error (one in K: <= 2 ceil(log2 K) + 1 runs)."""
    try:
        return run(items)
    except ValidationError as exc:
        if len(items) == 1:
            return [exc]
    half = (len(items) + 1) // 2
    return [result for part in (items[:half], items[half:]) for result in batch_or_each(run, part)]


def kept(run, *args):
    """``run(*args)``, or the ValidationError it raised, held to fail only what needs the value."""
    try:
        return run(*args)
    except ValidationError as exc:
        return exc
