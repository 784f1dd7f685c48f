"""Shared exception types, the batch fallback that isolates failing items, held errors and the two-CPU map."""

import contextvars
import itertools
import os
import threading


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


def map_on_cpus(run, items) -> list:
    """``[run(item) for item in items]``, in item order.  With two or more usable CPUs and more than one item a
    worker thread, in a copy of the caller's context (so its ``np.errstate``), runs items too: each thread takes the
    next item when it is free.  A raise in either stops both after their item and reaches the caller after the join."""
    if len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2:  # unknown (macOS, Windows): one thread
        return [run(item) for item in items]
    items = iter(items)
    if len(head := list(itertools.islice(items, 2))) < 2:
        return [run(item) for item in head]
    numbered, lock, results, raised = enumerate(itertools.chain(head, items)), threading.Lock(), {}, []

    def loop():
        try:
            while True:
                with lock:  # a generator advanced by two threads at once raises ValueError
                    if raised or (taken := next(numbered, None)) is None:
                        return
                results[taken[0]] = run(taken[1])
        except BaseException as exc:  # the raise is the flag that stops the other thread
            raised.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(loop,))
    worker.start()
    loop()
    worker.join()
    if raised:
        raise raised[0]
    return [results[i] for i in range(len(results))]


def kept(run, *args):
    """``run(*args)``, or the ValidationError it raised, held to fail only what needs the value."""
    try:
        return run(*args)
    except ValidationError as exc:
        return exc
