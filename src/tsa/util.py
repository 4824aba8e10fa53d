"""Small runtime helpers."""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Optional

from .errors import TimeLimitError

# The active deadlines as a chain of (innermost, outer chain) links.
_ACTIVE: ContextVar[Optional[tuple]] = ContextVar("tsa_deadline", default=None)


class Deadline:
    """Cooperative wall-clock limit on the code run inside ``with Deadline(s):``.

    The clock starts at construction; ``seconds=None`` means no limit.  Solvers
    poll ``check_deadline`` between pivots, states and runs.  A pickled copy
    keeps the start, so a worker process that enters it keeps the caller's limit."""

    def __init__(self, seconds: Optional[float]):
        if seconds is not None and not seconds >= 0:
            raise ValueError(f"time limit must be >= 0 seconds, got {seconds}")
        self.seconds = seconds
        self.t0 = time.monotonic()

    def __enter__(self) -> Deadline:
        _ACTIVE.set((self, _ACTIVE.get()))
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.set(_ACTIVE.get()[1])

    def check(self) -> None:
        if self.seconds is not None and time.monotonic() - self.t0 > self.seconds:
            raise TimeLimitError(f"time limit of {self.seconds}s exceeded")


def check_deadline() -> None:
    """Raise ``TimeLimitError`` once the innermost active deadline has passed;
    outside any ``with Deadline(...)`` this does nothing."""
    active = _ACTIVE.get()
    if active is not None:
        active[0].check()
