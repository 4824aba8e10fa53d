"""Small runtime helpers."""

from __future__ import annotations

import time

from .errors import TimeLimitError


class Deadline:
    """Cooperative wall-clock limit; solvers poll ``check`` between pivots/states."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def check(self) -> None:
        if time.monotonic() - self.t0 > self.seconds:
            raise TimeLimitError(f"time limit of {self.seconds}s exceeded")
