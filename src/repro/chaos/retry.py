"""Retry with exponential backoff and deterministic jitter.

Transient faults (dropped requests, leader-unavailability windows,
timeouts) are the normal case in a distributed system, and Kafka's
replayable log makes retrying them safe — so the right client reaction to
a :class:`TransientKafkaError` is to back off and try again, not to fail
the container.  :class:`RetryPolicy` is that reaction, shared by producer
sends, consumer polls, checkpoint IO and changelog restore.

Backoff sleeps go through the injected :class:`Clock`, so under a
:class:`VirtualClock` a retry storm costs zero wall-clock time and stays
fully deterministic; jitter comes from a policy-owned seeded RNG for the
same reason.
"""

from __future__ import annotations

import random
from typing import Callable, TypeVar

from repro.common.clock import Clock, SystemClock
from repro.common.errors import ConfigError, RetryExhaustedError, TransientKafkaError
from repro.common.metrics import MetricsRegistry

T = TypeVar("T")


class RetryPolicy:
    """Bounded retry of transient errors with exponential backoff."""

    def __init__(self, max_attempts: int = 8, base_backoff_ms: float = 10.0,
                 max_backoff_ms: float = 1_000.0, multiplier: float = 2.0,
                 jitter: float = 0.2,
                 retryable: tuple[type[BaseException], ...] = (TransientKafkaError,),
                 clock: Clock | None = None, seed: int = 0,
                 metrics: MetricsRegistry | None = None, group: str = "retry"):
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_backoff_ms < 0 or max_backoff_ms < 0:
            raise ConfigError("backoff durations must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {jitter}")
        self.max_attempts = max_attempts
        self.base_backoff_ms = base_backoff_ms
        self.max_backoff_ms = max_backoff_ms
        self.multiplier = multiplier
        self.jitter = jitter
        self.retryable = retryable
        self.clock = clock or SystemClock()
        self._rng = random.Random(seed)
        registry = metrics or MetricsRegistry()
        self._retries = registry.counter(group, "retries")
        self._exhausted = registry.counter(group, "retries.exhausted")
        self._backoff_ms = registry.counter(group, "backoff.ms")

    # -- introspection -------------------------------------------------------

    @property
    def retry_count(self) -> int:
        return self._retries.count

    @property
    def exhausted_count(self) -> int:
        return self._exhausted.count

    @property
    def total_backoff_ms(self) -> int:
        return self._backoff_ms.count

    def backoff_ms(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), jittered and capped."""
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        raw = self.base_backoff_ms * (self.multiplier ** (attempt - 1))
        capped = min(raw, self.max_backoff_ms)
        if self.jitter == 0.0:
            return capped
        return capped * (1.0 + self._rng.uniform(-self.jitter, self.jitter))

    # -- execution -----------------------------------------------------------

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn``, retrying retryable errors with backoff.

        Non-retryable errors propagate immediately.  After
        ``max_attempts`` total attempts the last error is wrapped in
        :class:`RetryExhaustedError` (as ``__cause__``).
        """
        attempt = 0
        while True:
            try:
                return fn()
            except self.retryable as err:
                attempt += 1
                self._retries.inc()
                if attempt >= self.max_attempts:
                    self._exhausted.inc()
                    raise RetryExhaustedError(
                        f"gave up after {attempt} attempts: {err}") from err
                delay = self.backoff_ms(attempt)
                self._backoff_ms.inc(int(delay))
                self.clock.sleep_ms(delay)
