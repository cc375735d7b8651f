"""An in-memory cloud sink with seeded fault injection, for the telemetry tests."""

import numpy as np

from microfarm.telemetry.cloud import CloudEnvelope


class InMemoryCloudSink:
    """Sink that keeps envelopes in a list, with seeded fault injection.

    ``fail_first_attempts``: nack (and drop) every envelope whose attempt
    counter is at or below this value.  ``nack_rate``: probability a send is
    dropped and nacked.  ``store_then_nack_rate``: probability the envelope is
    stored but the ack is lost, which is the case dedup exists for.
    """

    def __init__(
        self,
        fail_first_attempts: int = 0,
        nack_rate: float = 0.0,
        store_then_nack_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= nack_rate + store_then_nack_rate <= 1.0:
            raise ValueError("fault rates must sum to at most 1")
        self.fail_first_attempts = fail_first_attempts
        self.nack_rate = nack_rate
        self.store_then_nack_rate = store_then_nack_rate
        self._rng = np.random.default_rng(seed)
        self.envelopes: list[CloudEnvelope] = []
        self._ids: set[tuple[int, int]] = set()
        self.send_calls = 0

    def _store(self, envelope: CloudEnvelope) -> None:
        if envelope.envelope_id not in self._ids:
            self._ids.add(envelope.envelope_id)
            self.envelopes.append(envelope)

    def send(self, envelope: CloudEnvelope) -> bool:
        self.send_calls += 1
        if envelope.attempt <= self.fail_first_attempts:
            return False
        r = float(self._rng.random())
        if r < self.nack_rate:
            return False
        if r < self.nack_rate + self.store_then_nack_rate:
            self._store(envelope)
            return False
        self._store(envelope)
        return True

    def ids(self) -> set[tuple[int, int]]:
        return set(self._ids)
