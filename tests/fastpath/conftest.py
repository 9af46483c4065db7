"""Fixtures shared by the compiled-backend tests."""

import pytest


@pytest.fixture
def search_bounces(monkeypatch):
    """The steal attempts a compiled ``SearchPhase`` bounced back to
    Python: every victim rank a worker's ``yield phase`` received in
    ``AlgorithmBase._search_fused``, in order (not a request's True,
    nor a barrier's declaration)."""
    from repro.ws.algorithms.base import AlgorithmBase

    real = AlgorithmBase._search_fused
    victims = []

    def counted(self, ctx, phase):
        inner = real(self, ctx, phase)
        awaited = next(inner)
        while True:
            value = yield awaited
            if awaited is phase and type(value) is int:
                victims.append(value)
            try:
                awaited = inner.send(value)
            except StopIteration as stop:
                return stop.value

    monkeypatch.setattr(AlgorithmBase, "_search_fused", counted)
    return victims
