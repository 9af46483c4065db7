"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.engine.Timeout`, :class:`~repro.sim.engine.SimEvent`
  -- awaitables yielded by process generators.
* :class:`~repro.sim.resources.FifoLock`, :class:`~repro.sim.resources.Gate`
  -- synchronization resources.
* :class:`~repro.sim.rng.StreamRng` -- named deterministic random streams.

Tracing lives in :mod:`repro.obs` (:class:`~repro.obs.sink.TraceSink`).
"""

from repro.sim.engine import Process, SimEvent, Simulator, Timeout
from repro.sim.equeue import BucketQueue
from repro.sim.resources import FifoLock, Gate
from repro.sim.rng import StreamRng, substream_seed

__all__ = [
    "Simulator",
    "BucketQueue",
    "Process",
    "SimEvent",
    "Timeout",
    "FifoLock",
    "Gate",
    "StreamRng",
    "substream_seed",
]
