"""In-memory byte transport for RTR sessions.

A deterministic stand-in for a TCP connection: two FIFO byte pipes.
Using raw bytes (not PDU objects) forces both endpoints through the
real framing/encoding path, so transcripts are wire-faithful.
"""

from __future__ import annotations


class InMemoryTransport:
    """One endpoint of a duplex byte channel."""

    def __init__(self):
        self._outbox = bytearray()
        self._peer: "InMemoryTransport" = None  # set by TransportPair

    def send(self, data: bytes) -> None:
        """Queue bytes towards the peer."""
        if self._peer is None:
            raise RuntimeError("transport is not connected")
        self._peer._outbox.extend(data)

    def receive(self) -> bytes:
        """Drain every byte queued for this endpoint."""
        data = bytes(self._outbox)
        del self._outbox[:]
        return data

    def pending(self) -> int:
        """Bytes waiting to be received."""
        return len(self._outbox)


class TransportPair:
    """A connected pair of in-memory endpoints."""

    def __init__(self):
        self.cache_side = InMemoryTransport()
        self.router_side = InMemoryTransport()
        self.cache_side._peer = self.router_side
        self.router_side._peer = self.cache_side
