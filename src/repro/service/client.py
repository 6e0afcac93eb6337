"""Synchronous client for the live scheduler service.

Speaks the JSON line protocol: one request per line, one reply per
request, in request order.
"""

from __future__ import annotations

import socket
from typing import Optional

from repro.errors import ReproError
from repro.service import protocol


class ServiceError(ReproError):
    """A non-retryable failure reply from the service."""


class ServiceClient:
    """One TCP connection to a :class:`SchedulerMaster`.

    Usable as a context manager; every reply dict is returned verbatim,
    and non-``ok`` replies raise :class:`ServiceError` unless they are
    retryable backpressure rejections (callers handle those — retrying
    is a policy decision, not a transport one).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")

    # ------------------------------------------------------------ transport

    def request(self, payload: dict) -> dict:
        """One round trip: send a request line, read its reply."""
        self._sock.sendall(protocol.encode(payload))
        return self._read_reply()

    def _read_reply(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise ServiceError("service closed the connection")
        return protocol.decode(line)

    # ----------------------------------------------------------- operations

    def submit(self, *, program: str, procs: int,
               job_id: Optional[int] = None,
               submit_time: Optional[float] = None,
               work_multiplier: float = 1.0,
               alpha: Optional[float] = None) -> dict:
        """Submit one job; returns the acceptance reply (with the
        effective, watermark-clamped ``submit_time``) or the rejection
        reply when the admission queue is full (``retryable: true``)."""
        payload = {"op": "submit", "program": program, "procs": procs,
                   "work_multiplier": work_multiplier}
        if job_id is not None:
            payload["job_id"] = job_id
        if submit_time is not None:
            payload["submit_time"] = submit_time
        if alpha is not None:
            payload["alpha"] = alpha
        reply = self.request(payload)
        if not reply.get("ok", False) and not reply.get("retryable", False):
            raise ServiceError(reply.get("error", "submission failed"))
        return reply

    def stats(self) -> dict:
        return self._checked({"op": "stats"})

    def job(self, job_id: int) -> dict:
        return self._checked({"op": "job", "job_id": job_id})

    def latencies(self) -> dict:
        return self._checked({"op": "latencies"})

    def pause(self) -> dict:
        return self._checked({"op": "pause"})

    def resume(self) -> dict:
        return self._checked({"op": "resume"})

    def drain(self) -> dict:
        return self._checked({"op": "drain"})

    def shutdown(self) -> dict:
        return self._checked({"op": "shutdown"})

    def ping(self) -> dict:
        return self._checked({"op": "ping"})

    def _checked(self, payload: dict) -> dict:
        reply = self.request(payload)
        if not reply.get("ok", False):
            raise ServiceError(reply.get("error", f"{payload['op']} failed"))
        return reply

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
