"""Wire protocol of the live scheduler service (DESIGN.md §12).

One port, two encodings, one request model.  Every operation is a JSON
object with an ``op`` field and its reply is a JSON object with an
``ok`` field; the master speaks them over either of:

- **line protocol** — newline-delimited JSON both ways.  One request
  per line, one reply per line, replies in request order, so a client
  may pipeline freely (:class:`repro.service.client.ServiceClient`).
- **minimal HTTP/1.1** — the same operations mapped onto routes
  (``GET /stats``, ``POST /submit`` …) for curl-ability.  The master
  sniffs the first request line: an HTTP method verb selects HTTP,
  anything else is parsed as a JSON line.

Rejections carry ``retryable``: ``True`` means the submission queue was
full and the same request may be retried after backoff (admission
control, not failure); ``False`` means the request itself is bad.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Tuple

#: First-line sniff for the HTTP side of the shared port.
HTTP_VERB = re.compile(rb"^(GET|POST|PUT|DELETE|HEAD) ")

_ROUTE_OPS = {
    ("GET", "/stats"): "stats",
    ("GET", "/latencies"): "latencies",
    ("GET", "/ping"): "ping",
    ("POST", "/submit"): "submit",
    ("POST", "/pause"): "pause",
    ("POST", "/resume"): "resume",
    ("POST", "/drain"): "drain",
    ("POST", "/shutdown"): "shutdown",
}

_JOBS_ROUTE = re.compile(r"^/jobs/(\d+)$")


def encode(obj: dict) -> bytes:
    """One line-protocol frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def _loads(data: bytes) -> object:
    """``json.loads`` of UTF-8 ``data``; raises ``ValueError`` on
    anything that is not JSON, including nesting past the recursion
    limit."""
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def decode(line: bytes) -> dict:
    """Parse one line-protocol frame; raises ``ValueError`` on anything
    that is not a JSON object."""
    obj = _loads(line)
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    return obj


def error(message: str, *, retryable: bool = False) -> dict:
    """A failure reply; see the module docstring for ``retryable``."""
    return {"ok": False, "error": message, "retryable": retryable}


def route_request(method: str, path: str,
                  body: Optional[bytes]) -> Optional[dict]:
    """Map an HTTP request onto the operation model; ``None`` for an
    unknown route.  ``POST /submit`` takes the submit payload as its
    JSON body (the ``op`` key is implied by the route)."""
    op = _ROUTE_OPS.get((method, path))
    if op is not None:
        request = {"op": op}
        if body:
            payload = _loads(body)
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            payload.pop("op", None)
            request.update(payload)
        return request
    match = _JOBS_ROUTE.match(path)
    if method == "GET" and match:
        return {"op": "job", "job_id": int(match.group(1))}
    return None


def http_response(reply: dict, *, status: Tuple[int, str] = (200, "OK"),
                  keep_alive: bool = True) -> bytes:
    """Serialize one reply as an HTTP/1.1 response."""
    body = json.dumps(reply, separators=(",", ":")).encode("utf-8") + b"\n"
    code, phrase = status
    head = (
        f"HTTP/1.1 {code} {phrase}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def http_status_for(reply: dict) -> Tuple[int, str]:
    """Map the reply's outcome onto an HTTP status: retryable rejection
    is 503 (try again), other failures 400, success 200."""
    if reply.get("ok", False):
        return (200, "OK")
    if reply.get("retryable", False):
        return (503, "Service Unavailable")
    return (400, "Bad Request")
