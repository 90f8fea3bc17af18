"""Asyncio HTTP front end over :class:`~repro.serve.state.ServeState`.

Stdlib-only: ``asyncio.start_server`` plus a minimal HTTP/1.1 request
parser — no web framework.  Query evaluation is CPU-bound and runs in a
thread-pool executor so the event loop keeps accepting connections (and
so concurrent identical queries actually reach the singleflight logic
concurrently).

Endpoints (all responses are canonical JSON, so two servings of the
same content are byte-identical):

* ``GET  /health``     — liveness, uptime, store size, answer-cache
  entries and bytes, code version;
* ``GET  /metrics``    — :func:`repro.obs.summarize` of the process;
* ``POST /query``      — a query dict (see :mod:`repro.serve.state`);
* ``POST /invalidate`` — selective store invalidation.

An exact repeat of a ``POST /query`` — the same normalized query, the
key singleflight uses — is answered on the event loop from a cache of
rendered responses, without the executor, the engine lock, the store or
the renderer.  Its bytes are what :meth:`ServeState.handle`, rendered,
would give again: every point the first answer served is in the store
by then, so the cached copy's ``served`` block reports each one as a
store hit.  Errors are never cached, and every store invalidation
empties the cache.  :data:`ANSWER_CACHE_BYTES` bounds it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from ..core.canon import canonical_dumps
from ..core.frame import FrameRow
from ..obs import get_metrics, summarize
from ..util import LruDict
from .state import QueryError, ServeState

__all__ = ["ANSWER_CACHE_BYTES", "ReproServer", "serve_forever"]

_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADER_LINES = 64

#: Bytes of rendered ``POST /query`` responses kept for exact repeats.
#: A full-space answer for all five apps is about 2.2 MB; the 48
#: distinct answers of a 120-query ``serve_mixed`` stream take about
#: 0.25 MB.
ANSWER_CACHE_BYTES = 32 * 1024 * 1024


class _BadRequest(Exception):
    pass


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, bytes]:
    """Parse one HTTP/1.1 request: (method, path, body)."""
    request_line = await reader.readline()
    if not request_line:
        raise _BadRequest("empty request")
    try:
        method, target, _version = request_line.decode("ascii").split()
    except ValueError:
        raise _BadRequest(f"malformed request line {request_line!r}")
    content_length = 0
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise _BadRequest("bad Content-Length")
    else:
        raise _BadRequest("too many headers")
    if content_length > _MAX_BODY:
        raise _BadRequest(f"body exceeds {_MAX_BODY} bytes")
    body = (await reader.readexactly(content_length)
            if content_length else b"")
    return method, target.split("?", 1)[0], body


_SPLICE = "__records_splice__"


def _render_payload(payload: Dict) -> str:
    """``canonical_dumps(payload)``, splicing frame-backed records.

    A warm sweep response is mostly frame rows whose canonical bytes
    the frames already cache; rendering those by splice instead of
    re-encoding per-row dicts is the serve side of the columnar data
    plane.  Byte-identical to ``canonical_dumps`` of the same payload
    (covered by the serve frame tests).
    """
    result = payload.get("result")
    records = (result.get("records")
               if isinstance(result, dict) else None)
    if (not isinstance(records, list) or not records
            or not any(isinstance(r, FrameRow) for r in records)):
        return canonical_dumps(payload)
    parts = []
    for r in records:
        if isinstance(r, FrameRow):
            parts.append(r.frame.canonical_lines()[r.index])
        else:
            parts.append(canonical_dumps(r))
    shell = canonical_dumps(
        {**payload, "result": {**result, "records": _SPLICE}})
    return shell.replace('"records":' + json.dumps(_SPLICE),
                         '"records":[' + ",".join(parts) + "]", 1)


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}


def _http(status: int, *body: bytes) -> bytes:
    """One HTTP response whose body is the concatenated ``body`` parts."""
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {sum(map(len, body))}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii")
    return b"".join((head, *body))


def _response(status: int, payload: Dict) -> bytes:
    return _http(status, (_render_payload(payload) + "\n").encode("utf-8"))


def _repeat_response(first: bytes, served: Dict) -> bytes:
    """The response to a repeat of the answer ``first``, whose
    ``served`` block was ``served``.

    A repeat finds every point in the store, so its ``served`` block
    counts them all as store hits.  ``served`` is an answer's last key,
    so the repeat is ``first`` with its body's tail swapped: the body is
    not rendered again.
    """
    repeat = {**served, "store_hits": served["points"], "evaluated": 0}
    if repeat == served:
        return first
    tail = len(canonical_dumps(served)) + len("}\n")
    body = memoryview(first)[first.index(b"\r\n\r\n") + 4:len(first) - tail]
    return _http(200, body, (canonical_dumps(repeat) + "}\n").encode("utf-8"))


class ReproServer:
    """The asyncio server: owns the listening socket, delegates to a
    shared :class:`ServeState`."""

    def __init__(self, state: ServeState, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.state = state
        self.host = host
        self.port = port  # 0 = ephemeral; real port set by start()
        self._server: Optional[asyncio.base_events.Server] = None
        # Rendered answers by query key, valid while the state's
        # invalidation count equals ``_answers_at``.  Touched only on
        # the event loop.
        self._answers = LruDict(max_bytes=ANSWER_CACHE_BYTES,
                                eviction_counter="serve.cache.evictions")
        self._answers_at = state.invalidations

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- request handling -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await _read_request(reader)
            except (_BadRequest, asyncio.IncompleteReadError,
                    UnicodeDecodeError) as exc:
                writer.write(_response(400, {"ok": False,
                                             "error": str(exc)}))
                return
            writer.write(await self._dispatch(method, path, body))
        except ConnectionError:  # client went away mid-response
            pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _answers_since(self, invalidations: int) -> Optional[LruDict]:
        """The answer cache for answers computed after the state's
        ``invalidations``-th store invalidation: ``None`` if another has
        finished since, emptied first if it holds older answers."""
        now = self.state.invalidations
        if now != invalidations:
            return None
        if self._answers_at != now:
            self._answers.clear()
            self._answers_at = now
        return self._answers

    async def _query(self, query) -> bytes:
        metrics = get_metrics()
        try:
            key = self.state.query_key(query)
        except Exception:  # handle() reports it, exactly as uncached
            key = None
        invalidations = self.state.invalidations
        answers = self._answers_since(invalidations)
        if key is not None and answers is not None:
            cached = answers.get(key)
            if cached is not None:
                metrics.inc("serve.requests")
                metrics.inc("serve.cache.hit")
                return cached
        metrics.inc("serve.cache.miss")
        # CPU-bound; off the event loop so the server keeps accepting
        # (singleflight coalesces the duplicates).
        response = await asyncio.get_running_loop().run_in_executor(
            None, self.state.handle, query)
        first = _response(200, response)
        answers = self._answers_since(invalidations)
        if key is not None and answers is not None:
            answers[key] = _repeat_response(first, response["served"])
        return first

    async def _dispatch(self, method: str, path: str, body: bytes) -> bytes:
        if path == "/health" and method == "GET":
            import time
            return _response(200, {
                "ok": True,
                "uptime_s": time.time() - self.state.started_s,
                "store_entries": len(self.state.store),
                "cache_entries": len(self._answers),
                "cache_bytes": self._answers.nbytes,
                "code_version": self.state.code_version})
        if path == "/metrics" and method == "GET":
            return _response(200, {"ok": True, "metrics": summarize()})
        if path in ("/query", "/invalidate"):
            if method != "POST":
                return _response(405, {"ok": False,
                                       "error": f"{path} requires POST"})
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                return _response(400, {"ok": False,
                                       "error": f"bad JSON body: {exc}"})
            try:
                if path == "/query":
                    return await self._query(payload)
                removed = await asyncio.get_running_loop().run_in_executor(
                    None, self.state.invalidate, payload)
                return _response(200, {"ok": True, "invalidated": removed})
            except QueryError as exc:
                return _response(400, {"ok": False, "error": str(exc)})
            except Exception as exc:  # engine bug: report, don't die
                get_metrics().inc("serve.errors")
                return _response(500, {"ok": False,
                                       "error": f"{type(exc).__name__}: {exc}"})
        return _response(404, {"ok": False,
                               "error": f"no route {method} {path}"})


def serve_forever(state: ServeState, host: str = "127.0.0.1",
                  port: int = 8787) -> None:
    """Blocking entry point used by ``repro serve``."""
    server = ReproServer(state, host=host, port=port)

    async def _run():
        await server.start()
        print(f"repro serve: listening on http://{server.host}:"
              f"{server.port} (store: {state.store.path}, "
              f"{len(state.store)} entries, code {state.code_version})",
              flush=True)
        await asyncio.Event().wait()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
