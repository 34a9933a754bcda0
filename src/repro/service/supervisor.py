"""Prefork multi-worker HTTP serving over one shared memory-mapped store.

The space story of the whole project — indexes a few times the input size —
would be thrown away by naively running N copies of the server: each would
hold its own arrays.  This module keeps the paper's space win at production
concurrency with the classic prefork architecture:

* the **supervisor** binds the listen socket once, loads the authoritative
  index from the store (memory-mapped), and forks N **workers**;
* each worker ``load_index(..., mmap=True)``-s the *same* store files — the
  kernel page cache holds one physical copy of every array, so per-worker
  RSS grows by roughly a Python heap, not an index;
* workers accept directly from the inherited listening socket (shared
  accept; the kernel load-balances), so the port is bound exactly once and
  survives any worker's death;
* a per-worker ``socketpair`` **control channel** (newline-delimited JSON)
  carries everything that must be coordinated: readiness, graceful drain,
  crash respawn bookkeeping, metrics aggregation, and the write path.

**Write path.**  ``POST /update`` hitting any worker is forwarded over the
control channel.  The supervisor serializes updates, applies each batch to
its authoritative index, persists the new state *under new file names*
(generation-stamped shard files via
:func:`~repro.io.store.refresh_sharded_store`, or a ``.gN`` sibling for
single-file stores — never truncating a file a live worker still maps), and
broadcasts a ``reload``.  Workers re-map only what moved
(:func:`~repro.io.store.reload_sharded_store`) and invalidate their caches
exactly (:meth:`~repro.service.QueryService.adopt_index`).  The requester's
HTTP response is released only after *every* worker acknowledged, so a query
issued after the update returns can never be served a previous generation.
Superseded files are unlinked once all acks are in.

**Failure model.**  ``SIGCHLD`` reaps dead workers and respawns them from
the current store (the socket stays bound; siblings are untouched).
``SIGTERM``/``SIGINT`` — including during the initial store load — broadcast
a drain, wait for workers to flush in-flight batches, and exit 0.

The supervisor itself is synchronous (``selectors`` loop, no asyncio): it
serves no HTTP, and a blocking loop makes the signal/fork handling plain.
Workers run the ordinary :class:`~repro.service.server.HttpServer` on their
own event loop with a small cluster adapter wired into the update, metrics
and stats routes.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import random
import selectors
import signal
import socket
import sys
import time
from pathlib import Path

from ..errors import ReproError, SerializationError
from ..bench.measure import peak_rss_bytes, smaps_rollup_bytes
from .metrics import render_cluster_stats
from .query_service import QueryService

__all__ = ["Supervisor"]

#: Errors an update payload can legitimately raise (answered as HTTP 400).
_UPDATE_ERRORS = (ReproError, TypeError, ValueError, KeyError, OverflowError)

#: Errors that mean the *store* failed, not the payload: the supervisor
#: rolls back to the last committed generation and serves degraded.
_PERSIST_ERRORS = (OSError, SerializationError)

#: Safety valve: stop respawning after this many worker deaths (a worker
#: that dies instantly in a loop would otherwise fork-bomb the box).
DEFAULT_RESPAWN_LIMIT = 64

#: A worker death within this many seconds of its spawn counts as a fast
#: death; consecutive fast deaths back off exponentially (with jitter)
#: instead of respawning in a tight fork loop.
_FAST_DEATH_SECONDS = 5.0
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_MAX_SECONDS = 5.0


def _load_store(path, *, mmap: bool = True):
    """Load a single-file or directory (sharded) store."""
    from ..io.store import load_index, load_sharded_store

    path = Path(path)
    if path.is_dir():
        return load_sharded_store(path, mmap=mmap)
    return load_index(path, mmap=mmap)


def _store_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _encode(message: dict) -> bytes:
    return json.dumps(message).encode("utf-8") + b"\n"


class _WorkerRecord:
    """Supervisor-side state of one worker: pid + buffered control channel."""

    __slots__ = ("number", "pid", "sock", "inbuf", "outbuf", "ready", "alive")

    def __init__(self, number: int, pid: int, sock: socket.socket) -> None:
        self.number = number
        self.pid = pid
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.ready = False
        self.alive = True


class Supervisor:
    """Fork N serving workers over one store and coordinate them.

    Parameters
    ----------
    store_path:
        A single-file index store or a sharded store directory.  Workers
        memory-map it; updates persist back to it (directory stores) or to
        generation-stamped siblings (single-file stores).
    workers:
        Number of worker processes to fork.
    host / port:
        The listen address; bound once, by the supervisor (``port=0`` picks
        a free port).
    service_options / server_options:
        Keyword arguments for each worker's :class:`QueryService` /
        :class:`HttpServer` (batching, quotas, tenant classes, ...).
    warm_patterns / warm_top:
        Optional query-log patterns each worker replays through
        :meth:`QueryService.warm` *before* accepting traffic.
    drain_timeout:
        Seconds to wait for workers to drain on shutdown before SIGKILL.
    ready:
        ``ready(host, port)`` callback fired once every initial worker is
        accepting (the CLI prints its "serving on" line through it).
    """

    def __init__(
        self,
        store_path,
        *,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        service_options: dict | None = None,
        server_options: dict | None = None,
        warm_patterns=None,
        warm_top: int | None = None,
        drain_timeout: float = 10.0,
        respawn_limit: int = DEFAULT_RESPAWN_LIMIT,
        ready=None,
    ) -> None:
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only feature
            raise ReproError("multi-worker serving needs os.fork (POSIX)")
        self._store_path = str(store_path)
        self._current_store = str(store_path)
        self._is_directory = Path(store_path).is_dir()
        self._workers = max(1, int(workers))
        self._host = host
        self._port = int(port)
        self._service_options = dict(service_options or {})
        self._server_options = dict(server_options or {})
        self._warm_patterns = list(warm_patterns or [])
        self._warm_top = warm_top
        self._drain_timeout = float(drain_timeout)
        self._respawn_limit = max(0, int(respawn_limit))
        self._ready = ready
        self._index = None
        self._listen: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._records: dict[int, _WorkerRecord] = {}  # pid -> record
        self._stopping = False
        self._drain_deadline: float | None = None
        self._announced = False
        self._got_sigchld = False
        self._wake_r = self._wake_w = -1
        self._generation = 0
        self._updates = 0
        self._respawns = 0
        self._degraded = False
        self._recovery: dict | None = None
        self._spawn_times: dict[int, float] = {}
        self._fast_deaths: dict[int, int] = {}
        self._pending_respawns: list[tuple[float, int]] = []
        self._collect_ids = 0
        self._collections: dict[int, dict] = {}
        self._update_queue: list[dict] = []
        self._active_update: dict | None = None
        self._generated_files: list[str] = []

    # -- lifecycle ---------------------------------------------------------------
    def run(self) -> int:
        """Load, bind, fork, and coordinate until shutdown.  Returns 0."""
        self._install_signals()
        try:
            if self._stopping:  # terminated before the load even started
                return 0
            if self._is_directory:
                # Crash recovery before serving: sweep temp files, truncate a
                # torn WAL tail, quarantine corrupt shards, roll committed
                # updates forward.  Single-file stores are written atomically
                # (old-or-new), so they need no repair pass.
                from ..io.store import recover_sharded_store

                _recovered, self._recovery = recover_sharded_store(self._store_path)
            if self._stopping:  # terminated during a long recovery
                return 0
            self._index = _load_store(self._store_path, mmap=True)
            if self._stopping:  # terminated during a long store load
                return 0
            self._listen = socket.create_server(
                (self._host, self._port), backlog=128, reuse_port=False
            )
            self._listen.set_inheritable(True)
            bound = self._listen.getsockname()
            self._host, self._port = bound[0], bound[1]
            self._selector = selectors.DefaultSelector()
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            os.set_blocking(self._wake_w, False)
            self._selector.register(self._wake_r, selectors.EVENT_READ, None)
            for number in range(self._workers):
                self._spawn(number)
            self._loop()
            return 0
        finally:
            self._cleanup()

    def _loop(self) -> None:
        while True:
            if self._got_sigchld:
                self._got_sigchld = False
                self._reap()
            if self._pending_respawns and not self._stopping:
                now = time.monotonic()
                due = [n for (when, n) in self._pending_respawns if when <= now]
                self._pending_respawns = [
                    (when, n) for (when, n) in self._pending_respawns if when > now
                ]
                for number in due:
                    self._spawn(number)
            if self._stopping:
                if not self._records:
                    return
                if (
                    self._drain_deadline is not None
                    and time.monotonic() >= self._drain_deadline
                ):
                    for record in list(self._records.values()):
                        self._kill(record, signal.SIGKILL)
                    self._reap(block=True)
                    return
            try:
                events = self._selector.select(timeout=0.1)
            except OSError as error:  # pragma: no cover - EINTR paranoia
                if error.errno != errno.EINTR:
                    raise
                continue
            for key, mask in events:
                if key.data is None:
                    self._drain_wake_pipe()
                else:
                    self._service_channel(key.data, mask)

    def _cleanup(self) -> None:
        for record in list(self._records.values()):
            self._kill(record, signal.SIGKILL)
            self._close_record(record)
        self._reap(block=True)
        if self._selector is not None:
            self._selector.close()
        for fd in (self._wake_r, self._wake_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        if self._listen is not None:
            self._listen.close()

    # -- signals -----------------------------------------------------------------
    def _install_signals(self) -> None:
        signal.signal(signal.SIGCHLD, self._on_sigchld)
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._on_terminate)

    def _on_sigchld(self, signum, frame) -> None:
        self._got_sigchld = True
        self._wake()

    def _on_terminate(self, signum, frame) -> None:
        if not self._stopping:
            self._stopping = True
            self._drain_deadline = time.monotonic() + self._drain_timeout
            for record in self._records.values():
                self._send(record, {"op": "drain"})
        self._wake()

    def _wake(self) -> None:
        if self._wake_w >= 0:
            try:
                os.write(self._wake_w, b"x")
            except (OSError, BlockingIOError):
                pass

    def _drain_wake_pipe(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except (OSError, BlockingIOError):
            pass

    # -- workers -----------------------------------------------------------------
    def _spawn(self, number: int) -> None:
        self._spawn_times[number] = time.monotonic()
        parent_sock, child_sock = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # child
            status = 1
            try:
                parent_sock.close()
                self._child_reset()
                status = _worker_main(
                    number,
                    self._listen,
                    child_sock,
                    self._current_store,
                    {
                        "service": self._service_options,
                        "server": self._server_options,
                        "warm_patterns": self._warm_patterns,
                        "warm_top": self._warm_top,
                        "generation": self._generation,
                    },
                )
            except BaseException:  # pragma: no cover - crash path
                status = 1
            finally:
                os._exit(status)
        child_sock.close()
        parent_sock.setblocking(False)
        record = _WorkerRecord(number, pid, parent_sock)
        self._records[pid] = record
        self._selector.register(parent_sock, selectors.EVENT_READ, record)

    def _child_reset(self) -> None:
        """Shed supervisor state the forked child must not touch."""
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if self._selector is not None:
            self._selector.close()
        for fd in (self._wake_r, self._wake_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        for record in self._records.values():
            try:
                record.sock.close()
            except OSError:
                pass
        # The authoritative index (and its mmaps) is CoW-shared with the
        # parent; the worker loads its own from the store instead.
        self._index = None

    def _reap(self, block: bool = False) -> None:
        while True:
            try:
                pid, _status = os.waitpid(-1, 0 if block else os.WNOHANG)
            except ChildProcessError:
                return
            except InterruptedError:  # pragma: no cover
                continue
            if pid == 0:
                return
            record = self._records.pop(pid, None)
            if record is None:
                continue
            record.alive = False
            self._close_record(record)
            self._prune_waits(record)
            if not self._stopping:
                if self._respawns < self._respawn_limit:
                    self._respawns += 1
                    self._schedule_respawn(record.number)
                else:  # pragma: no cover - safety valve
                    print(
                        f"worker {record.number} died; respawn limit "
                        f"({self._respawn_limit}) reached",
                        file=sys.stderr,
                    )

    def _schedule_respawn(self, number: int) -> None:
        """Respawn a dead worker, backing off on consecutive fast deaths.

        The first death respawns immediately (a one-off crash should not
        add latency); a worker that keeps dying within seconds of its spawn
        waits ``min(5s, 0.05s · 2^(failures-1))`` plus up to 25% jitter, so
        a persistently broken store never turns into a tight fork loop.  A
        worker that survived past the fast-death window resets its count.
        """
        alive = time.monotonic() - self._spawn_times.get(number, 0.0)
        if alive >= _FAST_DEATH_SECONDS:
            self._fast_deaths[number] = 0
        failures = self._fast_deaths.get(number, 0) + 1
        self._fast_deaths[number] = failures
        if failures <= 1:
            self._spawn(number)
            return
        delay = min(
            _BACKOFF_MAX_SECONDS, _BACKOFF_BASE_SECONDS * (2 ** (failures - 1))
        ) * (1.0 + 0.25 * random.random())
        self._pending_respawns.append((time.monotonic() + delay, number))

    def _kill(self, record: _WorkerRecord, signum) -> None:
        try:
            os.kill(record.pid, signum)
        except ProcessLookupError:
            pass

    def _close_record(self, record: _WorkerRecord) -> None:
        try:
            self._selector.unregister(record.sock)
        except (KeyError, ValueError):
            pass
        try:
            record.sock.close()
        except OSError:
            pass

    def _prune_waits(self, record: _WorkerRecord) -> None:
        """A dead worker can neither ack a reload nor answer a stats request."""
        if self._active_update is not None:
            self._active_update["waiting"].discard(record.pid)
            if not self._active_update["waiting"]:
                self._finish_update()
        for token in list(self._collections):
            collection = self._collections[token]
            collection["waiting"].discard(record.pid)
            if collection["requester"] is record:
                del self._collections[token]
            elif not collection["waiting"]:
                self._finish_collection(token)

    # -- control channel ---------------------------------------------------------
    def _send(self, record: _WorkerRecord, message: dict) -> None:
        if not record.alive:
            return
        record.outbuf += _encode(message)
        self._flush(record)

    def _flush(self, record: _WorkerRecord) -> None:
        while record.outbuf:
            try:
                sent = record.sock.send(record.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                record.outbuf.clear()
                return
            del record.outbuf[:sent]
        events = selectors.EVENT_READ
        if record.outbuf:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(record.sock, events, record)
        except (KeyError, ValueError):
            pass

    def _service_channel(self, record: _WorkerRecord, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush(record)
        if not mask & selectors.EVENT_READ:
            return
        try:
            chunk = record.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            # EOF: the worker is gone (SIGCHLD will reap it).
            self._close_record(record)
            return
        record.inbuf += chunk
        while True:
            newline = record.inbuf.find(b"\n")
            if newline < 0:
                break
            line = bytes(record.inbuf[:newline])
            del record.inbuf[: newline + 1]
            if not line.strip():
                continue
            try:
                message = json.loads(line)
            except json.JSONDecodeError:  # pragma: no cover - defensive
                continue
            self._handle_message(record, message)

    def _handle_message(self, record: _WorkerRecord, message: dict) -> None:
        op = message.get("op")
        if op == "ready":
            record.ready = True
            if (
                not self._announced
                and self._ready is not None
                and all(r.ready for r in self._records.values())
                and len(self._records) >= self._workers
            ):
                self._announced = True
                self._ready(self._host, self._port)
        elif op == "update":
            self._update_queue.append(
                {
                    "requester": record,
                    "id": message.get("id"),
                    "updates": message.get("updates", []),
                }
            )
            self._pump_updates()
        elif op == "reload_ack":
            active = self._active_update
            if active is not None and message.get("generation") == active["generation"]:
                active["waiting"].discard(record.pid)
                if not active["waiting"]:
                    self._finish_update()
        elif op in ("scrape", "stats"):
            self._start_collection(record, op, message.get("id"))
        elif op == "stats_reply":
            token = message.get("collect")
            collection = self._collections.get(token)
            if collection is None:
                return
            collection["waiting"].discard(record.pid)
            collection["replies"][record.number] = message.get("payload", {})
            if not collection["waiting"]:
                self._finish_collection(token)

    # -- update fan-out ----------------------------------------------------------
    def _pump_updates(self) -> None:
        while self._active_update is None and self._update_queue:
            self._apply_update(self._update_queue.pop(0))

    def _apply_update(self, request: dict) -> None:
        from ..io.store import (
            _wal_updates_payload,
            append_wal,
            refresh_sharded_store,
            save_index,
        )

        requester = request["requester"]
        try:
            pairs = [tuple(entry) for entry in request["updates"]]
            report = self._index.apply_updates(pairs).as_dict()
        except _UPDATE_ERRORS as error:
            self._send(
                requester,
                {"op": "update_done", "id": request["id"], "error": str(error)},
            )
            return
        self._generation += 1
        self._updates += 1
        obsolete: list[str] = []
        store_message = None
        wal_start: int | None = None
        try:
            if self._is_directory:
                # WAL first (fsync'd commit point), then the shard rewrite:
                # a crash after the append is rolled forward by recovery, a
                # crash before it leaves the acknowledged pre-update state.
                wal_start = append_wal(
                    self._current_store,
                    {
                        "type": "update",
                        "updates": _wal_updates_payload(pairs),
                        "generation": self._generation,
                    },
                )
                refresh = refresh_sharded_store(
                    self._current_store, self._index, generation_names=True
                )
                obsolete = refresh["obsolete"]
                report["store"] = {
                    "rewritten": refresh["rewritten"],
                    "skipped": refresh["skipped"],
                }
                append_wal(
                    self._current_store,
                    {
                        "type": "applied",
                        "generations": list(self._index.generations),
                    },
                )
            else:
                base = Path(self._store_path)
                new_path = str(base.with_name(f"{base.name}.g{self._generation}"))
                save_index(new_path, self._index)
                if self._current_store != self._store_path:
                    # Only files this supervisor created are ever unlinked;
                    # the user's original store is left untouched (stale,
                    # like the single-process server leaves it).
                    obsolete.append(self._current_store)
                self._current_store = new_path
                self._generated_files.append(new_path)
                store_message = new_path
                report["store"] = {"path": new_path}
        except _PERSIST_ERRORS as error:
            self._enter_degraded(error, wal_start)
            self._send(
                requester,
                {
                    "op": "update_done",
                    "id": request["id"],
                    "error": f"store persist failed, serving last committed "
                    f"generation: {error}",
                    "status": 503,
                },
            )
            return
        if self._degraded:
            self._degraded = False
            self._broadcast_degraded(False)
        report["cluster_generation"] = self._generation
        positions = report.get("positions", [])
        waiting = {pid for pid, r in self._records.items() if r.alive}
        self._active_update = {
            "requester": requester,
            "id": request["id"],
            "report": report,
            "generation": self._generation,
            "waiting": waiting,
            "obsolete": obsolete,
        }
        reload_message = {
            "op": "reload",
            "generation": self._generation,
            "positions": positions,
            "store": store_message,
        }
        for record in self._records.values():
            self._send(record, reload_message)
        if not waiting:  # pragma: no cover - all workers died at once
            self._finish_update()

    def _finish_update(self) -> None:
        active, self._active_update = self._active_update, None
        if active is None:
            return
        for path in active["obsolete"]:
            try:
                os.unlink(path)
            except OSError:
                pass
        requester = active["requester"]
        if requester.alive:
            self._send(
                requester,
                {
                    "op": "update_done",
                    "id": active["id"],
                    "report": active["report"],
                },
            )
        self._pump_updates()

    def _enter_degraded(self, error, wal_start: int | None) -> None:
        """Roll back to the last committed generation after a persist failure.

        The update already mutated the in-memory index, so the authoritative
        copy is reloaded from the store (whatever generation the disk holds
        is, by construction, a committed one); the WAL record this update
        appended — if it got that far — is truncated away so recovery never
        replays an unacknowledged batch; workers keep serving their current
        maps, and ``/healthz``/``/stats``/``/metrics`` flag the cluster
        degraded until an update persists cleanly again.
        """
        self._generation -= 1
        self._updates -= 1
        if wal_start is not None:
            try:
                from ..io.store import _truncate_wal

                _truncate_wal(self._current_store, wal_start)
            except OSError:  # pragma: no cover - disk is already failing
                pass
        try:
            self._index = _load_store(self._current_store, mmap=True)
        except _PERSIST_ERRORS:  # pragma: no cover - disk is already failing
            pass  # keep serving the mutated in-memory copy rather than dying
        print(
            f"update persist failed ({error}); serving degraded at "
            f"generation {self._generation}",
            file=sys.stderr,
        )
        if not self._degraded:
            self._degraded = True
            self._broadcast_degraded(True)

    def _broadcast_degraded(self, value: bool) -> None:
        message = {"op": "degraded", "value": value}
        for record in self._records.values():
            self._send(record, message)

    # -- metrics / stats aggregation ---------------------------------------------
    def _start_collection(self, record: _WorkerRecord, kind: str, reqid) -> None:
        self._collect_ids += 1
        token = self._collect_ids
        waiting = {pid for pid, r in self._records.items() if r.alive}
        self._collections[token] = {
            "type": kind,
            "requester": record,
            "id": reqid,
            "waiting": waiting,
            "replies": {},
        }
        message = {"op": "stats_request", "collect": token}
        for peer in self._records.values():
            self._send(peer, message)
        if not waiting:  # pragma: no cover
            self._finish_collection(token)

    def _supervisor_stats(self) -> dict:
        return {
            "workers": len(self._records),
            "configured_workers": self._workers,
            "respawns": self._respawns,
            "respawns_pending": len(self._pending_respawns),
            "generation": self._generation,
            "updates": self._updates,
            "degraded": self._degraded,
            "recovery": self._recovery,
            "store": self._current_store,
            "store_bytes": _store_bytes(self._current_store),
            "pid": os.getpid(),
            "pids": {
                record.number: pid for pid, record in self._records.items()
            },
        }

    def _finish_collection(self, token: int) -> None:
        collection = self._collections.pop(token, None)
        if collection is None:
            return
        requester = collection["requester"]
        if not requester.alive:
            return
        if collection["type"] == "scrape":
            text = render_cluster_stats(
                collection["replies"], self._supervisor_stats()
            )
            self._send(
                requester,
                {"op": "scrape_done", "id": collection["id"], "text": text},
            )
        else:
            payload = {
                "workers": {
                    str(number): snapshot
                    for number, snapshot in sorted(collection["replies"].items())
                },
                "supervisor": self._supervisor_stats(),
            }
            self._send(
                requester,
                {"op": "stats_done", "id": collection["id"], "payload": payload},
            )


# --------------------------------------------------------------------------- #
# worker side                                                                  #
# --------------------------------------------------------------------------- #
class _WorkerContext:
    """The worker's cluster adapter: HTTP routes on one side, the control
    channel to the supervisor on the other."""

    def __init__(self, number: int, reader, writer, store_path: str) -> None:
        self.number = number
        self.degraded = False
        self._reader = reader
        self._writer = writer
        self._store_path = store_path
        self._server = None
        self._service: QueryService | None = None
        self._ids = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._stop = asyncio.Event()

    def bind(self, server, service: QueryService) -> None:
        self._server = server
        self._service = service

    @property
    def stopped(self) -> asyncio.Event:
        return self._stop

    async def send(self, message: dict) -> None:
        self._writer.write(_encode(message))
        await self._writer.drain()

    async def _request(self, message: dict) -> dict:
        self._ids += 1
        reqid = self._ids
        message["id"] = reqid
        future = asyncio.get_running_loop().create_future()
        self._pending[reqid] = future
        try:
            await self.send(message)
            return await future
        finally:
            self._pending.pop(reqid, None)

    # -- the HttpServer cluster interface ---------------------------------------
    async def update(self, pairs) -> dict:
        reply = await self._request(
            {"op": "update", "updates": [[p, d] for p, d in pairs]}
        )
        if "error" in reply:
            if reply.get("status") == 503:
                # The store failed, not the payload: the cluster rolled back
                # and keeps serving the last committed generation.
                from .server import HttpError

                self.degraded = True
                raise HttpError(503, reply["error"])
            raise ReproError(reply["error"])
        self.degraded = False
        return reply["report"]

    async def scrape(self) -> str:
        reply = await self._request({"op": "scrape"})
        return reply.get("text", "")

    async def cluster_stats(self) -> dict:
        reply = await self._request({"op": "stats"})
        return reply.get("payload", {})

    # -- supervisor-initiated operations -----------------------------------------
    def _snapshot(self) -> dict:
        memory = {"peak_rss_bytes": peak_rss_bytes()}
        rollup = smaps_rollup_bytes()
        if rollup is not None:
            memory["shared_bytes"] = rollup["shared"]
            memory["private_bytes"] = rollup["private"]
            memory["pss_bytes"] = rollup.get("pss")
        return {
            "worker": self.number,
            "pid": os.getpid(),
            "service": self._service.stats(),
            "server": self._server.server_stats(),
            "memory": memory,
        }

    async def _apply_reload(self, message: dict) -> None:
        from ..io.store import load_index, reload_sharded_store

        async with self._server.write_lock:
            store = message.get("store")
            if store:
                new_index = load_index(store, mmap=True)
            else:
                new_index, _reloaded = reload_sharded_store(
                    self._store_path, self._service.index, mmap=True
                )
            self._service.adopt_index(
                new_index,
                positions=message.get("positions", ()),
                generation=message.get("generation"),
            )

    async def run(self) -> None:
        """Consume supervisor messages until drain/EOF."""
        while True:
            try:
                line = await self._reader.readline()
            except (ConnectionResetError, OSError):
                line = b""
            if not line:
                # Supervisor is gone: stop serving rather than run orphaned.
                self._stop.set()
                return
            try:
                message = json.loads(line)
            except json.JSONDecodeError:  # pragma: no cover - defensive
                continue
            op = message.get("op")
            if op in ("update_done", "scrape_done", "stats_done"):
                future = self._pending.get(message.get("id"))
                if future is not None and not future.done():
                    future.set_result(message)
            elif op == "stats_request":
                await self.send(
                    {
                        "op": "stats_reply",
                        "collect": message.get("collect"),
                        "payload": self._snapshot(),
                    }
                )
            elif op == "reload":
                await self._apply_reload(message)
                await self.send(
                    {"op": "reload_ack", "generation": message.get("generation")}
                )
            elif op == "degraded":
                self.degraded = bool(message.get("value"))
            elif op == "drain":
                self._stop.set()
                return


async def _worker_serve(
    number: int, listen_sock: socket.socket, ctrl_sock: socket.socket,
    store_path: str, config: dict,
) -> int:
    from .server import HttpServer

    loop = asyncio.get_running_loop()
    index = _load_store(store_path, mmap=True)
    service = QueryService(
        index,
        generation=int(config.get("generation", 0)),
        **config.get("service", {}),
    )
    warm_patterns = config.get("warm_patterns") or []
    if warm_patterns:
        # Warm before accepting: the first post-warm request wave hits the
        # cache, not the planner.  ``remember=True`` keeps the warm set so
        # adopt_index re-warms exactly the entries an update invalidates.
        service.warm(warm_patterns, top=config.get("warm_top"), remember=True)
    reader, writer = await asyncio.open_connection(sock=ctrl_sock)
    context = _WorkerContext(number, reader, writer, store_path)
    server = HttpServer(service, cluster=context, **config.get("server", {}))
    context.bind(server, service)
    try:
        loop.add_signal_handler(signal.SIGTERM, context.stopped.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    control = asyncio.ensure_future(context.run())
    await server.start(sock=listen_sock)
    await context.send({"op": "ready"})
    await context.stopped.wait()
    await server.shutdown(drain=True)
    control.cancel()
    try:
        writer.close()
    except OSError:  # pragma: no cover
        pass
    return 0


def _worker_main(
    number: int, listen_sock: socket.socket, ctrl_sock: socket.socket,
    store_path: str, config: dict,
) -> int:
    """Entry point of a forked worker (never returns to the caller's frame)."""
    try:
        return asyncio.run(
            _worker_serve(number, listen_sock, ctrl_sock, store_path, config)
        )
    except KeyboardInterrupt:  # pragma: no cover
        return 0
    except Exception:  # pragma: no cover - crash path, logged for debugging
        import traceback

        traceback.print_exc()
        return 1
