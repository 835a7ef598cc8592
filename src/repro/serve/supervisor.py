"""Supervised worker processes: the one process-supervision primitive.

Both process-backed services run their work on :class:`WorkerSlot`\\ s —
the daemon (one slot per routing target, alive for its whole run) and
pooled :func:`~repro.serve.serve_batch` (``workers`` slots for one
call, driven at shard granularity). A slot is one ``multiprocessing``
process joined to its parent by a pipe. The parent sends
``(task, argument)`` pairs — ``task`` a module-level callable, pickled
by name — and reads one reply per pair. The rules are the same for both
callers:

* every worker starts from a clean slate: a ``fork`` child inherits the
  parent's warm ``shared_session`` LRU and parse caches, and answers
  computed on those would depend on whatever the parent solved before;
* a task that raises comes back as :class:`TaskFailed` and the worker
  lives on; a worker that dies comes back as :class:`WorkerCrash`;
* a wedged or dead worker is killed and respawned
  (:meth:`WorkerSlot.restart`) — that slot only, its siblings continue;
* workers ignore SIGINT: a terminal Ctrl-C reaches the whole process
  group, and stopping workers is the parent's decision.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
from typing import Any, Callable


class WorkerCrash(Exception):
    """The worker process died before replying."""


class TaskFailed(Exception):
    """The task raised in the worker (the argument is the exception's repr)."""


def _worker_main(conn) -> None:
    """One worker process: run ``(task, argument)`` pairs off a pipe.

    ``None`` ends the loop; a closed pipe does too. Tasks return a
    non-``None`` reply (``None`` is how a parent reads a dead worker).
    """
    from repro.enforce.session import clear_shared_sessions
    from repro.serve.worker import reset_worker_state

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    clear_shared_sessions()
    reset_worker_state()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task, argument = message
        try:
            reply = task(argument)
        except Exception as exc:  # a worker must survive any one task
            reply = TaskFailed(repr(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


class WorkerSlot:
    """One worker process and its parent-side pipe end."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.restarts = 0
        self._spawn()

    def _spawn(self) -> None:
        parent, child = multiprocessing.Pipe()
        self.conn = parent
        self.process = multiprocessing.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        self.process.start()
        child.close()

    def send(self, task: Callable[[Any], Any], argument: Any) -> None:
        """Hand the worker one task; its reply arrives on :attr:`conn`."""
        try:
            self.conn.send((task, argument))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrash(f"worker {self.index} pipe closed") from exc

    def recv(self) -> Any:
        """The reply to the last :meth:`send` (blocks until it arrives).

        Raises :class:`WorkerCrash` if the worker died first and
        :class:`TaskFailed` if the task raised.
        """
        return self._reply(self._recv(self.conn))

    async def call(
        self, task: Callable[[Any], Any], argument: Any, timeout: float | None
    ) -> Any:
        """One round trip from an event loop; :class:`TimeoutError` on expiry.

        The caller keeps at most one call outstanding per slot. The
        receive blocks a pool thread, not the loop; killing the process
        unblocks it with EOF.
        """
        self.send(task, argument)
        loop = asyncio.get_running_loop()
        reply = await asyncio.wait_for(
            loop.run_in_executor(None, self._recv, self.conn), timeout
        )
        return self._reply(reply)

    @staticmethod
    def _recv(conn) -> Any:
        # Sentinel instead of raising: after a deadline kill this runs
        # in an abandoned executor future, where an exception would only
        # make noise.
        try:
            return conn.recv()
        except (EOFError, OSError):
            return None

    def _reply(self, reply: Any) -> Any:
        if reply is None:
            raise WorkerCrash(
                f"worker {self.index} (pid {self.process.pid}) died mid-request"
            )
        if isinstance(reply, TaskFailed):
            raise reply
        return reply

    def restart(self) -> None:
        """Kill the (possibly wedged) process and spawn a fresh one."""
        self.kill()
        self.restarts += 1
        self._spawn()

    def kill(self) -> None:
        """Kill the process outright (no-op once it has exited), close the pipe."""
        self.process.kill()
        self.process.join(timeout=10)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def stop(self) -> None:
        """Graceful worker shutdown (kill only if it ignores the stop)."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        self.kill()
