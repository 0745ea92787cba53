"""Run the service: foreground (CLI) or background thread (tests).

``serve_forever`` owns a fresh event loop until SIGINT/SIGTERM, then
shuts the server down gracefully (drain queues, commit, close stores).

:class:`ServerThread` runs the same server on a dedicated loop thread so
synchronous test code can drive it with plain ``http.client`` calls;
``start()`` returns the bound address (set ``serve.port`` to 0 in the
spec for an ephemeral port), ``stop(abort=True)`` models a crash for the
fault suite.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Optional, Tuple

from .app import ResolutionServer


def serve_forever(server: ResolutionServer) -> None:
    """Start the server and block until SIGINT/SIGTERM; then drain."""

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, stopping.set)
        await server.start()
        host, port = server.address
        print(f"# repro serve: listening on http://{host}:{port}")
        print(f"# primary tenant: {server.primary}")
        try:
            await stopping.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        # add_signal_handler unavailable (rare platforms): asyncio.run
        # already cancelled and cleaned up the main task.
        pass


class ServerThread:
    """A :class:`ResolutionServer` on its own event-loop thread."""

    def __init__(self, server: ResolutionServer) -> None:
        self.server = server
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:
                self._startup_error = error
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            loop.close()

    def submit(self, coroutine, timeout: float = 60.0):
        """Run a coroutine on the server loop from test code."""
        if self._loop is None:
            raise RuntimeError("server is not running")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    def stop(self, abort: bool = False, timeout: float = 60.0) -> None:
        """Stop the server and join the loop thread.

        Graceful by default; ``abort=True`` models a crash (queued
        ingests fail, only committed batches survive).
        """
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(abort=abort), self._loop
        )
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None
        self._thread = None
