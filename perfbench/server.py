"""Boot and stop the real HTTP server as its own process.

The server is ``python -m repro.cli --config perfbench/pipeline.json
serve --http HOST:PORT`` with a fresh store directory and a fresh (cold)
model cache, so every boot fits the model.  A traced boot runs the same
command line through ``perfbench/tracing.py``, which wraps the layers'
public functions with spans before handing over to ``repro.cli``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.serve.client import ServeClient, ServeClientError

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
HEALTH_POLL_S = 0.005


class BootError(RuntimeError):
    """The server exited or never answered ``/healthz``."""


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Server:
    """One server process in its own working directory under ``run_dir``."""

    def __init__(
        self,
        root: Path,
        run_dir: Path,
        sampler_steps: str,
        spans_out: Optional[Path] = None,
    ):
        self.root = root
        self.run_dir = run_dir
        self.sampler_steps = sampler_steps
        self.spans_out = spans_out
        self.store_dir = run_dir / "store"
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.setup_s = 0.0
        self._log = None

    def _command(self, port: int) -> List[str]:
        repro_args = [
            "--config", str(self.root / "perfbench" / "pipeline.json"),
            "--model-cache", str(self.run_dir / "model-cache"),
            "--sampler-steps", self.sampler_steps,
            "serve",
            "--http", f"127.0.0.1:{port}",
            "--store", str(self.store_dir),
        ]
        if self.spans_out is None:
            return [sys.executable, "-m", "repro.cli", *repro_args]
        return [
            sys.executable, str(self.root / "perfbench" / "tracing.py"),
            "--spans-out", str(self.spans_out), "--", *repro_args,
        ]

    def boot(self) -> float:
        """Spawn the server and wait for the first ``/healthz`` OK.

        Returns the set-up time: spawn to first healthy answer, which
        includes interpreter start, imports and the cold model fit.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        port = _free_port()
        self.url = f"http://127.0.0.1:{port}"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(self.run_dir / "server.log", "w")
        client = ServeClient(self.url, timeout=5.0)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self._command(port),
            cwd=str(self.run_dir),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        while True:
            if self.proc.poll() is not None:
                raise BootError(
                    f"server exited with {self.proc.returncode} during boot; "
                    f"see {self.run_dir / 'server.log'}"
                )
            try:
                if client.health().get("ok"):
                    break
            except ServeClientError:
                pass
            if time.perf_counter() - started > BOOT_TIMEOUT_S:
                raise BootError(f"no /healthz answer in {BOOT_TIMEOUT_S}s")
            time.sleep(HEALTH_POLL_S)
        self.setup_s = time.perf_counter() - started
        return self.setup_s

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain), escalating to SIGKILL; waits for exit."""
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None
        return proc.returncode if proc is not None else 0

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
