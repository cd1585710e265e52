"""Four crash-only ``repro serve`` processes on a throwaway deployment.

:class:`ServeCluster` builds the deployment with ``repro init`` in a
fresh directory under the checkout, serves each cloud with ``repro serve
--cloud i`` (default front-end and wire) on a loopback port, and on exit
kills and reaps every child and deletes the directory, whether or not
the run failed.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
LISTEN_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _cpu_seconds(pid: int) -> float:
    """User + system CPU of a live (or zombie, not yet reaped) child."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class ServeCluster:
    """``n`` ``repro serve`` children of one deployment under ``workdir``."""

    def __init__(self, workdir: Path, src: Path, n: int, k: int, salt: str) -> None:
        self.workdir = workdir
        self.n = n
        self.k = k
        self.salt = salt
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )
        self.tmp: Path | None = None
        self.ports: list[int] = []
        self.procs: list[subprocess.Popen] = []

    @property
    def specs(self) -> list[str]:
        return [f"tcp://127.0.0.1:{port}" for port in self.ports]

    @property
    def deployment(self) -> Path:
        return self.tmp / "deployment"

    def __enter__(self) -> "ServeCluster":
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cluster-", dir=self.workdir))
        try:
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "init",
                    "--root", str(self.deployment),
                    "--n", str(self.n), "--k", str(self.k), "--salt", self.salt,
                ],
                env=self.env, check=True, stdout=subprocess.DEVNULL, timeout=60,
            )
            self.ports = [_free_port() for _ in range(self.n)]
            self.start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Spawn every server and wait until all of them listen."""
        for cloud, port in enumerate(self.ports):
            log = open(self.tmp / f"serve-{cloud}.log", "ab")
            try:
                self.procs.append(
                    subprocess.Popen(
                        [
                            sys.executable, "-m", "repro", "serve",
                            "--root", str(self.deployment),
                            "--cloud", str(cloud), "--port", str(port),
                        ],
                        env=self.env, stdout=subprocess.DEVNULL, stderr=log,
                    )
                )
            finally:
                log.close()
        deadline = time.monotonic() + LISTEN_TIMEOUT_S
        for cloud, (proc, port) in enumerate(zip(self.procs, self.ports)):
            while True:
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"repro serve --cloud {cloud} exited with {proc.returncode}: "
                        + (self.tmp / f"serve-{cloud}.log").read_text()[-2000:]
                    )
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise RuntimeError(f"cloud {cloud} never listened on {port}")
                    time.sleep(0.005)

    def kill(self) -> None:
        """``kill -9`` every server and reap it."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        for proc in self.procs:
            proc.wait()
        self.procs = []

    def restart(self) -> float:
        """Crash every server and boot it again; seconds until all listen."""
        start = time.perf_counter()
        self.kill()
        self.start()
        return time.perf_counter() - start

    def cpu_seconds(self) -> float:
        """CPU seconds the live servers have used so far."""
        return sum(_cpu_seconds(proc.pid) for proc in self.procs)

    def close(self) -> None:
        try:
            self.kill()
        finally:
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)
                self.tmp = None
