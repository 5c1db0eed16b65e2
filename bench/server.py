"""The ``python -m repro serve`` subprocess the serve workloads drive.

The server is started exactly as an operator would start it -- the
public CLI, an ephemeral port, one worker per core -- and is always
reaped: :meth:`ServerProcess.stop` sends SIGTERM (the CLI's graceful
drain: snapshot committed, WAL truncated), waits for the exit, and
kills only if the drain hangs.
"""

import os
import subprocess
import sys
import time

from repro.serving import ServingClient

#: ``src/`` of the checkout this file sits in.
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: Server worker threads: one per core of the 2-core reference box.
WORKERS = 2


def rss_mb(pid="self"):
    """Resident set size of ``pid`` in MB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


class ServerProcess:
    """One running ``repro serve`` over ``snapshot``."""

    def __init__(self, snapshot, log_path):
        start = time.perf_counter()
        self._log = open(log_path, "ab")
        environment = dict(os.environ, PYTHONPATH=SRC)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot", snapshot,
             "--port", "0", "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=environment,
        )
        try:
            banner = self.process.stdout.readline()
            if " on http://" not in banner:
                raise RuntimeError(
                    f"server did not start (see {log_path}): {banner!r}"
                )
            self.host, port = banner.strip().rsplit("/", 1)[1].split(":")
            self.port = int(port)
            with self.client("setup") as client:
                client.healthz()  # first 200: the server is ready
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawn to the first 200.
        self.ready_s = time.perf_counter() - start

    @property
    def pid(self):
        return self.process.pid

    def client(self, client_id):
        return ServingClient(self.host, self.port, client_id=client_id)

    def metrics(self):
        """One ``/metrics`` scrape (JSON tree)."""
        with self.client("scrape") as client:
            return client.metrics()

    def stop(self):
        """SIGTERM -> drain -> exit; returns the exit code."""
        try:
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self.process.stdout.close()
            self._log.close()
        return self.process.returncode
