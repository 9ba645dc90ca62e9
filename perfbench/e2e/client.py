"""Client side of the HTTP workloads: server processes and keep-alive calls."""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SERVER = Path(__file__).resolve().parent.parent / "server.py"

#: Seconds a server may take to print its port, or to stop.
STARTUP_TIMEOUT = 60.0


class Server:
    """One ``perfbench/server.py`` process; always stop it (context manager)."""

    def __init__(self, store: Path, *, trace: bool = False):
        self.spawned = time.perf_counter()
        command = [sys.executable, str(SERVER), "--store", str(store)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.final: "dict | None" = None
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.process.wait(STARTUP_TIMEOUT)}")
            self.hello = json.loads(line)
        except BaseException:
            self.kill()
            raise
        self.port = self.hello["port"]

    def connect(self) -> "Connection":
        return Connection(self.port)

    def stop(self) -> dict:
        """Ask the server to exit; returns its final report (peak RSS, trace)."""
        if self.final is None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
                self.process.stdin.close()
                line = self.process.stdout.readline()
                self.process.wait(STARTUP_TIMEOUT)
            except BaseException:
                self.kill()
                raise
            if self.process.returncode != 0 or not line:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            self.final = json.loads(line)
        return self.final

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


@dataclass
class Reply:
    status: int
    body: dict
    sent: float
    done: float

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def seconds(self) -> float:
        return self.done - self.sent


class Connection:
    """One keep-alive HTTP/1.1 connection to the API."""

    def __init__(self, port: int):
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=STARTUP_TIMEOUT)

    def call(self, method: str, path: str, payload: "dict | None" = None) -> Reply:
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        sent = time.perf_counter()
        self._http.request(method, path, body=body, headers=headers)
        response = self._http.getresponse()
        data = response.read()
        done = time.perf_counter()
        try:
            body = json.loads(data)
        except ValueError:
            body = {"error": data[:200].decode(errors="replace")}
        return Reply(response.status, body, sent, done)

    def verdict(self, side: str, node: str) -> Reply:
        return self.call("GET", f"/v1/verdict/{side}/{node}")

    def close(self) -> None:
        self._http.close()
