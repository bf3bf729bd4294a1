#!/usr/bin/env python3
"""Multi-client TCP smoke for `covstream_cli --cmd=serve --port=0`.

Boots the fleet server on an ephemeral port (read back from its banner) and
drives it the way a real
deployment gets hit — several concurrent populations at once:

  * protocol clients walking the whole surface — create, ingest, estimate,
    solve, evict (with transparent reload), stats, tenants — plus one
    `ingest` with an out-of-range set id, which must come back `err set id`
    and admit nothing while the server keeps serving;
  * a couple hundred idle connections that connect and never send (the epoll
    reactor must park them for free — they'd each have pinned a pool thread
    under the old thread-per-connection dispatch);
  * pipelined clients writing whole request batches in one send() and
    requiring every response line back in order (the reactor's per-tenant
    coalescing path, exercised through the shipped binary), with one
    out-of-range line inside a same-tenant ingest run that must fail alone;
  * abrupt closers that disconnect mid-request without reading.

The server runs with the reactor flags (--max-connections,
--batch-window-us) exercised, reports the new counters on `stats`, and must
drain everything — idle connections included — into a clean exit 0 on
`shutdown`. Every response is checked against docs/PROTOCOL.md prefixes; any
unexpected `err` (or a hung server) fails the script. CI runs this after the unit
suites: the gtest layer exercises NetServer in-process, this exercises the
shipped binary end to end, exactly as an operator would.

Usage: python3 tools/serve_smoke.py [path/to/covstream_cli]
"""

import re
import socket
import subprocess
import sys
import tempfile
import threading
import time

HOST = "127.0.0.1"
CLIENTS = 3
ROUNDS = 8
IDLE_CONNS = 200
PIPELINED_CLIENTS = 16
ABRUPT_CLIENTS = 16


class Client:
    def __init__(self, port, deadline=10.0):
        # The server prints its banner before listening is guaranteed visible
        # to a raw connect on every platform, and a loaded CI box can delay
        # the bind: retry with backoff instead of failing the whole smoke on
        # one ECONNREFUSED.
        delay = 0.05
        start = time.monotonic()
        while True:
            try:
                self.sock = socket.create_connection((HOST, port), timeout=20)
                break
            except ConnectionRefusedError:
                if time.monotonic() - start > deadline:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
        self.buf = b""

    def read_line(self):
        while b"\n" not in self.buf:
            block = self.sock.recv(4096)
            if not block:
                raise AssertionError("EOF awaiting response line")
            self.buf += block
        response, self.buf = self.buf.split(b"\n", 1)
        return response.decode()

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        return self.read_line()

    def expect(self, line, prefix):
        response = self.request(line)
        assert response.startswith(prefix), (
            f"request {line!r}: expected {prefix!r}..., got {response!r}")
        return response

    def close(self):
        self.sock.close()


def client_session(port, idx, failures):
    try:
        c = Client(port)
        name = f"smoke{idx}"
        c.expect(f"create {name} 48 4 0.3", f"ok created {name}")
        for round_no in range(ROUNDS):
            pairs = " ".join(
                f"{(round_no * 17 + i * 5 + idx) % 48} {(round_no * 97 + i) % 1024}"
                for i in range(16))
            c.expect(f"ingest {name} {pairs}", "ok ingested 16")
            if round_no == 2:
                # Set 48 is outside the tenant's universe: the whole line is
                # refused (its good pair too), and the server survives it.
                c.expect(f"ingest {name} 1 5 48 6", "err set id")
            c.expect(f"estimate {name} 1,5,17", "ok estimate ")
            if round_no % 3 == 0:
                c.expect(f"solve {name} 3", "ok solve ")
            if round_no % 4 == 1:
                c.expect(f"evict {name}", f"ok evicted {name}")
                # The next read transparently reloads from the spill file.
                c.expect(f"estimate {name} 1,5,17", "ok estimate ")
        stats = c.expect(f"stats {name}", f"ok tenant {name} ")
        assert f"edges={ROUNDS * 16}" in stats, stats
        c.expect("quit", "ok bye")
        c.close()
    except Exception as exc:  # noqa: BLE001 - smoke collects every failure
        failures.append(f"client {idx}: {exc}")


def pipelined_session(port, idx, failures):
    """One connection, whole conversation written as pipelined batches.

    Consecutive same-tenant lines coalesce inside the server (one admission
    batch, one estimate handle); the wire contract stays one response line
    per request, in order — exactly what this asserts. The estimates read
    the ingests before them: the tenant is unsaturated (p* = 1), so each
    answer is the exact count of admitted elements its sets touch, and the
    refused line admits nothing.
    """
    try:
        c = Client(port)
        name = f"pipe{idx}"
        c.expect(f"create {name} 48 4 0.3", f"ok created {name}")
        batch = (f"ingest {name} 1 10 2 20\n"
                 f"ingest {name} 48 7 2 21\n"
                 f"ingest {name} 3 30\n"
                 f"ingest {name} 4 40 4 41\n"
                 f"estimate {name} 1,2\n"
                 f"estimate {name} 3\n"
                 f"estimate {name} 1,2,3,4\n"
                 f"ping\n")
        c.sock.sendall(batch.encode())
        for want in ["ok ingested 2", "err set id ...", "ok ingested 1",
                     "ok ingested 2",
                     "ok estimate 2.0", "ok estimate 1.0", "ok estimate 5.0",
                     "ok pong"]:
            got = c.read_line()
            matches = (got.startswith(want[:-3]) if want.endswith("...")
                       else got == want)
            assert matches, (
                f"pipelined client {idx}: expected {want!r}, got {got!r}")
        stats = c.expect(f"stats {name}", f"ok tenant {name} ")
        assert " edges=5 " in stats, stats  # nothing of the refused line
        c.expect("quit", "ok bye")
        c.close()
    except Exception as exc:  # noqa: BLE001
        failures.append(f"pipelined client {idx}: {exc}")


def abrupt_session(port, idx, failures):
    """Connect, leave a partial or unread request behind, vanish."""
    try:
        c = Client(port)
        if idx % 2 == 0:
            c.sock.sendall(b"estimate nob")  # partial line, never completed
        else:
            c.sock.sendall(b"ping\n")  # full request, response never read
            time.sleep(0.01)
        c.close()  # no quit: the server must reap the connection itself
    except Exception as exc:  # noqa: BLE001
        failures.append(f"abrupt client {idx}: {exc}")


def main():
    cli = sys.argv[1] if len(sys.argv) > 1 else "./build/covstream_cli"
    with tempfile.TemporaryDirectory(prefix="covstream_smoke_") as spill:
        server = subprocess.Popen(
            [cli, "--cmd=serve", "--port=0", "--tenants-budget=20000",
             f"--spill-dir={spill}", "--threads=4",
             "--max-connections=2048", "--batch-window-us=500"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        idle = []
        try:
            # The RLIMIT_NOFILE clamp notice (if any) precedes the banner on
            # the merged stream; scan a few lines rather than assuming order.
            banner = ""
            for _ in range(5):
                banner = server.stdout.readline()
                if "fleet serving on" in banner:
                    break
            assert "fleet serving on" in banner, f"bad banner: {banner!r}"
            port = int(re.search(r"127\.0\.0\.1:(\d+)", banner).group(1))

            # Park a couple hundred idle connections for the whole smoke:
            # every phase below runs while these sit on the reactor.
            for _ in range(IDLE_CONNS):
                idle.append(socket.create_connection((HOST, port), timeout=20))

            failures = []
            threads = [
                threading.Thread(target=client_session,
                                 args=(port, i, failures))
                for i in range(CLIENTS)
            ] + [
                threading.Thread(target=pipelined_session,
                                 args=(port, i, failures))
                for i in range(PIPELINED_CLIENTS)
            ] + [
                threading.Thread(target=abrupt_session,
                                 args=(port, i, failures))
                for i in range(ABRUPT_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

            control = Client(port)
            stats = control.expect("stats", "ok stats ")
            assert f"tenants={CLIENTS + PIPELINED_CLIENTS}" in stats, stats
            # The reactor counters ride on the same stats line
            # (docs/PROTOCOL.md): the gauge counts the parked idle
            # connections plus this control client, and the pipelined
            # population must actually have hit the coalescing path.
            for field in ["open_connections=", "epoll_wakeups=",
                          "batched_requests=", "coalesced_ingest_lines="]:
                assert f" {field}" in stats, f"stats missing {field}: {stats}"
            gauge = int(stats.split("open_connections=")[1].split()[0])
            assert gauge >= IDLE_CONNS + 1, f"gauge {gauge} lost idle conns"
            batched = int(stats.split("batched_requests=")[1].split()[0])
            assert batched > 0, f"no requests coalesced: {stats}"
            tenants = control.expect("tenants", "ok tenants ")
            for i in range(CLIENTS):
                assert f"smoke{i}" in tenants, tenants
            control.expect("bogus command", "err ")
            control.expect("shutdown", "ok bye")
            control.close()

            code = server.wait(timeout=30)
            assert code == 0, f"server exited {code}"
            # Shutdown drained the parked connections too: every idle socket
            # observes EOF, not a hang.
            for sock in idle:
                sock.settimeout(5)
                assert sock.recv(64) == b"", "idle conn not closed on shutdown"
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}", file=sys.stderr)
                return 1
            print(f"serve smoke PASS: {CLIENTS} clients x {ROUNDS} rounds, "
                  f"{PIPELINED_CLIENTS} pipelined + {ABRUPT_CLIENTS} abrupt "
                  f"clients, {IDLE_CONNS} idle conns parked, evict/reload "
                  f"exercised, clean shutdown")
            return 0
        finally:
            for sock in idle:
                try:
                    sock.close()
                except OSError:
                    pass
            if server.poll() is None:
                server.kill()
                server.wait()


if __name__ == "__main__":
    sys.exit(main())
