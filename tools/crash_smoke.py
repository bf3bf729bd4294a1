#!/usr/bin/env python3
"""Crash-recovery smoke for the persistent fleet (`--cmd=serve --persist`).

The durability claim (DESIGN.md §5.13): kill the server at ANY write
boundary during a flush and the rebooted fleet recovers every tenant to its
pre-flush or post-flush state — bit for bit, never torn. This script makes
the claim falsifiable end to end, against the shipped binary:

  1. Reference run: three tenants, ingest batch A, flush (state 1), ingest
     batch B, flush (state 2). `save` snapshots of both states are kept as
     byte-exact references, then a clean restart is checked to answer
     estimates exactly like the never-restarted server.
  2. Crash matrix: for each failpoint site on the snapshot write path
     (write / fsync / rename / dirsync) and each N, rerun the same sequence
     with `fault <site>=abort@N` armed just before the second flush. The
     injected abort (_Exit(42), no flushing of anything) kills the server at
     exactly the Nth hit of that site. The sweep ends when N exceeds the
     number of hits the flush performs (the flush completes).
  3. Recovery check: reboot on the crashed spill dir with no faults. The
     roster must be intact, and every tenant's re-saved snapshot must be
     byte-identical to its state-1 or state-2 reference — and its estimate
     must match the matching state's estimate.

Requires COVSTREAM_FAILPOINTS in the server's environment (set by this
script) so the `fault` wire command is enabled; production servers never
run with it. Usage: python3 tools/crash_smoke.py [path/to/covstream_cli]
"""

import os
import re
import socket
import subprocess
import sys
import tempfile
import time

HOST = "127.0.0.1"
TENANTS = ["t0", "t1", "t2"]
FAMILY = "1,5,17"
SITES = ["snapshot.write", "snapshot.fsync", "snapshot.rename",
         "snapshot.dirsync"]
# Safety cap on the per-site sweep. The flush writes three ~53 KB spill
# files (14 chunks of 4096 each) plus the manifest, so snapshot.write
# exhausts around N=44; the per-file sites (fsync/rename/dirsync) at N=5.
MAX_N = 80


class ServerDied(Exception):
    """EOF mid-request: the injected abort fired."""


class Client:
    def __init__(self, port, deadline=10.0):
        delay = 0.05
        start = time.monotonic()
        while True:
            try:
                self.sock = socket.create_connection((HOST, port), timeout=20)
                return
            except ConnectionRefusedError:
                if time.monotonic() - start > deadline:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        buf = b""
        while b"\n" not in buf:
            block = self.sock.recv(4096)
            if not block:
                raise ServerDied(f"EOF awaiting response to {line!r}")
            buf += block
        return buf.split(b"\n", 1)[0].decode()

    def expect(self, line, prefix):
        response = self.request(line)
        assert response.startswith(prefix), (
            f"request {line!r}: expected {prefix!r}..., got {response!r}")
        return response

    def close(self):
        self.sock.close()


def start_server(cli, spill, failpoints=None):
    """Boots the server on an ephemeral port; returns (process, port)."""
    env = dict(os.environ)
    if failpoints is not None:
        env["COVSTREAM_FAILPOINTS"] = failpoints
    else:
        env.pop("COVSTREAM_FAILPOINTS", None)
    server = subprocess.Popen(
        [cli, "--cmd=serve", "--port=0", "--persist",
         f"--spill-dir={spill}", "--threads=2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    # Persistent mode prints a boot report (and possibly quarantine/sweep
    # log lines) before the serving banner.
    for _ in range(20):
        banner = server.stdout.readline()
        if "fleet serving on" in banner:
            return server, int(re.search(r"127\.0\.0\.1:(\d+)", banner).group(1))
        if not banner:
            break
    raise AssertionError(f"server never printed its banner (last: {banner!r})")


def ingest_batch(client, tenant, batch):
    # Deterministic per (tenant, batch): the reference run and every crash
    # run ingest the identical edge sequence.
    base = TENANTS.index(tenant) * 1000 + batch * 500
    for line_no in range(4):
        pairs = " ".join(
            f"{(base + line_no * 32 + i) * 13 % 48} "
            f"{(base + line_no * 32 + i) * 31 % 4096}"
            for i in range(32))
        client.expect(f"ingest {tenant} {pairs}", "ok ingested 32")


def drive_to_state1(client):
    for tenant in TENANTS:
        client.expect(f"create {tenant} 48 4 0.3", f"ok created {tenant}")
        ingest_batch(client, tenant, batch=0)
    client.expect("flush", "ok flushed ")


def drive_to_state2_unflushed(client):
    for tenant in TENANTS:
        ingest_batch(client, tenant, batch=1)


def save_refs(client, ref_dir, tag):
    paths = {}
    for tenant in TENANTS:
        path = os.path.join(ref_dir, f"{tenant}.{tag}.snap")
        client.expect(f"save {tenant} {path}", "ok saved ")
        paths[tenant] = path
    return paths


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def reference_run(cli, work_dir):
    """Returns (ref1, ref2, est1, est2): per-tenant snapshot bytes and
    estimate lines for the two flushed states."""
    spill = os.path.join(work_dir, "ref_spill")
    refs = os.path.join(work_dir, "refs")
    os.makedirs(refs)
    server, port = start_server(cli, spill)
    try:
        c = Client(port)
        drive_to_state1(c)
        ref1_paths = save_refs(c, refs, "state1")
        est1 = {t: c.expect(f"estimate {t} {FAMILY}", "ok estimate ")
                for t in TENANTS}
        drive_to_state2_unflushed(c)
        c.expect("flush", "ok flushed ")
        ref2_paths = save_refs(c, refs, "state2")
        est2 = {t: c.expect(f"estimate {t} {FAMILY}", "ok estimate ")
                for t in TENANTS}
        c.expect("shutdown", "ok bye")
        c.close()
        assert server.wait(timeout=30) == 0, "reference server exited nonzero"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    # Restart-equivalence: a fleet booted from the spill dir answers exactly
    # like the fleet that was never stopped.
    server, port = start_server(cli, spill)
    try:
        c = Client(port)
        tenants = c.expect("tenants", "ok tenants ")
        for t in TENANTS:
            assert t in tenants, f"tenant {t} lost across restart: {tenants}"
            got = c.expect(f"estimate {t} {FAMILY}", "ok estimate ")
            assert got == est2[t], (
                f"restart changed {t}'s answer: {got!r} != {est2[t]!r}")
        c.expect("shutdown", "ok bye")
        c.close()
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    ref1 = {t: read_bytes(p) for t, p in ref1_paths.items()}
    ref2 = {t: read_bytes(p) for t, p in ref2_paths.items()}
    return ref1, ref2, est1, est2


def crash_run(cli, spill, site, nth):
    """One crash attempt. Returns True if the abort fired (exit 42), False
    if the flush completed before the Nth hit (sweep exhausted)."""
    server, port = start_server(cli, spill, failpoints="")
    crashed = False
    try:
        c = Client(port)
        drive_to_state1(c)
        drive_to_state2_unflushed(c)
        c.expect(f"fault {site}=abort@{nth}", "ok fault armed")
        try:
            c.expect("flush", "ok flushed ")
        except ServerDied:
            crashed = True
        if crashed:
            code = server.wait(timeout=30)
            assert code == 42, (
                f"{site}@{nth}: expected the abort exit code 42, got {code}")
        else:
            c.expect("fault clear", "ok fault cleared")
            c.expect("shutdown", "ok bye")
            c.close()
            assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    return crashed


def check_recovery(cli, spill, work_dir, ref1, ref2, est1, est2, label):
    server, port = start_server(cli, spill)
    try:
        c = Client(port)
        tenants = c.expect("tenants", "ok tenants ")
        for t in TENANTS:
            assert t in tenants, f"{label}: tenant {t} lost: {tenants}"
            resaved = os.path.join(work_dir, "resaved.snap")
            c.expect(f"save {t} {resaved}", "ok saved ")
            got = read_bytes(resaved)
            if got == ref2[t]:
                expected_est = est2[t]
            elif got == ref1[t]:
                expected_est = est1[t]
            else:
                raise AssertionError(
                    f"{label}: tenant {t} recovered to a state that is "
                    f"neither its pre-flush nor post-flush reference "
                    f"({len(got)} bytes) — torn state")
            est = c.expect(f"estimate {t} {FAMILY}", "ok estimate ")
            assert est == expected_est, (
                f"{label}: tenant {t} estimate {est!r} does not match its "
                f"recovered state's reference {expected_est!r}")
        c.expect("shutdown", "ok bye")
        c.close()
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main():
    cli = sys.argv[1] if len(sys.argv) > 1 else "./build/covstream_cli"
    crashes = 0
    with tempfile.TemporaryDirectory(prefix="covstream_crash_") as work_dir:
        ref1, ref2, est1, est2 = reference_run(cli, work_dir)
        for site in SITES:
            exhausted = False
            for nth in range(1, MAX_N + 1):
                spill = os.path.join(work_dir, f"{site}.{nth}")
                if not crash_run(cli, spill, site, nth):
                    # The flush performed fewer than `nth` hits of this
                    # site: every boundary has been crashed. Move on.
                    exhausted = True
                    break
                crashes += 1
                check_recovery(cli, spill, work_dir, ref1, ref2,
                               est1, est2, label=f"{site}@{nth}")
                print(f"  {site}@{nth}: crashed (exit 42), "
                      f"recovered bit-for-bit")
            assert exhausted, (
                f"{site}: still crashing at N={MAX_N}; raise MAX_N or check "
                f"the flush write count")
    assert crashes > 0, "no crash point ever fired — failpoints broken?"
    print(f"crash smoke PASS: {crashes} crash points across {len(SITES)} "
          f"sites, every reboot recovered every tenant to a flushed state")
    return 0


if __name__ == "__main__":
    sys.exit(main())
