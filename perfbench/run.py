"""Measured backup/restore benchmark for the CDStore reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload unique --seed 1 --seconds 30 --trace 0

Every workload is a closed loop: one driver thread, one operation
outstanding, against a system built with the library defaults
(``CDStoreSystem(n=4, k=3)`` plus a salt and, for ``versions-remote``,
the cloud addresses).  A run repeats rounds until ``--seconds`` have
passed; each round builds a fresh system (``setup_s``), backs up the
seeded sessions (``upload`` ... ``flush`` per session), restores every
file and compares it byte for byte with its input.  End-to-end metrics
are medians over the untraced rounds.

``--trace 1`` alternates untraced and traced rounds.  Traced rounds
record the per-layer ledger (see ``ledger.py``) and print where one
backup and one restore second went.  The last line of standard output
is the JSON result; the process exits 1 if any operation failed or any
restored byte differed, and exits non-zero without a result if a round
cannot be set up at all (no sources, a server that never listens).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from cluster import ServeCluster
from inputs import GENERATORS
from ledger import (
    BACKUP_ROOTS,
    RESTORE_ROOTS,
    SERVER_METHODS,
    Ledger,
    instrument_client,
    instrument_compress,
    instrument_server_internals,
    write_spans,
)

N, K = 4, 3
SALT = "perfbench"
MB = 1e6
#: Restore passes per round, sized so the restore phase lasts long enough
#: to time.  ``versions-remote``'s first pass starts cold (servers restarted).
RESTORE_PASSES = {"unique": 10, "versions": 3, "versions-remote": 2}
WORKLOADS = tuple(RESTORE_PASSES)
INPROCESS_SETUPS = 15

END_TO_END = (
    ("backup_mbps", "MB/s"),
    ("restore_mbps", "MB/s"),
    ("wire_bytes_per_logical_byte", "ratio"),
    ("stored_bytes_per_logical_byte", "ratio"),
    ("cpu_s_per_mb", "s/MB"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("success_rate", "ratio"),
)

#: Wire frame of each remotely timed server method.
NET_FRAMES = {
    "UPLOAD_SHARES": "upload_shares",
    "QUERY_DUPLICATES": "query_duplicates",
    "FINALIZE_FILE": "finalize_file",
    "FETCH_SHARES": "fetch_shares",
    "GET_RECIPE": "get_recipe",
}
LSM_COUNTERS = {
    "lsm_wal_appends_total": "lsm.wal_appends",
    "lsm_wal_syncs_total": "lsm.wal_syncs",
    "lsm_flushes_total": "lsm.flushes",
    "lsm_compactions_total": "lsm.compactions",
}

PER_LAYER = (
    ("client.upload.self_s", "s"),
    ("client.download.self_s", "s"),
    ("chunking.chunk_bytes.busy_s", "s"),
    ("chunking.chunks", "count"),
    ("chunking.mean_chunk_bytes", "B"),
    ("core.encode_batch.busy_s", "s"),
    ("core.encode_batch.secrets", "count"),
    ("core.decode_batch.busy_s", "s"),
    ("core.decode_batch.secrets", "count"),
    *(
        (f"server.{method}.{kind}", unit)
        for method in SERVER_METHODS
        for kind, unit in (("calls", "count"), ("busy_s", "s"))
    ),
    ("server.upload_shares.bytes", "B"),
    ("server.fetch_shares.bytes", "B"),
    ("server.query_duplicates.hit_ratio", "ratio"),
    ("compress.compress_recipe.calls", "count"),
    ("compress.compress_recipe.busy_s", "s"),
    ("compress.compress_recipe.bytes_in", "B"),
    ("compress.compress_recipe.bytes_out", "B"),
    ("compress.decompress_recipe.busy_s", "s"),
    ("index.get.calls", "count"),
    ("index.put.calls", "count"),
    ("index.get.busy_s", "s"),
    ("index.put.busy_s", "s"),
    ("index.ops_per_share", "ratio"),
    ("storage.append.calls", "count"),
    ("storage.append.busy_s", "s"),
    ("storage.append.bytes", "B"),
    ("storage.read_entry.calls", "count"),
    ("storage.read_entry.busy_s", "s"),
    ("storage.backend_reads", "count"),
    ("storage.cache_hit_ratio", "ratio"),
    *(
        (f"net.{frame}.{kind}", "s")
        for frame in NET_FRAMES
        for kind in ("dispatch_s", "wire_s")
    ),
    ("server.commit.journal_fsync_s", "s"),
    ("server.commit.index_sync_s", "s"),
    *((metric, "count") for metric in LSM_COUNTERS.values()),
    ("server.restart_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_backup", "ratio"),
    ("trace.coverage_restore", "ratio"),
)


def environment() -> dict:
    """Host facts that make numbers from different machines incomparable."""
    import numpy

    try:
        from cryptography.hazmat.primitives.ciphers import Cipher  # noqa: F401

        aes = True
    except ImportError:
        aes = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography_aes": aes,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
@dataclass
class Round:
    traced: bool
    setup_s: float = 0.0
    backup_s: float = 0.0
    restore_s: float = 0.0
    backup_bytes: int = 0
    restore_bytes: int = 0
    wire_bytes: int = 0
    stored_bytes: int = 0
    cpu_s: float = 0.0
    restart_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    ledger: object = None
    #: Server-side registry deltas (``versions-remote`` traced rounds).
    server: dict = field(default_factory=dict)


class Driver:
    """Issues the ops of one round and counts failures."""

    def __init__(self, rnd: Round) -> None:
        self.rnd = rnd

    def op(self, name: str, fn, *args):
        self.rnd.attempted += 1
        try:
            if self.rnd.ledger is None:
                return fn(*args)
            with self.rnd.ledger.root(name):
                return fn(*args)
        except Exception:
            self.rnd.failed += 1
            print(f"# {name}{args[:1]} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def backup(self, clients, sessions) -> None:
        for session in sessions:
            client = clients[session.user]
            start = time.perf_counter()
            for path, data in session.files:
                receipt = self.op("client.upload", client.upload, path, data)
                if receipt is not None:
                    self.rnd.wire_bytes += receipt.transferred_share_bytes
                self.rnd.backup_bytes += len(data)
            self.op("client.flush", client.flush)
            self.rnd.backup_s += time.perf_counter() - start

    def restore(self, clients, sessions, passes: int) -> None:
        start = time.perf_counter()
        for _ in range(passes):
            for session in sessions:
                client = clients[session.user]
                for path, data in session.files:
                    restored = self.op("client.download", client.download, path)
                    if restored is not None and restored != data:
                        self.rnd.failed += 1
                        print(f"# restore of {path} differs from its input",
                              file=sys.stderr)
                    self.rnd.restore_bytes += len(data)
        self.rnd.restore_s = time.perf_counter() - start


def inprocess_round(sessions, passes: int, traced: bool) -> Round:
    from repro.system.cdstore import CDStoreSystem

    rnd = Round(traced, ledger=Ledger() if traced else None)
    driver = Driver(rnd)
    # One in-process build takes well under a millisecond, so the round's
    # set-up time is the median of several builds; the last one is used.
    setups = []
    for build in range(INPROCESS_SETUPS):
        start = time.perf_counter()
        system = CDStoreSystem(n=N, k=K, salt=SALT.encode())
        clients = {s.user: system.client(s.user) for s in sessions}
        setups.append(time.perf_counter() - start)
        if build < INPROCESS_SETUPS - 1:
            system.close()
    rnd.setup_s = statistics.median(setups)
    try:
        if traced:
            for server in system.servers:
                instrument_server_internals(server, rnd.ledger)
            for client in clients.values():
                instrument_client(client, rnd.ledger)
        with instrument_compress(rnd.ledger) if traced else nullcontext():
            cpu = time.process_time()
            driver.backup(clients, sessions)
            driver.restore(clients, sessions, passes)
            rnd.cpu_s = time.process_time() - cpu
        rnd.stored_bytes = system.stored_bytes()
    finally:
        system.close()
    return rnd


def server_totals(system) -> dict[str, float]:
    """Sum the serving processes' registries into per-layer names."""
    out: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0.0) + value

    for server in system.servers:
        snapshot = server.obs_stats()
        histograms = snapshot["histograms"]
        for labels, hist in histograms.get("net_dispatch_seconds", {}).items():
            frame = dict(pair.split("=", 1) for pair in labels.split(","))["frame"]
            add(f"net.{frame}.dispatch_s", hist["sum"])
        for labels, hist in histograms.get("server_commit_seconds", {}).items():
            stage = dict(pair.split("=", 1) for pair in labels.split(","))["stage"]
            add(f"server.commit.{stage}_s", hist["sum"])
        for counter, name in LSM_COUNTERS.items():
            add(name, sum(snapshot["counters"].get(counter, {}).values()))
    return out


def _delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def _reconnect(system) -> None:
    """Re-dial every proxy (the first ping may hit the dead socket)."""
    for server in system.servers:
        if not any(server.ping() for _ in range(5)):
            raise RuntimeError(f"cloud {server.server_id} does not answer")


def remote_round(sessions, passes: int, traced: bool, workdir: Path, src: Path) -> Round:
    from repro.system.cdstore import CDStoreSystem

    rnd = Round(traced, ledger=Ledger() if traced else None)
    driver = Driver(rnd)
    start = time.perf_counter()
    with ServeCluster(workdir, src, N, K, SALT) as cluster:
        system = CDStoreSystem(n=N, k=K, salt=SALT.encode(), clouds=cluster.specs)
        try:
            clients = {s.user: system.client(s.user) for s in sessions}
            _reconnect(system)
            rnd.setup_s = time.perf_counter() - start
            if traced:
                for client in clients.values():
                    instrument_client(client, rnd.ledger)
                before = server_totals(system)
            cpu, served = time.process_time(), cluster.cpu_seconds()
            driver.backup(clients, sessions)
            rnd.cpu_s = time.process_time() - cpu + cluster.cpu_seconds() - served
            if traced:
                rnd.server = _delta(server_totals(system), before)
            rnd.restart_s = cluster.restart()
            _reconnect(system)
            if traced:
                before = server_totals(system)
            cpu, served = time.process_time(), cluster.cpu_seconds()
            driver.restore(clients, sessions, passes)
            rnd.cpu_s += time.process_time() - cpu + cluster.cpu_seconds() - served
            if traced:
                for name, value in _delta(server_totals(system), before).items():
                    rnd.server[name] = rnd.server.get(name, 0.0) + value
            rnd.stored_bytes = system.stored_bytes()
        finally:
            system.close()
    return rnd


def warm_up() -> None:
    """Finish the library's lazy set-up (imports, tables) before timing."""
    from repro.system.cdstore import CDStoreSystem

    data = os.urandom(256 << 10)
    with CDStoreSystem(n=N, k=K, salt=b"warm-up") as system:
        client = system.client("warm-up")
        client.upload("/warm-up", data)
        client.flush()
        if client.download("/warm-up") != data:
            raise RuntimeError("warm-up restore differs from its input")


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------
def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    plain = [r for r in rounds if not r.traced]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "backup_mbps": _median(r.backup_bytes / r.backup_s / MB for r in plain),
        "restore_mbps": _median(r.restore_bytes / r.restore_s / MB for r in plain),
        "wire_bytes_per_logical_byte": _median(
            r.wire_bytes / r.backup_bytes for r in plain
        ),
        "stored_bytes_per_logical_byte": _median(
            r.stored_bytes / r.backup_bytes for r in plain
        ),
        "cpu_s_per_mb": _median(
            r.cpu_s / ((r.backup_bytes + r.restore_bytes) / MB) for r in plain
        ),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": _median(r.setup_s for r in plain),
        "success_rate": 1.0 - failed / attempted,
    }


def layer_metrics(rnd: Round) -> dict[str, float]:
    ledger = rnd.ledger
    busy, own, counts = ledger.busy(), ledger.self_times(), ledger.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "client.upload.self_s": own.get("client.upload", 0.0),
        "client.download.self_s": own.get("client.download", 0.0),
        "chunking.chunk_bytes.busy_s": busy.get("chunking.chunk_bytes", 0.0),
        "chunking.chunks": counts["chunking.chunks"],
        "chunking.mean_chunk_bytes": ratio(
            counts["chunking.bytes"], counts["chunking.chunks"]
        ),
        "server.upload_shares.bytes": counts["server.upload_shares.bytes"],
        "server.fetch_shares.bytes": counts["server.fetch_shares.bytes"],
        "server.query_duplicates.hit_ratio": ratio(
            counts["server.query_duplicates.hits"],
            counts["server.query_duplicates.queried"],
        ),
        "compress.compress_recipe.bytes_in": counts["compress.compress_recipe.bytes_in"],
        "compress.compress_recipe.bytes_out": counts["compress.compress_recipe.bytes_out"],
        # Backup-phase index operations per share backed up (chunks x n).
        "index.ops_per_share": ratio(
            ledger.count(("index.get", "index.put"), BACKUP_ROOTS),
            counts["chunking.chunks"] * N,
        ),
        "storage.append.bytes": counts["storage.append.bytes"],
        "storage.read_entry.calls": counts["storage.read_entry.calls"],
        "storage.backend_reads": counts["storage.backend_reads"],
        "storage.cache_hit_ratio": ratio(
            counts["storage.read_entry.calls"] - counts["storage.read_entry.misses"],
            counts["storage.read_entry.calls"],
        ),
        "server.restart_s": rnd.restart_s,
        "trace.coverage_backup": ledger.coverage(BACKUP_ROOTS),
        "trace.coverage_restore": ledger.coverage(RESTORE_ROOTS),
    }
    for span in ("core.encode_batch", "core.decode_batch"):
        m[f"{span}.busy_s"] = busy.get(span, 0.0)
        m[f"{span}.secrets"] = counts[f"{span}.secrets"]
    for span in (
        *(f"server.{method}" for method in SERVER_METHODS),
        "compress.compress_recipe",
        "index.get",
        "index.put",
        "storage.append",
    ):
        m[f"{span}.calls"] = counts[f"{span}.calls"]
        m[f"{span}.busy_s"] = busy.get(span, 0.0)
    m["compress.decompress_recipe.busy_s"] = busy.get("compress.decompress_recipe", 0.0)
    m["storage.read_entry.busy_s"] = busy.get("storage.read_entry", 0.0)
    for frame, method in NET_FRAMES.items():
        dispatch = rnd.server.get(f"net.{frame}.dispatch_s", 0.0)
        m[f"net.{frame}.dispatch_s"] = dispatch
        m[f"net.{frame}.wire_s"] = (
            busy.get(f"server.{method}", 0.0) - dispatch if rnd.server else 0.0
        )
    for name in (
        "server.commit.journal_fsync_s",
        "server.commit.index_sync_s",
        *LSM_COUNTERS.values(),
    ):
        m[name] = rnd.server.get(name, 0.0)
    return m


def per_layer(rounds: list[Round]) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    per_round = [layer_metrics(r) for r in traced]
    out = {
        name: _median(m[name] for m in per_round)
        for name, _ in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    traced_mbps = _median(r.backup_bytes / r.backup_s for r in traced)
    plain_mbps = _median(r.backup_bytes / r.backup_s for r in rounds if not r.traced)
    out["trace.overhead_ratio"] = traced_mbps / plain_mbps
    return out


def where_time_went(rounds: list[Round]) -> list[str]:
    """Self seconds per layer span for one backup and one restore second."""
    traced = [r for r in rounds if r.traced]
    lines = []
    for phase, roots, wall in (
        ("backup", BACKUP_ROOTS, sum(r.backup_s for r in traced)),
        ("restore", RESTORE_ROOTS, sum(r.restore_s for r in traced)),
    ):
        totals: dict[str, float] = {}
        for rnd in traced:
            for name, seconds in rnd.ledger.self_times(roots).items():
                if name not in roots:
                    totals[name] = totals.get(name, 0.0) + seconds
        lines.append(f"where one {phase} second went ({wall:.3f} s traced):")
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<34} {seconds / wall:8.4f} s")
        rest = wall - sum(totals.values())
        lines.append(f"  {'unattributed (client self, loop)':<34} {rest / wall:8.4f} s")
    return lines


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> list[Round]:
    """Run rounds of ``workload`` until ``seconds`` have passed."""
    sessions = GENERATORS[workload](seed)
    passes = RESTORE_PASSES[workload]
    workdir = root / ".perfbench" / "tmp"
    warm_up()

    def one(traced: bool) -> Round:
        if workload == "versions-remote":
            return remote_round(sessions, passes, traced, workdir, root / "src")
        return inprocess_round(sessions, passes, traced)

    # Whole rounds only: stop once another one would end nearer past the
    # deadline than the run now ends before it.
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            rounds.append(one(traced))
        now = time.perf_counter()
        if now - start + (now - lap) / 2 >= seconds:
            return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no CDStore sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("repro")
    if spec is None or Path(spec.origin).resolve() != (src / "repro" / "__init__.py").resolve():
        print(f"error: repro does not import from {src}", file=sys.stderr)
        return 2
    # Let `finally` blocks reap the serving processes on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    rounds = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    e2e = end_to_end(rounds)
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds "
          f"({sum(not r.traced for r in rounds)} untraced), "
          f"{attempted} ops, error_rate={failed / attempted:.6f}")
    for number, r in enumerate(rounds):
        print(f"#   round {number}{' traced' if r.traced else ''}: "
              f"setup {r.setup_s:.4f} s, backup {r.backup_s:.3f} s "
              f"({r.backup_bytes / r.backup_s / MB:.3f} MB/s), restore {r.restore_s:.3f} s "
              f"({r.restore_bytes / r.restore_s / MB:.3f} MB/s), cpu {r.cpu_s:.3f} s")
    for name, unit in END_TO_END:
        print(f"#   {name:<32} {e2e[name]:14.6f} {unit}")
    units = dict(END_TO_END)
    chosen = e2e
    if args.trace:
        chosen = per_layer(rounds)
        units = dict(PER_LAYER)
        for line in where_time_went(rounds):
            print("# " + line)
        for name, unit in PER_LAYER:
            print(f"#   {name:<36} {chosen[name]:16.6f} {unit}")
        write_spans(
            root / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.tsv.gz",
            [r.ledger for r in rounds if r.traced],
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in chosen.items()
        },
    }
    out = root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "end_to_end": e2e, **result}, indent=1, sort_keys=True)
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
