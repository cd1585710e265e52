"""Self-checks of the benchmark (run with ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from cluster import ServeCluster  # noqa: E402
from inputs import GENERATORS  # noqa: E402

DETERMINISTIC = (
    "chunking.chunks",
    "index.get.calls",
    "index.put.calls",
    "storage.append.calls",
    "storage.read_entry.calls",
    "storage.backend_reads",
)


def _fingerprint(workload: str, seed: int) -> dict:
    sessions = GENERATORS[workload](seed)
    rnd = run.inprocess_round(sessions, run.RESTORE_PASSES[workload], traced=True)
    assert rnd.failed == 0
    layers = run.layer_metrics(rnd)
    return {
        "wire_bytes_per_logical_byte": rnd.wire_bytes / rnd.backup_bytes,
        "stored_bytes_per_logical_byte": rnd.stored_bytes / rnd.backup_bytes,
        **{name: layers[name] for name in DETERMINISTIC},
    }


@pytest.mark.parametrize("workload", ["unique", "versions"])
def test_fixed_seed_repeats_exactly(workload):
    first = _fingerprint(workload, seed=7)
    assert first == _fingerprint(workload, seed=7)
    assert all(first[name] > 0 for name in DETERMINISTIC if name != "storage.backend_reads")


def test_inputs_depend_only_on_seed():
    for workload, generate in GENERATORS.items():
        a, b, c = generate(3), generate(3), generate(4)
        assert a == b, workload
        assert a != c, workload


def test_cluster_is_reaped_when_a_run_fails():
    cluster = ServeCluster(ROOT / ".perfbench" / "tmp", ROOT / "src", 4, 3, "t")
    with pytest.raises(RuntimeError, match="boom"):
        with cluster:
            procs, ports, tmp = list(cluster.procs), list(cluster.ports), cluster.tmp
            assert tmp.is_dir() and all(p.poll() is None for p in procs)
            raise RuntimeError("boom")
    assert all(p.returncode is not None for p in procs)
    assert not tmp.exists()
    for port in ports:
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unique",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
