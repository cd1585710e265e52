"""Seeded inputs for the benchmark workloads.

All bytes come from NumPy's PCG64 generator seeded with ``--seed`` and are
materialised before anything is timed, so the program under test only
ever receives finished ``bytes`` objects.  (``repro.crypto.drbg.DRBG`` is
deliberately not used: it needs minutes for a few MiB.)

Sizes are fixed byte counts, not derived from time, so a seed always
yields the same inputs:

* ``unique``: 2 sessions x 5 files (64 KiB .. 5 MiB, i.e. on both sides
  of the 4 MiB upload batch) = 16.0 MiB logical per round, all random.
  That is ~5.5 MiB of shares per server: it fits the 32 MiB per-server
  container cache, so restores are served from it.
* ``versions``: one 4 MiB base image; 2 users each back up 3 versions
  (version 0 is the shared base, each later version rewrites 24 random
  4 KiB regions of the previous one) = 24 MiB logical per round, about a
  quarter of it unique after two-stage dedup.  Stored shares per server
  stay far below the 32 MiB container cache and the 8 MiB LSM block
  cache; ``versions-remote`` still restores cold because its servers are
  restarted before the restore phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KIB = 1 << 10
MIB = 1 << 20

UNIQUE_SESSIONS = 2
UNIQUE_FILE_SIZES = (64 * KIB, 192 * KIB, 768 * KIB, 2 * MIB, 5 * MIB)

VERSIONS_BASE_BYTES = 4 * MIB
VERSIONS_USERS = 2
VERSIONS_PER_USER = 3
VERSIONS_REWRITES = 24
VERSIONS_REWRITE_BYTES = 4 * KIB


@dataclass(frozen=True)
class Session:
    """One backup session: a user uploads ``files`` and then flushes once."""

    user: str
    files: tuple[tuple[str, bytes], ...]


def unique_sessions(seed: int) -> list[Session]:
    """One user, sessions of all-new files of mixed sizes."""
    rng = np.random.default_rng([seed, 1])
    return [
        Session(
            user="user-0",
            files=tuple(
                (f"/session-{s}/file-{i}-{size}", rng.bytes(size))
                for i, size in enumerate(UNIQUE_FILE_SIZES)
            ),
        )
        for s in range(UNIQUE_SESSIONS)
    ]


def versions_sessions(seed: int) -> list[Session]:
    """Users back up successive versions of one shared base image.

    Sessions are ordered version by version (every user's version ``v``
    before anyone's ``v + 1``), one session per user and version.
    """
    rng = np.random.default_rng([seed, 2])
    base = rng.bytes(VERSIONS_BASE_BYTES)
    history: list[list[bytes]] = []
    for u in range(VERSIONS_USERS):
        user_rng = np.random.default_rng([seed, 2, u])
        image = bytearray(base)
        versions = [base]
        for _ in range(1, VERSIONS_PER_USER):
            offsets = user_rng.integers(
                0, len(image) - VERSIONS_REWRITE_BYTES, VERSIONS_REWRITES
            )
            for offset in offsets.tolist():
                image[offset : offset + VERSIONS_REWRITE_BYTES] = user_rng.bytes(
                    VERSIONS_REWRITE_BYTES
                )
            versions.append(bytes(image))
        history.append(versions)
    return [
        Session(user=f"user-{u}", files=((f"/image/v{v}", history[u][v]),))
        for v in range(VERSIONS_PER_USER)
        for u in range(VERSIONS_USERS)
    ]


GENERATORS = {
    "unique": unique_sessions,
    "versions": versions_sessions,
    "versions-remote": versions_sessions,
}
