"""File-recipe compression (§4.7 "open issues").

The paper defers compression to future work: "Compression also effectively
reduces storage space of both data [58] and metadata (e.g., file recipes
[41])."  Every CDStore server compresses the file recipes it stores with
stdlib zlib.  Shares are left alone: they are AONT output, close to
uniformly random, and do not compress.  Recipes do, because they are runs
of 36-byte entries whose fingerprints repeat within and across versions.

Blob format: ``RCPZ`` magic | method byte | body.  The one method is 3,
zlib at its default level; other method bytes, including 0-2 of an
earlier in-repo coder, are rejected.
"""

from __future__ import annotations

import zlib

from repro.errors import IntegrityError

__all__ = ["compress_recipe", "decompress_recipe"]

_RECIPE_MAGIC = b"RCPZ"
_METHOD_ZLIB = 3


def compress_recipe(recipe_blob: bytes) -> bytes:
    """Compress a packed file recipe into a self-describing blob."""
    return _RECIPE_MAGIC + bytes([_METHOD_ZLIB]) + zlib.compress(recipe_blob)


def decompress_recipe(blob: bytes) -> bytes:
    """Invert :func:`compress_recipe`.

    Raises :class:`~repro.errors.IntegrityError` for a blob that is not a
    zlib recipe or whose body does not inflate.
    """
    header = len(_RECIPE_MAGIC) + 1
    if not blob.startswith(_RECIPE_MAGIC) or len(blob) < header:
        raise IntegrityError("recipe blob has no RCPZ header")
    method = blob[header - 1]
    if method != _METHOD_ZLIB:
        raise IntegrityError(f"unknown recipe compression method {method}")
    try:
        return zlib.decompress(blob[header:])
    except zlib.error as exc:
        raise IntegrityError(f"corrupt recipe body: {exc}") from exc
