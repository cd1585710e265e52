"""Recipe compression: the zlib recipe codec and how the server uses it."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compress
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.compress import compress_recipe, decompress_recipe
from repro.crypto.drbg import DRBG
from repro.crypto.hashing import fingerprint
from repro.errors import IntegrityError
from repro.server.messages import FileManifest, RecipeEntry, ShareMeta, ShareUpload
from repro.server.server import CDStoreServer


def _recipe_blob(unique_fps: int = 30, entries: int = 300) -> bytes:
    rng = DRBG("recipes")
    fps = [rng.random_bytes(32) for _ in range(unique_fps)]
    return b"".join(
        RecipeEntry(fps[i % unique_fps], 8192).pack() for i in range(entries)
    )


def _server_with_file(entries: int = 200) -> CDStoreServer:
    """A server holding one file whose recipe repeats one share."""
    server = CDStoreServer(0, CloudProvider("c", Link(10), Link(10)))
    data = b"share-payload" * 50
    upload = ShareUpload(
        meta=ShareMeta(fingerprint(data, "client"), len(data), 0, len(data)),
        data=data,
    )
    server.upload_shares("alice", [upload])
    metas = [
        ShareMeta(upload.meta.fingerprint, len(data), i, len(data))
        for i in range(entries)
    ]
    server.finalize_file(
        "alice", FileManifest(b"k", b"p", entries * len(data), entries), metas
    )
    server.flush()
    return server


class TestComposedCodec:
    @settings(max_examples=30)
    @given(st.binary(min_size=0, max_size=1500))
    def test_roundtrip(self, data):
        """The framed zlib codec inverts itself on any bytes, not just recipes."""
        assert decompress_recipe(compress_recipe(data)) == data


class TestRecipeCompression:
    def test_roundtrip(self):
        blob = _recipe_blob()
        assert decompress_recipe(compress_recipe(blob)) == blob

    def test_ratio_on_redundant_recipes(self):
        """Deduplicated backups repeat fingerprints across recipes; the
        paper cites recipe compression [41] as a real saving."""
        blob = _recipe_blob()
        compressed = compress_recipe(blob)
        assert len(compressed) < len(blob) * 0.4

    @pytest.mark.parametrize("method", [0, 1, 2, 4, 255])
    def test_unknown_method_raises(self, method):
        """Method bytes 0-2 of the earlier coder are rejected, not decoded."""
        body = zlib.compress(_recipe_blob(entries=3))
        with pytest.raises(IntegrityError):
            decompress_recipe(b"RCPZ" + bytes([method]) + body)

    @pytest.mark.parametrize(
        "blob",
        [b"", b"RCP", b"RCPZ", _recipe_blob(entries=3)],
        ids=["empty", "short", "magic-only", "raw-recipe"],
    )
    def test_missing_header_raises(self, blob):
        with pytest.raises(IntegrityError):
            decompress_recipe(blob)

    def test_corrupt_body_raises(self):
        blob = compress_recipe(_recipe_blob())
        with pytest.raises(IntegrityError):
            decompress_recipe(blob[:-5])

    def test_server_integration(self):
        """The server stores recipes compressed and restores them intact."""
        server = _server_with_file(entries=200)
        file_entry = server.get_file_entry("alice", b"k")
        _, stored = server.containers.read_entry(file_entry.recipe_ref)
        recipe = server.get_recipe("alice", b"k")
        raw = b"".join(entry.pack() for entry in recipe)
        assert len(stored) < len(raw)
        server_fp = fingerprint(b"share-payload" * 50, "server")
        assert [entry.fingerprint for entry in recipe] == [server_fp] * 200


def test_server_resolves_codec_per_call(monkeypatch):
    """The server looks the codec up on ``repro.compress`` at call time, so
    swapping the module attributes (as the perfbench ledger does) reaches
    every recipe write and read."""
    calls = {"compress": 0, "decompress": 0}
    real_compress, real_decompress = compress_recipe, decompress_recipe

    def counting_compress(blob):
        calls["compress"] += 1
        return real_compress(blob)

    def counting_decompress(blob):
        calls["decompress"] += 1
        return real_decompress(blob)

    monkeypatch.setattr(repro.compress, "compress_recipe", counting_compress)
    monkeypatch.setattr(repro.compress, "decompress_recipe", counting_decompress)

    server = _server_with_file(entries=3)
    assert calls == {"compress": 1, "decompress": 0}
    recipe = server.get_recipe("alice", b"k")
    assert calls == {"compress": 1, "decompress": 1}
    server.rebuild_recipe("alice", b"k", recipe)
    assert calls["compress"] == 2
    assert server.get_recipe("alice", b"k") == recipe
    assert calls["decompress"] == 2
