"""Robustness fuzzing: corrupt/hostile inputs raise clean library errors.

Every deserialisation path must fail with a :class:`ReproError` subclass
(or hand back wrong-but-typed data caught by integrity layers above) —
never an unhandled ``struct.error``/``IndexError``/``UnicodeDecodeError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError

pytestmark = pytest.mark.slow  # hypothesis-driven fuzz sweep

# Acceptable outcomes for fuzzed deserialisation: a clean library error, or
# a successfully-parsed (garbage) value — never a raw Python crash.
_CLEAN = (ReproError,)


def _fuzz(func, blob):
    try:
        func(blob)
    except _CLEAN:
        pass
    except (KeyError, ValueError) as exc:
        # NotFoundError/ParameterError subclass these; anything else leaks.
        assert isinstance(exc, ReproError), f"leaked {type(exc).__name__}: {exc}"


class TestDeserialisationFuzz:
    @settings(max_examples=80)
    @given(st.binary(max_size=200))
    def test_container_deserialize(self, blob):
        from repro.storage.container import Container

        _fuzz(Container.deserialize, blob)

    @settings(max_examples=80)
    @given(st.binary(max_size=200))
    def test_container_ref_unpack(self, blob):
        from repro.storage.container import ContainerRef

        _fuzz(ContainerRef.unpack, blob)

    @settings(max_examples=80)
    @given(st.binary(max_size=200))
    def test_share_meta_unpack(self, blob):
        from repro.server.messages import ShareMeta

        _fuzz(ShareMeta.unpack, blob)

    @settings(max_examples=80)
    @given(st.binary(max_size=200))
    def test_file_manifest_unpack(self, blob):
        from repro.server.messages import FileManifest

        _fuzz(FileManifest.unpack, blob)

    @settings(max_examples=80)
    @given(st.binary(max_size=200))
    def test_share_entry_unpack(self, blob):
        from repro.server.index import ShareEntry

        _fuzz(ShareEntry.unpack, blob)

    @settings(max_examples=80)
    @given(st.binary(max_size=200))
    def test_file_entry_unpack(self, blob):
        from repro.server.index import FileEntry

        _fuzz(FileEntry.unpack, blob)

    @settings(max_examples=80)
    @given(st.binary(max_size=200))
    def test_bloom_from_bytes(self, blob):
        from repro.lsm.bloom import BloomFilter

        _fuzz(BloomFilter.from_bytes, blob)

    @settings(max_examples=60)
    @given(st.binary(max_size=300))
    def test_archive_parse(self, blob):
        import tempfile

        from repro.archive import unpack_tree

        with tempfile.TemporaryDirectory() as dest:
            _fuzz(lambda b: unpack_tree(b, dest), blob)

    @settings(max_examples=60)
    @given(st.binary(max_size=300))
    def test_composed_decompress(self, blob):
        from repro.compress import decompress_recipe

        _fuzz(decompress_recipe, blob)

    @settings(max_examples=80)
    @given(
        st.one_of(st.just(3), st.integers(0, 255)),
        st.one_of(
            st.binary(max_size=300),
            # A valid zlib header, so the body reaches the deflate decoder.
            st.binary(max_size=300).map(lambda b: b"\x78\x9c" + b),
        ),
    )
    def test_decompress_recipe(self, method, body):
        from repro.compress import decompress_recipe

        # Accept only ReproError: any other exception, zlib.error included,
        # fails the test.
        try:
            decompress_recipe(b"RCPZ" + bytes([method]) + body)
        except ReproError:
            pass


class TestMutationFuzz:
    """Valid structures with injected bit flips must be detected."""

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(0, 7))
    def test_caont_rs_share_mutations_never_return_wrong_data(self, pos, bit):
        from repro.core.caont_rs import CAONTRS
        from repro.errors import IntegrityError

        codec = CAONTRS(4, 3)
        secret = b"precious backup bytes" * 40
        shares = codec.split(secret)
        mutated = bytearray(shares.shares[0])
        mutated[pos % len(mutated)] ^= 1 << bit
        try:
            out = codec.recover(
                {0: bytes(mutated), 1: shares.shares[1], 2: shares.shares[2]},
                len(secret),
            )
        except IntegrityError:
            return  # detected, as designed
        # A mutation that flips padding bytes beyond the secret can decode
        # cleanly — but then the secret must be intact.
        assert out == secret

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_wal_mutations_never_yield_bad_records(self, pos):
        import tempfile
        from pathlib import Path

        from repro.lsm.wal import WriteAheadLog

        tmp = tempfile.mkdtemp()
        path = Path(tmp) / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"key-one", b"value-one")
            wal.append_put(b"key-two", b"value-two")
        blob = bytearray(path.read_bytes())
        blob[pos % len(blob)] ^= 0xFF
        path.write_bytes(bytes(blob))
        # Replay must yield only records whose CRC verifies — a prefix of
        # the original sequence.
        records = list(WriteAheadLog(path).replay())
        expected = [(1, b"key-one", b"value-one"), (1, b"key-two", b"value-two")]
        assert records == expected[: len(records)]
