"""Per-layer ledger, timed from outside the program.

Traced rounds replace the objects the benchmark hands to or reads from
the program with thin proxies (and swap two module functions) that
record a span around every call into a layer's public surface, plus
counts at the same boundaries.  Nothing under ``src/`` is edited.

Spans are ``(name, start, end, parent, op)`` tuples kept in memory and
written out when the run ends.  The driver runs one operation at a time
on one thread and the client's default ``threads=1`` makes every layer
call on that thread, so a single stack gives each span its parent and
every span belongs to the op in flight.
"""

from __future__ import annotations

import gzip
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Root span names: one per client operation the driver issues.
BACKUP_ROOTS = ("client.upload", "client.flush")
RESTORE_ROOTS = ("client.download",)

SERVER_METHODS = (
    "query_duplicates",
    "upload_shares",
    "finalize_file",
    "flush",
    "get_file_entry",
    "get_recipe",
    "fetch_shares",
)


class Ledger:
    """Spans and counts of one traced round."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            # Spans outside any client op (end-of-round bookkeeping) get op 0.
            op = self._op if parent >= 0 else 0
            self.spans[index] = (name, start, perf_counter(), parent, op)
            self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A root span: one client operation, with a fresh op id."""
        self._op += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, perf_counter(), -1, self._op)
            self._stack.pop()

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def _ops(self, roots: tuple[str, ...]) -> set[int]:
        return {span[4] for span in self.spans if span[0] in roots and span[3] < 0}

    def busy(self) -> dict[str, float]:
        """Total span time per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self, roots: tuple[str, ...] | None = None) -> dict[str, float]:
        """Per name: span time not covered by the span's direct children.

        With ``roots``, only spans of the ops whose root span is named in it.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops = None if roots is None else self._ops(roots)
        out: dict[str, float] = {}
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if ops is None or op in ops:
                out[name] = out.get(name, 0.0) + (end - start) - child[index]
        return out

    def count(self, names: tuple[str, ...], roots: tuple[str, ...]) -> int:
        """Spans named in ``names`` within the ops whose root is in ``roots``."""
        ops = self._ops(roots)
        return sum(1 for span in self.spans if span[0] in names and span[4] in ops)

    def coverage(self, roots: tuple[str, ...]) -> float:
        """Share of root wall time covered by named child spans."""
        root_ids = {i for i, span in enumerate(self.spans) if span[0] in roots}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in root_ids)
        covered = sum(
            end - start
            for _, start, end, parent, _ in self.spans
            if parent in root_ids
        )
        return covered / total if total else 0.0


def write_spans(path: Path, rounds: list[Ledger]) -> None:
    """Write every traced round's spans as gzipped TSV."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("round\top\tname\tstart\tend\tparent\n")
        for number, ledger in enumerate(rounds):
            for name, start, end, parent, op in ledger.spans:
                out.write(f"{number}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# ----------------------------------------------------------------------
# proxies
# ----------------------------------------------------------------------
class Proxy:
    """Delegates to ``inner``; methods passed to :meth:`timed` run under spans."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def timed(self, ledger: Ledger, span: str, method: str, count=None) -> None:
        """Time ``inner.method`` as ``span``; ``count(args, result)`` adds counts."""
        fn = getattr(self._inner, method)

        def wrapper(*args, **kwargs):
            ledger.counts[span + ".calls"] += 1
            result = ledger.call(span, fn, *args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        setattr(self, method, wrapper)


class _TimedAck:
    """A pipelined upload ack whose wait is charged to ``server.upload_shares``."""

    def __init__(self, ledger: Ledger, ack) -> None:
        self._ledger = ledger
        self._ack = ack

    def result(self):
        return self._ledger.call("server.upload_shares", self._ack.result)


def _instrument_server(server, ledger: Ledger) -> Proxy:
    counts = ledger.counts
    proxy = Proxy(server)

    def count_query(args, known):
        counts["server.query_duplicates.queried"] += len(args[1])
        counts["server.query_duplicates.hits"] += sum(known)

    def count_upload(args, _):
        counts["server.upload_shares.bytes"] += sum(len(u.data) for u in args[1])

    def count_fetch(_, shares):
        counts["server.fetch_shares.bytes"] += sum(len(v) for v in shares.values())

    extra = {
        "query_duplicates": count_query,
        "upload_shares": count_upload,
        "fetch_shares": count_fetch,
    }
    for method in SERVER_METHODS:
        proxy.timed(ledger, f"server.{method}", method, extra.get(method))
    upload_async = getattr(server, "upload_shares_async", None)
    if upload_async is not None:

        def timed_async(*args):
            counts["server.upload_shares.calls"] += 1
            count_upload(args, None)
            ack = ledger.call("server.upload_shares", upload_async, *args)
            return _TimedAck(ledger, ack)

        proxy.upload_shares_async = timed_async
    return proxy


def instrument_client(client, ledger: Ledger) -> None:
    """Wrap one client's chunker, dispersal and server handles.

    ``client.servers`` is the list the comm engine reads, so replacing
    its entries in place reroutes every server call the client makes.
    """
    counts = ledger.counts
    chunker = client.chunker
    chunk_proxy = Proxy(chunker)

    def chunk_bytes(data):
        chunks = ledger.call(
            "chunking.chunk_bytes", lambda: list(chunker.chunk_bytes(data))
        )
        counts["chunking.chunks"] += len(chunks)
        counts["chunking.bytes"] += len(data)
        return chunks

    chunk_proxy.chunk_bytes = chunk_bytes
    client.chunker = chunk_proxy

    dispersal = Proxy(client.dispersal)

    def count_secrets(span):
        def count(args, _):
            counts[span + ".secrets"] += len(args[0])

        return count

    for method in ("encode_batch", "decode_batch"):
        dispersal.timed(ledger, f"core.{method}", method, count_secrets(f"core.{method}"))
    client.dispersal = dispersal

    for i, server in enumerate(client.servers):
        client.servers[i] = _instrument_server(server, ledger)


def instrument_server_internals(server, ledger: Ledger) -> None:
    """Wrap an in-process server's index, container manager and backend."""
    counts = ledger.counts
    index = Proxy(server.index)
    index.timed(ledger, "index.get", "get")
    index.timed(ledger, "index.put", "put")
    server.index = index

    containers = server.containers
    backend = Proxy(containers.backend)

    def count_read(*_):
        counts["storage.backend_reads"] += 1

    backend.timed(ledger, "storage.backend.get_object", "get_object", count_read)
    backend.timed(ledger, "storage.backend.get_range", "get_range", count_read)
    containers.backend = backend

    manager = Proxy(containers)

    def count_append(args, _):
        counts["storage.append.bytes"] += len(args[3])

    manager.timed(ledger, "storage.append", "append", count_append)
    manager.timed(ledger, "storage.flush", "flush")
    # Whole-entry reads (recipes) and ranged reads (shares) are both
    # "entry reads"; an entry read that reached the backend is a miss.
    for method in ("read_entry", "read_entry_ranged"):
        fn = getattr(containers, method)

        def read(*args, _fn=fn, **kwargs):
            before = counts["storage.backend_reads"]
            counts["storage.read_entry.calls"] += 1
            result = ledger.call("storage.read_entry", _fn, *args, **kwargs)
            if counts["storage.backend_reads"] != before:
                counts["storage.read_entry.misses"] += 1
            return result

        setattr(manager, method, read)
    server.containers = manager


@contextmanager
def instrument_compress(ledger: Ledger):
    """Swap ``repro.compress``'s recipe codecs, which the server looks up per call."""
    import repro.compress as compress

    counts = ledger.counts
    originals = (compress.compress_recipe, compress.decompress_recipe)
    encode, decode = originals

    def compress_recipe(blob):
        counts["compress.compress_recipe.calls"] += 1
        counts["compress.compress_recipe.bytes_in"] += len(blob)
        out = ledger.call("compress.compress_recipe", encode, blob)
        counts["compress.compress_recipe.bytes_out"] += len(out)
        return out

    def decompress_recipe(blob):
        counts["compress.decompress_recipe.calls"] += 1
        return ledger.call("compress.decompress_recipe", decode, blob)

    compress.compress_recipe = compress_recipe
    compress.decompress_recipe = decompress_recipe
    try:
        yield
    finally:
        compress.compress_recipe, compress.decompress_recipe = originals
