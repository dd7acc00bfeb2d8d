"""Tests for the distributed sweep fabric.

Layers, cheapest first:

* shards — content-hash partitioning, splitting, steal clones;
* result store — first-writer-wins dedupe over the shared disk cache;
* protocol — the ``shard`` job kind and the fabric request families;
* telemetry — fleet-wide ``/metrics`` exposition merging;
* stream framing — chunked transfer + SSE parsing, including reads
  that split frames and streams that die mid-chunk;
* cache — multi-node prune/put races tolerated and counted;
* scheduling — deficit-round-robin fairness across tenants (pure
  logic, no sockets);
* end-to-end — a real coordinator + worker pair over real sockets:
  submit, stream, merged document, store pre-resolution, and a dead
  worker surfacing structured failures instead of a hung sweep.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.experiments.cache import (
    SweepDiskCache,
    result_to_dict,
    usecase_key,
)
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments.usecase import UseCase
from repro.fabric.coordinator import Coordinator
from repro.fabric.shards import (
    MAX_SHARD_CASES,
    Shard,
    auto_shard_size,
    clone_for_steal,
    partition,
    shard_id,
    split,
)
from repro.fabric.store import ResultStore
from repro.fabric.stream import (
    CHUNK_END,
    chunk,
    iter_chunks,
    iter_sse,
    parse_sse_block,
    sse_event,
)
from repro.service.app import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.protocol import (
    FABRIC_DEFAULT_KERNEL,
    parse_fabric_sweep,
    parse_job,
    parse_worker_registration,
)
from repro.service.telemetry import merge_expositions

#: One fast program, one config, one tech: a single-case grid keeps
#: the end-to-end tests around real compute, not waiting on it.
TINY = dict(programs=["bs"], configs=["k1"], techs=["45nm"], budget=10)


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    """Keep the environment from injecting caches, workers or kernels."""
    monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_BYTES", raising=False)
    monkeypatch.delenv("REPRO_CACHE_KERNEL", raising=False)


@pytest.fixture(scope="module")
def tiny_result():
    """One real result to feed stores and caches (computed once)."""
    results = run_sweep(
        SweepSpec(programs=("bs",), config_ids=("k1",), techs=("45nm",),
                  max_evaluations=10),
        use_cache=False, workers=1,
    )
    return results[0]


# ----------------------------------------------------------------------
# shards
# ----------------------------------------------------------------------
class TestShards:
    KEYS = [f"key-{i:02d}" for i in range(10)]

    def test_shard_id_is_content_addressed(self):
        a = shard_id("sweep1", ["k1", "k2"])
        assert a == shard_id("sweep1", ["k1", "k2"])
        assert a != shard_id("sweep2", ["k1", "k2"])
        assert a != shard_id("sweep1", ["k2", "k1"])
        assert a != shard_id("sweep1", ["k1", "k2"], speculative=True)

    def test_partition_covers_every_index_in_order(self):
        shards = partition("s", "default", list(range(10)), self.KEYS, 4)
        assert [s.size for s in shards] == [4, 4, 2]
        covered = [i for s in shards for i in s.indices]
        assert covered == list(range(10))
        for s in shards:
            assert s.keys == tuple(self.KEYS[i] for i in s.indices)
            assert s.tenant == "default"

    def test_split_halves_and_carries_attempts(self):
        [s] = partition("s", "t", list(range(5)), self.KEYS, 5)
        s.attempts = 2
        halves = split(s)
        assert [h.size for h in halves] == [2, 3]
        assert all(h.attempts == 2 for h in halves)
        assert halves[0].indices + halves[1].indices == s.indices
        assert halves[0].id != halves[1].id != s.id

    def test_split_of_single_case_returns_itself(self):
        [s] = partition("s", "t", [3], self.KEYS, 1)
        assert split(s) == [s]

    def test_clone_for_steal_is_speculative_with_salted_id(self):
        [s] = partition("s", "t", list(range(4)), self.KEYS, 4)
        clone = clone_for_steal(s, [2, 3], self.KEYS)
        assert clone.speculative
        assert clone.indices == (2, 3)
        assert clone.keys == ("key-02", "key-03")
        assert clone.id != shard_id("s", clone.keys)  # salted

    def test_auto_shard_size_targets_shards_per_slot(self):
        # 100 cases over 2 slots -> 8 shard targets -> 13 cases each.
        assert auto_shard_size(100, 2) == 13
        assert auto_shard_size(1, 8) == 1
        assert auto_shard_size(10 ** 6, 1) == MAX_SHARD_CASES


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_first_writer_wins_and_duplicates_are_counted(self, tiny_result):
        store = ResultStore()
        assert store.put("k", tiny_result)
        assert not store.put("k", tiny_result)
        assert store.puts == 1
        assert store.duplicates == 1
        assert len(store) == 1
        assert "k" in store

    def test_disk_layer_round_trips_and_promotes(self, tmp_path, tiny_result):
        writer = ResultStore(cache_dir=tmp_path)
        writer.put("key-shared", tiny_result)
        # A second store over the same directory — another node.
        reader = ResultStore(cache_dir=tmp_path)
        hit = reader.get("key-shared")
        assert hit is not None
        assert result_to_dict(hit) == result_to_dict(tiny_result)
        assert reader.disk_hits == 1
        # Promotion: the second read comes from the overlay.
        reader.get("key-shared")
        assert reader.disk_hits == 1

    def test_missing_filters_resolved_keys(self, tiny_result):
        store = ResultStore()
        store.put("a", tiny_result)
        assert store.missing(["a", "b", "c"]) == ["b", "c"]
        assert store.stats()["results"] == 1


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestFabricProtocol:
    def test_shard_job_parses_explicit_case_list(self):
        req = parse_job({"kind": "shard", "params": {
            "cases": [["bs", "k1", "45nm"], ["p2", "k13", "32nm"]],
            "budget": 10,
        }})
        assert req.param("cases") == (("bs", "k1", "45nm"),
                                      ("bs", "k13", "32nm"))  # p2 -> bs
        assert req.param("baseline") == "classic"
        assert req.param("seed") == 1

    @pytest.mark.parametrize("cases,needle", [
        ([], "non-empty"),
        ("bs/k1/45nm", "non-empty"),
        ([["bs", "k1"]], "cases[0]"),
        ([["nope", "k1", "45nm"]], "program"),
        ([["bs", "k1", "45nm"]] * (MAX_SHARD_CASES + 1), "at most"),
    ])
    def test_shard_case_list_is_validated(self, cases, needle):
        with pytest.raises(ProtocolError) as info:
            parse_job({"kind": "shard", "params": {"cases": cases}})
        assert needle in str(info.value)

    def test_sweep_kernel_is_part_of_the_fingerprint(self):
        plain = parse_job({"kind": "sweep", "params": {}})
        vector = parse_job({"kind": "sweep",
                            "params": {"kernel": "vectorized"}})
        assert plain.fingerprint() != vector.fingerprint()
        with pytest.raises(ProtocolError):
            parse_job({"kind": "sweep", "params": {"kernel": "fortran"}})

    def test_fabric_sweep_defaults_the_vectorized_kernel(self):
        tenant, params = parse_fabric_sweep({"params": TINY})
        assert tenant == "default"
        assert params["kernel"] == FABRIC_DEFAULT_KERNEL == "vectorized"
        # ... but python stays selectable per sweep.
        _, params = parse_fabric_sweep(
            {"params": dict(TINY, kernel="python")})
        assert params["kernel"] == "python"

    @pytest.mark.parametrize("tenant", ["", "UPPER", "a" * 65, "a b", 7])
    def test_bad_tenants_are_rejected(self, tenant):
        with pytest.raises(ProtocolError, match="tenant"):
            parse_fabric_sweep({"tenant": tenant, "params": TINY})

    def test_worker_registration_normalises_the_url(self):
        url, capacity = parse_worker_registration(
            {"url": "http://127.0.0.1:8100/", "capacity": 4})
        assert url == "http://127.0.0.1:8100"
        assert capacity == 4
        for bad in [{"url": "ftp://x:1"}, {"url": "http://"},
                    {"url": "http://x:1", "capacity": 0},
                    {"url": "http://x:1", "nope": 1}]:
            with pytest.raises((ProtocolError, ServiceError)):
                parse_worker_registration(bad)


# ----------------------------------------------------------------------
# fleet metrics merging
# ----------------------------------------------------------------------
class TestMergeExpositions:
    COORD = ("# HELP repro_jobs_total Jobs accepted.\n"
             "# TYPE repro_jobs_total counter\n"
             "repro_jobs_total 3\n")
    WORKER = ("# HELP repro_jobs_total Jobs accepted.\n"
              "# TYPE repro_jobs_total counter\n"
              "repro_jobs_total 5\n"
              "# HELP repro_job_seconds Latency.\n"
              "# TYPE repro_job_seconds histogram\n"
              'repro_job_seconds_bucket{le="1"} 2\n'
              "repro_job_seconds_sum 1.5\n"
              "repro_job_seconds_count 2\n")

    def test_identical_samples_sum_across_the_fleet(self):
        merged = merge_expositions([self.COORD, self.WORKER, self.WORKER])
        assert "repro_jobs_total 13" in merged
        assert merged.count("# HELP repro_jobs_total") == 1
        assert merged.count("# TYPE repro_jobs_total") == 1

    def test_histogram_series_group_under_their_base_metric(self):
        merged = merge_expositions([self.WORKER, self.WORKER])
        assert 'repro_job_seconds_bucket{le="1"} 4' in merged
        assert "repro_job_seconds_sum 3" in merged
        assert "repro_job_seconds_count 4" in merged
        assert merged.count("# TYPE repro_job_seconds histogram") == 1

    def test_single_exposition_round_trips(self):
        assert merge_expositions([self.COORD]).strip() == self.COORD.strip()


# ----------------------------------------------------------------------
# stream framing
# ----------------------------------------------------------------------
class TestStreamFraming:
    def test_chunk_round_trip_across_split_reads(self):
        events = [sse_event("case", {"i": i}) for i in range(3)]
        wire = b"".join(chunk(e) for e in events) + CHUNK_END
        # Feed the parser 1 byte at a time: no frame boundary survives.
        reads = [wire[i:i + 1] for i in range(len(wire))]
        assert list(iter_chunks(iter(reads))) == events

    def test_sse_events_need_not_align_with_chunks(self):
        blob = b"".join(sse_event("case", {"i": i}) for i in range(3))
        # Re-chunk at an awkward boundary (7 bytes).
        payloads = [blob[i:i + 7] for i in range(0, len(blob), 7)]
        parsed = list(iter_sse(iter(payloads)))
        assert parsed == [("case", {"i": i}) for i in range(3)]

    def test_truncated_stream_raises_instead_of_ending(self):
        wire = chunk(sse_event("case", {"i": 1}))  # no terminal chunk
        with pytest.raises(ConnectionError, match="truncated"):
            list(iter_chunks(iter([wire])))
        with pytest.raises(ConnectionError, match="truncated"):
            list(iter_chunks(iter([wire[: len(wire) // 2]])))

    def test_malformed_chunk_size_raises(self):
        with pytest.raises(ConnectionError, match="malformed"):
            list(iter_chunks(iter([b"zz\r\nxx\r\n"])))

    def test_sse_comments_and_empty_blocks_are_dropped(self):
        assert parse_sse_block(": keep-alive") is None
        assert parse_sse_block("event: progress") is None
        assert parse_sse_block("event: x\ndata: {\"a\":1}") == ("x", {"a": 1})
        assert parse_sse_block("data: not json") == ("message", "not json")


# ----------------------------------------------------------------------
# the client's stream parser against a real socket
# ----------------------------------------------------------------------
HEAD = (b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"Connection: close\r\n\r\n")


def _canned_server(payload: bytes):
    """A one-shot TCP server that answers any request with ``payload``."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        conn.recv(65536)  # the request; content is irrelevant
        conn.sendall(payload)
        conn.close()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return port, thread


class TestStreamSocket:
    def test_stream_yields_events_until_done(self):
        wire = HEAD + b"".join([
            chunk(sse_event("progress", {"completed": 0})),
            chunk(sse_event("case", {"program": "bs"})),
            chunk(sse_event("done", {"summary": {}})),
            CHUNK_END,
        ])
        port, thread = _canned_server(wire)
        client = ServiceClient("127.0.0.1", port, max_retries=0)
        events = list(client.stream_sweep("s1"))
        thread.join(timeout=5)
        assert [e for e, _ in events] == ["progress", "case", "done"]
        assert events[1][1] == {"program": "bs"}

    def test_mid_stream_death_raises_a_structured_error(self):
        # The server dies after one event: no terminal chunk, no done.
        wire = HEAD + chunk(sse_event("case", {"program": "bs"}))
        port, thread = _canned_server(wire)
        client = ServiceClient("127.0.0.1", port, max_retries=0)
        with pytest.raises(ServiceError, match="broke mid-sweep"):
            list(client.stream_sweep("s1"))
        thread.join(timeout=5)

    def test_clean_end_without_done_still_raises(self):
        # Proper chunked termination, but the sweep never finished.
        wire = (HEAD + chunk(sse_event("case", {"program": "bs"}))
                + CHUNK_END)
        port, thread = _canned_server(wire)
        client = ServiceClient("127.0.0.1", port, max_retries=0)
        with pytest.raises(ServiceError, match="without a 'done'"):
            list(client.stream_sweep("s1"))
        thread.join(timeout=5)

    def test_http_errors_surface_with_their_status(self):
        wire = (b"HTTP/1.1 404 Not Found\r\n"
                b"Content-Type: application/json\r\n"
                b"Connection: close\r\n\r\n"
                b'{"error": "no such sweep"}')
        port, thread = _canned_server(wire)
        client = ServiceClient("127.0.0.1", port, max_retries=0)
        with pytest.raises(ServiceError) as info:
            list(client.stream_sweep("nope"))
        thread.join(timeout=5)
        assert info.value.status == 404


# ----------------------------------------------------------------------
# multi-node cache hardening
# ----------------------------------------------------------------------
class TestCacheMultiNode:
    def test_prune_tolerates_peer_deletions_and_counts_them(
            self, tmp_path, tiny_result):
        cache = SweepDiskCache(tmp_path)
        cache.put("key-a", tiny_result)
        cache.put("key-b", tiny_result)
        real_root = cache.root

        class PhantomRecord:
            """A record a peer node evicted between scan and unlink."""

            def stat(self):
                return SimpleNamespace(st_mtime=0.0, st_size=10_000)

            def unlink(self):
                raise FileNotFoundError("peer got there first")

        class RacingRoot:
            def exists(self):
                return True

            def glob(self, pattern):
                yield PhantomRecord()
                yield from real_root.glob(pattern)

        cache.root = RacingRoot()
        removed = cache.prune(0)
        assert removed == 2  # the two real records
        assert cache.prune_races == 1
        assert cache.pruned == 2

    def test_put_survives_a_peer_removing_the_shard_dir(
            self, tmp_path, tiny_result, monkeypatch):
        import shutil
        import tempfile as tempfile_module

        cache = SweepDiskCache(tmp_path)
        real_mkstemp = tempfile_module.mkstemp
        raced = {"done": False}

        def racing_mkstemp(**kwargs):
            if not raced["done"]:
                raced["done"] = True
                shutil.rmtree(kwargs["dir"], ignore_errors=True)
                raise FileNotFoundError(kwargs["dir"])
            return real_mkstemp(**kwargs)

        monkeypatch.setattr(tempfile_module, "mkstemp", racing_mkstemp)
        cache.put("key-a", tiny_result)
        assert raced["done"]
        hit = cache.get("key-a")
        assert hit is not None
        assert result_to_dict(hit) == result_to_dict(tiny_result)


# ----------------------------------------------------------------------
# deficit-round-robin fairness (pure scheduling logic)
# ----------------------------------------------------------------------
def _shard(tenant: str, size: int, tag: str) -> Shard:
    keys = tuple(f"{tag}-{i}" for i in range(size))
    return Shard(id=f"{tag}", sweep_id="s", tenant=tenant,
                 indices=tuple(range(size)), keys=keys)


class TestDeficitRoundRobin:
    def test_small_tenant_is_not_starved_by_a_big_shard(self):
        coord = Coordinator(drr_quantum=4)
        coord._enqueue(_shard("big", 8, "big-0"))
        coord._enqueue(_shard("small", 2, "small-0"))
        coord._enqueue(_shard("small", 2, "small-1"))
        # The big tenant needs two quantum visits to afford its shard;
        # the small tenant dispatches meanwhile instead of waiting.
        picks = [coord._next_shard() for _ in range(4)]
        tenants = [p.tenant if p else None for p in picks]
        assert tenants[0] == "small"
        assert set(tenants[:3]) == {"small", "big"}
        assert tenants[3] is None  # queues drained
        assert coord._queued == 0

    def test_emptied_queue_forfeits_its_deficit(self):
        coord = Coordinator(drr_quantum=4)
        coord._enqueue(_shard("a", 1, "a-0"))
        assert coord._next_shard().tenant == "a"
        # The leftover 3 credits must not persist while idle.
        assert coord._deficit["a"] == 0.0

    def test_fifo_within_a_tenant(self):
        coord = Coordinator(drr_quantum=4)
        for i in range(3):
            coord._enqueue(_shard("a", 2, f"a-{i}"))
        assert [coord._next_shard().id for _ in range(3)] == [
            "a-0", "a-1", "a-2"]

    def test_requeue_to_front_preempts(self):
        coord = Coordinator(drr_quantum=4)
        coord._enqueue(_shard("a", 2, "a-0"))
        coord._enqueue(_shard("a", 2, "a-retry"), front=True)
        assert coord._next_shard().id == "a-retry"


# ----------------------------------------------------------------------
# end-to-end over real sockets
# ----------------------------------------------------------------------
class TestFabricEndToEnd:
    def test_plain_nodes_reject_fabric_routes(self):
        with BackgroundServer() as server:
            client = ServiceClient(server.host, server.port, max_retries=0)
            with pytest.raises(ServiceError) as info:
                client.submit_fabric_sweep(**TINY)
            assert info.value.status == 404
            assert "not a coordinator" in str(info.value)

    def test_submit_without_workers_is_503(self):
        with BackgroundServer(coordinator=True) as server:
            client = ServiceClient(server.host, server.port, max_retries=0)
            with pytest.raises(ServiceError) as info:
                client.submit_fabric_sweep(**TINY)
            assert info.value.status == 503

    def test_sweep_streams_merges_and_pre_resolves(self, tmp_path):
        with BackgroundServer(cache_dir=tmp_path, workers=1) as worker:
            with BackgroundServer(cache_dir=tmp_path, coordinator=True,
                                  worker_urls=[worker.url]) as coord:
                client = ServiceClient(coord.host, coord.port)
                record = client.submit_fabric_sweep(**TINY)
                assert record["state"] == "running"
                assert record["cases"] == 1

                events = list(client.stream_sweep(record["id"]))
                kinds = [e for e, _ in events]
                assert kinds[-1] == "done"
                cases = [d for e, d in events if e == "case"]
                assert [c["program"] for c in cases] == ["bs"]
                assert cases[0]["worker"] == worker.url

                document = client.fabric_result(record["id"])
                assert document["summary"]["cases"] == 1
                assert document["summary"]["failed"] == 0
                assert document["fabric"]["shards_completed"] >= 1

                # The same grid again resolves from the shared store
                # without touching the worker: done on arrival.
                again = client.submit_fabric_sweep(**TINY)
                assert again["state"] == "done"
                events = list(client.stream_sweep(again["id"]))
                case = next(d for e, d in events if e == "case")
                assert case["worker"] == "store"
                redo = client.fabric_result(again["id"])
                assert redo["cases"] == document["cases"]

                # Fleet metrics: the coordinator's /metrics folds the
                # worker's exposition into its own.
                merged = client.metrics()
                assert "fabric_shards_dispatched 1" in merged
                health = client.health()
                assert health["fabric"]["store"]["results"] == 1

    def test_fabric_results_match_local_run_bit_for_bit(self, tmp_path):
        from repro.experiments.report import sweep_to_json

        with BackgroundServer(cache_dir=tmp_path / "fleet",
                              workers=1) as worker:
            with BackgroundServer(coordinator=True,
                                  worker_urls=[worker.url]) as coord:
                client = ServiceClient(coord.host, coord.port)
                record = client.submit_fabric_sweep(**TINY)
                document = client.fabric_result(record["id"])
        local = run_sweep(
            SweepSpec(programs=("bs",), config_ids=("k1",),
                      techs=("45nm",), max_evaluations=10,
                      kernel="vectorized"),
            use_cache=False, workers=1,
        )
        assert document["cases"] == sweep_to_json(local)["cases"]

    def test_dead_worker_surfaces_structured_failures(self):
        # Reserve a port nobody listens on: every dispatch fails fast.
        probe = socket.create_server(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with BackgroundServer(
                coordinator=True,
                worker_urls=[f"http://127.0.0.1:{dead_port}"]) as coord:
            client = ServiceClient(coord.host, coord.port)
            record = client.submit_fabric_sweep(**TINY)
            events = list(client.stream_sweep(record["id"]))
            kinds = [e for e, _ in events]
            assert "failure" in kinds and kinds[-1] == "done"
            failure = next(d for e, d in events if e == "failure")
            assert failure["error_type"] == "ShardDispatchError"
            assert failure["transient"] is True
            assert failure["program"] == "bs"
            document = client.fabric_result(record["id"])
            assert document["summary"]["failed"] == 1
            # No case succeeded: no improvement figure, like run_sweep's.
            assert document["summary"]["average_improvement"] is None
            assert document["failures"][0]["error_type"] == (
                "ShardDispatchError")
            health = client.health()
            workers = health["fabric"]["workers"]
            assert workers[0]["healthy"] is False
