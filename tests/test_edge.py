"""Edge ingestion plane: spool durability, vendor feeds, edge nodes,
the ingest gateway, and the end-to-end pipeline.

The headline contract under test: feeding the federation through lossy
per-reader vendor feeds — duplicates, junk lines, reordering, offline
windows with burst replay, dropped/duplicated/delayed links, edge and
gateway crashes — rebuilds traces *bit-identical* to the clean ones,
so every downstream inference result is identical too. Late arrivals
past a forced seal degrade gracefully (counted, dropped or re-run by
policy), never crash.
"""

import os

import pytest

from chaos import assert_traces_identical
from repro.core.service import ServiceConfig
from repro.distributed.network import Network
from repro.edge import (
    GATEWAY_SITE,
    BatchSpool,
    EdgeBatch,
    EdgeNode,
    EdgePlan,
    IngestGateway,
    edge_site_id,
    encode_edge_batch,
    run_ingest,
)
from repro.runtime import Cluster, FaultPlan
from repro.runtime.envelope import EDGE_BATCH, Envelope
from repro.runtime.transport import InProcessTransport
from repro.sim.tags import EPC, TagKind
from repro.sim.trace import Reading
from repro.sim.vendor import FeedNoise, VendorFeed
from repro.workloads.monitors import DwellTimeQuery
from repro.workloads.scenarios import care_facility_scenario


def reading(time: int, serial: int = 1, reader: int = 3) -> Reading:
    return Reading(time, EPC(TagKind.CASE, serial), reader)


def batch_payload(seq, readings=(), upto=None, edge_id=0, site=0) -> bytes:
    if upto is None:
        upto = max((r.time for r in readings), default=0)
    return encode_edge_batch(EdgeBatch(edge_id, site, seq, upto, tuple(readings)))


def batch_env(payload, edge_id=0) -> Envelope:
    return Envelope(edge_site_id(edge_id), GATEWAY_SITE, EDGE_BATCH, payload, seq=1)


class TestBatchSpool:
    def test_put_load_remove_roundtrip(self, tmp_path):
        spool = BatchSpool(str(tmp_path))
        spool.put(3, b"three")
        spool.put(1, b"one")
        assert spool.pending() == [1, 3]
        assert spool.load(3) == b"three"
        spool.remove(3)
        spool.remove(3)  # idempotent
        assert spool.pending() == [1]

    def test_recover_skips_and_counts_corrupt_files(self, tmp_path):
        spool = BatchSpool(str(tmp_path))
        spool.put(1, b"good")
        spool.put(2, b"torn")
        with open(os.path.join(str(tmp_path), "batch-00000002.col"), "wb") as fh:
            fh.write(b"\x01\x02")  # truncated mid-write
        spool.put(3, b"flipped")
        path = os.path.join(str(tmp_path), "batch-00000003.col")
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0x40
        open(path, "wb").write(bytes(blob))
        recovered = spool.recover()
        assert recovered == {1: b"good"}
        assert spool.corruptions == 2

    def test_next_seq_survives_restart_and_corrupt_meta(self, tmp_path):
        spool = BatchSpool(str(tmp_path))
        assert spool.next_seq() == 1  # fresh spool
        spool.set_next_seq(7)
        assert BatchSpool(str(tmp_path)).next_seq() == 7
        with open(os.path.join(str(tmp_path), "meta"), "wb") as fh:
            fh.write(b"\x00")
        spool.put(4, b"x")
        fresh = BatchSpool(str(tmp_path))
        # Corrupt meta: conservative fallback past the highest batch.
        assert fresh.next_seq() == 5
        assert fresh.corruptions == 1


@pytest.fixture(scope="module")
def facility():
    return care_facility_scenario(seed=5, n_residents=5, horizon=700)


class TestVendorFeed:
    def test_clean_feed_reproduces_the_reader_slice(self, facility):
        trace = facility.traces[0]
        reader = VendorFeed.split_trace(trace)[0]
        feed = VendorFeed(trace, reader, seed=1)
        lines = []
        for wall in range(0, trace.horizon + 50, 50):
            lines.extend(feed.emit_until(wall))
        assert feed.exhausted
        got = [l for l in lines if l.startswith("RD,")]
        mask = trace.readers == reader
        assert len(got) == int(mask.sum())
        times = [int(l.split(",")[1]) for l in got]
        assert times == [int(t) for t in trace.times[mask]]
        # keepalives announce monotone progress up to the horizon
        kas = [int(l.split(",")[1]) for l in lines if l.startswith("KA,")]
        assert kas == sorted(kas) and kas[-1] == trace.horizon

    def test_noise_duplicates_and_junk_never_lose_readings(self, facility):
        trace = facility.traces[0]
        reader = VendorFeed.split_trace(trace)[0]
        noise = FeedNoise(duplicate=0.5, junk=0.3, shuffle=0.5)
        feed = VendorFeed(trace, reader, seed=2, noise=noise)
        lines = []
        while not feed.exhausted:
            lines.extend(feed.emit_until(feed._covered + 100))
        mask = trace.readers == reader
        clean = {
            f"RD,{int(t)},{trace.tag_table[i]},{reader}"
            for t, i in zip(trace.times[mask], trace.tag_ids[mask])
        }
        assert clean <= set(lines)  # every true reading still present
        assert len([l for l in lines if l.startswith("RD,")]) > len(clean)

    def test_offline_window_goes_silent_then_burst_replays(self, facility):
        trace = facility.traces[0]
        reader = VendorFeed.split_trace(trace)[0]
        feed = VendorFeed(trace, reader, seed=1, offline=((200, 400),))
        pre = feed.emit_until(150)
        assert any(l.startswith("KA,") for l in pre)
        assert feed.emit_until(250) == []  # offline: total silence
        assert feed.emit_until(399) == []
        burst = feed.emit_until(400)
        mask = (trace.readers == reader) & (trace.times > 150) & (trace.times <= 400)
        assert len([l for l in burst if l.startswith("RD,")]) == int(mask.sum())

    def test_windows_clamped_to_horizon_always_replay(self, facility):
        trace = facility.traces[0]
        reader = VendorFeed.split_trace(trace)[0]
        feed = VendorFeed(trace, reader, seed=1, offline=((100, trace.horizon * 10),))
        feed.emit_until(trace.horizon)
        assert feed.exhausted


class _BlackHole:
    """A transport that swallows everything (no acks ever)."""

    def __init__(self):
        self.sends = 0

    def register(self, site, handler):
        pass

    def send(self, env):
        self.sends += 1


class TestEdgeNode:
    def test_parse_errors_counted_never_fatal(self, tmp_path):
        edge = EdgeNode(0, 0, 3, str(tmp_path))
        for line in ("RD,5,", "RD,x,C-000001,3", "RD,5,Z-1,3", "#junk", "KA,"):
            edge.ingest_line(line)
        edge.ingest_line("RD,5,C-000001,3")
        assert edge.stats.parse_errors == 5
        assert edge.stats.lines == 6

    def test_window_dedup_drops_repeats(self, tmp_path):
        edge = EdgeNode(0, 0, 3, str(tmp_path))
        edge.ingest_line("RD,5,C-000001,3")
        edge.ingest_line("RD,5,C-000001,3")
        edge.ingest_line("RD,6,C-000001,3")
        assert edge.stats.duplicates_dropped == 1

    def test_delivery_and_ack_through_gateway(self, tmp_path):
        transport = InProcessTransport(Network())
        gateway = IngestGateway(1, 100, str(tmp_path / "gw"))
        gateway.bind(transport)
        gateway.expect_edge(0)
        edge = EdgeNode(0, 0, 3, str(tmp_path / "edge"))
        edge.bind(transport)
        edge.ingest_line("RD,5,C-000001,3")
        edge.ingest_line("KA,120")
        edge.pump()
        assert edge.drained  # synchronous transport: sent, acked, done
        assert edge.spool.pending() == []  # acked batches leave the spool
        assert gateway.total_readings == 1
        assert gateway.watermark() == 120
        gateway.close()

    def test_backoff_caps_retransmit_rate(self, tmp_path):
        hole = _BlackHole()
        edge = EdgeNode(0, 0, 3, str(tmp_path), backoff_cap=8)
        edge.bind(hole)
        edge.ingest_line("RD,5,C-000001,3")
        for _ in range(80):
            edge.pump()
        # With delays 1,2,4,8,8,... (plus jitter) 80 silent rounds cost
        # a logarithmic-then-capped trickle, not one send per round.
        assert 1 <= edge.stats.sends <= 16
        assert edge.stats.retransmits == edge.stats.sends - 1

    def test_crash_restart_replays_spool_without_reusing_seqs(self, tmp_path):
        hole = _BlackHole()
        edge = EdgeNode(0, 0, 3, str(tmp_path), max_batch=1)
        edge.bind(hole)
        edge.ingest_line("RD,5,C-000001,3")
        edge.ingest_line("RD,6,C-000002,3")
        edge.pump()
        assert len(edge.spool.pending()) == 2
        edge.crash()
        assert edge.stats.restarts == 1
        assert not edge.drained  # the queue survived
        # Deliver for real now: gateway sees both readings exactly once.
        transport = InProcessTransport(Network())
        gateway = IngestGateway(1, 100, str(tmp_path / "gw"))
        gateway.bind(transport)
        gateway.expect_edge(0)
        edge.bind(transport)
        edge.pump()
        assert edge.drained
        assert gateway.total_readings == 2
        # A post-restart batch continues the sequence, never reuses one.
        edge.ingest_line("RD,7,C-000003,3")
        edge.pump()
        assert gateway.stats.duplicate_batches == 0
        assert gateway.total_readings == 3
        gateway.close()

    def test_crash_while_persisting_seq_never_reuses_acked_seqs(
        self, tmp_path, monkeypatch
    ):
        """Regression: the sequence counter used to be rewritten in
        place, so a crash mid-write left a torn ``meta``. With every
        earlier batch acked (so no spool file to fall back on) the
        restarted edge restarted at seq 1, and the gateway acked its
        fresh batches as duplicates — their readings were lost."""
        import repro.edge.spool as spool_module

        transport = InProcessTransport(Network())
        gateway = IngestGateway(1, 100, str(tmp_path / "gw"))
        gateway.bind(transport)
        gateway.expect_edge(0)
        edge = EdgeNode(0, 0, 3, str(tmp_path / "edge"), max_batch=1)
        edge.bind(transport)
        edge.ingest_line("RD,5,C-000001,3")
        edge.ingest_line("RD,6,C-000002,3")
        edge.pump()
        assert edge.drained and edge.spool.pending() == []
        duplicates = gateway.stats.duplicate_batches

        def crash(payload):
            raise OSError("power lost while writing the counter")

        monkeypatch.setattr(spool_module, "_frame", crash)
        edge.ingest_line("RD,7,C-000003,3")
        with pytest.raises(OSError):
            edge.pump()
        monkeypatch.undo()
        edge.crash()
        edge.ingest_line("RD,8,C-000004,3")
        edge.pump()
        assert edge.drained
        assert gateway.stats.duplicate_batches == duplicates
        assert gateway.total_readings == 3
        gateway.close()

    def test_resident_bound_spills_payloads_back_to_disk(self, tmp_path):
        edge = EdgeNode(0, 0, 3, str(tmp_path), max_batch=1, max_resident_batches=2)
        edge.bind(_BlackHole())
        for t in range(5, 11):
            edge.ingest_line(f"RD,{t},C-00000{t % 4},3")
        edge.pump()
        resident = [p for p in edge._unacked.values() if p is not None]
        assert len(edge._unacked) == 6
        assert len(resident) == 2
        for _ in range(40):
            edge.pump()  # resends load the spilled payloads from disk
        assert edge.stats.retransmits > 0


class TestIngestGateway:
    def make(self, tmp_path, **kwargs):
        return IngestGateway(1, 100, str(tmp_path / "gw"), **kwargs)

    def test_duplicate_batches_counted_and_reacked(self, tmp_path):
        ledger = Network()
        gw = self.make(tmp_path, ledger=ledger)
        payload = batch_payload(1, [reading(5)])
        gw.handle(batch_env(payload))
        gw.handle(batch_env(payload))
        assert gw.stats.batches_applied == 1
        assert gw.stats.duplicate_batches == 1
        assert ledger.edge_gauges()["duplicate_batches"] == 1
        assert gw.total_readings == 1
        gw.close()

    def test_out_of_order_batches_buffer_then_drain(self, tmp_path):
        gw = self.make(tmp_path)
        gw.handle(batch_env(batch_payload(3, [reading(30)])))
        gw.handle(batch_env(batch_payload(2, [reading(20)])))
        assert gw.stats.reordered_batches == 2
        assert gw.total_readings == 0  # held until 1 arrives
        gw.handle(batch_env(batch_payload(1, [reading(10)])))
        assert gw.stats.batches_applied == 3
        assert gw.total_readings == 3
        gw.close()

    def test_reorder_overflow_drops_unacked(self, tmp_path):
        gw = self.make(tmp_path, reorder_window=2)
        for seq in (5, 4, 3):
            gw.handle(batch_env(batch_payload(seq, [reading(seq)])))
        assert gw.stats.reorder_overflow == 1  # seq 3 refused, not acked
        gw.close()

    def test_malformed_batch_dropped_without_ack(self, tmp_path):
        gw = self.make(tmp_path)
        gw.handle(batch_env(b"\xff\x00garbage"))
        assert gw.stats.malformed_batches == 1
        assert gw.stats.wal_records == 0
        gw.close()

    def test_silent_edge_holds_the_seal(self, tmp_path):
        gw = self.make(tmp_path)
        gw.expect_edge(0)
        gw.expect_edge(1)
        gw.handle(batch_env(batch_payload(1, [reading(50)], upto=250), edge_id=0))
        gw.advance(300)
        assert gw.sealed_boundary == 0  # edge 1 has said nothing
        gw.handle(
            batch_env(batch_payload(1, [], upto=250, edge_id=1), edge_id=1)
        )
        gw.advance(300)
        assert gw.sealed_boundary == 200  # 300 needs watermark >= 299
        gw.close()

    def test_max_lag_forces_the_seal(self, tmp_path):
        gw = self.make(tmp_path, max_lag=150)
        gw.expect_edge(0)
        gw.advance(200)
        assert gw.sealed_boundary == 0
        gw.advance(260)
        assert gw.sealed_boundary == 100  # 260 - 100 >= 150, forced
        assert gw.stats.forced_seals == 1
        gw.close()

    def test_late_arrival_drop_policy(self, tmp_path):
        ledger = Network()
        gw = self.make(tmp_path, max_lag=0, ledger=ledger)
        gw.expect_edge(0)
        gw.advance(200)  # force-seal windows 100 and 200
        gw.handle(batch_env(batch_payload(1, [reading(150), reading(250)])))
        assert gw.stats.late_readings == 1
        assert gw.stats.late_dropped == 1
        assert gw.total_readings == 1  # 250 staged, 150 gone
        assert ledger.edge_gauges() == {
            "late_readings": 1,
            "late_dropped": 1,
            "window_reruns": 0,
            "duplicate_batches": 0,
        }
        gw.close()

    def test_late_arrival_rerun_policy_amends_recent_windows(self, tmp_path):
        ledger = Network()
        gw = self.make(
            tmp_path, max_lag=0, late_policy="rerun", rerun_window=1, ledger=ledger
        )
        gw.expect_edge(0)
        gw.advance(300)  # sealed through 300
        late_near = reading(250)  # window 300: within rerun_window
        late_far = reading(50)  # window 100: beyond it — dropped
        gw.handle(batch_env(batch_payload(1, [late_near, late_far])))
        assert gw.stats.window_reruns == 1
        assert gw.stats.late_dropped == 1
        assert ledger.edge_gauges()["window_reruns"] == 1
        assert gw.total_readings == 1  # the amended window holds it
        gw.close()

    def test_invalid_late_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="late policy"):
            self.make(tmp_path, late_policy="explode")

    def test_restart_replays_wal_identically(self, tmp_path):
        gw = self.make(tmp_path, max_lag=0)
        gw.expect_edge(0)
        gw.handle(batch_env(batch_payload(2, [reading(150)], upto=180)))
        gw.handle(batch_env(batch_payload(1, [reading(20), reading(120)], upto=90)))
        gw.advance(100)
        before = (gw.sealed_boundary, gw.total_readings, gw.watermark())
        gw.restart()
        assert gw.stats.restarts == 1
        assert (gw.sealed_boundary, gw.total_readings, gw.watermark()) == before
        # Replay preserved delivery state: the old seqs are duplicates.
        gw.handle(batch_env(batch_payload(2, [reading(150)], upto=180)))
        assert gw.stats.duplicate_batches == 1
        gw.close()

    def test_restart_skips_torn_wal_tail(self, tmp_path):
        gw = self.make(tmp_path)
        gw.expect_edge(0)
        gw.handle(batch_env(batch_payload(1, [reading(10)])))
        gw._wal.write(b"\x40\x00\x00\x00torn")  # crash mid-append
        gw._wal.flush()
        gw.restart()
        assert gw.stats.wal_skipped == 1
        assert gw.total_readings == 1
        gw.close()

    def test_restart_keeps_silent_edges_in_the_watermark(self, tmp_path):
        gw = self.make(tmp_path)
        gw.expect_edge(0)
        gw.expect_edge(1)
        gw.handle(batch_env(batch_payload(1, [reading(50)], upto=250), edge_id=0))
        gw.restart()
        gw.advance(300)
        assert gw.sealed_boundary == 0  # edge 1's silence still holds it
        gw.close()


class TestPipeline:
    def test_clean_ingest_rebuilds_identical_traces(self, facility, tmp_path):
        rebuilt, report = run_ingest(facility.traces, 300, str(tmp_path))
        assert_traces_identical(rebuilt, facility.traces)
        assert report.readings == sum(len(t.times) for t in facility.traces)
        assert report.gateway_stats["duplicate_batches"] == 0
        assert report.edge_gauges["late_readings"] == 0

    def test_flaky_everything_still_converges_bit_identical(
        self, facility, tmp_path
    ):
        plan = EdgePlan(
            seed=13,
            noise=FeedNoise(duplicate=0.2, junk=0.1, shuffle=0.4),
            offline={1: (200, 450)},
            link_faults=FaultPlan.chaos(
                13, drop=0.25, duplicate=0.2, delay=0.25, max_delay=3
            ),
            edge_restarts={0: 350},
            gateway_restarts=(500,),
        )
        rebuilt, report = run_ingest(facility.traces, 300, str(tmp_path), plan=plan)
        assert_traces_identical(rebuilt, facility.traces)
        assert report.gateway_stats["restarts"] == 1
        assert any(stats["restarts"] for stats in report.edge_stats)
        assert report.gateway_stats["duplicate_batches"] > 0
        assert report.recovery_rounds is not None
        assert report.edge_gauges["late_readings"] == 0  # seals were held

    @staticmethod
    def busy_edge(trace) -> int:
        """The edge whose reader has the most readings after t=300 —
        taking *it* offline guarantees a late-landing burst."""
        readers = VendorFeed.split_trace(trace)
        return max(
            range(len(readers)),
            key=lambda i: int(
                ((trace.readers == readers[i]) & (trace.times >= 300)).sum()
            ),
        )

    def test_forced_seals_surface_late_arrivals_gracefully(
        self, facility, tmp_path
    ):
        # An offline reader plus a tight max_lag forces seals past its
        # backlog; the burst replay then lands late. Degradation is
        # counted and bounded — never a crash, never a stall.
        plan = EdgePlan(
            seed=3, offline={self.busy_edge(facility.traces[0]): (150, 700)}
        )
        rebuilt, report = run_ingest(
            facility.traces, 300, str(tmp_path), plan=plan, max_lag=50
        )
        assert report.gateway_stats["forced_seals"] > 0
        assert report.edge_gauges["late_readings"] > 0
        lost = report.edge_gauges["late_dropped"]
        assert lost > 0  # drop policy: late readings are gone
        assert report.readings == sum(len(t.times) for t in facility.traces) - lost

    def test_rerun_policy_recovers_recent_late_windows(self, facility, tmp_path):
        plan = EdgePlan(
            seed=3, offline={self.busy_edge(facility.traces[0]): (150, 700)}
        )
        rebuilt, report = run_ingest(
            facility.traces,
            300,
            str(tmp_path),
            plan=plan,
            max_lag=50,
            late_policy="rerun",
            rerun_window=100,
        )
        # A rerun window covering the whole offline lag recovers every
        # late reading: the rebuilt traces converge despite forced seals.
        assert report.gateway_stats["forced_seals"] > 0
        assert report.edge_gauges["window_reruns"] > 0
        assert report.edge_gauges["late_dropped"] == 0
        assert_traces_identical(rebuilt, facility.traces)


class TestCareFacility:
    def test_exit_monitoring_through_the_edge_plane(self, tmp_path):
        scenario = care_facility_scenario(seed=11)
        rebuilt, _ = run_ingest(
            scenario.traces,
            300,
            str(tmp_path),
            plan=EdgePlan(
                seed=11, noise=FeedNoise(duplicate=0.2, junk=0.1, shuffle=0.3)
            ),
        )
        assert_traces_identical(rebuilt, scenario.traces)
        config = ServiceConfig(
            run_interval=300, emit_events=True, event_period=5
        )
        with Cluster(rebuilt, config) as cluster:
            cluster.add_query(
                "exit-dwell",
                lambda site: DwellTimeQuery(scenario.dwell_limit),
            )
            cluster.run(scenario.horizon)
            violations = [
                v
                for node in cluster.nodes
                for v in node.queries["exit-dwell"].violations()
            ]
        at_exit = scenario.exit_violations(violations)
        flagged = {v[0] for v in at_exit}
        assert {tag for tag, _ in scenario.wanderers} <= flagged
        assert not flagged & {tag for tag, _ in scenario.returners}
