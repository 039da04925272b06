"""Tests for the distributed layer: network, ONS, tag memory, sharing,
multi-site `Cluster` runs, and the centralized baseline."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.service import ServiceConfig
from repro.distributed.centralized import CentralizedDeployment, merge_sites
from repro.distributed.network import Network
from repro.distributed.ons import ObjectNamingService
from repro.distributed.sharing import (
    SharedStateBundle,
    apply_diff,
    byte_distance,
    centroid_compress,
    state_diff,
)
from repro.distributed.tagmem import TagMemory, TagMemoryError
from repro.runtime import Cluster
from repro.sim.tags import EPC, TagKind


class TestNetwork:
    def test_accounting(self):
        net = Network()
        net.send(0, 1, "x", b"12345")
        net.send(1, 0, "x", b"123")
        net.send(0, 2, "y", b"1")
        assert net.bytes_by_kind["x"] == 8
        assert net.total_bytes() == 9
        assert net.total_messages() == 3

    def test_optional_log(self):
        net = Network(keep_log=True)
        net.send(0, 1, "x", b"a")
        assert len(net.log) == 1 and net.log[0].payload == b"a"

    def test_per_link_counters(self):
        net = Network()
        net.send(0, 1, "x", b"12345")
        net.send(0, 1, "y", b"123")
        net.send(1, 0, "x", b"12")
        net.send(0, -2, "ons-lookup", b"1")
        assert net.link_bytes(0, 1) == 8
        assert net.link_messages(0, 1) == 2
        assert net.link_bytes(1, 0) == 2
        assert net.links() == [(0, -2), (0, 1), (1, 0)]
        assert net.per_link_rows() == [(0, -2, 1, 1), (0, 1, 2, 8), (1, 0, 1, 2)]
        # per-link totals and per-kind totals agree
        assert sum(net.bytes_by_link.values()) == net.total_bytes()
        assert sum(net.messages_by_link.values()) == net.total_messages()


class TestONS:
    def test_lookup_and_update(self):
        net = Network()
        ons = ObjectNamingService(net)
        tag = EPC(TagKind.ITEM, 7)
        assert ons.lookup(tag, asking_site=1) is None
        ons.update(tag, 0)
        assert ons.lookup(tag, asking_site=1) == 0
        assert net.messages_by_kind["ons-update"] == 1
        assert net.messages_by_kind["ons-lookup"] == 2


class TestTagMemory:
    def test_write_read(self):
        mem = TagMemory(capacity_bytes=64)
        tag = EPC(TagKind.ITEM, 0)
        mem.write(tag, "inference", b"x" * 40)
        assert mem.read(tag, "inference") == b"x" * 40
        assert mem.used(tag) == 40

    def test_capacity_enforced(self):
        mem = TagMemory(capacity_bytes=64)
        tag = EPC(TagKind.ITEM, 0)
        mem.write(tag, "a", b"x" * 40)
        with pytest.raises(TagMemoryError):
            mem.write(tag, "b", b"y" * 40)
        # Overwriting the same section frees its old bytes first.
        mem.write(tag, "a", b"z" * 60)
        assert mem.used(tag) == 60


class TestSharing:
    @given(
        base=st.binary(min_size=0, max_size=60),
        target=st.binary(min_size=0, max_size=60),
    )
    @settings(max_examples=50)
    def test_diff_round_trip(self, base, target):
        assert apply_diff(base, state_diff(base, target)) == target

    def test_byte_distance_zero_for_identical(self):
        assert byte_distance(b"abcdef", b"abcdef") == 0
        assert byte_distance(b"", b"abc") == 3

    def test_centroid_bundle_lossless(self):
        states = {
            EPC(TagKind.ITEM, i): bytes([1, 2, 3, i, 5, 6, 7, 8]) for i in range(6)
        }
        bundle = centroid_compress(states)
        assert bundle.reconstruct() == states

    def test_sharing_compresses_similar_states(self):
        common = bytes(range(48))
        states = {
            EPC(TagKind.ITEM, i): common + bytes([i]) for i in range(12)
        }
        bundle = centroid_compress(states)
        raw = sum(len(s) for s in states.values())
        assert bundle.byte_size() < raw / 2

    def test_bundle_wire_round_trip(self):
        states = {EPC(TagKind.ITEM, i): bytes([i] * 10) for i in range(3)}
        bundle = centroid_compress(states)
        back = SharedStateBundle.from_bytes(bundle.to_bytes())
        assert back.reconstruct() == states

    def test_large_bundle_lossless_and_deterministic(self):
        # Above _EXACT_SELECTION_LIMIT the centroid is chosen from a
        # stride sample; the bundle must stay lossless, deterministic,
        # and still well-compressed for similar states.
        common = bytes(range(64))
        states = {
            EPC(TagKind.ITEM, i): common + bytes([i % 256, (i * 7) % 256])
            for i in range(100)
        }
        bundle = centroid_compress(states)
        assert bundle.reconstruct() == states
        assert bundle.to_bytes() == centroid_compress(dict(states)).to_bytes()
        raw = sum(len(s) for s in states.values())
        assert bundle.byte_size() < raw / 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            centroid_compress({})

    @pytest.mark.parametrize(
        "data",
        [
            # ITEM-1 centroid "ab", one diff for ITEM-2 ... then a stray byte.
            bytes([2, 1, 2, 97, 98, 1, 2, 2, 1, 2, 0]),
            # ITEM-2 listed twice.
            bytes([2, 1, 2, 97, 98, 2, 2, 2, 1, 2, 2, 2, 1, 2]),
            # A diff entry for the centroid's own tag.
            bytes([2, 1, 2, 97, 98, 1, 2, 1, 1, 2]),
        ],
    )
    def test_bundle_with_leftovers_or_repeated_tags_rejected(self, data):
        good = bytes([2, 1, 2, 97, 98, 1, 2, 2, 1, 2])
        assert SharedStateBundle.from_bytes(good).reconstruct() == {
            EPC(TagKind.ITEM, 1): b"ab",
            EPC(TagKind.ITEM, 2): b"ab",
        }
        with pytest.raises(ValueError):
            SharedStateBundle.from_bytes(data)


def zero_heavy(rng, size):
    """Bytes shaped like serialized automaton state: mostly zero (small
    varints, float padding) — the content difflib went cubic on."""
    return bytes(rng.choice([0, 0, 0, 0, 0, 0, 1, 63, 240]) for _ in range(size))


def edited(rng, state, edits):
    out = bytearray(state)
    for _ in range(edits):
        at = rng.randrange(len(out))
        out[at : at + rng.randrange(1, 9)] = zero_heavy(rng, rng.randrange(9))
    return bytes(out)


def states_digest(states):
    digest = hashlib.sha256()
    for tag in sorted(states):
        digest.update(str(tag).encode())
        digest.update(len(states[tag]).to_bytes(4, "big"))
        digest.update(states[tag])
    return digest.hexdigest()


def frozen_bundles():
    path = os.path.join(os.path.dirname(__file__), "data", "state_bundles.json")
    with open(path) as fh:
        return json.load(fh)["bundles"]


class TestDeltaEncoder:
    """The block matcher behind ``state_diff`` / ``centroid_compress``:
    cost bounded by input size, output a pure function of the mapping,
    wire format readable by (and from) the encoder it replaced."""

    def test_cost_is_bounded_by_size_not_content(self):
        """The difflib encoder took 10 s for this diff and 106 s for this
        bundle; the block matcher takes 3 ms and 0.2 s on the same box.
        The ceilings leave ~50x headroom for a slow runner, and a
        quadratic slip would still blow through them."""
        rng = random.Random(5)
        base = zero_heavy(rng, 8192)
        target = edited(rng, base, 40)
        began = time.perf_counter()
        diff = state_diff(base, target)
        unrelated = state_diff(base, zero_heavy(rng, 8192))
        assert time.perf_counter() - began < 2.0
        assert apply_diff(base, diff) == target
        assert len(diff) < len(target) / 2 and len(unrelated) <= 8192 + 3

        shared = zero_heavy(rng, 1024)
        states = {EPC(TagKind.ITEM, i): edited(rng, shared, 6) for i in range(32)}
        began = time.perf_counter()
        bundle = centroid_compress(states)
        assert time.perf_counter() - began < 10.0
        assert bundle.reconstruct() == states
        assert bundle.byte_size() < sum(map(len, states.values())) / 2

    def test_bundle_ignores_insertion_order(self):
        rng = random.Random(9)
        shared = zero_heavy(rng, 200)
        items = [(EPC(TagKind.ITEM, i), edited(rng, shared, i % 4)) for i in range(40)]
        reference = centroid_compress(dict(items)).to_bytes()
        for _ in range(5):
            rng.shuffle(items)
            assert centroid_compress(dict(items)).to_bytes() == reference

    def test_bundle_ignores_hash_seed(self):
        script = (
            "import random\n"
            "from repro.distributed.sharing import centroid_compress\n"
            "from repro.sim.tags import EPC, TagKind\n"
            "rng = random.Random(3)\n"
            "states = {EPC(TagKind.ITEM, i): bytes(rng.choice([0, 0, 0, 1, 63, 240])"
            " for _ in range(120)) * (1 + i % 2) for i in range(40)}\n"
            "print(centroid_compress(states).to_bytes().hex())\n"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1 and outputs.pop().strip()

    def test_modal_state_is_the_centroid_and_copies_cost_one_byte(self):
        """Quiescent automata: most objects hold the same bytes. Counting
        each distinct state once would pick a straggler (the three are
        each other's near-copies); weighting by holders picks the modal
        state, and each of its copies ships as the one-byte opcode."""
        quiescent = bytes(range(40))
        busy = random.Random(4).randbytes(90)
        stragglers = {EPC(TagKind.ITEM, i): busy + bytes([i]) for i in range(3)}
        states = {EPC(TagKind.ITEM, 10 + i): quiescent for i in range(9)} | stragglers
        bundle = centroid_compress(states)
        assert bundle.centroid_state == quiescent
        assert bundle.centroid_tag == EPC(TagKind.ITEM, 10)
        assert [
            diff for tag, diff in bundle.diffs.items() if states[tag] == quiescent
        ] == [b"\x02"] * 8
        assert bundle.reconstruct() == states

    def test_selection_is_exact_for_few_distinct_states(self):
        """No other choice of centroid gives a smaller bundle."""
        rng = random.Random(21)
        shared = zero_heavy(rng, 300)
        pool = [edited(rng, shared, 1 + i) for i in range(6)]
        states = {EPC(TagKind.CASE, i): pool[rng.randrange(6)] for i in range(40)}
        best = min(
            SharedStateBundle(
                centroid,
                states[centroid],
                {t: state_diff(states[centroid], s) for t, s in states.items() if t != centroid},
            ).byte_size()
            for centroid in states
        )
        assert centroid_compress(states).byte_size() == best

    @pytest.mark.parametrize("frozen", frozen_bundles(), ids=lambda f: f["name"])
    def test_bundles_of_the_difflib_encoder_still_decode(self, frozen):
        states = SharedStateBundle.from_bytes(bytes.fromhex(frozen["bundle"])).reconstruct()
        assert len(states) == frozen["objects"]
        assert states_digest(states) == frozen["states_sha256"]

    def test_real_states_bundle_no_larger_than_before(self):
        """Collapsed weights and automaton states from ``multi_site_chain``
        (see data/state_bundles.json): 6 486 B is what the difflib
        encoder made of these three bundles."""
        old_total = new_total = 0
        for frozen in frozen_bundles():
            old = bytes.fromhex(frozen["bundle"])
            states = SharedStateBundle.from_bytes(old).reconstruct()
            new = centroid_compress(states)
            assert new.reconstruct() == states
            old_total += len(old)
            new_total += new.byte_size()
        assert old_total == 6486
        assert new_total <= 6486


@pytest.fixture(scope="module")
def deployments(multi_site_chain):
    config = ServiceConfig(run_interval=300, recent_history=600,
                           truncation="cr", emit_events=False)
    out = {}
    for strategy in ("none", "collapsed"):
        cluster = Cluster(multi_site_chain.traces, config, strategy=strategy)
        cluster.run(multi_site_chain.params.horizon)
        out[strategy] = cluster
    central = CentralizedDeployment(multi_site_chain, config)
    central.run()
    out["centralized"] = central
    return out


def error(deployments, name, chain):
    if name == "centralized":
        return deployments[name].containment_error()
    return deployments[name].containment_error(chain.truth)


class TestDistributed:
    def test_none_ships_zero_bytes(self, deployments):
        assert deployments["none"].communication_bytes() == 0

    def test_collapsed_beats_none_on_accuracy(self, deployments, multi_site_chain):
        assert (
            error(deployments, "collapsed", multi_site_chain)
            <= error(deployments, "none", multi_site_chain) + 1e-9
        )

    def test_cluster_surface(self, deployments, multi_site_chain):
        cluster = deployments["collapsed"]
        assert len(cluster.services) == len(multi_site_chain.traces) == 3
        assert cluster.migrations
        assert cluster.snapshots
        assert cluster.communication_bytes() > 0
        assert 0.0 <= error(deployments, "collapsed", multi_site_chain) <= 1.0

    def test_collapsed_far_cheaper_than_centralized(self, deployments):
        collapsed = deployments["collapsed"].communication_bytes()
        central = deployments["centralized"].communication_bytes()
        assert 0 < collapsed < central

    def test_migrations_recorded(self, deployments):
        migrations = deployments["collapsed"].migrations
        assert migrations
        for event in migrations[:20]:
            assert event.src != event.dst
            assert event.bytes_sent > 0

    def test_centralized_accuracy_best_or_close(self, deployments, multi_site_chain):
        assert error(deployments, "centralized", multi_site_chain) <= (
            error(deployments, "none", multi_site_chain) + 0.05
        )


class TestMergeSites:
    def test_merged_trace_preserves_readings(self, multi_site_chain):
        trace, truth, offsets = merge_sites(multi_site_chain)
        assert len(trace) == sum(len(t) for t in multi_site_chain.traces)
        assert offsets[0] == 0
        assert trace.layout.n_locations == sum(
            l.n_locations for l in multi_site_chain.layouts
        )

    def test_truth_remapped_consistently(self, multi_site_chain):
        trace, truth, offsets = merge_sites(multi_site_chain)
        tag = multi_site_chain.truth.cases()[0]
        for probe in (50, 400, 900):
            original = multi_site_chain.truth.location_at(tag, probe)
            merged = truth.location_at(tag, probe)
            if original.site < 0:
                assert merged.site < 0
            else:
                assert merged.place == offsets[original.site] + original.place
