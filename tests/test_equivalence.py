"""Equivalence proofs for the batched inference engine.

:mod:`repro.core.rfinfer` is the only inference executor. Two references
pin it down:

* **Golden fixtures** (``tests/data/inference_golden.json``): the full
  periodic service on three workload scenarios — critical-region
  truncation on a clean chain, change detection + events on an
  anomalous chain, sliding-window truncation — and a chaos-seed
  federation run that adds migrations, query state and the Table-5
  ledger. Discrete outputs (containment, iterations, change points,
  critical regions, the event stream, alerts, migrations, ledger bytes)
  must match exactly; floats (weights, change scores, containment
  error, alert values) to ``rel=1e-9``, which absorbs BLAS
  summation-order differences between machines.
* **The naive Algorithm 1** (``tests/oracles/algorithm1.py``): kernel
  checks on a real warehouse window, with evidence masks and migrated
  priors, plus the critical-region search.

How the fixture was produced: ``PYTHONPATH=src python
tests/test_equivalence.py`` rewrites it from whatever ``src/`` is on the
path. The committed file was written from commit 81b4868, the last tree
that shipped the per-pair M-step/evidence loop (``batched=False``)
beside the batched kernels, where this suite proved the two identical;
that tree and every later one pass these tests unchanged.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.likelihood import TraceWindow, WindowCache
from repro.core.rfinfer import InferenceConfig, RFInfer
from repro.core.service import ServiceConfig, StreamingInference
from repro.core.truncation import find_critical_regions
from repro.sim.tags import TagKind

from chaos import CHAOS_CONFIG, chaos_scenario, chaos_transport, run_chaos
from oracles.algorithm1 import algorithm1, critical_region

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "inference_golden.json")

SCENARIO_CONFIGS = {
    "cr-clean": ServiceConfig(
        run_interval=300, recent_history=600, truncation="cr", emit_events=True
    ),
    "changes-anomalies": ServiceConfig(
        run_interval=300,
        recent_history=600,
        truncation="cr",
        change_detection=True,
        change_threshold=80.0,
        emit_events=True,
        event_period=5,
    ),
    "sliding-window": ServiceConfig(
        run_interval=300,
        recent_history=600,
        truncation="window",
        window_size=900,
        emit_events=True,
        event_period=10,
    ),
}

#: which conftest chain, and horizon, each scenario runs on.
SCENARIO_INPUTS = {
    "cr-clean": ("small_chain", 900),
    "changes-anomalies": ("anomaly_chain", 1500),
    "sliding-window": ("anomaly_chain", 1500),
}


# -- canonical, JSON-shaped digests of a run ---------------------------------


def _tag(tag) -> str | None:
    return None if tag is None else str(tag)


def _containment(containment) -> dict:
    return {str(tag): _tag(c) for tag, c in sorted(containment.items())}


def _change(change) -> list:
    return [
        str(change.tag),
        change.time,
        _tag(change.old_container),
        _tag(change.new_container),
        change.score,
    ]


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def service_digest(trace, config: ServiceConfig, horizon: int) -> dict:
    service = StreamingInference(trace, config)
    service.run_until(horizon)
    return {
        "runs": [
            {"containment": _containment(r.containment), "iterations": r.iterations}
            for r in service.runs
        ],
        "changes": [_change(c) for c in service.changes],
        "critical_regions": {
            str(tag): [r.start, r.end]
            for tag, r in sorted(service.critical_regions.items())
        },
        "events_sha256": _sha256(
            f"{e.time} {e.tag} {e.site} {e.place} {_tag(e.container)}"
            for e in service.events
        ),
        "last_weights": {
            str(tag): {str(c): w for c, w in sorted(weights.items())}
            for tag, weights in sorted(service.last_weights.items())
        },
    }


def federation_digest(result) -> dict:
    return {
        "containment_error": result.containment_error,
        "snapshots_sha256": _sha256(
            f"{time} {[(str(t), _tag(c)) for t, c in containment]} "
            f"{[str(t) for t in known]}"
            for time, containment, known in result.snapshots
        ),
        "alerts": [[key, start, end, list(vals)] for key, start, end, vals in result.alerts],
        "changes": [_change(c) for c in result.changes],
        "migrations": [
            [str(m.tag), m.src, m.dst, m.time, m.bytes_sent] for m in result.migrations
        ],
        "data_bytes": dict(sorted(result.data_bytes.items())),
        "all_bytes": dict(sorted(result.all_bytes.items())),
    }


def assert_matches(got, want, path: str = "") -> None:
    """Exact on everything but floats, which compare to ``rel=1e-9``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (mine, theirs) in enumerate(zip(got, want)):
            assert_matches(mine, theirs, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9), path
    else:
        assert got == want and type(got) is type(want), path


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def service_digests(request):
    cache: dict = {}

    def digest(name: str) -> dict:
        if name not in cache:
            chain, horizon = SCENARIO_INPUTS[name]
            trace = request.getfixturevalue(chain).trace
            cache[name] = service_digest(trace, SCENARIO_CONFIGS[name], horizon)
        return cache[name]

    return digest


class TestServiceEquivalence:
    """The full periodic service against the frozen per-scenario digests."""

    @pytest.mark.parametrize("name", sorted(SCENARIO_CONFIGS))
    def test_discrete_outputs_identical(self, name, service_digests, golden):
        got, want = service_digests(name), golden["services"][name]
        assert got["runs"] == want["runs"]
        assert [c[:4] for c in got["changes"]] == [c[:4] for c in want["changes"]]
        assert got["critical_regions"] == want["critical_regions"]
        assert got["events_sha256"] == want["events_sha256"]

    @pytest.mark.parametrize("name", sorted(SCENARIO_CONFIGS))
    def test_weights_match_to_rounding(self, name, service_digests, golden):
        got, want = service_digests(name), golden["services"][name]
        assert_matches(got["last_weights"], want["last_weights"], "last_weights")
        assert_matches(got["changes"], want["changes"], "changes")


class TestKernelEquivalence:
    """The engine against the naive Algorithm 1 on a warehouse window."""

    @pytest.fixture(scope="class")
    def window(self, small_chain):
        return TraceWindow.from_range(small_chain.trace, 0, 900)

    @staticmethod
    def _against_oracle(window, config=None, **inputs):
        fast = RFInfer(window, config or InferenceConfig(), **inputs).run()
        slow = algorithm1(
            window.trace,
            window.epochs,
            inputs["objects"],
            fast.candidates,
            initial=inputs.get("initial_containment"),
            prior_weights=inputs.get("prior_weights"),
            object_ranges=inputs.get("object_ranges"),
            pinned=inputs.get("pinned"),
        )
        assert fast.containment == slow.containment
        assert fast.iterations == slow.iterations
        for obj, per_candidate in slow.weights.items():
            assert list(fast.weights[obj]) == list(per_candidate)
            for cand, weight in per_candidate.items():
                assert fast.weights[obj][cand] == pytest.approx(weight, rel=1e-9)
        return fast, slow

    def test_masked_run_evidence_matches(self, window):
        objects = window.tags(TagKind.ITEM)[:12]
        ranges = {obj: [(100, 700)] for obj in objects[::2]}
        fast, slow = self._against_oracle(window, objects=objects, object_ranges=ranges)
        assert fast.evidence is not None
        for obj, tracks in slow.evidence.items():
            assert list(fast.evidence[obj]) == list(tracks)
            for cand, arr in tracks.items():
                np.testing.assert_allclose(fast.evidence[obj][cand], arr, rtol=1e-12)

    def test_prior_weights_run_matches(self, window):
        objects = window.tags(TagKind.ITEM)[:12]
        containers = window.tags(TagKind.CASE)
        prior = {containers[0]: -3.0, containers[-1]: -1.0}
        priors = {obj: dict(prior) for obj in objects[:7]}
        self._against_oracle(window, objects=objects, prior_weights=priors)

    def test_batched_matches_naive_algorithm1(self, window):
        objects = window.tags(TagKind.ITEM)[:10]
        containers = window.tags(TagKind.CASE)
        fast, slow = self._against_oracle(
            window,
            InferenceConfig(candidate_pruning=False),
            objects=objects,
            containers=containers,
            initial_containment={obj: containers[0] for obj in objects},
        )
        for container, q in slow.posteriors.items():
            np.testing.assert_allclose(fast.posteriors[container], q, atol=1e-9)

    def test_log_likelihood_memo_matches_recompute(self, window):
        objects = window.tags(TagKind.ITEM)[:10]
        fast, slow = self._against_oracle(window, objects=objects)
        memoized = fast.log_likelihood()
        fast._logz_cache.clear()  # force the from-scratch path
        assert memoized == pytest.approx(fast.log_likelihood(), rel=1e-12)
        assert memoized == pytest.approx(slow.log_likelihood, rel=1e-12)


class TestWindowEquivalence:
    """Incremental windows must be bitwise identical to cold builds."""

    def test_window_cache_reuse_is_bitwise(self, small_chain):
        cache = WindowCache(small_chain.trace)
        first = cache.window(np.arange(0, 600))
        # Overlapping slide plus a disjoint critical region.
        epochs = np.concatenate([np.arange(40, 80), np.arange(300, 900)])
        warm = cache.window(epochs)
        cold = TraceWindow(small_chain.trace, epochs)
        assert warm.base_rows_reused > 0
        np.testing.assert_array_equal(warm.epochs, cold.epochs)
        np.testing.assert_array_equal(warm.base, cold.base)
        assert set(warm.readings) == set(cold.readings)
        for tag, (rows, readers) in warm.readings.items():
            np.testing.assert_array_equal(rows, cold.readings[tag][0])
            np.testing.assert_array_equal(readers, cold.readings[tag][1])
        assert first.base_rows_reused == 0

    def test_window_cache_subset_reuse(self, small_chain):
        """A window that is a strict subset of the previous one must
        gather the matching rows, not alias the larger base matrix."""
        cache = WindowCache(small_chain.trace)
        cache.window(np.arange(0, 600))
        warm = cache.window(np.arange(100, 400))
        cold = TraceWindow(small_chain.trace, np.arange(100, 400))
        assert warm.base.shape == cold.base.shape
        np.testing.assert_array_equal(warm.base, cold.base)
        assert warm.base_rows_reused == warm.n_rows

    def test_cr_search_matches_oracle(self, anomaly_chain):
        service = StreamingInference(
            anomaly_chain.trace,
            ServiceConfig(
                run_interval=300,
                recent_history=600,
                truncation="cr",
                emit_events=False,
                retain_evidence=True,
            ),
        )
        service.run_until(1500)
        found = 0
        for record in service.runs:
            if record.result is None or record.result.evidence is None:
                continue
            result = record.result
            regions = find_critical_regions(result, list(result.evidence))
            for obj, tracks in result.evidence.items():
                want = critical_region(tracks, result.window.epochs)
                got = regions.get(obj)
                assert (None if got is None else got.as_range()) == want
                found += want is not None
        assert found > 0


class TestFederationEquivalence:
    """A chaos-seed federation run against its frozen digest.

    Everything observable — containment error, snapshots, alerts,
    detected changes, migrations, and the Table-5 per-kind ledger byte
    counts — must match, and a seeded faulty transport must converge to
    the same answers.
    """

    @pytest.fixture(scope="class")
    def results(self):
        scenario = chaos_scenario()
        clean = run_chaos(scenario, CHAOS_CONFIG)
        chaotic = run_chaos(scenario, CHAOS_CONFIG, transport=chaos_transport(101))
        return clean, chaotic

    def test_federation_outputs_identical(self, results, golden):
        got, want = federation_digest(results[0]), golden["federation"]
        for key in (
            "containment_error", "snapshots_sha256", "alerts", "changes", "migrations"
        ):
            assert_matches(got[key], want[key], key)

    def test_table5_ledger_bytes_identical(self, results, golden):
        got, want = federation_digest(results[0]), golden["federation"]
        assert got["data_bytes"] == want["data_bytes"]
        assert got["all_bytes"] == want["all_bytes"]

    def test_chaos_transport_still_converges(self, results):
        clean, chaotic = results
        assert chaotic.containment_error == clean.containment_error
        assert chaotic.alerts == clean.alerts
        assert chaotic.changes == clean.changes
        assert chaotic.data_bytes == clean.data_bytes
        assert chaotic.overhead_bytes > 0


if __name__ == "__main__":
    from conftest import ANOMALY_CHAIN, SMALL_CHAIN

    from repro.sim.supplychain import simulate

    chains = {
        "small_chain": simulate(SMALL_CHAIN),
        "anomaly_chain": simulate(ANOMALY_CHAIN),
    }
    frozen = {
        "services": {
            name: service_digest(chains[chain].trace, SCENARIO_CONFIGS[name], horizon)
            for name, (chain, horizon) in sorted(SCENARIO_INPUTS.items())
        },
        "federation": federation_digest(run_chaos(chaos_scenario(), CHAOS_CONFIG)),
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
