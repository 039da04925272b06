"""Tests for the RFINFER engine: correctness, optimizations, locations."""

import numpy as np
import pytest

from repro.core.likelihood import TraceWindow
from repro.core.rfinfer import InferenceConfig, RFInfer
from repro.metrics.accuracy import containment_error_rate, location_error_rate
from repro.sim.tags import EPC, TagKind
from repro.sim.trace import Trace


@pytest.fixture(scope="module")
def result(small_chain):
    window = TraceWindow.from_range(small_chain.trace, 0, 900)
    return RFInfer(window).run()


class TestContainment:
    def test_high_accuracy_at_default_rates(self, small_chain, result):
        err = containment_error_rate(small_chain.truth, result.containment, 899)
        assert err <= 0.10

    def test_every_item_with_candidates_assigned(self, result):
        for obj, cands in result.candidates.items():
            if cands:
                assert result.containment[obj] is not None

    def test_weights_present_for_all_candidates(self, result):
        for obj, cands in result.candidates.items():
            for cand in cands:
                assert cand in result.weights[obj]

    def test_assignment_is_argmax_of_weights(self, result):
        for obj, weights in result.weights.items():
            if not weights:
                continue
            best = max(weights, key=weights.__getitem__)
            assert result.containment[obj] == best

    def test_members_consistent_with_containment(self, result):
        for container, members in result.members.items():
            for obj in members:
                assert result.containment[obj] == container

    def test_exact_tie_goes_to_first_candidate(self, small_chain):
        """Twin tags (identical readings) make both objects score both
        containers identically; each takes the first in its candidate
        list, and from there EM settles both into that container."""
        trace = small_chain.trace
        case = trace.tags(TagKind.CASE)[0]
        item = trace.tags(TagKind.ITEM)[0]
        times, tag_ids, readers = [trace.times], [trace.tag_ids], [trace.readers]
        table = list(trace.tag_table)
        twins = {}
        for tag in (case, item):
            twins[tag] = EPC(tag.kind, tag.serial + 10**6)
            tag_times, tag_readers = trace.tag_readings(tag)
            times.append(tag_times)
            readers.append(tag_readers)
            tag_ids.append(np.full(tag_times.size, len(table)))
            table.append(twins[tag])
        doubled = Trace.from_columns(
            trace.site, trace.layout, trace.model, np.concatenate(times),
            np.concatenate(tag_ids), np.concatenate(readers), table, trace.horizon,
        )
        window = TraceWindow.from_range(doubled, 0, 600)
        objects = [item, twins[item]]
        for order in ([case, twins[case]], [twins[case], case]):
            out = RFInfer(
                window,
                InferenceConfig(candidate_pruning=False),
                objects=objects,
                containers=order,
                initial_containment={item: case, twins[item]: twins[case]},
            ).run()
            assert out.containment == {obj: order[0] for obj in objects}


class TestLocations:
    def test_location_error_low(self, small_chain, result):
        err = location_error_rate(small_chain.truth, result, 0)
        assert err <= 0.05

    def test_location_rows_in_domain(self, result):
        tag = result.window.tags(TagKind.CASE)[0]
        rows = result.location_rows(tag)
        n = result.window.n_locations
        assert ((rows >= -1) & (rows < n)).all()

    def test_items_follow_their_container(self, result):
        container, members = next(
            (c, m) for c, m in result.members.items() if m
        )
        np.testing.assert_array_equal(
            result.location_rows(members[0]),
            result.container_location_rows(container),
        )

    def test_location_at_accessor(self, result):
        tag = result.window.tags(TagKind.CASE)[0]
        epoch = int(result.window.epochs[10])
        assert result.location_at(tag, epoch) == result.location_rows(tag)[10]


class TestConfigAndMasks:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            InferenceConfig(max_iterations=0)
        with pytest.raises(ValueError):
            InferenceConfig(n_candidates=0)

    def test_keep_evidence_off_skips_arrays(self, small_chain):
        window = TraceWindow.from_range(small_chain.trace, 0, 400)
        out = RFInfer(window, InferenceConfig(keep_evidence=False)).run()
        assert out.evidence is None

    def test_object_ranges_restrict_evidence(self, small_chain):
        window = TraceWindow.from_range(small_chain.trace, 0, 600)
        items = window.tags(TagKind.ITEM)
        obj = items[0]
        out = RFInfer(
            window, objects=items, object_ranges={obj: [(100, 300)]}
        ).run()
        evidence = out.evidence[obj]
        mask = window.rows_in_ranges([(100, 300)])
        for cand, arr in evidence.items():
            assert (arr[~mask] == 0).all()
            # Eq. (5): the weight is the evidence summed over the range.
            assert out.weights[obj][cand] == pytest.approx(arr.sum(), rel=1e-9)

    def test_memoization_does_not_change_answers(self, small_chain):
        window = TraceWindow.from_range(small_chain.trace, 0, 600)
        on = RFInfer(window, InferenceConfig(memoize=True)).run()
        off = RFInfer(window, InferenceConfig(memoize=False)).run()
        assert on.containment == off.containment
        for obj in on.weights:
            for cand, w in on.weights[obj].items():
                assert w == pytest.approx(off.weights[obj][cand], rel=1e-9)

    def test_prior_weights_can_override(self, small_chain):
        window = TraceWindow.from_range(small_chain.trace, 0, 600)
        items = window.tags(TagKind.ITEM)
        cases = window.tags(TagKind.CASE)
        obj = items[0]
        base = RFInfer(window, objects=[obj], containers=cases).run()
        honest = base.containment[obj]
        rival = next(c for c in base.candidates[obj] if c != honest)
        # A migrated prior that heavily penalizes everything but the
        # rival must win. (Unlisted candidates inherit the prior floor —
        # the worst listed value — so the rival's 0 dominates.)
        out = RFInfer(
            window,
            objects=[obj],
            containers=cases,
            prior_weights={obj: {rival: 0.0, honest: -1e9}},
        ).run()
        assert out.containment[obj] == rival

    def test_initial_containment_respected_on_first_iteration(self, small_chain):
        window = TraceWindow.from_range(small_chain.trace, 0, 600)
        items = window.tags(TagKind.ITEM)[:5]
        out = RFInfer(
            window,
            InferenceConfig(max_iterations=5),
            objects=items,
        ).run()
        assert out.iterations >= 1
