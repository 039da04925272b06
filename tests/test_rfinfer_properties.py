"""Property-based validation of the optimized RFINFER engine.

The optimized engine (pattern caching, batched gathers and scatter-adds,
memoization) must agree with the naive line-by-line Algorithm 1 in
``tests/oracles/algorithm1.py`` on any input, and the EM loop must not
decrease the likelihood it maximizes (Theorem 1).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.rng import spawn_rng
from repro.core.likelihood import TraceWindow
from repro.core.rfinfer import InferenceConfig, RFInfer
from repro.sim.layout import warehouse_layout
from repro.sim.readers import ObservationSampler, ReadRateModel
from repro.sim.tags import EPC, TagKind
from repro.sim.trace import Location
from repro.sim.world import World

from oracles.algorithm1 import algorithm1


def tiny_world(seed: int, n_cases: int, items_per_case: int, horizon: int):
    """A random little warehouse journey with known containment."""
    rng = spawn_rng(seed, "tiny")
    layout = warehouse_layout(name=f"tiny-{seed}", n_shelves=2)
    model = ReadRateModel.build(layout, main_rate=0.8, overlap_rate=0.5, seed=seed)
    world = World()
    serial = 0
    for c in range(n_cases):
        case = EPC(TagKind.CASE, c)
        world.register(case, 0, location=Location(0, layout.entry))
        for _ in range(items_per_case):
            item = EPC(TagKind.ITEM, serial)
            serial += 1
            world.register(item, 0, container=case)
            world.move(item, 0, Location(0, layout.entry))
        t_belt = 5 + c * 5
        world.move(case, t_belt, Location(0, layout.belt))
        shelf = int(rng.choice(layout.shelf_indices))
        world.move(case, t_belt + 5, Location(0, shelf))
    world.truth.horizon = horizon
    trace = ObservationSampler(seed=spawn_rng(seed, "tiny-sampler")).sample_site(
        world.truth, 0, layout, model, horizon
    )
    return world, trace


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_cases=st.integers(2, 3),
    items_per_case=st.integers(1, 3),
)
def test_optimized_matches_reference(seed, n_cases, items_per_case):
    """Optimized RFINFER == naive Algorithm 1 on random small worlds,
    every object scoring every container over the whole window."""
    world, trace = tiny_world(seed, n_cases, items_per_case, horizon=60)
    window = TraceWindow.from_range(trace, 0, 60)
    objects = window.tags(TagKind.ITEM)
    containers = window.tags(TagKind.CASE)
    if not objects or len(containers) < 2:
        return
    initial = {o: containers[0] for o in objects}
    fast = RFInfer(
        window,
        InferenceConfig(candidate_pruning=False, max_iterations=10),
        objects=objects,
        containers=containers,
        initial_containment=initial,
    ).run()
    slow = algorithm1(
        trace,
        window.epochs,
        objects,
        {o: containers for o in objects},
        initial=initial,
        max_iterations=10,
    )
    assert fast.containment == slow.containment
    for obj in objects:
        for cand in containers:
            assert fast.weights[obj][cand] == pytest.approx(
                slow.weights[obj][cand], rel=1e-6, abs=1e-6
            )
    for container in containers:
        np.testing.assert_allclose(
            fast.posteriors[container], slow.posteriors[container], atol=1e-9
        )


class TestAlgorithm1Oracle:
    """The engine against the literal Algorithm 1 on random run inputs.

    Every input the service hands the engine is drawn at random: the
    container set and candidate pruning (so per-object candidate lists
    vary), evidence-range masks, migrated prior weights (exercising the
    worst-observed floor), pinned members, initial estimates and the
    iteration budget.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_cases=st.integers(2, 4),
        items_per_case=st.integers(1, 3),
        data=st.data(),
    )
    def test_engine_matches_oracle(self, seed, n_cases, items_per_case, data):
        world, trace = tiny_world(seed, n_cases, items_per_case, horizon=60)
        window = TraceWindow.from_range(trace, 0, 60)
        items = window.tags(TagKind.ITEM)
        cases = window.tags(TagKind.CASE)
        if not items or len(cases) < 2:
            return
        containers = data.draw(
            st.lists(st.sampled_from(cases), min_size=1, unique=True)
        )
        pinned = {
            obj: data.draw(st.sampled_from(cases))
            for obj in data.draw(
                st.lists(st.sampled_from(items), max_size=len(items) - 1, unique=True)
            )
        }
        objects = [obj for obj in items if obj not in pinned]
        ranges, priors, initial = {}, {}, {}
        for obj in objects:
            if data.draw(st.booleans()):
                # Ranges keep every case's belt passage (epochs 5-25):
                # without it, two cases shelved together are tied to the
                # last bit and argmax would be decided by rounding.
                start = data.draw(st.integers(0, 5))
                ranges[obj] = [(start, data.draw(st.integers(30, 60)))]
            if data.draw(st.booleans()):
                priors[obj] = data.draw(
                    st.dictionaries(
                        st.sampled_from(cases),
                        st.floats(-30.0, 0.0, allow_nan=False),
                        max_size=2,
                    )
                )
            initial[obj] = data.draw(st.sampled_from([None, *cases]))
        config = InferenceConfig(
            candidate_pruning=data.draw(st.booleans()),
            n_candidates=data.draw(st.integers(1, 3)),
            max_iterations=data.draw(st.integers(1, 10)),
        )

        fast = RFInfer(
            window,
            config,
            objects=objects,
            containers=containers,
            initial_containment=initial,
            prior_weights=priors,
            object_ranges=ranges,
            pinned=pinned,
        ).run()
        slow = algorithm1(
            trace,
            window.epochs,
            objects,
            fast.candidates,
            initial=initial,
            prior_weights=priors,
            object_ranges=ranges,
            pinned=pinned,
            max_iterations=config.max_iterations,
        )

        assert fast.containment == slow.containment
        assert fast.iterations == slow.iterations
        assert set(fast.posteriors) == set(slow.posteriors)
        for container, q in slow.posteriors.items():
            np.testing.assert_allclose(fast.posteriors[container], q, rtol=0, atol=1e-9)
        for obj, per_candidate in slow.weights.items():
            assert list(fast.weights[obj]) == list(per_candidate)
            for cand, weight in per_candidate.items():
                assert fast.weights[obj][cand] == pytest.approx(weight, rel=1e-9)
        for obj, tracks in slow.evidence.items():
            assert list(fast.evidence[obj]) == list(tracks)
            for cand, arr in tracks.items():
                np.testing.assert_allclose(fast.evidence[obj][cand], arr, rtol=1e-12)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_em_likelihood_never_decreases(seed):
    """Theorem 1: each EM step cannot lower L(C)."""
    world, trace = tiny_world(seed, n_cases=3, items_per_case=2, horizon=80)
    window = TraceWindow.from_range(trace, 0, 80)
    objects = window.tags(TagKind.ITEM)
    containers = window.tags(TagKind.CASE)
    if not objects or len(containers) < 2:
        return
    # Deliberately bad initialization: everyone in the first container.
    initial = {o: containers[0] for o in objects}
    likelihoods = []
    for iterations in range(1, 6):
        out = RFInfer(
            window,
            InferenceConfig(candidate_pruning=False, max_iterations=iterations),
            objects=objects,
            containers=containers,
            initial_containment=initial,
        ).run()
        likelihoods.append(out.log_likelihood())
    for earlier, later in zip(likelihoods, likelihoods[1:]):
        assert later >= earlier - 1e-6


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_candidate_pruning_preserves_containment(seed):
    """Top-k pruning finds the same containers on separable inputs."""
    world, trace = tiny_world(seed, n_cases=3, items_per_case=2, horizon=100)
    window = TraceWindow.from_range(trace, 0, 100)
    objects = window.tags(TagKind.ITEM)
    containers = window.tags(TagKind.CASE)
    if not objects or len(containers) < 2:
        return
    pruned = RFInfer(
        window,
        InferenceConfig(candidate_pruning=True, n_candidates=5),
        objects=objects,
        containers=containers,
    ).run()
    # Same starting point for the unpruned engine: EM is a local-optimum
    # method, so comparing runs from different initializations would
    # measure initialization, not pruning.
    full = RFInfer(
        window,
        InferenceConfig(candidate_pruning=False),
        objects=objects,
        containers=containers,
        initial_containment=dict(pruned.containment),
    ).run()
    agreement = sum(
        1 for o in objects if pruned.containment[o] == full.containment[o]
    )
    # Pruning is a heuristic: objects whose co-location counts are too
    # sparse may end up unassigned; the bulk must still agree.
    assert agreement >= int(0.75 * len(objects))


def test_convergence_reported(small_chain):
    window = TraceWindow.from_range(small_chain.trace, 0, 500)
    out = RFInfer(window, InferenceConfig(max_iterations=10)).run()
    assert 1 <= out.iterations <= 10
