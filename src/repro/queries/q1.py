"""Query 1 (§2): freezer-exposure monitoring (hybrid query).

::

    Select tag_id, A[].temp
    From ( Select Rstream(R.tag_id, R.loc, T.temp)
           From Products [Now] as R,
                Temperature [Partition By sensor Rows 1] as T
           Where (!(R.container IsA 'freezer') or R.container = NULL)
                 and R.loc = T.loc and T.temp > 0 °C
         ) As Global Stream S
    [ Pattern SEQ(A+)
      Where A[i].tag_id = A[1].tag_id and
            A[A.len].time > A[1].time + 6 hrs ]

Q1 is now a *declarative spec* compiled into an operator plan
(:mod:`repro.queries.compiler`): the inner block — frozen-product
filter, ``[Partition By sensor Rows 1]`` temperature window, and the
events × latest-temperature ``[Now]`` join — is local processing whose
operators are shared with any other registered query that uses them
(Q2 shares all three); the outer ``SEQ(A+)`` block consumes the
*global* stream S, so its per-object automaton state migrates between
sites (Appendix B). The 6-hour constant is a parameter here because
reproduction traces are minutes long, not days.
"""

from __future__ import annotations

from repro.queries.compiler import CompiledPattern, DeclarativeQuery
from repro.queries.spec import (
    And,
    Compare,
    ContainerIsFreezer,
    IsFrozenProduct,
    JoinLatest,
    KleeneDuration,
    Latest,
    Node,
    Not,
    QuerySpec,
    Stream,
    Where,
)
from repro.sim.sensors import SensorReading
from repro.streams.operators import LatestByKey
from repro.streams.pattern import KleeneDurationPattern
from repro.streams.state import RowCodec
from repro.workloads.catalog import ProductCatalog

__all__ = [
    "FreezerExposureQuery",
    "SENSOR_CODEC",
    "exposure_join",
    "freezer_exposure_spec",
]

#: wire layout of one temperature reading in window checkpoints — the
#: exact field order and widths the hand-written Q1 snapshot used.
SENSOR_CODEC = RowCodec(
    fields=(
        ("time", "varint"),
        ("site", "svarint"),
        ("sensor", "varint"),
        ("temp", "float64"),
    ),
    row=SensorReading,
)

#: the shared join's Rstream projection. ``container`` rides along even
#: though Q2 never reads it: an identical projection is what lets the
#: multi-query optimizer instantiate the join once for both queries.
EXPOSURE_SELECT = (
    ("time", "left.time"),
    ("tag", "left.tag"),
    ("place", "left.place"),
    ("container", "left.container"),
    ("temp", "right.temp"),
)


def exposure_join(catalog: ProductCatalog) -> tuple[Node, Latest, Node]:
    """The local sub-plan Q1 and Q2 share: frozen-product filter,
    latest-temperature window, and the events × temperature join.

    Returns ``(filtered_events, window, joined)``. Built separately by
    each query's spec; structural signatures make the compiler unify
    the instances when both are registered in one engine (§4.2's shared
    local processing).
    """
    events = Stream("events")
    sensors = Stream("sensors")
    frozen = Where(events, IsFrozenProduct(catalog))
    window = Latest(sensors, key=("site", "sensor"), codec=SENSOR_CODEC)
    joined = JoinLatest(
        frozen, window, probe=("site", "place"), select=EXPOSURE_SELECT
    )
    return frozen, window, joined


def freezer_exposure_spec(
    catalog: ProductCatalog,
    exposure_duration: int = 300,
    temp_threshold: float = 0.0,
    name: str = "q1",
) -> QuerySpec:
    """Build Query 1 as a declarative spec."""
    frozen, window, joined = exposure_join(catalog)
    outside = Not(ContainerIsFreezer(catalog))
    warm = Where(joined, And((outside, Compare("temp", ">", temp_threshold))))
    cold = Where(joined, And((outside, Compare("temp", "<=", temp_threshold))))
    back_inside = Where(frozen, ContainerIsFreezer(catalog))
    pattern = KleeneDuration(
        warm,
        key=("tag",),
        time="time",
        value="temp",
        duration=exposure_duration,
        resets=(back_inside, cold),
    )
    return QuerySpec(
        name, pattern, labels={"pattern": pattern, "temperature": window}
    )


class FreezerExposureQuery(DeclarativeQuery):
    """Continuous evaluation of Query 1 (a compiled-plan facade)."""

    def __init__(
        self,
        catalog: ProductCatalog,
        exposure_duration: int = 300,
        temp_threshold: float = 0.0,
    ) -> None:
        self.catalog = catalog
        self.temp_threshold = temp_threshold
        super().__init__(
            freezer_exposure_spec(catalog, exposure_duration, temp_threshold)
        )

    @property
    def pattern(self) -> KleeneDurationPattern:
        """The compiled ``SEQ(A+)`` automaton (global block)."""
        block: CompiledPattern = self._plan.labels["pattern"]
        return block.pattern

    @property
    def temperature(self) -> LatestByKey:
        """The compiled ``[Partition By sensor Rows 1]`` window."""
        return self._plan.labels["temperature"]
