"""Shared fixtures: small, cached simulation artifacts."""

from __future__ import annotations

import pytest

from repro.sim.supplychain import SupplyChainParams, simulate

#: a small single-warehouse run used by many read-only tests.
SMALL_CHAIN = SupplyChainParams(
    n_warehouses=1,
    horizon=900,
    items_per_case=8,
    cases_per_pallet=4,
    injection_period=150,
    main_read_rate=0.8,
    overlap_rate=0.5,
    seed=101,
)

#: a single warehouse with injected containment changes.
ANOMALY_CHAIN = SupplyChainParams(
    n_warehouses=1,
    horizon=1500,
    items_per_case=8,
    cases_per_pallet=4,
    injection_period=200,
    main_read_rate=0.8,
    overlap_rate=0.5,
    anomaly_interval=100,
    n_shelves=6,
    seed=202,
)


@pytest.fixture(scope="session")
def small_chain():
    return simulate(SMALL_CHAIN)


@pytest.fixture(scope="session")
def anomaly_chain():
    return simulate(ANOMALY_CHAIN)


@pytest.fixture(scope="session")
def multi_site_chain():
    """Three warehouses in a chain, for distributed tests."""
    from repro.sim.warehouse import WarehouseParams

    return simulate(
        SupplyChainParams(
            n_warehouses=3,
            horizon=1800,
            items_per_case=6,
            cases_per_pallet=3,
            injection_period=300,
            main_read_rate=0.8,
            overlap_rate=0.5,
            warehouse=WarehouseParams(shelf_dwell_mean=300, shelf_dwell_jitter=40),
            seed=303,
        )
    )
