"""Shared fixtures: small traces, workloads and campaigns for fast tests."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make the shared helper module importable regardless of pytest's rootdir.
sys.path.insert(0, str(Path(__file__).parent))

from repro import SimulationCampaign, get_workload  # noqa: E402
from repro.core.dataset import TrainingSet  # noqa: E402

from _helpers import (  # noqa: E402
    build_random_trace,
    build_stream_trace,
    use_kernel,
)


@pytest.fixture(params=["python", "cc"], ids=["0", "1"])
def kernel_form(request, monkeypatch):
    """Each test runs once per kernel form (see ``use_kernel``): id
    ``0`` is the pure-Python forms, id ``1`` the compiled kernels."""
    use_kernel(monkeypatch, request.param)
    return request.param


@pytest.fixture(scope="session")
def stream_trace():
    return build_stream_trace()


@pytest.fixture(scope="session")
def random_trace():
    return build_random_trace()


@pytest.fixture(scope="session")
def atax():
    return get_workload("atax")


@pytest.fixture(scope="session")
def small_configs(atax):
    """A handful of small atax input configurations."""
    return [
        {"dimensions": 500, "threads": 4},
        {"dimensions": 750, "threads": 8},
        {"dimensions": 1250, "threads": 8},
        {"dimensions": 1500, "threads": 16},
        {"dimensions": 2000, "threads": 16},
        {"dimensions": 2300, "threads": 32},
    ]


@pytest.fixture(scope="session")
def small_campaign(atax, small_configs):
    """A small pre-run campaign shared by the core-pipeline tests."""
    campaign = SimulationCampaign(scale=3.0)
    mvt = get_workload("mvt")
    mvt_configs = [
        {"dimensions": d, "threads": t, "iterations": 10}
        for d, t in [(500, 4), (750, 8), (1250, 8), (2000, 16), (2250, 16)]
    ]
    training = TrainingSet.concat([
        campaign.run(atax, small_configs),
        campaign.run(mvt, mvt_configs),
    ])
    return campaign, training
