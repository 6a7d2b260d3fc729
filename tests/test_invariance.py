"""Unit and labelling invariances of both solvers on the 60 x 60 default scene.

Scaling the hover budget and the control weight together scales every
serving time of scenario 1, and scaling the load and the control weight
together scales every hover time of scenario 2, so neither may move a cell;
relabelling the fleet may only relabel the regions.  All of these hold
exactly, so they guard rewrites of the solvers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart.channel import compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs
from uavpart.partition import INFEASIBLE
from uavpart.scenario1 import solve_scenario1
from uavpart.scenario2 import solve_scenario2

CFG = ExperimentConfig(nx=60, ny=60)
GRID = build_grid(CFG)
UAVS = build_uavs(CFG)
PARAMS = build_channel(CFG)


def scenario1_labels(uavs, budget, alpha):
    radio = compute_radio_field(GRID, uavs, PARAMS)
    return solve_scenario1(GRID, radio, budget, alpha, CFG.n_users,
                           mass_tol=CFG.mass_tol).partition.assignment


def scenario2_labels(uavs, load_bits, alpha):
    radio = compute_radio_field(GRID, uavs, PARAMS)
    return solve_scenario2(GRID, radio, load_bits, alpha, CFG.n_users,
                           mass_tol=CFG.mass_tol).partition.assignment


BASE1 = scenario1_labels(UAVS, CFG.max_hover, CFG.alpha)
BASE2 = scenario2_labels(UAVS, CFG.load_bits, CFG.alpha)


@pytest.mark.parametrize("k", range(-3, 4))
def test_scenario1_free_of_time_units(k):
    scale = 10.0**k
    labels = scenario1_labels(UAVS, CFG.max_hover * scale, CFG.alpha * scale)
    assert np.array_equal(labels, BASE1)


@pytest.mark.parametrize("k", range(-3, 4))
def test_scenario2_free_of_load_units(k):
    scale = 10.0**k
    labels = scenario2_labels(UAVS, CFG.load_bits * scale, CFG.alpha * scale)
    assert np.array_equal(labels, BASE2)


def relabelled(perm, labels):
    # UAV j of the permuted fleet is UAV perm[j] of the original one
    return np.where(labels == INFEASIBLE, INFEASIBLE, np.asarray(perm)[labels])


@settings(max_examples=10, deadline=None)
@given(perm=st.permutations(range(CFG.n_uavs)))
def test_permuting_the_fleet_permutes_the_labels(perm):
    uavs = [UAVS[i] for i in perm]
    labels = scenario1_labels(uavs, CFG.max_hover, CFG.alpha)
    assert np.array_equal(relabelled(perm, labels), BASE1)
    labels = scenario2_labels(uavs, CFG.load_bits, CFG.alpha)
    assert np.array_equal(relabelled(perm, labels), BASE2)
