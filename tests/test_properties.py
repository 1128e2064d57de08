"""Randomized property suites; each runs at least 100 cases.

Runnable in isolation, e.g.:
    pytest tests/test_properties.py::test_hasse_leibniz
"""

import random

import pytest

from arcmult.blowup import nash_sequence
from arcmult.fields import RATIONALS
from arcmult.poly import parse_poly
from arcmult.series import Arc, parse_series
from property_checks import (
    FIELDS,
    LIFT_CHAIN_CASES,
    assert_chain_matches_stepwise,
    check_contact_without_f,
    check_diff_closure_idempotence,
    check_grid_r_bar,
    check_hasse_leibniz,
    check_lift_chain,
    check_monomial_leads,
    check_nash_monotonicity,
    check_order_multiplicativity,
    check_ord_d_coordinate_invariance,
    check_translation_composition,
    run_many,
)

CASES = 120


def test_hasse_leibniz():
    run_many(check_hasse_leibniz, CASES, seed=101)


def test_translation_composition():
    run_many(check_translation_composition, CASES, seed=102)


def test_order_multiplicativity():
    run_many(check_order_multiplicativity, CASES, seed=103)


def test_nash_sequence_monotonicity():
    run_many(check_nash_monotonicity, CASES, seed=104)


def test_diff_closure_idempotence():
    run_many(check_diff_closure_idempotence, CASES, seed=105)


def test_contact_without_f():
    run_many(check_contact_without_f, CASES, seed=106)


def test_monomial_leads():
    run_many(check_monomial_leads, CASES, seed=107)


def test_ord_d_coordinate_invariance():
    run_many(check_ord_d_coordinate_invariance, 100, seed=108)


def test_lift_chain():
    run_many(check_lift_chain, CASES, seed=109)


@pytest.mark.parametrize(
    "poly, components, max_steps, rho",
    LIFT_CHAIN_CASES,
    ids=["x21-100", "x40-0", "x40-1", "x40-19", "x40-20", "x40-30"],
)
def test_lift_chain_cases(poly, components, max_steps, rho):
    f = parse_poly(poly, ("x", "y"), RATIONALS)
    phi = Arc(("x", "y"), tuple(parse_series(text, RATIONALS) for text in components.split(",")), RATIONALS)
    assert nash_sequence(f, phi, max_steps).rho == rho
    if max_steps < 100:  # the reference's whole transforms grow at every shift: minutes at 100
        assert_chain_matches_stepwise(f, phi, max_steps)


#: Random polynomials per width: a width-4 grid holds up to 14,641 assignments.
GRID_R_BAR_CASES = {1: 12, 2: 12, 3: 2, 4: 1}


@pytest.mark.parametrize("width", sorted(GRID_R_BAR_CASES))
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F3", "F5"])
def test_grid_r_bar(field, width):
    rng = random.Random(110 + width)
    checked = sum(check_grid_r_bar(rng, field, width) for _ in range(GRID_R_BAR_CASES[width]))
    # In one variable f vanishes on no grid arc: x -> u t^a keeps its terms in distinct degrees.
    assert (checked == 0) if width == 1 else (checked > 0)
