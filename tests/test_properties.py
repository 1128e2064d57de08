"""Randomized property suites; each runs at least 100 cases.

Runnable in isolation, e.g.:
    pytest tests/test_properties.py::test_hasse_leibniz
"""

from property_checks import (
    check_contact_without_f,
    check_diff_closure_idempotence,
    check_hasse_leibniz,
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
