from fractions import Fraction

import pytest

from arcmult.blowup import ChartMap, NashReport, NashStep
from arcmult.contact import ContactResult
from arcmult.elimination import EliminationResult, MonicPresentation, TheoremReport
from arcmult.errors import EngineError, FieldMismatch
from arcmult.fields import RATIONALS, FieldSpec, ensure_same_field, prime_field
from arcmult.poly import parse_poly
from arcmult.problems import Options, ProblemFile, Report, parse_problem
from arcmult.rees import ReesAlgebra
from arcmult.series import Arc, TruncatedSeries, parse_series


def test_characteristic_must_be_prime():
    with pytest.raises(EngineError):
        FieldSpec(4)
    with pytest.raises(EngineError):
        FieldSpec(1)


def test_rational_coercion_and_arithmetic():
    q = RATIONALS
    a = q.coerce(3)
    b = q.coerce(Fraction(1, 2))
    assert q.add(a, b) == Fraction(7, 2)
    assert q.mul(a, b) == Fraction(3, 2)
    assert q.inv(b) == 2
    assert q.add(a, q.neg(a)) == 0


def test_prime_field_arithmetic():
    f5 = prime_field(5)
    assert f5.coerce(7) == 2
    assert f5.coerce(-1) == 4
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2  # 3*2 = 6 = 1 mod 5
    assert f5.coerce(Fraction(1, 2)) == 3  # 2*3 = 1 mod 5


def test_prime_field_rejects_bad_denominator():
    f5 = prime_field(5)
    with pytest.raises(FieldMismatch):
        f5.coerce(Fraction(1, 5))


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(Fraction(0))


def test_units_pools():
    assert RATIONALS.units(4) == (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))
    assert prime_field(2).units() == (1,)
    assert prime_field(5).units() == (1, 2, 3, 4)


def test_every_unit_is_invertible():
    for p in (2, 3, 5, 7):
        field = prime_field(p)
        for u in field.units():
            assert field.mul(u, field.inv(u)) == 1



Q, F3, XY = RATIONALS, prime_field(3), ("x", "y")
CUSP_TEXT = "name: cusp\nfield: 0\nvariables: x y\npoly: y^2 - x^3\narc phi: t^2, t^3\nanalyses: nash\n"
OTHER = parse_poly("y^2 - x^5", XY, Q)


def cusp():
    return parse_poly("y^2 - x^3", XY, Q)


def cusp_problem():
    return vars(parse_problem(CUSP_TEXT))


#: For each record class: a function that builds the keyword arguments of an instance
#: from fresh objects, another value for each field that may change alone, and a value
#: that equality ignores for each field that it ignores.
VALUE_CASES = [
    (FieldSpec, lambda: {"characteristic": 3}, {"characteristic": 5}, {}),
    (TruncatedSeries, lambda: {"field": Q, "coeffs": (Q.zero, Q.one)}, {"field": F3, "coeffs": (Q.one,)}, {}),
    (
        Arc,
        lambda: {"variables": XY, "components": (parse_series("t^2", Q), parse_series("t^3", Q)), "field": Q},
        {"variables": ("u", "v"), "components": (parse_series("t^2", Q), parse_series("t^5", Q))},
        {},
    ),
    (
        ChartMap,
        lambda: {"variables": XY, "index": 0, "translation": (0, 0)},
        {"variables": ("x", "z"), "index": 1, "translation": (1, 0)},
        {},
    ),
    (
        NashStep,
        lambda: {"chart_index": 0, "chart_variable": "x", "center": (0, 0), "multiplicity": 2, "transform": cusp()},
        {"chart_index": 1, "chart_variable": "y", "center": (1, 0), "multiplicity": 3, "transform": OTHER},
        {},
    ),
    (
        NashReport,
        lambda: {
            "sequence": (2, 1), "rho": 1, "start": cusp(), "runs": (), "truncated": False, "below_threshold": False,
        },
        {
            "sequence": (2, 2), "rho": None, "start": OTHER, "runs": ((None, 1),), "truncated": True,
            "below_threshold": True,
        },
        {},
    ),
    (
        ContactResult,
        lambda: {"r": Fraction(3), "nu": 2, "r_bar": Fraction(3, 2), "rho": 3, "generator_orders": ((0, 3),)},
        {"r": Fraction(4), "nu": 1, "r_bar": Fraction(3), "rho": 4, "generator_orders": ((0, 4),)},
        {},
    ),
    (
        ReesAlgebra,
        lambda: {"variables": XY, "generators": ((cusp(), 2),), "field": Q},
        {"variables": ("u", "v"), "generators": ((OTHER, 2),), "field": F3},
        {},
    ),
    (
        # the variables are checked together, so only the polynomial changes alone
        MonicPresentation,
        lambda: {"base_variables": ("x",), "fiber_variable": "y", "poly": cusp()},
        {"poly": OTHER},
        {},
    ),
    (
        EliminationResult,
        lambda: {"algebra": ReesAlgebra(XY, ((cusp(), 2),), Q), "ord_d": Fraction(3, 2), "method": "Tschirnhausen"},
        {"algebra": ReesAlgebra(XY, ((OTHER, 2),), Q), "ord_d": Fraction(5, 2), "method": "VisibleIntersection"},
        {},
    ),
    (
        TheoremReport,
        lambda: {
            "ord_d": Fraction(3, 2), "method": "Tschirnhausen", "arcs_checked": 10, "min_r_bar": Fraction(3, 2),
            "lower_bound_holds": True, "witness_name": "phi", "witness_matches_projection": True, "verdict": "PASS",
            "details": {},
        },
        {
            "ord_d": Fraction(1), "method": "VisibleIntersection", "arcs_checked": 11, "min_r_bar": Fraction(1),
            "lower_bound_holds": False, "witness_name": None, "witness_matches_projection": None, "verdict": "FAIL",
            "details": {"grid": 1},
        },
        {},
    ),
    (Options, lambda: {"max_steps": 32, "budget": 100, "seed": 0}, {"max_steps": 3, "budget": 4, "seed": 5}, {}),
    (
        ProblemFile,
        cusp_problem,
        {
            "name": "node", "field": F3, "variables": ("x", "z"), "poly": OTHER, "fiber": "y", "arcs": {},
            "parametrization": parse_series("t", Q), "analyses": ("contact",), "options": Options(seed=1),
            "expects": {"verify": "PASS"},
        },
        {"poly_text": "y^2-x^3", "arc_texts": {}, "parametrization_text": "t"},
    ),
    (
        Report,
        lambda: {"problem": ProblemFile(**cusp_problem()), "analyses": {}, "expectations": [], "verdict": "PASS"},
        {
            "problem": ProblemFile(**{**cusp_problem(), "name": "node"}), "analyses": {"nash": {}},
            "expectations": [{}], "verdict": "FAIL",
        },
        {},
    ),
]


@pytest.mark.parametrize("cls, build, others, ignored", VALUE_CASES, ids=[case[0].__name__ for case in VALUE_CASES])
def test_records_keep_value_semantics(cls, build, others, ignored):
    # Equality and hash read every compared field in order, repr lists those fields,
    # equality is NotImplemented across classes, and only ProblemFile and Report take
    # assignment.
    kwargs = build()
    a, b = cls(**kwargs), cls(**build())
    compared = tuple(kwargs[name] for name in kwargs if name not in ignored)
    assert a == b and not a != b and a is not b
    assert a.__eq__(Options() if cls is FieldSpec else Q) is NotImplemented
    if "__repr__" not in vars(cls):  # TruncatedSeries and ReesAlgebra print their text
        fields = ", ".join(f"{name}={kwargs[name]!r}" for name in kwargs if name not in ignored)
        assert repr(a) == f"{cls.__name__}({fields})"
    for name, value in others.items():
        assert cls(**{**kwargs, name: value}) != a, name
    for name, value in ignored.items():
        assert cls(**{**kwargs, name: value}) == a, name
    if cls in (ProblemFile, Report):
        with pytest.raises(TypeError):
            hash(a)
        a.verdict = "changed"
        del a.verdict
        return
    if cls is TheoremReport:  # its details are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(compared)
    for name in (*kwargs, "stray"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_field_spec_repr_and_mismatch_text():
    assert repr(FieldSpec(3)) == "FieldSpec(characteristic=3)"
    mismatch = r"^field mismatch: FieldSpec\(characteristic=3\) vs FieldSpec\(characteristic=0\)$"
    with pytest.raises(FieldMismatch, match=mismatch):
        ensure_same_field(FieldSpec(3), RATIONALS)
    assert list(vars(Options())) == ["max_steps", "budget", "seed"]
