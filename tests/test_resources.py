import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmit import pec, resources
from qmit.resources import (
    FtOverheadReport,
    ModularSystem,
    cnot_volume,
    ft_report,
    modular_scale,
    overhead_table,
    runtime_estimate,
    t_volume,
)

NAN, INF = float("nan"), float("inf")


def test_golden_values_at_1e9():
    # literal evaluation of the fits: 1610 + 45*9**2.77 = 21400.8...,
    # 3.13 + 3220*9**3.20 = 3.64e6 -- "roughly 2e4 and 4e6"
    assert 2.0e4 <= cnot_volume(1e9) <= 2.2e4
    assert 3.5e6 <= t_volume(1e9) <= 3.8e6


def test_base_values_at_1():
    assert cnot_volume(1) == pytest.approx(1610.0)
    assert t_volume(1) == pytest.approx(3.13)


def test_values_at_10():
    assert cnot_volume(10) == pytest.approx(1655.0)
    assert t_volume(10) == pytest.approx(3223.13)


def test_domain_errors():
    with pytest.raises(ValueError):
        cnot_volume(0.5)
    with pytest.raises(ValueError):
        t_volume(0.0)


def test_monotone_and_convex_in_log_n():
    logs = np.linspace(1, 12, 60)
    for f in (cnot_volume, t_volume):
        vals = np.array([f(10 ** x) for x in logs])
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) > -1e-9)


def test_ft_report_zero_counts():
    report = ft_report(0, 0)
    assert report.total_cnot_volume == 0.0
    assert report.total_t_volume == 0.0
    assert report.total_volume == 0.0


def test_ft_report_headline_scenario():
    report = ft_report(1e7, 1e9)
    assert report.total_t_volume == pytest.approx(1e9 * t_volume(1e9 + 1e7), rel=1e-12)
    assert 3.5e15 <= report.total_t_volume <= 3.8e15
    assert report.circuit_size == pytest.approx(1e9 + 1e7)


def test_ft_report_linear_in_counts_at_fixed_n():
    n = 1e8
    a = ft_report(1e6, 1e7, circuit_size=n)
    b = ft_report(2e6, 2e7, circuit_size=n)
    assert b.total_cnot_volume == pytest.approx(2 * a.total_cnot_volume)
    assert b.total_t_volume == pytest.approx(2 * a.total_t_volume)


def test_ft_report_not_additive_across_reports():
    a = ft_report(1e6, 1e6)
    b = ft_report(1e6, 1e6)
    combined = ft_report(2e6, 2e6)
    # volumes grow with total N, so the combined report exceeds the sum
    assert combined.total_volume > a.total_volume + b.total_volume - 1e-9


def test_ft_report_validation():
    with pytest.raises(ValueError):
        ft_report(-1, 0)
    # an explicit N < 0 used to be read as N = 1
    with pytest.raises(ValueError, match="^circuit_size must be finite and >= 0, got -5$"):
        ft_report(1, 1, circuit_size=-5)


def test_ft_report_refuses_a_given_circuit_size_below_1():
    # it used to be read as N = 1, as the default size (the count sum) still is
    with pytest.raises(ValueError, match="^circuit size N must be >= 1$"):
        ft_report(1, 1, circuit_size=0.5)
    assert ft_report(0.25, 0.25).circuit_size == 1.0


@pytest.mark.parametrize("args, name", [
    ((NAN, 1.0), "n_cnot"),
    ((1.0, NAN), "n_t"),
    ((INF, 1.0), "n_cnot"),
    ((1e7, 1e9, INF), "circuit_size"),
    ((1e7, 1e9, NAN), "circuit_size"),
    ((1e7, 1e9, -INF), "circuit_size"),
])
def test_ft_report_refuses_non_finite_input(args, name):
    with pytest.raises(ValueError, match=name + " must be finite"):
        ft_report(*args)


def test_volumes_refuse_nan():
    for volume in (cnot_volume, t_volume):
        with pytest.raises(ValueError, match="must be >= 1"):
            volume(NAN)


def test_modular_scale():
    sys = ModularSystem(q=100, m=4, l=3, t=2, p=5)
    assert modular_scale(sys) == 12000
    assert modular_scale(ModularSystem(1, 1, 1, 1, 1)) == 1
    # commutativity of the factors
    assert modular_scale(ModularSystem(5, 2, 3, 4, 100)) == modular_scale(
        ModularSystem(100, 4, 3, 2, 5))


def test_modular_validation():
    with pytest.raises(ValueError):
        ModularSystem(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        ModularSystem(2, 1, 1, 1, -3)


def test_pec_cost_models_are_the_resources_functions():
    assert pec.overhead_table is resources.overhead_table
    assert pec.runtime_estimate is resources.runtime_estimate


@pytest.mark.parametrize("kwargs, name", [
    (dict(lambda_grid=[NAN]), "lambda"),
    (dict(lambda_grid=[INF]), "lambda"),
    (dict(lambda_grid=[-0.01]), "lambda"),
    (dict(eps=NAN), "eps"),
    (dict(eps=INF), "eps"),
    (dict(eps=0.0), "eps"),
    (dict(trotter_steps_list=[-1]), "steps"),
    (dict(n=-4), "n"),
    (dict(n=-4, lambda_grid=[-0.01]), "n"),
])
def test_overhead_table_refuses_out_of_domain_input(kwargs, name):
    args = dict(n=100, trotter_steps_list=[100], lambda_grid=[1e-4], eps=1.0)
    args.update(kwargs)
    with pytest.raises(ValueError, match="^%s must be finite" % name):
        overhead_table(**args)


@pytest.mark.parametrize("args, name", [
    ((-1, 1, 0.1, 1.0), "n"),
    ((1, -1, 0.1, 1.0), "d"),
    ((1, 1, NAN, 1.0), "lambda_bar"),
    ((1, 1, INF, 1.0), "lambda_bar"),
    ((1, 1, 0.1, NAN), "beta"),
    ((1, 1, 0.1, INF), "beta"),
])
def test_runtime_estimate_refuses_out_of_domain_input(args, name):
    with pytest.raises(ValueError, match="^%s must be finite and >= 0" % name):
        runtime_estimate(*args)


@pytest.mark.parametrize("eps", [1e-200, 1e-162, 5e-324])
def test_overhead_table_counts_inf_where_eps_squared_underflows(eps):
    # eps ** 2 is 0.0 here: the count is beyond the float range
    assert eps ** 2 == 0.0
    (row,) = overhead_table(4, [3], [0.01], eps=eps)
    assert row["instances"] == math.inf
    (row,) = overhead_table(0, [3], [0.0], eps=eps)
    assert row["instances"] == math.inf


def numpy_instances(n, steps, lam, eps=1.0):
    """overhead_table's formula as it was written with np.exp."""
    with np.errstate(over="ignore"):
        return float(np.exp(4.0 * lam * (2 * steps) * n)) / eps ** 2


def numpy_runtime(n, d, lambda_bar, beta, exp=np.exp):
    """runtime_estimate's formula as it was written with np.exp."""
    if beta == 0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(d * exp(4.0 * lambda_bar) ** (d * n) * beta)


def within_one_ulp(a, b):
    return a == b or abs(a - b) <= math.ulp(b)


sizes = st.integers(min_value=0, max_value=10 ** 9)
rates = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(n=sizes, steps=sizes, lam=rates, eps=st.floats(min_value=1e-100, max_value=1e100))
def test_instances_within_one_ulp_of_the_numpy_formula(n, steps, lam, eps):
    # math.exp and np.exp differ by at most one ulp; dividing two floats one
    # ulp apart can round two ulps apart, so eps enters only as an exact
    # check that the quotient is the eps = 1 count over eps^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = overhead_table(n, [steps], [lam])
        (scaled,) = overhead_table(n, [steps], [lam], eps=eps)
    assert within_one_ulp(row["instances"], numpy_instances(n, steps, lam))
    assert scaled["instances"] == row["instances"] / eps ** 2


@settings(max_examples=300, deadline=None)
@given(n=sizes, d=sizes, lam=rates, beta=st.floats(min_value=0.0, max_value=1e10))
def test_runtime_differs_from_the_numpy_formula_only_through_exp(n, d, lam, beta):
    # the power d*n scales exp's last-ulp difference, so the formula is
    # checked bit for bit with math.exp, and exp itself within one ulp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = runtime_estimate(n, d, lam, beta)
    assert value == numpy_runtime(n, d, lam, beta, exp=lambda x: np.float64(math.exp(x)))
    assert within_one_ulp(math.exp(4.0 * lam), float(np.exp(4.0 * lam)))


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=-800.0, max_value=800.0))
def test_exp_within_one_ulp_of_numpy_and_inf_past_the_float_range(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = resources._exp(x)
        (row,) = overhead_table(1, [1], [x / 8.0] if x >= 0 else [0.0])
    with np.errstate(over="ignore"):
        reference = float(np.exp(x))
    assert within_one_ulp(value, reference)
    if x >= 0:
        assert within_one_ulp(row["instances"], reference)


def test_runtime_estimate_is_inf_where_d_n_exceeds_the_float_range():
    # the power's exponent d*n cannot be a float here; numpy raised OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert runtime_estimate(10 ** 200, 10 ** 200, 1e-3, 1.0) == math.inf
