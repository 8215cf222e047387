"""The QAGS port against `scipy.integrate`, which runs the same QUADPACK
routines compiled: value and error estimate must agree bit for bit."""

import math
import warnings
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import oracles
from subent import identities
from subent.quadpack import quad

EPSABS = (0.0, 1e-13, 1e-8)
# limit 1..7 stops most of the integrands below at the subdivision cap
LIMITS = (1, 2, 3, 7, 50, 200)


def scipy_quad(f, a, b, epsabs, epsrel, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)


@st.composite
def integrands(draw):
    """(f, a, b): endpoint power and log singularities (which drive the
    epsilon-algorithm extrapolation), oscillatory and narrowly peaked."""
    a = draw(st.floats(-1.0, 0.5))
    b = a + draw(st.floats(0.1, 3.0))
    kind = draw(st.sampled_from(("power", "log", "oscillatory", "peak")))
    if kind == "peak":
        c = draw(st.floats(a, b))
        s = 10.0 ** draw(st.floats(-4.0, -1.0))
        return (lambda x: 1.0 / ((x - c) ** 2 + s * s)), a, b
    if kind == "oscillatory":
        w = draw(st.floats(1.0, 200.0))
        return (lambda x: math.sin(w * x) * math.exp(-x)), a, b
    # singular at a, or just outside it
    c = a - draw(st.sampled_from((0.0, 1e-6, 1e-3, 0.1)))
    if kind == "log":
        return (lambda x: math.log(x - c)), a, b
    p = draw(st.floats(-0.95, 3.0, exclude_min=True, exclude_max=True))
    return (lambda x: (x - c) ** p), a, b


class TestAgainstScipy:
    @given(integrands(), st.sampled_from(EPSABS), st.floats(-12.0, -3.0), st.sampled_from(LIMITS))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_one_dimensional(self, integrand, epsabs, log_epsrel, limit):
        f, a, b = integrand
        epsrel = 10.0 ** log_epsrel
        assert quad(f, a, b, epsabs, epsrel, limit) == scipy_quad(f, a, b, epsabs, epsrel, limit)

    @pytest.mark.parametrize(
        "f, b, epsabs, epsrel, limit",
        [
            # iroff3, ierro = 3 (extrapolation error plus correc) and ier = 4
            (lambda x: math.copysign(abs(x - 0.339) ** -0.535, x - 0.339), 1.783, 1e-13, 1e-12, 200),
            # dqelg's irregular-table exit; a divergent integral, so ier = 5
            (lambda x: math.copysign(abs(x - 0.849) ** -1.041, x - 0.849), 1.359, 1e-8, 1e-3, 200),
            (lambda x: math.copysign(abs(x - 0.783) ** -1.412, x - 0.783), 1.971, 1e-8, 1e-4, 200),
            # dqelg's two-close-elements exit and its converged exit
            (lambda x: 1.0 if x > 0.865 else 0.0, 1.452, 1e-13, 1e-12, 200),
            (lambda x: 1.0 if x > 0.107 else 0.0, 0.64, 1e-13, 1e-8, 50),
            # the table shrinks to one element: extrapolation stops for good
            (lambda x: math.sin(1.0 / x) / x, 1.741, 0.0, 1e-8, 50),
            # dqelg's table fills its 50 entries (n == limexp) and is cut to 49
            (lambda x: x ** -0.5 * math.log(x) ** 10, 1.0, 0.0, 1e-12, 200),
            # dqpsrt keeps fewer entries ordered once last > limit // 2 + 2
            (lambda x: 1 / ((x - 0.471) ** 2 + 1e-6) + 1 / ((x - 0.561 / 3) ** 2 + 1e-5),
             0.561, 0.0, 1e-12, 10),
        ],
    )
    def test_rare_branches(self, f, b, epsabs, epsrel, limit):
        assert quad(f, 0.0, b, epsabs, epsrel, limit) == scipy_quad(f, 0.0, b, epsabs, epsrel, limit)

    @given(
        st.floats(-0.5, 2.0), st.floats(-0.5, 2.0), st.floats(0.0, 2.0),
        st.sampled_from(EPSABS[1:]), st.floats(-8.0, -3.0),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_nested_triangle_against_dblquad(self, p, q, r, epsabs, log_epsrel):
        def f(x, y):
            return x ** p * y ** q * max(1.0 - x - y, 0.0) ** r

        epsrel = 10.0 ** log_epsrel
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            expected = integrate.dblquad(
                lambda y, x: f(x, y), 0.0, 1.0, 0.0, lambda x: 1.0 - x, epsabs=epsabs, epsrel=epsrel
            )
        assert identities._triangle_quad(lambda x: partial(f, x), epsabs, epsrel) == expected


@pytest.mark.parametrize("m, alpha, moment", [
    (m, alpha, moment) for m in (2, 3) for alpha in (1.0, 1.5, 2.0, 3.0) for moment in range(m + 1)
])
def test_cli_integrals_equal_scipy_route(m, alpha, moment):
    # the 28 integrals behind `identities --quadrature`, error estimates included
    assert identities._simplex_integral(m, alpha, moment) == oracles.simplex_integral_scipy(m, alpha, moment)


class TestPanels:
    """A panel dict caches 21-point rules; it must never change a result."""

    @pytest.mark.parametrize("g, a, b", [
        (lambda x: x ** -0.5, 0.0, 1.0),  # extrapolated endpoint singularity
        (lambda x: math.log(x), 0.0, 2.0),
        (lambda x: math.sin(50.0 * x) * math.exp(-x), 0.0, 3.0),
        (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6), -1.0, 1.0),
    ], ids=["power", "log", "oscillatory", "peak"])
    def test_reuse_is_bit_identical_and_free(self, g, a, b):
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return g(x)

        expected = quad(f, a, b, 0.0, 1e-10)
        fresh: dict = {}
        assert quad(f, a, b, 0.0, 1e-10, panels=fresh) == expected
        prefilled: dict = {}
        quad(f, a, b, 1e-13, 1e-3, panels=prefilled)
        assert quad(f, a, b, 0.0, 1e-10, panels=prefilled) == expected
        calls = 0
        assert quad(f, a, b, 0.0, 1e-10, panels=fresh) == expected
        assert calls == 0

    def test_fine_pass_reuses_the_rough_panels(self):
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return x ** -0.5

        panels: dict = {}
        quad(f, 0.0, 1.0, 1e-13, 1e-3, panels=panels)
        rough_calls, calls = calls, 0
        quad(f, 0.0, 1.0, 0.0, 1e-10, panels=panels)
        fine_calls, calls = calls, 0
        quad(f, 0.0, 1.0, 0.0, 1e-10)
        assert rough_calls > 0 and fine_calls == calls - rough_calls


class TestInput:
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_needs_finite_increasing_interval(self, a, b):
        with pytest.raises(ValueError):
            quad(math.exp, a, b, 1e-8, 1e-8)

    def test_rejects_unreachable_tolerance_as_scipy_does(self):
        with pytest.raises(ValueError):
            quad(math.exp, 0.0, 1.0, 0.0, 1e-15)
        with pytest.raises(ValueError):
            integrate.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-15)

    def test_rejects_empty_limit(self):
        with pytest.raises(ValueError):
            quad(math.exp, 0.0, 1.0, 1e-8, 1e-8, limit=0)
