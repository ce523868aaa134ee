"""Tests for kernel families, measures, moment bounds and the interpolator."""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.integrate import quad as scipy_quad
from scipy.special import i0

import nlw.kernels
from nlw.discretize import pushforward_measure
from nlw.kernels import (
    _EXPR_NAMESPACE,
    TAIL_LADDER,
    AdmissibilityReport,
    ConstantKernel,
    CoverageError,
    FractionalKernel,
    GibbsMeasure,
    KernelDivergenceError,
    KernelError,
    MixedMeasure,
    PotentialSpec,
    TabulatedMeasure,
    UniformMeasure,
    WeightedKernel,
    _moment,
    _probe_lattice,
    _values_with_radius,
    c_eta,
    check_assumptions,
    eval_kernel,
    extend_kernel,
    kernel_from_dict,
    kernel_values,
    measure_from_dict,
    second_moment,
    tail_profile,
)
from nlw.torus import build_grid


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def test_constant_kernel_values():
    k = ConstantKernel(c=3.5)
    assert eval_kernel(k, 0.1, 0.7) == 3.5
    with pytest.raises(ValueError):
        ConstantKernel(c=0.0)


def test_fractional_kernel_uses_torus_distance():
    k = FractionalKernel(s=1.0)
    # wrapped distance between 0.05 and 0.95 is 0.1
    assert eval_kernel(k, 0.05, 0.95) == pytest.approx(0.1 ** (-2.0), rel=1e-14)
    assert eval_kernel(k, 0.0, 0.5) == pytest.approx(0.5 ** (-2.0), rel=1e-14)


def test_fractional_kernel_2d_exponent():
    k = FractionalKernel(s=0.5, scale=2.0)
    x = np.array([[0.0, 0.0]])
    y = np.array([[0.3, 0.4]])
    r = 0.5
    assert kernel_values(k, x, y)[0] == pytest.approx(2.0 * r ** (-2.5), rel=1e-14)


def test_kernel_on_diagonal_raises():
    with pytest.raises(KernelError):
        eval_kernel(ConstantKernel(c=1.0), 0.3, 0.3)


def test_weighted_kernel_zero_potential_doubles_base():
    # e^{V(x)} + e^{V(y)} = 2 and c_V = 1 when V = 0
    k = WeightedKernel(potential=PotentialSpec(expr="0*x"), base=ConstantKernel(c=1.0))
    assert eval_kernel(k, 0.2, 0.8) == pytest.approx(2.0, rel=1e-12)


def test_weighted_kernel_is_symmetric():
    k = WeightedKernel(potential=PotentialSpec(expr="cos(2*pi*x)"), base=FractionalKernel(s=0.5))
    rng = np.random.default_rng(11)
    X, Y = rng.random((64, 1)), rng.random((64, 1))
    assert np.allclose(kernel_values(k, X, Y), kernel_values(k, Y, X), rtol=1e-13)


# ---------------------------------------------------------------------------
# potentials and measures
# ---------------------------------------------------------------------------


def test_potential_expression_and_normalization():
    V = PotentialSpec(expr="cos(2*pi*x)")
    assert V(np.array([[0.0]]))[0] == pytest.approx(1.0)
    # c_V = I0(1) for V = cos(2 pi x); compare against the Bessel route
    assert V.normalization(1) == pytest.approx(float(i0(1.0)), rel=1e-10)


def test_normalization_refuses_a_mesh_above_the_byte_limit(monkeypatch):
    # with room for meshes of up to 128 points, the kink of |x - 0.3| keeps the
    # midpoint sum moving, and the doubling to 256 raises before it allocates
    cos_cv = PotentialSpec(expr="cos(2*pi*x)").normalization(1)
    monkeypatch.setattr(nlw.kernels, "_ARRAY_BYTES_LIMIT", 128 * 8)
    with pytest.raises(KernelError, match=r"^c_V of 'abs\(x-0.3\)' \(unconverged\) needs about 0 MiB per array at m=256 "):
        PotentialSpec(expr="abs(x-0.3)").normalization(1)
    assert PotentialSpec(expr="cos(2*pi*x)").normalization(1) == cos_cv  # converged at m=128


def test_normalization_that_does_not_converge_raises():
    # the kink of |x - 0.3| keeps every doubling of the midpoint sum moving: at
    # m = 8192 its c_V is 2.5e-9 off, which used to be returned silently
    with pytest.raises(KernelError, match=r"^c_V of 'abs\(x-0.3\)' did not converge: .* at m=8192$"):
        PotentialSpec(expr="abs(x-0.3)").normalization(1)


def test_potential_table_lookup():
    vals = np.array([0.0, 1.0, 2.0, 3.0])
    V = PotentialSpec(table_values=vals, table_dim=1)
    pts = np.array([[0.0], [0.26], [0.49], [0.999]])
    assert np.allclose(V(pts), [0.0, 1.0, 2.0, 0.0])


def test_table_potential_normalization_is_the_table_mean():
    # the nearest-cell table is constant on cells of volume 1/3, so c_V is a finite sum
    # that no midpoint lattice of 64 * 2^k points reproduces
    V = PotentialSpec(table_values=np.array([0.0, 1.0, 2.5]))
    assert V.normalization(1) == pytest.approx((1.0 + np.exp(-1.0) + np.exp(-2.5)) / 3.0, rel=1e-15)
    # the level-3 grid has the table's cells, so its Gibbs cell masses are exact
    _, factor = pushforward_measure(GibbsMeasure(potential=V), build_grid(1, 3), return_factor=True)
    assert factor == pytest.approx(1.0, abs=1e-14)
    # a 3D table builds no mesh (midpoint refinement would reach 2048^3 points)
    vals = np.random.default_rng(0).uniform(0.0, 2.0, 27)
    V3 = PotentialSpec(table_values=vals, table_dim=3)
    tracemalloc.start()
    try:
        cv = V3.normalization(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert cv == pytest.approx(np.mean(np.exp(-vals)), rel=1e-15)


def test_potential_requires_exactly_one_source():
    with pytest.raises(ValueError):
        PotentialSpec()
    with pytest.raises(ValueError):
        PotentialSpec(expr="x", table_values=np.zeros(4))


@pytest.mark.parametrize(
    "expr, why",
    [
        ("().__class__.__mro__[1].__subclasses__().__len__() + 0*x", "only positional calls"),
        ("().__class__", "Attribute"),
        ("x.real", "Attribute"),
        ("x[0]", "Subscript"),
        ("(lambda t: t)(x)", "only positional calls"),
        ("lambda: 0", "Lambda"),
        ("__import__('os')", "only positional calls"),
        ("sin(x, out=x)", "only positional calls"),
        ("sin(*[x])", "Starred"),
        ("sin", "unknown name 'sin'"),
        ("x + q", "unknown name 'q'"),
        ("x + 'a'", "is not a number"),
        ("x if x > 0 else 1", "IfExp"),
        ("[x][0]", "Subscript"),
        ("x +", "not valid syntax"),
    ],
)
def test_potential_expression_outside_whitelist_is_rejected(expr, why):
    with pytest.raises(ValueError, match=re.escape(why)):
        PotentialSpec(expr=expr)


@pytest.mark.parametrize(
    "expr", ["cos(2*pi*x)", "800*(x>0.5)", "-x**2 + 3*y - z/7 + 1e-3", "sqrt(abs(sin(x*y))) + exp(-z)"]
)
def test_potential_expression_values_equal_plain_eval(expr):
    pts = np.random.default_rng(2).uniform(0.0, 1.0, size=(50, 3))
    ns = dict(_EXPR_NAMESPACE, x=pts[:, 0], y=pts[:, 1], z=pts[:, 2])
    ref = eval(compile(expr, "<potential>", "eval"), {"__builtins__": {}}, ns)  # noqa: S307
    assert np.array_equal(PotentialSpec(expr=expr)(pts), np.broadcast_to(ref, (50,)))


def test_shipped_config_potentials_pass_the_whitelist():
    config_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"

    def exprs(doc):
        if isinstance(doc, dict):
            for key, val in doc.items():
                yield from [val] if key == "expr" else exprs(val)
        elif isinstance(doc, list):
            for val in doc:
                yield from exprs(val)

    found = [e for path in sorted(config_dir.glob("*.json")) for e in exprs(json.loads(path.read_text()))]
    assert found
    for expr in found:
        assert np.all(np.isfinite(PotentialSpec(expr=expr)(np.array([[0.1], [0.7]]))))


def test_gibbs_density_integrates_to_one():
    pi = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    t = (np.arange(20000) + 0.5) / 20000
    assert np.mean(pi.density(t[:, None])) == pytest.approx(1.0, abs=1e-10)


def test_tabulated_measure_density():
    pi = TabulatedMeasure(weights=np.array([1.0, 3.0]), dim=1)
    # normalized weights (1/4, 3/4); density = weight * n_cells
    assert pi.density(np.array([[0.1]]))[0] == pytest.approx(0.5)
    assert pi.density(np.array([[0.6]]))[0] == pytest.approx(1.5)


def test_mixed_measure_floors_the_density():
    sharp = GibbsMeasure(potential=PotentialSpec(expr="10*cos(2*pi*x)"))
    pi = MixedMeasure(base=sharp, epsilon=0.1)
    t = np.linspace(0, 1, 101)[:-1][:, None]
    assert pi.density(t).min() >= 0.1
    with pytest.raises(ValueError):
        MixedMeasure(base=sharp, epsilon=1.5)


def test_measure_round_trip_through_dict():
    pi = MixedMeasure(
        base=GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)")),
        epsilon=0.05,
    )
    back = measure_from_dict(pi.to_dict())
    pts = np.random.default_rng(3).random((32, 1))
    assert np.allclose(back.density(pts), pi.density(pts), rtol=1e-12)


def test_kernel_round_trip_through_dict():
    k = WeightedKernel(potential=PotentialSpec(expr="cos(2*pi*x)"), base=FractionalKernel(s=1.25, scale=0.5))
    back = kernel_from_dict(k.to_dict())
    rng = np.random.default_rng(5)
    X, Y = rng.random((16, 1)), rng.random((16, 1))
    assert np.allclose(kernel_values(back, X, Y), kernel_values(k, X, Y), rtol=1e-12)


# ---------------------------------------------------------------------------
# second moment / c_eta / tails
# ---------------------------------------------------------------------------


def test_second_moment_constant_uniform():
    # int_{|t|<=1/2} t^2 * c dt = c / 12
    val = second_moment(ConstantKernel(c=1.0), UniformMeasure(), 0.3)
    assert val == pytest.approx(1.0 / 12.0, rel=1e-10)
    val4 = second_moment(ConstantKernel(c=4.0), UniformMeasure(), 0.3)
    assert val4 == pytest.approx(4.0 / 12.0, rel=1e-10)


def test_c_eta_constant_and_scaling():
    root = c_eta(ConstantKernel(c=1.0), UniformMeasure())
    assert root == pytest.approx(np.sqrt(1.0 / 6.0), rel=1e-9)
    # c_eta scales like the square root of the kernel
    assert c_eta(ConstantKernel(c=4.0), UniformMeasure()) == pytest.approx(2.0 * root, rel=1e-9)


def test_c_eta_weighted_flat_potential():
    k = WeightedKernel(potential=PotentialSpec(expr="0*x"), base=ConstantKernel(c=1.0))
    assert c_eta(k, UniformMeasure()) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-9)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 1.9, 1.99])
def test_second_moment_fractional_closed_form(s):
    # int_{|t|<=1/2} |t|^{1-s} dt = 2 (1/2)^{2-s} / (2-s)
    expected = 2.0 * 0.5 ** (2.0 - s) / (2.0 - s)
    val = second_moment(FractionalKernel(s=s), UniformMeasure(), 0.0)
    assert val == pytest.approx(expected, rel=1e-9)


def test_second_moment_fractional_increases_with_s():
    vals = [second_moment(FractionalKernel(s=s), UniformMeasure(), 0.1) for s in (0.5, 1.0, 1.5, 1.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_second_moment_divergent_exponent_raises():
    with pytest.raises(KernelDivergenceError):
        second_moment(FractionalKernel(s=2.5), UniformMeasure(), 0.0)
    with pytest.raises(KernelDivergenceError):
        second_moment(FractionalKernel(s=2.0), UniformMeasure(), 0.0)


def test_refinement_detects_divergence_without_exponent_hint():
    # defeat the analytic guard: the measured panel ratio must catch it
    class OpaqueFractional(FractionalKernel):
        def singularity_exponent(self, dim):
            return 0.0

    with pytest.raises(KernelDivergenceError):
        second_moment(OpaqueFractional(s=2.5), UniformMeasure(), 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_refinement_detects_divergence(d):
    class OpaqueFractional(FractionalKernel):
        def singularity_exponent(self, dim):
            return 0.0

    x = np.array([0.3, 0.6, 0.9][:d])
    with pytest.raises(KernelDivergenceError, match="second moment .*panel ratio"):
        _moment(OpaqueFractional(s=2.5), UniformMeasure(), x, 0.5)
    with pytest.raises(KernelDivergenceError, match="tail integral .*panel ratio"):
        _moment(OpaqueFractional(s=2.5), UniformMeasure(), x, 0.1)


def radial_moment_1d(spec, pi, x, hi):
    """Oracle: the d = 1 panel loop `second_moment` ran before the cube shells.

    Panels [hi 2^{-k-1}, hi 2^{-k}] and their mirror images with 16 Gauss
    nodes each; the loop stops at a contribution below 1e-16 of the
    total (from the third panel on), else extrapolates the last ratio.
    """
    gx, gw = np.polynomial.legendre.leggauss(16)
    total, contribs = 0.0, []
    for k in range(64):
        p_hi = hi * 0.5**k
        lo = p_hi * 0.5
        mid, half = 0.5 * (p_hi + lo), 0.5 * (p_hi - lo)
        nodes, weights = mid + half * gx, half * gw
        t = np.concatenate([nodes, -nodes])
        y = np.mod(x[None, :] + t[:, None], 1.0)
        vals = _values_with_radius(spec, np.broadcast_to(x, y.shape), y, np.abs(t)) * pi.density(y)
        contrib = float(np.dot(np.concatenate([weights, weights]), t * t * vals))
        contribs.append(contrib)
        total += contrib
        if contrib <= 1e-16 * max(total, 1e-300) and k >= 2:
            return total
    ratio = contribs[-1] / contribs[-2]
    return total + contribs[-1] * ratio / (1.0 - ratio)


@pytest.mark.parametrize(
    "spec", [ConstantKernel(c=1.0)] + [FractionalKernel(s=s) for s in (0.5, 1.0, 1.5)], ids=["c", "s0.5", "s1", "s1.5"]
)
@pytest.mark.parametrize(
    "pi", [UniformMeasure(), GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))], ids=["uniform", "gibbs"]
)
def test_1d_moments_equal_the_panel_loop(spec, pi):
    # the kernels of criterion 5: d = 1 values are bit-identical to the panel loop
    for x in (0.0, 0.1, 0.37, 0.5, 0.93):
        assert second_moment(spec, pi, x) == radial_moment_1d(spec, pi, np.array([x]), 0.5)
    assert tail_profile(spec, pi, 10.0) == max(radial_moment_1d(spec, pi, p, 0.1) for p in build_grid(1, 64).points)
    sup = max(radial_moment_1d(spec, pi, p, 0.5) for p in build_grid(1, 32).points)
    assert c_eta(spec, pi, dim=1, working_level=8) == float(np.sqrt(2.0 * sup))


def test_second_moment_gibbs_against_scipy():
    # independent route: adaptive scipy quadrature of the same integrand
    pi = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    expected = scipy_quad(lambda t: t * t * np.exp(-np.cos(2 * np.pi * t)), -0.5, 0.5)[0] / float(i0(1.0))
    val = second_moment(ConstantKernel(c=1.0), pi, 0.0)
    assert val == pytest.approx(expected, rel=1e-9)


def test_second_moment_2d_constant():
    # int over the unit torus of min(1, r^2) with r the wrapped norm (= 1/6)
    expected = scipy_quad(
        lambda u: 4 * scipy_quad(lambda v: min(1.0, u * u + v * v), 0, 0.5)[0], 0, 0.5
    )[0]
    val = second_moment(ConstantKernel(c=1.0), UniformMeasure(), np.array([0.2, 0.7]))
    assert val == pytest.approx(expected, rel=1e-9)
    assert val == pytest.approx(1.0 / 6.0, rel=1e-12)


@pytest.mark.parametrize("x", [(0.2, 0.7), (0.0, 0.5)])
def test_second_moment_2d_fractional_closed_form(x):
    # s = 1: int over the square |t|_inf <= 1/2 of 1/|t| is 4 log(1 + sqrt 2)
    val = second_moment(FractionalKernel(s=1.0), UniformMeasure(), np.array(x))
    assert val == pytest.approx(4.0 * np.log1p(np.sqrt(2.0)), rel=1e-8)


def _square_in_polar(f):
    """int of f(r, theta) r dr dtheta over the square |t|_inf <= 1/2, by scipy dblquad.

    The inner limit 1/(2 max(|cos|, |sin|)) has kinks at the diagonals,
    so theta is split there.
    """

    def edge(th):
        return 0.5 / max(abs(np.cos(th)), abs(np.sin(th)))

    return sum(
        dblquad(lambda r, th: f(r, th) * r, a, a + np.pi / 2, 0.0, edge, epsabs=1e-14, epsrel=1e-13)[0]
        for a in np.pi / 4 + np.pi / 2 * np.arange(4)
    )


@pytest.mark.parametrize("s", [None, 1.0], ids=["constant", "s1"])
def test_second_moment_2d_gibbs_against_dblquad(s):
    V = PotentialSpec(expr="cos(2*pi*x) + 0.5*sin(2*pi*y)")
    x = np.array([0.3, 0.1])
    cv = float(i0(1.0) * i0(0.5))  # int e^{-V} factorizes into Bessel functions

    def integrand(r, th):  # r^2 eta(r) rho(x + t)
        p, q = x[0] + r * np.cos(th), x[1] + r * np.sin(th)
        eta = 1.0 if s is None else r ** (-(2 + s))
        return r * r * eta * np.exp(-np.cos(2 * np.pi * p) - 0.5 * np.sin(2 * np.pi * q)) / cv

    spec = ConstantKernel(c=1.0) if s is None else FractionalKernel(s=s)
    val = second_moment(spec, GibbsMeasure(potential=V), x)
    assert val == pytest.approx(_square_in_polar(integrand), rel=1e-8)


def test_second_moment_3d_constant():
    # int over the cube |t|_inf <= 1/2 of |t|^2 is 3 / 12
    val = second_moment(ConstantKernel(c=1.0), UniformMeasure(), np.array([0.2, 0.7, 0.45]))
    assert val == pytest.approx(0.25, rel=1e-12)


def test_second_moment_3d_fractional_against_face_integral():
    # s = 1: on the ray through the point p of a face, t = l p with
    # 0 <= l <= 1, the integrand 1/|t|^2 times l^2 |p_normal| dl dA
    # integrates to |p_normal| / |p|^2 dA; six faces at distance 1/2
    face = dblquad(lambda v, u: 0.5 / (u * u + v * v + 0.25), -0.5, 0.5, -0.5, 0.5, epsabs=1e-14, epsrel=1e-13)[0]
    val = second_moment(FractionalKernel(s=1.0), UniformMeasure(), np.array([0.2, 0.7, 0.45]))
    assert val == pytest.approx(6.0 * face, rel=1e-6)


def test_second_moment_3d_against_a_higher_order_rule(monkeypatch):
    spec = FractionalKernel(s=1.0)
    pi = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x) + 0.5*sin(2*pi*y) + 0.3*cos(2*pi*z)"))
    x = np.array([0.2, 0.7, 0.45])
    val = second_moment(spec, pi, x)
    monkeypatch.setitem(nlw.kernels.PANEL_ORDER, 3, 10)
    assert val == pytest.approx(second_moment(spec, pi, x), rel=1e-6)


def test_tail_profile_constant():
    # only |t| < 1/R contributes on the torus: 2 (1/R)^3 / 3
    val = tail_profile(ConstantKernel(c=1.0), UniformMeasure(), 10.0)
    assert val == pytest.approx(2.0 / 3.0 * 1e-3, rel=1e-9)


def test_tail_profile_decreasing_in_R():
    k = FractionalKernel(s=1.0)
    vals = [tail_profile(k, UniformMeasure(), R) for R in (2.0, 5.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        tail_profile(k, UniformMeasure(), 0.5)


@pytest.mark.parametrize("dim, levels", [(1, (None, 8, 16, 32, 512)), (2, (2, 3))], ids=["d1", "d2"])
@pytest.mark.parametrize(
    "spec",
    [ConstantKernel(c=1.3)] + [FractionalKernel(s=s, scale=0.7) for s in (0.5, 1.0, 1.5)],
    ids=["c", "s0.5", "s1", "s1.5"],
)
def test_one_probe_sups_equal_the_whole_probe_loop(spec, dim, levels):
    # oracle: the loop over the whole probe lattice that c_eta and tail_profile ran before
    # the one-probe case; every probe gives the same bits, so the max is any one of them
    pi = UniformMeasure()
    for level in levels:
        moments = [second_moment(spec, pi, x) for x in _probe_lattice(dim, level)]
        assert set(moments) == {moments[0]}
        sup = 0.0
        for m in moments:
            sup = max(sup, m)
        assert c_eta(spec, pi, dim=dim, working_level=level) == float(np.sqrt(2.0 * sup))
    for R in TAIL_LADDER:
        sup = 0.0
        for x in _probe_lattice(dim, None):
            sup = max(sup, _moment(spec, pi, x, min(1.0 / R, 0.5)))
        assert tail_profile(spec, pi, R, dim=dim) == sup


class _Subclassed(FractionalKernel):
    pass


@pytest.mark.parametrize(
    "spec, pi, one_probe",
    [
        (FractionalKernel(s=1.0), UniformMeasure(), True),
        (ConstantKernel(c=2.0), UniformMeasure(), True),
        (_Subclassed(s=0.5), UniformMeasure(), True),
        (FractionalKernel(s=1.0), GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)")), False),
        (FractionalKernel(s=1.0), TabulatedMeasure(weights=np.ones(8)), False),
        (FractionalKernel(s=1.0), MixedMeasure(base=UniformMeasure(), epsilon=0.5), False),
        (
            WeightedKernel(potential=PotentialSpec(expr="cos(2*pi*x)"), base=FractionalKernel(s=1.0)),
            UniformMeasure(),
            False,
        ),
    ],
    ids=["uniform-fractional", "uniform-constant", "uniform-subclass", "gibbs", "tabulated", "mixed", "weighted"],
)
def test_one_probe_only_on_the_uniform_measure_with_a_radial_kernel(monkeypatch, spec, pi, one_probe):
    # counts the moment integrals behind each sup: one where the integrand reads no
    # position, the whole lattice for every other measure and kernel
    probes = []
    moment = nlw.kernels._moment

    def counted(kernel, measure, x, half):
        probes.append(x)
        return moment(kernel, measure, x, half)

    monkeypatch.setattr(nlw.kernels, "_moment", counted)
    for sup, lattice in (
        (lambda: c_eta(spec, pi, dim=1, working_level=2), _probe_lattice(1, 2)),
        (lambda: tail_profile(spec, pi, 10.0), _probe_lattice(1, None)),
    ):
        probes.clear()
        sup()
        assert np.array_equal(probes, lattice[:1] if one_probe else lattice)


# ---------------------------------------------------------------------------
# admissibility report
# ---------------------------------------------------------------------------


def test_check_assumptions_passes_for_fractional():
    rep = check_assumptions(FractionalKernel(s=1.0), UniformMeasure(), n_samples=128)
    assert isinstance(rep, AdmissibilityReport)
    assert rep.passes
    assert rep.symmetry_residual <= 1e-12
    assert rep.tail_monotone
    assert rep.positive
    assert rep.shift_diagnostic <= 1e-10  # translation invariant


@pytest.mark.parametrize("s, passes", [(1.0, True), (2.5, False)])
def test_check_assumptions_in_2d(s, passes):
    rep = check_assumptions(FractionalKernel(s=s), UniformMeasure(), dim=2, n_samples=32)
    assert rep.passes == passes
    assert np.isfinite(rep.moment_sup) == passes


@pytest.mark.parametrize("s, dim", [(1.0, 1), (0.5, 1), (1.0, 2)])
def test_check_assumptions_reports_the_moment_sup_itself(s, dim):
    # not c_eta^2 / 2, the square of a square root, which is one ulp off in all three cases
    spec, pi = FractionalKernel(s=s), UniformMeasure()
    rep = check_assumptions(spec, pi, dim=dim, n_samples=32)
    assert rep.moment_sup == second_moment(spec, pi, np.zeros(dim))
    assert c_eta(spec, pi, dim=dim) == float(np.sqrt(2.0 * rep.moment_sup))


def test_check_assumptions_flags_divergent_kernel():
    rep = check_assumptions(FractionalKernel(s=2.5), UniformMeasure(), n_samples=32)
    assert not rep.passes
    assert rep.moment_sup == np.inf


def test_check_assumptions_weighted_kernel_not_shift_invariant():
    k = WeightedKernel(potential=PotentialSpec(expr="cos(2*pi*x)"), base=ConstantKernel(c=1.0))
    rep = check_assumptions(k, GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)")), n_samples=64)
    assert rep.passes
    assert rep.shift_diagnostic > 1e-3


def test_check_assumptions_in_3d():
    rep = check_assumptions(FractionalKernel(s=0.5), UniformMeasure(), dim=3)
    assert rep.passes
    assert rep.probe_points == len(_probe_lattice(3, None)) == 125


def test_c_eta_in_3d_is_the_moment_at_the_origin():
    # the level-2 lattice is 8^3 probes, and on the uniform measure each gives the origin's bits
    spec, pi = FractionalKernel(s=1.0), UniformMeasure()
    assert c_eta(spec, pi, dim=3, working_level=2) == float(np.sqrt(2.0 * second_moment(spec, pi, np.zeros(3))))


# ---------------------------------------------------------------------------
# kernel extension
# ---------------------------------------------------------------------------


def _toy_system(n=8, seed=0):
    """Duck-typed stand-in for a discrete system: grid + symmetric eta."""
    grid = build_grid(1, n)
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) + 0.5
    eta = 0.5 * (a + a.T)
    np.fill_diagonal(eta, 0.0)
    return SimpleNamespace(grid=grid, eta=eta)


def test_extend_kernel_reproduces_grid_pairs():
    sys = _toy_system()
    ext = extend_kernel(sys, bandwidth=0.3, exponent=3.0)
    pts = sys.grid.points
    for j in range(8):
        for k in range(8):
            if j == k:
                continue
            assert ext(pts[j], pts[k]) == pytest.approx(sys.eta[j, k], rel=1e-12)


def test_extend_kernel_convex_envelope():
    sys = _toy_system(seed=4)
    ext = extend_kernel(sys, bandwidth=0.3, exponent=3.0)
    off = sys.eta[~np.eye(8, dtype=bool)]
    lo, hi = off.min(), off.max()
    rng = np.random.default_rng(21)
    for _ in range(500):
        x, y = rng.random(), rng.random()
        v = ext(x, y)
        assert lo - 1e-12 <= v <= hi + 1e-12


def test_extend_kernel_constant_data_stays_constant():
    grid = build_grid(1, 8)
    eta = np.full((8, 8), 2.5)
    np.fill_diagonal(eta, 0.0)
    sys = SimpleNamespace(grid=grid, eta=eta)
    ext = extend_kernel(sys, bandwidth=0.4, exponent=2.5)
    rng = np.random.default_rng(9)
    vals = ext.batch(rng.random((64, 1)), rng.random((64, 1)))
    assert np.allclose(vals, 2.5, rtol=1e-12)


def test_extend_kernel_is_symmetric():
    sys = _toy_system(seed=7)
    ext = extend_kernel(sys, bandwidth=0.3, exponent=3.0)
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y = rng.random(), rng.random()
        assert ext(x, y) == pytest.approx(ext(y, x), rel=1e-12)


def test_extend_kernel_validates_bandwidth_and_exponent():
    sys = _toy_system()
    with pytest.raises(ValueError):
        extend_kernel(sys, bandwidth=0.125, exponent=3.0)  # = grid spacing
    with pytest.raises(ValueError):
        extend_kernel(sys, bandwidth=0.3, exponent=2.0)


def test_extend_kernel_coverage_error_in_2d():
    grid = build_grid(2, 4)
    n = grid.n_points
    eta = np.ones((n, n))
    np.fill_diagonal(eta, 0.0)
    sys = SimpleNamespace(grid=grid, eta=eta)
    ext = extend_kernel(sys, bandwidth=0.26, exponent=3.0)
    # the cell-corner diagonal sits sqrt(2)/8 from every grid point, so the
    # summed product distance 2*sqrt(2)/8 ~ 0.354 exceeds the bandwidth
    corner = np.array([0.125, 0.125])
    with pytest.raises(CoverageError):
        ext(corner, corner)
    # one uncovered query fails a whole batch; covered ones alone pass
    X = np.array([grid.points[0], corner, grid.points[3]])
    Y = np.array([grid.points[1], corner, grid.points[2]])
    with pytest.raises(CoverageError, match="bandwidth 0.26"):
        ext.batch(X, Y)
    assert np.array_equal(ext.batch(X[[0, 2]], Y[[0, 2]]), [1.0, 1.0])


def scalar_extension(ext, x, y):
    """Oracle: the one-query formula ExtendedKernel used before it was vectorized."""
    p, q = np.mod(np.atleast_1d(x), 1.0), np.mod(np.atleast_1d(y), 1.0)
    ax = np.abs(ext.points - p)
    ay = np.abs(ext.points - q)
    dx = np.sqrt(np.sum(np.minimum(ax, 1.0 - ax) ** 2, axis=1))
    dy = np.sqrt(np.sum(np.minimum(ay, 1.0 - ay) ** 2, axis=1))
    z = dx[:, None] + dy[None, :]
    np.fill_diagonal(z, np.inf)
    zeta = z / ext.bandwidth
    inside = zeta < 1.0
    if not np.any(inside):
        raise CoverageError("no stored grid pair within the bandwidth")
    zmin = zeta[inside].min()
    if zmin == 0.0:
        j, k = np.unravel_index(np.argmin(np.where(inside, zeta, np.inf)), zeta.shape)
        return float(ext.eta[j, k])
    rel = np.where(inside, zeta / zmin, np.inf)
    w = rel ** (-ext.exponent) * np.where(inside, 1.0 - zeta * zeta, 0.0)
    return float(np.sum(w * ext.eta) / np.sum(w))


def _toy_system_2d(n=4, seed=0):
    grid = build_grid(2, n)
    a = np.random.default_rng(seed).random((grid.n_points, grid.n_points)) + 0.5
    eta = 0.5 * (a + a.T)
    np.fill_diagonal(eta, 0.0)
    return SimpleNamespace(grid=grid, eta=eta)


@pytest.mark.parametrize(
    "sys, bandwidth",
    [(_toy_system(seed=2), 0.3), (_toy_system_2d(), 0.45), (_toy_system(n=64, seed=2), 0.05), (_toy_system_2d(n=16), 0.2)],
    ids=["1d", "2d", "1d-window", "2d-window"],  # the last two span 10 of 64 and 10 of 16 indices per axis
)
def test_extend_kernel_batch_matches_scalar_formula(sys, bandwidth, monkeypatch):
    ext = extend_kernel(sys, bandwidth=bandwidth, exponent=3.0)
    rng = np.random.default_rng(17)
    d, pts = sys.grid.dim, sys.grid.points
    X, Y = rng.random((200, d)), rng.random((200, d))
    # exact grid pairs, then the same pairs shifted by whole turns of the torus
    j = np.arange(8)
    k = (j + 3) % len(pts)
    X[:8], Y[:8] = pts[j], pts[k]
    X[8:16], Y[8:16] = pts[j] + 1.0, pts[k] - 2.0
    oracle = np.array([scalar_extension(ext, x, y) for x, y in zip(X, Y)])
    values = ext.batch(X, Y)
    assert np.allclose(values, oracle, rtol=1e-13, atol=0.0)
    assert np.array_equal(values[:16], np.tile(sys.eta[j, k], 2))
    assert all(ext(x, y) == v for x, y, v in zip(X[:50], Y[:50], values[:50]))
    # chunks of three queries give the same values as one chunk
    monkeypatch.setattr(nlw.kernels, "_BATCH_BYTES", 3 * 8 * ext._window_width() ** (2 * d))
    assert np.array_equal(ext.batch(X, Y), values)


def test_extend_kernel_query_memory_stays_in_the_bandwidth_window():
    # only lattice points within the bandwidth on every axis can contribute;
    # an (N, N) array per query would take 32 MiB here
    ext = extend_kernel(_toy_system(n=2048, seed=1), bandwidth=0.01, exponent=3.0)
    tracemalloc.start()
    try:
        value = ext(0.123456, 0.654321)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert ext.eta.min() <= value <= ext.eta.max()


def test_extend_kernel_coverage_error_with_a_narrow_window():
    grid = build_grid(2, 16)
    eta = np.ones((grid.n_points, grid.n_points))
    np.fill_diagonal(eta, 0.0)
    ext = extend_kernel(SimpleNamespace(grid=grid, eta=eta), bandwidth=0.07, exponent=3.0)
    assert ext._window_width() == 6
    # a cell corner sits sqrt(2)/32 ~ 0.044 from its four nearest grid points
    corner = np.array([1.0, 1.0]) / 32
    with pytest.raises(CoverageError, match="bandwidth 0.07"):
        ext(corner, corner)
    assert ext(corner, [1.0 / 16, 0.0]) == 1.0


def test_tabulated_kernel_provenance_round_trips(tmp_path):
    from nlw.discretize import build_system, canonical_json, system_document

    path = tmp_path / "source.json"
    sys = build_system(FractionalKernel(s=0.5), UniformMeasure(), build_grid(1, 8))
    path.write_text(canonical_json(system_document(sys)))
    doc = {"type": "tabulated", "path": str(path), "bandwidth": 0.3, "exponent": 3.0}
    spec = kernel_from_dict(doc)
    out = spec.to_dict()
    assert out["path"] == str(path)
    assert out["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    back = kernel_from_dict(json.loads(json.dumps(out)))
    assert back.to_dict() == out
    assert np.array_equal(back.evaluator.eta, spec.evaluator.eta)
    rng = np.random.default_rng(3)
    X, Y = rng.random((16, 1)), rng.random((16, 1))
    assert np.array_equal(kernel_values(back, X, Y), kernel_values(spec, X, Y))


def test_tabulated_kernel_rejects_a_changed_source(tmp_path):
    from nlw.discretize import build_system, canonical_json, system_document

    path = tmp_path / "source.json"

    def write(c):
        sys = build_system(ConstantKernel(c=c), UniformMeasure(), build_grid(1, 4))
        path.write_text(canonical_json(system_document(sys)))

    write(1.0)
    out = kernel_from_dict({"type": "tabulated", "path": str(path), "bandwidth": 0.5, "exponent": 3.0}).to_dict()
    write(2.0)
    with pytest.raises(ValueError, match="sha256"):
        kernel_from_dict(out)
