"""Jump kernels and reference measures on the flat torus.

A jump kernel is a symmetric nonnegative function eta(x, y) on pairs of
distinct points; it may blow up as y -> x (the motivating family is the
fractional kernel r^{-d-s} with s in (0,2), r the torus distance).  A
reference measure pi is a probability measure on T^d, here always given
by a density w.r.t. Lebesgue.  The pair (eta, pi) is admissible for the
gradient-flow machinery when

  (1) eta is symmetric,
  (2) the truncated second moment  sup_x int (1 ^ |x-y|^2) eta(x,y) dpi(y)
      is finite,
  (3) the same integral restricted to {|x-y| < 1/R or |x-y| > R} tends
      to 0 as R grows (uniform integrability at the diagonal; on the
      torus the outer ring is empty once R exceeds the diameter),
  (4) eta is continuous off the diagonal, and
  (5) eta is strictly positive.

`check_assumptions` evaluates (1), (2), (3) and (5) numerically; it
does not check (4).  Condition (5) also holds on every discrete system:
a `DiscreteSystem` rejects an eta_n that is not positive off the
diagonal, naming the pair.  `c_eta` packages the flux-bound constant
sqrt(2 * sup_x second_moment), which controls the total flux of
finite-action paths.

The module also provides `extend_kernel`: given kernel values stored on
grid pairs, it builds a continuous kernel on all of T^d x T^d via a
singular-weight interpolation

    K(z) = z^{-a} (1 - z^2)  on 0 < z <= 1   (a > 2),

applied to the product-metric distance z = |x - x_j| + |y - x_k|.  The
weight diverges at z = 0, so the interpolant reproduces the stored
values exactly, and as a convex combination it stays between the min
and max of the contributing values.

Quadrature notes: the truncated second moment at x is integrated over
the displacement cube |t|_inf <= 1/2 (for d <= 3 every such t has
|t| < 1, so the truncation min(1, |t|^2) never binds), split into
dyadic shells [-2a, 2a]^d minus [-a, a]^d, a = 2^{-k-2}.  Each shell is
4^d - 2^d boxes of side a with a tensor Gauss rule, so the geometry is
exact in every dimension; the leftover tail at the origin is summed by
measured-ratio geometric extrapolation.  A measured ratio >= 1 means the
refinement is not converging, which is reported as a divergence error.
A sup over x is a max over a probe lattice; on the uniform measure with a
`_radial` kernel (as in `discretize`'s offset classes) one probe stands for it.
The Gauss order per dimension, shell budget, divergence ratio, probe
oversampling and the tail radii of `check_assumptions` are the module
constants below (``PANEL_ORDER`` ... ``TAIL_LADDER``), not settings.
"""

from __future__ import annotations

import ast
import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .torus import as_point, build_grid, wrapped_norm

__all__ = [
    "KernelError",
    "KernelDivergenceError",
    "CoverageError",
    "PotentialSpec",
    "MeasureSpec",
    "UniformMeasure",
    "GibbsMeasure",
    "TabulatedMeasure",
    "MixedMeasure",
    "KernelSpec",
    "ConstantKernel",
    "FractionalKernel",
    "WeightedKernel",
    "TabulatedKernel",
    "kernel_values",
    "second_moment",
    "c_eta",
    "tail_profile",
    "check_assumptions",
    "extend_kernel",
    "ExtendedKernel",
    "AdmissibilityReport",
    "kernel_from_dict",
    "measure_from_dict",
    "potential_from_dict",
]


class KernelError(Exception):
    """Base class for kernel/measure input and admissibility errors."""


class KernelDivergenceError(KernelError):
    """The truncated second moment grows without bound under refinement."""


class CoverageError(KernelError):
    """No stored grid pair lies within the interpolation bandwidth."""


# Largest array one step of a quadrature rule (c_V, pushforward, cell pair) may allocate.
_ARRAY_BYTES_LIMIT = 2**30


def _refuse_above_limit(need: int, error: type, what: str, at: str) -> None:
    if need > _ARRAY_BYTES_LIMIT:
        limit = _ARRAY_BYTES_LIMIT >> 20
        raise error(f"{what} needs about {need / 2**20:.0f} MiB per array at {at} (limit {limit} MiB)")


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

_EXPR_NAMESPACE = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pi": np.pi,
}
_EXPR_FUNCTIONS = frozenset(k for k, v in _EXPR_NAMESPACE.items() if callable(v))
_EXPR_VARIABLES = frozenset({"x", "y", "z", "pi"})
# syntax an expression may use besides names, numbers and calls: the
# arithmetic, unary and comparison operators (comparisons give masks
# such as 800*(x>0.5))
_EXPR_SYNTAX = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.UAdd, ast.USub,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq,
)


def _checked_expr(expr: str) -> ast.Expression:
    """Parse a potential expression and reject anything outside its whitelist.

    Allowed: int and float literals, the names x, y, z and pi, the
    operators in ``_EXPR_SYNTAX`` and positional calls to the functions
    of ``_EXPR_NAMESPACE``.  Attribute access, subscripts, lambdas and
    every other construct are refused before anything is compiled, so an
    expression cannot reach Python objects beyond those values.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"potential expression {expr!r} is not valid syntax: {exc.msg}") from None
    callees = set()
    for node in ast.walk(tree):  # breadth first: a call comes before its callee
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCTIONS) or node.keywords:
                raise ValueError(
                    f"potential expression {expr!r}: only positional calls to "
                    f"{', '.join(sorted(_EXPR_FUNCTIONS))} are allowed"
                )
            callees.add(id(node.func))
        elif isinstance(node, ast.Name):
            if node.id not in _EXPR_VARIABLES and id(node) not in callees:
                raise ValueError(f"potential expression {expr!r}: unknown name {node.id!r}")
        elif isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ValueError(f"potential expression {expr!r}: literal {node.value!r} is not a number")
        elif not isinstance(node, _EXPR_SYNTAX):
            raise ValueError(f"potential expression {expr!r}: {type(node).__name__} is not allowed")
    return tree


def _lattice_level(count: int, dim: int) -> int:
    """The level n of the uniform lattice of T^dim that a table of ``count`` values fills."""
    n = round(count ** (1.0 / dim))
    if n**dim != count:
        raise ValueError(f"{count} values do not fill a lattice of T^{dim}")
    return n


def _table_lookup(values: np.ndarray, dim: int, pts: np.ndarray) -> np.ndarray:
    """Entries of a table on the uniform level-n lattice of T^dim at the
    nearest lattice point to each row of ``pts`` (shape (m, dim))."""
    n = round(len(values) ** (1.0 / dim))
    idx = np.mod(np.rint(pts * n).astype(int), n)
    return values[np.ravel_multi_index(tuple(idx.T), (n,) * dim)]


@dataclass
class PotentialSpec:
    """A potential V : T^d -> R, given in closed form or as a table.

    Closed form: ``expr`` is evaluated with numpy semantics; coordinates
    are bound to the names x, y, z (first, second, third axis).  Table:
    values on the uniform level-n lattice, looked up piecewise-constant
    by nearest cell.  The normalization constant c_V = int e^{-V} dx is
    computed on demand and cached.
    """

    expr: str | None = None
    table_values: np.ndarray | None = None
    table_dim: int = 1
    _code: object = field(default=None, repr=False, compare=False)
    _cv: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if (self.expr is None) == (self.table_values is None):
            raise ValueError("give exactly one of expr / table_values")
        if self.expr is not None:
            self._code = compile(_checked_expr(self.expr), "<potential>", "eval")
            # validate on a probe point; failures should surface at build time
            probe = np.full((2, 3), 0.25)
            val = self._eval_expr(probe)
            if not np.all(np.isfinite(val)):
                raise ValueError(f"potential expression {self.expr!r} is not finite")
        else:
            vals = np.asarray(self.table_values, dtype=float)
            _lattice_level(len(vals), self.table_dim)
            if not np.all(np.isfinite(vals)):
                raise ValueError("tabulated potential has non-finite entries")
            self.table_values = vals

    def _eval_expr(self, pts: np.ndarray) -> np.ndarray:
        ns = dict(_EXPR_NAMESPACE)
        names = "xyz"
        for axis in range(pts.shape[1]):
            ns[names[axis]] = pts[:, axis]
        out = eval(self._code, {"__builtins__": {}}, ns)  # noqa: S307 - whitelisted AST
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate V at each row of ``pts`` (shape (m, d))."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.expr is not None:
            return self._eval_expr(pts)
        return _table_lookup(self.table_values, self.table_dim, pts)

    def normalization(self, dim: int) -> float:
        """c_V = int_{T^d} e^{-V} dx.

        A table is constant on the nearest-point cells of its lattice, each
        of volume n^-d, so its c_V is the mean of e^{-V} over the table.  An
        expression is integrated by midpoint refinement until one doubling
        moves it by at most 1e-12 relative; a mesh of more than
        ``_ARRAY_BYTES_LIMIT`` bytes, or a last doubling (to m = 8192 in 1D)
        that still moves it more, raises KernelError instead.
        """
        if dim in self._cv:
            return self._cv[dim]
        if self.expr is None:
            val = float(np.mean(np.exp(-self.table_values)))
        else:
            m = 64 if dim == 1 else (48 if dim == 2 else 16)
            prev = None
            for _ in range(8):
                _refuse_above_limit(m**dim * dim * 8, KernelError, f"c_V of {self.expr!r} (unconverged)", f"m={m}")
                axes = [(np.arange(m) + 0.5) / m] * dim
                mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
                val = float(np.mean(np.exp(-self(mesh))))
                if prev is not None and abs(val - prev) <= 1e-12 * max(abs(val), 1e-300):
                    break
                prev = val
                m *= 2
            else:
                raise KernelError(
                    f"c_V of {self.expr!r} did not converge: the midpoint sum still moved by more than "
                    f"1e-12 relative at m={m // 2}"
                )
        self._cv[dim] = val
        return val

    def to_dict(self) -> dict:
        if self.expr is not None:
            return {"expr": self.expr}
        return {
            "table": {
                "dim": self.table_dim,
                "values": [float(v) for v in self.table_values],
            }
        }


def potential_from_dict(doc: dict) -> PotentialSpec:
    if "expr" in doc:
        return PotentialSpec(expr=doc["expr"])
    t = doc["table"]
    return PotentialSpec(table_values=np.asarray(t["values"], dtype=float), table_dim=t.get("dim", 1))


# ---------------------------------------------------------------------------
# Reference measures
# ---------------------------------------------------------------------------


class MeasureSpec:
    """Base class: a probability measure on T^d with a Lebesgue density."""

    def density(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass
class UniformMeasure(MeasureSpec):
    """Normalized Lebesgue measure; density identically 1."""

    def density(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.ones(pts.shape[0])

    def to_dict(self) -> dict:
        return {"type": "uniform"}


@dataclass
class GibbsMeasure(MeasureSpec):
    """dpi/dx = e^{-V} / c_V for a bounded continuous potential V."""

    potential: PotentialSpec

    def density(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        cv = self.potential.normalization(pts.shape[1])
        return np.exp(-self.potential(pts)) / cv

    def to_dict(self) -> dict:
        return {"type": "gibbs", "potential": self.potential.to_dict()}


@dataclass
class TabulatedMeasure(MeasureSpec):
    """Piecewise-constant density from cell weights on a uniform lattice."""

    weights: np.ndarray
    dim: int = 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("tabulated measure weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise ValueError("tabulated measure has zero total mass")
        self.weights = w / total
        _lattice_level(len(w), self.dim)

    def density(self, pts: np.ndarray) -> np.ndarray:
        return _table_lookup(self.weights, self.dim, np.atleast_2d(pts)) * len(self.weights)

    def to_dict(self) -> dict:
        return {"type": "tabulated", "dim": self.dim, "weights": [float(w) for w in self.weights]}


@dataclass
class MixedMeasure(MeasureSpec):
    """(1 - epsilon) * base + epsilon * Lebesgue.

    The standard regularization that bounds the density away from zero:
    useful when a Gibbs measure would otherwise produce near-empty cells.
    """

    base: MeasureSpec
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")

    def density(self, pts: np.ndarray) -> np.ndarray:
        return (1.0 - self.epsilon) * self.base.density(pts) + self.epsilon

    def to_dict(self) -> dict:
        return {"type": "mixed", "base": self.base.to_dict(), "epsilon": self.epsilon}


def measure_from_dict(doc: dict) -> MeasureSpec:
    kind = doc.get("type")
    if kind == "uniform":
        return UniformMeasure()
    if kind == "gibbs":
        return GibbsMeasure(potential=potential_from_dict(doc["potential"]))
    if kind == "tabulated":
        return TabulatedMeasure(weights=np.asarray(doc["weights"], dtype=float), dim=doc.get("dim", 1))
    if kind == "mixed":
        return MixedMeasure(base=measure_from_dict(doc["base"]), epsilon=float(doc["epsilon"]))
    raise ValueError(f"unknown measure type {kind!r}")


# ---------------------------------------------------------------------------
# Kernel specs
# ---------------------------------------------------------------------------


class KernelSpec:
    """Base class for declarative kernel descriptions."""

    def singularity_exponent(self, dim: int) -> float:
        """p such that eta(x,y) = O(r^p) as r -> 0 (0 for bounded kernels)."""
        return 0.0

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass
class ConstantKernel(KernelSpec):
    """eta identically equal to c > 0 off the diagonal."""

    c: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("constant kernel value must be positive and finite")

    def to_dict(self) -> dict:
        return {"type": "constant", "c": self.c}


@dataclass
class FractionalKernel(KernelSpec):
    """eta(x,y) = scale * r^{-(d+s)} with r the nearest-image torus distance.

    The admissible range is s in (0, 2): the truncated second moment
    diverges for s >= 2.  Construction deliberately accepts any s > 0 so
    that the admissibility diagnostics can reject out-of-range exponents
    themselves; `second_moment` raises KernelDivergenceError for s >= 2.
    """

    s: float
    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.s > 0):
            raise ValueError("fractional exponent s must be positive")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("fractional kernel scale must be positive")

    def singularity_exponent(self, dim: int) -> float:
        return -(dim + self.s)

    def to_dict(self) -> dict:
        return {"type": "fractional", "s": self.s, "scale": self.scale}


@dataclass
class WeightedKernel(KernelSpec):
    """eta(x,y) = (e^{V(x)} + e^{V(y)}) * base(x,y) / c_V.

    With the Gibbs measure e^{-V}/c_V as reference, this weighting makes
    the jump intensity eta(x,y) dpi(y) = (e^{V(x)-V(y)} + 1) * base / c_V
    comparable to a flat nonlocal diffusion plus a drift toward low
    potential; with V = 0 it reduces to 2 * base.
    """

    potential: PotentialSpec
    base: KernelSpec

    def singularity_exponent(self, dim: int) -> float:
        return self.base.singularity_exponent(dim)

    def to_dict(self) -> dict:
        return {"type": "weighted", "potential": self.potential.to_dict(), "base": self.base.to_dict()}


@dataclass
class TabulatedKernel(KernelSpec):
    """A kernel given by grid-pair values, made continuous by extend_kernel.

    ``path`` and ``sha256`` name the saved system the values came from;
    `kernel_from_dict` fills them in, so ``to_dict`` can be replayed.
    """

    evaluator: "ExtendedKernel"
    path: str | None = None
    sha256: str | None = None

    def to_dict(self) -> dict:
        doc = {
            "type": "tabulated",
            "level": self.evaluator.level,
            "dim": self.evaluator.dim,
            "bandwidth": self.evaluator.bandwidth,
            "exponent": self.evaluator.exponent,
        }
        if self.path is not None:
            doc["path"] = self.path
            doc["sha256"] = self.sha256
        return doc


def kernel_from_dict(doc: dict) -> KernelSpec:
    kind = doc.get("type")
    if kind == "constant":
        return ConstantKernel(c=float(doc["c"]))
    if kind == "fractional":
        return FractionalKernel(s=float(doc["s"]), scale=float(doc.get("scale", 1.0)))
    if kind == "weighted":
        return WeightedKernel(potential=potential_from_dict(doc["potential"]), base=kernel_from_dict(doc["base"]))
    if kind == "tabulated":
        from .discretize import load_system  # local import to avoid a cycle

        path = str(doc["path"])
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if doc.get("sha256", digest) != digest:
            raise ValueError(f"tabulated kernel source {path!r} has sha256 {digest}, expected {doc['sha256']}")
        evaluator = extend_kernel(load_system(path), float(doc["bandwidth"]), float(doc["exponent"]))
        return TabulatedKernel(evaluator=evaluator, path=path, sha256=digest)
    raise ValueError(f"unknown kernel type {kind!r}")


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------


def _radial_values(spec: KernelSpec, r: np.ndarray, dim: int) -> np.ndarray:
    """eta at radius r on T^dim, for a kernel that reads only the radius (`_radial`)."""
    if isinstance(spec, ConstantKernel):
        return np.full(r.shape, spec.c)
    if isinstance(spec, FractionalKernel):
        return spec.scale * r ** (-(dim + spec.s))
    raise TypeError(f"{type(spec).__name__} is not a radial kernel")


def _values_with_radius(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Kernel dispatch with the pair distance supplied by the caller.

    Radial quadratures pass the analytically known radius here: near the
    diagonal x + t rounds back to x in floating point, so recomputing r
    from the points would collapse it to zero.  Only point-dependent
    kernels read X and Y; radial ones go to `_radial_values`.
    """
    if _radial(spec):
        return _radial_values(spec, r, X.shape[1])
    if isinstance(spec, WeightedKernel):
        cv = spec.potential.normalization(X.shape[1])
        w = np.exp(spec.potential(X)) + np.exp(spec.potential(Y))
        return w * _values_with_radius(spec.base, X, Y, r) / cv
    if isinstance(spec, TabulatedKernel):
        return spec.evaluator.batch(X, Y)
    raise TypeError(f"unknown kernel spec {type(spec).__name__}")


def _radial(spec: KernelSpec) -> bool:
    """Whether eta(x, y) reads only the radius |x - y|, so `_radial_values` evaluates it."""
    return isinstance(spec, (ConstantKernel, FractionalKernel))


def kernel_values(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vectorized eta(X_k, Y_k) over paired rows of two (m, d) arrays.

    All rows must be off-diagonal (positive torus distance).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape:
        raise ValueError("paired point arrays must have equal shapes")
    r = wrapped_norm(X - Y)
    if np.any(r == 0.0):
        raise KernelError("kernel evaluated on the diagonal x = y")
    return _values_with_radius(spec, X, Y, r)


# ---------------------------------------------------------------------------
# Moment quadrature constants
# ---------------------------------------------------------------------------

PANEL_ORDER = {1: 16, 2: 6, 3: 5}  # Gauss order per axis of a shell box, by dimension
MAX_PANELS = 64  # dyadic shells per moment integral
RATIO_CAP = 0.9999  # measured shell ratio at or above which refinement is divergent
BLOCK_NODES = 2**15  # shell nodes evaluated at once: all of them in d <= 2, a few shells in d = 3
PROBE_FACTOR = 4  # probe lattice for sups over x: this many points per working-level cell
TAIL_LADDER = (2.0, 5.0, 10.0, 100.0)  # radii R at which check_assumptions reads the tail profile


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = (x, w)
    return _GAUSS_CACHE[order]


def _gauss_nodes(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gauss_rule(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


# ---------------------------------------------------------------------------
# Truncated second moment and friends
# ---------------------------------------------------------------------------


def _dyadic_sum(contributions: Iterable[float], message: str) -> float:
    """Sum dyadic shell contributions, outermost first, and extrapolate the tail.

    Summation stops once a contribution (from the third on) drops below
    1e-16 times the running total, and the rest of ``contributions`` is
    not drawn; otherwise the remainder under the last shell is
    extrapolated from the measured ratio of the last two.  A
    ratio >= ``RATIO_CAP`` raises KernelDivergenceError with ``message``
    formatted with ``ratio``.
    """
    total = prev = last = 0.0
    for k, contrib in enumerate(contributions):
        prev, last = last, contrib
        total += contrib
        if contrib <= 1e-16 * max(total, 1e-300) and k >= 2:
            return total
    if prev <= 0.0 or last <= 0.0:
        return total
    ratio = last / prev
    if ratio >= RATIO_CAP:
        raise KernelDivergenceError(message.format(ratio=ratio))
    return total + last * ratio / (1.0 - ratio)


def _shell_nodes(d: int, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor Gauss rules on the shells [-h, h]^d minus [-h/2, h/2]^d, h in ``hi``.

    Each axis is cut at 0 and +-h/2 into four intervals; a shell is the
    4^d - 2^d boxes of side h/2 that lie in an outer interval on some
    axis, each with ``PANEL_ORDER[d]`` Gauss nodes per axis.  Returns the
    nodes and weights of one axis, each of shape (len(hi), 4 order), and
    for each of the m shell nodes and each axis the column of its
    coordinate among the axis nodes, shape (m, d).  In d = 1 a shell's
    nodes are the outer interval's followed by their negatives.
    """
    order = PANEL_ORDER[d]
    hi = hi[:, None]
    outer, w_outer = _gauss_nodes(hi * 0.5, hi, order)
    inner, w_inner = _gauss_nodes(0.0, hi * 0.5, order)
    axis = np.concatenate([outer, -outer, inner, -inner], axis=1)
    w_axis = np.concatenate([w_outer, w_outer, w_inner, w_inner], axis=1)
    idx = np.indices((4 * order,) * d).reshape(d, -1).T
    return axis, w_axis, idx[np.any(idx < 2 * order, axis=1)]


def _moment(spec, pi, x, half: float) -> float:
    """int |t|^2 eta(x, x+t) rho_pi(x+t) dt over the cube |t|_inf <= half.

    Shell k of the cube is [-2a, 2a]^d minus [-a, a]^d with
    a = half 2^{-k-1}, integrated on the nodes of `_shell_nodes`.  The
    shells are evaluated in blocks of about ``BLOCK_NODES`` nodes, and
    only as far as `_dyadic_sum` draws them; it adds them and
    extrapolates the rest at the origin.  With half <= 1/2 the cube stays
    inside one period and |t| <= sqrt(3)/2 < 1, so the weight
    min(1, |t|^2) of the second moment is |t|^2 throughout.  The whole
    cube (half = 1/2) is the second moment; a smaller one is a tail
    integral of `tail_profile`, and the divergence error says which.
    """
    d = x.shape[0]
    axis, w_axis, idx = _shell_nodes(d, half * 0.5 ** np.arange(MAX_PANELS))
    wrapped, squared = np.mod(x[:, None, None] + axis, 1.0), np.square(axis)
    n_blocks = -(-MAX_PANELS * len(idx) // BLOCK_NODES)  # ceiling division

    def shells():
        for block in np.array_split(np.arange(MAX_PANELS), n_blocks):
            y = np.empty((block.size, len(idx), d))
            r2 = np.zeros(y.shape[:2])
            w = np.ones(y.shape[:2])
            for a in range(d):  # wrap, square and weigh per axis, then spread over the shell nodes
                y[:, :, a] = np.take(wrapped[a, block], idx[:, a], axis=1)
                r2 += np.take(squared[block], idx[:, a], axis=1)
                w *= np.take(w_axis[block], idx[:, a], axis=1)
            y = y.reshape(-1, d)
            vals = _values_with_radius(spec, np.broadcast_to(x, y.shape), y, np.sqrt(r2).ravel()) * pi.density(y)
            f = r2 * vals.reshape(r2.shape)
            yield from (float(np.dot(w[k], f[k])) for k in range(block.size))

    what = "second moment" if half >= 0.5 else "tail integral"
    return _dyadic_sum(
        shells(),
        f"{what} does not converge under dyadic refinement "
        "(panel ratio {ratio:.6f}); the kernel is too singular",
    )


def second_moment(spec: KernelSpec, pi: MeasureSpec, x) -> float:
    """int_{T^d} (1 ^ |x-y|^2) eta(x, y) dpi(y).

    Raises KernelDivergenceError when the integral fails to converge
    under dyadic refinement (e.g. a fractional exponent s >= 2).
    """
    p = as_point(x)
    d = p.shape[0]
    if spec.singularity_exponent(d) <= -(d + 2):
        raise KernelDivergenceError(
            f"kernel singularity exponent {spec.singularity_exponent(d):g} makes the "
            "second moment infinite (needs > -(d+2))"
        )
    return _moment(spec, pi, p, 0.5)


def _probe_lattice(dim: int, working_level: int | None) -> np.ndarray:
    if working_level is not None:
        n = PROBE_FACTOR * working_level
    else:
        n = {1: 64, 2: 12, 3: 5}[dim]
    n = max(2, min(n, {1: 512, 2: 24, 3: 8}[dim]))
    return build_grid(dim, n).points


def _sup_probes(spec: KernelSpec, pi: MeasureSpec, dim: int, working_level: int | None) -> np.ndarray:
    """The points x at which the sups over x read their integral.

    The probe lattice has ``PROBE_FACTOR`` times the working level points
    per axis (64 / 12 / 5 without one in d = 1 / 2 / 3, capped at
    512 / 24 / 8).  On the uniform measure with a `_radial` kernel the
    integrand reads no position, so every probe gives the same bits and
    the first, the origin, stands for the lattice.
    """
    probes = _probe_lattice(dim, working_level)
    if isinstance(pi, UniformMeasure) and _radial(spec):
        return probes[:1]
    return probes


def _moment_sup(spec: KernelSpec, pi: MeasureSpec, dim: int, working_level: int | None = None) -> float:
    """sup_x second_moment, as a max over `_sup_probes`, so the value is a
    lower bound on the true sup."""
    return max(0.0, *(second_moment(spec, pi, x) for x in _sup_probes(spec, pi, dim, working_level)))


def c_eta(spec: KernelSpec, pi: MeasureSpec, dim: int = 1, working_level: int | None = None) -> float:
    """Flux-bound constant sqrt(2 * sup_x second_moment), the sup from `_moment_sup`."""
    return float(np.sqrt(2.0 * _moment_sup(spec, pi, dim, working_level)))


def tail_profile(spec: KernelSpec, pi: MeasureSpec, R: float, dim: int = 1) -> float:
    """sup_x of the second-moment integral restricted to near-diagonal pairs.

    Condition (3) restricts the integral to {|x-y| < 1/R} union
    {|x-y| > R}; on the torus the far part is empty for R > diam(T^d).
    The near part is integrated over the cube Q(1/R) = {|x-y|_inf < 1/R}
    (at most one period wide) rather than the ball B(1/R): the two agree
    in d = 1, and B(1/R) is inside Q(1/R), which is inside B(sqrt(d)/R),
    so in every d the cube tail tends to 0 as R -> inf exactly when the
    ball tail does, i.e. when the kernel is uniformly integrable at the
    diagonal.  Nonincreasing in R.  The sup is over `_sup_probes`
    without a working level.
    """
    if R <= 1.0:
        raise ValueError("tail profile requires R > 1")
    return max(0.0, *(_moment(spec, pi, x, min(1.0 / R, 0.5)) for x in _sup_probes(spec, pi, dim, None)))


# ---------------------------------------------------------------------------
# Admissibility report
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    """Numerical check of the kernel/measure admissibility conditions.

    ``shift_diagnostic`` is informational only: it samples the relative
    change of eta under simultaneous translation of both arguments
    (zero for translation-invariant kernels); no threshold is applied.
    ``moment_sup`` is `_moment_sup` itself, not c_eta^2 / 2, and
    ``probe_points`` the size of the probe lattice of the sups, where one
    probe stands for it in the one-probe case of `_sup_probes`.
    """

    symmetry_residual: float
    moment_sup: float
    tail: dict[float, float]
    tail_monotone: bool
    positive: bool
    min_sampled: float
    shift_diagnostic: float
    probe_points: int
    passes: bool


def check_assumptions(
    spec: KernelSpec,
    pi: MeasureSpec,
    dim: int = 1,
    n_samples: int = 256,
) -> AdmissibilityReport:
    """Evaluate symmetry, moment bound, tail decay and positivity.

    The samples come from seed 0, and the tail profile is read at R in
    ``TAIL_LADDER``.
    """
    rng = np.random.default_rng(0)
    X = rng.random((n_samples, dim))
    Y = rng.random((n_samples, dim))
    coincident = np.all(X == Y, axis=1)
    Y[coincident] = np.mod(Y[coincident] + 0.25, 1.0)
    vals_xy = kernel_values(spec, X, Y)
    vals_yx = kernel_values(spec, Y, X)
    sym = float(np.max(np.abs(vals_xy - vals_yx)))
    min_sampled = float(min(vals_xy.min(), vals_yx.min()))

    try:
        moment = _moment_sup(spec, pi, dim)
        moment_ok = np.isfinite(moment)
    except KernelDivergenceError:
        moment = float("inf")
        moment_ok = False

    tail: dict[float, float] = {}
    if moment_ok:
        for R in TAIL_LADDER:
            tail[R] = tail_profile(spec, pi, R, dim=dim)
        tvals = [tail[R] for R in TAIL_LADDER]
        tail_monotone = all(a >= b - 1e-12 for a, b in zip(tvals, tvals[1:]))
    else:
        tail_monotone = False

    # informational shift diagnostic: eta(x - z, y - z) / eta(x, y) - 1
    shifts = rng.random((8, dim)) * 0.05
    worst_shift = 0.0
    for z in shifts:
        shifted = kernel_values(spec, np.mod(X - z, 1.0), np.mod(Y - z, 1.0))
        worst_shift = max(worst_shift, float(np.max(np.abs(shifted / vals_xy - 1.0))))

    positive = min_sampled > 0.0
    passes = sym <= 1e-12 and moment_ok and tail_monotone and positive
    return AdmissibilityReport(
        symmetry_residual=sym,
        moment_sup=moment,
        tail=tail,
        tail_monotone=tail_monotone,
        positive=positive,
        min_sampled=min_sampled,
        shift_diagnostic=worst_shift,
        probe_points=len(_probe_lattice(dim, None)),
        passes=passes,
    )


# ---------------------------------------------------------------------------
# Singular-kernel interpolation
# ---------------------------------------------------------------------------


# Target size of one (queries, window, window) array in ExtendedKernel.batch.
_BATCH_BYTES = 2**23


@dataclass
class ExtendedKernel:
    """Continuous kernel interpolating grid-pair values.

    eta~(x, y) = sum_{(j,k)} eta_jk K(z_jk / eps) / sum K(z_jk / eps)
    over off-diagonal grid pairs with z_jk = |x - x_j| + |y - x_k| < eps
    (torus distances), where K(z) = z^{-a} (1 - z^2).  The weight blows
    up at z = 0, so exact grid-pair queries return the stored value, and
    every value is a convex combination of contributing stored values.
    ``points`` is the uniform lattice ``build_grid(dim, level).points``.
    """

    points: np.ndarray
    eta: np.ndarray
    bandwidth: float
    exponent: float
    level: int
    dim: int

    def __call__(self, x, y) -> float:
        return float(self.batch(as_point(x)[None, :], as_point(y)[None, :])[0])

    def batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """eta~ at the paired rows of X and Y, (m, d) each.

        Queries run in chunks whose (chunk, window, window) arrays stay
        near ``_BATCH_BYTES`` (at least one query per chunk).  Raises
        CoverageError if any query has no stored pair within the bandwidth.
        """
        X = np.mod(np.atleast_2d(np.asarray(X, dtype=float)), 1.0)
        Y = np.mod(np.atleast_2d(np.asarray(Y, dtype=float)), 1.0)
        size = self._window_width() ** self.dim
        chunk = max(1, _BATCH_BYTES // (8 * size * size))
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], chunk):
            out[lo : lo + chunk] = self._chunk(X[lo : lo + chunk], Y[lo : lo + chunk])
        return out

    def _window_width(self) -> int:
        """Lattice indices per axis in a query's window (see `_window`)."""
        return min(2 * int(np.ceil(self.bandwidth * self.level)) + 2, self.level)

    def _window(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices and torus distances of the lattice points near each row of P.

        A lattice point within the bandwidth of p is within it on every
        axis, so per axis its index lies among the 2m + 2 indices from
        floor(p n) - m with m = ceil(bandwidth n), wrapped mod n; when
        that many would wrap onto themselves the window is the whole
        axis.  Returns both arrays with shape (q, width^d).
        """
        n, q, width = self.level, P.shape[0], self._window_width()
        first = np.floor(P * n).astype(int) - (width - 2) // 2 if width < n else np.zeros(P.shape, dtype=int)
        flat = np.zeros((q, 1), dtype=int)
        for a in range(self.dim):
            idx = np.mod(first[:, a, None] + np.arange(width), n)
            flat = (flat[:, :, None] * n + idx[:, None, :]).reshape(q, -1)
        return flat, wrapped_norm(self.points[flat] - P[:, None, :])

    def _chunk(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        q = X.shape[0]
        jx, dx = self._window(X)
        jy, dy = self._window(Y)
        z = dx[:, :, None] + dy[:, None, :]
        z[jx[:, :, None] == jy[:, None, :]] = np.inf  # stored data lives off the diagonal
        eta = self.eta[jx[:, :, None], jy[:, None, :]].reshape(q, -1)
        zeta = (z / self.bandwidth).reshape(q, -1)
        inside = zeta < 1.0
        if not inside.any(axis=1).all():
            raise CoverageError(f"no stored grid pair within bandwidth {self.bandwidth:g} of the query")
        masked = np.where(inside, zeta, np.inf)
        nearest = masked.argmin(axis=1)
        zmin = masked[np.arange(q), nearest][:, None]
        exact = zmin[:, 0] == 0.0
        # normalize by the smallest distance so the singular weight never overflows
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(inside, zeta / zmin, np.inf)
        w = rel ** (-self.exponent) * np.where(inside, 1.0 - zeta * zeta, 0.0)
        vals = np.sum(w * eta, axis=1) / np.sum(w, axis=1)
        vals[exact] = eta[exact, nearest[exact]]
        return vals


def extend_kernel(sys, bandwidth: float, exponent: float) -> ExtendedKernel:
    """Extend the grid-pair kernel of a discrete system to all of T^d x T^d.

    ``bandwidth`` must exceed the smallest positive pairwise distance of
    the product grid (one lattice spacing), otherwise some queries near a
    stored pair would see no neighbors at all; ``exponent`` must exceed 2
    so the interpolation weight is singular enough to reproduce stored
    values in the limit.
    """
    if exponent <= 2.0:
        raise ValueError(f"interpolation exponent must be > 2, got {exponent:g}")
    grid = sys.grid
    min_spacing = 1.0 / grid.level
    if bandwidth <= min_spacing:
        raise ValueError(
            f"bandwidth {bandwidth:g} must exceed the minimal product-grid spacing {min_spacing:g}"
        )
    return ExtendedKernel(
        points=grid.points,
        eta=np.asarray(sys.eta, dtype=float),
        bandwidth=float(bandwidth),
        exponent=float(exponent),
        level=grid.level,
        dim=grid.dim,
    )
