"""Finite-volume discretization of a kernel/measure pair on the torus.

The level-n system replaces the continuum pair (eta, pi) with

  pi_n(j)     = pi(cell_j)                      (pushforward under the
                                                 nearest-center map)
  eta_n(j,k)  = 1/(pi_n(j) pi_n(k)) *
                iint_{cell_j x cell_k} 1{|x-y| >= delta_n/2} eta(x,y) dpi dpi

with delta_n = sqrt(d)/n the cell diameter.  Removing pairs closer than
delta_n/2 keeps every entry finite even for singular kernels, while the
elementary bound (1 ^ |x_j - x_k|^2) <= 4 (1 ^ |x - y|^2) for x, y in
the respective cells makes the discrete truncated second moment

  M_n = max_j sum_k (1 ^ |x_j - x_k|^2) eta_n(j,k) pi_n(k)

at most 4x its continuum counterpart, uniformly in n; `verify_moment_bound`
checks that inequality numerically.

Quadrature.  One integrator, `_pair_integrals`, takes every cell-pair
integral in displacement coordinates: with t = y - x it integrates over
the window s + [-w, w]^d around the wrapped centre offset s, by an outer
tensor rule in tau = t - s whose nodes carry a cutoff mask per pair,
times a tensor Gauss rule over the exact overlap box.  A constant or
fractional kernel depends on the displacement alone, so the integral
factors per tau: eta(|s + tau|), evaluated once per (pair, tau), times
the inner rule's average of rho(x) rho(y) over the overlap box (the
split of Sauter & Schwab, Boundary Element Methods, 2011, ch. 5).  On
the uniform measure that average is exactly 1: the pair integral is the
outer sum of eta(|s + tau|) times the mask, with no inner rule and no
density.  Weighted and tabulated kernels take eta with the densities at
every inner node.  Each pair doubles its rule until the relative change
drops below ``PAIR_TOL``.  Every d = 1 pair and every pair where the
cutoff is inactive (the cells are at least delta_n/2 apart) uses Gauss
panels whose boundaries hold every tent, wrap and (in d = 1) cutoff
kink, so the converged entries are accurate far beyond that tolerance.
In d >= 2 the pairs the cutoff cuts use a midpoint lattice whose
subcells get exact-geometry mask fractions from a fixed sub-lattice;
that rule converges as O(1/m), so its ``PAIR_TOL`` stop bounds the last
change, not the error.  Work runs in blocks of at most ``_NODE_BUDGET``
points, and both sums of the rule are taken pair by pair, so a pair's
value does not depend on which pairs share its block.  A rule whose
per-pair node array would exceed ``_ARRAY_BYTES_LIMIT`` raises
QuadratureError before it is allocated, as does a pushforward rule whose
cell nodes would.

Far field.  In d = 1 with a constant or fractional kernel, a pair whose
cells are at least one cell apart and whose displacements stay inside
the wrap kink (offset o >= 2 with 2 o < n - 1) has a smooth integrand.
`_far_field` integrates those pairs with one Gauss rule of ``FAR_ORDER``
points per cell; the kernel values then depend on the offset alone, so
the far field is one small matrix product per offset (a near/far split
as in Hackbusch, Hierarchical Matrices, 2015).  Each value must agree
with the ``FAR_CHECK_ORDER`` rule to ``PAIR_TOL``; a pair that does not
(a density with a kink inside a cell) goes to the pair rule, as do
offsets 1 and floor(n/2), weighted and tabulated kernels, and d >= 2.

Offset classes.  On the uniform measure with a translation-invariant
kernel (constant, fractional) the pair integral depends only on the
integer cell offset o = k - j (mod n per axis), up to its sign.  Such a
build evaluates one pair per class {o, -o}, the pair (0, c) with c the
smaller flat index of o and -o, and turns row 0 by each cell's
multi-index to fill that cell's row, so eta_n is exactly multilevel
circulant.  Every other input evaluates each pair on the same code path.

eta's upper triangle is the one store of pair integrals: an N x N mask
marks the pairs still to do, only the pairs left for the pair rule are
listed, and the division by pi_n(j) pi_n(k) and the mirror run row by
row.  Batches have a deterministic write order, so two builds from the
same config are bit-identical.  A system holds no pair list: pair order
is row-major i < j, the order of ``system.json``'s eta, and only the
transport solver (``metric``) lists the pairs as edge arrays.  Systems
serialize to a self-describing JSON document (schema "nlw-system/v2")
that stores eta once and bit-exactly: its strict upper triangle in pair
order, as base64 of little-endian float64 bytes.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from functools import reduce
from itertools import pairwise
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .kernels import (
    KernelSpec,
    MeasureSpec,
    UniformMeasure,
    _gauss_nodes,
    _radial,
    _radial_values,
    _refuse_above_limit,
    _values_with_radius,
)
from .torus import GridSpec, build_grid, wrapped_norm

__all__ = [
    "DiscreteSystem",
    "QuadratureError",
    "ZeroCellError",
    "pushforward_measure",
    "discretize_kernel",
    "build_system",
    "verify_moment_bound",
    "MomentBoundReport",
    "system_document",
    "canonical_json",
    "load_system",
    "SYSTEM_SCHEMA",
]

SYSTEM_SCHEMA = "nlw-system/v2"

PAIR_TOL = 1e-4  # relative change that stops the doubling of a cell-pair rule
FAR_ORDER = 8  # Gauss points per cell of the d = 1 far-field rule
FAR_CHECK_ORDER = 4  # the coarser rule the far field must agree with to PAIR_TOL
CELL_TOL = 1e-12  # relative change that stops the doubling of the per-cell pushforward rule
MIN_CELL_MASS = 1e-14  # smallest pi_n(j) a cell may carry
MAX_DOUBLINGS = 7  # doublings allowed before either rule raises QuadratureError


class QuadratureError(RuntimeError):
    """A cell-pair or per-cell integral failed to converge."""


class ZeroCellError(ValueError):
    """A cell carries (numerically) no reference mass: pi_n(j) < ``MIN_CELL_MASS``.

    Every layer works in u = drho/dpi_n, so every DiscreteSystem, built,
    loaded or made from arrays, rejects near-empty cells rather than
    clamping them; mixing in a sliver of Lebesgue measure (MixedMeasure)
    is the supported fix.
    """


def _reject_empty_cells(pi: np.ndarray) -> None:
    bad = np.nonzero(pi < MIN_CELL_MASS)[0]
    if bad.size:
        raise ZeroCellError(
            f"cells {bad[:8].tolist()} carry mass below {MIN_CELL_MASS:g}; mix in Lebesgue measure "
            "or coarsen the grid"
        )


# ---------------------------------------------------------------------------
# Discrete system container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSystem:
    """An immutable weighted-graph system (grid, pi_n, eta_n).

    Invariants (enforced at construction): pi sums to 1 within 1e-12
    with entries at least ``MIN_CELL_MASS`` (else ZeroCellError); eta is
    finite, exactly symmetric, has an exactly zero diagonal and is
    positive off it (condition (5) of ``kernels``), so every pair i != j
    is an edge and the support graph is complete.
    """

    grid: GridSpec
    pi: np.ndarray
    eta: np.ndarray
    provenance: dict

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        n = self.grid.n_points
        if pi.shape != (n,):
            raise ValueError(f"pi has shape {pi.shape}, expected ({n},)")
        if eta.shape != (n, n):
            raise ValueError(f"eta has shape {eta.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(pi)):
            raise ValueError("pi entries must be finite")
        _reject_empty_cells(pi)
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"pi sums to {pi.sum()!r}, not 1")
        if not np.all(np.isfinite(eta)):
            raise ValueError("eta entries must be finite")
        if not np.array_equal(eta, eta.T):
            raise ValueError("eta must be exactly symmetric")
        if np.any(np.diagonal(eta) != 0.0):
            raise ValueError("eta must have an exactly zero diagonal")
        closed = eta <= 0.0
        closed[np.diag_indices(n)] = False
        if closed.any():
            i, j = divmod(int(np.argmax(closed)), n)
            raise ValueError(f"eta must be positive off the diagonal, but eta[{i}, {j}] = {eta[i, j]:g}")
        pi.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "eta", eta)

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def delta(self) -> float:
        """The cutoff scale delta_n: the cell diameter of the grid."""
        return self.grid.cell_diameter

    @classmethod
    def from_arrays(cls, grid: GridSpec, pi, eta) -> "DiscreteSystem":
        return cls(grid=grid, pi=np.array(pi, dtype=float), eta=np.array(eta, dtype=float), provenance={})


# ---------------------------------------------------------------------------
# Pushforward measure
# ---------------------------------------------------------------------------


def _cell_nodes(grid: GridSpec, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss nodes/weights per cell, shapes (N, order^d, d) and (order^d,)."""
    w = grid.cell_width
    t1, w1 = _gauss_nodes(-0.5 * w, 0.5 * w, order)
    d = grid.dim
    offs = np.stack(np.meshgrid(*([t1] * d), indexing="ij"), axis=-1).reshape(-1, d)
    wts = np.prod(np.stack(np.meshgrid(*([w1] * d), indexing="ij"), axis=-1).reshape(-1, d), axis=1)
    nodes = np.mod(grid.points[:, None, :] + offs[None, :, :], 1.0)
    return nodes, wts


def pushforward_measure(
    pi: MeasureSpec,
    grid: GridSpec,
    return_factor: bool = False,
):
    """Cell masses pi_n(j) = pi(cell_j), renormalized to sum exactly 1.

    Per-cell tensor Gauss quadrature of the density, with the order
    doubled until the weights stop moving (relative change below
    ``CELL_TOL``), unless its cell nodes would exceed
    ``_ARRAY_BYTES_LIMIT`` bytes (QuadratureError).  The renormalization
    factor must lie within 1e-8 of 1 — a larger defect means the
    quadrature, not the measure, is wrong.  Weights below
    ``MIN_CELL_MASS`` raise ZeroCellError.
    """
    order = 16 if grid.dim == 1 else (8 if grid.dim == 2 else 5)
    prev = None
    weights = None
    for _ in range(MAX_DOUBLINGS + 1):
        need = grid.n_points * order**grid.dim * grid.dim * 8
        _refuse_above_limit(need, QuadratureError, "pushforward quadrature (unconverged)", f"order {order}")
        nodes, wts = _cell_nodes(grid, order)
        dens = pi.density(nodes.reshape(-1, grid.dim)).reshape(grid.n_points, -1)
        weights = dens @ wts
        if prev is not None:
            scale = np.maximum(np.abs(weights), 1e-300)
            if float(np.max(np.abs(weights - prev) / scale)) <= CELL_TOL:
                break
        prev = weights
        order *= 2
    else:
        raise QuadratureError("pushforward quadrature did not converge; is the density wildly oscillatory?")

    total = float(weights.sum())
    if abs(total - 1.0) > 1e-8:
        raise QuadratureError(
            f"pushforward weights sum to {total!r}; the measure does not integrate to 1 "
            "at quadrature accuracy"
        )
    weights = weights / total
    _reject_empty_cells(weights)
    if return_factor:
        return weights, total
    return weights


# ---------------------------------------------------------------------------
# Cell-pair classification
# ---------------------------------------------------------------------------


def _wrapped_signed(a: np.ndarray) -> np.ndarray:
    """Wrap center offsets to the fundamental window [-1/2, 1/2)."""
    return np.mod(a + 0.5, 1.0) - 0.5


def _pair_min_distance_sq(grid: GridSpec, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Min squared distance between any two points of cells j and k, pair by pair."""
    diff = np.abs(grid.points[j] - grid.points[k])
    gaps = np.maximum(np.minimum(diff, 1.0 - diff) - grid.cell_width, 0.0)
    return np.sum(gaps * gaps, axis=-1)


def _pair_representatives(spec, pi, grid: GridSpec) -> np.ndarray | None:
    """For each flat cell offset o, the flat index of the smaller of o and -o (mod n per axis), or None.

    On the uniform measure a translation-invariant, symmetric kernel gives
    the pair (j, k) the integral of the pair (0, rep[o]), o the flat index
    of k - j.  Every other input has no offset classes (None).
    """
    if not (isinstance(pi, UniformMeasure) and _radial(spec)):
        return None
    shape = (grid.level,) * grid.dim
    offsets = np.arange(grid.n_points)
    negated = np.ravel_multi_index(tuple(-a % grid.level for a in np.unravel_index(offsets, shape)), shape)
    return np.minimum(offsets, negated)


# ---------------------------------------------------------------------------
# Cell-pair integrals: an outer rule in the displacement, an inner Gauss rule
# ---------------------------------------------------------------------------


# One cell pair's (T U, d) nodes of its outer (T) and inner (U) rule, or on the
# uniform measure with a radial kernel its (T, d) outer nodes, may take at most
# ``_ARRAY_BYTES_LIMIT`` bytes; below it `_pair_integrals` evaluates at most
# ``_NODE_BUDGET`` points at a time, (pair, outer, inner) nodes or (pair, outer,
# sub-lattice) mask points.  Each sum is taken entry by entry, so neither the
# budget nor a pair's block changes a value.
_NODE_BUDGET = 2**17


class _OuterRule(NamedTuple):
    """A tensor rule in the displacement tau = t - s, given on one axis.

    ``tau`` and ``weight`` are the nodes and weights of one axis; the
    overlap-box length w - |tau_i| is applied by `_pair_integrals`.  The
    mask of a node is the share of the sub-lattice ``offsets`` (S, d), the
    midpoints of a box of side ``cell``, around s + ``probe`` that lies
    outside the cutoff (`_cutoff_fractions`); a ``probe`` of None is tau
    itself.  ``order`` is the inner Gauss order per axis; ``name`` and
    ``size`` label error messages.
    """

    name: str
    size: str
    tau: np.ndarray
    weight: np.ndarray
    probe: np.ndarray | None
    cell: float
    offsets: np.ndarray
    order: int


def _panel_gauss(order: int, grid: GridSpec) -> _OuterRule:
    """Four Gauss panels of width w/2 per axis, breakpoints s_i + {-w, -w/2, 0, w/2, w}.

    Centre offsets are whole multiples of w and 1/2 = (n/2) w, so the tent
    kink t_i = s_i and the wrap kinks t_i = +-1/2 lie on panel boundaries;
    in d = 1 so do the cutoffs +-delta/2 and +-(1 - delta/2), and dropping
    each panel whose midpoint radius is below delta/2 is the exact cutoff.
    The inner rule has the same order.
    """
    edges = np.array([-1.0, -0.5, 0.0, 0.5, 1.0]) * grid.cell_width
    panels = [_gauss_nodes(a, b, order) for a, b in pairwise(edges)]
    tau = np.concatenate([t for t, _ in panels])
    weight = np.concatenate([wt for _, wt in panels])
    mid = np.repeat(0.5 * (edges[:-1] + edges[1:]), order)
    return _OuterRule("Gauss pair rule", f"order {order}", tau, weight, mid, 0.0, np.zeros((1, grid.dim)), order)


def _masked_lattice(m: int, grid: GridSpec) -> _OuterRule:
    """Midpoint lattice of m subcells per axis, each masked by its frac_sub^d
    sub-lattice (d >= 2 pairs the cutoff cuts); the inner rule has order 4."""
    w, d = grid.cell_width, grid.dim
    tau = ((np.arange(m) + 0.5) / m - 0.5) * (2.0 * w)
    h = 2.0 * w / m
    frac_sub = 8 if d == 2 else 4
    sub1 = ((np.arange(frac_sub) + 0.5) / frac_sub - 0.5) * h
    offsets = np.stack(np.meshgrid(*([sub1] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return _OuterRule("displacement lattice", f"m={m}", tau, np.full(m, h), None, h, offsets, 4)


def _cutoff_fractions(
    t: np.ndarray, cell: float, offsets: np.ndarray, dhalf: float, r: np.ndarray | None = None
) -> np.ndarray:
    """Share of the sub-lattice ``offsets`` of each box t + [-cell/2, cell/2]^d at wrapped radius >= dhalf.

    ``t`` has shape (..., d) and ``r``, its wrapped radius when the caller
    has it, shape (...); so has the result.  The torus distance is
    1-Lipschitz, so a box whose centre radius lies farther than its
    half-diagonal from dhalf is wholly kept (1) or wholly cut (0); only the
    boxes of that cutoff band evaluate their sub-lattice.
    """
    if r is None:
        r = wrapped_norm(t)
    frac = (r >= dhalf).astype(float)
    band = np.abs(r - dhalf) < 0.5 * cell * np.sqrt(t.shape[-1]) * (1.0 + 1e-9) + 1e-12
    frac[band] = np.mean(wrapped_norm(t[band][:, None, :] + offsets) >= dhalf, axis=1)
    return frac


def _pair_integrals(spec, meas, grid: GridSpec, j: np.ndarray, k: np.ndarray, rule: _OuterRule) -> np.ndarray:
    """iint_{cell_j x cell_k} 1{r >= delta/2} eta rho rho for each pair (j, k).

    In displacement coordinates t = y - x each pair integrates over
    s + [-w, w]^d, s the wrapped centre offset, with the outer ``rule`` in
    tau = t - s, masked per pair by `_cutoff_fractions`.  For fixed tau, x
    runs over the overlap box of side w - |tau_i|.  A radial kernel
    (`_radial`) is constant there, eta(|s + tau|), so it is evaluated once
    per (pair, tau) and multiplies the inner Gauss rule's average of
    rho(x) rho(y); on the uniform measure that average is exactly 1, and
    the step builds no inner nodes and calls no density.  Any other
    kernel is evaluated with the densities at every inner node, of order
    ``rule.order``; the node offsets from the centre of cell j do not
    depend on the pair, so nodes and densities are built once per cell of
    a block and gathered by j and k.

    Pairs run in blocks of at most ``_NODE_BUDGET`` points: inner nodes,
    or on the uniform measure the mask's sub-lattice points, splitting a
    pair's tau nodes into chunks when one pair has more.  Both sums are
    per-entry reductions (``einsum``), the inner one per (pair, tau) and
    the outer one per pair, so each value depends on its pair alone: not
    on the other pairs of its block, nor on the budget.  A pair whose
    nodes would take more than ``_ARRAY_BYTES_LIMIT`` bytes, as a (tau,
    inner node, d) array or on the uniform measure a (tau, d) array,
    raises QuadratureError before anything is allocated.
    """
    d, w = grid.dim, grid.cell_width
    dhalf = 0.5 * grid.cell_diameter
    radial = _radial(spec)
    flat = radial and isinstance(meas, UniformMeasure)  # rho(x) rho(y) = 1: no inner rule
    n_tau, n_u = rule.tau.size**d, 1 if flat else rule.order**d
    what = f"{rule.name} for cells {int(j[0])} and {int(k[0])}"
    _refuse_above_limit(n_tau * n_u * d * 8, QuadratureError, what, rule.size)
    length1 = w - np.abs(rule.tau)
    wt = reduce(np.multiply.outer, [rule.weight * length1] * d).reshape(-1)
    if not flat:
        u1, wu1 = _gauss_nodes(0.0, 1.0, rule.order)
        x_off1 = -0.5 * rule.tau[:, None] + length1[:, None] * (u1[None, :] - 0.5)  # (A, order)
        y_off1 = x_off1 + rule.tau[:, None]
        ui = np.indices((rule.order,) * d).reshape(d, -1).T  # (U, d)
        wu = np.prod(wu1[ui], axis=1)
        axis_base = np.arange(d) * (rule.tau.size * rule.order)
    points = rule.offsets.shape[0] if flat else n_u  # points evaluated per (pair, tau)
    taus = min(n_tau, max(1, _NODE_BUDGET // points))  # tau nodes per block
    per_block = max(1, _NODE_BUDGET // (n_tau * points))  # pairs per block

    centres = grid.points
    out = np.empty(j.size)
    inner = 1.0  # inner rule of rho(x) rho(y), or of eta rho(x) rho(y) for a non-radial kernel
    kernel = 1.0  # eta(|s + tau|) for a radial kernel
    for b in range(0, j.size, per_block):
        jc, kc = j[b : b + per_block], k[b : b + per_block]
        s = _wrapped_signed(centres[kc] - centres[jc])[:, None, :]
        if not flat:
            cj, ij = np.unique(jc, return_inverse=True)
            ck, ik = np.unique(kc, return_inverse=True)
            # per cell, the node coordinates of every axis, flattened from (d, A, order);
            # a node's coordinates are gathered from them, one per axis
            x1 = np.mod(centres[cj][:, :, None, None] + x_off1, 1.0).reshape(cj.size, -1)
            y1 = np.mod(centres[ck][:, :, None, None] + y_off1, 1.0).reshape(ck.size, -1)
        g = np.empty((jc.size, n_tau))  # masked inner integrals
        for a in range(0, n_tau, taus):
            ti = np.stack(np.unravel_index(np.arange(a, min(a + taus, n_tau)), (rule.tau.size,) * d), axis=1)
            t = s + rule.tau[ti]  # (P, T, d)
            r = wrapped_norm(t)
            if radial:
                kernel = _radial_values(spec, r, d)
            if not flat:
                nodes = (axis_base + ti * rule.order)[:, None, :] + ui[None, :, :]  # (T, U, d)
                X = x1[:, nodes].reshape(cj.size, -1, d)
                Y = y1[:, nodes].reshape(ck.size, -1, d)
                dx = meas.density(X.reshape(-1, d)).reshape(cj.size, -1)
                dy = meas.density(Y.reshape(-1, d)).reshape(ck.size, -1)
                if radial:
                    f = dx[ij] * dy[ik]
                else:
                    vals = _values_with_radius(
                        spec, X[ij].reshape(-1, d), Y[ik].reshape(-1, d), np.repeat(r, n_u, axis=1).reshape(-1)
                    )
                    f = vals.reshape(jc.size, -1) * dx[ij] * dy[ik]
                inner = np.einsum("ptu,u->pt", f.reshape(jc.size, -1, n_u), wu)
            if rule.probe is None:
                mask = _cutoff_fractions(t, rule.cell, rule.offsets, dhalf, r)
            else:
                mask = _cutoff_fractions(s + rule.probe[ti], rule.cell, rule.offsets, dhalf)
            g[:, a : a + ti.shape[0]] = inner * kernel * mask
        out[b : b + jc.size] = np.einsum("pt,t->p", g, wt)
    return out


# ---------------------------------------------------------------------------
# Far field in d = 1: one Gauss rule per cell, one kernel matrix per offset
# ---------------------------------------------------------------------------


def _far_offsets(spec, grid: GridSpec) -> np.ndarray:
    """The offsets o whose pairs {c, c + o mod n} are far: o >= 2 and 2 o < n - 1.

    For a constant or fractional kernel in d = 1 such a pair's cells are
    at least one cell apart, so the cutoff is inactive, and its
    displacements o w +- w stay inside the wrap kink at 1/2, so
    eta(y - x) rho(x) rho(y) is smooth on it.  Every other input has no
    far pairs.
    """
    if grid.dim != 1 or not _radial(spec):
        return np.arange(0)
    return np.arange(2, grid.n_points // 2)


def _far_field(spec, meas, grid: GridSpec, todo: np.ndarray):
    """Yield (j, k, integrals) offset by offset: the far pairs j < k of ``todo`` that the far rule settles.

    ``todo`` is the N x N mask of the pairs still to integrate.  With a
    ``FAR_ORDER``-point Gauss rule per cell, a_p(c) = b_p rho(x_c + alpha_p),
    the integral of the pair {c, c + o} is
    sum_{p,r} a_p(c) h_pr(o) a_r(c + o), h_pr(o) = eta(o w + alpha_r - alpha_p):
    the kernel matrix depends on the offset alone, so one offset is one
    (cells x order) by (order x order) product.  Kernel values cost
    O(n order^2), densities O(n order) and memory O(n order) per offset.
    A pair is settled when its value agrees with the ``FAR_CHECK_ORDER``
    rule to ``PAIR_TOL``.
    """
    offsets = _far_offsets(spec, grid)
    if offsets.size == 0:
        return
    n, w = grid.n_points, grid.cell_width
    rules = []
    for order in (FAR_ORDER, FAR_CHECK_ORDER):
        alpha, b = _gauss_nodes(-0.5 * w, 0.5 * w, order)
        a = b * meas.density(np.mod(grid.points + alpha, 1.0).reshape(-1, 1)).reshape(n, order)
        r = (offsets * w)[:, None, None] + (alpha[None, :] - alpha[:, None])
        rules.append((a, _radial_values(spec, r, 1)))
    cells = np.arange(n)
    for i, o in enumerate(offsets):
        partner = (cells + o) % n
        wanted = todo[np.minimum(cells, partner), np.maximum(cells, partner)]
        c, k = cells[wanted], partner[wanted]
        fine, coarse = (np.einsum("ip,ip->i", a[c] @ h[i], a[k]) for a, h in rules)
        done = np.abs(fine - coarse) <= PAIR_TOL * np.maximum(np.abs(fine), 1e-300)
        yield np.minimum(c, k)[done], np.maximum(c, k)[done], fine[done]


# ---------------------------------------------------------------------------
# Kernel discretization
# ---------------------------------------------------------------------------


def discretize_kernel(
    spec: KernelSpec,
    pi: MeasureSpec,
    grid: GridSpec,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Cutoff cell-averaged kernel matrix eta_n.

    Entry (j, k) is the pair integral of eta * 1{distance >= delta/2}
    against the product measure, divided by pi_n(j) pi_n(k).  Computed
    for j < k and mirrored, so the result is exactly symmetric with a
    zero diagonal.  On the uniform measure with a constant or fractional
    kernel only one pair per offset class {o, -o} is integrated (see
    `_pair_representatives`).  Far pairs in d = 1 take `_far_field`
    where it passes its coarse check; every other pair doubles the pair
    rule.
    """
    if weights is None:
        weights = pushforward_measure(pi, grid)
    _reject_empty_cells(weights)
    N, d = grid.n_points, grid.dim
    dhalf = 0.5 * grid.cell_diameter
    # eta's upper triangle holds the pair integrals until they are divided by pi_n(j) pi_n(k)
    eta = np.zeros((N, N))
    todo = ~np.tri(N, dtype=bool)
    rep = _pair_representatives(spec, pi, grid)
    if rep is not None:  # one pair (0, c) per offset class
        todo[1:] = False
        todo[0] &= rep == np.arange(N)

    # far pairs in d = 1 take the per-offset rule where it passes its coarse check
    for j, k, values in _far_field(spec, pi, grid, todo):
        eta[j, k] = values
        todo[j, k] = False

    # every other pair doubles its rule until the relative change drops below PAIR_TOL:
    # the Gauss order from 2, or in d >= 2 for cutoff-active pairs the lattice size from 8
    jj, kk = np.nonzero(todo)
    lattice = np.zeros(jj.size, dtype=bool) if d == 1 else _pair_min_distance_sq(grid, jj, kk) < dhalf * dhalf
    for rule, size, members in ((_panel_gauss, 2, ~lattice), (_masked_lattice, 8, lattice)):
        j, k = jj[members], kk[members]
        prev = None
        for _ in range(MAX_DOUBLINGS + 1):
            if j.size == 0:
                break
            vals = _pair_integrals(spec, pi, grid, j, k, rule(size, grid))
            if prev is not None:
                done = np.abs(vals - prev) <= PAIR_TOL * np.maximum(np.abs(vals), 1e-300)
                eta[j[done], k[done]] = vals[done]
                j, k, vals = j[~done], k[~done], vals[~done]
            prev = vals
            size *= 2
        if j.size:
            raise QuadratureError(
                f"cell-pair quadrature did not converge for {j.size} pairs; first offender ({j[0]}, {k[0]})"
            )

    if rep is not None:
        row = eta[0, rep].reshape((grid.level,) * d)
        for j, shift in enumerate(np.ndindex(row.shape)):
            eta[j] = np.roll(row, shift, axis=tuple(range(d))).ravel()
    for j in range(N - 1):
        eta[j, j + 1 :] /= weights[j] * weights[j + 1 :]
        eta[j + 1 :, j] = eta[j, j + 1 :]
    return eta


def build_system(spec: KernelSpec, pi: MeasureSpec, grid: GridSpec) -> DiscreteSystem:
    """Assemble (pi_n, eta_n) into a validated DiscreteSystem."""
    weights, factor = pushforward_measure(pi, grid, return_factor=True)
    eta = discretize_kernel(spec, pi, grid, weights=weights)
    provenance = {"kernel": spec.to_dict(), "measure": pi.to_dict(), "renormalization": factor}
    return DiscreteSystem(grid=grid, pi=weights, eta=eta, provenance=provenance)


# ---------------------------------------------------------------------------
# Moment bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentBoundReport:
    """Outcome of the factor-4 moment comparison."""

    m_n: float
    continuum_sup: float
    bound: float
    ratio: float
    worst_row: int
    slack: float
    passes: bool


def verify_moment_bound(sys: DiscreteSystem, continuum_sup: float, slack: float = 0.01) -> MomentBoundReport:
    """Check M_n <= 4 * continuum_sup (with relative quadrature slack).

    M_n is the discrete truncated second moment
    max_j sum_k (1 ^ |x_j - x_k|^2) eta_n(j,k) pi_n(k).
    """
    pts = sys.grid.points
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    diff = np.minimum(diff, 1.0 - diff)
    r2 = np.sum(diff * diff, axis=-1)
    rows = (np.minimum(1.0, r2) * sys.eta) @ sys.pi
    worst = int(np.argmax(rows))
    m_n = float(rows[worst])
    bound = 4.0 * continuum_sup * (1.0 + slack)
    return MomentBoundReport(
        m_n=m_n,
        continuum_sup=continuum_sup,
        bound=bound,
        ratio=m_n / (4.0 * continuum_sup) if continuum_sup > 0 else np.inf,
        worst_row=worst,
        slack=slack,
        passes=m_n <= bound,
    )


# ---------------------------------------------------------------------------
# Serialization: "nlw-system/v2"
# ---------------------------------------------------------------------------


def _eta_text(eta: np.ndarray) -> str:
    """eta's strict upper triangle in pair order, as base64 of little-endian float64."""
    upper = np.concatenate([eta[i, i + 1 :] for i in range(eta.shape[0])], dtype="<f8")
    return base64.b64encode(upper).decode("ascii")


def _eta_from_text(text, n: int) -> np.ndarray:
    """The symmetric, zero-diagonal n x n eta whose upper triangle ``_eta_text`` wrote."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"system field 'eta' is not valid base64: {exc}") from None
    if len(raw) != 4 * n * (n - 1):
        raise ValueError(f"system field 'eta' holds {len(raw)} bytes, expected {4 * n * (n - 1)} for {n} points")
    upper = ~np.tri(n, dtype=bool)
    eta = np.zeros((n, n))
    eta[upper] = eta.T[upper] = np.frombuffer(raw, dtype="<f8")
    return eta


def system_document(sys: DiscreteSystem) -> dict:
    """The system as a self-describing JSON-ready document; eta as ``_eta_text``."""
    return {
        "schema": SYSTEM_SCHEMA,
        "dim": sys.grid.dim,
        "level": sys.grid.level,
        "delta": sys.delta,
        "pi": sys.pi.tolist(),
        "eta": _eta_text(sys.eta),
        "provenance": sys.provenance,
    }


def canonical_json(doc) -> str:
    """The text of every JSON artifact: sorted keys, no indent, one final newline.

    Without an indent ``json`` keeps to its C encoder; an indent would
    send it to the pure-Python one.
    """
    return json.dumps(doc, sort_keys=True) + "\n"


def load_system(path) -> DiscreteSystem:
    """Read and validate a system written from ``system_document``."""
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema")
    if schema != SYSTEM_SCHEMA:
        raise ValueError(f"unsupported system schema {schema!r} (expected {SYSTEM_SCHEMA!r})")
    grid = build_grid(int(doc["dim"]), int(doc["level"]))
    if abs(float(doc["delta"]) - grid.cell_diameter) > 1e-15:
        raise ValueError("delta does not match the grid cell diameter")
    return DiscreteSystem(
        grid=grid,
        pi=np.array(doc["pi"], dtype=float),
        eta=_eta_from_text(doc["eta"], grid.n_points),
        provenance=doc.get("provenance", {}),
    )
