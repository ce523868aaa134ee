"""Geometry of the flat torus T^d = [0,1)^d.

Everything downstream lives on the torus: points are d-vectors with
coordinates in [0,1), distance is the length of the shortest periodic
displacement, and discretizations use the uniform lattice

    {(j_1/n, ..., j_d/n) : 0 <= j_i < n}

whose Voronoi cells are axis-aligned boxes of side 1/n.  The full cell
diagonal sqrt(d)/n plays the role of the mesh size and is the cutoff
scale for the finite-volume kernel construction.

Lattices nest exactly for divisor levels: the level-m lattice is a
subset of the level-n lattice whenever m divides n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "as_point",
    "wrapped_norm",
    "build_grid",
    "nearest_cell",
]

# Largest number of lattice points we are willing to materialize.  Dense
# N x N kernel matrices downstream make anything beyond this impractical.
MAX_GRID_POINTS = 4096


def as_point(x) -> np.ndarray:
    """Coerce ``x`` to a torus point: a float vector with entries in [0,1).

    Scalars become 1-d points.  Coordinates are reduced mod 1 so callers
    may pass unwrapped values.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a torus point must be a flat vector, got shape {p.shape}")
    return np.mod(p, 1.0)


def wrapped_norm(t: np.ndarray) -> np.ndarray:
    """Torus length of displacements along the last axis of ``t`` (|t_i| <= 1):
    min(|t_i|, 1 - |t_i|) per axis, then the Euclidean norm."""
    a = np.abs(t)
    a = np.minimum(a, 1.0 - a)
    return np.sqrt(np.sum(a * a, axis=-1))


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice on T^d at refinement level n.

    Attributes
    ----------
    dim : int
        Spatial dimension d (1, 2 or 3).
    level : int
        Points per axis, n >= 2.
    points : ndarray, shape (n^d, d)
        Lattice points in lexicographic order of their index tuples.
    cell_diameter : float
        Full diagonal sqrt(d)/n of one Voronoi cell.
    """

    dim: int
    level: int
    points: np.ndarray = field(repr=False)
    cell_diameter: float

    @property
    def n_points(self) -> int:
        return self.level**self.dim

    @property
    def cell_width(self) -> float:
        return 1.0 / self.level

    def index_tuple(self, flat: int) -> tuple[int, ...]:
        """Multi-index (j_1, ..., j_d) of a flat lattice index."""
        return tuple(int(k) for k in np.unravel_index(flat, (self.level,) * self.dim))


def build_grid(d: int, n: int) -> GridSpec:
    """Evenly spaced lattice {(j_1/n, ..., j_d/n)} on T^d.

    Points are ordered lexicographically on the index tuple, so the flat
    index of (j_1, ..., j_d) is the usual row-major ravel.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if n < 2:
        raise ValueError(f"grid level must be >= 2, got {n}")
    if n**d > MAX_GRID_POINTS:
        raise ValueError(f"grid with {n**d} points exceeds the cap of {MAX_GRID_POINTS}")
    axes = [np.arange(n) / n] * d
    pts = np.array(list(itertools.product(*axes)), dtype=float)
    return GridSpec(dim=d, level=n, points=pts, cell_diameter=float(np.sqrt(d) / n))


def nearest_cell(x, grid: GridSpec) -> int:
    """Flat index of the lattice point closest to x in torus length (``wrapped_norm``).

    Ties are broken toward the smaller lexicographic index tuple, which
    keeps the nearest-point map deterministic.  Because the per-axis
    distance contributions are independent, the lexicographically
    smallest minimizer is obtained by resolving each axis separately.
    """
    p = as_point(x)
    if p.shape[0] != grid.dim:
        raise ValueError(f"dimension mismatch: point has {p.shape[0]}, grid has {grid.dim}")
    n = grid.level
    idx = np.empty(grid.dim, dtype=int)
    for axis in range(grid.dim):
        t = p[axis] * n
        lo = int(np.floor(t)) % n
        hi = (lo + 1) % n
        d_lo = abs(p[axis] - lo / n)
        d_lo = min(d_lo, 1.0 - d_lo)
        d_hi = abs(p[axis] - hi / n)
        d_hi = min(d_hi, 1.0 - d_hi)
        if d_lo < d_hi:
            idx[axis] = lo
        elif d_hi < d_lo:
            idx[axis] = hi
        else:
            idx[axis] = min(lo, hi)
    return int(np.ravel_multi_index(tuple(idx), (n,) * grid.dim))
