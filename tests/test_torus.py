import numpy as np
import pytest

from nlw.torus import as_point, build_grid, nearest_cell, wrapped_norm


def torus_distance(x, y) -> float:
    """Euclidean length of the shortest periodic displacement from x to y: the oracle for the lattice geometry.

    Per axis the displacement is min(|dx|, 1-|dx|), so each coordinate
    contributes at most 1/2 and the distance is at most sqrt(d)/2.
    """
    p = as_point(x)
    q = as_point(y)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape[0]} vs {q.shape[0]}")
    return float(wrapped_norm(p - q))


def test_wraparound_distance():
    assert torus_distance([0.1], [0.9]) == pytest.approx(0.2, abs=1e-15)


def test_identity_distance():
    assert torus_distance([0.37], [0.37]) == 0.0


def test_diagonal_distance_2d():
    assert torus_distance([0.0, 0.0], [0.5, 0.5]) == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        torus_distance([0.1], [0.1, 0.2])


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y, z = rng.random((3, 3))
        dxy = torus_distance(x, y)
        dyx = torus_distance(y, x)
        assert dxy >= 0.0
        assert dxy == dyx
        assert dxy <= torus_distance(x, z) + torus_distance(z, y) + 1e-14


def test_distance_bounded_by_half_diagonal():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for _ in range(50):
            x, y = rng.random((2, d))
            assert torus_distance(x, y) <= np.sqrt(d) / 2 + 1e-15


def test_build_grid_1d():
    g = build_grid(1, 4)
    assert np.allclose(g.points[:, 0], [0.0, 0.25, 0.5, 0.75])
    assert g.cell_diameter == pytest.approx(0.25)


def test_build_grid_2d():
    g = build_grid(2, 2)
    assert g.n_points == 4
    assert g.cell_diameter == pytest.approx(np.sqrt(2) / 2)
    # lexicographic ordering on index tuples
    assert np.allclose(g.points[1], [0.0, 0.5])
    assert np.allclose(g.points[2], [0.5, 0.0])


def test_grid_nesting_divisor_levels():
    coarse = build_grid(1, 2)
    fine = build_grid(1, 4)
    fine_set = {tuple(p) for p in fine.points}
    for p in coarse.points:
        assert tuple(p) in fine_set


def test_grid_nesting_2d():
    coarse = {tuple(p) for p in build_grid(2, 3).points}
    fine = {tuple(p) for p in build_grid(2, 6).points}
    assert coarse <= fine


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_grid(4, 4)
    with pytest.raises(ValueError):
        build_grid(1, 1)
    with pytest.raises(ValueError):
        build_grid(3, 17)  # 17^3 = 4913 over the memory cap


def test_nearest_cell_basic():
    g = build_grid(1, 4)
    assert nearest_cell([0.26], g) == 1


def test_nearest_cell_wraparound():
    g = build_grid(1, 4)
    assert nearest_cell([0.99], g) == 0


def test_nearest_cell_tie_rule():
    g = build_grid(1, 4)
    # 0.125 is equidistant from 0.0 and 0.25; the smaller index wins
    assert nearest_cell([0.125], g) == 0
    # same at the seam: 0.875 is equidistant from 0.75 and 0.0
    assert nearest_cell([0.875], g) == 0


def test_nearest_cell_within_half_diameter():
    rng = np.random.default_rng(3)
    for d, n in [(1, 8), (2, 5), (3, 4)]:
        g = build_grid(d, n)
        for _ in range(100):
            x = rng.random(d)
            j = nearest_cell(x, g)
            assert torus_distance(x, g.points[j]) <= g.cell_diameter / 2 + 1e-14


def test_nearest_cell_exact_on_lattice():
    g = build_grid(2, 5)
    for j, p in enumerate(g.points):
        assert nearest_cell(p, g) == j
