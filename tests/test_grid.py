import numpy as np
import pytest

from ksenergy import build_grid
from ksenergy.errors import EmptyMaskWarning, InvalidDomainError


def test_uniform_partition_counts_and_weights():
    g = build_grid([0, 0], [1, 1], [10, 10])
    assert g.nodes.shape[0] == 100
    assert g.node_weight == pytest.approx(0.01, abs=1e-16)
    assert g.node_weight * g.nodes.shape[0] == pytest.approx(1.0, abs=1e-12)


def test_cell_centers_1d():
    g = build_grid([0.0], [1.0], [4])
    assert g.nodes.ravel() == pytest.approx([0.125, 0.375, 0.625, 0.875], abs=1e-15)


def test_total_measure_exact():
    g = build_grid([0, 0], [2, 3], [8, 12])
    assert g.node_weight * g.nodes.shape[0] == pytest.approx(6.0, abs=1e-12)
    assert g.measure == 6.0


def test_inner_mask_is_exact_box_erosion():
    g = build_grid([0, 0], [1, 1], [20, 20])
    mask = g.inner_mask(0.2)
    inside = np.all((g.nodes > 0.2) & (g.nodes < 0.8), axis=1)
    assert np.array_equal(mask, inside)


def test_tiny_h_marks_all_nodes():
    g = build_grid([0, 0], [1, 1], [16, 16])
    assert g.inner_mask(1e-9).all()


def test_degenerate_erosion_warns_and_empties():
    g = build_grid([0, 0], [1, 1], [16, 16])
    with pytest.warns(EmptyMaskWarning):
        mask = g.inner_mask(0.5)
    assert not mask.any()


def test_erosion_monotone_ladder():
    g = build_grid([-1, 0], [2, 1], [24, 16])
    masks = [g.inner_mask(h) for h in (0.05, 0.1, 0.2, 0.4)]
    for coarse, fine in zip(masks[1:], masks[:-1]):
        assert np.all(~coarse | fine)  # mask(h2) subset of mask(h1) for h1 < h2


def test_inner_measure_closed_form():
    g = build_grid([0, 0], [1, 2], [8, 8])
    assert g.inner_measure(0.25) == pytest.approx(0.5 * 1.5, abs=1e-15)
    assert g.inner_measure(0.6) == 0.0


def test_nan_erosion_depth_rejected():
    g = build_grid([0, 0], [1, 1], [4, 4])
    with pytest.raises(InvalidDomainError):
        g.inner_mask(float("nan"))


def test_degenerate_box_rejected():
    with pytest.raises(InvalidDomainError):
        build_grid([0, 0], [1, 0], [8, 8])
    with pytest.raises(InvalidDomainError):
        build_grid([0, 0], [1, 1], [8, 1])
    with pytest.raises(InvalidDomainError):
        build_grid([0, 0], [1, 1], [8, 8, 8])


def test_boundary_distance_formula():
    g = build_grid([0, 0], [1, 2], [4, 4])
    # per-axis distances of the cell centers, then the nearer axis per node (C order)
    dx = np.array([0.125, 0.375, 0.375, 0.125])
    dy = np.array([0.25, 0.75, 0.75, 0.25])
    assert g.boundary_distance() == pytest.approx(np.minimum.outer(dx, dy).ravel(), abs=1e-15)
