"""Axis-aligned box domains: cell-centered grids, erosion masks, weights.

Boxes keep the boundary distance exact, so the eroded inner domains are
unambiguous: a node belongs to the h-erosion iff its distance to the box
boundary strictly exceeds h. Nodes sit at cell centers, never on the
boundary, and each carries the Lebesgue weight of its cell.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskWarning, InvalidDomainError


@dataclass(frozen=True)
class DomainGrid:
    """Immutable uniform cell-centered grid on a box."""

    lower: np.ndarray
    upper: np.ndarray
    resolution: tuple
    spacing: np.ndarray
    nodes: np.ndarray  # (N, n), C-order over axes
    node_weight: float  # product of spacings, identical for every node

    @property
    def dim(self):
        return len(self.resolution)

    @property
    def measure(self):
        return float(np.prod(self.upper - self.lower))

    def boundary_distance(self):
        """Exact distance of each node to the box boundary (positive inside)."""
        return np.min(np.minimum(self.nodes - self.lower, self.upper - self.nodes), axis=-1)

    def inner_mask(self, h):
        """Boolean mask of nodes with boundary distance > h.

        Warns (EmptyMaskWarning) and returns the all-false mask when the
        erosion swallows the whole box.
        """
        if not h > 0:
            raise InvalidDomainError(f"erosion depth must be positive, got {h}")
        mask = self.boundary_distance() > h
        if not mask.any():
            warnings.warn(
                f"erosion h={h} leaves no interior nodes in box "
                f"{self.lower.tolist()}..{self.upper.tolist()}",
                EmptyMaskWarning,
                stacklevel=2,
            )
        return mask

    def inner_measure(self, h):
        """Exact Lebesgue measure of the h-eroded box (0 if empty)."""
        sides = np.maximum(self.upper - self.lower - 2.0 * h, 0.0)
        return float(np.prod(sides))


def build_grid(lower, upper, resolution):
    """Build a cell-centered grid; resolution is per-axis node counts."""
    lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    if lower.shape != upper.shape or lower.ndim != 1:
        raise InvalidDomainError("lower/upper must be 1-D vectors of equal length")
    if np.isscalar(resolution) or isinstance(resolution, int):
        resolution = (int(resolution),) * lower.size
    resolution = tuple(int(r) for r in np.atleast_1d(resolution))
    if len(resolution) != lower.size:
        raise InvalidDomainError("resolution length must match the box dimension")
    if not np.all(upper > lower):
        raise InvalidDomainError(f"degenerate box: lower={lower.tolist()} upper={upper.tolist()}")
    if any(r < 2 for r in resolution):
        raise InvalidDomainError("need at least 2 nodes per axis")

    spacing = (upper - lower) / np.array(resolution, dtype=np.float64)
    axes = [lo + sp * (np.arange(r) + 0.5) for lo, sp, r in zip(lower, spacing, resolution)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    lower.setflags(write=False)
    upper.setflags(write=False)
    nodes.setflags(write=False)
    spacing.setflags(write=False)
    return DomainGrid(
        lower=lower,
        upper=upper,
        resolution=resolution,
        spacing=spacing,
        nodes=nodes,
        node_weight=float(np.prod(spacing)),
    )
