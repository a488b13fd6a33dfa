"""Run configuration shared by both energy routes."""

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .errors import ConfigError
from . import quadrature

# How the directional sup is searched: a fixed recipe, echoed in every report's config block
ANCHOR_EXCLUSION = 64.0  # the scan skips anchors within this many fd steps of u(x)
REFINE_RADIUS = 4.0  # a seeded ray's near anchor sits this far from u(x)
POLISH_RADIUS = 32.0  # and its far anchor, where the stencil error is negligible, this far
TRUNCATION_RTOL = 1e-3  # the 2K probe flags a relative change of the energy above this


def _count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _pair(value):
    return isinstance(value, (tuple, list)) and len(value) == 2


def _angular(value):
    """A sphere rule's order: a count, or in 3-d an (azimuth, polar) pair of counts."""
    return _count(value) or _pair(value) and all(map(_count, value))


@dataclass(frozen=True)
class EnergyConfig:
    """All numerical settings for the two energy pipelines.

    The KS ladder is h0 / 2^j, j = 1..h_count. fd_step None means "smallest
    grid spacing / 8", resolved per grid. sphere_order / ball_order None pick
    the per-dimension defaults from the quadrature module; ball_order is a
    (radial, angular) pair, the angular entry an int or, in 3-d, a pair.
    refine False leaves the directional sup to the prefix scan (no seeded
    rays). How the directional sup is searched (anchor exclusion, refinement
    and polish radii, the 2K probe's tolerance) is a fixed recipe: the
    module constants above, echoed by `to_dict`.
    """

    p: float = 2.0
    h0: float = 0.05
    h_count: int = 6
    sphere_order: Optional[object] = None
    ball_order: Optional[tuple] = None
    dense_count: int = 512
    fd_step: Optional[float] = None
    refine: bool = True
    check_truncation: bool = True
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        # NaN fails every comparison, so each test is written to let only valid values through
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ConfigError(f"p must be finite and >= 1, got {self.p}")
        if not (math.isfinite(self.h0) and self.h0 > 0):
            raise ConfigError(f"h0 must be positive and finite, got {self.h0}")
        if self.fd_step is not None and not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ConfigError(f"fd_step must be positive and finite, got {self.fd_step}")
        if self.sphere_order is not None and not _angular(self.sphere_order):
            raise ConfigError(f"sphere_order must be an int >= 1 or a pair of them, got {self.sphere_order!r}")
        b = self.ball_order
        if b is not None and not (_pair(b) and _count(b[0]) and _angular(b[1])):
            raise ConfigError(f"ball_order must be a pair (radial, angular) of ints >= 1 or (radial, pair), got {b!r}")
        if self.dense_count < 1:
            raise ConfigError("dense_count must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.h_count < 3:
            raise ConfigError(f"extrapolation needs at least 3 h values, got {self.h_count}")
        h_min = math.ldexp(self.h0, -self.h_count)
        if not (h_min > 0 and math.isfinite(1.0 / h_min)):
            raise ConfigError(f"h_count={self.h_count} takes h0={self.h0} down to h={h_min!r}, where 1/h is not finite")

    def h_ladder(self):
        # ldexp: 2.0**j overflows from j = 1024, and h0 * 2^-j is exact down to the subnormals
        return tuple(math.ldexp(self.h0, -j) for j in range(1, self.h_count + 1))

    def resolved_fd_step(self, grid):
        if self.fd_step is not None:
            return float(self.fd_step)
        return float(np.min(grid.spacing) / 8.0)

    def sphere_rule(self, n):
        return quadrature.sphere_nodes(n, self.sphere_order, seed=self.seed)

    def ball_rule(self, n):
        return quadrature.ball_nodes(n, self.ball_order, seed=self.seed, p=self.p)

    def ball_angular_rule(self, n):
        """The sphere rule of `ball_rule`'s directions."""
        return quadrature.sphere_nodes(n, quadrature.ball_order(n, self.ball_order)[1], seed=self.seed)

    def to_dict(self):
        d = asdict(self)
        # execution details, not part of the canonical (reproducible) config
        d.pop("workers")
        if d["ball_order"] is not None:
            d["ball_order"] = list(d["ball_order"])
        # the ladder and the directional recipe are fixed, but each report still says what it ran with
        d.update(h_sequence=list(self.h_ladder()), anchor_exclusion=ANCHOR_EXCLUSION, refine_radius=REFINE_RADIUS,
                 polish_radius=POLISH_RADIUS, truncation_rtol=TRUNCATION_RTOL)
        return d
