"""Run configuration shared by both energy routes."""

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .errors import ConfigError
from . import quadrature


@dataclass(frozen=True)
class EnergyConfig:
    """All numerical knobs for the two energy pipelines.

    h_sequence defaults to the geometric ladder h0 / 2^j, j = 1..h_count.
    fd_step None means "smallest grid spacing / 8", resolved per grid.
    sphere_order / ball_order None pick the per-dimension defaults from the
    quadrature module. anchor_exclusion is measured in multiples of the fd
    step: dense anchors closer than that to u(x) (in the target metric) are
    skipped when estimating directional derivatives, since the composed
    field's curvature there ruins central differences.
    """

    p: float = 2.0
    h0: float = 0.05
    h_count: int = 6
    h_sequence: Optional[tuple] = None
    sphere_order: Optional[object] = None
    ball_order: Optional[tuple] = None
    dense_count: int = 512
    fd_step: Optional[float] = None
    anchor_exclusion: float = 64.0
    refine_radius: float = 4.0
    polish_radius: float = 32.0
    refine_stages: int = 8
    check_truncation: bool = True
    truncation_rtol: float = 1e-3
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ConfigError(f"p must be finite and >= 1, got {self.p}")
        if not (math.isfinite(self.h0) and self.h0 > 0):
            raise ConfigError(f"h0 must be positive and finite, got {self.h0}")
        if self.fd_step is not None and not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ConfigError(f"fd_step must be positive and finite, got {self.fd_step}")
        for name in ("sphere_order", "ball_order"):
            value = getattr(self, name)
            if value is not None and np.any(np.asarray(value) < 1):
                raise ConfigError(f"{name} entries must be >= 1, got {value}")
        # NaN fails every comparison, so each test is written to let only valid values through
        if not self.anchor_exclusion >= 0:
            raise ConfigError(f"anchor_exclusion must be >= 0, got {self.anchor_exclusion}")
        for name in ("refine_radius", "polish_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.refine_stages < 0:
            raise ConfigError(f"refine_stages must be >= 0, got {self.refine_stages}")
        if not self.truncation_rtol >= 0:
            raise ConfigError(f"truncation_rtol must be >= 0, got {self.truncation_rtol}")
        if self.dense_count < 1:
            raise ConfigError("dense_count must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        hs = self.resolved_h_sequence()
        if len(hs) < 3:
            raise ConfigError(f"extrapolation needs at least 3 h values, got {len(hs)}")
        if not all(x > 0 for x in hs):
            raise ConfigError("h values must be positive")
        if any(hs[i] <= hs[i + 1] for i in range(len(hs) - 1)):
            raise ConfigError("h_sequence must be strictly decreasing")
        if max(hs) > self.h0 + 1e-15:
            raise ConfigError(f"max(h_sequence)={max(hs)} exceeds h0={self.h0}")

    def resolved_h_sequence(self):
        if self.h_sequence is not None:
            return tuple(float(h) for h in self.h_sequence)
        return tuple(self.h0 / 2.0**j for j in range(1, self.h_count + 1))

    def resolved_fd_step(self, grid=None):
        if self.fd_step is not None:
            return float(self.fd_step)
        if grid is None:
            raise ConfigError("fd_step not set and no grid to derive it from")
        return float(np.min(grid.spacing) / 8.0)

    def sphere_rule(self, n):
        return quadrature.sphere_nodes(n, self.sphere_order, seed=self.seed)

    def ball_rule(self, n):
        return quadrature.ball_nodes(n, self.ball_order, seed=self.seed)

    def to_dict(self):
        d = asdict(self)
        # execution details, not part of the canonical (reproducible) config
        d.pop("workers")
        d["h_sequence"] = list(self.resolved_h_sequence())
        if d["ball_order"] is not None:
            d["ball_order"] = list(d["ball_order"])
        return d

