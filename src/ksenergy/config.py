"""Run configuration and the report structure shared by both energy routes."""

from dataclasses import dataclass, field, asdict
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
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.h0 <= 0:
            raise ConfigError(f"h0 must be positive, got {self.h0}")
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


@dataclass
class EnergyReport:
    """Everything a run produces; arrays stay out of the JSON body."""

    space: str
    map_label: str
    p: float
    dim: int
    config: dict

    h_values: list = field(default_factory=list)
    h_integrals: list = field(default_factory=list)
    ks_energy: Optional[float] = None
    ks_order: Optional[float] = None
    ks_error_estimate: Optional[float] = None

    rep_energy_sphere: Optional[float] = None
    rep_energy_ball: Optional[float] = None
    frame_sum_energy: Optional[float] = None

    mask_measure: Optional[float] = None
    domain_measure: Optional[float] = None
    inner_measure_exact: Optional[float] = None
    localization_deficit: Optional[float] = None

    dense_count: Optional[int] = None
    truncation_energy_doubled: Optional[float] = None
    under_truncation: bool = False

    warnings: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    # per-node fields over the h0 mask (not serialized to JSON)
    mask_indices: Optional[np.ndarray] = None
    ks_density: Optional[np.ndarray] = None
    rep_density: Optional[np.ndarray] = None

    def relative_gap(self):
        # an empty mask makes both energies 0 and their gap meaningless
        if self.ks_energy is None or self.rep_energy_sphere is None or not self.mask_measure:
            return None
        ref = max(abs(self.rep_energy_sphere), 1e-300)
        return abs(self.ks_energy - self.rep_energy_sphere) / ref

    def to_json_dict(self):
        body = {
            "schema_version": 1,
            "space": self.space,
            "map": self.map_label,
            "p": self.p,
            "dim": self.dim,
            "config": self.config,
            "h_values": self.h_values,
            "h_integrals": self.h_integrals,
            "ks_energy": self.ks_energy,
            "ks_order": self.ks_order,
            "ks_error_estimate": self.ks_error_estimate,
            "rep_energy_sphere": self.rep_energy_sphere,
            "rep_energy_ball": self.rep_energy_ball,
            "frame_sum_energy": self.frame_sum_energy,
            "relative_gap": self.relative_gap(),
            "mask_measure": self.mask_measure,
            "domain_measure": self.domain_measure,
            "inner_measure_exact": self.inner_measure_exact,
            "localization_deficit": self.localization_deficit,
            "dense_count": self.dense_count,
            "truncation_energy_doubled": self.truncation_energy_doubled,
            "under_truncation": self.under_truncation,
            "warnings": list(self.warnings),
            "timing": dict(self.timing),
        }
        return body
