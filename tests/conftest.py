import os
import subprocess
import sys

import pytest

import ksenergy
from ksenergy import EnergyConfig, build_grid, make_map, make_space


def run_python(args, **env):
    """Run `python *args` with `env` set and this checkout's package and tests importable; returns the CompletedProcess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ksenergy.__file__)))
    paths = [src, os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture(scope="session")
def unit_grid_32():
    return build_grid([0.0, 0.0], [1.0, 1.0], [32, 32])


@pytest.fixture(scope="session")
def unit_grid_16():
    return build_grid([0.0, 0.0], [1.0, 1.0], [16, 16])


@pytest.fixture(scope="session")
def cfg_small():
    # light settings for unit tests; acceptance runs use the defaults
    return EnergyConfig(dense_count=256, sphere_order=128, ball_order=(12, 96), h_count=4)


def catalog(domain_dim=2):
    """The standard map/space combinations exercised across the suite."""
    entries = [
        ("identity", "euclidean:2"),
        ("linear:1,0;0,2", "euclidean:2"),
        ("identity", "max_norm_plane"),
        ("winding:2", "circle"),
        ("qsplit", "q:2:1"),
    ]
    out = []
    for map_spec, space_spec in entries:
        space = make_space(space_spec)
        out.append((map_spec, space_spec, make_map(map_spec, space, domain_dim)))
    return out
