"""Shared fixtures: small deterministic scenes and rendered frames.

Module-scoped fixtures keep the suite fast: most tests inspect the
same small rendered frame rather than re-rendering.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import DEFAULT_SETTINGS
from repro.core.irss import render_irss
from repro.gaussians import (
    Camera,
    GaussianCloud,
    build_render_lists,
    project,
    render_reference,
)
from repro.gaussians.projection import Projected2D, truncation_thresholds


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_cloud():
    """A compact random cloud covering the whole frame."""
    rng = np.random.default_rng(42)
    return GaussianCloud.random(250, rng, extent=1.0, scale_range=(0.03, 0.12))


@pytest.fixture(scope="session")
def small_camera():
    return Camera.look_at(
        eye=[0.2, 0.4, -2.8], target=[0, 0, 0], width=96, height=80
    )


@pytest.fixture(scope="session")
def small_projected(small_cloud, small_camera):
    return project(small_cloud, small_camera)


@pytest.fixture(scope="session")
def small_lists(small_projected):
    return build_render_lists(small_projected)


@pytest.fixture(scope="session")
def reference_render(small_projected, small_lists):
    return render_reference(small_projected, small_lists)


@pytest.fixture(scope="session")
def irss_render(small_projected, small_lists):
    return render_irss(small_projected, small_lists)


@pytest.fixture(scope="session")
def tiny_projected():
    """A handful of Gaussians on a single-tile image (hand-inspectable)."""
    rng = np.random.default_rng(7)
    cloud = GaussianCloud.random(12, rng, extent=0.25, scale_range=(0.05, 0.2))
    camera = Camera.look_at(eye=[0, 0, -1.5], target=[0, 0, 0], width=16, height=16)
    return project(cloud, camera)


def _screen_gaussians(means2d, sigmas, opacities, depths, thresholds, size):
    """Isotropic screen-space Gaussians as a Step-1 output."""
    n = len(means2d)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    inv = 1.0 / sigmas**2
    return Projected2D(
        means2d=np.asarray(means2d, dtype=np.float64),
        cov2d=np.eye(2)[None] * (sigmas**2)[:, None, None],
        conics=np.stack([inv, np.zeros(n), inv], axis=1),
        depths=np.asarray(depths, dtype=np.float64),
        colors=np.random.default_rng(7).uniform(0.05, 0.95, size=(n, 3)),
        opacities=np.asarray(opacities, dtype=np.float64),
        radii=np.ceil(sigmas * np.sqrt(thresholds)),
        thresholds=np.asarray(thresholds, dtype=np.float64),
        source_index=np.arange(n),
        image_size=size,
    )


@pytest.fixture(scope="session")
def opaque_stack():
    """A deterministic 48x32 scene where pixels terminate mid-list.

    Front to back: a stack of small opaque Gaussians drives the pixels
    under it past the transmittance cutoff within a few instances, while
    translucent haze behind keeps the rest of their tile (tile 0)
    blending later instances; a wall of wide opaque Gaussians
    terminates every pixel of tile 5, forcing the whole-tile break.
    Returns the projection with the stacked pixel ``(row, col)``, the
    stack depth and the walled tile.
    """
    pixel, n_stack, walled_tile = (6, 5), 6, 5
    rows, cols = np.mgrid[0:3, 0:4]
    haze = np.stack([cols.ravel() * 14.0 + 3.0, rows.ravel() * 13.0 + 2.0], 1)
    n_haze, n_wall = len(haze), 12
    means2d = np.concatenate(
        [
            np.tile([pixel[1] + 0.5, pixel[0] + 0.5], (n_stack, 1)),
            np.tile([40.0, 24.0], (n_wall, 1)),
            haze,
        ]
    )
    sigmas = np.concatenate([[1.5] * n_stack, [12.0] * n_wall, [6.0] * n_haze])
    opacities = np.concatenate(
        [[0.99] * n_stack, [0.99] * n_wall, [0.3] * n_haze]
    )
    depths = 1.0 + 0.01 * np.arange(n_stack + n_wall + n_haze)
    thresholds = truncation_thresholds(opacities, DEFAULT_SETTINGS)
    thresholds[n_stack : n_stack + n_wall] = 1.0  # the wall spans tile 5
    projected = _screen_gaussians(
        means2d, sigmas, opacities, depths, thresholds, size=(48, 32)
    )
    return SimpleNamespace(
        projected=projected,
        pixel=pixel,
        stack_depth=n_stack,
        walled_tile=walled_tile,
    )
