"""Backend parity: the vectorized engine is pixel-exact.

Randomized-scene property tests asserting that the instance-batched
vectorized backend produces *bit-identical* images, transmittance,
contributor counts and workload statistics versus the scalar
reference loops — for the PFS rasterizer, the IRSS rasterizer, and
the IRSS fp16 Row-PE datapath — including the early-termination and
depth-chunking code paths.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.render.vectorized as vectorized
from repro.config import DEFAULT_SETTINGS
from repro.core.irss import render_irss, render_irss_loop
from repro.gaussians import Camera, GaussianCloud, build_render_lists, project
from repro.gaussians.rasterizer import render_reference, render_reference_loop
from repro.render import (
    get_backend,
    list_backends,
    render_irss_vectorized,
    render_pfs_vectorized,
    set_default_backend,
    use_backend,
)
from repro.scenes.catalog import build_scene

WORKLOAD_FIELDS = (
    "row_fragments",
    "row_segments",
    "instance_max_run",
    "instance_setup",
    "binary_search_steps",
    "instance_search",
)


def _scene(seed: int, n: int, width: int = 72, height: int = 56,
           opacity_lo: float = 0.05, opacity_hi: float = 0.95):
    """A random projected scene; odd resolutions exercise clipped tiles."""
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.random(n, rng, extent=0.6, scale_range=(0.03, 0.3))
    cloud = GaussianCloud(
        means=cloud.means,
        scales=cloud.scales,
        quats=cloud.quats,
        opacities=np.clip(cloud.opacities, opacity_lo, opacity_hi),
        sh=cloud.sh,
    )
    camera = Camera.look_at(
        eye=[0.1, 0.2, -2.0], target=[0, 0, 0], width=width, height=height
    )
    return project(cloud, camera)


def assert_pfs_exact(projected, lists=None):
    ref = render_reference_loop(projected, lists)
    vec = render_pfs_vectorized(projected, lists)
    np.testing.assert_array_equal(ref.image, vec.image)
    np.testing.assert_array_equal(ref.transmittance, vec.transmittance)
    np.testing.assert_array_equal(ref.n_contrib, vec.n_contrib)
    assert ref.stats == vec.stats


def assert_irss_exact(projected, lists=None, fp16=False):
    ref = render_irss_loop(projected, lists, fp16=fp16)
    vec = render_irss_vectorized(projected, lists, fp16=fp16)
    np.testing.assert_array_equal(ref.image, vec.image)
    np.testing.assert_array_equal(ref.transmittance, vec.transmittance)
    np.testing.assert_array_equal(ref.n_contrib, vec.n_contrib)
    assert ref.stats == vec.stats
    for name in WORKLOAD_FIELDS:
        np.testing.assert_array_equal(
            getattr(ref.workload, name), getattr(vec.workload, name), err_msg=name
        )


class TestRandomizedParity:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    @settings(max_examples=12, deadline=None)
    def test_pfs_bit_identical(self, seed, n):
        assert_pfs_exact(_scene(seed, n))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    @settings(max_examples=12, deadline=None)
    def test_irss_bit_identical(self, seed, n):
        assert_irss_exact(_scene(seed, n))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    @settings(max_examples=8, deadline=None)
    def test_irss_fp16_bit_identical(self, seed, n):
        assert_irss_exact(_scene(seed, n), fp16=True)


class TestEdgeCases:
    def test_empty_scene(self):
        """Every Gaussian culled: both backends return background only."""
        rng = np.random.default_rng(0)
        cloud = GaussianCloud.random(10, rng, extent=0.3)
        # Camera faces away from the cloud, so projection culls all.
        camera = Camera.look_at(
            eye=[0, 0, -2], target=[0, 0, -4], width=48, height=32
        )
        empty = project(cloud, camera)
        assert len(empty) == 0
        assert_pfs_exact(empty)
        assert_irss_exact(empty)

    def test_single_gaussian(self):
        assert_pfs_exact(_scene(3, 1))
        assert_irss_exact(_scene(3, 1))

    def test_opaque_overlap_triggers_early_termination(self):
        """Many opaque Gaussians stacked on one spot force the
        whole-tile termination (break) path in both dataflows."""
        projected = _scene(11, 200, width=48, height=48,
                           opacity_lo=0.9, opacity_hi=0.95)
        ref = render_reference_loop(projected)
        assert ref.stats.instances_processed < ref.stats.instances
        assert_pfs_exact(projected)
        assert_irss_exact(projected)
        assert_irss_exact(projected, fp16=True)

    def test_clipped_edge_tiles(self):
        """Resolutions that are not multiples of 16 produce partial
        tiles, which batch separately per shape."""
        for width, height in ((17, 33), (50, 20), (16, 16), (95, 63)):
            projected = _scene(5, 60, width=width, height=height)
            assert_pfs_exact(projected)
            assert_irss_exact(projected)

    @pytest.mark.parametrize("budget", [None, 1 << 8])
    def test_pixels_terminate_mid_list(self, opaque_stack, monkeypatch, budget):
        """Pixels under an opaque stack cross eps within a few instances
        while their tile keeps blending later ones, and a walled tile
        breaks whole; with a tiny budget the tiles also render as depth
        slices, skipping the slices after the wall terminates."""
        if budget is not None:
            monkeypatch.setattr(vectorized, "CHUNK_FRAGMENT_BUDGET", budget)
        projected = opaque_stack.projected
        lists = build_render_lists(projected)
        ref = render_irss_loop(projected, lists)
        row, col = opaque_stack.pixel
        assert ref.transmittance[row, col] <= DEFAULT_SETTINGS.transmittance_eps
        # The pixel stopped within the stack; its tile went on.
        assert ref.n_contrib[row, col] <= opaque_stack.stack_depth
        assert ref.workload.instance_setup[0] == len(lists.per_tile[0])
        assert ref.n_contrib[:16, :16].max() > opaque_stack.stack_depth
        walled = opaque_stack.walled_tile
        assert ref.workload.instance_setup[walled] < len(lists.per_tile[walled])
        assert_irss_exact(projected, lists)
        assert_irss_exact(projected, lists, fp16=True)

    def test_depth_chunking_continuation_path(self, monkeypatch):
        """A tiny fragment budget splits IRSS into several tile groups,
        one tile's pairs alone exceeding it (its depth slices carry the
        pixel state), and forces PFS depth chunks with transmittance
        carry and the add.at continuation accumulator."""
        budget = 1 << 12
        monkeypatch.setattr(vectorized, "CHUNK_FRAGMENT_BUDGET", budget)
        projected = _scene(23, 80, width=56, height=40)
        lists = build_render_lists(projected)
        counts = lists.instances_per_tile()
        # The budget must actually split this scene's deepest tile.
        assert counts.max() * 16 * 16 > budget
        groups = list(vectorized._irss_groups(lists, budget))
        whole = [
            g for g in groups
            if all(d0 == 0 and d1 == counts[t] for t, d0, d1 in g)
        ]
        assert len(whole) >= 2
        assert any(len(g) > 1 for g in whole)
        assert any(d1 - d0 < counts[t] for g in groups for t, d0, d1 in g)
        assert_pfs_exact(projected, lists)
        assert_irss_exact(projected, lists)
        assert_irss_exact(projected, lists, fp16=True)

    def test_irss_fp16_memory_bound(self):
        """One fp16 IRSS render of bicycle at detail 1.0 stays within a
        fixed transient-memory bound: tile groups keep the working set
        near one fragment-budget chunk instead of growing with the
        frame."""
        bundle = build_scene("bicycle", 1.0)
        cloud, _ = bundle.frame_cloud(0)
        projected = project(cloud, bundle.camera)
        lists = build_render_lists(projected)
        tracemalloc.start()
        try:
            render_irss_vectorized(projected, lists, fp16=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Bytes: headroom over the ~5.3 MB this render measures.
        assert peak <= 8_000_000


class TestBinningParity:
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 150))
    @settings(max_examples=15, deadline=None)
    def test_flat_binning_matches_scalar_loop(self, seed, n):
        """The np.repeat/argsort binning reproduces the scalar
        double-loop's per-tile lists exactly (content and order)."""
        from repro.gaussians.tiles import (
            TileGrid,
            bin_gaussians,
            tile_rect_of_footprint,
        )

        rng = np.random.default_rng(seed)
        grid = TileGrid(width=77, height=45)
        means2d = rng.uniform(-20, 90, size=(n, 2))
        radii = rng.uniform(0, 30, size=n)

        per_tile_loop: list[list[int]] = [[] for _ in range(grid.n_tiles)]
        for g in range(n):
            tx0, ty0, tx1, ty1 = tile_rect_of_footprint(grid, means2d[g], radii[g])
            for ty in range(ty0, ty1):
                for tx in range(tx0, tx1):
                    per_tile_loop[ty * grid.tiles_x + tx].append(g)

        per_tile_vec = bin_gaussians(grid, means2d, radii)
        assert len(per_tile_vec) == grid.n_tiles
        for t in range(grid.n_tiles):
            np.testing.assert_array_equal(
                per_tile_vec[t], np.asarray(per_tile_loop[t], dtype=np.int64)
            )


class TestRegistry:
    def test_backends_registered(self):
        assert set(list_backends()) >= {"reference", "vectorized"}

    def test_unknown_backend_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            get_backend("no-such-backend")
        with pytest.raises(ValidationError):
            render_reference(_scene(1, 5), backend="no-such-backend")

    def test_dispatch_selects_backend(self):
        projected = _scene(9, 40)
        via_param = render_reference(projected, backend="vectorized")
        direct = render_pfs_vectorized(projected)
        np.testing.assert_array_equal(via_param.image, direct.image)
        irss_via = render_irss(projected, backend="vectorized")
        irss_direct = render_irss_vectorized(projected)
        np.testing.assert_array_equal(irss_via.image, irss_direct.image)

    def test_default_backend_override(self):
        projected = _scene(2, 30)
        loop = render_reference_loop(projected)
        previous = set_default_backend("vectorized")
        try:
            dispatched = render_reference(projected)
        finally:
            set_default_backend(previous)
        np.testing.assert_array_equal(loop.image, dispatched.image)

    def test_use_backend_context(self):
        projected = _scene(4, 30)
        with use_backend("vectorized") as backend:
            assert backend.name == "vectorized"
            result = render_irss(projected)
        np.testing.assert_array_equal(
            result.image, render_irss_loop(projected).image
        )
