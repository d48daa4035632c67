"""Instance-batched vectorized rasterizer backends (PFS and IRSS).

The reference rasterizers iterate Python-level over every
(tile, Gaussian) instance, which caps the whole repository at toy
resolutions.  This module restructures the same dataflows for
throughput — the GauRast/FLICKER observation that the win comes from
batching work *across* instances rather than iterating them.

**PFS: depth-slab bricks.**

* The per-tile member lists are flattened into padded instance
  matrices, grouped by clipped tile shape (interior tiles batch
  together; edge tiles batch per shape) and sorted by descending
  instance count so padding stays negligible.
* Whole depth slabs of instances are evaluated at once in
  ``(tile, row, col, depth)`` bricks — depth last, so the
  sequential-in-depth operations run on contiguous memory.  Per-pixel
  front-to-back order is preserved by computing the transmittance
  recurrence ``T_d = T_{d-1} * (1 - alpha_d)`` as an exclusive prefix
  product (``np.cumprod`` along the depth axis multiplies in exactly
  the reference order), and per-pixel early termination is reproduced
  by *freezing* the transmittance at its first ``eps`` crossing.
* The exp/alpha path runs only on the ~10% of fragments that pass the
  threshold test, and the per-pixel color sum uses ``np.einsum``
  (which accumulates the contraction axis in order) or, for
  continuation chunks, unbuffered ``np.add.at`` in depth order.

**IRSS: fragment-sparse segments.**  The IRSS dataflow shades each
(instance, row) segment between its first and last significant
fragment and skips the rest, so the exact IRSS engine never builds a
brick:

* Tiles are taken in groups (bounded by ``CHUNK_FRAGMENT_BUDGET``);
  per group, the row geometry of every (instance, row) pair is
  evaluated once over flat, depth-major instances.
* Each non-empty segment expands into its columns (``np.repeat``),
  and only the threshold-passing fragments are kept — about a tenth of
  the brick cells.
* The blend sweeps depth ranks, vectorized across the group's pixels:
  each step applies the reference's per-fragment ``T > eps`` test and
  ``T *= 1 - alpha`` in depth order; colors then accumulate per pixel
  with unbuffered ``np.add.at`` in the same order.  Every early
  termination counter follows from each pixel's last-active depth.

Both dataflows are pixel-exact against their references: bit-identical
images, transmittance, contributor counts, and identical
``RenderStats`` / ``IRSSStats`` / ``TileRowWorkload`` counters
(including early-termination semantics and the fp16 Row-PE datapath).
This is property-tested in ``tests/render/test_backend_parity.py``.

Both renderers also take a ``dtype`` parameter (default ``float64``,
the exact datapath).  ``float32`` halves the brick bandwidth — the
sweeps are memory-bound — at ~1e-7 relative error; the approx backend
uses it (IRSS then runs on depth-slab bricks with a log-domain blend),
where that error is negligible against its culling error.  The
exactness guarantees above apply to the exact datapaths only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.config import DEFAULT_SETTINGS, FLOPS, RenderSettings
from repro.core.irss import (
    IRSSRenderResult,
    IRSSStats,
    TileRowWorkload,
    _Fp16Features,
)
from repro.core.transform import IRSSTransform, compute_transforms
from repro.errors import RenderError
from repro.gaussians.projection import Projected2D
from repro.gaussians.rasterizer import RenderResult, RenderStats
from repro.gaussians.sorting import RenderLists, build_render_lists
from repro.gaussians.tiles import TileGrid

#: Upper bound on the number of (tile, pixel, instance) fragments
#: materialized per chunk (float64 working arrays are ~8x this in
#: bytes).  Sized so a chunk's working set stays cache-resident — the
#: brick sweeps below are bandwidth-bound, and small chunks beat big
#: ones by ~2.5x — while still amortizing per-call overhead.  Tiles and
#: depths are chunked to stay under it, so arbitrarily large scenes
#: render in bounded memory.
CHUNK_FRAGMENT_BUDGET = 1 << 16


@dataclass
class _TileBatch:
    """Non-empty tiles sharing one clipped shape.

    Tiles are ordered by descending member count so that chunks of
    consecutive tiles have near-uniform depth (minimal padding).

    Attributes
    ----------
    rows, cols:
        Clipped tile shape in pixels.
    tile_ids:
        (T,) tile indices into the grid.
    member_lists:
        Per tile (batch order), the depth-ordered Gaussian indices.
        Padded matrices are materialized per chunk (bounded memory),
        not per batch — see :meth:`padded_members`.
    lengths:
        (T,) member counts (non-increasing).
    x0, y0:
        (T,) pixel origin of each tile.
    """

    rows: int
    cols: int
    tile_ids: np.ndarray
    member_lists: list[np.ndarray]
    lengths: np.ndarray
    x0: np.ndarray
    y0: np.ndarray

    def padded_members(self, t0: int, t1: int) -> np.ndarray:
        """(t1-t0, depth) member matrix for a tile chunk, -1 padded."""
        depth = int(self.lengths[t0])
        members = np.full((t1 - t0, depth), -1, dtype=np.int64)
        for row, tile in enumerate(range(t0, t1)):
            tile_members = self.member_lists[tile]
            members[row, : len(tile_members)] = tile_members
        return members


def build_tile_batches(lists: RenderLists) -> list[_TileBatch]:
    """Group the non-empty tiles of a frame into shape-uniform batches."""
    grid = lists.grid
    counts = lists.instances_per_tile()
    groups: dict[tuple[int, int], list[int]] = {}
    for tile_id in np.nonzero(counts > 0)[0]:
        groups.setdefault(grid.tile_shape(int(tile_id)), []).append(int(tile_id))

    batches: list[_TileBatch] = []
    for (rows, cols), ids_list in groups.items():
        ids = np.asarray(ids_list, dtype=np.int64)
        lengths = counts[ids]
        order = np.argsort(-lengths, kind="stable")
        ids = ids[order]
        lengths = lengths[order]
        ty, tx = np.divmod(ids, grid.tiles_x)
        batches.append(
            _TileBatch(
                rows=rows,
                cols=cols,
                tile_ids=ids,
                member_lists=[lists.per_tile[int(t)] for t in ids],
                lengths=lengths,
                x0=tx * grid.tile,
                y0=ty * grid.tile,
            )
        )
    return batches


def _tile_chunks(batch: _TileBatch, budget: int) -> list[tuple[int, int]]:
    """Split a batch into [t0, t1) tile ranges bounded by the budget."""
    pixels = batch.rows * batch.cols
    chunks: list[tuple[int, int]] = []
    t0 = 0
    n = batch.tile_ids.size
    while t0 < n:
        depth = max(int(batch.lengths[t0]), 1)
        span = max(budget // (depth * pixels), 1)
        t1 = min(n, t0 + span)
        chunks.append((t0, t1))
        t0 = t1
    return chunks


def _prefix_products(t_in: np.ndarray, la: np.ndarray) -> np.ndarray:
    """Running transmittance products, in place.

    ``la`` is a ``(..., D+1)`` buffer whose slot 0 is free and whose
    slots ``1..D`` hold each instance's ``(1 - alpha)`` factors (1.0
    where the instance does not touch the pixel).  On return the
    buffer holds the inclusive products ``[t_in, t_in*la_1, ...]`` —
    ``np.multiply.accumulate`` multiplies left to right, the exact
    order of the reference blending loop.
    """
    la[..., 0] = t_in
    return np.multiply.accumulate(la, axis=-1, out=la)


def _frozen_transmittance(
    t_in: np.ndarray, prod: np.ndarray, live: np.ndarray, eps: float
) -> np.ndarray:
    """Transmittance after a chunk, with early termination frozen.

    ``prod[..., d]`` is the running (unfrozen) product after instance
    ``d`` and ``live[...]`` counts its entries above ``eps``.  The
    physical recurrence stops updating a pixel once it crosses
    ``eps``; the products are monotone non-increasing, so the entries
    above ``eps`` form a prefix and the value at the *first* crossing
    sits at index ``live`` (or the final product if it never crossed,
    or the incoming value if the pixel was already terminated).
    """
    depth = prod.shape[-1]
    idx = np.minimum(live, depth - 1)
    frozen = np.take_along_axis(prod, idx[..., None], axis=-1)[..., 0]
    return np.where(t_in <= eps, t_in, frozen)


def _blend_state(
    tile_t: np.ndarray,
    frags: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    alpha: np.ndarray,
    d_span: int,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmittance state for one depth chunk of candidate fragments.

    Scatters the fragments' ``(1 - alpha)`` factors into a ones brick,
    runs the in-order prefix product, and derives the
    activity mask.  Returns ``(prod, active, live)`` where ``prod``
    has ``d_span + 1`` slots (slot 0 = incoming transmittance),
    ``active[..., d]`` tests the pre-instance transmittance against
    ``eps``, and ``live`` counts each pixel's post-instance products
    above ``eps`` (the frozen-crossing index).
    """
    ti, ri, ci, di = frags
    la = np.ones(tile_t.shape + (d_span + 1,), dtype=tile_t.dtype)
    la[ti, ri, ci, di + 1] = 1.0 - alpha
    prod = _prefix_products(tile_t, la)
    act_all = prod > eps
    return prod, act_all[..., :-1], act_all[..., 1:].sum(axis=-1)


def _blend_chunk(
    tile_rgb: np.ndarray,
    tile_n: np.ndarray,
    tile_t: np.ndarray,
    prod: np.ndarray,
    live: np.ndarray,
    frags: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    blend_at: np.ndarray,
    alpha: np.ndarray,
    colors: np.ndarray,
    first_chunk: bool,
    eps: float,
) -> tuple[np.ndarray, int]:
    """Blend one PFS depth chunk into the framebuffer tiles, in place.

    This is the bit-exactness-critical accumulation.  The per-pixel
    color sum is the one order-sensitive float reduction: the first
    depth chunk uses ``np.einsum`` (the accumulator starts at the
    gathered zeros and einsum sums the contraction axis in order — the
    exact reference sequence); continuation chunks use unbuffered
    ``np.add.at``, which preserves the per-pixel depth order exactly.
    Returns the frozen next-chunk transmittance and the number of
    blended fragments.
    """
    ti, ri, ci, di = frags
    rows, cols = tile_n.shape[1], tile_n.shape[2]
    weight = np.zeros(tile_t.shape + (prod.shape[-1] - 1,), dtype=prod.dtype)
    weight[ti, ri, ci, di] = np.where(blend_at, prod[ti, ri, ci, di] * alpha, 0.0)
    if first_chunk:
        tile_rgb += np.einsum("trcd,tdk->trck", weight, colors, optimize=False)
    else:
        wi = np.nonzero(weight)
        np.add.at(
            tile_rgb,
            (wi[0], wi[1], wi[2]),
            weight[wi][:, None] * colors[wi[0], wi[3]],
        )
    key = (ti * rows + ri) * cols + ci
    tile_n += (
        np.bincount(key[blend_at], minlength=tile_n.size)
        .reshape(tile_n.shape)
        .astype(np.int32)
    )
    next_t = _frozen_transmittance(tile_t, prod[..., 1:], live, eps)
    return next_t, int(np.count_nonzero(blend_at))


def _sparse_state(
    tile_t: np.ndarray,
    frags: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    alpha: np.ndarray,
    d_span: int,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-fragment transmittance state without the dense brick.

    The reduced-precision (approx) counterpart of :func:`_blend_state`:
    fragments arrive from ``np.nonzero`` in ``(tile, row, col, depth)``
    lexicographic order, so each pixel's fragments form one contiguous
    run in depth order.  Per-pixel exclusive prefix products are then a
    segmented log-cumsum over the fragment array — work proportional to
    the fragments that exist instead of the whole
    ``(tile, row, col, depth)`` brick.  The small (log/exp) rounding is
    why this path is reserved for the approx datapath.

    Returns ``(t_before, active, key, n_active, t_out, row_limit)``:
    per-fragment pre-instance transmittance and activity, the flat
    pixel key per fragment, the per-``(tile, depth)`` count of
    still-active pixels (the dense path's ``active.sum(axis=(1, 2))``),
    the frozen post-chunk transmittance, and per ``(tile, row)`` the
    last depth index at which any of its pixels was active (-1 if
    none; drives the IRSS row bookkeeping).
    """
    ti, ri, ci, di = frags
    n_tiles, rows, cols = tile_t.shape
    npix = tile_t.size
    key = (ti * rows + ri) * cols + ci
    t_in = tile_t.reshape(-1)
    la = 1.0 - alpha  # alpha is capped at alpha_max < 1, so log is safe
    # float64 keeps the cross-segment rounding of the shared cumsum far
    # below the output's float32 quantum, so sharded approx renders stay
    # equal to unsharded ones to within last-ulp noise.
    logs = np.log(la, dtype=np.float64)
    excl = np.cumsum(logs)
    excl -= logs  # exclusive prefix: product of earlier fragments
    n_frags = key.size
    first = np.empty(n_frags, dtype=bool)
    last = np.empty(n_frags, dtype=bool)
    if n_frags:
        first[0] = True
        first[1:] = key[1:] != key[:-1]
        last[-1] = True
        last[:-1] = first[1:]
        seg_id = np.cumsum(first) - 1
        base = excl[first]
        t_before = t_in[key] * np.exp(excl - base[seg_id])
    else:
        t_before = excl  # empty
    t_after = t_before * la
    active = t_before > eps
    crossing = active & (t_after <= eps)  # at most one per pixel

    # Per-pixel frozen transmittance and last-active depth index.
    entered = t_in > eps
    limit = np.where(entered, d_span - 1, -1)
    t_out = t_in.copy()
    if n_frags:
        tail_key = key[last]
        t_out[tail_key] = np.where(
            entered[tail_key], t_after[last], t_in[tail_key]
        )
        t_out[key[crossing]] = t_after[crossing]
        limit[key[crossing]] = di[crossing]

    # active-pixel counts per (tile, depth): a histogram of last-active
    # depths, suffix-summed (limit >= d  <=>  active at depth d).
    tile_of_pix = np.repeat(np.arange(n_tiles, dtype=np.int64), rows * cols)
    hist = np.bincount(
        tile_of_pix * (d_span + 1) + limit + 1,
        minlength=n_tiles * (d_span + 1),
    ).reshape(n_tiles, d_span + 1)
    n_active = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1][:, 1:]

    row_limit = limit.reshape(n_tiles, rows, cols).max(axis=2)
    return (
        t_before,
        active,
        key,
        n_active,
        t_out.reshape(n_tiles, rows, cols),
        row_limit,
    )


def _sparse_blend(
    tile_rgb: np.ndarray,
    tile_n: np.ndarray,
    key: np.ndarray,
    blend_at: np.ndarray,
    t_before: np.ndarray,
    alpha: np.ndarray,
    frag_colors: np.ndarray,
) -> int:
    """Scatter-blend active fragments into the framebuffer tiles.

    The approx counterpart of :func:`_blend_chunk`: one ``np.bincount``
    per channel over the fragments only.  ``np.bincount`` adds weights
    in scan order, so each pixel still accumulates front to back.
    Returns the number of blended fragments.
    """
    weight = np.where(blend_at, t_before * alpha, 0.0)
    npix = tile_n.size
    flat_rgb = tile_rgb.reshape(npix, 3)
    for ch in range(3):
        flat_rgb[:, ch] += np.bincount(
            key, weights=weight * frag_colors[:, ch], minlength=npix
        ).astype(flat_rgb.dtype)
    tile_n += (
        np.bincount(key[blend_at], minlength=npix)
        .reshape(tile_n.shape)
        .astype(np.int32)
    )
    return int(np.count_nonzero(blend_at))


# ----------------------------------------------------------------------
# PFS (reference dataflow), vectorized
# ----------------------------------------------------------------------
def render_pfs_vectorized(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    dtype: type = np.float64,
) -> RenderResult:
    """Vectorized PFS rasterizer — pixel-exact vs. ``render_reference``.

    ``dtype`` selects the brick / accumulator precision; the pixel-exact
    guarantee holds for the default ``float64`` only.
    """
    if lists is None:
        lists = build_render_lists(projected)
    grid = lists.grid
    width, height = projected.image_size
    if (grid.width, grid.height) != (width, height):
        raise RenderError("tile grid does not match projection resolution")

    image = np.zeros((height, width, 3), dtype=dtype)
    transmittance = np.ones((height, width), dtype=dtype)
    n_contrib = np.zeros((height, width), dtype=np.int32)
    stats = RenderStats(pixels=width * height, instances=lists.n_instances)

    eps = settings.transmittance_eps
    conics = projected.conics.astype(dtype, copy=False)
    means2d = projected.means2d.astype(dtype, copy=False)
    opacities = projected.opacities.astype(dtype, copy=False)
    thresholds = projected.thresholds.astype(dtype, copy=False)
    colors = projected.colors.astype(dtype, copy=False)

    for batch in build_tile_batches(lists):
        rows, cols = batch.rows, batch.cols
        for t0, t1 in _tile_chunks(batch, CHUNK_FRAGMENT_BUDGET):
            x0 = batch.x0[t0:t1]
            y0 = batch.y0[t0:t1]
            depth = int(batch.lengths[t0])
            n_tiles = t1 - t0
            # Pixel centers at half-integer coordinates (exact in fp64).
            px = (
                x0[:, None, None, None]
                + np.arange(cols, dtype=np.int64)[None, None, :, None]
            ).astype(dtype) + dtype(0.5)  # (T, 1, cols, 1)
            py = (
                y0[:, None, None, None]
                + np.arange(rows, dtype=np.int64)[None, :, None, None]
            ).astype(dtype) + dtype(0.5)  # (T, rows, 1, 1)
            yy = y0[:, None, None] + np.arange(rows)[None, :, None]
            xx = x0[:, None, None] + np.arange(cols)[None, None, :]
            tile_t = transmittance[yy, xx]  # (T, rows, cols)
            tile_rgb = image[yy, xx]
            tile_n = n_contrib[yy, xx]
            members = batch.padded_members(t0, t1)

            d_step = max(CHUNK_FRAGMENT_BUDGET // (n_tiles * rows * cols), 1)
            for d0 in range(0, depth, d_step):
                d1 = min(depth, d0 + d_step)
                m = members[:, d0:d1]
                valid = m >= 0
                g = np.where(valid, m, 0)

                # Depth-last bricks: (T, rows, cols, D).  The quadratic
                # is composed in-place but with the reference expression's
                # exact association: (a*dx)*dx + ((2b)*dx)*dy + (c*dy)*dy
                # (the += reorder below only swaps commutative adds).
                dx = px - means2d[g, 0][:, None, None, :]  # (T, 1, cols, D)
                dy = py - means2d[g, 1][:, None, None, :]  # (T, rows, 1, D)
                a = conics[g, 0][:, None, None, :]
                b = conics[g, 1][:, None, None, :]
                c = conics[g, 2][:, None, None, :]
                power = (2.0 * b * dx) * dy  # the only full-brick product
                power += a * dx * dx
                power += c * dy * dy

                th = np.where(valid, thresholds[g], -np.inf)
                cmask = power <= th[:, None, None, :]

                # Alpha only matters at threshold-passing fragments (the
                # reference multiplies by 0 / 1 elsewhere), so evaluate
                # the exp on the masked ~10% of fragments only.
                frags = np.nonzero(cmask)
                ti, ri, ci, di = frags
                alpha = opacities[g[ti, di]] * np.exp(-0.5 * power[ti, ri, ci, di])
                alpha = np.minimum(alpha, settings.alpha_max)

                if dtype is np.float64:
                    prod, active, live = _blend_state(
                        tile_t, frags, alpha, d1 - d0, eps
                    )
                    n_active = active.sum(axis=(1, 2))  # (T, D)
                    blend_at = active[ti, ri, ci, di]
                else:
                    t_before, blend_at, pkey, n_active, t_out, _ = (
                        _sparse_state(tile_t, frags, alpha, d1 - d0, eps)
                    )
                n_active *= valid
                shaded = int(n_active.sum())
                stats.instances_processed += int(np.count_nonzero(n_active))
                stats.fragments_shaded += shaded
                stats.eq7_flops += shaded * FLOPS.pfs_flops_per_fragment

                if dtype is np.float64:
                    tile_t, blended = _blend_chunk(
                        tile_rgb, tile_n, tile_t, prod, live, frags, blend_at,
                        alpha, colors[g], first_chunk=d0 == 0, eps=eps,
                    )
                else:
                    blended = _sparse_blend(
                        tile_rgb, tile_n, pkey, blend_at, t_before, alpha,
                        colors[g[ti, di]],
                    )
                    tile_t = t_out
                stats.fragments_significant += blended
                # Whole-chunk early termination: once every pixel of the
                # tile chunk has crossed eps, the remaining depth chunks
                # blend nothing and touch no counter (every mask above is
                # derived from `tile_t > eps`), so skipping them is exact.
                if not (tile_t > eps).any():
                    break

            transmittance[yy, xx] = tile_t
            image[yy, xx] = tile_rgb
            n_contrib[yy, xx] = tile_n

    background = settings.background_array()
    image = image.astype(np.float64, copy=False)
    transmittance = transmittance.astype(np.float64, copy=False)
    image += transmittance[:, :, None] * background[None, None, :]
    return RenderResult(
        image=image, transmittance=transmittance, n_contrib=n_contrib, stats=stats
    )


# ----------------------------------------------------------------------
# IRSS dataflow, vectorized
# ----------------------------------------------------------------------
class _CastFeatures:
    """Per-Gaussian feature record in the compute dtype (cast once, not
    copied when already in it).

    Same attribute layout as ``_Fp16Features`` so the gather code below
    is shared across datapaths.
    """

    def __init__(
        self, projected: Projected2D, transform: IRSSTransform, dtype: type
    ) -> None:
        self.u00 = transform.u00.astype(dtype, copy=False)
        self.u01 = transform.u01.astype(dtype, copy=False)
        self.u11 = transform.u11.astype(dtype, copy=False)
        self.thresholds = transform.thresholds.astype(dtype, copy=False)
        self.colors = projected.colors.astype(dtype, copy=False)
        self.opacities = projected.opacities.astype(dtype, copy=False)
        self.means2d = transform.means2d.astype(dtype, copy=False)


def _irss_groups(
    lists: RenderLists, budget: int
) -> Iterator[list[tuple[int, int, int]]]:
    """Partition the non-empty tiles into groups of ``(tile, d0, d1)`` pieces.

    ``budget`` is the fragment budget.  An (instance, row) pair holds
    about four times the transient bytes of a brick cell, so a group
    holds whole tiles, deepest first, while their pairs fit a quarter
    of it; that keeps its working set near one brick chunk's.  A tile
    whose pairs alone exceed that is split into depth slices, one group
    each, yielded in depth order so the pixel state carries between
    them.  Tiles are pixel-disjoint, so grouping never changes the
    result.
    """
    budget = max(budget // 4, 1)
    grid = lists.grid
    counts = lists.instances_per_tile()
    group: list[tuple[int, int, int]] = []
    load = 0
    for tile_id in np.argsort(-counts, kind="stable").tolist():
        n = int(counts[tile_id])
        if n == 0:
            break
        rows = grid.tile_shape(tile_id)[0]
        if group and load + n * rows > budget:
            yield group
            group, load = [], 0
        if n * rows <= budget:
            group.append((tile_id, 0, n))
            load += n * rows
            continue
        step = max(budget // rows, 1)
        for d0 in range(0, n, step):
            yield [(tile_id, d0, min(n, d0 + step))]
    if group:
        yield group


def _row_geometry(
    u00: np.ndarray,
    u01: np.ndarray,
    u11: np.ndarray,
    th: np.ndarray,
    dx_pix: np.ndarray,
    dy_pix: np.ndarray,
    last_col: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The reference loop's per-row expressions over (instance, row) pairs.

    Returns ``(x_start, y_sq, c0, span, intersects, outside_left,
    needs_search)``: the transformed coordinates of each row's leftmost
    pixel centre, the first column and length (0 if empty) of its
    clipped segment, and its Step-1/3 row classes.
    """
    x_start = u00 * dx_pix + u01 * dy_pix
    y_pp = u11 * dy_pix
    y_sq = y_pp * y_pp
    half_sq = th - y_sq
    intersects = half_sq >= 0.0
    half_w = np.sqrt(np.maximum(half_sq, 0.0))
    with np.errstate(invalid="ignore"):
        c0_raw = np.ceil((-half_w - x_start) / u00)
        c1_raw = np.floor((half_w - x_start) / u00)
    # Reject rows whose interval lies outside the tile before clamping.
    in_tile = intersects & (c0_raw <= last_col) & (c1_raw >= 0)
    c0 = np.clip(np.where(in_tile, c0_raw, 0), 0, last_col).astype(np.int64)
    c1 = np.clip(np.where(in_tile, c1_raw, -1), -1, last_col).astype(np.int64)
    span = np.where(in_tile & (c1 >= c0), c1 - c0 + 1, 0)
    outside_left = intersects & (span == 0) & (x_start > 0.0)
    needs_search = intersects & (x_start * x_start + y_sq > th) & ~outside_left
    return x_start, y_sq, c0, span, intersects, outside_left, needs_search


def _segment_fragments(
    x_start: np.ndarray,
    y_sq: np.ndarray,
    c0: np.ndarray,
    span: np.ndarray,
    u00: np.ndarray,
    th: np.ndarray,
    fp16: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand every non-empty segment into its columns.

    Evaluates ``E = x''^2 + y''^2`` with ``x'' = x_start + c * dx''``
    per column (all inputs are per pair) and keeps the fragments with
    ``E <= th``.  Returns their ``(pair, col, power)`` in pair order.
    """
    seg = np.flatnonzero(span)
    seg_cols = span[seg]
    pair = np.repeat(seg, seg_cols)
    col = np.arange(pair.size) + np.repeat(
        c0[seg] - (np.cumsum(seg_cols) - seg_cols), seg_cols
    )
    power = x_start[pair] + col.astype(np.float64) * u00[pair]
    if fp16:
        power = power.astype(np.float16).astype(np.float64)
    power *= power
    power += y_sq[pair]
    keep = power <= th[pair]
    return pair[keep], col[keep], power[keep]


def _transmittance_sweep(
    state: np.ndarray,
    key: np.ndarray,
    factor: np.ndarray,
    rank_end: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend transmittance front to back, one depth rank at a time.

    Fragments are depth-major (rank ``r`` ends at ``rank_end[r]``), so
    a rank's fragments hit distinct pixels and each step is one gather,
    the reference's ``T > eps`` test with ``T *= 1 - alpha`` (``factor``,
    already in the accumulator dtype), and one scatter.  Updates the
    per-pixel ``state`` in place and returns each fragment's
    transmittance before and after its step.
    """
    t_before = np.empty_like(factor)
    t_after = np.empty_like(factor)
    r0 = 0
    for r1 in rank_end.tolist():
        k = key[r0:r1]
        t = state[k]
        t_before[r0:r1] = t
        np.multiply(t, factor[r0:r1], out=t, where=t > eps)
        t_after[r0:r1] = t
        state[k] = t
        r0 = r1
    return t_before, t_after


class _SparseIRSS:
    """The fragment-sparse exact IRSS engine (float64 or the fp16 Row-PE
    datapath), rendering one frame into the caller's buffers.

    Per tile group, the row geometry of every (instance, row) pair is
    evaluated once over flat instances; each non-empty segment expands
    into its columns and the threshold-passing fragments are kept.  The
    blend sweeps depth ranks, vectorized across the group's pixels, with
    the reference's per-fragment operations in depth order.  Every
    counter follows from each pixel's last-active depth.
    """

    def __init__(
        self,
        projected: Projected2D,
        transform: IRSSTransform,
        settings: RenderSettings,
        fp16: bool,
        image: np.ndarray,
        transmittance: np.ndarray,
        n_contrib: np.ndarray,
        stats: IRSSStats,
        workload: TileRowWorkload,
    ) -> None:
        self.feats = (
            _Fp16Features(projected, transform)
            if fp16
            else _CastFeatures(projected, transform, np.float64)
        )
        self.colors = self.feats.colors.T.copy()  # one row per channel
        self.fp16 = fp16
        self.settings = settings
        self.flat_t = transmittance.reshape(-1)
        self.flat_rgb = image.reshape(-1, 3)
        self.flat_n = n_contrib.reshape(-1)
        self.stats = stats
        self.workload = workload

    def render(self, lists: RenderLists) -> None:
        """Render every tile of ``lists``, one bounded group at a time."""
        for pieces in _irss_groups(lists, CHUNK_FRAGMENT_BUDGET):
            self._render_group(lists.grid, lists.per_tile, pieces)

    def _render_group(
        self,
        grid: TileGrid,
        per_tile: list[np.ndarray],
        pieces: list[tuple[int, int, int]],
    ) -> None:
        """Render one group of ``(tile, d0, d1)`` pieces and count it."""
        tile = grid.tile
        eps = self.settings.transmittance_eps
        stats, workload = self.stats, self.workload
        n_slots = len(pieces)
        tids = np.array([p[0] for p in pieces], dtype=np.int64)
        depth = np.array([p[2] - p[1] for p in pieces], dtype=np.int64)
        ty, tx = np.divmod(tids, grid.tiles_x)
        x0, y0 = tx * tile, ty * tile
        rows = np.minimum(grid.height - y0, tile)
        cols = np.minimum(grid.width - x0, tile)

        # Group pixels: one tile*tile slot per tile (clipped tiles leave
        # slots unused).  `limit` is each pixel's last depth with its
        # transmittance above eps: -1 if it enters terminated, else the
        # piece's last depth until a crossing lowers it.
        slot, local = np.divmod(np.arange(n_slots * tile * tile), tile * tile)
        local_row, local_col = np.divmod(local, tile)
        inside = (local_row < rows[slot]) & (local_col < cols[slot])
        pix_of_key = (y0[slot] + local_row) * grid.width + x0[slot] + local_col
        pix = pix_of_key[inside]
        state = np.zeros(slot.size, dtype=self.flat_t.dtype)
        state[inside] = self.flat_t[pix]
        limit = np.where(state > eps, depth[slot] - 1, -1)
        if limit.max() < 0:
            return  # a depth slice of a tile that already terminated

        # Flat instances in depth-major order and their (instance, row)
        # pairs; fragments inherit the order, so each pixel's fragments
        # come in depth order.
        gauss = np.concatenate([per_tile[t][d0:d1] for t, d0, d1 in pieces])
        inst_slot = np.repeat(np.arange(n_slots), depth)
        inst_d = np.arange(gauss.size) - np.repeat(np.cumsum(depth) - depth, depth)
        order = np.argsort(inst_d * n_slots + inst_slot)
        gauss, inst_slot, inst_d = gauss[order], inst_slot[order], inst_d[order]
        inst_rows = rows[inst_slot]
        inst_first_row = np.cumsum(inst_rows) - inst_rows
        pair_inst = np.repeat(np.arange(gauss.size), inst_rows)
        pair_row = np.arange(pair_inst.size) - inst_first_row[pair_inst]
        pair_slot = inst_slot[pair_inst]
        pair_g = gauss[pair_inst]

        f = self.feats
        dx_pix = (x0[inst_slot].astype(np.float64) + 0.5) - f.means2d[gauss, 0]
        dy_pix = (
            (y0[pair_slot] + pair_row).astype(np.float64) + 0.5
        ) - f.means2d[pair_g, 1]
        u00, th = f.u00[pair_g], f.thresholds[pair_g]
        x_start, y_sq, c0, span, intersects, outside_left, needs_search = (
            _row_geometry(
                u00, f.u01[pair_g], f.u11[pair_g], th,
                dx_pix[pair_inst], dy_pix, cols[pair_slot] - 1,
            )
        )
        pair, col, power = _segment_fragments(
            x_start, y_sq, c0, span, u00, th, self.fp16
        )
        del x_start, y_sq, c0, u00, th, dx_pix, dy_pix  # bounded memory
        frag_g = pair_g[pair]
        alpha = f.opacities[frag_g] * np.exp(-0.5 * power)
        if self.fp16:
            alpha = alpha.astype(np.float16).astype(np.float64)
        alpha = np.minimum(alpha, self.settings.alpha_max)
        key = (pair_slot[pair] * tile + pair_row[pair]) * tile + col
        rank_end = np.cumsum(np.bincount(inst_d[pair_inst[pair]]))
        del pair, col, power

        # Transmittance, then each pixel's crossing depth.
        t_before, t_after = _transmittance_sweep(
            state, key, (1.0 - alpha).astype(state.dtype), rank_end, eps
        )
        self.flat_t[pix] = state[inside]
        is_live = t_before > eps
        crossed = np.flatnonzero(is_live & (t_after <= eps))
        limit[key[crossed]] = np.searchsorted(rank_end, crossed, side="right")
        live = np.flatnonzero(is_live)
        stats.fragments_blended += live.size
        self.flat_n[pix] += np.bincount(key[live], minlength=state.size)[inside]

        # Colour: each live fragment's weighted contribution, added per
        # pixel in depth order (unbuffered add.at keeps the sequence).
        if self.fp16:
            weight = t_before[live].astype(np.float64) * alpha[live]
            weight = weight.astype(np.float16).astype(np.float64)
        else:
            weight = t_before[live] * alpha[live]
        g_live = frag_g[live]
        live_pix = pix_of_key[key[live]]
        for ch in range(3):
            contrib = weight * self.colors[ch][g_live]
            if self.fp16:
                contrib = contrib.astype(np.float16)
            np.add.at(self.flat_rgb[:, ch], live_pix, contrib)

        # Counters: an instance is processed iff its depth is at most its
        # tile's last-active depth (the reference's whole-tile break), a
        # row is active iff its depth is at most the row's.
        row_limit = limit.reshape(n_slots, tile, tile).max(axis=2)
        tile_limit = row_limit.max(axis=1)
        processed = inst_d <= tile_limit[inst_slot]
        stats.instances_processed += int(np.count_nonzero(processed))
        stats.rows_considered += int(inst_rows[processed].sum())
        stats.fragments_pfs_equivalent += int((limit + 1).sum())
        workload.instance_setup[tids] += tile_limit + 1

        pair_proc = processed[pair_inst]
        nonempty = span > 0
        stats.rows_skipped_y += int(np.count_nonzero(pair_proc & ~intersects))
        stats.rows_skipped_sign += int(np.count_nonzero(pair_proc & outside_left))
        stats.rows_skipped_empty += int(
            np.count_nonzero(pair_proc & intersects & ~nonempty & ~outside_left)
        )
        search = pair_proc & needs_search
        latency = np.maximum(np.ceil(np.log2(np.maximum(cols, 2))), 1)
        slot_searches = np.bincount(pair_slot[search], minlength=n_slots)
        steps = slot_searches * latency.astype(np.int64)
        stats.binary_search_rows += int(slot_searches.sum())
        stats.binary_search_steps += int(steps.sum())
        workload.binary_search_steps[tids] += steps
        searched = np.bincount(pair_inst[search], minlength=gauss.size) > 0
        workload.instance_search[tids] += np.bincount(
            inst_slot[searched], minlength=n_slots
        )

        row_active = inst_d[pair_inst] <= row_limit[pair_slot, pair_row]
        stats.rows_terminated += int(
            np.count_nonzero(pair_proc & nonempty & ~row_active)
        )
        shaded = nonempty & row_active
        seg_len = np.where(row_active, span, 0)
        n_frag = int(seg_len.sum())
        n_seg = int(np.count_nonzero(shaded))
        stats.fragments_shaded += n_frag
        stats.segments += n_seg
        stats.eq7_flops += (
            n_seg * FLOPS.irss_flops_first_fragment
            + (n_frag - n_seg) * FLOPS.irss_flops_per_fragment
        )
        slot_row = pair_slot * tile + pair_row
        workload.row_fragments[tids] += np.bincount(
            slot_row, weights=seg_len, minlength=n_slots * tile
        ).astype(np.int64).reshape(n_slots, tile)
        workload.row_segments[tids] += np.bincount(
            slot_row[shaded], minlength=n_slots * tile
        ).reshape(n_slots, tile)
        workload.instance_max_run[tids] += np.bincount(
            inst_slot,
            weights=np.maximum.reduceat(seg_len, inst_first_row),
            minlength=n_slots,
        ).astype(np.int64)


def _render_irss_bricks(
    projected: Projected2D,
    lists: RenderLists,
    transform: IRSSTransform,
    settings: RenderSettings,
    dtype: type,
    image: np.ndarray,
    transmittance: np.ndarray,
    n_contrib: np.ndarray,
    stats: IRSSStats,
    workload: TileRowWorkload,
) -> None:
    """Reduced-precision IRSS over depth-slab bricks (the approx datapath).

    Fragments are tested over whole ``(tile, row, col, depth)`` bricks
    and blended with the log-domain :func:`_sparse_state` /
    :func:`_sparse_blend` pair, whose small rounding is negligible
    against the approx backend's culling error.
    """
    features = _CastFeatures(projected, transform, dtype)
    eps = settings.transmittance_eps

    for batch in build_tile_batches(lists):
        rows, cols = batch.rows, batch.cols
        col_idx = np.arange(cols, dtype=dtype)
        search_latency = max(int(np.ceil(np.log2(max(cols, 2)))), 1)

        for t0, t1 in _tile_chunks(batch, CHUNK_FRAGMENT_BUDGET):
            x0 = batch.x0[t0:t1]
            y0 = batch.y0[t0:t1]
            tids = batch.tile_ids[t0:t1]
            depth = int(batch.lengths[t0])
            n_tiles = t1 - t0
            row_pix_y = (
                y0[:, None] + np.arange(rows, dtype=np.int64)[None, :]
            ).astype(dtype) + dtype(0.5)  # (T, rows)
            yy = y0[:, None, None] + np.arange(rows)[None, :, None]
            xx = x0[:, None, None] + np.arange(cols)[None, None, :]
            tile_t = transmittance[yy, xx]
            tile_rgb = image[yy, xx]
            tile_n = n_contrib[yy, xx]
            local_rows = np.arange(rows, dtype=np.int64)
            members = batch.padded_members(t0, t1)

            d_step = max(CHUNK_FRAGMENT_BUDGET // (n_tiles * rows * cols), 1)
            for d0 in range(0, depth, d_step):
                d1 = min(depth, d0 + d_step)
                m = members[:, d0:d1]
                valid = m >= 0
                g = np.where(valid, m, 0)

                u00 = features.u00[g]
                u01 = features.u01[g]
                u11 = features.u11[g]
                th = np.where(valid, features.thresholds[g], -np.inf)
                mean = features.means2d[g]
                color = features.colors[g]
                opacity = features.opacities[g]

                # Per-row transformed coordinates of the leftmost pixel
                # center (all geometry is transmittance-independent).
                # Row-level arrays are (T, rows, D); depth stays last.
                dx_pix = (
                    x0[:, None].astype(dtype) + dtype(0.5) - mean[:, :, 0]
                )  # (T, D)
                dy_pix = row_pix_y[:, :, None] - mean[:, :, 1][:, None, :]
                x_start = (
                    u00[:, None, :] * dx_pix[:, None, :] + u01[:, None, :] * dy_pix
                )
                y_pp = u11[:, None, :] * dy_pix
                y_sq = y_pp * y_pp

                # Step 1: whole-row rejection.
                half_sq = th[:, None, :] - y_sq
                intersects = half_sq >= 0.0
                half_w = np.sqrt(np.maximum(half_sq, 0.0))
                with np.errstate(invalid="ignore"):
                    c0_raw = np.ceil((-half_w - x_start) / u00[:, None, :])
                    c1_raw = np.floor((half_w - x_start) / u00[:, None, :])
                in_tile = intersects & (c0_raw <= cols - 1) & (c1_raw >= 0)
                c0 = np.clip(np.where(in_tile, c0_raw, 0), 0, cols - 1).astype(
                    np.int64
                )
                c1 = np.clip(np.where(in_tile, c1_raw, -1), -1, cols - 1).astype(
                    np.int64
                )
                nonempty = in_tile & (c1 >= c0) & valid[:, None, :]
                outside_left = intersects & ~nonempty & (x_start > 0.0)
                skipped_empty = intersects & ~nonempty & ~outside_left
                needs_search = (
                    intersects
                    & (x_start * x_start + y_sq > th[:, None, :])
                    & ~outside_left
                )

                # Shade: E = x''^2 + y''^2 with x'' = x_start + c * dx''.
                xpp = (
                    x_start[:, :, None, :]
                    + col_idx[None, None, :, None] * u00[:, None, None, :]
                )
                # power = xpp^2 + y_sq, squaring the brick in place.
                power = np.multiply(xpp, xpp, out=xpp)
                power += y_sq[:, :, None, :]
                cmask = (
                    nonempty[:, :, None, :]
                    & (col_idx[None, None, :, None] >= c0[:, :, None, :])
                    & (col_idx[None, None, :, None] <= c1[:, :, None, :])
                    & (power <= th[:, None, None, :])
                )

                frags = np.nonzero(cmask)
                ti, ri, ci, di = frags
                alpha = opacity[ti, di] * np.exp(-0.5 * power[ti, ri, ci, di])
                alpha = np.minimum(alpha, settings.alpha_max)

                t_before, blend_at, pkey, n_live, t_out, row_limit = (
                    _sparse_state(tile_t, frags, alpha, d1 - d0, eps)
                )
                row_active = (
                    row_limit[:, :, None]
                    >= np.arange(d1 - d0, dtype=np.int64)[None, None, :]
                )

                # Early-termination bookkeeping: an instance is
                # "processed" iff any of its tile's pixels was still
                # active when its depth rank came up (the reference
                # loop's whole-tile break).
                n_live *= valid
                processed = n_live > 0
                n_proc = int(np.count_nonzero(processed))
                stats.instances_processed += n_proc
                stats.rows_considered += n_proc * rows
                stats.fragments_pfs_equivalent += int(n_live.sum())
                workload.instance_setup[tids] += processed.sum(axis=1)

                stats.rows_skipped_y += int(
                    ((~intersects).sum(axis=1) * processed).sum()
                )
                stats.rows_skipped_sign += int(
                    (outside_left.sum(axis=1) * processed).sum()
                )
                stats.rows_skipped_empty += int(
                    (skipped_empty.sum(axis=1) * processed).sum()
                )

                n_search = needs_search.sum(axis=1) * processed  # (T, D)
                stats.binary_search_rows += int(n_search.sum())
                steps = n_search * search_latency
                stats.binary_search_steps += int(steps.sum())
                workload.binary_search_steps[tids] += steps.sum(axis=1)
                workload.instance_search[tids] += (n_search > 0).sum(axis=1)

                terminated = nonempty & ~row_active
                stats.rows_terminated += int(
                    (terminated.sum(axis=1) * processed).sum()
                )
                shaded_rows = nonempty & row_active
                seg_len = np.where(shaded_rows, c1 - c0 + 1, 0)
                n_frag = int(seg_len.sum())
                n_seg = int(np.count_nonzero(shaded_rows))
                stats.fragments_shaded += n_frag
                stats.segments += n_seg
                stats.eq7_flops += (
                    n_seg * FLOPS.irss_flops_first_fragment
                    + (n_frag - n_seg) * FLOPS.irss_flops_per_fragment
                )
                workload.row_fragments[tids[:, None], local_rows[None, :]] += (
                    seg_len.sum(axis=2)
                )
                workload.row_segments[tids[:, None], local_rows[None, :]] += (
                    shaded_rows.sum(axis=2)
                )
                workload.instance_max_run[tids] += seg_len.max(axis=1).sum(axis=1)

                stats.fragments_blended += _sparse_blend(
                    tile_rgb, tile_n, pkey, blend_at, t_before, alpha,
                    color[ti, di],
                )
                tile_t = t_out
                # Exact whole-chunk early termination (see the PFS loop).
                if not (tile_t > eps).any():
                    break

            transmittance[yy, xx] = tile_t
            image[yy, xx] = tile_rgb
            n_contrib[yy, xx] = tile_n


def render_irss_vectorized(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    transform: IRSSTransform | None = None,
    fp16: bool = False,
    dtype: type = np.float64,
) -> IRSSRenderResult:
    """Vectorized IRSS rasterizer — pixel-exact vs. ``render_irss``.

    ``dtype`` selects the accumulator precision; the pixel-exact
    guarantee holds for the default ``float64`` only.  ``fp16`` (the
    Row-PE datapath) takes precedence over ``dtype``.  The exact
    datapaths run the fragment-sparse engine; a reduced ``dtype`` runs
    the approx depth-slab bricks.
    """
    if lists is None:
        lists = build_render_lists(projected)
    if transform is None:
        transform = compute_transforms(
            projected.conics, projected.means2d, projected.thresholds
        )
    grid = lists.grid
    width, height = projected.image_size
    if (grid.width, grid.height) != (width, height):
        raise RenderError("tile grid does not match projection resolution")

    acc_dtype = np.float16 if fp16 else dtype
    image = np.zeros((height, width, 3), dtype=acc_dtype)
    transmittance = np.ones((height, width), dtype=acc_dtype)
    n_contrib = np.zeros((height, width), dtype=np.int32)
    stats = IRSSStats(instances=lists.n_instances)

    tile = grid.tile
    workload = TileRowWorkload(
        row_fragments=np.zeros((grid.n_tiles, tile), dtype=np.int64),
        row_segments=np.zeros((grid.n_tiles, tile), dtype=np.int64),
        instance_max_run=np.zeros(grid.n_tiles, dtype=np.int64),
        instance_setup=np.zeros(grid.n_tiles, dtype=np.int64),
        binary_search_steps=np.zeros(grid.n_tiles, dtype=np.int64),
        instance_search=np.zeros(grid.n_tiles, dtype=np.int64),
    )
    state = (image, transmittance, n_contrib, stats, workload)
    if fp16 or dtype is np.float64:
        _SparseIRSS(projected, transform, settings, fp16, *state).render(lists)
    else:
        _render_irss_bricks(projected, lists, transform, settings, dtype, *state)

    background = settings.background_array().astype(acc_dtype)
    image = image.astype(np.float64) + (
        transmittance.astype(np.float64)[:, :, None]
        * background.astype(np.float64)[None, None, :]
    )
    return IRSSRenderResult(
        image=image,
        transmittance=transmittance.astype(np.float64),
        n_contrib=n_contrib,
        stats=stats,
        workload=workload,
    )
