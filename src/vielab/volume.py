"""The acoustic volume integral operator on the uniform grid.

Mathematical formulation
------------------------
The scattering problem is recast as a volume integral equation (the
Lippmann-Schwinger equation)

    u - A u = u_inc   on the scatterer,

    A u(x) = div int G_k(x-y) alpha(y) grad u(y) dy
           + int G_k(x-y) beta(y) u(y) dy,

with contrasts alpha = a - 1, beta = k(.)^2 - k^2. The divergence is
moved onto the kernel via div_x int G w = int grad_x G . w, so one
weakly singular scalar kernel (G) and d gradient-kernel components are
all that is ever sampled.

Discretization
--------------
Midpoint (one point per cell) quadrature on the included cells, with a
singular self-cell correction: the self contribution of the G-kernel is
the exact integral of G over the area/volume-equivalent disc/ball, and
the gradient-kernel self term is zero (its principal value over the
equivalent disc vanishes by symmetry). grad u uses centered second-order
differences inside the mask and one-sided first-order differences at
mask-boundary cells.

Application routes: the kernels, which depend only on the integer
offset between cells, are sampled once on the non-negative orthant of
offset magnitudes (G and the radial factor of grad G depend only on
|offset|), up to half the zero-padded period on every axis. That one
table feeds every application on the grid; it is sampled over chunks of
offsets, so no (Q, d) temporary is formed. The FFT route transforms it
by DCT-I (and DST-I along a gradient's own axis) into half-spectrum
hats, since the padded tables are even or odd about half the period.
The hats are sized for the route that reads them: frequencies 0..pc/2
on every axis but the last and the full period there, except that along
an axis the mirrored route convolves on half the padded length (below)
only 0..pc/2-1 are kept, so with the last axis even they are half as
long. A product runs block by block against the halved hats, and the
padded transforms run in place on two work arrays, one axis at a time
over only the lines that can be nonzero (or on the way back only those
the grid keeps). The dense operators gather their entries from the same
samples by coordinate differences, one row chunk at a time straight into
their output (``gather_kernels``): identical weights by construction,
and no (n, n) kernel matrix is formed. Only the direct-summation reference
``apply_A`` reads whole unweighted matrices (``kernel_matrices``). The system
map ``identity_minus_A`` samples the contrasts at the cell centers once,
not at every application, and is the one route that computes in single
precision: a complex64 field runs its transforms and products in
complex64 against the complex64 hats (GMRES passes one after its first
restart). Every other entry point casts its field to complex128.
Each cache holds one discretization: callers work on one grid at a time.

Mirrored route: when the mask, the contrasts at the cell centers and the
incident field equal their index flip along an axis with an even number
of cells, the solution is even along it. ``mirror_half`` finds these
axes and the kept half (the cells of index >= nc/2 along each) from one
flip of ``flat_index`` per axis. The system map then runs on the kept
half alone: its contrasts are sampled there and its stencils folded onto
it once, and a convolution along an even axis runs on half the padded
length: an even source by DCT-II, the odd gradient source of that axis
by -i DST-II one frequency up, each against views of the same hats, and
back by DCT-III (Martucci's symmetric convolution). Other axes keep the
FFT, and with no even axis every operation is the full route's.

Dense memory budget: each dense builder estimates its peak as live
complex arrays x 16 bytes x rows x cols plus a fixed allowance and,
before allocating, refuses (``DenseBudgetError``) an estimate above
``DENSE_BUDGET_BYTES``. The FFT kernel tables are held to the same
budget: ``fft_kernel_tables`` counts the samples, the route-sized hats
in both precisions and one sampling chunk before it samples anything.
"""

from __future__ import annotations

import functools
import itertools
import logging
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .coefficients import CoefficientField
from .geometry import VolumeGrid
from .special import WaveParameters, greens_gradient, greens_value

logger = logging.getLogger(__name__)

#: Peak bytes one dense build may allocate (keeps every dense route at desk scale).
DENSE_BUDGET_BYTES = 2**31


class DenseBudgetError(ValueError):
    """A dense build whose estimated peak (``need`` bytes) exceeds the budget."""

    def __init__(self, what: str, need: int):
        super().__init__(f"{what} capped by the dense memory budget: needs about "
                         f"{need / 2**20:.1f} MiB, budget {DENSE_BUDGET_BYTES / 2**20:.1f} MiB")
        self.need = need


def check_dense_budget(what: str, live: float, rows: int, cols: int) -> None:
    """Refuse a build that holds ``live`` complex (rows, cols) arrays at its
    peak (plus 80 KiB) when that exceeds ``DENSE_BUDGET_BYTES``; call first."""
    # 80 KiB for what does not scale with the arrays (ufunc buffers): small builds
    # measured 11/21/35 KB over for K at M = 32/48/64, 67 KB for N = M = 32 coupled
    need = int(live * 16 * rows * cols) + 80 * 2**10
    if need > DENSE_BUDGET_BYTES:
        raise DenseBudgetError(what, need)


def gathered_live(grid: VolumeGrid, arrays: float, chunks: float) -> float:
    """Live (n, n) arrays of a build holding ``arrays`` of them and ``chunks``
    temporaries of one row chunk of a gather (``chunk_rows``), plus 20 * 2^d
    complex entries per unknown for the offset tables (2^d each), stencils
    and ufunc buffers (measured at most 55 in 2D and 130 in 3D, N = 56-2440)."""
    return arrays + (chunks * chunk_rows(grid.n) + 20 * 2**grid.dimension) / grid.n


def _check_field(grid: VolumeGrid, u: np.ndarray, keep_single: bool = False,
                 size: Optional[int] = None) -> np.ndarray:
    """The field (of ``size`` entries, by default one per cell) as complex128,
    or as complex64 if it is one and ``keep_single``."""
    u = np.asarray(u)
    size = grid.n if size is None else size
    if u.shape != (size,):
        raise ValueError(f"field must have length {size}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("field contains non-finite values")
    single = keep_single and u.dtype == np.complex64
    return u.astype(np.complex64 if single else np.complex128, copy=False)


# ---------------------------------------------------------------------------
# Singular self-cell correction
# ---------------------------------------------------------------------------
def self_cell_weight(params: WaveParameters, h: float) -> complex:
    """Exact integral of G_k over the disc/ball of the same area/volume.

    Replaces the (singular) midpoint contribution of the cell containing
    the target; the gradient-kernel self term is zero by symmetry.
    """
    k = params.k
    if params.dimension == 2:
        radius = h / np.sqrt(np.pi)
        if k == 0:
            return complex(radius * radius * (1.0 - 2.0 * np.log(radius)) / 4.0)
        from scipy.special import hankel1 as _h1
        return complex(0.5j * np.pi * radius / k * _h1(1, k * radius) - 1.0 / k ** 2)
    radius = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    if k == 0:
        return complex(radius * radius / 2.0)
    return complex(np.exp(1j * k * radius) * (1.0 / k ** 2 - 1j * radius / k) - 1.0 / k ** 2)


# ---------------------------------------------------------------------------
# Discrete building blocks
# ---------------------------------------------------------------------------
def gradient_ops(grid: VolumeGrid) -> tuple:
    """Per-axis finite-difference CSR matrices on the included cells.

    Centered second-order stencils where both axis neighbors are
    included, one-sided first-order at mask-boundary cells, zero where
    the cell has no neighbor along the axis.
    """
    import scipy.sparse as sparse
    d = grid.dimension
    h = grid.h
    n = grid.n
    ops = []
    for c in range(d):
        ip = _neighbor_index(grid, c, +1)
        im = _neighbor_index(grid, c, -1)
        rows, cols, vals = [], [], []
        idx = np.arange(n)
        both = (ip >= 0) & (im >= 0)
        rows += [idx[both], idx[both]]
        cols += [ip[both], im[both]]
        vals += [np.full(both.sum(), 0.5 / h), np.full(both.sum(), -0.5 / h)]
        onlyp = (ip >= 0) & (im < 0)
        rows += [idx[onlyp], idx[onlyp]]
        cols += [ip[onlyp], idx[onlyp]]
        vals += [np.full(onlyp.sum(), 1.0 / h), np.full(onlyp.sum(), -1.0 / h)]
        onlym = (ip < 0) & (im >= 0)
        rows += [idx[onlym], idx[onlym]]
        cols += [idx[onlym], im[onlym]]
        vals += [np.full(onlym.sum(), 1.0 / h), np.full(onlym.sum(), -1.0 / h)]
        op = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        ops.append(op)
    return tuple(ops)


def _neighbor_index(grid: VolumeGrid, axis: int, step: int) -> np.ndarray:
    """Unknown index of each cell's neighbor along an axis, or -1."""
    nb = grid.coords.copy()
    nb[:, axis] += step
    valid = (nb[:, axis] >= 0) & (nb[:, axis] < grid.shape[axis])
    nb[:, axis] = np.clip(nb[:, axis], 0, grid.shape[axis] - 1)
    idx = grid.flat_index[tuple(nb.T)]
    return np.where(valid, idx, -1)


def _padded_shape(grid: VolumeGrid) -> tuple:
    """The zero-padded FFT shape: the smallest even FFT-friendly length
    >= 2 nc per axis."""
    import scipy.fft as sfft
    return tuple(2 * sfft.next_fast_len(nc) for nc in grid.shape)


#: Offsets per chunk of kernel sampling: its temporaries stay a few MiB.
_SAMPLE_POINTS = 2**14


def _kernel_tables(grid: VolumeGrid, params: WaveParameters):
    """``(pshape, G, (grad G_1, ..., grad G_d))``: the zero-padded FFT shape
    (``_padded_shape``) and the kernels times the cell volume sampled once
    per offset magnitude, at offsets 0..pc/2 along every axis (the
    non-negative orthant), with the self-cell weight and zero gradient at
    the origin.

    The padded tables are even (G) or odd (grad G_c, along axis c) about
    pc/2, so their transforms are DCT-I/DST-I of these samples. G and the
    radial factor of grad G depend only on |offset|; the samples equal a
    sampling of the full padded grid bit for bit. They are taken over
    chunks of ``_SAMPLE_POINTS`` offsets, each kernel written into its own
    row of one (d + 1, Q) array, so no (Q, d) temporary is formed.
    """
    pshape = _padded_shape(grid)
    qshape = tuple(pc // 2 + 1 for pc in pshape)
    axes = [np.arange(qc) * grid.h for qc in qshape]
    size, w = int(np.prod(qshape)), grid.cell_volume
    tables = np.empty((grid.dimension + 1, size), dtype=np.complex128)
    for i0 in range(0, size, _SAMPLE_POINTS):
        span = slice(i0, min(i0 + _SAMPLE_POINTS, size))
        index = np.unravel_index(np.arange(span.start, span.stop), qshape)
        pts = np.stack([ax[i] for ax, i in zip(axes, index)], axis=1)  # offsets >= 0
        r = np.linalg.norm(pts, axis=1)
        origin = r == 0.0
        np.multiply(w, greens_value(params, np.where(origin, grid.h, r)), out=tables[0, span])
        gvec = greens_gradient(params, np.where(origin[:, None], grid.h, pts))
        np.multiply(w, gvec.T, out=tables[1:, span])
    tables[0, 0] = self_cell_weight(params, grid.h)  # offset 0 is the first sample
    tables[1:, 0] = 0.0
    return pshape, tables[0].reshape(qshape), tuple(t.reshape(qshape) for t in tables[1:])


#: Entries per row chunk of a dense gather: its temporaries stay a few MiB.
_GATHER_ENTRIES = 2**16


def chunk_rows(n: int) -> int:
    """Rows per chunk of a dense gather over n columns (at least 1, at most n)."""
    return min(n, max(1, _GATHER_ENTRIES // n))


def _kernel_rows(grid: VolumeGrid, params: WaveParameters, kernels):
    """Yield ``(rows, blocks)`` over chunks of ``chunk_rows`` rows: for each
    kernel c in ``kernels`` (0 for G, c for grad G_c) its block at
    coords_i - coords_j, i in ``rows``, every j. The blocks are gathered from
    the orthant samples the FFT route transforms, at |offset| per axis on the
    unwrapped offsets 1-nc..nc-1, gradient component c negated (as 0 - x,
    which also keeps the signed zeros) where offset c is negative: entries
    carry the cell volume, and i = j the self-cell correction (G) or zero.
    The blocks are one buffer, overwritten by the next chunk."""
    _, g_q, grad_q = _kernel_tables(grid, params)
    gather = np.ix_(*[np.abs(np.arange(1 - nc, nc)) for nc in grid.shape])
    tables = [g_q[gather].ravel()]
    for c, q in enumerate(grad_q):
        tab = q[gather]
        negative = tab[(slice(None),) * c + (slice(0, grid.shape[c] - 1),)]
        np.subtract(0.0, negative, out=negative)
        tables.append(tab.ravel())
    # the flat offset index of coords_i - coords_j is pos_i - pos_j + (zero offset's)
    spans = tuple(2 * nc - 1 for nc in grid.shape)
    pos = np.ravel_multi_index(tuple(grid.coords.T), spans)
    chunk = chunk_rows(grid.n)
    index = np.empty((chunk, grid.n), dtype=pos.dtype)
    blocks = np.empty((len(kernels), chunk, grid.n), dtype=np.complex128)
    for i0 in range(0, grid.n, chunk):
        rows, size = slice(i0, min(i0 + chunk, grid.n)), min(chunk, grid.n - i0)
        np.subtract(pos[rows, None] + tables[0].size // 2, pos[None, :], out=index[:size])
        for block, c in zip(blocks, kernels):
            np.take(tables[c], index[:size], out=block[:size], mode="clip")
        yield rows, blocks[:, :size]


def gather_kernels(grid: VolumeGrid, params: WaveParameters, weights,
                   out: np.ndarray) -> np.ndarray:
    """Write sum_c K_c(x_i - x_j) w_c[j] into the (n, n) complex ``out`` (a
    view is fine) and return it, K_c being G, then the d gradient components,
    and ``weights`` their w_c (None, or fewer entries, for none). Kernels whose
    weight is identically zero are skipped; if all are, ``out`` is zeroed."""
    kernels = [c for c, w in enumerate(weights) if w is not None and np.any(w != 0)]
    if not kernels:
        out.fill(0)
        return out
    # weights cast once: a real weight would be cast in ufunc buffers per chunk
    scales = [np.asarray(weights[c], dtype=np.complex128) for c in kernels]
    for rows, blocks in _kernel_rows(grid, params, kernels):
        target = out[rows]
        np.multiply(blocks[0], scales[0], out=target)
        for block, scale in zip(blocks[1:], scales[1:]):
            block *= scale
            target += block
    return out


@functools.lru_cache(maxsize=1)
def kernel_matrices(grid: VolumeGrid, params: WaveParameters):
    """Pairwise quadrature matrices (G-kernel, then d gradient kernels): the
    blocks ``gather_kernels`` weights, read-only and shared by every caller.
    They are the direct-summation reference of ``apply_A`` only."""
    n, d = grid.n, grid.dimension
    check_dense_budget("dense kernel matrices", gathered_live(grid, d + 1, d + 1.5), n, n)
    mats = np.empty((d + 1, n, n), dtype=np.complex128)
    for rows, blocks in _kernel_rows(grid, params, range(d + 1)):
        mats[:, rows] = blocks
    mats.setflags(write=False)
    return mats[0], tuple(mats[1:])


@functools.lru_cache(maxsize=1)
def fft_kernel_tables(grid: VolumeGrid, params: WaveParameters, even=()):
    """``(pshape, double, single)``: the half-spectrum kernel hats (G, then
    the d gradient components) in complex128 and in complex64, read-only,
    sized for a route that convolves along the axes ``even`` on half the
    padded length (``_apply_kernels``).

    Each hat is the DFT of the kernel's padded table, mirrored from the
    orthant samples: G even about pc/2 on every axis, grad G_c odd along
    axis c (zero at 0 and pc/2; the offset pc/2 >= nc is never read by a
    convolution of nc cells). So G's hat is a DCT-I of the samples on every
    axis and grad G_c's is -i DST-I along c. Along an axis in ``even`` only
    frequencies 0..pc/2-1 are kept, the ones that route reads; along any
    other axis but the last, frequencies 0..pc/2; along the last, if it is
    not in ``even``, the hat is gathered back to full length (negated past
    pc/2 for the last gradient component): the DFT at frequency pc - f is
    the one at f, negated along a gradient's own axis.

    Refuses (``DenseBudgetError``), before sampling anything, a build whose
    estimated peak exceeds ``DENSE_BUDGET_BYTES``: the samples beside the
    hats in both precisions, or beside one sampling chunk's temporaries.
    """
    import scipy.fft as sfft
    d, pshape = grid.dimension, _padded_shape(grid)
    sizes = [pc // 2 if ax in even else pc if ax == d - 1 else pc // 2 + 1
             for ax, pc in enumerate(pshape)]
    samples, entries = int(np.prod([pc // 2 + 1 for pc in pshape])), int(np.prod(sizes))
    # the samples beside the largest of: one sampling chunk's temporaries
    # (measured up to 4 (d + 1) entries an offset), the hats in both
    # precisions, or d double hats and three transform temporaries
    check_dense_budget("FFT kernel tables", (d + 1) * samples + max(
        4.5 * (d + 1) * min(samples, _SAMPLE_POINTS), 1.5 * (d + 1) * entries,
        d * entries + 3 * samples), 1, 1)
    _, g_q, grad_q = _kernel_tables(grid, params)
    half = pshape[-1] // 2
    kept = tuple(slice(0, size) for size in sizes[:-1])
    last = slice(0, half) if d - 1 in even else np.r_[0:half + 1, half - 1:0:-1]

    def route(hat):  # a gather copies; a prefix is copied out of the transform
        cut = hat[(*kept, last)]
        return cut.copy() if d - 1 in even else cut
    hats = [route(sfft.dctn(g_q, type=1))]
    for c, q in enumerate(grad_q):
        inner = (slice(None),) * c + (slice(1, -1),)
        hat = np.zeros(q.shape, dtype=np.complex128)
        if q.shape[c] > 2:  # an axis of one cell has no offset inside (0, pc/2)
            others = [ax for ax in range(d) if ax != c]
            hat[inner] = -1j * sfft.dst(sfft.dctn(q[inner], type=1, axes=others),
                                        type=1, axis=c)
        hat = route(hat)
        if c == d - 1 and d - 1 not in even:
            np.negative(hat[..., half + 1:], out=hat[..., half + 1:])
        hats.append(hat)
    double = tuple(hats)
    single = tuple(hat.astype(np.complex64) for hat in double)
    for hat in double + single:
        hat.setflags(write=False)
    return pshape, double, single


# ---------------------------------------------------------------------------
# Kernel application (shared by the Newton potential and the operator)
# ---------------------------------------------------------------------------
def _half_blocks(pshape, even=(), own=-1):
    """The blocks of a padded spectrum that each read one contiguous view of a
    half-spectrum hat, for the kernel whose gradient axis is ``own`` (-1 for
    G): per block, the index read in the product's spectrum, the hat's index,
    the index in the accumulated spectrum and whether the block is negated
    there. Along an axis not in ``even`` but the last, frequencies
    pc/2+1..pc-1 read the hat at pc/2-1..1, reversed, negated along ``own``.
    Along an axis in ``even`` the spectrum holds frequencies 0..pc/2-1 and
    reads them from the hat, except along ``own``, whose DST-II index f holds
    frequency f + 1 (the hat vanishes at 0 and pc/2)."""
    d = len(pshape)
    choices = []
    for ax, pc in enumerate(pshape):
        half = pc // 2
        if ax in even:
            choices.append([((slice(0, half - 1), slice(1, half), slice(1, half)), False)]
                           if ax == own else
                           [((slice(None), slice(0, half), slice(None)), False)])
        elif ax < d - 1:
            choices.append([((slice(0, half + 1), slice(None), slice(0, half + 1)), False),
                            ((slice(half + 1, pc), slice(half - 1, 0, -1), slice(half + 1, pc)),
                             ax == own)])
        else:
            choices.append([((slice(None), slice(None), slice(None)), False)])
    for block in itertools.product(*choices):
        index, hat_index, out_index = zip(*(slices for slices, _ in block))
        yield index, hat_index, out_index, any(negated for _, negated in block)


def _padded_transform(spec: np.ndarray, mask: np.ndarray, src: np.ndarray,
                      even=(), odd: int = -1) -> None:
    """Transform the source ``src`` on the cells of ``mask`` zero-padded to
    ``spec.shape``, in place in ``spec``, one axis at a time over only the
    lines that can be nonzero; each pass first zeroes the padding it reads.
    An axis in ``even`` is transformed by DCT-II (by DST-II if it is the
    ``odd`` one), any other by FFT. (scipy's transforms of a complex array
    with ``overwrite_x`` write into that array, views too.)"""
    import scipy.fft as sfft
    shape = mask.shape
    for ax in range(mask.ndim):
        view = spec[(slice(None),) * (ax + 1) + tuple(slice(0, nc) for nc in shape[ax + 1:])]
        if ax == 0:
            view.fill(0)
            view[: shape[0]][mask] = src
        else:
            view[(slice(None),) * ax + (slice(shape[ax], None),)] = 0
        if ax not in even:
            sfft.fft(view, axis=ax, overwrite_x=True)
        else:
            (sfft.dst if ax == odd else sfft.dct)(view, type=2, axis=ax, overwrite_x=True)


def _apply_kernels(grid, params, sources, dtype=np.complex128, even=()):
    """Kernels (G, then the d gradient components) applied by FFT to the matching
    ``sources`` (the G source or None, then none or all d gradient sources),
    computed and returned in ``dtype`` (complex128 or complex64) against the
    hat set of that precision.

    With ``even`` axes the sources are given, and the result returned, on the
    cells of index >= nc/2 along each of them (the kept half): every source
    is even along such an axis but the gradient source of that axis, which
    is odd. There the padded length is pc/2: an even source is transformed
    by DCT-II and the odd one by -i DST-II, one frequency up, against the
    hats' frequencies 0..pc/2-1 (1..pc/2-1 for the odd kernel), and the
    inverse is DCT-III (``idct`` of type 2). This is the convolution of the
    mirrored sources restricted to the kept half (Martucci's symmetric
    convolution)."""
    import scipy.fft as sfft
    mask = grid.mask[tuple(slice(nc // 2 if ax in even else 0, None)
                           for ax, nc in enumerate(grid.shape))]
    if all(src is None for src in sources):
        return np.zeros(np.count_nonzero(mask), dtype=dtype)
    pshape, double, single = fft_kernel_tables(grid, params, even)
    hats = single if dtype == np.complex64 else double
    d = grid.dimension
    wshape = tuple(pc // 2 if ax in even else pc for ax, pc in enumerate(pshape))
    acc, work = np.empty(wshape, dtype=dtype), np.empty(wshape, dtype=dtype)
    spec = acc
    # the first product is formed in acc itself: G or, without it, the last
    # gradient component, which no block negates; shifted, it is added to zeros
    for j in (0, d, *range(1, d)):
        if j >= len(sources) or sources[j] is None:
            continue
        src = sources[j]
        if j - 1 in even:
            src = -1j * src
            if spec is acc:
                acc.fill(0)
                spec = work
        _padded_transform(spec, mask, src, even, j - 1)
        for index, hat_index, out_index, negated in _half_blocks(pshape, even, j - 1):
            block = spec[index]
            block *= hats[j][hat_index]
            if spec is acc:
                continue
            if negated:  # past pc/2 along a gradient's own axis
                acc[out_index] -= block
            else:
                acc[out_index] += block
        spec = work
    # inverse in place, keeping after each pass only the cells' extent along that axis
    for ax in reversed(range(d)):
        if ax in even:
            sfft.idct(acc, type=2, axis=ax, overwrite_x=True)
        else:
            sfft.ifft(acc, axis=ax, overwrite_x=True)
        acc = acc[(slice(None),) * ax + (slice(0, mask.shape[ax]),)]
    return acc[mask]


def _sum_at_targets(grid: VolumeGrid, params: WaveParameters, targets: np.ndarray,
                    out: np.ndarray, sources) -> np.ndarray:
    """Add the kernel sums of ``sources`` (the G source or None, then none
    or all d gradient sources) at targets off the cell centers to ``out``."""
    w, d = grid.cell_volume, grid.dimension
    chunk = max(1, int(2**23 // max(grid.n, 1)))
    for t0 in range(0, len(targets), chunk):
        t1 = min(len(targets), t0 + chunk)
        diff = targets[t0:t1, None, :] - grid.centers[None, :, :]
        r = np.linalg.norm(diff, axis=-1)
        if sources[0] is not None:
            out[t0:t1] += (w * greens_value(params, r)) @ sources[0]
        if len(sources) > 1:
            gvec = greens_gradient(params, diff.reshape(-1, d)).reshape(t1 - t0, grid.n, d)
            for c, src in enumerate(sources[1:]):
                out[t0:t1] += (w * gvec[..., c]) @ src
    return out


def _contrast_sources(grid: VolumeGrid, coeffs: CoefficientField,
                      half: Optional[MirrorHalf] = None) -> Callable:
    """``u -> (beta u, alpha d_1 u, ..., alpha d_d u)``, the sources of A u
    for a checked field u, with alpha and beta sampled at the cell centers
    once; beta u is None and the gradient terms are left out where that
    contrast vanishes. With ``half``, u and the sources are on its kept
    cells, and each stencil keeps their rows, its columns mapped by
    ``unfold`` in stored order: bit for bit the full stencil on u[unfold]."""
    import scipy.sparse as sparse
    alpha, beta = coeffs.alpha(grid.centers), coeffs.beta(grid.centers)
    ops = gradient_ops(grid) if np.any(alpha != 0) else ()
    if half is not None:
        alpha, beta, m = alpha[half.kept], beta[half.kept], len(half.kept)
        ops = [sparse.csr_matrix((rows.data, half.unfold[rows.indices], rows.indptr), (m, m))
               for rows in (op[half.kept] for op in ops)]
    beta = beta if np.any(beta != 0) else None
    return lambda u: (None if beta is None else beta * u, *(alpha * (op @ u) for op in ops))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------
def newton_potential(grid: VolumeGrid, params: WaveParameters, v: np.ndarray) -> np.ndarray:
    """Volume potential (G_k * v) of a grid density at the grid's own cell
    centers (self-cells corrected), by FFT."""
    return _apply_kernels(grid, params, (_check_field(grid, v),))


def apply_A(grid: VolumeGrid, params: WaveParameters, coeffs: CoefficientField,
            u: np.ndarray) -> np.ndarray:
    """Direct-summation application of the volume operator A by the dense
    kernel matrices: the reference for the FFT route."""
    gm, grads = kernel_matrices(grid, params)
    out = np.zeros(grid.n, dtype=np.complex128)
    for kern, src in zip((gm, *grads), _contrast_sources(grid, coeffs)(_check_field(grid, u))):
        if src is not None:
            out += kern @ src
    return out


def apply_A_fft(grid: VolumeGrid, params: WaveParameters, coeffs: CoefficientField,
                u: np.ndarray) -> np.ndarray:
    """FFT-accelerated application of A; identical quadrature to apply_A."""
    return _apply_kernels(grid, params, _contrast_sources(grid, coeffs)(_check_field(grid, u)))


def a1_weights(grid: VolumeGrid, params: WaveParameters,
               coeffs: CoefficientField) -> List[np.ndarray]:
    """Cell-center weights of the compact part of the split operator,
    A1 u = int G (k^2 alpha - beta) u + sum_c int d_c G (d_c alpha) u:
    ``[k^2 alpha - beta, d_1 alpha, ..., d_d alpha]``, one per kernel."""
    centers = grid.centers
    galpha = coeffs.grad_alpha(centers)
    k2 = params.k ** 2
    return [k2 * coeffs.alpha(centers) - coeffs.beta(centers),
            *(galpha[:, c] for c in range(grid.dimension))]


def apply_A_smooth_form(grid: VolumeGrid, params: WaveParameters,
                        coeffs: CoefficientField, u: np.ndarray) -> np.ndarray:
    """Apply A in the integrated-by-parts form valid when alpha = 0 on Gamma.

    For coefficients smooth across the boundary,

        A u = -alpha u + int G_k (beta - k^2 alpha) u
                        - div int G_k (grad alpha) u  = -alpha u - A1 u,

    which involves only weakly singular kernels acting on scalar
    densities (no derivative of the unknown). Rejects coefficient tags
    with a boundary jump, whose split form carries a double layer term
    this route omits by construction.
    """
    if coeffs.tag not in ("globally-smooth", "laplace-case"):
        raise ValueError(
            f"smooth-form operator requires alpha = 0 on Gamma; got tag {coeffs.tag!r}")
    u = _check_field(grid, u)
    sources = [w * u for w in a1_weights(grid, params, coeffs)]
    return -coeffs.alpha(grid.centers) * u - _apply_kernels(grid, params, sources)


def assemble_A_dense(grid: VolumeGrid, params: WaveParameters,
                     coeffs: CoefficientField) -> np.ndarray:
    """Assemble the dense matrix of A with the apply_A quadrature.

    Column j is A e_j by construction, so matrix-vector products
    reproduce ``apply_A(u)`` to rounding; the system matrix is I minus it.
    G diag(beta) is gathered into the matrix; where alpha is not identically
    zero, each row chunk of grad G_c then adds its product with the sparse
    diag(alpha) D_c. No (n, n) kernel matrix is formed.
    """
    n = grid.n
    # A, then per row chunk the int64 index, the d gathered gradient blocks, the
    # C-ordered copy scipy's product takes of one's transpose and the product
    check_dense_budget("dense assembly", gathered_live(grid, 1, grid.dimension + 2.5), n, n)
    alpha = coeffs.alpha(grid.centers)
    a_mat = gather_kernels(grid, params, [coeffs.beta(grid.centers)],
                           np.empty((n, n), dtype=np.complex128))
    if np.any(alpha != 0):
        scaled = [dop.multiply(alpha[:, None]).tocsc() for dop in gradient_ops(grid)]
        for rows, blocks in _kernel_rows(grid, params, range(1, grid.dimension + 1)):
            target = a_mat[rows]
            for block, op in zip(blocks, scaled):  # op = diag(alpha) D_c
                target += block @ op
    return a_mat


class MirrorHalf(NamedTuple):
    """The kept half of a grid along its ``even`` axes: ``kept`` indexes the
    unknowns of index >= nc/2 along each of those axes, in order, and
    ``unfold`` gives for every unknown the position in ``kept`` of its
    mirror image there, so that ``v[unfold]`` is the even field whose kept
    half is ``v``. With no even axis both are ``arange(n)``."""
    even: tuple
    kept: np.ndarray
    unfold: np.ndarray


def mirror_half(grid: VolumeGrid, coeffs: CoefficientField, u_inc: np.ndarray) -> MirrorHalf:
    """The ``MirrorHalf`` of (I - A) u = u_inc along every axis on which the
    system is even: one with an even cell count (no cell on the mirror
    plane) where ``np.flip(grid.flat_index, ax)[grid.mask]``, the cell each
    cell is mirrored onto, is never -1 and has exactly the same alpha and
    beta (at the centers) and ``u_inc``. The solution is even along them."""
    values = (coeffs.alpha(grid.centers), coeffs.beta(grid.centers), u_inc)
    even, image = [], np.arange(grid.n)
    for ax, nc in enumerate(grid.shape):
        mirror = np.flip(grid.flat_index, ax)[grid.mask]
        if nc % 2 == 0 and mirror.min() >= 0 and all(np.array_equal(v[mirror], v) for v in values):
            even.append(ax)
            image = np.where(grid.coords[image, ax] < nc // 2, mirror[image], image)
    kept = np.flatnonzero(image == np.arange(grid.n))
    return MirrorHalf(tuple(even), kept, np.searchsorted(kept, image))


def identity_minus_A(grid: VolumeGrid, params: WaveParameters,
                     coeffs: CoefficientField, half: Optional[MirrorHalf] = None) -> Callable:
    """Matrix-free applier u -> u - A u (the volume-integral system map).

    The contrasts are sampled at the cell centers once, when the applier
    is built; each application checks its field and convolves by FFT. A
    complex64 field is applied in single precision (padded transforms,
    products against the complex64 hats and result in complex64); any
    other field is applied in complex128.

    The applier acts on the kept cells of ``half`` (``mirror_half``; by
    default every cell), with the contrasts sampled and the stencils folded
    there once, and convolves along ``half.even`` by DCT-II/DST-II on half
    the padded length each. Each kept cell stands for 2^r cells (r even
    axes), so relative residuals, and GMRES's iterates, are the full system's.
    """
    sources = _contrast_sources(grid, coeffs, half)
    even, size = ((), grid.n) if half is None else (half.even, len(half.kept))

    def applier(u):
        u = _check_field(grid, u, keep_single=True, size=size)
        return u - _apply_kernels(grid, params, sources(u), u.dtype, even)
    return applier


def discrete_laplacian(grid: VolumeGrid, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Five/seven-point discrete Laplacian and its full-stencil mask.

    Returns ``(lap, interior)`` where ``lap`` holds the stencil value at
    cells whose 2d axis neighbors are all included (zero elsewhere) and
    ``interior`` flags those cells.
    """
    u = _check_field(grid, u)
    h2 = grid.h * grid.h
    lap = np.zeros(grid.n, dtype=np.complex128)
    interior = np.ones(grid.n, dtype=bool)
    for c in range(grid.dimension):
        ip = _neighbor_index(grid, c, +1)
        im = _neighbor_index(grid, c, -1)
        ok = (ip >= 0) & (im >= 0)
        interior &= ok
        lap[ok] += (u[ip[ok]] - 2.0 * u[ok] + u[im[ok]]) / h2
    lap[~interior] = 0.0
    return lap, interior
