"""Seeded Monte Carlo propagation of the input model through the brake model.

Everything here is a pure function of (seed, nu, configuration).  The
uniform draws come from a counter-based generator (Philox) so row i of the
sample matrix never depends on how many rows were drawn before it.  The
same transform (:func:`sample_inputs`) feeds ``uq`` and the robust
optimizer, so both see one ensemble.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import maxent, mechmodel
from .errors import InsufficientSamples, ValidationError, check_real

_BLOCK = 4096  # samples per kernel call in propagate
_KDE_BINS = 2048  # lattice points of the binned KDE
_KDE_GRID = 256  # points of the returned density curve
_KDE_ROWS = 16  # density points summed per (rows, _KDE_BINS) matrix
# the largest nu whose (nu, 2) float64 uniform matrix numpy will try to
# allocate; above it numpy raises ValueError (2**59 - 1 on 64-bit platforms)
_NU_MAX = np.iinfo(np.intp).max // 16


def draw_uniform_matrix(seed: int, nu: int) -> np.ndarray:
    """Draw the reproducible uniform matrix for a run: a read-only (nu, 2)
    float array of uniforms in [0, 1), fully determined by (seed, nu).

    Row i holds stream positions 2i and 2i+1 of the Philox stream keyed by
    ``seed``; see :func:`uniform_row` for the per-index derivation.
    """
    check_real(f"sample count nu must be an integer in [1, {_NU_MAX}]", nu, 1, _NU_MAX,
               integer=True)
    check_real("seed must be a 64-bit unsigned integer", seed, 0, 2**64 - 1, integer=True)
    values = np.random.Generator(np.random.Philox(key=seed)).random((nu, 2))
    values.setflags(write=False)
    return values


def uniform_row(seed: int, i: int) -> np.ndarray:
    """Row i of the uniform matrix derived directly from the block counter.

    Philox emits 4 uint64 words per counter block, i.e. two rows per block:
    row i is the pair (i & 1) of block (i >> 1).  Equal to
    ``draw_uniform_matrix(seed, nu)[i]`` for any nu > i.
    """
    bitgen = np.random.Philox(key=seed, counter=[i >> 1, 0, 0, 0])
    block = np.random.Generator(bitgen).random(4)
    off = 2 * (i & 1)
    return block[off:off + 2]


@dataclass(frozen=True)
class Ensemble:
    """Propagated samples as read-only arrays, one entry per sample: the cam
    angle ``alpha_deg`` (deg), spring force ``fs_kN`` and braking force
    ``outputs`` (kN).

    ``valid[i]`` is False where N1 < 0 or N2 < 0 (a contact does not press)
    or where the sample could not be evaluated at all (fh = nan there).
    """

    alpha_deg: np.ndarray
    fs_kN: np.ndarray
    outputs: np.ndarray
    valid: np.ndarray

    @property
    def nu(self) -> int:
        return self.outputs.shape[0]

    @property
    def invalid_count(self) -> int:
        return int(np.count_nonzero(~self.valid))


def _inverse_cdf_column(dist: maxent.TruncatedExponential, column: np.ndarray,
                        frozen: float | None) -> np.ndarray:
    """``dist``'s inverse CDF of each uniform of ``column``, or ``frozen``
    everywhere.  Per element on Python floats, which a ``memoryview`` of the
    column yields one at a time (scalar math on numpy scalars is slower), so
    no list of the column is built."""
    if frozen is not None:
        return np.full(len(column), float(frozen))
    values = memoryview(np.asarray(column, dtype=float))
    return np.fromiter(map(maxent.sample_inverse_cdf, itertools.repeat(dist), values),
                       float, len(values))


def sample_inputs(
    input_model: maxent.InputModel,
    uniforms: np.ndarray,
    *,
    freeze_alpha_deg: float | None = None,
    freeze_fs_kn: float | None = None,
):
    """Map every row of the (nu, 2) uniform matrix through the inverse CDFs.

    Returns ``(alpha_deg, fs, sin_a, cos_a)``, one entry per row: the cam
    angle (deg), the spring force (kN) and the sine and cosine of the angle.
    ``freeze_alpha_deg`` / ``freeze_fs_kn`` replace one input by a constant
    (the other keeps consuming its own uniform column, so its samples are
    unchanged against the unfrozen run).  A frozen value must lie in the
    domain of :class:`mechmodel.LoadCase`: alpha in [0, 90) deg, Fs >= 0 kN.
    """
    if freeze_alpha_deg is not None:
        check_real("frozen cam angle must lie in [0, 90) deg", freeze_alpha_deg, 0.0, 90.0,
                   closed="[)")
    if freeze_fs_kn is not None:
        check_real("frozen spring force must be finite and >= 0 kN", freeze_fs_kn, 0.0)
    alpha_deg = _inverse_cdf_column(input_model.alpha_dist, uniforms[:, 0], freeze_alpha_deg)
    fs = _inverse_cdf_column(input_model.fs_dist, uniforms[:, 1], freeze_fs_kn)

    # the bits of math.radians, which is this one multiply
    sin_a, cos_a = mechmodel.trig_arrays(alpha_deg * (math.pi / 180.0))
    return alpha_deg, fs, sin_a, cos_a


def propagate(
    input_model: maxent.InputModel,
    uniforms: np.ndarray,
    geom: mechmodel.BrakeGeometry,
    fric: mechmodel.FrictionSet,
    Fg: float,
    Fb: float,
    *,
    freeze_alpha_deg: float | None = None,
    freeze_fs_kn: float | None = None,
) -> Ensemble:
    """Push every uniform row through the inverse CDFs and the brake model.

    The freeze arguments are those of :func:`sample_inputs`.  Per-sample
    evaluation failures are flagged, not fatal.
    """
    alpha_deg, fs, sin_a, cos_a = sample_inputs(
        input_model, uniforms, freeze_alpha_deg=freeze_alpha_deg, freeze_fs_kn=freeze_fs_kn)

    # the kernel runs on slices of _BLOCK samples, filled into arrays
    # allocated before it, so its temporaries stay a few slices long; it is
    # elementwise, so no sample's bits depend on its slice
    fh = np.empty(len(uniforms))
    valid = np.empty(len(uniforms), dtype=bool)
    for i in range(0, len(uniforms), _BLOCK):
        part = slice(i, i + _BLOCK)
        column = mechmodel.column_terms(
            geom, fric, mechmodel.cam_axial(fric, sin_a[part], cos_a[part]), geom.c)
        spring = mechmodel.spring_terms(geom, fric, Fg, Fb, fs[part], geom.a)
        fh[part], valid[part], _ = mechmodel.braking_force_ensemble(geom, fric, column, spring)

    for arr in (alpha_deg, fs, fh, valid):
        arr.setflags(write=False)
    return Ensemble(alpha_deg=alpha_deg, fs_kN=fs, outputs=fh, valid=valid)


@dataclass(frozen=True)
class SummaryStats:
    """Nonparametric summary of a scalar sample (units follow the input)."""

    mean: float
    std: float
    min: float
    max: float
    ci95: tuple[float, float]
    ci95_normal: tuple[float, float]
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    kde_grid: np.ndarray | None
    kde_density: np.ndarray | None


def sturges_bins(n: int) -> int:
    return int(math.ceil(math.log2(n))) + 1


def _flat_finite(samples, min_size: int) -> np.ndarray:
    """``samples`` as a flat array of at least ``min_size`` finite floats."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < min_size:
        raise InsufficientSamples(
            f"need at least {min_size} sample{'s' * (min_size > 1)} in a flat array, "
            f"got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite", int(np.count_nonzero(~np.isfinite(x))))
    return x


def sample_stats(x: np.ndarray) -> tuple[float, float, float, float]:
    """``(min, max, mean, std)`` of the flat sample ``x``: the one statistics
    pass of ``uq`` and the robust objective.  The bits are those of
    ``np.min``, ``np.max``, ``np.mean`` and ``np.std(ddof=1)`` (numpy's own
    two-pass algorithm, with the sum taken once), except that a constant
    sample (min == max) has mean exactly min and std exactly 0.0, so
    ``std == 0.0`` is the one test for zero spread and the mean never
    rounds off the constant.  The extremes propagate nan and an infinity lands
    in one of them, so they are finite exactly when every sample is; mean
    and std are nan otherwise."""
    lo, hi = float(np.minimum.reduce(x)), float(np.maximum.reduce(x))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return lo, hi, math.nan, math.nan
    if lo == hi:
        return lo, hi, lo, 0.0
    n = x.shape[0]
    mean = np.add.reduce(x) / n
    dev = x - mean
    dev *= dev
    return lo, hi, float(mean), float(np.sqrt(np.add.reduce(dev) / (n - 1)))


def summarize(samples) -> SummaryStats:
    """Mean, unbiased std, range, empirical 95% band, histogram and KDE.

    The 95% interval is the empirical 2.5%/97.5% quantile pair (linear
    interpolation); a mean +/- 1.96 std companion is reported alongside it.
    The moments are :func:`sample_stats`'s, and the KDE fields are None
    for zero-spread samples.
    """
    x = _flat_finite(samples, 2)
    lo, hi, mean, std = sample_stats(x)
    lo_q, hi_q = (float(v) for v in np.quantile(x, [0.025, 0.975]))
    bins = sturges_bins(x.size)
    # a range of a few ulps: numpy refuses linspace(min, max, bins + 1) edges that repeat
    if lo < hi and not np.all(np.diff(np.linspace(lo, hi, bins + 1)) > 0.0):
        bins = 1
    counts, edges = np.histogram(x, bins=bins)
    grid, density = kde(x, lo, hi, std) if std > 0.0 else (None, None)
    return SummaryStats(
        mean=mean,
        std=std,
        min=lo,
        max=hi,
        ci95=(lo_q, hi_q),
        ci95_normal=(mean - 1.96 * std, mean + 1.96 * std),
        hist_edges=edges,
        hist_counts=counts,
        kde_grid=grid,
        kde_density=density,
    )


def convergence_trace(samples):
    """Prefix mean and prefix unbiased std for k = 1..nu.

    The prefix sums run left to right, so ``running_mean[-1]`` may differ
    from the pairwise ``summarize(samples).mean`` in the last digit.
    ``running_std[0]`` is defined as 0.
    """
    x = _flat_finite(samples, 1)
    k = np.arange(1, x.size + 1, dtype=float)
    cs = np.cumsum(x)
    var = np.multiply(x, x)
    np.cumsum(var, out=var)
    running_mean = cs / k
    # var[1:] = max(css - cs**2 / k, 0) / (k - 1), in place on the cumsum
    # buffers: the same operations in the same order
    cs2, css, k1 = cs[1:], var[1:], k[1:]
    cs2 *= cs2
    cs2 /= k1
    css -= cs2
    np.maximum(css, 0.0, out=css)
    k1 -= 1.0
    css /= k1
    var[0] = 0.0
    return running_mean, np.sqrt(var, out=var)


def kde(x: np.ndarray, lo: float, hi: float, std: float):
    """Gaussian-kernel density on a uniform grid spanning the padded range:
    the KDE step of :func:`summarize`, which passes its flat finite sample
    ``x`` with the min, max and std (> 0) of its one statistics pass.

    Bandwidth is the normal-reference rule h = 1.06 * std * nu^(-1/5); the
    grid spans [min - 3h, max + 3h] so the curve decays to ~0 at the ends
    and its trapezoid integral stays within 1e-3 of one.  The kernels sit on
    the samples linearly binned onto ``_KDE_BINS`` points (Wand, JCGS 1994).
    """
    h = 1.06 * std * x.size ** (-0.2)
    grid = np.linspace(lo - 3.0 * h, hi + 3.0 * h, _KDE_GRID)
    norm = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi))
    centres, delta = np.linspace(lo, hi, _KDE_BINS, retstep=True)
    # linear binning in place, the operations of pos = (x - lo) / delta,
    # w = pos - left and a sum of the two bincounts in their order
    w = x - lo
    w /= delta
    left = w.astype(np.intp)
    np.minimum(left, _KDE_BINS - 2, out=left)
    w -= left
    weights = np.bincount(left, 1.0 - w, _KDE_BINS)
    left += 1
    weights += np.bincount(left, w, _KDE_BINS)
    density = np.empty(_KDE_GRID)
    for i in range(0, _KDE_GRID, _KDE_ROWS):
        dev = (grid[i:i + _KDE_ROWS, None] - centres) / h
        # a row sum, not BLAS, so the bytes do not depend on its build or on the block
        density[i:i + _KDE_ROWS] = np.sum(weights * np.exp(-0.5 * dev * dev), axis=1)
    return grid, norm * density
