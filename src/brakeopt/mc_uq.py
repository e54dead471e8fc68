"""Seeded Monte Carlo propagation of the input model through the brake model.

Everything here is a pure function of (seed, nu, configuration).  The
uniform draws come from a counter-based generator (Philox) so row i of the
sample matrix never depends on how many rows were drawn before it.  The
same transform (:func:`sample_inputs`) feeds ``uq`` and the robust
optimizer, so both see one ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import maxent, mechmodel
from .errors import DegenerateSample, InsufficientSamples, ValidationError


@dataclass(frozen=True)
class UniformMatrix:
    """nu x 2 matrix of uniforms in [0, 1), fully determined by (seed, nu)."""

    seed: int
    nu: int
    values: np.ndarray


def draw_uniform_matrix(seed: int, nu: int) -> UniformMatrix:
    """Draw the reproducible uniform matrix for a run.

    Row i holds stream positions 2i and 2i+1 of the Philox stream keyed by
    ``seed``; see :func:`uniform_row` for the per-index derivation.
    """
    if not isinstance(nu, int) or nu < 1:
        raise ValidationError("sample count nu must be an integer >= 1", nu)
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValidationError("seed must be a 64-bit unsigned integer", seed)
    values = np.random.Generator(np.random.Philox(key=seed)).random((nu, 2))
    values.setflags(write=False)
    return UniformMatrix(seed=seed, nu=nu, values=values)


def uniform_row(seed: int, i: int) -> np.ndarray:
    """Row i of the uniform matrix derived directly from the block counter.

    Philox emits 4 uint64 words per counter block, i.e. two rows per block:
    row i is the pair (i & 1) of block (i >> 1).  Equal to
    ``draw_uniform_matrix(seed, nu).values[i]`` for any nu > i.
    """
    bitgen = np.random.Philox(key=seed, counter=[i >> 1, 0, 0, 0])
    block = np.random.Generator(bitgen).random(4)
    off = 2 * (i & 1)
    return block[off:off + 2]


@dataclass(frozen=True)
class Ensemble:
    """Propagated samples: inputs[:, 0] is alpha (deg), inputs[:, 1] is Fs (kN).

    ``valid[i]`` is False where the contact normals are not all non-negative
    or where the sample could not be evaluated at all (fh = nan there).
    """

    inputs: np.ndarray
    outputs: np.ndarray
    valid: np.ndarray

    @property
    def nu(self) -> int:
        return self.outputs.shape[0]

    @property
    def invalid_count(self) -> int:
        return int(np.count_nonzero(~self.valid))


def sample_inputs(
    input_model: maxent.InputModel,
    uniforms: UniformMatrix,
    *,
    freeze_alpha_deg: float | None = None,
    freeze_fs_kn: float | None = None,
):
    """Map every uniform row through the inverse CDFs.

    Returns ``(alpha_deg, fs, sin_a, cos_a)``, one entry per row: the cam
    angle (deg), the spring force (kN) and the sine and cosine of the angle.
    ``freeze_alpha_deg`` / ``freeze_fs_kn`` replace one input by a constant
    (the other keeps consuming its own uniform column, so its samples are
    unchanged against the unfrozen run).  A frozen value must lie in the
    domain of :class:`mechmodel.LoadCase`: alpha in [0, 90) deg, Fs >= 0 kN.
    """
    if freeze_alpha_deg is not None and not 0.0 <= freeze_alpha_deg < 90.0:
        raise ValidationError("frozen cam angle must lie in [0, 90) deg", freeze_alpha_deg)
    if freeze_fs_kn is not None and not (math.isfinite(freeze_fs_kn) and freeze_fs_kn >= 0.0):
        raise ValidationError("frozen spring force must be finite and >= 0 kN", freeze_fs_kn)
    u = uniforms.values
    if freeze_alpha_deg is None:
        alpha_deg = np.array([maxent.sample_inverse_cdf(input_model.alpha_dist, v) for v in u[:, 0]])
    else:
        alpha_deg = np.full(uniforms.nu, float(freeze_alpha_deg))
    if freeze_fs_kn is None:
        fs = np.array([maxent.sample_inverse_cdf(input_model.fs_dist, v) for v in u[:, 1]])
    else:
        fs = np.full(uniforms.nu, float(freeze_fs_kn))

    alpha_rad = np.array([math.radians(v) for v in alpha_deg])
    sin_a, cos_a = mechmodel.trig_arrays(alpha_rad)
    return alpha_deg, fs, sin_a, cos_a


def propagate(
    input_model: maxent.InputModel,
    uniforms: UniformMatrix,
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

    # filled in place, so the kernel's temporaries are freed before the
    # inputs are stacked; this keeps the peak memory of large runs down
    fh = np.empty(uniforms.nu)
    valid = np.empty(uniforms.nu, dtype=bool)
    fh[:], valid[:], _ = mechmodel.braking_force_ensemble(geom, fric, Fg, Fb, sin_a, cos_a, fs)

    inputs = np.column_stack([alpha_deg, fs])
    for arr in (inputs, fh, valid):
        arr.setflags(write=False)
    return Ensemble(inputs=inputs, outputs=fh, valid=valid)


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


def _sequential_mean(x: np.ndarray) -> float:
    # left-to-right summation, so the convergence trace terminus matches exactly
    return float(np.cumsum(x)[-1] / x.size)


def sturges_bins(n: int) -> int:
    return int(math.ceil(math.log2(n))) + 1


def summarize(samples) -> SummaryStats:
    """Mean, unbiased std, range, empirical 95% band, histogram and KDE.

    The 95% interval is the empirical 2.5%/97.5% quantile pair (linear
    interpolation); a mean +/- 1.96 std companion is reported alongside it.
    The KDE fields are None for zero-spread samples.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InsufficientSamples(f"need at least 2 samples in a flat array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite", int(np.count_nonzero(~np.isfinite(x))))

    mean = _sequential_mean(x)
    std = float(np.std(x, ddof=1))
    lo_q, hi_q = (float(v) for v in np.quantile(x, [0.025, 0.975]))
    counts, edges = np.histogram(x, bins=sturges_bins(x.size))
    if std > 0.0:
        grid, density = kde(x)
    else:
        grid, density = None, None
    return SummaryStats(
        mean=mean,
        std=std,
        min=float(np.min(x)),
        max=float(np.max(x)),
        ci95=(lo_q, hi_q),
        ci95_normal=(mean - 1.96 * std, mean + 1.96 * std),
        hist_edges=edges,
        hist_counts=counts,
        kde_grid=grid,
        kde_density=density,
    )


def convergence_trace(samples):
    """Prefix mean and prefix unbiased std for k = 1..nu.

    ``running_mean[-1]`` equals ``summarize(samples).mean`` exactly (both
    use plain left-to-right summation).  ``running_std[0]`` is defined as 0.
    """
    x = np.asarray(samples, dtype=float)
    k = np.arange(1, x.size + 1, dtype=float)
    cs = np.cumsum(x)
    css = np.cumsum(x * x)
    running_mean = cs / k
    var = np.zeros_like(x)
    var[1:] = np.maximum(css[1:] - cs[1:] ** 2 / k[1:], 0.0) / (k[1:] - 1.0)
    return running_mean, np.sqrt(var)


def kde(samples, grid_size: int = 256):
    """Gaussian-kernel density on a uniform grid spanning the padded range.

    Bandwidth is the normal-reference rule h = 1.06 * std * nu^(-1/5); the
    grid spans [min - 3h, max + 3h] so the curve decays to ~0 at the ends
    and its trapezoid integral stays within 1e-3 of one.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InsufficientSamples(f"need at least 2 samples in a flat array, got shape {x.shape}")
    std = float(np.std(x, ddof=1))
    if std == 0.0:
        raise DegenerateSample("all samples identical, bandwidth would be zero")
    if grid_size < 2:
        raise ValidationError("kde grid_size must be >= 2", grid_size)

    h = 1.06 * std * x.size ** (-0.2)
    grid = np.linspace(np.min(x) - 3.0 * h, np.max(x) + 3.0 * h, grid_size)
    density = np.zeros(grid_size)
    norm = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi))
    # chunk the sample axis to bound the broadcast buffer
    for k in range(0, x.size, 8192):
        dev = (grid[:, None] - x[None, k:k + 8192]) / h
        density += norm * np.sum(np.exp(-0.5 * dev * dev), axis=1)
    return grid, density
