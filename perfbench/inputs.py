"""Benchmark inputs and the reference values outputs are checked against.

Nothing here imports mcoutput: inputs come from numpy's own generator and
scipy's linear filter, and every reference statistic is recomputed with
numpy alone, so a defect in mcoutput cannot hide itself.
"""

import math
import os
from pathlib import Path

import numpy as np

REL_TOL = 1e-10


def ar1_path(seed, n, p, rho, equicorrelation):
    """n rows of a stationary p-dimensional AR(1) with common coefficient rho.

    Innovations are standard normal with correlation ``equicorrelation``
    between every pair of components, built from one shared factor so no
    p-by-p factorization is needed.
    """
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    c = equicorrelation
    eps = math.sqrt(1.0 - c) * rng.standard_normal((n, p))
    if c:
        eps += math.sqrt(c) * rng.standard_normal((n, 1))
    eps[0] /= math.sqrt(1.0 - rho * rho)  # stationary first row
    return lfilter([1.0], [1.0, -rho], eps, axis=0)


def write_csv(x, path):
    """Write ``x`` with a header row and ``%.17g`` cells, atomically."""
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(",".join(f"x{j}" for j in range(x.shape[1])) + "\n")
        np.savetxt(fh, x, fmt="%.17g", delimiter=",")
    os.replace(tmp, path)


def cached_csv(cache_dir, key, x, keep=2):
    """Path of the CSV of ``x`` cached under ``key``, written if absent.

    Keeps the ``keep`` most recently used files of the cache directory and
    deletes older ones, so a long series of seeds cannot fill the disk.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{key}.csv"
    if path.exists():
        os.utime(path)
    else:
        write_csv(x, path)
    old = sorted(cache_dir.glob("*.csv"), key=lambda f: f.stat().st_mtime)
    for stale in old[:-keep]:
        stale.unlink()
    return path


# ---------------------------------------------------------------------------
# reference statistics


def even_cbrt_batch(n):
    """Cube-root batch length floored to even, at least 2."""
    b = round(n ** (1.0 / 3.0))
    while (b + 1) ** 3 <= n:
        b += 1
    while b**3 > n:
        b -= 1
    return max(b - b % 2, 2)


def even_sqrt_batch(n):
    """Square-root batch length floored to even, at least 2."""
    b = math.isqrt(n)
    return max(b - b % 2, 2)


def _sym(m):
    return 0.5 * (m + m.T)


def batch_means(x, b):
    a = x.shape[0] // b
    data = x[: a * b]
    means = data.reshape(a, b, x.shape[1]).mean(axis=1)
    centered = means - data.mean(axis=0)
    return _sym((b / (a - 1.0)) * (centered.T @ centered))


def sample_cov(x):
    centered = x - x.mean(axis=0)
    return _sym((centered.T @ centered) / x.shape[0])


def reference_ess(x, b, flat_top=False):
    """n * (det Lambda / det Sigma)^(1/p) via slogdet."""
    sigma = batch_means(x, b)
    if flat_top:
        sigma = _sym(2.0 * sigma - batch_means(x, b // 2))
    sign_l, logdet_l = np.linalg.slogdet(sample_cov(x))
    sign_s, logdet_s = np.linalg.slogdet(sigma)
    if sign_l <= 0 or sign_s <= 0:
        raise CheckError("reference covariance is not positive definite")
    return x.shape[0] * math.exp((logdet_l - logdet_s) / x.shape[1])


class CheckError(Exception):
    """An op's output disagrees with the benchmark's reference."""


def check_close(what, got, expected, scale=None, tol=REL_TOL):
    """Require ``|got - expected| <= tol * scale`` elementwise.

    ``scale`` defaults to ``|expected|``; a mean near zero is better judged
    against the magnitude of the data it averages.
    """
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        raise CheckError(f"{what}: shape {got.shape} != {expected.shape}")
    if scale is None:
        scale = np.abs(expected)
    scale = np.maximum(scale, np.finfo(float).tiny)
    err = float(np.max(np.abs(got - expected) / scale))
    if not err <= tol:
        raise CheckError(f"{what}: relative error {err:.3g} > {tol:g}")


def check(condition, message):
    if not condition:
        raise CheckError(message)
