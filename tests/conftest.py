import numpy as np
import pytest

from stablerkhs.kernels import KernelSpec, TruncatedKernel, truncate


def random_psd(seed: int, m: int, rank: int | None = None) -> np.ndarray:
    """Seeded random PSD matrix, full rank unless a lower rank is given."""
    rng = np.random.default_rng(seed)
    r = m if rank is None else rank
    a = rng.standard_normal((m, r))
    return a @ a.T


def as_kernel(matrix: np.ndarray, tag: str = "test") -> TruncatedKernel:
    m = np.asarray(matrix, dtype=float)
    sym = np.triu(m) + np.triu(m, 1).T
    return TruncatedKernel(sym.shape[0], sym, {"family": tag})


def _support_block(spec: KernelSpec, d: int) -> np.ndarray:
    """K^(d) capped at a finite support: the block holding every nonzero."""
    n = spec.support
    return truncate(spec, d if n is None else min(d, n)).entries


def abs_sum_partial(spec: KernelSpec, d: int) -> float:
    """Reference for window_sums: sum_{i,j <= d} |K_ij|, one window."""
    return float(np.abs(_support_block(spec, d)).sum())


def sq_sum_partial(spec: KernelSpec, d: int) -> float:
    """Reference for window_sums: sum_{i,j <= d} K_ij^2, one window."""
    return float((_support_block(spec, d) ** 2).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
