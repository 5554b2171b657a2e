import numpy as np
import pytest

from qree.qmat import Bipartition
from qree.renyi import Divergence, RenyiParameter
from qree.sepstates import OptimizerOptions, _initial_ansatz, _mixtures, _Objective


def brute_partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Element-loop partial trace, independent of the library's reshape path."""
    n = len(dims)
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    d_drop = int(np.prod([dims[i] for i in drop])) if drop else 1

    def digits(idx, subset):
        out = []
        for pos in subset:
            stride = int(np.prod(dims[pos + 1:])) if pos + 1 < n else 1
            out.append((idx // stride) % dims[pos])
        return out

    def flat(digs, subset):
        idx = 0
        for d, pos in zip(digs, subset):
            idx = idx * dims[pos] + d
        return idx

    out = np.zeros((d_keep, d_keep), dtype=complex)
    for i in range(rho.shape[0]):
        for j in range(rho.shape[1]):
            di, dj = digits(i, drop), digits(j, drop)
            if di != dj:
                continue
            out[flat(digits(i, keep), keep), flat(digits(j, keep), keep)] += rho[i, j]
    return out


def random_rows(cut: Bipartition, k: int, rng: np.random.Generator,
                n: int = 1) -> np.ndarray:
    """(n, len) random K-term parameter rows, each drawn from ``rng`` as
    ``ree`` draws the start of a restart."""
    return np.stack([_initial_ansatz(cut, k, rng) for _ in range(n)])


def row_states(cut: Bipartition, theta: np.ndarray) -> np.ndarray:
    """The (B, d, d) separable states of (B, len) parameter rows."""
    obj = _Objective(Divergence(np.eye(cut.dim) / cut.dim, RenyiParameter(1.0)), cut)
    return _mixtures(*obj.split(theta))[0]


def random_separable(cut: Bipartition, k: int, rng: np.random.Generator) -> np.ndarray:
    """The state of one random K-term parameter row."""
    return row_states(cut, random_rows(cut, k, rng))[0]


@pytest.fixture
def fast_opts():
    """Small but adequate optimizer settings for module-level checks."""
    return OptimizerOptions(restarts=3, max_iters=500, components=16, seed=11)
