"""Central-difference gradient checker shared by the test suites."""
import numpy as np


def grad_check(f, x, analytic, eps: float = 1e-6) -> float:
    """Max relative error between an analytic gradient and central
    finite differences of the scalar function ``f`` at ``x``.

    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-8)
    as the denominator.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("analytic gradient shape must match x")
    worst = 0.0
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        xp = x.copy().ravel()
        xm = x.copy().ravel()
        xp[i] = orig + eps
        xm[i] = orig - eps
        num = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * eps)
        ana = analytic.ravel()[i]
        denom = max(abs(ana), abs(num), 1e-8)
        worst = max(worst, abs(ana - num) / denom)
    return worst
