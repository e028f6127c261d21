"""Central-difference gradient checker shared by the test suites, and the
mapping of a softmax term's logit gradient back through the head."""
import numpy as np

from joint_reference import classifier_responses


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


def through_head(term, f, head):
    """(loss, grad wrt ``f``, grad wrt ``head.weights``) of a softmax term
    that takes the head's responses to the features ``f`` and returns
    (loss, grad wrt the logits ``f @ head.weights.T``)."""
    loss, d_logits = term(classifier_responses(f, head))
    return loss, d_logits @ head.weights, d_logits.T @ f
