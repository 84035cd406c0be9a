"""Acquisition functions for the predictor-guided search.

``model_guided`` originally ranked candidates by predicted speedup alone
— exploitation with no notion of model uncertainty.  The Bayesian
optimisation literature (and the NAS systems built on it: BANANAS,
DeepHyper's AMBS) replaces that rank with an *acquisition function* that
trades the predicted mean off against the surrogate's uncertainty:

* ``rank`` — the original behaviour: score is the negated predicted
  mean, uncertainty ignored, so selecting with it is a stable sort by
  predicted speedup;
* ``ei`` — expected improvement over the best observed objective;
* ``pi`` — probability of improvement over the best observed objective;
* ``lcb`` — negated lower confidence bound ``mean - kappa * std``
  (the optimistic face of the model, per AMBS's LCB default);
* ``thompson`` — independent Thompson sampling: one draw from each
  candidate's posterior ``N(mean, std)``, best draw wins.  Draws come
  from a *dedicated* RNG stream (:func:`acquisition_rng`) so they never
  consume the search's result-bearing generator — swapping Thompson in
  and out of a search leaves every other random decision untouched.

All scores are **higher-is-better** over a **minimised** objective (the
search minimises latency relative to the per-shape baseline).  When the
surrogate reports zero variance everywhere, every acquisition collapses
to ``rank``: :func:`argbest` breaks score ties by the lower predicted
mean, so the selected index is exactly the ``rank`` pick
(property-tested in ``tests/test_acquisition.py``).

Example::

    from repro.core import acquisition

    score = acquisition.get_acquisition("ei")
    scores = score(mean, std, best=best_ratio)
    pick = acquisition.argbest(scores, mean)

See DESIGN.md §15 for the math and the selection rules.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SearchError

#: Default exploration weight for ``lcb`` (the classic 95% z-score,
#: matching DeepHyper AMBS's kappa=1.96 default).
DEFAULT_KAPPA = 1.96

#: Stream tag mixed into :func:`acquisition_rng` so acquisition draws
#: come from a generator provably distinct from ``make_rng(seed)`` —
#: the search's result-bearing stream.
_ACQUISITION_STREAM = 0xAC0_F
_DEFAULT_SEED = 0x5EED

ACQUISITION_REGISTRY: dict[str, "AcquisitionFunction"] = {}


def register_acquisition(name: str):
    """Class/function decorator adding an acquisition to the registry.

    Example::

        @register_acquisition("greedy_mean")
        def greedy_mean(mean, std, *, best=1.0, kappa=DEFAULT_KAPPA, rng=None):
            return -np.asarray(mean, dtype=np.float64)
    """

    def wrap(function):
        function.acquisition_name = name
        ACQUISITION_REGISTRY[name] = function
        return function

    return wrap


def get_acquisition(name: str):
    """Resolve an acquisition by name (:data:`ACQUISITIONS` lists them).

    Example::

        score = get_acquisition("lcb")
    """
    try:
        return ACQUISITION_REGISTRY[name]
    except KeyError:
        raise SearchError(
            f"unknown acquisition '{name}'; expected one of "
            f"{tuple(ACQUISITION_REGISTRY)}") from None


def acquisition_rng(seed: int | None) -> np.random.Generator:
    """The dedicated RNG stream for stochastic acquisitions (Thompson).

    Derived from the search seed but keyed with a stream tag, so its
    draws are deterministic per seed yet never overlap the search's own
    ``make_rng(seed)`` stream — acquisition randomness cannot perturb
    candidate generation, cold-start picks, or any other result-bearing
    decision.

    Example::

        rng = acquisition_rng(search.seed)
    """
    resolved = _DEFAULT_SEED if seed is None else int(seed)
    return np.random.default_rng([_ACQUISITION_STREAM, resolved])


def _as_arrays(mean, std) -> tuple[np.ndarray, np.ndarray]:
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if std.shape != mean.shape:
        raise SearchError(f"mean and std disagree in shape: "
                          f"{mean.shape} vs {std.shape}")
    return mean, np.maximum(std, 0.0)


def normal_cdf(values: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, via ``math.erf`` (no scipy).

    Example::

        assert abs(normal_cdf(np.zeros(1))[0] - 0.5) < 1e-12
    """
    values = np.asarray(values, dtype=np.float64)
    flat = [0.5 * (1.0 + math.erf(value / math.sqrt(2.0)))
            for value in values.ravel()]
    return np.array(flat, dtype=np.float64).reshape(values.shape)


def normal_pdf(values: np.ndarray) -> np.ndarray:
    """Standard normal density, elementwise.

    Example::

        peak = normal_pdf(np.zeros(1))[0]   # 1/sqrt(2*pi)
    """
    values = np.asarray(values, dtype=np.float64)
    return np.exp(-0.5 * values * values) / math.sqrt(2.0 * math.pi)


@register_acquisition("rank")
def rank_score(mean, std, *, best: float = 1.0,
               kappa: float = DEFAULT_KAPPA, rng=None) -> np.ndarray:
    """The historical greedy rank: negated predicted mean, no uncertainty.

    Example::

        pick = argbest(rank_score(mean, std), mean)   # == argmin(mean)
    """
    mean, _std = _as_arrays(mean, std)
    return -mean


@register_acquisition("ei")
def expected_improvement(mean, std, *, best: float = 1.0,
                         kappa: float = DEFAULT_KAPPA, rng=None) -> np.ndarray:
    """Expected improvement below ``best`` (minimisation form).

    ``EI = (best - mean) * cdf(z) + std * pdf(z)`` with
    ``z = (best - mean) / std``; at ``std == 0`` it degrades to the
    hinge ``max(best - mean, 0)``.  Non-negative everywhere.

    Example::

        scores = expected_improvement(mean, std, best=best_observed)
    """
    mean, std = _as_arrays(mean, std)
    improvement = best - mean
    scores = np.maximum(improvement, 0.0)
    active = std > 0.0
    if np.any(active):
        z = improvement[active] / std[active]
        scores = scores.astype(np.float64)
        scores[active] = (improvement[active] * normal_cdf(z)
                          + std[active] * normal_pdf(z))
    return np.maximum(scores, 0.0)


@register_acquisition("pi")
def probability_of_improvement(mean, std, *, best: float = 1.0,
                               kappa: float = DEFAULT_KAPPA,
                               rng=None) -> np.ndarray:
    """Probability the candidate beats ``best`` (minimisation form).

    ``PI = cdf((best - mean) / std)``; at ``std == 0`` it is the
    indicator ``mean < best``.  Always within ``[0, 1]``.

    Example::

        scores = probability_of_improvement(mean, std, best=best_observed)
    """
    mean, std = _as_arrays(mean, std)
    scores = (mean < best).astype(np.float64)
    active = std > 0.0
    if np.any(active):
        scores[active] = normal_cdf((best - mean[active]) / std[active])
    return scores


@register_acquisition("lcb")
def lower_confidence_bound(mean, std, *, best: float = 1.0,
                           kappa: float = DEFAULT_KAPPA, rng=None) -> np.ndarray:
    """Negated lower confidence bound ``-(mean - kappa * std)``.

    The classic optimism-in-the-face-of-uncertainty rule: the bound
    ``mean - kappa * std`` is monotonically non-increasing in ``kappa``,
    so larger ``kappa`` explores more.  At ``kappa == 0`` or
    ``std == 0`` it equals ``rank``.

    Example::

        scores = lower_confidence_bound(mean, std, kappa=1.96)
    """
    mean, std = _as_arrays(mean, std)
    return -(mean - float(kappa) * std)


@register_acquisition("thompson")
def thompson_sample(mean, std, *, best: float = 1.0,
                    kappa: float = DEFAULT_KAPPA, rng=None) -> np.ndarray:
    """Independent Thompson sampling: negated posterior draws.

    One draw per candidate from ``N(mean, std)``; the best (lowest) draw
    scores highest.  ``rng`` must be the dedicated stream from
    :func:`acquisition_rng` — never the search's result-bearing
    generator.  With ``std == 0`` the draw is the mean and the rule
    collapses to ``rank``.

    Example::

        scores = thompson_sample(mean, std, rng=acquisition_rng(seed))
    """
    mean, std = _as_arrays(mean, std)
    if rng is None:
        raise SearchError("thompson sampling needs the dedicated "
                          "acquisition RNG (see acquisition_rng)")
    draws = mean + std * rng.standard_normal(mean.shape)
    return -draws


#: Registered acquisition names, in registration order (``rank`` first).
ACQUISITIONS = tuple(ACQUISITION_REGISTRY)


def argbest(scores: np.ndarray, mean: np.ndarray) -> int:
    """Index of the best score; ties break to the lower predicted mean.

    The tie-break is what makes every zero-variance acquisition reduce
    to ``rank``: equal scores (e.g. all-zero EI) resolve exactly as the
    historical argmin-by-mean did, and residual ties keep first-index
    order (``np.lexsort`` is stable).

    Example::

        pick = argbest(scores, mean)
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise SearchError("argbest needs at least one candidate")
    order = np.lexsort((np.asarray(mean, dtype=np.float64), -scores))
    return int(order[0])


def ranking(scores: np.ndarray, mean: np.ndarray) -> list[int]:
    """All candidate indices, best first, with the :func:`argbest` tie rule.

    Example::

        for index in ranking(scores, mean):
            ...
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.asarray(mean, dtype=np.float64), -scores))
    return [int(index) for index in order]
