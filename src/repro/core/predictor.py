"""The online latency surrogate behind the ``model_guided`` search.

Full-trial auto-tuning is the expensive step of every search: each unique
``(shape, program)`` pair costs ``tuner_trials`` schedule evaluations.
The model-based NAS literature (BANANAS, DeepHyper's asynchronous
model-based search) replaces most of those evaluations with a cheap
learned surrogate: train a regressor on the candidates evaluated so far,
*predict* the rest, and spend real evaluations only on the most promising
few.  :class:`LatencyPredictor` is that surrogate for the unified space:

* **model** — ridge regression over the fixed-width candidate encoding
  of :mod:`repro.core.encoding`, fit on ``log`` latency so the targets are
  well-conditioned across layers whose costs span orders of magnitude.
  Closed-form normal equations on the ``numpy`` substrate — no new
  dependencies, bit-deterministic for a given observation history.  A
  multi-seed study found no other learner, acquisition or encoding that
  beats it (DESIGN.md §15);
* **online lifecycle** — the predictor trains incrementally:
  :meth:`observe` records every tuned result, and refits are lazy:
  :meth:`predict_batch` refits at most once per batch of new
  observations;
* **cold start** — below :attr:`min_observations` the predictor reports
  ``ready == False`` and the strategies fall back to random selection;
* **accounting** — every prediction later checked against a real tuning
  updates a running mean absolute relative error
  (:attr:`PredictorStatistics.mean_absolute_error`), surfaced through
  ``SearchStatistics.predictor_mae``.

Example::

    from repro.core.predictor import LatencyPredictor

    predictor = LatencyPredictor(min_observations=4)
    for (shape, program), seconds in zip(pairs, engine.tune_many(pairs)):
        predictor.observe(shape, program, seconds, trials=engine.tuner_trials)
    if predictor.ready:
        predicted = predictor.predict_batch(candidate_pairs)

See DESIGN.md §10 for the surrogate lifecycle and the fidelity rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.encoding import encode_candidate
from repro.core.program import TransformProgram
from repro.errors import SearchError
from repro.poly.statement import ConvolutionShape

#: One observation/prediction key: everything the tuned latency varies by
#: within one engine (the platform and seed are fixed per predictor use).
CandidateKey = tuple[ConvolutionShape, TransformProgram, int]

#: Pending-point imputation rules for batch-concurrent candidate selection
#: (DeepHyper's AMBS constant-liar strategies).  When a strategy wants to
#: draw a whole batch from one surrogate before any real result exists,
#: each picked-but-not-yet-tuned candidate is imputed with a constant
#: "lie" so later picks in the batch see it as pending work:
#: ``cl_min`` lies the best (lowest) observed target — optimistic, spreads
#: the batch out; ``cl_max`` lies the worst — conservative, concentrates
#: it; ``cl_mean`` lies the mean.
LIAR_STRATEGIES = ("cl_min", "cl_max", "cl_mean")


@dataclass
class PredictorStatistics:
    """Counters for the surrogate's traffic and accuracy.

    ``mean_absolute_error`` is the running mean of
    ``|predicted - actual| / actual`` over every prediction that was later
    verified by a real tuning — a relative error, so one number is
    meaningful across layers whose latencies differ by orders of
    magnitude.

    Example::

        stats = predictor.statistics
        print(stats.observations, stats.fits, stats.mean_absolute_error)
    """

    observations: int = 0
    fits: int = 0
    #: interim refits that incorporated constant-liar pseudo-observations
    #: (cheap closed-form re-solves during batch selection; ``fits`` counts
    #: only fits that consumed new *real* observations)
    liar_fits: int = 0
    predictions: int = 0
    verified_predictions: int = 0
    absolute_error_sum: float = 0.0
    #: observations absorbed from another platform's predictor through
    #: :meth:`LatencyPredictor.warm_start_from` (kept apart from
    #: ``observations``, which counts this platform's real tunings only)
    transferred: int = 0

    @property
    def mean_absolute_error(self) -> float:
        if not self.verified_predictions:
            return 0.0
        return self.absolute_error_sum / self.verified_predictions


class _RidgeModel:
    """Closed-form ridge regression with feature standardisation."""

    def __init__(self, l2: float):
        self.l2 = l2
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._intercept = 0.0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        self._mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self._scale = scale
        standardised = (features - self._mean) / scale
        self._intercept = float(targets.mean())
        centred = targets - self._intercept
        gram = standardised.T @ standardised
        gram[np.diag_indices_from(gram)] += self.l2 * len(targets)
        self._weights = np.linalg.solve(gram, standardised.T @ centred)

    def predict(self, features: np.ndarray) -> np.ndarray:
        standardised = (features - self._mean) / self._scale
        return standardised @ self._weights + self._intercept


class LatencyPredictor:
    """Online ridge surrogate over candidate encodings (see the module docstring).

    Example::

        predictor = LatencyPredictor(min_observations=4)
        predictor.observe(shape, program, latency_seconds=2.5e-4, trials=8)
        if predictor.ready:
            predicted = predictor.predict_batch([(shape, program)], trials=8)
    """

    def __init__(self, *, min_observations: int = 8, l2: float = 1e-3):
        if min_observations < 2:
            raise SearchError("the predictor needs at least two observations")
        self.min_observations = min_observations
        self.l2 = l2
        self.statistics = PredictorStatistics()
        self._features: list[np.ndarray] = []
        self._targets: list[float] = []
        self._seen: set[CandidateKey] = set()
        self._pending: dict[CandidateKey, float] = {}
        self._model: _RidgeModel | None = None
        self._dirty = False
        #: set when new *real* observations arrived since the last fit
        #: (a lie also marks ``_dirty``, but only real data invalidates
        #: the pending-prediction ledger)
        self._dirty_real = False
        self._references: dict[ConvolutionShape, float] = {}
        #: constant-liar pseudo-observations, kept apart from the real
        #: history so they never count towards readiness and retract
        #: without disturbing observation order
        self._lie_features: list[np.ndarray] = []
        self._lie_targets: list[float] = []
        #: cross-platform transfer rows (see :meth:`warm_start_from`):
        #: features verbatim, targets as z-scores of the *source*
        #: platform's target distribution, mapped into this platform's
        #: distribution at fit time
        self._transfer_features: list[np.ndarray] = []
        self._transfer_zscores: list[float] = []

    # ------------------------------------------------------------------
    # Reference latencies (targets become log ratios to these)
    # ------------------------------------------------------------------
    def set_reference(self, shape: ConvolutionShape, latency_seconds: float) -> None:
        """Register ``shape``'s baseline latency as its prediction reference.

        Once a reference is known, observations and predictions for the
        shape are modelled as a *ratio* to it: the surrogate explains only
        what the transformation changes.  Shapes without a reference fall
        back to absolute (log) latency.

        Example::

            predictor.set_reference(shape, baseline_seconds)
        """
        if latency_seconds > 0:
            self._references[shape] = float(latency_seconds)

    def _reference_for(self, shape: ConvolutionShape,
                       explicit: float | None = None) -> float:
        if explicit is not None and explicit > 0:
            return float(explicit)
        return self._references.get(shape, 1.0)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def _encode(self, shape: ConvolutionShape, program: TransformProgram,
                trials: int) -> np.ndarray:
        # The tuner-trial budget is the fidelity axis: more trials find
        # better schedules, so the fidelity rides along as one extra
        # feature and low-fidelity observations still teach the model.
        base = encode_candidate(shape, program)
        return np.concatenate([base, [math.log2(max(int(trials), 1))]])

    def observe(self, shape: ConvolutionShape, program: TransformProgram,
                latency_seconds: float, *, trials: int = 1,
                reference: float | None = None) -> None:
        """Record one tuned result; verifies any pending prediction for it.

        ``reference`` is an optional latency to learn *relative to* —
        callers that know the shape's baseline (standard-program) latency
        pass it so the model only has to explain the transformation's
        effect, not the shape's absolute scale, which the baseline
        already measures exactly.  Predictions are made against the same
        reference (see :meth:`set_reference`).

        Example::

            predictor.observe(shape, program, seconds, trials=engine.tuner_trials)
        """
        key = (shape, program, int(trials))
        predicted = self._pending.pop(key, None)
        if predicted is not None and latency_seconds > 0:
            self.statistics.verified_predictions += 1
            self.statistics.absolute_error_sum += (
                abs(predicted - latency_seconds) / latency_seconds)
        if key in self._seen:
            return
        self._seen.add(key)
        self._features.append(self._encode(shape, program, int(trials)))
        self._targets.append(math.log(max(float(latency_seconds), 1e-18))
                             - math.log(self._reference_for(shape, reference)))
        self.statistics.observations += 1
        self._dirty = True
        self._dirty_real = True

    # ------------------------------------------------------------------
    # Constant-liar pending-point imputation (batch-concurrent selection)
    # ------------------------------------------------------------------
    @property
    def lies(self) -> int:
        """Number of constant-liar pseudo-observations currently active.

        Example::

            assert predictor.lies == 0   # after retract_lies()
        """
        return len(self._lie_targets)

    def lie(self, shape: ConvolutionShape, program: TransformProgram, *,
            trials: int = 1, strategy: str = "cl_mean") -> float:
        """Impute a picked-but-not-yet-tuned candidate with a constant lie.

        Batch selection picks several candidates from one surrogate before
        any of them is actually tuned; to keep later picks aware of the
        pending ones, the candidate is recorded as if it had been observed
        at a constant target — the best (``cl_min``), worst (``cl_max``)
        or mean (``cl_mean``) of the *real* targets seen so far (the
        DeepHyper AMBS liar strategies).  Lies are kept apart from the
        real history: they never count towards :attr:`ready` or
        ``statistics.observations``, and :meth:`retract_lies` removes
        them all before the real results arrive.  Returns the imputed
        latency in seconds (the lie, de-normalised for logging).

        Example::

            predictor.lie(shape, program, trials=8, strategy="cl_min")
            ...               # rank the remaining candidates
            predictor.retract_lies()
        """
        if strategy not in LIAR_STRATEGIES:
            raise SearchError(f"unknown liar strategy '{strategy}'; "
                              f"expected one of {LIAR_STRATEGIES}")
        if not self._targets:
            raise SearchError("cannot lie before any real observation "
                              "exists to impute from")
        targets = np.array(self._targets)
        lied = {"cl_min": float(targets.min()),
                "cl_max": float(targets.max()),
                "cl_mean": float(targets.mean())}[strategy]
        self._lie_features.append(self._encode(shape, program, int(trials)))
        self._lie_targets.append(lied)
        self._dirty = True
        return math.exp(lied) * self._reference_for(shape)

    def retract_lies(self) -> int:
        """Drop every active lie (call before observing the real results).

        Example::

            retracted = predictor.retract_lies()
        """
        retracted = len(self._lie_targets)
        if retracted:
            self._lie_features.clear()
            self._lie_targets.clear()
            self._dirty = True
        return retracted

    # ------------------------------------------------------------------
    # Fitting and prediction
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True once enough observations arrived for a trustworthy fit.

        Rows absorbed through :meth:`warm_start_from` count towards
        readiness — that is the transfer's entire point: the warmed
        predictor guides the search before this platform has paid for
        ``min_observations`` tunings of its own.
        """
        return (len(self._targets) + len(self._transfer_zscores)
                >= self.min_observations)

    def _mapped_transfer_targets(self) -> list[float]:
        """Transfer z-scores mapped into this platform's target distribution.

        With fewer than two native targets the destination's statistics
        are unknown, so the z-scores pass through unmapped — log-ratio
        targets are roughly standard-normal once references are set, so
        the identity map is the right uninformed prior.
        """
        if not self._transfer_zscores:
            return []
        mean, scale = 0.0, 1.0
        if len(self._targets) >= 2:
            native = np.array(self._targets)
            mean = float(native.mean())
            spread = float(native.std())
            if spread > 1e-12:
                scale = spread
        return [zscore * scale + mean for zscore in self._transfer_zscores]

    def warm_start_from(self, other: "LatencyPredictor") -> int:
        """Absorb another platform's observations as transfer rows.

        Cross-platform transfer per the paper's "one network, many
        targets" study: the source predictor's real observations are
        copied as extra training rows, with each target mapped through
        the *standardisation statistics* of both platforms — stored as a
        z-score of the source's target distribution, de-standardised
        into this platform's distribution at fit time — so a uniformly
        faster or slower target does not bias the transferred rows.
        Transferred rows count towards :attr:`ready` (letting
        ``model_guided`` skip cold-start random tunings, reported as
        ``evaluations_saved``) but never towards
        ``statistics.observations``; they land in
        ``statistics.transferred``.  Returns the number of rows absorbed.

        Example::

            warm = LatencyPredictor()
            ...                       # train warm on platform A
            cold = LatencyPredictor()
            cold.warm_start_from(warm)   # platform B starts guided
        """
        if other is self:
            raise SearchError("a predictor cannot warm-start from itself")
        if not other._targets:
            return 0
        source = np.array(other._targets)
        source_mean = float(source.mean())
        source_scale = float(source.std())
        if source_scale < 1e-12:
            source_scale = 1.0
        for row, target in zip(other._features, other._targets):
            self._transfer_features.append(np.array(row, copy=True))
            self._transfer_zscores.append((target - source_mean)
                                          / source_scale)
        absorbed = len(other._targets)
        self.statistics.transferred += absorbed
        self._dirty = True
        self._dirty_real = True
        return absorbed

    def fit(self) -> bool:
        """(Re)fit on everything observed so far; returns True when it ran.

        Lazy: a clean model (no observations since the last fit) is left
        untouched, so callers may invoke ``fit`` per round for free.
        Active constant-liar pseudo-observations (see :meth:`lie`) join
        the training rows, as do cross-platform transfer rows (see
        :meth:`warm_start_from`); a fit that consumed only lies is
        counted as a ``liar_fit`` and leaves the pending-prediction
        ledger alone.
        """
        if not self.ready or not self._dirty:
            return False
        features = np.stack(self._features + self._transfer_features
                            + self._lie_features)
        targets = np.array(self._targets + self._mapped_transfer_targets()
                           + self._lie_targets)
        model = _RidgeModel(self.l2)
        model.fit(features, targets)
        self._model = model
        self._dirty = False
        if self._dirty_real:
            # Predictions made by the superseded model are no longer worth
            # verifying: charging their error to the new model would pollute
            # the MAE, and never-tuned entries would otherwise pile up
            # unboundedly across warm-predictor reuse.
            self._pending.clear()
            self._dirty_real = False
            self.statistics.fits += 1
        else:
            self.statistics.liar_fits += 1
        return True

    def predict_batch(self, items: Iterable[tuple[ConvolutionShape,
                                                  TransformProgram]], *,
                      trials: int = 1) -> np.ndarray:
        """Predicted latencies in seconds for many candidates (refits when dirty).

        Predictions are remembered per candidate; when a real tuning for
        the same key arrives through :meth:`observe`, the error feeds the
        running MAE.  Raises :class:`~repro.errors.SearchError` before
        the cold-start threshold — callers check :attr:`ready` first.

        Example::

            predicted = predictor.predict_batch(pairs, trials=8)
            order = np.argsort(predicted)
        """
        items = list(items)
        self.fit()
        if self._model is None:
            raise SearchError(
                f"predictor is cold: {len(self._targets)} observation(s) "
                f"recorded, needs {self.min_observations}")
        if not items:
            return np.empty(0, dtype=np.float64)
        features = np.stack([self._encode(shape, program, int(trials))
                             for shape, program in items])
        references = np.array([self._reference_for(shape)
                               for shape, _program in items])
        predicted = np.exp(self._model.predict(features)) * references
        if not self._lie_targets:
            # Liar-biased interim predictions are selection aids, not
            # claims about real latencies: only lie-free predictions enter
            # the verification ledger feeding the running MAE.
            for (shape, program), seconds in zip(items, predicted):
                self._pending[(shape, program, int(trials))] = float(seconds)
        self.statistics.predictions += len(items)
        return predicted

    def predict_batch_with_std(self, items: Iterable[tuple[ConvolutionShape,
                                                           TransformProgram]],
                               *, trials: int = 1
                               ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`predict_batch` with a spread, which ridge does not have (zero).

        Nothing in the library calls this.  It stays because the end-to-end
        benchmark's tracer (``perfbench/tracing.py``) wraps it by name, which
        ``tests/test_perfbench_contract.py`` checks.
        """
        predicted = self.predict_batch(items, trials=trials)
        return predicted, np.zeros_like(predicted)
