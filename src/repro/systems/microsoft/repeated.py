"""Repeated telemetry collection: α-point rounding, memoization, output
perturbation.

The hard problem Microsoft's deployment solves is not one collection but
*every-day* collection [10]: naively re-randomizing each round composes —
after ``T`` rounds the budget is ``Tε`` — while deterministically reusing
one response lets an observer link the user across rounds.  Their
three-part answer, reproduced here:

1. **α-point randomized rounding** — each user draws a secret uniform
   ``α ∈ [0, 1)`` once; a value ``x`` rounds to the top of the range when
   ``x/m > α`` and to the bottom otherwise.  Unbiased for every ``x``
   (``E_α[round(x)] = x``), yet *deterministic given α*, so stable values
   produce stable rounded bits.
2. **Memoization** — the user draws the 1BitMean response for each of the
   two possible rounded values once, and replays the stored bit whenever
   that rounded value recurs.  Privacy stops composing: over any number
   of rounds the observer sees a function of (α, two memoized bits), a
   single ε-LDP release of the (rounded) value trajectory.
3. **Output perturbation** — replayed bits are XORed with fresh
   Bernoulli(γ) noise each round, hiding exactly *when* the underlying
   rounded value changed (the residual leak memoization alone permits).
   The estimator inverts the flip: ``b̂ = (b_obs − γ)/(1 − 2γ)``.

:class:`RepeatedCollector` simulates all three modes over a population of
value trajectories and accounts the budget in a
:class:`~repro.core.budget.PrivacyLedger`, which is what experiment E6
plots.  The *client* side (α-points, memo bits, output flips) is
simulated here; the *server* side — windowing each round, charging the
declared spend before absorbing, snapshotting estimates — runs on the
shared streaming engine
(:class:`~repro.protocol.streaming.EventTimeCollector`, one ``n``-report
tumbling window per round on the arrival-ordinal clock), the same
engine every other collection path uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.budget import PrivacyLedger, SpendDeclaration
from repro.core.timed import TimedReports
from repro.systems.microsoft.onebit import OneBitMean, OneBitMeanAccumulator
from repro.util.rng import ensure_generator
from repro.util.validation import check_epsilon, check_fraction, check_positive_int

__all__ = ["RoundResult", "CollectionRun", "RepeatedCollector"]

_MODES = ("fresh", "memoized", "memoized_op")


class _PerturbedOneBitAccumulator(OneBitMeanAccumulator):
    """1BitMean tallies whose estimator inverts the γ output flip.

    The observed bit mean under output perturbation is
    ``γ + (1 − 2γ)·b̄``; finalize de-biases it before applying the
    1BitMean inversion, so the accumulator (and hence every window
    snapshot) estimates the true mean from flipped bits.
    """

    def __init__(self, mechanism: OneBitMean, gamma: float) -> None:
        super().__init__(mechanism)
        self._gamma = float(gamma)

    def finalize(self) -> np.ndarray:
        if self._n == 0:
            raise ValueError("no reports absorbed — nothing to estimate")
        mech = self._mechanism
        e = math.exp(mech.epsilon)
        debiased = ((self._ones[0] / self._n) - self._gamma) / (1.0 - 2.0 * self._gamma)
        per_user = (debiased * (e + 1.0) - 1.0) / (e - 1.0)
        return np.asarray([mech.value_bound * per_user], dtype=np.float64)

    def config_fingerprint(self) -> dict:
        return {**super().config_fingerprint(), "gamma": self._gamma}


class _RoundEngine:
    """Streaming-engine adapter for one repeated-collection run.

    The engine asks its "oracle" for two things: fresh accumulators
    (mode-aware — output perturbation needs the γ-inverting estimator)
    and the privacy declaration (the *collector's*, not the raw
    mechanism's: memoized modes declare a one-time release).
    """

    def __init__(self, collector: "RepeatedCollector") -> None:
        self._collector = collector

    def accumulator(self):
        if self._collector.mode == "memoized_op":
            return _PerturbedOneBitAccumulator(
                self._collector.mechanism, self._collector.gamma
            )
        return self._collector.mechanism.accumulator()

    def privacy_spend(self) -> SpendDeclaration:
        return self._collector.privacy_spend()


@dataclass(frozen=True)
class RoundResult:
    """Per-round outcome of a repeated collection."""

    round_index: int
    true_mean: float
    estimated_mean: float

    @property
    def abs_error(self) -> float:
        return abs(self.estimated_mean - self.true_mean)


@dataclass
class CollectionRun:
    """Full trace of a T-round collection plus its privacy account."""

    mode: str
    rounds: list[RoundResult] = field(default_factory=list)
    ledger: PrivacyLedger = field(default_factory=PrivacyLedger)
    distinct_responses: float = 0.0

    @property
    def mean_abs_error(self) -> float:
        if not self.rounds:
            raise ValueError("no rounds recorded")
        return float(np.mean([r.abs_error for r in self.rounds]))

    @property
    def total_epsilon(self) -> float:
        return self.ledger.total_epsilon


class RepeatedCollector:
    """Simulate T rounds of private mean telemetry under three modes.

    Parameters
    ----------
    value_bound:
        Upper bound ``m`` of every counter value.
    epsilon:
        Per-release budget of the underlying 1BitMean mechanism.
    mode:
        ``"fresh"`` — re-randomize every round (budget grows ``Tε``);
        ``"memoized"`` — α-point rounding + memoized responses (budget ε);
        ``"memoized_op"`` — additionally flip each transmitted bit with
        probability ``gamma`` (budget ε for the memoized release; the
        flips hide change points).
    gamma:
        Output-perturbation flip probability (``memoized_op`` only);
        must lie in (0, ½) so the inversion is well-posed.
    """

    def __init__(
        self,
        value_bound: float,
        epsilon: float,
        mode: str = "memoized_op",
        gamma: float = 0.25,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mechanism = OneBitMean(value_bound, epsilon)
        self.value_bound = float(value_bound)
        self.epsilon = check_epsilon(epsilon)
        self.mode = mode
        check_fraction(gamma, name="gamma")
        if mode == "memoized_op" and not 0.0 < gamma < 0.5:
            raise ValueError(f"gamma must be in (0, 0.5), got {gamma}")
        self.gamma = float(gamma)

    def privacy_spend(self) -> SpendDeclaration:
        """The mode's declared cost per collection round.

        Fresh mode re-randomizes — each round is an independent
        ε-release of the mechanism (``per_report``; T rounds compose to
        Tε).  Both memoized modes reveal, over *any* number of rounds, a
        function of (α, two stored bits): a single ``one_time`` release
        the ledger charges once.
        """
        if self.mode == "fresh":
            return self.mechanism.privacy_spend()
        return SpendDeclaration(
            epsilon=self.epsilon,
            scope="one_time",
            mechanism=f"OneBitMean/{self.mode}",
        )

    def run(
        self,
        trajectories: np.ndarray,
        rng: np.random.Generator | int | None = None,
        *,
        ledger: PrivacyLedger | None = None,
    ) -> CollectionRun:
        """Collect every round of an ``(n, T)`` trajectory matrix.

        ``ledger`` (optional) is the account charged as rounds run —
        pass a capped ledger to abort a fresh-mode collection the moment
        its budget would be exceeded (:class:`BudgetExceededError` is
        raised *before* the offending round collects).  The populated
        ledger is returned on :attr:`CollectionRun.ledger`.
        """
        gen = ensure_generator(rng)
        traj = np.asarray(trajectories, dtype=np.float64)
        if traj.ndim != 2 or traj.size == 0:
            raise ValueError("trajectories must be a non-empty (n, T) matrix")
        if traj.min() < 0.0 or traj.max() > self.value_bound:
            raise ValueError(f"values must lie in [0, {self.value_bound}]")
        n, num_rounds = traj.shape
        check_positive_int(num_rounds, name="T")

        run = CollectionRun(
            mode=self.mode,
            ledger=ledger if ledger is not None else PrivacyLedger(),
        )
        # One n-report tumbling window per round on the shared streaming
        # engine: it resolves the mode's declaration, charges each round
        # before absorbing its bits (a capped ledger refuses the round
        # rather than collecting data it cannot afford), and seals the
        # round's window as soon as its last report is absorbed.
        from repro.protocol.streaming import EventTimeCollector, WindowSpec

        engine = EventTimeCollector(
            _RoundEngine(self), WindowSpec.tumbling(n), ledger=run.ledger
        )
        if self.mode == "fresh":
            self._run_fresh(traj, gen, run, engine)
        else:
            self._run_memoized(traj, gen, run, engine)
        return run

    def _collect_round(
        self,
        engine,
        t: int,
        round_values: np.ndarray,
        bits: np.ndarray,
        run: CollectionRun,
    ) -> None:
        """One round through the engine: charge, absorb, read its window."""
        engine.absorb(TimedReports(_round_ordinals(t, bits.shape[0]), bits))
        snap = engine.snapshots[t]  # sealed by its last report
        run.rounds.append(
            RoundResult(
                round_index=t,
                true_mean=float(round_values.mean()),
                estimated_mean=float(snap.window_estimates[0]),
            )
        )

    # -- fresh mode ---------------------------------------------------------

    def _run_fresh(
        self,
        traj: np.ndarray,
        gen: np.random.Generator,
        run: CollectionRun,
        engine,
    ) -> None:
        n, num_rounds = traj.shape
        patterns = []
        for t in range(num_rounds):
            # Charge before the clients randomize: a capped ledger
            # refuses the round rather than collecting responses it
            # cannot afford.
            engine.charge_for(_round_ordinals(t, n))
            bits = self.mechanism.privatize(traj[:, t], rng=gen)
            self._collect_round(engine, t, traj[:, t], bits, run)
            patterns.append(bits)
        stacked = np.stack(patterns, axis=1)  # (n, T)
        run.distinct_responses = _mean_distinct_runs(stacked)

    # -- memoized modes -------------------------------------------------------

    def _run_memoized(
        self,
        traj: np.ndarray,
        gen: np.random.Generator,
        run: CollectionRun,
        engine,
    ) -> None:
        n, num_rounds = traj.shape
        m = self.value_bound
        alpha = gen.random(n)
        # Memoized 1BitMean responses for the two possible rounded values.
        p_low = self.mechanism.response_probability(0.0)
        p_high = self.mechanism.response_probability(m)
        memo_low = (gen.random(n) < p_low).astype(np.uint8)
        memo_high = (gen.random(n) < p_high).astype(np.uint8)

        observed = np.empty((n, num_rounds), dtype=np.uint8)
        for t in range(num_rounds):
            rounded_high = (traj[:, t] / m) > alpha
            bits = np.where(rounded_high, memo_high, memo_low)
            if self.mode == "memoized_op":
                flips = gen.random(n) < self.gamma
                bits = np.where(flips, 1 - bits, bits)
            observed[:, t] = bits
            # The engine charges the one-time declaration on the first
            # round and treats every later round as the free replay the
            # memoization argument promises; fresh α and memo bits per
            # run mean each run is an independent release (the engine's
            # per-stream memo key keeps a shared ledger honest).
            self._collect_round(engine, t, traj[:, t], bits, run)
        run.distinct_responses = _mean_distinct_runs(observed)


def _round_ordinals(t: int, n: int) -> np.ndarray:
    """Arrival ordinals of round ``t``'s ``n`` reports."""
    return np.arange(t * n, (t + 1) * n, dtype=np.float64)


def _mean_distinct_runs(patterns: np.ndarray) -> float:
    """Average number of response *changes* per user across rounds, +1.

    A trackability proxy: a fresh-randomness user flips on ~half the
    rounds; a memoized user changes only when their rounded value does.
    """
    if patterns.shape[1] == 1:
        return 1.0
    changes = (np.diff(patterns.astype(np.int8), axis=1) != 0).sum(axis=1)
    return float(changes.mean() + 1.0)
