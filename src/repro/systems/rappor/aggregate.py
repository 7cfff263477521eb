"""RAPPOR aggregation: bit-count correction and candidate decoding.

The aggregator sees, per cohort, a pile of noisy ``m``-bit reports.
Decoding proceeds exactly as in Erlingsson et al. [12] §4:

1. **Bit-rate correction** — for each cohort ``i`` and bit ``j``, the
   observed 1-count ``c_ij`` mixes true-set and true-clear Bloom bits:
   ``E[c_ij] = t_ij q* + (n_i − t_ij) p*``.  Inverting gives the unbiased
   estimate ``t̂_ij`` of how many cohort members' *Bloom* encodings set
   bit ``j``.
2. **Design matrix** — every candidate string sets a known bit pattern in
   each cohort (the cohort Bloom families are public), giving the matrix
   ``X[(i,j), s]``.
3. **Regression** — solve ``t̂ ≈ X β`` with non-negative least squares;
   ``β_s`` estimates the *per-cohort* count of candidate ``s``, so the
   population estimate is ``num_cohorts · β_s``.  (The paper fits LASSO
   then OLS; NNLS plays the same sparsity-respecting role without an
   external solver and is what Google's open-source analysis offers as
   the default alternative.)
4. **Significance** — candidates are reported only when their estimate
   exceeds a Bonferroni-corrected normal threshold, controlling the
   probability of *any* false discovery at ``alpha``.

The server state is a mergeable :class:`RapporAccumulator` — the integer
per-(cohort, bit) 1-counts and cohort sizes — so reports can arrive in
shards and be folded in as they come; stages 1–4 read only the
accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.stats import norm

from repro.core.mechanism import Accumulator
from repro.systems.rappor.client import cohort_bloom
from repro.systems.rappor.params import RapporParams

__all__ = ["RapporAccumulator", "RapporAggregator", "RapporDecodeResult"]


@dataclass(frozen=True)
class RapporDecodeResult:
    """Outcome of a RAPPOR decode over a candidate list.

    Attributes
    ----------
    candidates:
        The candidate values the aggregator tested (domain ids).
    estimated_counts:
        Estimated number of users per candidate (aligned with
        ``candidates``).
    significant:
        Boolean mask: which candidates clear the Bonferroni threshold.
    threshold:
        The count threshold applied.
    """

    candidates: np.ndarray
    estimated_counts: np.ndarray
    significant: np.ndarray
    threshold: float

    def detected(self) -> list[int]:
        """Candidate ids that were significantly detected, best first."""
        order = np.argsort(-self.estimated_counts)
        return [int(self.candidates[i]) for i in order if self.significant[i]]


class RapporAccumulator(Accumulator):
    """Mergeable RAPPOR state: per-(cohort, bit) 1-counts and cohort sizes.

    ``absorb`` takes the ``(cohorts, reports)`` pair that
    :func:`~repro.systems.rappor.client.privatize_population` produces.
    Both tallies are integer-valued, so any sharding of a collection
    merges to bit-identical decodes.  ``finalize`` returns the unbiased
    per-(cohort, bit) Bloom-bit count estimates ``t̂`` (stage 1); the
    aggregator's regression stages read them off the accumulator.

    ``master_seed`` identifies the public cohort Bloom hash families the
    reports were encoded under; merging (or decoding) tallies collected
    under different families would silently misalign bit positions, so
    it is checked like the rest of the configuration.
    """

    _STATE = ("bit_ones", "sizes")

    def __init__(self, params: RapporParams, master_seed: int) -> None:
        self.params = params
        self.master_seed = int(master_seed)
        self._bit_ones = np.zeros(
            (params.num_cohorts, params.num_bits), dtype=np.float64
        )
        self._sizes = np.zeros(params.num_cohorts, dtype=np.int64)
        self._n = 0

    @property
    def cohort_sizes(self) -> np.ndarray:
        """Number of absorbed reports per cohort (read-only snapshot).

        A copy, not a view of the live tallies — the same aliasing fix
        as ``PureAccumulator.support``: a view would silently change
        under the caller after later ``absorb``/``merge`` calls.
        """
        snap = self._sizes.copy()
        snap.flags.writeable = False
        return snap

    def absorb(
        self, reports: tuple[np.ndarray, np.ndarray]
    ) -> "RapporAccumulator":
        params = self.params
        cohorts, rep = reports
        coh = np.asarray(cohorts, dtype=np.int64)
        rep = np.asarray(rep)
        if rep.ndim != 2 or rep.shape[1] != params.num_bits:
            raise ValueError(
                f"reports must have shape (n, {params.num_bits}), got {rep.shape}"
            )
        if coh.shape[0] != rep.shape[0]:
            raise ValueError("cohorts and reports must align")
        if coh.size and (coh.min() < 0 or coh.max() >= params.num_cohorts):
            raise ValueError("cohort index out of range")
        np.add.at(self._bit_ones, coh, rep.astype(np.float64))
        self._sizes += np.bincount(coh, minlength=params.num_cohorts).astype(
            np.int64
        )
        self._n += int(rep.shape[0])
        return self

    def config_fingerprint(self) -> dict:
        params = self.params
        return {
            "num_bits": int(params.num_bits),
            "num_hashes": int(params.num_hashes),
            "num_cohorts": int(params.num_cohorts),
            "f": float(params.f),
            "p": float(params.p),
            "q": float(params.q),
            "master_seed": int(self.master_seed),
        }

    def finalize(self) -> np.ndarray:
        """Stage-1 corrected bit counts ``t̂`` of shape ``(cohorts, m)``.

        Inverts ``E[c_ij] = t_ij q* + (n_i − t_ij) p*`` per cohort; empty
        cohorts yield zero rows.
        """
        params = self.params
        qs, ps = params.q_star, params.p_star
        sizes = self._sizes.astype(np.float64)[:, None]
        t_hat = (self._bit_ones - ps * sizes) / (qs - ps)
        t_hat[self._sizes == 0] = 0.0
        return t_hat


class RapporAggregator:
    """Server-side RAPPOR decoding for a fixed parameter set and seed."""

    def __init__(self, params: RapporParams, master_seed: int) -> None:
        self.params = params
        self.master_seed = int(master_seed)

    def accumulator(self) -> RapporAccumulator:
        """A fresh mergeable bit-count accumulator for this deployment."""
        return RapporAccumulator(self.params, self.master_seed)

    def privacy_spend(self):
        """The deployment's longitudinal declaration (one-time ε∞).

        Collection pipelines charge this per window: because the
        permanent bits are memoized, repeated windows over the same
        population cost ε∞ once, which is RAPPOR's headline guarantee.
        """
        return self.params.privacy_spend(longitudinal=True)

    def stream(
        self,
        cohorts: np.ndarray,
        reports: np.ndarray,
        *,
        window,
        timestamps: np.ndarray | None = None,
        **stream_kwargs,
    ):
        """Longitudinal collection: window an evolving report stream.

        RAPPOR's deployment is the longitudinal regime in the flesh —
        devices keep reporting their (memoized) bits and the analyst
        reads per-window decodes.  This drives the ``(cohorts, bits)``
        batch through the shared windowing engine
        (:func:`repro.protocol.stream_reports`): pass a count-time
        ``WindowSpec`` for arrival windows, or an event-time spec plus
        per-report ``timestamps`` for real-clock windows with watermark
        and late-arrival handling.  The one-time ε∞ declaration is
        charged once for the whole stream (``user_model="same_users"``,
        the default) — replayed permanent bits are free, which is the
        deployment's actual privacy argument.  Returns a
        :class:`~repro.protocol.streaming.StreamResult` whose window
        estimates are the stage-1 corrected bit counts ``t̂`` each
        window's reports produce (what :meth:`decode_accumulated` reads
        off a merged accumulator).
        """
        from repro.protocol.streaming import stream_reports

        return stream_reports(
            self,
            (np.asarray(cohorts), np.asarray(reports)),
            window=window,
            timestamps=timestamps,
            **stream_kwargs,
        )

    # -- stage 1: bit-rate correction --------------------------------------

    def corrected_bit_counts(
        self, cohorts: np.ndarray, reports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unbiased per-(cohort, bit) estimates of true Bloom-bit counts.

        Returns ``(t_hat, cohort_sizes)`` with ``t_hat`` of shape
        ``(num_cohorts, m)``.
        """
        acc = self.accumulator().absorb((cohorts, reports))
        return acc.finalize(), acc.cohort_sizes.copy()

    # -- stage 2: candidate design matrix ----------------------------------

    def design_matrix(self, candidates: np.ndarray) -> np.ndarray:
        """Stacked Bloom patterns: shape ``(num_cohorts · m, #candidates)``."""
        cands = np.asarray(candidates, dtype=np.int64)
        if cands.ndim != 1 or cands.size == 0:
            raise ValueError("candidates must be a non-empty 1-D array")
        if np.unique(cands).size != cands.size:
            raise ValueError("candidates must be distinct")
        blocks = []
        for cohort in range(self.params.num_cohorts):
            bloom = cohort_bloom(self.params, cohort, self.master_seed)
            blocks.append(bloom.encode_batch(cands).T.astype(np.float64))
        return np.vstack(blocks)

    # -- stages 3-4: regression + significance ------------------------------

    def decode(
        self,
        cohorts: np.ndarray,
        reports: np.ndarray,
        candidates: np.ndarray,
        *,
        alpha: float = 0.05,
    ) -> RapporDecodeResult:
        """Full decode of one whole batch: the accumulator path, one-shot."""
        acc = self.accumulator().absorb((cohorts, reports))
        return self.decode_accumulated(acc, candidates, alpha=alpha)

    def decode_accumulated(
        self,
        accumulated: RapporAccumulator,
        candidates: np.ndarray,
        *,
        alpha: float = 0.05,
    ) -> RapporDecodeResult:
        """Decode a (possibly merged) accumulator: NNLS + Bonferroni.

        This is the deployment shape: shard collectors absorb reports
        into :class:`RapporAccumulator` instances, merge them, and the
        analyst decodes the merged state against a candidate list.  An
        accumulator this deployment's own could not merge is refused.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.accumulator()._check_mergeable(accumulated)
        params = self.params
        cands = np.asarray(candidates, dtype=np.int64)
        t_hat = accumulated.finalize()
        sizes = accumulated.cohort_sizes
        design = self.design_matrix(cands)
        target = t_hat.reshape(-1)
        beta, _residual = nnls(design, np.clip(target, 0.0, None))
        estimated = beta * params.num_cohorts

        # Noise floor of one corrected bit count at the observed cohort
        # size: Var[t̂_ij] ≈ n_i · r(1−r)/(q*−p*)², taking the worst-case
        # observed rate r = ½.  A candidate's per-cohort count β_s is
        # measured by its h bits in each of the c cohorts (h·c readings),
        # and the population estimate scales β_s by c:
        # Var[n̂_s] ≈ c² · var_bit/(h·c) = c · var_bit / h.
        qs, ps = params.q_star, params.p_star
        n_bar = float(sizes.mean()) if sizes.size else 0.0
        var_bit = n_bar * 0.25 / (qs - ps) ** 2
        var_candidate = params.num_cohorts * var_bit / max(params.num_hashes, 1)
        z = float(norm.ppf(1.0 - alpha / (2.0 * cands.size)))
        threshold = z * math.sqrt(max(var_candidate, 0.0))
        significant = estimated > threshold
        return RapporDecodeResult(
            candidates=cands,
            estimated_counts=estimated,
            significant=significant,
            threshold=float(threshold),
        )
