"""Abstract interfaces for local mechanisms and frequency oracles.

The tutorial's unifying abstraction (following Wang et al. [21]) is the
**frequency oracle**: a pair of a client-side randomizer and a server-side
estimator such that, for every domain value ``v``, the server can produce
an unbiased estimate of the number of users holding ``v``.  Every deployed
system in the tutorial — RAPPOR, Apple's sketches, Microsoft's histograms —
is a frequency oracle plus engineering.

Interface contract
------------------
* ``privatize(values, rng)`` is the *only* place user data enters; it
  returns an opaque report batch.
* ``estimate_counts(reports)`` returns an unbiased length-``d`` estimate
  of the per-value counts.
* ``count_variance(n, f)`` returns the analytical variance of one count
  estimate — the statistical toolkit (unbiasedness/variance/confidence
  bounds) the tutorial teaches in Section 1.1.
* ``max_privacy_ratio()`` returns the exact worst-case likelihood ratio
  ``max_y P[y|v] / P[y|v']`` which must equal ``e^ε``; the test suite
  audits this for every mechanism.

The **pure protocol** subclass captures mechanisms whose estimator depends
only on per-value *support counts* with constant probabilities ``p*``
(true value supported) and ``q*`` (other value supported); the shared
estimator is ``(C_v − n q*) / (p* − q*)``.

Mergeable accumulators
----------------------
Deployed LDP aggregation is distributed: reports arrive in shards and the
server keeps only a small mergeable summary, never the raw batch.  The
:class:`Accumulator` layer captures that shape — ``absorb(reports)`` folds
a report batch into the summary, ``merge(other)`` combines two summaries,
and ``finalize()`` produces the count estimates.  Every oracle's
``estimate_counts`` routes through its accumulator (one code path), and
:class:`PureAccumulator` keeps only the per-value support counts plus
``n``, so absorbing any sharding of a batch and merging is *exactly*
(bitwise) the whole-batch estimate: support counts are integer-valued and
float64 addition of integers below 2^53 is associative.

``absorb_segments(targets, reports, starts)`` is the *keyed* absorb: a
batch sorted by key (an event-time pane, say) folds each key's segment
into its own accumulator in one call, bit-identical to slicing each
segment out and absorbing it.  A collector that splits every envelope
across several panes pays one decode pass instead of one per pane.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.timed import batch_length, slice_report_batch
from repro.util.rng import ensure_generator
from repro.util.validation import (
    check_domain_values,
    check_epsilon,
    check_positive_int,
    check_segment_starts,
)

__all__ = [
    "Accumulator",
    "LocalMechanism",
    "FrequencyOracle",
    "PureAccumulator",
    "PureFrequencyOracle",
    "HashedReports",
    "IndexedBitReports",
    "postprocess_counts",
]


@dataclass(frozen=True)
class HashedReports:
    """Report batch for local-hashing protocols: ``(hash seed, value)``.

    ``seeds[i]`` identifies user ``i``'s public hash function; ``values[i]``
    is the perturbed hashed value in ``[0, g)``.
    """

    seeds: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.seeds.shape != self.values.shape:
            raise ValueError(
                f"seeds and values must align, got {self.seeds.shape} "
                f"vs {self.values.shape}"
            )

    def __len__(self) -> int:
        return int(self.seeds.shape[0])


@dataclass(frozen=True)
class IndexedBitReports:
    """Report batch for Hadamard-style protocols: ``(index, ±1 bit)``."""

    indices: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.bits.shape:
            raise ValueError(
                f"indices and bits must align, got {self.indices.shape} "
                f"vs {self.bits.shape}"
            )

    def __len__(self) -> int:
        return int(self.indices.shape[0])


class Accumulator(ABC):
    """Mergeable server-side aggregation state for a frequency oracle.

    An accumulator is the only thing a collector has to keep: report
    batches are folded in with :meth:`absorb` and discarded, partial
    accumulators from different shards (machines, time windows) are
    combined with :meth:`merge`, and :meth:`finalize` produces the same
    estimates the one-shot batch API returns.  The algebra is a
    commutative monoid — ``absorb``/``merge`` in any grouping must yield
    the same final state — which is what makes sharded and streaming
    collection a pure refactoring of whole-batch estimation.

    The API contract is *non-destructive* (property-tested for every
    registered oracle and system stack):

    * :meth:`finalize` is pure and idempotent — it never mutates the
      state, so it can be called repeatedly (the streaming collector
      snapshots a live accumulator this way);
    * ``a.merge(b)`` mutates only ``a``; ``b`` is left bitwise unchanged
      and remains usable;
    * :meth:`copy` yields an independent accumulator — absorbing into
      the copy never shows through the original;
    * :meth:`to_bytes` / :meth:`from_bytes` round-trip the state through
      a versioned wire format (see :mod:`repro.core.serialization`) so
      summaries can cross process and machine boundaries; payloads carry
      the producing configuration's fingerprint and deserialization
      rejects mismatches.

    The state is a set of additive tallies: a concrete accumulator
    declares their names in ``_STATE`` (array ``name`` lives in
    ``self._<name>``), and this base class merges, copies, serializes
    and stacks exactly those arrays.  One rule decides compatibility —
    equal :meth:`config_fingerprint` — for merges and for state
    arriving from elsewhere alike.
    """

    #: State array names, in wire order.  No default: an accumulator
    #: that declared none would merge by dropping its state.
    _STATE: tuple[str, ...]
    _n: int = 0

    @property
    def n_absorbed(self) -> int:
        """Total number of user reports folded into this accumulator."""
        return self._n

    @abstractmethod
    def absorb(self, reports: Any) -> "Accumulator":
        """Fold one report batch into the state; returns ``self``."""

    @classmethod
    def absorb_segments(
        cls, targets: Sequence["Accumulator"], reports: Any, starts
    ) -> None:
        """Keyed absorb: ``targets[i]`` absorbs ``reports[starts[i]:starts[i + 1]]``.

        ``reports`` is sorted by key and ``starts`` holds each key
        segment's first offset (the last segment runs to the end of the
        batch; see :func:`repro.core.timed.split_by_key`).  Targets may
        already hold state and may repeat.  The result is bit-identical,
        in state and ``n``, to slicing each segment and calling
        :meth:`absorb` — which is exactly what this default does;
        accumulators with a one-pass decode override it.
        """
        bounds = _segment_bounds(starts, batch_length(reports), targets)
        for target, lo, hi in zip(targets, bounds, bounds[1:]):
            target.absorb(slice_report_batch(reports, slice(lo, hi)))

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Fold another compatible accumulator in; returns ``self``.

        Adds each of ``other``'s state arrays into this one's, in
        place, then its count.  ``other`` is read, never written: it
        stays bitwise unchanged.
        """
        self._check_mergeable(other)
        for name, own in self._state_arrays().items():
            own += getattr(other, f"_{name}")
        self._n += other._n
        return self

    @abstractmethod
    def finalize(self) -> np.ndarray:
        """Unbiased count estimates from the accumulated state.

        Pure: repeated calls return the same result and the accumulator
        keeps absorbing/merging afterwards as if never finalized.
        """

    def _check_mergeable(self, other: "Accumulator") -> None:
        """Refuse another accumulator type (``TypeError``) or configuration."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        self._check_fingerprint(
            type(other).__name__, other.config_fingerprint(), "accumulator"
        )

    def _check_fingerprint(self, kind: str, config: dict, source: str) -> None:
        """Refuse state produced under another configuration (``ValueError``).

        The one compatibility rule, shared by :meth:`merge`,
        :meth:`from_bytes`, the service combiner's ship receipt and the
        RAPPOR decode: state is accepted only from the same accumulator
        class (``kind``) under an equal :meth:`config_fingerprint`.
        """
        own = self.config_fingerprint()
        if kind != type(self).__name__ or config != own:
            raise ValueError(
                f"{source} was produced under a different configuration "
                f"({source} {kind} {config!r} vs receiver "
                f"{type(self).__name__} {own!r})"
            )

    # -- state -------------------------------------------------------------

    @abstractmethod
    def config_fingerprint(self) -> dict:
        """JSON-able identity of the producing configuration.

        Two accumulators may be merged (or a payload hydrated) only when
        their fingerprints are equal — same oracle family, domain size,
        ε, sketch geometry, hash seeds, candidate list, and so on.
        """

    def _state_arrays(self) -> dict[str, np.ndarray]:
        """The complete mutable state as named arrays, in ``_STATE`` order."""
        return {name: getattr(self, f"_{name}") for name in self._STATE}

    def _load_state(self, arrays: dict[str, np.ndarray], n: int) -> None:
        """Replace the state with already-validated arrays plus the count."""
        for name in self._STATE:
            setattr(self, f"_{name}", arrays[name])
        self._n = int(n)

    def _checked_arrays(
        self, arrays: dict[str, np.ndarray], rows: int | None = None
    ) -> dict[str, np.ndarray]:
        """Match incoming arrays against this accumulator's state layout.

        With ``rows`` the arrays are that many states stacked on a
        leading axis (the layout :meth:`stack_rows` writes).
        """
        own = self._state_arrays()
        if set(arrays) != set(own):
            raise ValueError(
                f"state arrays {sorted(arrays)} do not match the expected "
                f"layout {sorted(own)}"
            )
        for name, current in own.items():
            incoming = arrays[name]
            expected = current.shape if rows is None else (rows, *current.shape)
            if incoming.shape != expected:
                raise ValueError(
                    f"state array {name!r} has shape {incoming.shape}, "
                    f"expected {expected}"
                )
        return {
            name: np.ascontiguousarray(arr, dtype=own[name].dtype)
            for name, arr in arrays.items()
        }

    # -- non-destructive algebra -------------------------------------------

    def copy(self) -> "Accumulator":
        """An independent deep copy (shares only the immutable config)."""
        import copy as _copy

        dup = _copy.copy(self)
        dup._load_state(
            {name: arr.copy() for name, arr in self._state_arrays().items()},
            self._n,
        )
        return dup

    def to_bytes(self) -> bytes:
        """Serialize state + config fingerprint to the versioned wire format."""
        from repro.core.serialization import pack_accumulator_state

        return pack_accumulator_state(
            type(self).__name__,
            self.config_fingerprint(),
            self._n,
            self._state_arrays(),
        )

    def stack_rows(
        self, accumulators: Sequence["Accumulator"]
    ) -> dict[str, np.ndarray]:
        """The states of ``accumulators`` stacked into read-only rows.

        Each state array becomes one ``(P, *shape)`` array holding the
        ``P`` accumulators' states in order.  They must share this
        accumulator's configuration (its layout names the arrays, so
        ``P`` may be 0).  Their counts travel separately; the inverse is
        :meth:`unstack_rows`.
        """
        rows = {}
        for name, own in self._state_arrays().items():
            stacked = np.empty((len(accumulators), *own.shape), dtype=own.dtype)
            for i, acc in enumerate(accumulators):
                stacked[i] = acc._state_arrays()[name]
            stacked.setflags(write=False)
            rows[name] = stacked
        return rows

    def unstack_rows(
        self, rows: dict[str, np.ndarray], n: np.ndarray
    ) -> list["Accumulator"]:
        """Fresh accumulators of this configuration, one per stacked row.

        The inverse of :meth:`stack_rows`: ``n`` holds each row's report
        count.  Everything is checked before anything is built — ``n``
        must be non-negative integers, and the rows must match this
        accumulator's layout with ``len(n)`` on the leading axis.  Each
        accumulator holds a *copy* of its row, never a view, so the rows
        can be unstacked again (a redelivered ship) without aliasing.
        """
        import copy as _copy

        counts = np.asarray(n)
        if (
            counts.ndim != 1
            or not np.issubdtype(counts.dtype, np.integer)
            or np.any(counts < 0)
        ):
            raise ValueError(f"row counts {counts!r:.80} are not integers >= 0")
        checked = self._checked_arrays(rows, rows=counts.shape[0])
        parts = []
        for i, count in enumerate(counts.tolist()):
            part = _copy.copy(self)
            part._load_state(
                {name: arr[i].copy() for name, arr in checked.items()}, count
            )
            parts.append(part)
        return parts

    def from_bytes(self, payload: bytes) -> "Accumulator":
        """Hydrate this *empty* accumulator from a wire payload; returns self.

        The canonical shape is ``oracle.accumulator().from_bytes(data)``:
        the receiver builds a fresh accumulator from its own configuration
        and the payload must agree — ``kind`` (accumulator class) and the
        full config fingerprint are compared and mismatches rejected, so
        state collected under a different deployment can never be folded
        in silently.
        """
        from repro.core.serialization import unpack_accumulator_state

        if self._n != 0:
            raise ValueError(
                "from_bytes requires a fresh accumulator "
                f"(this one already absorbed {self._n} reports)"
            )
        decoded = unpack_accumulator_state(payload)
        self._check_fingerprint(decoded.kind, decoded.config, "payload")
        if decoded.n < 0:
            raise ValueError(f"payload reports negative n ({decoded.n})")
        self._load_state(self._checked_arrays(decoded.arrays), decoded.n)
        return self


class LocalMechanism(ABC):
    """Base class for anything that randomizes a single user's datum."""

    def __init__(self, epsilon: float) -> None:
        self._epsilon = check_epsilon(epsilon)

    @property
    def epsilon(self) -> float:
        """The ε-LDP guarantee of one invocation."""
        return self._epsilon

    def privacy_spend(self) -> "SpendDeclaration":
        """The declared cost of one report from this mechanism.

        The default declaration is a *fresh* ``(ε, 0)`` release per
        report: collecting the same user again composes round by round.
        Mechanisms whose privacy argument rests on memoized randomness
        (RAPPOR's permanent bits, Microsoft's memoized rounds) override
        this with a ``one_time`` declaration, which a
        :class:`~repro.core.budget.PrivacyLedger` charges exactly once.
        Collection pipelines call this instead of reading ``epsilon``
        directly, so the accounting rule travels with the mechanism.
        """
        from repro.core.budget import SpendDeclaration

        return SpendDeclaration(
            epsilon=self._epsilon,
            delta=0.0,
            scope="per_report",
            mechanism=type(self).__name__,
        )

    @abstractmethod
    def max_privacy_ratio(self) -> float:
        """Exact worst-case likelihood ratio over outputs and input pairs.

        An ε-LDP mechanism must return exactly ``exp(ε)`` (up to float
        round-off); returning less means the implementation wastes budget,
        more means it violates the guarantee.
        """


class FrequencyOracle(LocalMechanism):
    """A local randomizer plus an unbiased per-value count estimator."""

    def __init__(self, domain_size: int, epsilon: float) -> None:
        super().__init__(epsilon)
        self._domain_size = check_positive_int(domain_size, name="domain_size")
        if self._domain_size < 2:
            raise ValueError(
                f"domain_size must be >= 2 for a frequency oracle, got {domain_size}"
            )

    @property
    def domain_size(self) -> int:
        """Number of categorical values ``d`` in the registered domain."""
        return self._domain_size

    # -- client side ------------------------------------------------------

    @abstractmethod
    def privatize(
        self, values: Sequence[int] | np.ndarray, rng: np.random.Generator | int | None = None
    ) -> Any:
        """Randomize one value per user; returns an opaque report batch."""

    def privatize_chunks(
        self,
        values: Sequence[int] | np.ndarray,
        chunk_size: int,
        rng: np.random.Generator | int | None = None,
    ) -> list:
        """One report batch per ``chunk_size`` chunk of ``values``, in order.

        Equal to :meth:`privatize` on each chunk in turn, all drawing from
        one generator, which is what this default does; an oracle may
        override it to share work across the chunks.
        """
        gen = ensure_generator(rng)
        vals = np.asarray(values)
        size = check_positive_int(chunk_size, name="chunk_size")
        return [
            self.privatize(vals[start : start + size], rng=gen)
            for start in range(0, vals.shape[0], size)
        ]

    def _prepare(
        self, values: Sequence[int] | np.ndarray, rng: np.random.Generator | int | None
    ) -> tuple[np.ndarray, np.random.Generator]:
        """Validate raw values and normalize the rng argument."""
        vals = check_domain_values(values, self._domain_size)
        return vals, ensure_generator(rng)

    # -- server side ------------------------------------------------------

    @abstractmethod
    def accumulator(self) -> Accumulator:
        """A fresh, empty mergeable accumulator for this oracle's reports."""

    def estimate_counts(self, reports: Any) -> np.ndarray:
        """Unbiased estimate of per-value counts from a report batch.

        This is the one-shot convenience wrapper over the accumulator
        path — there is exactly one estimation code path.
        """
        return self.accumulator().absorb(reports).finalize()

    @abstractmethod
    def num_reports(self, reports: Any) -> int:
        """Number of user reports in a batch."""

    def estimate_frequencies(
        self, reports: Any, *, postprocess: str = "none"
    ) -> np.ndarray:
        """Per-value frequency estimates, optionally projected to a simplex.

        ``postprocess`` is one of ``"none"`` (raw unbiased, may dip below
        zero), ``"clip"`` (clamp to ≥0 then renormalize) or ``"normsub"``
        (additive renormalization over the positive support — the standard
        consistency step from the heavy-hitter literature).
        """
        n = self.num_reports(reports)
        raw = self.estimate_counts(reports) / n
        return postprocess_counts(raw, postprocess)

    # -- statistical toolkit ----------------------------------------------

    @abstractmethod
    def count_variance(self, n: int, f: float = 0.0) -> float:
        """Analytical variance of one count estimate.

        ``n`` is the population size, ``f`` the true frequency of the value
        (the leading term is frequency-independent for all oracles here, so
        ``f=0`` gives the standard comparison number).
        """

    def count_stddev(self, n: int, f: float = 0.0) -> float:
        """Convenience square root of :meth:`count_variance`."""
        return math.sqrt(self.count_variance(n, f))

    def confidence_halfwidth(self, n: int, *, alpha: float = 0.05, f: float = 0.0) -> float:
        """Normal-approximation two-sided CI half-width for one count.

        Uses the analytical variance; at the populations deployed systems
        operate at (millions of users) the CLT approximation the tutorial
        teaches is accurate.  Requires ``scipy`` (the only scipy use on
        the core estimation path); minimal installs can use
        :func:`repro.core.estimation.hoeffding_count_bound` instead.
        """
        try:
            from scipy.stats import norm
        except ImportError as exc:
            raise ImportError(
                "confidence_halfwidth needs scipy (scipy.stats.norm) for the "
                "normal quantile; install scipy, or use the scipy-free "
                "repro.core.estimation.hoeffding_count_bound"
            ) from exc

        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        z = float(norm.ppf(1.0 - alpha / 2.0))
        return z * self.count_stddev(n, f)


class PureFrequencyOracle(FrequencyOracle):
    """Frequency oracle in the *pure protocol* framework of Wang et al. [21].

    Subclasses define the support-count path (``p_star``, ``q_star`` and
    :meth:`support_counts`); this base supplies the shared unbiased
    estimator and its variance.
    """

    @property
    @abstractmethod
    def p_star(self) -> float:
        """Probability the true value is in the report's support set."""

    @property
    @abstractmethod
    def q_star(self) -> float:
        """Probability any *other* value is in the support set."""

    @abstractmethod
    def support_counts(self, reports: Any) -> np.ndarray:
        """Per-value support counts ``C_v`` from a report batch."""

    def accumulator(self, candidates: np.ndarray | None = None) -> "PureAccumulator":
        """A fresh support-count accumulator.

        With ``candidates`` the accumulator tracks support for those
        values only — the shape heavy-hitter search and massive-domain
        decoding need, at the cost the oracle's ``support_counts_for``
        charges rather than a full-domain pass.
        """
        return PureAccumulator(self, candidates)

    def support_counts_for(self, reports: Any, candidates: np.ndarray) -> np.ndarray:
        """Support counts restricted to a candidate list.

        The default materializes the full domain and indexes into it,
        which is fine for small domains; oracles designed for massive
        domains (local hashing, Hadamard) override this with a direct
        per-candidate computation — the primitive heavy-hitter search and
        unknown-dictionary decoding are built on.
        """
        cands = check_domain_values(candidates, self._domain_size, name="candidates")
        return self.support_counts(reports)[cands]

    def segment_support_counts(
        self, reports: Any, candidates: np.ndarray | None, starts
    ) -> np.ndarray:
        """``(k, d)`` support counts, row ``i`` over one key segment.

        ``reports`` is sorted by key and segment ``i`` is
        ``reports[starts[i]:starts[i + 1]]`` (the last runs to the end);
        ``candidates=None`` counts the whole domain.  This default makes
        the support call :meth:`PureAccumulator.absorb` makes, once per
        slice; oracles with a one-pass decode override it.
        """
        bounds = _segment_bounds(starts, self.num_reports(reports))
        width = self._domain_size if candidates is None else len(candidates)
        counts = np.zeros((len(bounds) - 1, width), dtype=np.float64)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            part = slice_report_batch(reports, slice(lo, hi))
            counts[i] = (
                self.support_counts(part)
                if candidates is None
                else self.support_counts_for(part, candidates)
            )
        return counts

    def estimate_counts_for(self, reports: Any, candidates: np.ndarray) -> np.ndarray:
        """Unbiased count estimates for selected candidate values only."""
        return self.accumulator(candidates).absorb(reports).finalize()

    def count_variance(self, n: int, f: float = 0.0) -> float:
        """Exact variance of the pure estimator at true frequency ``f``.

        ``Var = [n_v p*(1−p*) + (n−n_v) q*(1−q*)] / (p* − q*)²`` with
        ``n_v = f n``; at ``f = 0`` this is the familiar
        ``n q*(1−q*) / (p* − q*)²`` used to rank oracles.
        """
        check_positive_int(n, name="n")
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"f must be in [0, 1], got {f}")
        p, q = self.p_star, self.q_star
        nv = f * n
        return (nv * p * (1.0 - p) + (n - nv) * q * (1.0 - q)) / (p - q) ** 2


class PureAccumulator(Accumulator):
    """Shared mergeable state for pure-protocol oracles.

    The entire summary is the per-value support-count vector plus the
    number of absorbed reports — a few KB regardless of population size.
    Support counts are integer-valued, so any absorb/merge grouping of a
    batch finalizes to bit-identical estimates.

    Subclasses may keep a different internal state vector (the Hadamard
    oracle accumulates in the transform domain) by overriding
    ``_state_width``, ``absorb`` and the ``support`` property; the merge
    checks, state addition and final estimator are shared.
    """

    _STATE = ("state",)

    def __init__(
        self, oracle: PureFrequencyOracle, candidates: np.ndarray | None = None
    ) -> None:
        self._oracle = oracle
        if candidates is None:
            self._candidates: np.ndarray | None = None
        else:
            self._candidates = check_domain_values(
                candidates, oracle.domain_size, name="candidates"
            )
        self._state = np.zeros(self._state_width(), dtype=np.float64)
        self._n = 0

    def _state_width(self) -> int:
        if self._candidates is None:
            return self._oracle.domain_size
        return int(self._candidates.shape[0])

    @property
    def support(self) -> np.ndarray:
        """Accumulated per-value support counts (read-only snapshot).

        A *copy* of the state (it is only ``d`` floats), not a view:
        a view would silently change under the caller's feet after
        later ``absorb``/``merge`` calls.
        """
        snap = self._state.copy()
        snap.flags.writeable = False
        return snap

    def absorb(self, reports: Any) -> "PureAccumulator":
        if self._candidates is None:
            self._state += self._oracle.support_counts(reports)
        else:
            self._state += self._oracle.support_counts_for(
                reports, self._candidates
            )
        self._n += self._oracle.num_reports(reports)
        return self

    @classmethod
    def absorb_segments(
        cls, targets: Sequence[Accumulator], reports: Any, starts
    ) -> None:
        """One segmented support-count pass for the whole batch.

        When every target is a plain :class:`PureAccumulator` over the
        same oracle and candidate list, the oracle's
        :meth:`~PureFrequencyOracle.segment_support_counts` decodes all
        segments at once and each target adds its row — the same float
        additions :meth:`absorb` makes, so the result is bit-identical.
        Anything else (a subclass that overrides :meth:`absorb`, such as
        the transform-domain Hadamard accumulator, or mixed targets)
        takes the per-slice default.
        """
        first = targets[0] if targets else None
        if first is None or not all(
            type(t) is PureAccumulator
            and t._oracle is first._oracle
            and _same_candidates(t._candidates, first._candidates)
            for t in targets
        ):
            super().absorb_segments(targets, reports, starts)
            return
        oracle = first._oracle
        bounds = _segment_bounds(starts, oracle.num_reports(reports), targets)
        counts = oracle.segment_support_counts(reports, first._candidates, starts)
        for target, row, lo, hi in zip(targets, counts, bounds, bounds[1:]):
            target._state += row
            target._n += hi - lo

    def finalize(self) -> np.ndarray:
        """Shared pure-protocol estimator ``(C_v − n q*) / (p* − q*)``."""
        p, q = self._oracle.p_star, self._oracle.q_star
        return (self.support - self._n * q) / (p - q)

    def config_fingerprint(self) -> dict:
        return {
            "oracle": type(self._oracle).__name__,
            "domain_size": int(self._oracle.domain_size),
            "epsilon": float(self._oracle.epsilon),
            "p_star": float(self._oracle.p_star),
            "q_star": float(self._oracle.q_star),
            "candidates": (
                None
                if self._candidates is None
                else [int(c) for c in self._candidates]
            ),
        }


def _same_candidates(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether two accumulators track the same candidate list (or both none)."""
    if a is None or b is None:
        return a is b
    return a is b or np.array_equal(a, b)


def _segment_bounds(
    starts, n: int, targets: Sequence[Accumulator] | None = None
) -> list[int]:
    """Checked ``[*starts, n]`` segment bounds (one segment per target)."""
    offsets = check_segment_starts(starts, n)
    if targets is not None and offsets.shape[0] != len(targets):
        raise ValueError(
            f"{len(targets)} targets for {offsets.shape[0]} key segments"
        )
    return np.append(offsets, n).tolist()


def postprocess_counts(raw: np.ndarray, method: str = "none") -> np.ndarray:
    """Project raw frequency estimates onto (or toward) the simplex.

    ``"none"`` returns the input unchanged; ``"clip"`` zeroes negatives and
    rescales to sum 1; ``"normsub"`` iteratively subtracts a constant from
    the positive entries until they sum to 1 with the rest zero (the
    norm-sub consistency step).  Both projections preserve more accuracy
    than truncation alone on skewed distributions.
    """
    est = np.asarray(raw, dtype=np.float64)
    if method == "none":
        return est.copy()
    if method == "clip":
        clipped = np.clip(est, 0.0, None)
        total = clipped.sum()
        if total <= 0.0:
            return np.full_like(est, 1.0 / est.size)
        return clipped / total
    if method == "normsub":
        work = est.copy()
        for _ in range(est.size + 1):
            positive = work > 0.0
            npos = int(positive.sum())
            if npos == 0:
                return np.full_like(est, 1.0 / est.size)
            shift = (1.0 - work[positive].sum()) / npos
            work = np.where(positive, work + shift, 0.0)
            if np.all(work >= -1e-12):
                break
            work = np.clip(work, 0.0, None)
        work = np.clip(work, 0.0, None)
        total = work.sum()
        return work / total if total > 0 else np.full_like(est, 1.0 / est.size)
    raise ValueError(f"unknown postprocess method {method!r}")
