"""Property tests for the non-destructive accumulator contract.

Three promises every accumulator in the repo makes (core oracles *and*
the system stacks), checked here for arbitrary shardings:

* ``finalize()`` is pure and idempotent — repeated calls agree bitwise
  and the state keeps absorbing/merging afterwards;
* ``merge(other)`` leaves ``other`` bitwise unchanged (compared through
  the wire format, which captures the complete state);
* ``from_bytes(to_bytes(acc))`` round-trips to identical estimates, and
  payloads from differently configured producers are rejected.

The keyed absorb (``absorb_segments``) is pinned against its reference,
one ``absorb`` per key slice, for every oracle and system stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimation import ORACLE_REGISTRY, make_oracle
from repro.core.mechanism import PureFrequencyOracle
from repro.core.timed import split_by_key
from repro.systems.apple import CountMeanSketch, HadamardCountMeanSketch
from repro.systems.apple.cms import CmsReports, HcmsReports
from repro.systems.microsoft import DBitFlip, OneBitMean
from repro.systems.microsoft.dbitflip import DBitFlipReports
from repro.systems.rappor import RapporAggregator, RapporParams, privatize_population


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
@given(
    report_seed=st.integers(0, 2**31),
    split=st.integers(1, 119),
)
@settings(max_examples=8, deadline=None)
def test_core_accumulator_contract(name, slice_reports, report_seed, split):
    oracle = make_oracle(name, 9, 1.3)
    values = np.random.default_rng(report_seed).integers(0, 9, size=120)
    reports = oracle.privatize(values, rng=report_seed)
    whole = oracle.estimate_counts(reports)

    mask = np.zeros(120, dtype=bool)
    mask[:split] = True
    a = oracle.accumulator().absorb(slice_reports(reports, mask))
    b = oracle.accumulator().absorb(slice_reports(reports, ~mask))

    # finalize before the merge must not corrupt a's state...
    pre = a.finalize()
    assert np.array_equal(pre, a.finalize())

    b_wire = b.to_bytes()
    a.merge(b)
    # ...merge must not touch b...
    assert b.to_bytes() == b_wire
    assert b.n_absorbed == 120 - split

    # ...and the merged state finalizes (twice, identically) to the batch.
    out = a.finalize()
    assert np.array_equal(out, a.finalize())
    assert np.array_equal(out, whole)

    # Wire round-trip: identical estimates and count.
    restored = oracle.accumulator().from_bytes(a.to_bytes())
    assert restored.n_absorbed == 120
    assert np.array_equal(restored.finalize(), out)

    # copy() is independent: absorbing into the copy leaves the original.
    dup = a.copy()
    dup.absorb(slice_reports(reports, mask))
    assert np.array_equal(a.finalize(), out)
    assert dup.n_absorbed == 120 + split


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
def test_serialization_rejects_mismatched_configs(name):
    oracle = make_oracle(name, 9, 1.3)
    other_eps = make_oracle(name, 9, 2.6)
    other_dom = make_oracle(name, 12, 1.3)
    payload = oracle.accumulator().absorb(
        oracle.privatize(np.arange(9), rng=1)
    ).to_bytes()
    with pytest.raises(ValueError):
        other_eps.accumulator().from_bytes(payload)
    with pytest.raises(ValueError):
        other_dom.accumulator().from_bytes(payload)
    # A non-empty receiver must refuse to be overwritten.
    busy = oracle.accumulator().absorb(oracle.privatize(np.arange(9), rng=2))
    with pytest.raises(ValueError):
        busy.from_bytes(payload)
    with pytest.raises(ValueError):
        oracle.accumulator().from_bytes(b"not an accumulator payload")


def test_unpack_rejects_header_missing_fields_as_valueerror():
    # A payload whose header parses as JSON but lacks required fields
    # must reject as malformed (ValueError), never escape as KeyError —
    # combiners catch ValueError to drop bad remote summaries.
    import json as _json
    import struct

    from repro.core.serialization import MAGIC, WIRE_VERSION, unpack_accumulator_state

    header = _json.dumps({"kind": "PureAccumulator"}).encode("utf-8")
    payload = struct.pack("<4sBI", MAGIC, WIRE_VERSION, len(header)) + header
    with pytest.raises(ValueError, match="missing required fields"):
        unpack_accumulator_state(payload)


def _system_cases():
    """(label, accumulator factory, report batch, slicer) per system stack."""
    gen = np.random.default_rng(101)

    cms = CountMeanSketch(300, 2.0, k=4, m=64, master_seed=3)
    cms_reports = cms.privatize(gen.integers(0, 300, 800), rng=4)

    hcms = HadamardCountMeanSketch(300, 2.0, k=4, m=64, master_seed=3)
    hcms_reports = hcms.privatize(gen.integers(0, 300, 800), rng=5)

    params = RapporParams(num_bits=32, num_hashes=2, num_cohorts=4)
    rappor = RapporAggregator(params, 6)
    cohorts, bits = privatize_population(
        params, gen.integers(0, 20, 600), 6, rng=7
    )

    db = DBitFlip(num_buckets=24, d=6, epsilon=1.0)
    db_reports = db.privatize(gen.integers(0, 24, 700), rng=8)

    ob = OneBitMean(50.0, 1.0)
    ob_bits = ob.privatize(gen.uniform(0, 50, 500), rng=9)

    return [
        (
            "cms",
            cms.accumulator,
            cms_reports,
            lambda r, m: CmsReports(
                hash_indices=r.hash_indices[m], rows=r.rows[m]
            ),
        ),
        (
            "hcms",
            hcms.accumulator,
            hcms_reports,
            lambda r, m: HcmsReports(
                hash_indices=r.hash_indices[m], coords=r.coords[m], bits=r.bits[m]
            ),
        ),
        (
            "rappor",
            rappor.accumulator,
            (cohorts, bits),
            lambda r, m: (r[0][m], r[1][m]),
        ),
        (
            "dbitflip",
            db.accumulator,
            db_reports,
            lambda r, m: DBitFlipReports(
                bucket_indices=r.bucket_indices[m], bits=r.bits[m]
            ),
        ),
        ("onebit", ob.accumulator, ob_bits, lambda r, m: r[m]),
    ]


_SYSTEM_CASES = _system_cases()  # built once; parametrize + ids share it


@pytest.mark.parametrize(
    "label,factory,reports,slicer",
    _SYSTEM_CASES,
    ids=[c[0] for c in _SYSTEM_CASES],
)
def test_system_accumulator_contract(label, factory, reports, slicer):
    if isinstance(reports, tuple):
        n = reports[0].shape[0]
    else:
        n = len(reports)
    mask = np.random.default_rng(11).random(n) < 0.5

    whole = factory().absorb(reports).finalize()
    a = factory().absorb(slicer(reports, mask))
    b = factory().absorb(slicer(reports, ~mask))

    b_wire = b.to_bytes()
    a.merge(b)
    assert b.to_bytes() == b_wire  # merge left its argument untouched

    out = a.finalize()
    assert np.array_equal(out, a.finalize())  # idempotent
    assert np.array_equal(out, whole)  # integer tallies: bitwise

    restored = factory().from_bytes(a.to_bytes())
    assert restored.n_absorbed == n
    assert np.array_equal(restored.finalize(), out)

    dup = a.copy()
    dup.absorb(slicer(reports, mask))
    assert np.array_equal(a.finalize(), out)  # copy is independent


def test_system_serialization_rejects_mismatched_configs():
    a = CountMeanSketch(100, 2.0, k=4, m=64, master_seed=1)
    b = CountMeanSketch(100, 2.0, k=4, m=64, master_seed=2)
    payload = a.accumulator().absorb(
        a.privatize(np.arange(100), rng=1)
    ).to_bytes()
    with pytest.raises(ValueError):
        b.accumulator().from_bytes(payload)
    # Cross-kind hydration is refused even before configs are compared.
    hcms = HadamardCountMeanSketch(100, 2.0, k=4, m=64, master_seed=1)
    with pytest.raises(ValueError):
        hcms.accumulator().from_bytes(payload)


# -- keyed absorb --------------------------------------------------------------


@st.composite
def _keys(draw, n):
    """One key per report: one segment, one report per segment, or random."""
    shape = draw(st.sampled_from(["one", "singletons", "random"]))
    if shape == "one":
        return np.full(n, draw(st.integers(-3, 3)))
    if shape == "singletons":
        return np.random.default_rng(draw(st.integers(0, 99))).permutation(n) - 5
    return np.asarray(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))


def _check_keyed_absorb(factory, reports, slicer, keys, warm, prefill, share):
    """``absorb_segments`` against per-key ``absorb``, via ``to_bytes``.

    Targets may already hold state (``prefill``: absorb ``warm`` first)
    and may repeat (segment ``i`` folds into target ``i % share``).
    """
    order, starts = split_by_key(keys)
    segments = keys[order[starts]]

    def targets():
        accs = [factory() for _ in range(share)]
        for acc, pre in zip(accs, prefill):
            if pre:
                acc.absorb(warm)
        return accs

    keyed = targets()
    looped = targets()
    keyed[0].absorb_segments(
        [keyed[i % share] for i in range(len(starts))],
        slicer(reports, order),
        starts,
    )
    for i, key in enumerate(segments):
        looped[i % share].absorb(slicer(reports, keys == key))
    assert [acc.to_bytes() for acc in keyed] == [acc.to_bytes() for acc in looped]


#: (oracle, candidate list) pairs; only pure oracles restrict to candidates.
_KEYED_CASES = [(name, None) for name in sorted(ORACLE_REGISTRY)] + [
    (name, (1, 4, 7))
    for name in sorted(ORACLE_REGISTRY)
    if issubclass(ORACLE_REGISTRY[name], PureFrequencyOracle)
]


@pytest.mark.parametrize("name,candidates", _KEYED_CASES)
@given(
    report_seed=st.integers(0, 2**31),
    data=st.data(),
    prefill=st.lists(st.booleans(), min_size=3, max_size=3),
    share=st.integers(1, 3),
)
@settings(max_examples=8, deadline=None)
def test_core_absorb_segments_equals_per_slice_absorb(
    name, candidates, slice_reports, report_seed, data, prefill, share
):
    oracle = make_oracle(name, 9, 1.3)
    values = np.random.default_rng(report_seed).integers(0, 9, size=60)
    reports = oracle.privatize(values, rng=report_seed)
    warm = oracle.privatize(values[:7], rng=report_seed + 1)
    factory = (
        oracle.accumulator
        if candidates is None
        else lambda: oracle.accumulator(np.array(candidates))
    )
    _check_keyed_absorb(
        factory, reports, slice_reports, data.draw(_keys(60)), warm, prefill, share
    )


@pytest.mark.parametrize(
    "label,factory,reports,slicer",
    _SYSTEM_CASES,
    ids=[c[0] for c in _SYSTEM_CASES],
)
@given(data=st.data(), prefill=st.lists(st.booleans(), min_size=2, max_size=2))
@settings(max_examples=6, deadline=None)
def test_system_absorb_segments_equals_per_slice_absorb(
    label, factory, reports, slicer, data, prefill
):
    n = reports[0].shape[0] if isinstance(reports, tuple) else len(reports)
    warm = slicer(reports, np.arange(n) < 9)
    keys = data.draw(_keys(n))
    _check_keyed_absorb(factory, reports, slicer, keys, warm, prefill, 2)


def test_absorb_segments_refuses_bad_starts():
    oracle = make_oracle("OLH", 9, 1.3)
    reports = oracle.privatize(np.arange(9), rng=1)
    for starts, count in (([1, 4], 2), ([0, 4, 4], 3), ([0, 9], 2), ([0, 3], 3)):
        targets = [oracle.accumulator() for _ in range(count)]
        with pytest.raises(ValueError):
            targets[0].absorb_segments(targets, reports, starts)
        assert all(acc.n_absorbed == 0 for acc in targets)


# -- one compatibility rule ------------------------------------------------------


def _agreement_pairs():
    """(label, factory of ``a``, ``b`` holding state), one field apart.

    The label's suffix names the field ``b``'s configuration changes;
    ``same`` pairs change none.
    """
    from repro.core.local_hashing import BinaryLocalHashing, OptimalLocalHashing
    from repro.systems.microsoft.repeated import _PerturbedOneBitAccumulator

    gen = np.random.default_rng(17)
    pairs = []

    def add(label, factory, other, reports):
        pairs.append((label, factory, other.absorb(reports)))

    values = gen.integers(0, 9, 40)
    for name in sorted(ORACLE_REGISTRY):
        base = make_oracle(name, 9, 1.3)
        for field, oracle in (
            ("same", make_oracle(name, 9, 1.3)),
            ("epsilon", make_oracle(name, 9, 2.6)),
            ("domain", make_oracle(name, 12, 1.3)),
        ):
            add(f"{name}-{field}", base.accumulator, oracle.accumulator(),
                oracle.privatize(values, rng=1))
        if isinstance(base, PureFrequencyOracle):
            reports = base.privatize(values, rng=2)
            picked = lambda o=base: o.accumulator(np.array([1, 4, 7]))  # noqa: E731
            add(f"{name}/cands-same", picked,
                base.accumulator(np.array([1, 4, 7])), reports)
            add(f"{name}/cands-candidates", picked,
                base.accumulator(np.array([1, 4, 8])), reports)
            add(f"{name}/cands-full-domain", picked, base.accumulator(), reports)
    # Equal p* and q*: only the oracle name in the fingerprint tells them apart.
    olh, blh = OptimalLocalHashing(16, 1.0, g=2), BinaryLocalHashing(16, 1.0)
    add("OLH(g=2)-BLH-oracle", olh.accumulator, blh.accumulator(),
        blh.privatize(np.arange(16), rng=3))
    add("BLH-OLH(g=2)-oracle", blh.accumulator, olh.accumulator(),
        olh.privatize(np.arange(16), rng=3))

    values = gen.integers(0, 100, 200)
    for cls in (CountMeanSketch, HadamardCountMeanSketch):
        base = cls(100, 2.0, k=4, m=64, master_seed=3)
        for field, sketch in (
            ("same", cls(100, 2.0, k=4, m=64, master_seed=3)),
            ("seed", cls(100, 2.0, k=4, m=64, master_seed=4)),
            ("epsilon", cls(100, 3.0, k=4, m=64, master_seed=3)),
        ):
            add(f"{cls.__name__}-{field}", base.accumulator, sketch.accumulator(),
                sketch.privatize(values, rng=4))

    params = RapporParams(num_bits=32, num_hashes=2, num_cohorts=4)
    base = RapporAggregator(params, 6)
    for field, other, seed in (
        ("same", params, 6),
        ("seed", params, 7),
        ("params", RapporParams(num_bits=32, num_hashes=2, num_cohorts=4, f=0.25), 6),
    ):
        add(f"rappor-{field}", base.accumulator,
            RapporAggregator(other, seed).accumulator(),
            privatize_population(other, values % 20, seed, rng=5))

    db = DBitFlip(24, 6, 1.0)
    for field, mech in (("same", DBitFlip(24, 6, 1.0)), ("epsilon", DBitFlip(24, 6, 2.0))):
        add(f"dbitflip-{field}", db.accumulator, mech.accumulator(),
            mech.privatize(values % 24, rng=6))

    ob = OneBitMean(50.0, 1.0)
    bits = ob.privatize(gen.uniform(0, 50, 100), rng=7)
    add("onebit-same", ob.accumulator, OneBitMean(50.0, 1.0).accumulator(), bits)
    add("onebit-epsilon", ob.accumulator, OneBitMean(50.0, 2.0).accumulator(), bits)
    perturbed = lambda: _PerturbedOneBitAccumulator(ob, 0.2)  # noqa: E731
    add("perturbed-same", perturbed, _PerturbedOneBitAccumulator(ob, 0.2), bits)
    add("perturbed-gamma", perturbed, _PerturbedOneBitAccumulator(ob, 0.3), bits)
    add("onebit-perturbed", ob.accumulator, perturbed(), bits)
    return pairs


_AGREEMENT_PAIRS = _agreement_pairs()


def _refuses(call) -> bool:
    try:
        call()
    except (TypeError, ValueError):
        return True
    return False


@pytest.mark.parametrize(
    "label,factory,other",
    _AGREEMENT_PAIRS,
    ids=[p[0] for p in _AGREEMENT_PAIRS],
)
def test_merge_refuses_exactly_what_from_bytes_refuses(label, factory, other):
    # One rule decides compatibility: a merge is refused exactly when a
    # fresh accumulator of the receiver's configuration refuses the
    # other's wire payload, and every configuration change is refused.
    merge_refused = _refuses(lambda: factory().merge(other))
    hydrate_refused = _refuses(lambda: factory().from_bytes(other.to_bytes()))
    assert merge_refused == hydrate_refused
    assert merge_refused == (not label.endswith("same"))
