"""Stages built for a batch of lam at once, and click probabilities read from
the signal's populations alone (dynamics.stage_subdiagonals,
lift_populations and pattern_probabilities)."""

import cmath
import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    StageParams,
    StrongCouplingWarning,
    TruncationError,
    outcome_probability,
    walk_patterns,
)
from pacsim import dynamics
from pacsim.dynamics import lift_populations, pattern_probabilities, stage_subdiagonals

from oracles import stage_kraus


def subdiagonals_of(kraus: np.ndarray) -> np.ndarray:
    """<b + k|K_k|b> of a dense stack, 0 where b + k is off the window."""
    di, ds, _ = kraus.shape
    subs = np.zeros((di, ds))
    for k in range(min(di, ds)):
        subs[k, : ds - k] = np.diagonal(kraus[k], -k)
    return subs


#: lam from 0 to 50: the largest need several squarings at each cutoff
#: below and the smallest none, so one batch mixes squaring counts
BATCH = [0.0, 1e-3, 0.05, 0.3, 1.0, 4.0, 50.0]


@pytest.mark.parametrize("ds, di", [(12, 4), (21, 4), (6, 6), (8, 1), (3, 5), (2, 9)],
                         ids=["12-4", "21-4", "square", "idler-1", "idler>signal", "2-9"])
def test_batch_is_each_lam_alone_bit_for_bit(ds, di):
    """One stacked build equals each lam's own stage_kraus under np.array_equal,
    in either order of the batch, and is 0 off the window and from k = ds on."""
    for batch in (BATCH, BATCH[::-1]):
        subs = stage_subdiagonals(batch, ds, di)
        assert subs.shape == (len(batch), di, ds)
        for lam, sub in zip(batch, subs):
            assert np.array_equal(sub, subdiagonals_of(stage_kraus(lam, ds, di)))
            for k in range(di):
                assert not np.any(sub[k, max(0, ds - k):])


def test_lift_adds_each_shift_in_k_order():
    """lift_populations is the plain recursion pops'[K + k][b + k] +=
    weights[k][b] pops[K][b], added k = 0, 1, .. bit for bit, cut at ds
    sectors; rows of weights from k = ds on are dropped."""
    rng = np.random.default_rng(7)
    for sectors, di, ds in [(1, 4, 9), (3, 4, 9), (9, 4, 9), (2, 12, 5), (5, 2, 5)]:
        pops = rng.random((sectors, ds))
        weights = rng.random((di, ds))
        for k in range(di):
            weights[k, max(0, ds - k):] = 0.0  # K_k maps no level past the window
        expected = np.zeros((min(sectors + min(di, ds) - 1, ds), ds))
        for k in range(min(di, ds)):
            for big_k, b in product(range(sectors), range(ds - k)):
                if big_k + k < len(expected):
                    expected[big_k + k, b + k] += weights[k, b] * pops[big_k, b]
        assert np.array_equal(lift_populations(pops, weights), expected)


@st.composite
def sweep_cases(draw):
    n_stages = draw(st.integers(1, 6))
    lam = st.one_of(st.just(0.0), st.floats(1e-4, 0.5))
    dims = st.integers(2, 6)
    shared = draw(dims) if draw(st.booleans()) else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StrongCouplingWarning)  # lam up to 0.5
        stages = tuple(StageParams(draw(lam), shared or draw(dims)) for _ in range(n_stages))
    alpha = draw(st.floats(0.0, 1.5)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    detector = DetectorModel(eta=draw(st.floats(0.0, 1.0, exclude_min=True)),
                             dark_prob=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05))))
    return ChainConfig(alpha, stages), detector


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
def test_populations_give_the_walks_probability(case):
    """Every pattern's P from the populations is the walk's to 1e-13 relative,
    and one is impossible (outcome_probability) where the other is: up to 6
    stages, zero and weak coupling, mixed idler dims, imperfect detectors,
    complex alpha."""
    config, detector = case
    for pattern, walked, _ in walk_patterns(config, detector):
        [probability] = pattern_probabilities([config], detector, pattern)
        if outcome_probability(walked) == 0.0 or outcome_probability(probability) == 0.0:
            assert outcome_probability(walked) == outcome_probability(probability) == 0.0
        else:
            assert probability == pytest.approx(walked, rel=1e-13, abs=0.0)


def test_chains_of_a_sweep_share_their_builds(monkeypatch):
    """A lam sweep's chains build their stages in one call per idler cutoff,
    and each chain's P is what it gets alone."""
    calls = []

    def counting(lams, signal_dim, idler_dim):
        calls.append((len(lams), signal_dim, idler_dim))
        return stage_subdiagonals(lams, signal_dim, idler_dim)

    values = [0.01, 0.05, 0.1, 0.05]
    chains = [ChainConfig(1.0, (StageParams(v, 4), StageParams(v, 3), StageParams(v, 4)))
              for v in values]
    pattern = ClickPattern.from_string("101")
    detector = DetectorModel(eta=0.6, dark_prob=1e-4)
    alone = [pattern_probabilities([chain], detector, pattern)[0] for chain in chains]
    monkeypatch.setattr(dynamics, "stage_subdiagonals", counting)
    assert pattern_probabilities(chains, detector, pattern) == alone
    assert sorted(calls) == [(3, chains[0].signal_dim, 3), (3, chains[0].signal_dim, 4)]


def test_a_cutoff_too_small_for_a_value_is_refused():
    """An alpha sweep's chains at a given signal_dim that cannot hold one of
    its values raise TruncationError (which the CLI reports naming
    chain.signal_dim: test_cli's test_alpha_sweep_keeps_a_given_cutoff)."""
    chains = [ChainConfig(a, (StageParams(0.05),) * 2, signal_dim=20) for a in (0.5, 5.0)]
    with pytest.raises(TruncationError, match=r"\|alpha\|=5"):
        pattern_probabilities(chains, DetectorModel.ideal(), ClickPattern.from_string("11"))
