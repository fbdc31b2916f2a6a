"""Bit-for-bit equivalence of the bulk model samplers vs their scalar
oracles.

Every model with a bulk sampler keeps its original per-job generation
loop in ``tests/oracles/models.py``; these tests pin the claim that both
consume the identical RNG stream and emit identical ``_generate_arrays``
columns — not approximately, bitwise.
"""

import numpy as np
import pytest

from oracles.models import reference_arrays
from repro.models import (
    Feitelson96Model,
    JannModel,
    LublinModel,
    UserSessionModel,
)

SEEDS = list(range(5))


def assert_streams_identical(a, b):
    assert a.keys() == b.keys()
    for name in a:
        got, want = np.asarray(a[name]), np.asarray(b[name])
        assert got.dtype == want.dtype, f"column {name}"
        np.testing.assert_array_equal(got, want, err_msg=f"column {name}")


def both(model, n_jobs, seed):
    return (
        model._generate_arrays(n_jobs, np.random.default_rng(seed)),
        reference_arrays(model, n_jobs, np.random.default_rng(seed)),
    )


class TestLublinEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, seed):
        assert_streams_identical(*both(LublinModel(), 3000, seed))

    def test_single_job(self):
        assert_streams_identical(*both(LublinModel(), 1, 0))

    def test_single_processor_machine(self):
        assert_streams_identical(*both(LublinModel(machine_procs=1), 500, 2))

    def test_flat_daily_cycle(self):
        assert_streams_identical(*both(LublinModel(cycle_amplitude=0.0), 800, 1))

    def test_extreme_daily_cycle(self):
        assert_streams_identical(*both(LublinModel(cycle_amplitude=0.95), 800, 3))


class TestFeitelson96Equivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, seed):
        assert_streams_identical(*both(Feitelson96Model(), 3000, seed))

    def test_single_job(self):
        assert_streams_identical(*both(Feitelson96Model(), 1, 0))

    def test_repeat_truncation_boundary(self):
        # Small n_jobs exercises cutting the final repeat group mid-run.
        for n in (2, 3, 7, 17):
            assert_streams_identical(*both(Feitelson96Model(), n, 4))


class TestJannEquivalence:
    @pytest.fixture(scope="class")
    def model(self, synthesized_ctc):
        return JannModel.fit(synthesized_ctc)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, model, seed):
        assert_streams_identical(*both(model, 2000, seed))

    def test_single_job(self, model):
        assert_streams_identical(*both(model, 1, 0))


class TestUserSessionEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, seed):
        assert_streams_identical(*both(UserSessionModel(n_users=16), 2500, seed))

    def test_single_job(self):
        assert_streams_identical(*both(UserSessionModel(n_users=4), 1, 0))

    def test_single_user(self):
        assert_streams_identical(*both(UserSessionModel(n_users=1), 400, 1))

    def test_single_processor_machine(self):
        assert_streams_identical(
            *both(UserSessionModel(n_users=8, machine_procs=1), 600, 2)
        )
