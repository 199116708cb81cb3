"""The plain-Python pieces of the phase diagram against the numpy routes
they replaced: the generator's Q0 block, the oracle's kernel and verdict,
K's rates and the sweep's linspace, over seeded draws at every corner
(beta = inf, ell = 0, ell -> 0+, beta*omega from its floor 1.5e-154 to
1e3); and the floor itself, which ModelParams enforces."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermalpair import ModelParams, PositivityError, build_superoperator, cli, generation
from thermalpair.spectral import MIN_BETA_OMEGA, kossakowski_eigenvalues

from util import (Q0, polyval_rates, small_time_ppt_oracle_numpy, taylor_action_numpy)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


beta_omega = st.one_of(st.just(math.inf), st.just(MIN_BETA_OMEGA),
                       _log_uniform(MIN_BETA_OMEGA, 1e3), _log_uniform(1e-3, 1e3))
omega_ell = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e-3), st.floats(0.0, 20.0),
                      _log_uniform(1e-3, 1e300))
EPS = np.finfo(float).eps


@SETTINGS
@given(beta_omega, omega_ell)
@example(math.inf, 0.0)
@example(MIN_BETA_OMEGA, 0.0)
def test_generator_q0_is_the_superoperator_block(bw, wl):
    # exact: each entry sums the same products of rates and powers of 2, in
    # the contraction's order (== also equates -0.0 and 0.0)
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    block = build_superoperator(params)[np.ix_(Q0, Q0)]
    assert np.array_equal(np.array(generation.generator_q0(params)), block), (bw, wl)


@SETTINGS
@given(beta_omega, omega_ell)
@example(math.inf, 0.0)
@example(1.0, 1.0)
@example(1.0, math.nextafter(1.0, 0.0))
def test_kossakowski_eigenvalues_are_the_polyval_bits(bw, wl):
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    rates = kossakowski_eigenvalues(params)
    assert isinstance(rates, tuple) and all(type(r) is float for r in rates)
    assert np.array(rates).tobytes() == polyval_rates(params).tobytes(), (bw, wl)


@SETTINGS
@given(beta_omega, omega_ell)
@example(math.inf, 0.0)
@example(MIN_BETA_OMEGA, 0.0)
@example(1e-3, 0.0)
def test_oracle_matches_its_numpy_kernel(bw, wl):
    # the same verdict, and the same evolved Q0 state to eps (its entries are
    # at most 1): the numpy kernel's matrix-vector products sum in another
    # order.  On 20000 seeded points over these corners they differed in
    # 10295, by at most 0.5 eps
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    assert generation.small_time_ppt_oracle(params) is small_time_ppt_oracle_numpy(params)
    M = generation.generator_q0(params)
    dt = min(generation._ORACLE_DT, generation._THETA_T / generation._norm_1(M))
    A = [[dt * x for x in row] for row in M]
    v = generation._CANONICAL_Q0
    plain = np.array(generation._taylor_action(A, v))
    reference = taylor_action_numpy(np.array(A), np.array(v))
    assert np.abs(plain - reference).max() <= EPS, (bw, wl, plain - reference)


finite = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(st.one_of(finite, _log_uniform(1e-320, 1e-300), st.just(0.0)),
       st.one_of(finite, st.just(0.0), st.just(1.7e308)),
       st.one_of(st.integers(1, 3), st.integers(1, 2000)))
@example(0.0, 0.0, 1)
@example(1.0, 1.0, 5)
@example(-0.0, 0.0, 1)
@example(0.0, 5e-324, 3)
@example(-1.7e308, 1.7e308, 4)
@example(0.5, 0.25, 3)
def test_linspace_is_numpys_bit_for_bit(lo, hi, num):
    # every range, also hi < lo and one whose width overflows; the config
    # parser admits lo <= hi alone
    with np.errstate(over="ignore", invalid="ignore"):
        reference = np.linspace(lo, hi, num)
    assert np.array(cli._linspace(lo, hi, num)).tobytes() == reference.tobytes(), (lo, hi, num)


def test_model_params_refuse_what_the_cli_refuses():
    # the floor on beta*omega is ModelParams' own, and the CLI's name for it
    # is the same constant
    assert cli.MIN_BETA_OMEGA is MIN_BETA_OMEGA
    ModelParams(beta_omega=MIN_BETA_OMEGA, omega_ell=0.0)
    for bw in (math.nextafter(MIN_BETA_OMEGA, 0.0), 1e-308, 5e-324):
        with pytest.raises(ValueError, match=r"beta_omega must be at least 1\.5e-154"):
            ModelParams(beta_omega=bw, omega_ell=0.0)


def test_oracle_raises_where_its_generator_is_not_finite():
    # below the floor the rates are finite but a column of M_q0 sums past the
    # largest float: a ModelParams made past its check, at beta*omega 1e-308,
    # where the numpy kernel stepped by 0 and returned false
    params = object.__new__(ModelParams)
    object.__setattr__(params, "beta_omega", 1e-308)
    object.__setattr__(params, "omega_ell", 0.0)
    assert all(map(math.isfinite, generation.generator_q0(params)[0]))
    with pytest.raises(PositivityError, match=r"^generator has \|M\|_1 = inf, not finite$"):
        generation.small_time_ppt_oracle(params)
    with np.errstate(over="ignore", invalid="ignore"):
        assert small_time_ppt_oracle_numpy(params) is False
