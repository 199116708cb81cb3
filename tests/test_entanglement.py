"""Partial transposition, concurrence and the generation test with its oracles."""

import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from thermalpair import (
    ModelParams,
    PositivityError,
    ProductState,
    build_superoperator,
    canonical_state,
    concurrence,
    criterion_rs,
    evolve_traj,
    generation_test,
    kossakowski_eigenvalues,
    min_eig_pt,
    partial_transpose,
    singlet_density,
    singlet_ket,
    small_time_ppt_oracle,
    vec,
)
from thermalpair import cli
from thermalpair.generation import _THETA_T, taylor_action
from thermalpair.spectral import kossakowski_coefficients

from util import (_DISSIPATORS_KRON, KossakowskiMatrix, build_kossakowski_spectral,
                  corner_generators, Q0, equilibrium_closed_form, generation_discriminant,
                  generator_with_hamiltonian,
                  is_entangled, kossakowski_6x6, min_q_rate, mp_concurrence, mp_rates,
                  oracle_step, q_probe, q_rate, random_bloch, random_density, random_params,
                  random_product_state, random_rotation, random_separable_density,
                  random_unit_complex, small_time_ppt_reference, uv_vectors,
                  uv_vectors_rotation)

E3 = np.array([0.0, 0.0, 1.0])


def phi_plus_ket():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


# -------------------------------------------------------------- product states

@pytest.mark.parametrize("bloch1,bloch2,message", [
    ([1, 0, 0], [0, 0.5, 0], "bloch2 must be a unit vector, |bloch2| = 0.5"),
    ([0, 1], [0, 0, 1], "bloch1 must be a real 3-vector, got 2 entries"),
    ([math.nan, 0, 0], [0, 0, 1], "bloch1 must be a unit vector, |bloch1| = nan"),
])
def test_product_state_errors_name_the_bloch_vector(bloch1, bloch2, message):
    # as the CLI's parser does, the library names the vector it refuses
    with pytest.raises(ValueError) as exc:
        ProductState(bloch1, bloch2)
    assert str(exc.value) == message


# ------------------------------------------------------- partial transposition

def test_partial_transpose_of_product_state():
    rng = np.random.default_rng(31)
    rho1 = random_density(rng, dim=2)
    rho2 = random_density(rng, dim=2)
    rho = np.kron(rho1, rho2)
    np.testing.assert_allclose(partial_transpose(rho), np.kron(rho1, rho2.T), atol=1e-15)
    assert min_eig_pt(rho) >= -1e-14


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(32)
    rho = random_density(rng)
    np.testing.assert_array_equal(partial_transpose(partial_transpose(rho)), rho)


def test_partial_transpose_factor_choice_is_spectrally_irrelevant():
    rng = np.random.default_rng(33)
    for _ in range(20):
        rho = random_density(rng)
        pt2 = partial_transpose(rho)
        # transpose on the first factor = global transpose of the second-factor PT
        pt1 = partial_transpose(rho.T).T
        np.testing.assert_allclose(np.linalg.eigvalsh(pt1), np.linalg.eigvalsh(pt2),
                                   atol=1e-13)


def test_singlet_partial_transpose_spectrum():
    assert min_eig_pt(singlet_density()) == pytest.approx(-0.5, abs=1e-15)
    assert is_entangled(singlet_density())


def test_separable_reference_points():
    assert min_eig_pt(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.25, abs=1e-15)
    assert not is_entangled(np.eye(4, dtype=complex) / 4.0)
    rho_mp = np.array(canonical_state().density())
    assert min_eig_pt(rho_mp) == pytest.approx(0.0, abs=1e-15)
    assert not is_entangled(rho_mp)


# ------------------------------------------------------------------ concurrence

def test_concurrence_reference_values():
    assert concurrence(singlet_density()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(equilibrium_closed_form(1.0, -1.0)) == pytest.approx(0.5, abs=1e-12)
    assert concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_concurrence_of_product_states_vanishes():
    rng = np.random.default_rng(34)
    for _ in range(50):
        rho = np.array(random_product_state(rng).density())
        # the spin-flip spectrum of a pure product state is entirely roundoff:
        # its l_k reach 2e-8, but l_1 cancels l_2 (1.9e-15 at most over 1e5 draws)
        assert concurrence(rho) < 1e-14


def _linalg_calls(monkeypatch):
    """A Counter of the np.linalg.eigh and np.linalg.eigvalsh calls."""
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        def counting(a, _name=name, _real=getattr(np.linalg, name)):
            calls[_name] += 1
            return _real(a)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_concurrence_of_x_states_takes_the_closed_form(monkeypatch):
    calls = _linalg_calls(monkeypatch)
    h = 1.0 / math.sqrt(2.0)
    # the Bell states |++> +- |-->, |+-> +- |-+>; |++> and |-+>
    for amplitudes, expected in (((h, 0, 0, h), 1.0), ((h, 0, 0, -h), 1.0),
                                 ((0, h, h, 0), 1.0), ((0, h, -h, 0), 1.0),
                                 ((1, 0, 0, 0), 0.0), ((0, 0, 1, 0), 0.0)):
        k = np.array(amplitudes, dtype=complex)
        assert concurrence(np.outer(k, k.conj())) == pytest.approx(expected, abs=1e-15), amplitudes
    # the separable boundary |r12| = sqrt(r00 r33), in exact binary fractions,
    # and a step of 1e-3 past it
    rho = np.diag([0.125, 0.375, 0.375, 0.125]).astype(complex)
    rho[1, 2] = rho[2, 1] = 0.125
    assert concurrence(rho) == 0.0
    rho[1, 2] = rho[2, 1] = 0.125 + 1e-3
    assert concurrence(rho) == pytest.approx(2e-3, abs=1e-15)
    # bench trajectory seed 2, op 36 (the singlet at beta*omega = 0.335,
    # ell = 0) at omega*t = 123.28: rounding leaves both blocks slightly
    # negative, and the concurrence is that of the positive part, 1 +
    # 1.58207e-14 in 40-digit mpmath (clipping the diagonal instead gives
    # 1 + 2.09e-14)
    rho = np.diag([-3.663636766221683e-15, 0.5000000000000054, 0.5000000000000053,
                   -7.184806238340544e-15]).astype(complex)
    rho[1, 2] = rho[2, 1] = -0.5000000000000104
    assert abs(concurrence(rho) - (1.0 + 1.58207e-14)) <= 2.0 ** -52
    assert calls == {}


def test_concurrence_of_a_state_off_the_x_takes_the_general_route(monkeypatch):
    # a single entry of 1e-300 outside the diagonal and the anti-diagonal,
    # anywhere, sends the singlet to the factored route, which gives the same
    # value from no eigh and one eigvalsh, that of the dilation
    calls = _linalg_calls(monkeypatch)
    for i, j in zip(*np.nonzero(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))):
        rho = np.array(singlet_density())
        rho[i, j] = 1e-300
        calls.clear()
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12), (i, j)
        assert calls == {"eigvalsh": 1}, (i, j)


def test_concurrence_pivots_on_the_largest_diagonal():
    # sqrt(1 - 1e-6) |+-> + 1e-3 |-+>, concurrence 2 |r12|, with a population
    # of 1e-30 on |++> that the float state carries to full relative
    # precision and a coherence of 1e-17 to |-+> that is rounding noise.
    # Taking |++> first would divide that noise by 1e-15, and the |-+> row
    # would lose its 1e-6 to a Schur complement of -1e-4.  The pivot order
    # takes |+-> first; the |-+> row is then rounding and is dropped, and
    # |++> keeps its 1e-30 (an eigh of the state is 2.2e-16 off)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1], rho[2, 2] = 1.0 - 1e-6, 1e-6
    rho[1, 2] = rho[2, 1] = math.sqrt(1.0 - 1e-6) * 1e-3
    rho[0, 0] = 1e-30
    rho[0, 2] = rho[2, 0] = 1e-17
    assert abs(concurrence(rho) - 2.0 * abs(rho[1, 2])) <= 1e-18  # 2 ulp


# bench trajectory seed 3, op 52: beta = inf and ell = 0, a matrix state that
# relaxes to rank 2, on 272 samples up to omega*t = 260.2
RELAXING = {
    "omega": 0.36601252130811307, "beta": "inf", "ell": 0.0,
    "n": [0.4782991322823183, 0.39379587154536905, -0.7849552545284378],
    "initial_state": {"matrix": [
        [0.3247433493627353, 0.0], [-0.04344560382342999, 0.031157221247852925],
        [0.017575378094944246, 0.10953850582743037], [-0.0832484272067139, -0.028635936905280934],
        [-0.04344560382342999, -0.031157221247852925], [0.22115638072085306, 0.0],
        [0.01181319234093234, -0.006908340109244595], [-0.1654097455788269, 0.09102806921494815],
        [0.017575378094944246, -0.10953850582743037], [0.01181319234093234, 0.006908340109244595],
        [0.13984983952326085, 0.0], [0.03120134646813189, -0.02214451010435181],
        [-0.0832484272067139, 0.028635936905280934], [-0.1654097455788269, -0.09102806921494815],
        [0.03120134646813189, 0.02214451010435181], [0.31425043039315087, 0.0]]},
    "time_grid": {"t_max": 260.21073019756466, "n_samples": 272}}


# bench trajectory seed 1, op 26: beta = inf, a product state whose two
# smallest eigenvalues decay far below eps, on 171 samples up to omega*t = 64.8
DECAYING = {
    "omega": 0.8428086965505613, "beta": "inf", "ell": 0.22757117582172479,
    "n": [0.32292862824886326, 0.7091920237171633, 0.6267086839619042],
    "initial_state": {"product": {
        "bloch1": [-0.5715525617949185, 0.0018171796559013687, -0.8205634448132356],
        "bloch2": [-0.39959705918961075, 0.5603733136020589, 0.7254680831640101]}},
    "time_grid": {"t_max": 64.8218385728122, "n_samples": 171}}


# bench trajectory seed 1, op 40: beta*omega = 37.7, where the raising rates
# are 5.9e-18 and 7.7e-18; the coefficient sums A - B and A' - B' made them
# 1.39e-17 and put the concurrence off by 2.5e-9
RAISING = {"beta": 37.68910137249268, "ell": 2.7578138740482747,
           "initial_state": {"named": "singlet"},
           "time_grid": {"t_max": 22.49608594709264, "n_samples": 213}}


def _mp_concurrence(params, rho0, t):
    """Concurrence of exp(t M) vec(rho0) in 40-digit mpmath, with M built from
    the 40-digit rates (util.mp_rates) and the exact fixed dissipators."""
    with mp.workdps(40):
        M = mp.zeros(16, 16)
        for rate, D in zip(mp_rates(params), _DISSIPATORS_KRON):
            M += rate * mp.matrix(D.tolist())
        v = mp.expm(mp.mpf(t) * M) * mp.matrix(vec(rho0).tolist())
        return mp_concurrence(mp.matrix([[v[i + 4 * j] for j in range(4)] for i in range(4)]))


def test_concurrence_of_a_relaxing_state_against_mpmath():
    # at omega*t = 51.85 the state's smallest eigenvalue, 2.5 eps of the
    # largest, lies along |++>, whose row the float state carries to full
    # relative precision; the pivoted factor keeps that row and the
    # concurrence is exact (zeroing eigenvalues below 4 eps of the largest
    # puts it off by 2.9e-8).  At omega*t = 246.77 the two smallest are below
    # 1e-34, and an eigh of the state returned one at about eps of the
    # largest, whose square root left the concurrence low by 2.7e-8; at
    # omega*t = 77.78, and on DECAYING at omega*t = 62.92, eigh's absolute
    # errors of about 1e-22 left it off by 7.7e-12.  The factor drops those
    # rows as rounding and takes no square root of them.  At beta*omega =
    # 37.7 the float rates, and with them the concurrence, are exact to a few
    # eps
    for doc, samples in ((RELAXING, ((54, 1e-14), (81, 1e-14), (257, 1e-14))),
                         (DECAYING, ((165, 1e-14),)), (RAISING, ((36, 1e-14),))):
        config = cli.parse_config(doc)
        states = list(evolve_traj(build_superoperator(config.params), config.initial_state()[1],
                                  config.times))
        for k, tol in samples:
            exact = _mp_concurrence(config.params, config.initial_state()[1], config.times[k])
            assert abs(concurrence(states[k]) - exact) <= tol, (k, concurrence(states[k]), exact)
    assert abs(exact - 0.34962977534486972) <= 1e-16, exact  # RAISING at sample 36


def test_peres_horodecki_exactness():
    # two-qubit PPT criterion and concurrence must agree on entanglement
    rng = np.random.default_rng(35)
    checked = 0
    for k in range(1000):
        rho = random_density(rng) if k % 2 == 0 else random_separable_density(rng)
        me = min_eig_pt(rho)
        if abs(me) < 1e-12:
            continue
        checked += 1
        assert (concurrence(rho) > 1e-12) == (me < 0), f"state {k}: PT {me}"
    assert checked > 900


# ---------------------------------------------------------------------- probes

def test_q_probe_values_on_singlet():
    singlet = np.array(singlet_density())
    assert q_probe(phi_plus_ket(), singlet) == pytest.approx(-0.5, abs=1e-15)
    assert q_probe(np.array(singlet_ket()), singlet) == pytest.approx(0.5, abs=1e-15)


def test_q_probe_nonnegative_for_separable_or_product_probe():
    rng = np.random.default_rng(36)
    for _ in range(50):
        rho_sep = random_separable_density(rng)
        assert q_probe(random_unit_complex(rng), rho_sep) >= -1e-13
        chi_prod = np.kron(random_unit_complex(rng, 2), random_unit_complex(rng, 2))
        assert q_probe(chi_prod, random_density(rng)) >= -1e-13


def test_q_probe_rejects_zero_vector():
    with pytest.raises(ValueError):
        q_probe(np.zeros(4), np.array(singlet_density()))


def test_q_rate_finite_for_any_probe():
    rng = np.random.default_rng(37)
    K = build_kossakowski_spectral(ModelParams(beta_omega=1.0, omega_ell=0.0), E3)
    rho0 = np.array(canonical_state().density())
    for _ in range(10):
        val = q_rate(random_unit_complex(rng), rho0, K)
        assert math.isfinite(val)


def test_min_q_rate_negative_when_generation_occurs():
    p = ModelParams(beta_omega=1.0, omega_ell=0.0)
    K = build_kossakowski_spectral(p, E3)
    state = canonical_state()
    val, chi = min_q_rate(state, K)
    assert val < -1e-3
    # the returned probe reproduces the rate and starts at Q(0) = 0
    assert q_rate(chi, np.array(state.density()), K) == pytest.approx(val, rel=1e-10)
    assert abs(q_probe(chi, np.array(state.density()))) < 1e-13


def test_min_q_rate_boundary_case():
    # R = 1, S = 0: the reduction sits exactly on R^2 + S^2 = 1
    p = ModelParams(beta_omega=math.inf, omega_ell=math.pi)
    K = build_kossakowski_spectral(p, E3)
    val, _ = min_q_rate(canonical_state(), K)
    assert val >= -1e-12 * np.linalg.norm(kossakowski_6x6(K), 2)


# ------------------------------------------------------------------ u/v vectors

def test_uv_vectors_canonical():
    u, v = uv_vectors(canonical_state())
    np.testing.assert_allclose(u, [1.0, -1j, 0.0], atol=1e-15)
    np.testing.assert_allclose(v, u, atol=1e-15)


def test_uv_vectors_both_ground():
    u, v = uv_vectors(ProductState(-E3, -E3))
    np.testing.assert_allclose(u, [1.0, -1j, 0.0], atol=1e-15)
    np.testing.assert_allclose(v, [1.0, +1j, 0.0], atol=1e-15)


def test_uv_vector_norms():
    rng = np.random.default_rng(38)
    for _ in range(50):
        u, v = uv_vectors(random_product_state(rng))
        assert np.linalg.norm(u) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert np.linalg.norm(v) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_uv_vectors_match_the_pauli_rotation_route():
    # the bra-sigma-ket products against the SU(2) -> SO(3) rotations they
    # replace, on random product states and on every pair of the six poles
    rng = np.random.default_rng(43)
    poles = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
    states = [random_product_state(rng) for _ in range(200)]
    states += [ProductState(b1, b2) for b1 in poles for b2 in poles]
    for state in states:
        u, v = uv_vectors(state)
        u_ref, v_ref = uv_vectors_rotation(state)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-15)


# -------------------------------------------------------------- generation test

def test_generation_frozen_grid_points():
    p = ModelParams(beta_omega=1.0, omega_ell=0.5)
    _, label = generation_test(kossakowski_coefficients(p))
    assert label == "true"
    assert criterion_rs(p)[2] == pytest.approx(1.132947655297793155 - 1.0, rel=1e-12)

    p = ModelParams(beta_omega=1.0, omega_ell=3.0)
    _, label = generation_test(kossakowski_coefficients(p))
    assert label == "false"
    assert criterion_rs(p)[2] == pytest.approx(0.21576502888683003315 - 1.0, rel=1e-12)


def test_generation_margin_equals_canonical_reduction():
    # for the canonical state the discriminant is exactly 4 A^2 (R^2 + S^2 - 1)
    rng = np.random.default_rng(39)
    for _ in range(50):
        p = random_params(rng)
        c = kossakowski_coefficients(p)
        margin, _ = generation_test(c)
        norm = max(kossakowski_eigenvalues(p))
        assert margin == pytest.approx(4.0 * c.A * c.A * criterion_rs(p)[2],
                                       rel=1e-10, abs=1e-13 * norm ** 2)


def test_generation_always_at_zero_separation():
    for bw in (0.01, 0.1, 1.0, 10.0):
        p = ModelParams(beta_omega=bw, omega_ell=0.0)
        _, label = generation_test(kossakowski_coefficients(p))
        assert label == "true"


def test_criterion_rs_values():
    R, S, margin = criterion_rs(ModelParams(beta_omega=1.0, omega_ell=0.0))
    assert R == pytest.approx(0.4621171572600097585, abs=1e-15)
    assert S == 1.0

    R, S, margin = criterion_rs(ModelParams(beta_omega=math.inf, omega_ell=2.0))
    assert R == 1.0
    assert margin == pytest.approx(S * S, rel=1e-14)
    assert margin > 0  # zero temperature generates at any finite separation

    R, S, margin = criterion_rs(ModelParams(beta_omega=1.0, omega_ell=math.pi))
    assert abs(S) < 1e-16
    assert margin == pytest.approx(R * R - 1.0, rel=1e-14)
    assert margin < 0


def test_generation_verdict_rotation_invariance():
    # turning K (to the axis O e3) and both Bloch vectors by one rotation O
    # leaves the discriminant as it is
    rng = np.random.default_rng(40)
    for _ in range(20):
        p = random_params(rng, allow_zero_temperature=False)
        state = random_product_state(rng)
        K = build_kossakowski_spectral(p, E3)
        verdict = generation_discriminant(state, K)
        O = random_rotation(rng)
        K_rot = KossakowskiMatrix(c11=O @ K.c11 @ O.T, c12=O @ K.c12 @ O.T, norm=K.norm)
        state_rot = ProductState(O @ state.bloch1, O @ state.bloch2)
        verdict_rot = generation_discriminant(state_rot, K_rot)
        assert abs(verdict.margin - verdict_rot.margin) < 1e-12 * K.norm ** 2


def test_probe_optimality_matches_discriminant():
    # minimum of the constrained rate is negative iff the discriminant fires
    rng = np.random.default_rng(41)
    for _ in range(40):
        p = random_params(rng)
        state = random_product_state(rng)
        K = build_kossakowski_spectral(p, E3)
        verdict = generation_discriminant(state, K)
        if verdict.generated is None or abs(verdict.margin) < 1e-9 * K.norm ** 2:
            continue
        val, _ = min_q_rate(state, K)
        rate_scale = np.linalg.norm(kossakowski_6x6(K), 2)
        if verdict.generated:
            assert val < -1e-12 * rate_scale
        else:
            assert val >= -1e-12 * rate_scale


# ------------------------------------------------------------ small-time oracle

def test_small_time_oracle_frozen_points():
    rho0 = np.array(canonical_state().density())
    for ell, expected in ((0.5, True), (3.0, False)):
        params = ModelParams(beta_omega=1.0, omega_ell=ell)
        assert small_time_ppt_oracle(params) is expected
        assert small_time_ppt_reference(build_superoperator(params), rho0, 1e-3) is expected


@pytest.mark.parametrize("beta_omega,message", [
    # coth(beta*omega/2) ~ 1e38: the evolved state underflows to zero
    (1e-38, "evolved state has trace 0.0 at t=0.001"),
    # coth ~ 1e50: 155 squarings of the Taylor exponential lose every entry
    (1e-50, "evolved state has trace 0.0 at t=0.001"),
], ids=["sweep-overflow", "sweep-expm-overflow"])
def test_oracle_caps_its_step_where_the_general_route_overflows(beta_omega, message):
    # at dt = 1e-3 the general route's exponential squares until the state is
    # lost; the oracle takes a step short enough for the Taylor series, at
    # which the general route agrees with it
    params = ModelParams(beta_omega=beta_omega, omega_ell=0.0)
    M, rho0 = build_superoperator(params), np.array(canonical_state().density())
    with pytest.raises(PositivityError) as exc:
        small_time_ppt_reference(M, rho0, 1e-3)
    assert str(exc.value) == message
    step = oracle_step(params)
    assert step < 1e-30
    assert small_time_ppt_oracle(params) is small_time_ppt_reference(M, rho0, step) is False


def test_taylor_action_matches_scipy():
    # exp(A) v by the oracle's series at |A|_1 from 1e-6 to just past
    # _THETA_T, which the oracle's step reaches to rounding; 0.039 is its
    # step at beta*omega = 0.05.  The series has no fallback, so the last
    # norm tests the series itself past _THETA_T.  A is a generator's block
    # on Q0, which no entry outside it feeds, and v the Q0 entries of a state
    from scipy.linalg import expm as scipy_expm  # reference route, tests only

    eps, theta = np.finfo(float).eps, _THETA_T
    rng = np.random.default_rng(7)
    for label, M in corner_generators(41, 120):
        M = M[np.ix_(Q0, Q0)]
        norm_M = np.abs(M).sum(axis=0).max()
        v = vec(random_density(rng))[list(Q0)]
        for norm in (1e-6, 0.039, theta * (1 - 2**-40), theta * (1 + 2**-20)):
            A = M * (norm / norm_M)
            assert (np.abs(A).sum(axis=0).max() <= theta) == (norm < theta), (label, norm)
            diff = np.abs(np.array(taylor_action(A.tolist(), v.tolist(), norm))
                          - scipy_expm(A) @ v).max()
            assert diff <= 4 * eps * np.abs(v).max(), (label, norm, diff)
    # the series takes at least one term, so a non-finite A, whose norm stops
    # no degree loop, still reaches the result and fails the oracle's guard
    assert all(map(math.isnan, taylor_action([[math.nan] * 6] * 6, [1.0] * 6, math.nan)))


def test_oracle_agrees_for_generic_product_states():
    # the discriminant claim is not specific to the canonical state
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(30):
        p = random_params(rng)
        state = random_product_state(rng)
        K = build_kossakowski_spectral(p, E3)
        verdict = generation_discriminant(state, K)
        if verdict.generated is None or abs(verdict.margin) < 1e-6 * K.norm ** 2:
            continue
        M = build_superoperator(p)
        oracle = small_time_ppt_reference(M, np.array(state.density()), 1e-3)
        assert oracle == verdict.generated
        checked += 1
    assert checked > 15


def test_oracle_insensitive_to_hamiltonian_term():
    # the free Hamiltonian is local, so it cannot change the verdict
    state = canonical_state()
    p = ModelParams(beta_omega=1.0, omega_ell=0.5)
    M_h = generator_with_hamiltonian(p)
    assert small_time_ppt_reference(M_h, np.array(state.density()), 1e-3) is True
