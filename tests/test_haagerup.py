import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncround import (
    commutator_certificate,
    haagerup,
    connes_certificate,
    joint_spectral_measure,
    lp_duality_check,
    measure_moments,
    threshold_chi_distance,
    threshold_integral,
)
from syncround.sampling import random_psd, random_pvm, random_unitary, rng_for
from syncround.spectral import eigh

from conftest import assert_close
from oracles import (
    atomic_indicator_integral,
    chi_distance_breakpoints,
    chi_distance_quadrature,
    commutator_breakpoints,
    commutator_direct,
    commutator_draw,
    fiber_commutator_inputs,
    fiber_quadrature_indicator,
    fiber_rd_commutator_inputs,
    measure_integral,
)

PAIR_KINDS = ("spread", "rank-deficient", "near-degenerate", "degenerate")


def psd_instance(rng, kind, dim=8):
    """Unit Frobenius-norm PSD matrix of the given spectral shape."""
    if kind == "spread":
        w = rng.uniform(0.0, 1.0, dim)
    elif kind == "rank-deficient":
        w = np.concatenate([rng.uniform(0.1, 1.0, dim - 3), np.zeros(3)])
    elif kind == "near-degenerate":
        # two pairs split by 5e-10 before scaling, inside the eigenvalue
        # merge tolerance of 1e-9 (1 + spectral radius)
        w = rng.uniform(0.1, 1.0, dim)
        w[1], w[3] = w[0] + 5e-10, w[2] - 5e-10
    elif kind == "degenerate":
        # exactly repeated eigenvalues: multiplicities 3, 3 and 2
        w = np.repeat(rng.uniform(0.1, 1.0, 3), [3, 3, dim - 6])
    u = random_unitary(rng, dim)
    x = (u * (w / np.linalg.norm(w))) @ u.conj().T
    return (x + x.conj().T) / 2


class TestJointSpectralMeasure:
    def test_scalar_pair_single_atom(self):
        m = joint_spectral_measure(np.diag([1.0]), np.diag([1.0]))
        assert_close(m.lambdas, [0.5], 1e-14)
        assert_close(m.masses, [4.0], 1e-12)
        assert_close(measure_integral(m, lambda l: l * l), 1.0, 1e-12)

    def test_orthogonal_projections_give_endpoints(self):
        m = joint_spectral_measure(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert_close(m.lambdas, [0.0, 1.0], 1e-14)
        assert_close(m.masses, [1.0, 1.0], 1e-12)

    def test_zero_partner_concentrates_at_one(self):
        rng = rng_for(71, 0)
        x = random_psd(rng, 4)
        m = joint_spectral_measure(x, np.zeros((4, 4)))
        assert_close(m.lambdas, [1.0], 1e-14)
        assert_close(m.total_mass, np.trace(x @ x).real, 1e-9)
        assert_close(measure_integral(m, lambda l: l * l), np.trace(x @ x).real, 1e-9)

    def test_defining_property_scalar(self):
        m = joint_spectral_measure(np.diag([1.0]), np.diag([1.0]))
        for c_x, c_y in ((1.0, 1.0), (0.7, 1.3)):
            exact = atomic_indicator_integral(m, c_x, c_y)
            quad = fiber_quadrature_indicator(
                np.diag([1.0]), np.diag([1.0]), c_x, c_y
            )
            assert abs(exact - quad) <= 1e-4

    def test_defining_property_random_pair(self):
        rng = rng_for(72, 0)
        x = random_psd(rng, 5)
        x = x / np.linalg.norm(x)
        y = random_psd(rng, 5)
        y = y / np.linalg.norm(y)
        m = joint_spectral_measure(x, y)
        exact = atomic_indicator_integral(m, 1.0, 1.0)
        quad = fiber_quadrature_indicator(x, y, 1.0, 1.0)
        assert abs(exact - quad) <= 1e-4

    def test_equal_degenerate_pair_sits_at_one_half(self):
        # one atom per eigenvector pair, unmerged: the pairs of one
        # eigenspace sit at 1/2, and those of two carry only roundoff mass
        x = psd_instance(rng_for(74, 0), "degenerate")
        m = joint_spectral_measure(x, x)
        total = 4.0 * np.trace(x @ x).real
        assert_close(m.masses[np.abs(m.lambdas - 0.5) <= 1e-12].sum(), total, 1e-12)
        assert_close(m.total_mass, total, 1e-12)
        assert_close(measure_moments(m).chi_distance, 0.0, 1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            joint_spectral_measure(np.eye(2), np.eye(3))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            joint_spectral_measure(np.diag([1.0, -0.5]), np.eye(2))


class TestMeasureMoments:
    def test_single_atom_arithmetic(self):
        from syncround import JointSpectralMeasure

        m = JointSpectralMeasure(np.array([0.5]), np.array([4.0]))
        moments = measure_moments(m)
        assert_close(moments.norm_x_sq, 1.0, 1e-14)
        assert_close(moments.norm_y_sq, 1.0, 1e-14)
        assert_close(moments.chi_distance, 0.0, 1e-14)
        assert_close(moments.inner_product, 1.0, 1e-14)

    def test_endpoint_atoms(self):
        from syncround import JointSpectralMeasure

        m = JointSpectralMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        moments = measure_moments(m)
        assert moments.norm_x_sq == 1.0 and moments.norm_y_sq == 1.0
        assert moments.chi_distance == 2.0 and moments.inner_product == 0.0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 8), seed=st.integers(0, 10**6))
    def test_moments_match_traces(self, dim, seed):
        rng = rng_for(seed, dim, 73)
        x, y = random_psd(rng, dim), random_psd(rng, dim)
        moments = measure_moments(joint_spectral_measure(x, y))
        assert_close(moments.norm_x_sq, np.trace(x @ x).real, 1e-9)
        assert_close(moments.norm_y_sq, np.trace(y @ y).real, 1e-9)
        assert_close(moments.inner_product, np.trace(x @ y).real, 1e-9)


class TestThresholdChiDistance:
    def test_scalar_closed_form(self):
        # the thresholds sweep the gap between the two spectra:
        # integral of 2t over [1, 2] is 3
        assert_close(threshold_chi_distance(np.diag([2.0]), np.diag([1.0])), 3.0, 1e-12)

    def test_equal_inputs_vanish(self):
        rng = rng_for(81, 0)
        x = random_psd(rng, 4)
        assert threshold_chi_distance(x, x.copy()) <= 1e-12

    def test_matches_measure_moment(self):
        rng = rng_for(82, 0)
        x, y = random_psd(rng, 6), random_psd(rng, 6)
        mom = measure_moments(joint_spectral_measure(x, y))
        assert_close(threshold_chi_distance(x, y), mom.chi_distance, 1e-9)

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_matches_breakpoint_loop(self, kind):
        rng = rng_for(84, PAIR_KINDS.index(kind))
        x, y = psd_instance(rng, kind), psd_instance(rng, kind)
        expected = chi_distance_breakpoints(x, y)
        assert_close(threshold_chi_distance(x, y), expected, 1e-10)
        moments = measure_moments(joint_spectral_measure(x, y))
        assert_close(moments.chi_distance, expected, 1e-10)

    def test_riemann_sum_converges_linearly(self):
        rng = rng_for(83, 0)
        x, y = random_psd(rng, 5), random_psd(rng, 5)
        exact = threshold_chi_distance(x, y)
        errors = {
            n: abs(chi_distance_quadrature(x, y, n) - exact) for n in (400, 3200)
        }
        scale = float(np.trace((x + y) @ (x + y)).real)
        for n, err in errors.items():
            assert err <= 40.0 * scale / n


class TestConnesCertificate:
    def test_scalar_example(self):
        cert = connes_certificate(np.diag([2.0]), np.diag([1.0]))
        assert_close([cert.lhs, cert.mid, cert.rhs], [1.0, 3.0, 3.0], 1e-12)
        assert cert.holds

    def test_equal_inputs_all_zero(self):
        rng = rng_for(91, 0)
        x = random_psd(rng, 3)
        cert = connes_certificate(x, x.copy())
        assert_close([cert.lhs, cert.mid, cert.rhs], [0.0, 0.0, 0.0], 1e-10)
        assert cert.holds

    def test_commuting_scaled_projections_saturate_lower_bound(self):
        # x = c P, y = c Q with commuting projections: the middle term
        # equals ||x - y||^2 exactly
        c = 1.7
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        q = np.diag([0.0, 1.0, 1.0, 0.0])
        cert = connes_certificate(c * p, c * q)
        assert_close(cert.mid, cert.lhs, 1e-10)
        assert cert.holds

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 8), seed=st.integers(0, 10**6))
    def test_random_chain_holds(self, dim, seed):
        rng = rng_for(seed, dim, 92)
        cert = connes_certificate(random_psd(rng, dim), random_psd(rng, dim))
        assert cert.holds
        assert cert.lhs <= cert.mid + 1e-9 <= cert.rhs + 2e-9


class TestCommutatorCertificate:
    def test_commuting_pvm_gives_zero(self):
        x = np.diag([0.8, 0.6])
        x = x / np.sqrt(np.trace(x @ x).real)
        pvm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        cert = commutator_certificate(x, pvm)
        assert_close([cert.sum_comm_x, cert.sum_comm_q, cert.upper], [0, 0, 0], 1e-10)
        assert cert.holds

    def test_two_dim_hand_oracle(self):
        a, b = 0.8, 0.6  # a^2 + b^2 = 1
        x = np.diag([a, b])
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        cert = commutator_certificate(x, [plus, minus])
        assert_close(cert.sum_comm_x, (a - b) ** 2, 1e-12)
        assert_close(cert.sum_comm_q, a * a - b * b, 1e-12)
        assert_close(cert.upper, 2 * abs(a - b), 1e-12)
        assert cert.holds

    @pytest.mark.parametrize("n_outcomes", [3, 11])
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_matches_breakpoint_loop(self, kind, n_outcomes):
        rng = rng_for(94, PAIR_KINDS.index(kind), n_outcomes)
        x = psd_instance(rng, kind)
        pvm = random_pvm(rng, 8, n_outcomes)
        cert = commutator_certificate(x, pvm)
        assert_close(cert.sum_comm_q, commutator_breakpoints(x, pvm), 1e-10)
        assert cert.holds

    @pytest.mark.parametrize("inputs", ["readme-sweep", "fiber", "fiber-rd"])
    def test_first_term_matches_direct_products(self, inputs):
        # in the kernel the first link holds termwise, (a_i - a_j)^2 <=
        # |a_i^2 - a_j^2| for a >= 0; its evidence is this agreement with
        # sum_k ||p_k x - x p_k||^2 formed from the products
        if inputs == "readme-sweep":  # verify --suite commutator --n 500 --dims 8 --seed 7
            cases = [commutator_draw(7, i, 8)[1::2] for i in range(500)]
        else:
            draw = fiber_commutator_inputs if inputs == "fiber" else fiber_rd_commutator_inputs
            cases = [draw(dim, i) for dim in (64, 96) for i in range(2)]
        for k, (x, pvm) in enumerate(cases):
            direct = commutator_direct(x, pvm)
            kernel = commutator_certificate(x, pvm).sum_comm_x
            assert abs(kernel - direct) <= 1e-12 * (1.0 + direct), (k, kernel, direct)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="Tr"):
            commutator_certificate(np.diag([1.0, 1.0]), [np.eye(2)])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_random_chain_holds(self, dim, seed):
        rng = rng_for(seed, dim, 93)
        x = random_psd(rng, dim)
        x = x / np.sqrt(np.trace(x @ x).real)
        pvm = random_pvm(rng, dim, int(rng.integers(2, 5)))
        cert = commutator_certificate(x, pvm)
        assert cert.holds


class TestLpDuality:
    def test_trivial_scalar(self):
        assert lp_duality_check(np.diag([1.0]), np.diag([1.0]), 2.0) <= 1e-12

    def test_random_pairs_p2(self):
        rng = rng_for(101, 0)
        for _ in range(10):
            x, y = random_psd(rng, 4), random_psd(rng, 4)
            assert lp_duality_check(x, y, 2.0) <= 1e-8

    def test_diagonal_commuting_p3(self):
        x = np.diag([2.0, 0.5, 1.0])
        y = np.diag([0.3, 1.5, 0.7])
        # closed form per eigenvalue: both sides reduce to sum_i a_i b_i
        assert lp_duality_check(x, y, 3.0) <= 1e-8

    def test_y_decomposition_matches_matrix(self):
        rng = rng_for(102, 0)
        x, y = random_psd(rng, 5), random_psd(rng, 5)
        assert_close(lp_duality_check(x, eigh(y), 3.0), lp_duality_check(x, y, 3.0), 1e-12)
        xs, ys = psd_stack(103), psd_stack(104)
        assert_close(lp_duality_check(xs, eigh(ys), 2.0), lp_duality_check(xs, ys, 2.0), 1e-12)

    def test_non_psd_y_decomposition_named(self):
        y = eigh(np.diag([1.0, 0.5, -0.5]))
        with pytest.raises(ValueError, match="^y is not PSD"):
            lp_duality_check(np.eye(3), y, 2.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_eigenvalues_near_zero_are_summed(self, p):
        # 1.9e-9 is below 1e-9 (1 + ||x||): no clustering tolerance cuts it
        x = np.diag([1.0] + [1.9e-9] * 20)
        assert lp_duality_check(x, np.eye(21), p) <= 1e-14

    def test_tiny_eigenvalue_in_range(self):
        # (1e-200)^3 would underflow and (1e-200)^(-2) overflow; the closed
        # form takes no power
        with np.errstate(all="raise"):
            assert lp_duality_check(np.diag([1e-200, 1.0]), np.eye(2), 3.0) == 0.0

    def test_small_eigenvalue_in_range_at_large_p(self):
        # (1.3e-13)^25 would be subnormal and (1.3e-13)^(-24) overflow
        with np.errstate(all="raise"):
            residual = lp_duality_check(np.diag([1.3e-13, 1.0]), np.eye(2), 25.0)
        assert residual <= 1.3e-13

    @pytest.mark.parametrize("big", [1e120, 1e200, 1e300])
    def test_large_eigenvalue_in_range(self, big):
        # big^3 would overflow, but the term is big <u, y u>; at 1e300 the
        # eigensolve's guards sum squares of about 1e284 scaled
        with np.errstate(all="raise"):
            residual = lp_duality_check(np.diag([big, 1.0]), np.eye(2), 3.0)
        assert np.isfinite(residual) and residual <= 1e-15 * big

    def test_residual_does_not_depend_on_p(self):
        # the fiber-large pair at d = 96, instance 0: a_i^100 is subnormal
        # for its small eigenvalues, and p cancels in the closed form
        rng = np.random.default_rng([13, 96, 0])
        x, y = random_psd(rng, 96), random_psd(rng, 96)
        residuals = [lp_duality_check(x, y, p) for p in (2.0, 3.0, 100.0)]
        assert residuals[0] == residuals[1] == residuals[2]
        assert residuals[0] <= 1e-14 * (1.0 + abs(np.trace(x @ y).real))

    def test_non_square_y_rejected(self):
        with pytest.raises(ValueError, match="y must be a square matrix"):
            lp_duality_check(np.eye(2), np.ones((2, 3)), 2.0)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            lp_duality_check(np.eye(2), np.eye(2), 1.0)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="exponent must be finite"):
            lp_duality_check(np.eye(2), np.eye(2), p)


class TestFiberWeightNormalization:
    def test_unit_trace_density_normalizes(self):
        rng = rng_for(111, 0)
        h = random_psd(rng, 5)
        h = h / np.trace(h).real
        assert_close(threshold_integral(h, 1.0), 1.0, 1e-10)

    def test_exponent_two_matches_squared_norm(self):
        rng = rng_for(112, 0)
        x = random_psd(rng, 5)
        assert_close(threshold_integral(x, 2.0), np.trace(x @ x).real, 1e-10)

    def test_eigenvalue_near_zero_is_summed(self):
        assert abs(threshold_integral(np.diag([5e-10, 1.0]), 1.0) - (1.0 + 5e-10)) <= 1e-16

    @pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
    def test_invalid_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="exponent must be finite"):
            threshold_integral(np.eye(2), p)


def psd_stack(seed, count=5, dim=4):
    rng = rng_for(seed, 0)
    return np.array([random_psd(rng, dim) for _ in range(count)])


def unit_stack(seed, count=5, dim=4):
    x = psd_stack(seed, count, dim)
    return x / np.sqrt(np.einsum("nij,nji->n", x, x).real)[:, None, None]


class TestFloatRange:
    """A fiber integral past float range raises, naming its operand."""

    def test_threshold_integral_past_range(self):
        # the fiber-large x at d = 96, instance 0: 744^120 overflows
        x = random_psd(np.random.default_rng([13, 96, 0]), 96)
        with pytest.raises(ValueError, match="^x is past the float range"):
            threshold_integral(x, 120.0)

    @pytest.mark.parametrize(
        "call", [joint_spectral_measure, threshold_chi_distance, connes_certificate]
    )
    def test_pair_past_range(self, call):
        big = np.diag([1e200, 1.0])
        with pytest.raises(ValueError, match="^x is past the float range"):
            call(big, np.eye(2))
        with pytest.raises(ValueError, match="^y is past the float range"):
            call(np.eye(2), big)

    def test_stack_element_named(self):
        x, y = psd_stack(140), psd_stack(141)
        x[3] *= 1e200
        with pytest.raises(ValueError, match="^x element 3 is past the float range"):
            threshold_chi_distance(x, y)
        with pytest.raises(ValueError, match="^x element 3 is past the float range"):
            threshold_integral(x, 2.0)


class TestStackContracts:
    """(N, d, d) stacks: element-wise equal to single calls, failures
    named by index, single calls still scalar."""

    def test_single_calls_return_python_scalars(self):
        rng = rng_for(121, 0)
        x, y = random_psd(rng, 3), random_psd(rng, 3)
        x_unit = x / np.sqrt(np.trace(x @ x).real)
        connes = connes_certificate(x, y)
        comm = commutator_certificate(x_unit, random_pvm(rng, 3, 2))
        moments = measure_moments(joint_spectral_measure(x, y))
        for value in (
            connes.lhs, connes.mid, connes.rhs, comm.sum_comm_x, comm.sum_comm_q,
            comm.upper, moments.norm_x_sq, moments.norm_y_sq, moments.chi_distance,
            moments.inner_product, joint_spectral_measure(x, y).total_mass,
            threshold_chi_distance(x, y), lp_duality_check(x, y, 2.0),
            threshold_integral(x, 2.0),
        ):
            assert type(value) is float
        assert type(connes.holds) is bool and type(comm.holds) is bool

    def test_stacked_equals_single_element_by_element(self):
        x, y, x_unit = psd_stack(122), psd_stack(123), unit_stack(124)
        pvms = np.array([random_pvm(rng_for(125, i), 4, 3) for i in range(len(x))])
        connes = connes_certificate(x, y)
        comm = commutator_certificate(x_unit, pvms)
        measure = joint_spectral_measure(x, y)
        moments = measure_moments(measure)
        chi = threshold_chi_distance(x, y)
        dual = lp_duality_check(x, y, 3.0)
        power = threshold_integral(x, 2.0)
        for i in range(len(x)):
            one = connes_certificate(x[i], y[i])
            assert_close([connes.lhs[i], connes.mid[i], connes.rhs[i]],
                         [one.lhs, one.mid, one.rhs], 1e-12)
            assert connes.holds[i] == one.holds
            one = commutator_certificate(x_unit[i], pvms[i])
            assert_close([comm.sum_comm_x[i], comm.sum_comm_q[i], comm.upper[i]],
                         [one.sum_comm_x, one.sum_comm_q, one.upper], 1e-12)
            assert comm.holds[i] == one.holds
            single = joint_spectral_measure(x[i], y[i])
            atoms = measure.masses[i] > 0
            assert np.array_equal(measure.lambdas[i][atoms], single.lambdas)
            assert np.array_equal(measure.masses[i][atoms], single.masses)
            m = measure_moments(single)
            assert_close([moments.norm_x_sq[i], moments.chi_distance[i]],
                         [m.norm_x_sq, m.chi_distance], 1e-12)
            assert chi[i] == threshold_chi_distance(x[i], y[i])
            assert_close(dual[i], lp_duality_check(x[i], y[i], 3.0), 1e-12)
            assert_close(power[i], threshold_integral(x[i], 2.0), 1e-12)

    def test_decomposition_inputs_match_matrices(self):
        x, y = psd_stack(126), psd_stack(127)
        xdec, ydec = eigh(x), eigh(y)
        chi = threshold_chi_distance(x, y)
        assert np.array_equal(threshold_chi_distance(xdec, ydec), chi)
        assert_close(lp_duality_check(xdec, y, 2.0), lp_duality_check(x, y, 2.0), 1e-9)
        measure = joint_spectral_measure(x, y)
        assert np.array_equal(joint_spectral_measure(xdec, ydec).masses, measure.masses)

    def test_stacked_measure_integrates_per_pair(self):
        x, y = psd_stack(128), psd_stack(135)
        # the padding of this row sits at l = 0 and l = 1, where fn is infinite
        x[1], y[1] = np.diag([1.0, 2.0, 0.0, 0.0]), np.diag([3.0, 4.0, 0.0, 0.0])

        def fn(l):
            return 1.0 / (l * (1.0 - l))

        values = measure_integral(joint_spectral_measure(x, y), fn)
        assert values.shape == (len(x),)
        for i in range(len(x)):
            single = measure_integral(joint_spectral_measure(x[i], y[i]), fn)
            assert_close(values[i], single, 1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x, y: connes_certificate(x, y),
            lambda x, y: joint_spectral_measure(x, y),
            lambda x, y: threshold_chi_distance(y, x),
            lambda x, y: lp_duality_check(x, y, 2.0),
            lambda x, y: lp_duality_check(y, x, 2.0),
        ],
    )
    def test_non_psd_element_named_by_index(self, call):
        x, y = psd_stack(129), psd_stack(130)
        x[3] = np.diag([1.0, 0.5, -0.5, 0.2])
        with pytest.raises(ValueError, match=r"element 3 is not PSD"):
            call(x, y)

    def test_commutator_names_failing_element(self):
        x = unit_stack(131)
        pvms = np.array([random_pvm(rng_for(132, i), 4, 2) for i in range(len(x))])
        bad = x.copy()
        bad[2] *= 2.0
        with pytest.raises(ValueError, match=r"x element 2 must satisfy Tr"):
            commutator_certificate(bad, pvms)
        bad = x.copy()
        bad[4] = np.diag([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ValueError, match=r"x element 4 is not PSD"):
            commutator_certificate(bad, pvms)

    def test_stacked_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            joint_spectral_measure(psd_stack(133, count=3), psd_stack(134, count=4))

    def test_connes_stack_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"dimension mismatch: x has shape \(2, 4, 4\),"
                           r" y has shape \(3, 4, 4\)"):
            connes_certificate(psd_stack(136, count=2), psd_stack(137, count=3))

    def test_commutator_stack_mismatch_names_shapes(self):
        pvms = np.array([random_pvm(rng_for(139, i), 4, 2) for i in range(3)])
        with pytest.raises(ValueError, match=r"stack mismatch: x has shape \(2, 4, 4\),"
                           r" pvm has shape \(3, 2, 4, 4\)"):
            commutator_certificate(unit_stack(138, count=2), pvms)


def fiber_op(x, y, x_unit, pvm):
    """Every certificate of one PSD pair, as a fiber benchmark op runs them."""
    measure = joint_spectral_measure(x, y)
    connes = connes_certificate(x, y)
    comm = commutator_certificate(x_unit, pvm)
    return [
        measure.lambdas, measure.masses, measure_moments(measure).chi_distance,
        connes.lhs, connes.mid, connes.rhs, connes.holds, comm.sum_comm_q, comm.holds,
        lp_duality_check(x, y, 2.0), lp_duality_check(x, y, 3.0), threshold_integral(x, 2.0),
    ]


def fiber_inputs(seed, dim=12):
    rng = rng_for(seed, 0)
    x, y = random_psd(rng, dim), random_psd(rng, dim)
    return x, y, x / np.sqrt(np.trace(x @ x).real), random_pvm(rng, dim, 4)


def fresh(inputs):
    """Equal copies, so that nothing of a memo entry can be reused."""
    return tuple(np.array(v, copy=True) for v in inputs)


def assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@pytest.fixture
def eigensolves(monkeypatch):
    """Inputs of every eigensolve the fiber functions make."""
    calls = []

    def counted(matrix, what="matrix"):
        calls.append(what)
        return eigh(matrix, what)

    monkeypatch.setattr(haagerup, "eigh", counted)
    return calls


class TestSpectrumMemo:
    """The last few array operands are eigensolved once: the same object
    with the same content hits, anything else misses."""

    def test_fiber_op_eigensolves_each_operand_once(self, eigensolves):
        first, second = fiber_inputs(141), fiber_inputs(142)
        got = fiber_op(*first)
        assert eigensolves == ["x", "y", "x"]  # x, y and the unit x
        assert_same(fiber_op(*second), fiber_op(*fresh(second)))
        assert len(eigensolves) == 3 + 3 + 3
        assert_same(got, fiber_op(*fresh(first)))

    def test_entries_are_read_only(self):
        x = random_psd(rng_for(143, 0), 5)
        threshold_integral(x, 2.0)
        (_, copy, dec), = haagerup._SPECTRA._entries.values()
        for array in (copy, dec.eigenvalues, dec.eigenvectors):
            assert not array.flags.writeable
        assert x.flags.writeable

    def test_in_place_mutation_misses(self, eigensolves):
        x, y, x_unit, pvm = fiber_inputs(144)
        before = threshold_chi_distance(x, y)
        x *= 2.0
        x[0, 1] += 0.25
        x[1, 0] += 0.25
        after = threshold_chi_distance(x, y)
        assert eigensolves == ["x", "y", "x"]
        assert after == threshold_chi_distance(*fresh((x, y)))
        assert after != before

    def test_equal_copy_misses(self, eigensolves):
        x = random_psd(rng_for(145, 0), 6)
        threshold_integral(x, 2.0)
        threshold_integral(x.copy(), 2.0)
        threshold_integral(x, 3.0)
        assert len(eigensolves) == 2

    def test_dead_operand_never_matches(self, eigensolves):
        # an array made after the operand is freed may take its id; the
        # weak reference tells the two apart
        x = random_psd(rng_for(153, 0), 4)
        threshold_integral(x, 2.0)
        key, content = id(x), x.copy()
        del x
        arrays = [content.copy() for _ in range(8)]
        reused = [z for z in arrays if id(z) == key]
        if not reused:
            pytest.skip("no new array took the freed operand's id")
        threshold_integral(reused[0], 2.0)
        assert len(eigensolves) == 2

    def test_nan_entry_never_matches(self, eigensolves):
        x = random_psd(rng_for(146, 0), 4)
        threshold_integral(x, 2.0)
        x[0, 0] = np.nan
        for _ in range(2):
            with pytest.raises(ValueError, match="x has a non-finite entry"):
                threshold_integral(x, 2.0)
        assert len(eigensolves) == 3

    def test_non_psd_operand_raises_on_every_call(self, eigensolves):
        x = np.diag([1.0, 0.5, -0.5])
        y = random_psd(rng_for(147, 0), 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="^x is not PSD"):
                joint_spectral_measure(x, y)
        # y is solved as this call's x; the hit on x is checked as its y
        with pytest.raises(ValueError, match="^y is not PSD"):
            threshold_chi_distance(y, x)
        assert eigensolves == ["x", "x"]

    def test_decomposition_bypasses_memo(self, eigensolves):
        x, y, _, _ = fiber_inputs(148)
        xdec = eigh(x)
        threshold_chi_distance(xdec, y)
        assert eigensolves == ["y"] and len(haagerup._SPECTRA) == 1

    def test_stacks_bypass_memo(self, eigensolves):
        x, y = psd_stack(149), psd_stack(150)
        chi = threshold_chi_distance(x, y)
        assert np.array_equal(connes_certificate(x, y).mid, chi)
        assert len(eigensolves) == 4 and len(haagerup._SPECTRA) == 0

    def test_at_most_four_entries(self, eigensolves):
        rng = rng_for(151, 0)
        operands = [random_psd(rng, 3) for _ in range(6)]
        for x in operands:
            threshold_integral(x, 2.0)
            assert len(haagerup._SPECTRA) <= 4
        assert len(haagerup._SPECTRA) == 4
        # the two least recently used are gone, the last four hit
        for x in operands[2:] + operands[:2]:
            threshold_integral(x, 2.0)
        assert len(eigensolves) == 6 + 2

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        """Shapes of every np.linalg.eigvalsh input."""
        calls = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_duality_reads_a_held_y_from_the_memo(self, eigvalsh_calls):
        x, y, _, _ = fiber_inputs(154)
        joint_spectral_measure(x, y)
        held = [lp_duality_check(x, y, p) for p in (2.0, 3.0)]
        assert eigvalsh_calls == []
        # an equal copy misses and is checked by its own eigvalsh
        assert [lp_duality_check(x, y.copy(), p) for p in (2.0, 3.0)] == held
        assert eigvalsh_calls == [y.shape, y.shape]

    def test_duality_reads_a_y_decomposition(self, eigvalsh_calls):
        x, y = psd_stack(158), psd_stack(159)
        lp_duality_check(x, eigh(y), 2.0)
        assert eigvalsh_calls == []

    def test_duality_checks_a_stack_with_eigvalsh(self, eigvalsh_calls):
        x, y = psd_stack(155), psd_stack(156)
        lp_duality_check(x, y, 2.0)
        assert eigvalsh_calls == [y.shape]

    def test_duality_names_a_non_psd_y_on_miss_and_hit(self, eigvalsh_calls):
        x = random_psd(rng_for(157, 0), 3)
        y = np.diag([1.0, 0.5, -0.5])
        with pytest.raises(ValueError, match="^y is not PSD"):
            lp_duality_check(x, y, 2.0)
        assert len(eigvalsh_calls) == 1
        # solving y as an x leaves it in the memo, so the next check hits
        with pytest.raises(ValueError, match="^x is not PSD"):
            threshold_integral(y, 2.0)
        with pytest.raises(ValueError, match="^y is not PSD"):
            lp_duality_check(x, y, 2.0)
        assert len(eigvalsh_calls) == 1

    def test_threads_agree_with_serial(self):
        pairs = [fiber_inputs(152 + k, dim=8) for k in range(3)]
        serial = [fiber_op(*fresh(inputs)) for inputs in pairs]
        results, errors = {}, []
        barrier = threading.Barrier(4)

        def work(k):
            try:
                barrier.wait(timeout=10)
                for round_ in range(20):
                    i = (k + round_) % len(pairs)
                    results[k, round_] = (i, fiber_op(*pairs[i]))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 4 * 20
        for i, got in results.values():
            assert_same(got, serial[i])
        assert len(haagerup._SPECTRA) <= 4
