"""F-distribution tail probabilities and BH-FDR against independent references."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneforge.errors import ParameterError
from tuneforge.stats import (benjamini_hochberg, f_upper_tail_p,
                             regularized_incomplete_beta)

# Independent reference value, computed with scipy.stats.f.sf(3.0, 9, 32)
# before the implementation was written.
P_F3_9_32 = 0.010402078937926598


class TestFUpperTail:
    def test_zero_statistic_gives_one(self):
        assert f_upper_tail_p(0.0, 3, 7) == 1.0

    def test_symmetry_at_one_with_equal_dfs(self):
        # P(F >= 1) = 0.5 exactly when df1 == df2
        for df in (1, 4, 9, 30):
            assert f_upper_tail_p(1.0, df, df) == pytest.approx(0.5, abs=1e-12)

    def test_reference_point(self):
        assert f_upper_tail_p(3.0, 9, 32) == pytest.approx(P_F3_9_32, abs=1e-8)

    def test_matches_scipy_over_a_sweep(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            f = float(rng.uniform(0.0, 25.0))
            df1 = int(rng.integers(1, 50))
            df2 = int(rng.integers(1, 50))
            assert f_upper_tail_p(f, df1, df2) == pytest.approx(
                scipy.stats.f.sf(f, df1, df2), abs=1e-10)

    def test_monotone_decreasing_in_f(self):
        grid = np.linspace(0.0, 12.0, 100)
        ps = [f_upper_tail_p(float(f), 9, 32) for f in grid]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            f_upper_tail_p(-1.0, 3, 3)
        with pytest.raises(ParameterError):
            f_upper_tail_p(float("nan"), 3, 3)
        with pytest.raises(ParameterError):
            f_upper_tail_p(1.0, 0, 3)


class TestIncompleteBeta:
    @pytest.mark.parametrize("a, b, x, named", [
        (0.0, 1.0, 0.5, r"beta parameters must be positive"),
        (1.0, -2.0, 0.5, r"beta parameters must be positive"),
        (1.0, 1.0, 1.5, r"x must lie in \[0, 1\], got 1.5"),
        (1.0, 1.0, -0.1, r"x must lie in \[0, 1\], got -0.1")])
    def test_arguments_outside_the_domain_are_refused(self, a, b, x, named):
        with pytest.raises(ParameterError, match=f"^{named}$"):
            regularized_incomplete_beta(a, b, x)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a = float(rng.uniform(0.5, 40.0))
            b = float(rng.uniform(0.5, 40.0))
            x = float(rng.uniform(0.0, 1.0))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                scipy.stats.beta.cdf(x, a, b), abs=1e-11)


class TestBenjaminiHochberg:
    def test_single_p_is_identity(self):
        assert benjamini_hochberg([0.05]) == [0.05]

    def test_hand_derived_four_element_case(self):
        assert benjamini_hochberg([0.01, 0.04, 0.03, 0.005]) == \
            pytest.approx([0.02, 0.04, 0.04, 0.02], abs=1e-15)

    def test_constant_vector_unchanged(self):
        assert benjamini_hochberg([0.3] * 5) == pytest.approx([0.3] * 5)

    def test_empty_list(self):
        assert benjamini_hochberg([]) == []

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            benjamini_hochberg([0.5, 1.5])

    def test_q_dominates_p_and_stepup_monotone_on_random_vectors(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            m = int(rng.integers(1, 40))
            p = rng.uniform(0.0, 1.0, size=m).tolist()
            q = benjamini_hochberg(p)
            assert all(qi >= pi - 1e-15 for qi, pi in zip(q, p))
            assert all(qi <= 1.0 for qi in q)
            order = sorted(range(m), key=lambda i: p[i])
            sorted_q = [q[i] for i in order]
            assert all(a <= b + 1e-15 for a, b in zip(sorted_q, sorted_q[1:]))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25))
    @settings(max_examples=100)
    def test_matches_reordered_invariance(self, p):
        q = benjamini_hochberg(p)
        perm = list(reversed(range(len(p))))
        q_perm = benjamini_hochberg([p[i] for i in perm])
        assert [q_perm[perm.index(i)] for i in range(len(p))] == pytest.approx(q)
