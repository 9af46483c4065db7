"""Tests for the heavy-tail quantification of UTS subtree sizes."""

import pytest

from repro.uts import TreeParams, subtree_sizes
from repro.uts.stats import tail_exponent

# The fit is the package's ``analysis`` extra (tests/test_packaging.py
# pins what happens without it).
pytest.importorskip("numpy")
pytest.importorskip("scipy.stats")


def test_requires_enough_samples():
    with pytest.raises(ValueError):
        tail_exponent([5, 6, 7])


def test_near_critical_tree_tail_close_to_minus_half():
    """Branching-process theory: P(S > s) ~ s^(-1/2) near criticality."""
    sizes = subtree_sizes(TreeParams.binomial(b0=2000, m=2, q=0.495, seed=0))
    alpha, r = tail_exponent(sizes)
    assert -0.75 < alpha < -0.3
    assert r < -0.97  # a clean power law on log-log axes


def test_subcritical_tree_tail_steeper():
    """Far from criticality the tail decays much faster."""
    near = subtree_sizes(TreeParams.binomial(b0=2000, m=2, q=0.495, seed=0))
    far = subtree_sizes(TreeParams.binomial(b0=2000, m=2, q=0.30, seed=0))
    a_near, _ = tail_exponent(near)
    a_far, _ = tail_exponent(far)
    assert a_far < a_near  # steeper (more negative) away from critical


def test_exponent_deterministic():
    sizes = subtree_sizes(TreeParams.binomial(b0=500, m=2, q=0.48, seed=3))
    assert tail_exponent(sizes) == tail_exponent(sizes)
