"""Symmetric two-armed Bernoulli bandit: exact minimax regret and
pseudoregret from closed-form sums and one O(T) pass, closed-form
parabolic approximations, and a reproducible experiment harness.

Import what you need from the submodules: `core`, `dp`, `env`,
`experiments`, `pde`, `strategy` and `cli`.
"""

__version__ = "0.1.0"
