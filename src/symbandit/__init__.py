"""Symmetric two-armed Bernoulli bandit: exact minimax regret and
pseudoregret by backward induction, closed-form parabolic approximations,
and a reproducible experiment harness."""

from .core import erf, erfc, terminal_payoff
from .dp import (
    bayesian_pseudoregret_check,
    pseudoregret_value,
    pseudoregret_value_full,
    regret_value,
    regret_value_full,
    value_trace,
)
from .env import EpisodeLog, play_episode, play_episodes, simulate_batch
from .experiments import (
    MCResult,
    ScalingFit,
    SweepSpec,
    convergence_sweep,
    error_scaling_fit,
    figure_data,
    mc_estimate,
)
from .pde import (
    ClosedForm,
    bar_u_total,
    maximize_prefactor,
    pde_residual,
    phi_fn,
    phi_hat,
    prefactor_c,
    prefactor_c_bar,
    u_h,
    u_total,
)
from .strategy import (
    MyopicStrategy,
    TabularStrategy,
    UniformStrategy,
    brute_force_minimax,
    minimax_pair_solve,
)

__version__ = "0.1.0"
