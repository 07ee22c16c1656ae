"""splitflow: exponential dichotomies under bounded random forcing.

Library layers, bottom to top:

- :mod:`splitflow.noise` -- two-sided noise paths, Wiener shifts, the
  stationary pathwise filter z*, and the time-rescaling kappa;
- :mod:`splitflow.cocycle` -- discrete/continuous linear cocycles and their
  propagators;
- :mod:`splitflow.dichotomy` -- dichotomy certificates, spectral splitting,
  numerical verification, Green kernels;
- :mod:`splitflow.greens` -- bounded solutions of perturbed difference
  equations by kernel-sum contraction;
- :mod:`splitflow.robustness` -- perturbed-dichotomy constants and the
  discrete/continuous robustness pipelines;
- :mod:`splitflow.hyperbolic` -- random hyperbolic solutions of semilinear
  problems and their certification;
- :mod:`splitflow.sde_bridge` -- the multiplicative-noise change of
  variables and the spectral damped-wave demo;
- :mod:`splitflow.cli` -- reproducible experiment runner.
"""

from .grids import TimeGrid
from .errors import (ConfigurationError, ContractionMarginError,
                     IntegrationError, NonHyperbolicError,
                     RobustnessHypothesisError, SplitflowError,
                     ThresholdError, WindowError)
from .noise import (KappaFn, NoiseBounds, SamplePath, default_kappa,
                    injected_path, linear_path, noise_bounds, ou_series,
                    ou_value, sample_wiener_path, shift_path,
                    sublinearity_report, zero_path)
from .cocycle import (ContinuousCocycle, DiscreteCocycle,
                      EvolutionProcessView, compose_discrete, discretize,
                      export_matrix_csv, integrate, one_step_bound, pointwise,
                      propagator, spectral_norm)
from .dichotomy import (DichotomyCertificate, GreenKernel, VerificationReport,
                        autonomous_certificate, autonomous_certificate_discrete,
                        paper_projection_bound, projection_distance,
                        spectral_projection, spectral_projection_discrete,
                        verify_dichotomy)
from .greens import (BoundedSolution, ForcingSequence, bounded_solution,
                     gamma_apply, impulse_response_projection,
                     truncation_length)
from .robustness import (LinearPerturbationVerdict, RobustConstants,
                         delta_threshold, gronwall_constants, lift_certificate,
                         linear_random_perturbation_check, robust_constants,
                         robust_dichotomy_continuous, robust_dichotomy_discrete,
                         subspace_decay_diagnostic)
from .hyperbolic import (HyperbolicSolutionCertificate, SemilinearProblem,
                         certify_hyperbolic, eta_epsilon,
                         find_hyperbolic_solution, lambda_eta, linearize_along,
                         neighborhood_thresholds, rho_modulus)
from .sde_bridge import (RandomODESpec, StratonovichSpec, WaveDemoReport,
                         build_wave_system, inverse_transform,
                         random_ode_problem, run_wave_demo, transform)

__version__ = "0.1.0"
