"""splitflow: exponential dichotomies under bounded random forcing.

Library layers, bottom to top:

- :mod:`splitflow.noise` -- two-sided noise paths, Wiener shifts, the
  stationary pathwise filter z*, the time-rescaling kappa and the dressing;
- :mod:`splitflow.cocycle` -- discrete/continuous linear cocycles and their
  propagators;
- :mod:`splitflow.dichotomy` -- dichotomy certificates, spectral splitting,
  numerical verification;
- :mod:`splitflow.greens` -- bounded solutions of perturbed difference
  equations by kernel-sum contraction;
- :mod:`splitflow.robustness` -- perturbed-dichotomy constants and the
  discrete/continuous robustness pipelines;
- :mod:`splitflow.hyperbolic` -- random hyperbolic solutions of semilinear
  problems and their certification;
- :mod:`splitflow.sde_bridge` -- the multiplicative-noise change of
  variables and the program's two models, the scalar cubic and the
  spectral damped wave;
- :mod:`splitflow.cli` -- reproducible experiment runner.
"""

from .grids import TimeGrid
from .errors import (ConfigurationError, ContractionMarginError,
                     IntegrationError, NonHyperbolicError,
                     RobustnessHypothesisError, SplitflowError,
                     ThresholdError, WindowError)
from .noise import (KappaFn, NoiseDressing, SamplePath, default_kappa,
                    injected_path, linear_path, ou_series, ou_value,
                    sample_wiener_path, shift_path, sublinearity_report,
                    zero_path)
from .cocycle import (ContinuousCocycle, DiscreteCocycle, discretize,
                      pointwise, propagator)
from .dichotomy import (DichotomyCertificate, VerificationReport,
                        autonomous_certificate, paper_projection_bound,
                        projection_distance, spectral_projection,
                        verify_dichotomy)
from .greens import (BoundedSolution, ForcingSequence, bounded_solution,
                     impulse_response_projection, truncation_length)
from .robustness import (RobustConstants, delta_threshold, gronwall_constants,
                         lift_certificate, robust_constants,
                         robust_dichotomy_continuous, robust_dichotomy_discrete)
from .hyperbolic import (HyperbolicSolutionCertificate, SemilinearProblem,
                         certify_hyperbolic, eta_cutoff,
                         find_hyperbolic_solution, ladder, lambda_eta,
                         linearize_along, neighborhood_thresholds, rho_modulus)
from .sde_bridge import (StratonovichSpec, build_wave_system, cubic_problem,
                         inverse_transform, random_ode_problem, wave_problem,
                         wave_row)

__version__ = "0.1.0"
