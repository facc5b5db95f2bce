"""Decoupled signal correction and uncertainty observation for systems with
large-error position sensing and an accurate velocity channel, plus a full
quadrotor navigation-and-control simulation and an EKF comparison baseline.
"""

from .estimators import (AxisMeasurement, CorrectorParams, CorrectorState,
                         ObserverParams, ObserverState, step_corrector,
                         step_observer)
from .fractional import falpha
from .freq import (ParamValidationReport, corrector_natural_frequency,
                   filtering_advice, linearize_corrector, linearize_observer,
                   observer_natural_frequency, omega_coefficient,
                   validate_corrector_params, validate_observer_params)
from .plant import (UavParams, UncertaintyModel, input_acceleration_scalars,
                    plant_axes, step_plant)
from .sensors import (LargeErrorModel, LargeErrorProcess, NoiseMixture,
                      SensorConfig, SensorSuite, sample_noise)
from .control import (CircleTrajectory, ControlGains, HoverTrajectory,
                      attitude_control, position_control, uncertainty_rescale)
from .ekf import (EkfConfig, EkfState, ekf_init, ekf_predict, ekf_update,
                  process_noise)
from .engine import (DecouplingReport, ScenarioConfig, SimulationDiverged,
                     SweepResult, TraceLog, TrajectorySpec, convergence_study,
                     decoupling_check, metrics, observer_ramp_study,
                     run_scenario, sweep_parameter, tune_ekf_process_noise)
from .config import (ConfigError, bundled_config_path, load_scenario,
                     save_scenario, scenario_from_dict, scenario_to_dict)

__version__ = "0.1.0"
