//! The end-to-end EDEN pipeline (Figure 4).
//!
//! Starting from a baseline DNN trained on reliable hardware and a target
//! approximate DRAM device, the pipeline (1) characterizes the device and
//! fits/selects an error model, (2) boosts the DNN with curricular
//! retraining, (3) characterizes the boosted DNN's error tolerance, and (4)
//! maps the DNN to the device's operating parameters — iterating the
//! boost/characterize/map cycle until the tolerable BER stops improving.

use crate::bounding::{BoundingLogic, CorrectionPolicy};
use crate::characterize::{coarse_characterize_session, CoarseCharacterization, CoarseConfig};
use crate::curricular::{CurricularConfig, CurricularTrainer};
use crate::inference::InferenceBackend;
use crate::mapping::{coarse_map, CoarseMapping};
use crate::session::EvalSession;
use eden_dnn::{Dataset, Network};
use eden_dram::characterize::{characterize_bank, CharacterizeConfig};
use eden_dram::fit::select_model;
use eden_dram::{ApproxDramDevice, ErrorModel, OperatingPoint};
use eden_tensor::Precision;
use serde::{Deserialize, Serialize};

/// Configuration of the full EDEN pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdenConfig {
    /// Maximum accuracy drop the user tolerates (1% in the paper's headline
    /// results).
    pub accuracy_drop: f32,
    /// Numeric precision of the deployed DNN.
    pub precision: Precision,
    /// Execution backend for every characterization and report evaluation
    /// (curricular retraining always *trains* in f32 — backpropagation needs
    /// the float graph — but its accuracy reports honor this backend).
    pub backend: InferenceBackend,
    /// Operating point at which the target device is characterized for
    /// error-model fitting.
    pub profiling_point: OperatingPoint,
    /// Curricular retraining settings (the target BER is overwritten by the
    /// pipeline's iterative search).
    pub retraining: CurricularConfig,
    /// Coarse characterization settings (the accuracy drop is overwritten by
    /// `accuracy_drop`).
    pub characterization: CoarseConfig,
    /// Device characterization settings.
    pub dram_characterization: CharacterizeConfig,
    /// Boost → characterize → map iterations (the paper iterates until the
    /// tolerable BER stops improving; two rounds capture most of the gain).
    pub iterations: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for EdenConfig {
    fn default() -> Self {
        Self {
            accuracy_drop: 0.01,
            precision: Precision::Int8,
            backend: InferenceBackend::default(),
            profiling_point: OperatingPoint::with_vdd_reduction(0.30),
            retraining: CurricularConfig::default(),
            characterization: CoarseConfig::default(),
            dram_characterization: CharacterizeConfig {
                rows_per_pattern: 1,
                bitlines_per_row: 1024,
                reads_per_row: 3,
                seed: 0,
            },
            iterations: 2,
            seed: 0,
        }
    }
}

/// The outcome of running EDEN for one DNN on one device.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdenOutcome {
    /// Error model selected for the target device.
    pub error_model: ErrorModel,
    /// Accuracy of the baseline DNN on reliable memory.
    pub baseline_accuracy: f32,
    /// Maximum BER tolerated by the baseline (un-boosted) DNN.
    pub baseline_tolerable_ber: f64,
    /// Coarse characterization of the boosted DNN.
    pub boosted: CoarseCharacterization,
    /// Final DNN→DRAM coarse mapping (ΔVDD / ΔtRCD).
    pub mapping: CoarseMapping,
    /// Tolerable-BER improvement factor from boosting.
    pub boost_factor: f64,
}

/// The EDEN pipeline.
#[derive(Debug, Clone)]
pub struct EdenPipeline {
    config: EdenConfig,
}

impl EdenPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: EdenConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EdenConfig {
        &self.config
    }

    /// Runs EDEN: characterizes `device`, boosts `net` in place, and returns
    /// the characterization and mapping results.
    pub fn run(
        &self,
        net: &mut Network,
        dataset: &dyn Dataset,
        device: &ApproxDramDevice,
    ) -> EdenOutcome {
        let cfg = &self.config;

        // Step 0: characterize the device and select the best-fitting error
        // model (Section 4). Device profiling and bounding-threshold
        // calibration are independent, so they run concurrently; every
        // evaluation below additionally fans its sample batch out over the
        // `eden-par` pool (see `EvalSession::evaluate_with_faults`), and all of
        // it is bit-identical for any thread count.
        let (error_model, bounding) = eden_par::join(
            || {
                let observations =
                    characterize_bank(device, 0, &cfg.profiling_point, &cfg.dram_characterization);
                select_model(&observations, cfg.seed).model
            },
            || {
                BoundingLogic::calibrated(
                    net,
                    &dataset.train()[..16.min(dataset.train().len())],
                    1.5,
                    CorrectionPolicy::Zero,
                )
            },
        );
        let coarse_cfg = CoarseConfig {
            accuracy_drop: cfg.accuracy_drop,
            seed: cfg.seed,
            backend: cfg.backend,
            ..cfg.characterization
        };
        // Each characterization holds its own evaluation session: the probes
        // of one binary search share weight images, corrupted-weight pools
        // and weak-cell maps, while retraining between characterizations
        // mutates the network and therefore invalidates any longer-lived
        // session.
        let baseline = {
            let mut session = EvalSession::new(net, cfg.precision, cfg.backend);
            coarse_characterize_session(
                &mut session,
                dataset,
                &error_model,
                Some(bounding),
                &coarse_cfg,
            )
        };

        // Iterate boost → characterize until the tolerable BER stops
        // improving (Section 3.3).
        let mut best = baseline.clone();
        let mut target_ber = (baseline.max_tolerable_ber * 4.0).clamp(1e-4, 0.1);
        for iteration in 0..cfg.iterations.max(1) {
            let retrain_cfg = CurricularConfig {
                target_ber,
                precision: cfg.precision,
                backend: cfg.backend,
                seed: cfg.seed ^ (iteration as u64 + 1),
                ..cfg.retraining
            };
            CurricularTrainer::new(retrain_cfg).retrain(net, dataset, &error_model);
            let bounding = BoundingLogic::calibrated(
                net,
                &dataset.train()[..16.min(dataset.train().len())],
                1.5,
                CorrectionPolicy::Zero,
            );
            let mut session = EvalSession::new(net, cfg.precision, cfg.backend);
            let characterized = coarse_characterize_session(
                &mut session,
                dataset,
                &error_model,
                Some(bounding),
                &coarse_cfg,
            );
            if characterized.max_tolerable_ber <= best.max_tolerable_ber {
                break;
            }
            target_ber = (characterized.max_tolerable_ber * 2.0).min(0.1);
            best = characterized;
        }

        let mapping = coarse_map(best.max_tolerable_ber, device.profile());
        EdenOutcome {
            error_model,
            baseline_accuracy: baseline.baseline_accuracy,
            baseline_tolerable_ber: baseline.max_tolerable_ber,
            boost_factor: if baseline.max_tolerable_ber > 0.0 {
                best.max_tolerable_ber / baseline.max_tolerable_ber
            } else {
                f64::INFINITY
            },
            boosted: best,
            mapping,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_dnn::data::SyntheticVision;
    use eden_dnn::train::{TrainConfig, Trainer};
    use eden_dnn::zoo;
    use eden_dram::Vendor;

    fn quick_config() -> EdenConfig {
        EdenConfig {
            retraining: CurricularConfig {
                epochs: 2,
                step_epochs: 1,
                ..CurricularConfig::default()
            },
            characterization: CoarseConfig {
                eval_samples: 24,
                iterations: 4,
                ..CoarseConfig::default()
            },
            dram_characterization: CharacterizeConfig {
                rows_per_pattern: 1,
                bitlines_per_row: 256,
                reads_per_row: 2,
                seed: 0,
            },
            iterations: 1,
            accuracy_drop: 0.03,
            ..EdenConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_a_usable_outcome() {
        let dataset = SyntheticVision::tiny(0);
        let mut net = zoo::lenet(&dataset.spec(), 1);
        Trainer::new(TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        })
        .train(&mut net, &dataset);

        let device = ApproxDramDevice::new(Vendor::A, 5);
        let outcome = EdenPipeline::new(quick_config()).run(&mut net, &dataset, &device);

        assert!(outcome.baseline_accuracy > 0.3);
        assert!(outcome.boosted.max_tolerable_ber >= outcome.baseline_tolerable_ber);
        assert!(outcome.boost_factor >= 1.0);
        // The mapping must correspond to the boosted tolerance.
        assert!(outcome.mapping.max_tolerable_ber == outcome.boosted.max_tolerable_ber);
        assert!(outcome.mapping.vdd_reduction >= 0.0);
        // The error model was fitted to a device with real errors at the
        // profiling point.
        assert!(outcome.error_model.expected_ber() > 0.0);
    }
}
