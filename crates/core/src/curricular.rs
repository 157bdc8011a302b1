//! Curricular retraining (Section 3.2).
//!
//! Retraining a DNN with the error characteristics of the target approximate
//! DRAM boosts its error tolerance by 5–10×. Injecting the full target error
//! rate from the first epoch occasionally diverges ("accuracy collapse"), so
//! EDEN ramps the injected BER from zero to the target in steps — every two
//! epochs in the paper. Errors are injected only in the forward pass (the
//! forward pass runs on approximate DRAM, the backward pass on reliable
//! DRAM), and implausible values are corrected on every load.

use crate::bounding::{BoundingLogic, CorrectionPolicy};
use crate::faults::ApproximateMemory;
use crate::inference::InferenceBackend;
use crate::session::EvalSession;
use eden_dnn::data::Dataset;
use eden_dnn::metrics;
use eden_dnn::optimizer::Sgd;
use eden_dnn::train::minibatch_step;
use eden_dnn::Network;
use eden_dram::ErrorModel;
use eden_tensor::Precision;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of curricular retraining.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurricularConfig {
    /// Total retraining epochs (10–15 in the paper).
    pub epochs: usize,
    /// Epochs between error-rate increases (2 in the paper).
    pub step_epochs: usize,
    /// Target bit error rate reached at the end of the ramp.
    pub target_ber: f64,
    /// Whether to ramp the error rate (curricular) or inject the full target
    /// rate from the first epoch (the non-curricular ablation of Figure 10).
    pub curricular: bool,
    /// Numeric precision of the stored data during retraining.
    pub precision: Precision,
    /// Execution backend for the report's accuracy evaluations (training
    /// itself always runs the simulated-f32 forward: backpropagation needs
    /// the float graph). Callers running NativeInt everywhere else should
    /// set it here too, so `final_approximate_accuracy` measures the engine
    /// that will serve the deployed DNN.
    pub backend: InferenceBackend,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate (lower than baseline training: this is fine-tuning).
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Shuffling / injection seed.
    pub seed: u64,
}

impl Default for CurricularConfig {
    fn default() -> Self {
        Self {
            epochs: 6,
            step_epochs: 2,
            target_ber: 1e-2,
            curricular: true,
            precision: Precision::Int8,
            backend: InferenceBackend::SimulatedF32,
            batch_size: 16,
            learning_rate: 0.01,
            momentum: 0.9,
            seed: 0,
        }
    }
}

/// Result of a retraining run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrainReport {
    /// `(injected BER, mean loss)` per epoch.
    pub epochs: Vec<(f64, f32)>,
    /// Accuracy on reliable memory after retraining.
    pub final_reliable_accuracy: f32,
    /// Accuracy on approximate memory at the target BER after retraining.
    pub final_approximate_accuracy: f32,
}

/// Retrains ("boosts") a DNN for a target approximate DRAM error model.
#[derive(Debug, Clone)]
pub struct CurricularTrainer {
    config: CurricularConfig,
}

impl CurricularTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: CurricularConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CurricularConfig {
        &self.config
    }

    /// Injected BER for a given epoch under the configured schedule.
    pub fn ber_for_epoch(&self, epoch: usize) -> f64 {
        if !self.config.curricular {
            return self.config.target_ber;
        }
        let steps_total = (self.config.epochs.div_ceil(self.config.step_epochs)).max(1);
        let step = (epoch / self.config.step_epochs).min(steps_total - 1);
        // Ramp linearly from target/steps to target.
        self.config.target_ber * (step + 1) as f64 / steps_total as f64
    }

    /// Retrains `net` in place against the error characteristics captured by
    /// `error_model`, returning a report.
    pub fn retrain(
        &self,
        net: &mut Network,
        dataset: &dyn Dataset,
        error_model: &ErrorModel,
    ) -> RetrainReport {
        let cfg = &self.config;
        let bounding = BoundingLogic::calibrated(
            net,
            &dataset.train()[..16.min(dataset.train().len())],
            1.5,
            CorrectionPolicy::Zero,
        );
        let mut optimizer = Sgd::new(cfg.learning_rate, cfg.momentum, 1e-4);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut epochs = Vec::with_capacity(cfg.epochs);

        // One persistent corrupted copy serves every batch of the run: each
        // batch resets its parameters in place from the master network's
        // current bit images and patches the batch's sparse corruption
        // overlay on top, instead of deep-cloning the network object graph
        // per batch. Its running statistics persist across batches; each
        // batch's samples train on lane replicas of it (bit-identical — see
        // `train_epoch`).
        let mut corrupted = net.clone();
        for epoch in 0..cfg.epochs {
            let ber = self.ber_for_epoch(epoch);
            let epoch_model = error_model.with_ber(ber);
            let mut memory = ApproximateMemory::from_model(epoch_model, cfg.seed ^ epoch as u64)
                .with_bounding(bounding);
            let loss = self.train_epoch(
                net,
                &mut corrupted,
                dataset,
                &mut optimizer,
                &mut memory,
                &mut rng,
            );
            epochs.push((ber, loss));
        }

        let target_model = error_model.with_ber(cfg.target_ber);
        let mut eval_memory =
            ApproximateMemory::from_model(target_model, cfg.seed ^ 0xEEEE).with_bounding(bounding);
        let session = EvalSession::new(net, cfg.precision, cfg.backend);
        RetrainReport {
            epochs,
            final_reliable_accuracy: metrics::accuracy(net, dataset.test()),
            final_approximate_accuracy: session
                .evaluate_with_faults(dataset.test(), &mut eval_memory),
        }
    }

    /// One epoch of retraining: the forward pass runs on approximate DRAM
    /// (weights and IFMs corrupted and bound-corrected), the backward pass
    /// and weight update run on reliable DRAM. Returns the epoch's mean
    /// loss; `memory` serves every load of the epoch and accumulates its
    /// statistics.
    ///
    /// `corrupted` is the run's persistent approximate-DRAM copy of `net`:
    /// per batch, the master's parameters are quantized to fresh bit images
    /// (they must be recaptured every batch because the optimizer just
    /// updated the master weights), loaded clean, and patched with the
    /// batch's sparse fault draw
    /// ([`ApproximateMemory::corrupt_overlay`] / [`Network::apply_overlay`]).
    /// This consumes the same load streams and produces the same parameter
    /// values as corrupting a copy of every clean image and loading the
    /// copies whole would.
    ///
    /// The batch's samples then train data-parallel on lane replicas of
    /// `corrupted` ([`eden_dnn::train::minibatch_step`]). Each sample makes
    /// one IFM load per layer, so sample `k` of the batch is served by the
    /// [`ApproximateMemory::cursor`] `k · depth` loads ahead — the draws the
    /// sequential loop would have made for it — after
    /// [`ApproximateMemory::preallocate`] has placed every IFM site in the
    /// order that loop allocates them lazily (weights at the fetch, then
    /// IFMs in layer order). Sequential references in the test suites (one
    /// reloading every image into a fresh clone, one on a persistent copy)
    /// pin the whole epoch bit for bit: losses, parameters, running
    /// statistics and memory statistics.
    pub fn train_epoch(
        &self,
        net: &mut Network,
        corrupted: &mut Network,
        dataset: &dyn Dataset,
        optimizer: &mut Sgd,
        memory: &mut ApproximateMemory,
        rng: &mut StdRng,
    ) -> f32 {
        let cfg = &self.config;
        let mut order: Vec<usize> = (0..dataset.train().len()).collect();
        order.shuffle(rng);
        let loads_per_sample = corrupted.depth() as u64;
        let mut total_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            // Weights are fetched from approximate DRAM once per batch: the
            // corrupted copy is reset to the batch's clean images and the
            // draw's overlay (flips + bounding corrections) patched on top.
            let images = net.weight_images(cfg.precision);
            let overlays: Vec<_> = images
                .iter()
                .map(|img| memory.corrupt_overlay(&img.site, &img.clean, None))
                .collect();
            corrupted.load_clean_weights(&images);
            corrupted.apply_overlay(&images, &overlays);
            memory.preallocate(corrupted, cfg.precision);
            let parent = &*memory;
            let (batch_loss, stats) =
                minibatch_step(corrupted, dataset.train(), chunk, |lane, k, x| {
                    let mut cursor = parent.cursor(k as u64 * loads_per_sample);
                    let logits = lane.forward_train_with_ifm_hook(x, cfg.precision, &mut cursor);
                    (logits, cursor.stats())
                });
            for s in stats {
                memory.merge_stats(s);
            }
            memory.advance(chunk.len() as u64 * loads_per_sample);
            // Transfer gradients to the clean master copy and update it on
            // reliable memory.
            let grads = corrupted.collect_grads();
            net.set_grads(&grads);
            optimizer.step(net);
            net.zero_grads();
            total_loss += batch_loss / chunk.len() as f32;
            batches += 1;
        }
        total_loss / batches.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_dnn::data::SyntheticVision;
    use eden_dnn::train::{TrainConfig, Trainer};
    use eden_dnn::{loss, zoo, Dataset};
    use eden_tensor::Tensor;

    fn baseline(seed: u64) -> (Network, SyntheticVision) {
        let dataset = SyntheticVision::tiny(seed);
        let mut net = zoo::lenet(&dataset.spec(), seed);
        Trainer::new(TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        })
        .train(&mut net, &dataset);
        (net, dataset)
    }

    #[test]
    fn schedule_ramps_to_target() {
        let trainer = CurricularTrainer::new(CurricularConfig {
            epochs: 6,
            step_epochs: 2,
            target_ber: 0.03,
            ..CurricularConfig::default()
        });
        assert!(trainer.ber_for_epoch(0) < 0.03);
        assert!(trainer.ber_for_epoch(0) > 0.0);
        assert!(trainer.ber_for_epoch(2) > trainer.ber_for_epoch(0));
        assert!((trainer.ber_for_epoch(5) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn non_curricular_schedule_is_flat() {
        let trainer = CurricularTrainer::new(CurricularConfig {
            curricular: false,
            target_ber: 0.02,
            ..CurricularConfig::default()
        });
        for e in 0..6 {
            assert_eq!(trainer.ber_for_epoch(e), 0.02);
        }
    }

    #[test]
    fn retraining_boosts_error_tolerance() {
        let (net, dataset) = baseline(0);
        let template = ErrorModel::uniform(0.01, 0.5, 3);
        let target_ber = 6e-3;
        let samples = &dataset.test()[..48];

        // Single-seed accuracy under injection is noisy (one unlucky flip set
        // can cost several samples out of 48), so compare means over a few
        // injection seeds.
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let mean_acc = |candidate: &Network| {
            let session =
                EvalSession::new(candidate, Precision::Int8, InferenceBackend::SimulatedF32);
            let seeds = [9u64, 10, 11, 12];
            seeds
                .iter()
                .map(|&s| {
                    let mut memory =
                        ApproximateMemory::from_model(template.with_ber(target_ber), s)
                            .with_bounding(bounding);
                    session.evaluate_with_faults(samples, &mut memory)
                })
                .sum::<f32>()
                / seeds.len() as f32
        };
        let baseline_acc = mean_acc(&net);

        // Boost and re-evaluate.
        let mut boosted = net.clone();
        let trainer = CurricularTrainer::new(CurricularConfig {
            epochs: 4,
            step_epochs: 1,
            target_ber,
            seed: 5,
            ..CurricularConfig::default()
        });
        let report = trainer.retrain(&mut boosted, &dataset, &template);
        let boosted_acc = mean_acc(&boosted);

        assert_eq!(report.epochs.len(), 4);
        assert!(
            boosted_acc >= baseline_acc - 0.05,
            "boosted accuracy {boosted_acc} should not be below baseline-under-errors {baseline_acc}"
        );
        // The boosted DNN must still work on reliable memory.
        let reliable = eden_dnn::metrics::accuracy(&boosted, dataset.test());
        let chance = 1.0 / dataset.spec().num_classes as f32;
        assert!(reliable > chance + 0.15);
    }

    /// The sequential per-sample minibatch loop: zero `net`'s gradients,
    /// then per sample of `batch` in order run `forward` on `net` itself,
    /// take the cross-entropy loss and back-propagate its gradient scaled by
    /// `1 / batch.len()`. Returns the summed sample losses.
    fn sequential_minibatch_step(
        net: &mut Network,
        data: &[(Tensor, usize)],
        batch: &[usize],
        mut forward: impl FnMut(&mut Network, &Tensor) -> Tensor,
    ) -> f32 {
        net.zero_grads();
        let mut batch_loss = 0.0;
        for &i in batch {
            let (x, label) = &data[i];
            let logits = forward(net, x);
            let (l, d_logits) = loss::cross_entropy(&logits, *label);
            batch_loss += l;
            net.backward(&d_logits.scale(1.0 / batch.len() as f32));
        }
        batch_loss
    }

    #[test]
    fn persistent_corrupted_copy_matches_clone_based_epochs() {
        // Reference implementation of the pre-session algorithm: a fresh
        // `net.clone()` loaded with corrupted copies of the batch's clean
        // images, its samples run one after the other on one memory. The
        // production path re-loads a persistent copy from per-batch bit
        // images, trains the samples on lane replicas served by memory
        // cursors, and must match it bit for bit — same losses, same final
        // weights.
        fn retrain_clone_based(
            trainer: &CurricularTrainer,
            net: &mut Network,
            dataset: &dyn Dataset,
            error_model: &ErrorModel,
        ) -> Vec<(f64, f32)> {
            let cfg = trainer.config();
            let bounding = BoundingLogic::calibrated(
                net,
                &dataset.train()[..16.min(dataset.train().len())],
                1.5,
                CorrectionPolicy::Zero,
            );
            let mut optimizer = Sgd::new(cfg.learning_rate, cfg.momentum, 1e-4);
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut epochs = Vec::new();
            for epoch in 0..cfg.epochs {
                let ber = trainer.ber_for_epoch(epoch);
                let mut memory = ApproximateMemory::from_model(
                    error_model.with_ber(ber),
                    cfg.seed ^ epoch as u64,
                )
                .with_bounding(bounding);
                let mut order: Vec<usize> = (0..dataset.train().len()).collect();
                order.shuffle(&mut rng);
                let mut total_loss = 0.0;
                let mut batches = 0usize;
                for chunk in order.chunks(cfg.batch_size) {
                    let mut corrupted = net.clone();
                    corrupted.load_clean_weights(&crate::corrupted_images(
                        &net.weight_images(cfg.precision),
                        &mut memory,
                    ));
                    let batch_loss = sequential_minibatch_step(
                        &mut corrupted,
                        dataset.train(),
                        chunk,
                        |n, x| n.forward_train_with_ifm_hook(x, cfg.precision, &mut memory),
                    );
                    let grads = corrupted.collect_grads();
                    net.set_grads(&grads);
                    optimizer.step(net);
                    net.zero_grads();
                    total_loss += batch_loss / chunk.len() as f32;
                    batches += 1;
                }
                epochs.push((ber, total_loss / batches.max(1) as f32));
            }
            epochs
        }

        let (net, dataset) = baseline(2);
        let template = ErrorModel::uniform(0.01, 0.5, 4);
        let trainer = CurricularTrainer::new(CurricularConfig {
            epochs: 2,
            target_ber: 5e-3,
            seed: 3,
            ..CurricularConfig::default()
        });

        let mut production = net.clone();
        let report = trainer.retrain(&mut production, &dataset, &template);
        let mut reference = net.clone();
        let epochs = retrain_clone_based(&trainer, &mut reference, &dataset, &template);

        assert_eq!(report.epochs, epochs, "per-epoch losses must be identical");
        let x = &dataset.test()[0].0;
        assert_eq!(
            production.forward(x),
            reference.forward(x),
            "final weights must be bit-identical"
        );
    }

    #[test]
    fn retraining_is_deterministic() {
        let (net, dataset) = baseline(1);
        let template = ErrorModel::uniform(0.01, 0.5, 2);
        let cfg = CurricularConfig {
            epochs: 2,
            ..CurricularConfig::default()
        };
        let mut a = net.clone();
        let mut b = net.clone();
        let ra = CurricularTrainer::new(cfg).retrain(&mut a, &dataset, &template);
        let rb = CurricularTrainer::new(cfg).retrain(&mut b, &dataset, &template);
        assert_eq!(ra, rb);
    }
}
