//! Standard (reliable-memory) training, and the data-parallel minibatch
//! step every trainer in the workspace shares.
//!
//! # Data-parallel minibatches
//!
//! [`minibatch_step`] trains one minibatch on the [`eden_par`] pool.
//! It clones at most pool-size *lane replicas* of the network once per
//! batch and runs the samples wave by wave: each sample zeroes its lane's
//! gradients and runs `forward_train` + `backward_params` there (the
//! backward pass without the first layer's unused input gradient), in
//! parallel with the other lanes of its wave. The master then folds the wave's lanes
//! **in sample order** ([`Network::fold_lane`]). Every layer's fold replays
//! exactly the updates the sample would have made on the master, so the
//! step is bit-identical to running the samples one after the other on the
//! master at any pool size; the workspace `training_equivalence` suite pins
//! it against that sequential loop.

use crate::data::Dataset;
use crate::loss;
use crate::metrics;
use crate::network::Network;
use crate::optimizer::Sgd;
use eden_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 6,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the training split after the final epoch.
    pub final_train_accuracy: f32,
    /// Accuracy on the test split after the final epoch.
    pub final_test_accuracy: f32,
}

/// Trains networks on reliable memory with SGD.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `dataset` for the configured number of epochs.
    pub fn train(&mut self, net: &mut Network, dataset: &dyn Dataset) -> TrainReport {
        let mut optimizer = Sgd::new(
            self.config.learning_rate,
            self.config.momentum,
            self.config.weight_decay,
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for _ in 0..self.config.epochs {
            let loss = self.train_epoch(net, dataset, &mut optimizer, &mut rng);
            epoch_losses.push(loss);
        }
        TrainReport {
            epoch_losses,
            final_train_accuracy: metrics::accuracy(net, dataset.train()),
            final_test_accuracy: metrics::accuracy(net, dataset.test()),
        }
    }

    /// Runs one epoch and returns the mean loss.
    pub fn train_epoch(
        &self,
        net: &mut Network,
        dataset: &dyn Dataset,
        optimizer: &mut Sgd,
        rng: &mut StdRng,
    ) -> f32 {
        let mut order: Vec<usize> = (0..dataset.train().len()).collect();
        order.shuffle(rng);
        let mut total_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(self.config.batch_size) {
            let (batch_loss, _) = minibatch_step(net, dataset.train(), chunk, |lane, _, x| {
                (lane.forward_train(x), ())
            });
            optimizer.step(net);
            total_loss += batch_loss / chunk.len() as f32;
            batches += 1;
        }
        total_loss / batches.max(1) as f32
    }
}

/// Accumulates the gradients of one minibatch into `net`, data-parallel on
/// the current [`eden_par`] pool, and returns the summed sample
/// losses (in sample order) plus each sample's `forward` side result.
///
/// `batch` indexes the samples of `data`. `net`'s gradients are zeroed
/// first; afterwards they (and any running statistics) are bit-identical to
/// those of the sequential per-sample loop, as is the returned loss. Each sample
/// calls `forward(lane, position, input)` on a lane replica, where
/// `position` is the sample's index within `batch`: the training forward
/// pass must be a pure function of the lane's parameters, the position and
/// the input (callers that draw faults derive the draw from the position).
/// The cross-entropy loss and its gradient, scaled by `1 / batch.len()`,
/// are then back-propagated on the lane ([`Network::backward_params`]), and
/// the lane is folded into `net` in sample order (see the module docs).
pub fn minibatch_step<T, F>(
    net: &mut Network,
    data: &[(Tensor, usize)],
    batch: &[usize],
    forward: F,
) -> (f32, Vec<T>)
where
    T: Send,
    F: Fn(&mut Network, usize, &Tensor) -> (Tensor, T) + Sync,
{
    net.zero_grads();
    let scale = 1.0 / batch.len() as f32;
    let width = eden_par::current_num_threads().min(batch.len()).max(1);
    let mut lanes: Vec<Network> = (0..width).map(|_| net.clone()).collect();
    let mut batch_loss = 0.0;
    let mut results = Vec::with_capacity(batch.len());
    for (w, wave) in batch.chunks(width).enumerate() {
        let outputs = eden_par::par_map_chunks_mut(&mut lanes[..wave.len()], 1, |k, lane| {
            let lane = &mut lane[0];
            let (x, label) = &data[wave[k]];
            lane.zero_grads();
            let (logits, result) = forward(lane, w * width + k, x);
            let (l, d_logits) = loss::cross_entropy(&logits, *label);
            lane.backward_params(&d_logits.scale(scale));
            (l, result)
        });
        for (lane, (l, result)) in lanes.iter().zip(outputs) {
            net.fold_lane(lane);
            batch_loss += l;
            results.push(result);
        }
    }
    (batch_loss, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticVision;
    use crate::layers::{Dense, Flatten, Relu};
    use eden_tensor::init::seeded_rng;

    fn mlp(d: &SyntheticVision) -> Network {
        let spec = d.spec();
        let mut rng = seeded_rng(1);
        let n_in = spec.channels * spec.height * spec.width;
        let mut net = Network::new("mlp", &spec.input_shape());
        net.push(Flatten::new("flatten"))
            .push(Dense::new("fc1", n_in, 24, &mut rng))
            .push(Relu::new("relu"))
            .push(Dense::new("fc2", 24, spec.num_classes, &mut rng));
        net
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let d = SyntheticVision::tiny(0);
        let mut net = mlp(&d);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &d);
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
        let chance = 1.0 / d.spec().num_classes as f32;
        assert!(
            report.final_test_accuracy > chance + 0.15,
            "test accuracy {} not above chance {}",
            report.final_test_accuracy,
            chance
        );
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let d = SyntheticVision::tiny(2);
        let mut a = mlp(&d);
        let mut b = a.clone();
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let ra = Trainer::new(cfg).train(&mut a, &d);
        let rb = Trainer::new(cfg).train(&mut b, &d);
        assert_eq!(ra, rb);
    }
}
