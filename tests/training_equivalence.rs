//! Data-parallel training equivalence: both trainers' epochs — the baseline
//! `Trainer` and the curricular retrainer — run each minibatch on lane
//! replicas folded in sample order, and must be bit-identical to the
//! sequential per-sample loop (`sequential_minibatch_step`) at every pool
//! size.
//!
//! The nets cover every layer type with parameters — convolutions and dense
//! layers (LeNet), channel norms and projected residuals (ResNet), depthwise
//! convolutions (MobileNet), fire modules (SqueezeNet) and dense blocks
//! (DenseNet). The batch size (7) is divisible by neither 2 nor 4 lanes, and
//! the 23 training samples leave a short last batch of 2. Each run compares
//! the epoch loss, every parameter bit, forward logits (which read the
//! norms' running statistics) and, for curricular retraining, the memory
//! statistics.

use eden::core::bounding::{BoundingLogic, CorrectionPolicy};
use eden::core::curricular::{CurricularConfig, CurricularTrainer};
use eden::core::faults::{ApproximateMemory, MemoryStats};
use eden::dnn::data::{DatasetSpec, SyntheticConfig};
use eden::dnn::optimizer::Sgd;
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, loss, zoo, Dataset, Network};
use eden::dram::ErrorModel;
use eden::tensor::{Precision, Tensor};
use eden_par::ThreadPool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const POOL_SIZES: [usize; 3] = [1, 2, 4];
const BATCH: usize = 7;

type Builder = fn(&DatasetSpec, u64) -> Network;

const NETS: [(&str, Builder); 5] = [
    ("lenet", zoo::lenet),
    ("resnet", zoo::resnet_mini),
    ("mobilenet", zoo::mobilenet_mini),
    ("squeezenet", zoo::squeezenet_mini),
    ("densenet", zoo::densenet_mini),
];

fn dataset() -> SyntheticVision {
    SyntheticVision::generate(
        "equivalence",
        SyntheticConfig {
            spec: DatasetSpec {
                channels: 3,
                height: 8,
                width: 8,
                num_classes: 4,
            },
            train_samples: 3 * BATCH + 2,
            test_samples: 4,
            noise: 0.35,
            seed: 12,
        },
    )
}

/// Everything an epoch leaves behind that later training or inference
/// reads: the loss, every parameter bit, and the bits of forward logits.
#[derive(Debug, PartialEq)]
struct Outcome {
    loss: u32,
    params: Vec<u32>,
    logits: Vec<u32>,
    stats: Option<MemoryStats>,
}

fn bits(tensors: impl IntoIterator<Item = Tensor>) -> Vec<u32> {
    tensors
        .into_iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect()
}

fn params(net: &Network) -> Vec<u32> {
    let mut out = Vec::new();
    net.visit_params_ref(&mut |_, t| out.push(t.clone()));
    bits(out)
}

fn logits(net: &Network, dataset: &SyntheticVision) -> Vec<u32> {
    bits(dataset.test().iter().map(|(x, _)| net.forward(x)))
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        seed: 3,
        ..TrainConfig::default()
    }
}

fn optimizer(cfg: &TrainConfig) -> Sgd {
    Sgd::new(cfg.learning_rate, cfg.momentum, cfg.weight_decay)
}

/// The sequential per-sample minibatch loop: zero `net`'s gradients, then
/// per sample of `batch` in order run `forward` on `net` itself, take the
/// cross-entropy loss and back-propagate its gradient scaled by
/// `1 / batch.len()`. Returns the summed sample losses. `forward` may carry
/// state from sample to sample, such as one fault hook serving every load
/// in turn.
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

/// The baseline epoch with every minibatch run by the sequential oracle.
fn sequential_epoch(net: &mut Network, dataset: &SyntheticVision) -> f32 {
    let cfg = train_config();
    let mut optimizer = optimizer(&cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..dataset.train().len()).collect();
    order.shuffle(&mut rng);
    let mut total = 0.0;
    let mut batches = 0usize;
    for chunk in order.chunks(cfg.batch_size) {
        let loss =
            sequential_minibatch_step(net, dataset.train(), chunk, |n, x| n.forward_train(x));
        optimizer.step(net);
        total += loss / chunk.len() as f32;
        batches += 1;
    }
    total / batches as f32
}

#[test]
fn baseline_epochs_match_the_sequential_loop_at_every_pool_size() {
    let dataset = dataset();
    for (name, build) in NETS {
        let initial = build(&dataset.spec(), 5);
        let mut reference = initial.clone();
        let loss = sequential_epoch(&mut reference, &dataset);
        let expected = Outcome {
            loss: loss.to_bits(),
            params: params(&reference),
            logits: logits(&reference, &dataset),
            stats: None,
        };
        for threads in POOL_SIZES {
            let mut net = initial.clone();
            let cfg = train_config();
            let loss = ThreadPool::new(threads).install(|| {
                Trainer::new(cfg).train_epoch(
                    &mut net,
                    &dataset,
                    &mut optimizer(&cfg),
                    &mut StdRng::seed_from_u64(cfg.seed),
                )
            });
            let actual = Outcome {
                loss: loss.to_bits(),
                params: params(&net),
                logits: logits(&net, &dataset),
                stats: None,
            };
            assert!(
                actual == expected,
                "{name}: baseline epoch on {threads} threads differs from the sequential loop"
            );
        }
    }
}

fn curricular_config() -> CurricularConfig {
    CurricularConfig {
        epochs: 1,
        batch_size: BATCH,
        target_ber: 5e-3,
        precision: Precision::Int8,
        seed: 9,
        ..CurricularConfig::default()
    }
}

/// A fresh epoch memory: uniform errors at the target BER, bounded.
fn epoch_memory(net: &Network, dataset: &SyntheticVision) -> ApproximateMemory {
    let cfg = curricular_config();
    let bounding =
        BoundingLogic::calibrated(net, &dataset.train()[..8], 1.5, CorrectionPolicy::Zero);
    ApproximateMemory::from_model(
        ErrorModel::uniform(0.01, 0.5, 4).with_ber(cfg.target_ber),
        cfg.seed,
    )
    .with_bounding(bounding)
}

/// One curricular epoch as the retrainer ran it before lanes: the persistent
/// corrupted copy refetched per batch, then every sample on that copy in
/// turn, all loads served by the one epoch memory.
fn sequential_curricular_epoch(
    net: &mut Network,
    corrupted: &mut Network,
    dataset: &SyntheticVision,
    memory: &mut ApproximateMemory,
) -> f32 {
    let cfg = curricular_config();
    let mut optimizer = Sgd::new(cfg.learning_rate, cfg.momentum, 1e-4);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..dataset.train().len()).collect();
    order.shuffle(&mut rng);
    let mut total = 0.0;
    let mut batches = 0usize;
    for chunk in order.chunks(cfg.batch_size) {
        let images = net.weight_images(cfg.precision);
        let overlays: Vec<_> = images
            .iter()
            .map(|img| memory.corrupt_overlay(&img.site, &img.clean, None))
            .collect();
        corrupted.load_clean_weights(&images);
        corrupted.apply_overlay(&images, &overlays);
        let loss = sequential_minibatch_step(corrupted, dataset.train(), chunk, |n, x| {
            n.forward_train_with_ifm_hook(x, cfg.precision, memory)
        });
        net.set_grads(&corrupted.collect_grads());
        optimizer.step(net);
        net.zero_grads();
        total += loss / chunk.len() as f32;
        batches += 1;
    }
    total / batches as f32
}

/// The master's parameters plus the corrupted copy's parameters and logits
/// (its norms carry the running statistics the epoch updated).
fn curricular_outcome(
    loss: f32,
    net: &Network,
    corrupted: &Network,
    dataset: &SyntheticVision,
    memory: &ApproximateMemory,
) -> Outcome {
    let mut all = params(net);
    all.extend(params(corrupted));
    Outcome {
        loss: loss.to_bits(),
        params: all,
        logits: logits(corrupted, dataset),
        stats: Some(memory.stats()),
    }
}

#[test]
fn curricular_epochs_match_the_sequential_loop_at_every_pool_size() {
    let dataset = dataset();
    for (name, build) in NETS {
        let initial = build(&dataset.spec(), 5);

        let mut net = initial.clone();
        let mut corrupted = initial.clone();
        let mut memory = epoch_memory(&initial, &dataset);
        let loss = sequential_curricular_epoch(&mut net, &mut corrupted, &dataset, &mut memory);
        let expected = curricular_outcome(loss, &net, &corrupted, &dataset, &memory);
        assert!(
            expected.stats.unwrap().bit_flips > 0,
            "{name}: the epoch must inject faults"
        );

        for threads in POOL_SIZES {
            let cfg = curricular_config();
            let mut net = initial.clone();
            let mut corrupted = initial.clone();
            let mut memory = epoch_memory(&initial, &dataset);
            let loss = ThreadPool::new(threads).install(|| {
                CurricularTrainer::new(cfg).train_epoch(
                    &mut net,
                    &mut corrupted,
                    &dataset,
                    &mut Sgd::new(cfg.learning_rate, cfg.momentum, 1e-4),
                    &mut memory,
                    &mut StdRng::seed_from_u64(cfg.seed),
                )
            });
            let actual = curricular_outcome(loss, &net, &corrupted, &dataset, &memory);
            assert_eq!(
                actual.stats, expected.stats,
                "{name}: memory statistics on {threads} threads"
            );
            assert!(
                actual == expected,
                "{name}: curricular epoch on {threads} threads differs from the sequential loop"
            );
        }
    }
}
