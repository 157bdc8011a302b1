//! The model zoo: scaled-down, architecturally faithful versions of the
//! networks evaluated in the paper (Table 1), plus their paper-reported
//! metadata for paper-vs-measured reporting.

use crate::data::{DatasetSpec, SyntheticVision};
use crate::layers::{
    ChannelNorm, Conv2d, Dense, DenseBlock, DepthwiseSeparable, Fire, Flatten, GlobalAvgPool,
    MaxPool2d, Relu, Residual,
};
use crate::network::Network;
use eden_tensor::init::seeded_rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a zoo model (one per network in the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelId {
    /// ResNet101 stand-in (residual blocks), CIFAR-10-like dataset.
    ResNet,
    /// MobileNetV2 stand-in (depthwise-separable blocks), CIFAR-10-like.
    MobileNet,
    /// VGG-16 stand-in (plain conv stacks + large FC), ILSVRC-like.
    Vgg16,
    /// DenseNet201 stand-in (densely connected blocks), ILSVRC-like.
    DenseNet,
    /// SqueezeNet1.1 stand-in (fire modules), ILSVRC-like.
    SqueezeNet,
    /// AlexNet stand-in (conv + large FC), CIFAR-10-like.
    AlexNet,
    /// YOLO stand-in, MS-COCO-like dataset, mAP metric.
    Yolo,
    /// YOLO-Tiny stand-in, MS-COCO-like dataset, mAP metric.
    YoloTiny,
    /// LeNet, CIFAR-10-like dataset (used for the real-device experiments).
    LeNet,
}

impl ModelId {
    /// All models in paper order (Table 1).
    pub fn all() -> [ModelId; 9] {
        [
            ModelId::ResNet,
            ModelId::MobileNet,
            ModelId::Vgg16,
            ModelId::DenseNet,
            ModelId::SqueezeNet,
            ModelId::AlexNet,
            ModelId::Yolo,
            ModelId::YoloTiny,
            ModelId::LeNet,
        ]
    }

    /// The models used in the system-level evaluation (Figures 13 and 14).
    pub fn system_eval() -> [ModelId; 6] {
        [
            ModelId::YoloTiny,
            ModelId::Yolo,
            ModelId::ResNet,
            ModelId::Vgg16,
            ModelId::SqueezeNet,
            ModelId::DenseNet,
        ]
    }
}

impl ModelId {
    /// Canonical lowercase key of this model — the stable wire name used by
    /// the evaluation service protocol and CLI flags.
    pub fn key(self) -> &'static str {
        match self {
            ModelId::ResNet => "resnet",
            ModelId::MobileNet => "mobilenet",
            ModelId::Vgg16 => "vgg16",
            ModelId::DenseNet => "densenet",
            ModelId::SqueezeNet => "squeezenet",
            ModelId::AlexNet => "alexnet",
            ModelId::Yolo => "yolo",
            ModelId::YoloTiny => "yolo-tiny",
            ModelId::LeNet => "lenet",
        }
    }
}

impl std::str::FromStr for ModelId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        ModelId::all()
            .into_iter()
            .find(|id| id.key() == lower)
            .ok_or_else(|| {
                let keys: Vec<&str> = ModelId::all().iter().map(|id| id.key()).collect();
                format!("unknown model {s:?} (expected one of: {})", keys.join(", "))
            })
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().display_name)
    }
}

/// Paper-reported values for one model, used for paper-vs-measured reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperRecord {
    /// "Model Size" column of Table 1, in MB (FP32).
    pub model_size_mb: f32,
    /// "IFM+Weight Size" column of Table 1, in MB (FP32).
    pub ifm_weight_size_mb: f32,
    /// Table 2 baseline accuracy (fraction, not percent) per precision
    /// `[int4, int8, int16, fp32]`; `None` where the paper reports none.
    pub baseline_accuracy: [Option<f32>; 4],
    /// Table 3 FP32 row: (max tolerable BER, ΔVDD in volts, ΔtRCD in ns).
    pub coarse_fp32: Option<(f32, f32, f32)>,
    /// Table 3 int8 row: (max tolerable BER, ΔVDD in volts, ΔtRCD in ns).
    pub coarse_int8: Option<(f32, f32, f32)>,
}

/// Static description of a zoo model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Which model this is.
    pub id: ModelId,
    /// Display name matching the paper.
    pub display_name: &'static str,
    /// Name of the dataset the paper uses.
    pub paper_dataset: &'static str,
    /// Accuracy metric name ("accuracy" or "mAP").
    pub metric: &'static str,
    /// Paper-reported numbers.
    pub paper: PaperRecord,
}

impl ModelId {
    /// Static specification (paper metadata) for this model.
    pub fn spec(self) -> ModelSpec {
        match self {
            ModelId::ResNet => ModelSpec {
                id: self,
                display_name: "ResNet101",
                paper_dataset: "CIFAR10",
                metric: "accuracy",
                paper: PaperRecord {
                    model_size_mb: 163.0,
                    ifm_weight_size_mb: 100.0,
                    baseline_accuracy: [Some(0.8911), Some(0.9314), Some(0.9311), Some(0.9420)],
                    coarse_fp32: Some((0.04, 0.30, 5.5)),
                    coarse_int8: Some((0.04, 0.30, 5.5)),
                },
            },
            ModelId::MobileNet => ModelSpec {
                id: self,
                display_name: "MobileNetV2",
                paper_dataset: "CIFAR10",
                metric: "accuracy",
                paper: PaperRecord {
                    model_size_mb: 22.7,
                    ifm_weight_size_mb: 68.5,
                    baseline_accuracy: [Some(0.5100), Some(0.7044), Some(0.7046), Some(0.7835)],
                    coarse_fp32: Some((0.01, 0.25, 1.0)),
                    coarse_int8: Some((0.005, 0.10, 1.0)),
                },
            },
            ModelId::Vgg16 => ModelSpec {
                id: self,
                display_name: "VGG-16",
                paper_dataset: "ILSVRC2012",
                metric: "accuracy",
                paper: PaperRecord {
                    model_size_mb: 528.0,
                    ifm_weight_size_mb: 218.0,
                    baseline_accuracy: [Some(0.5905), Some(0.7048), Some(0.7053), Some(0.7159)],
                    coarse_fp32: Some((0.05, 0.35, 6.0)),
                    coarse_int8: Some((0.05, 0.35, 6.0)),
                },
            },
            ModelId::DenseNet => ModelSpec {
                id: self,
                display_name: "DenseNet201",
                paper_dataset: "ILSVRC2012",
                metric: "accuracy",
                paper: PaperRecord {
                    model_size_mb: 76.0,
                    ifm_weight_size_mb: 439.0,
                    baseline_accuracy: [Some(0.0031), Some(0.7460), Some(0.7482), Some(0.7690)],
                    coarse_fp32: Some((0.015, 0.25, 2.0)),
                    coarse_int8: Some((0.015, 0.25, 2.0)),
                },
            },
            ModelId::SqueezeNet => ModelSpec {
                id: self,
                display_name: "SqueezeNet1.1",
                paper_dataset: "ILSVRC2012",
                metric: "accuracy",
                paper: PaperRecord {
                    model_size_mb: 4.8,
                    ifm_weight_size_mb: 53.8,
                    baseline_accuracy: [Some(0.0807), Some(0.5707), Some(0.5739), Some(0.5818)],
                    coarse_fp32: Some((0.005, 0.10, 1.0)),
                    coarse_int8: Some((0.005, 0.10, 1.0)),
                },
            },
            ModelId::AlexNet => ModelSpec {
                id: self,
                display_name: "AlexNet",
                paper_dataset: "CIFAR10",
                metric: "accuracy",
                paper: PaperRecord {
                    model_size_mb: 233.0,
                    ifm_weight_size_mb: 208.0,
                    baseline_accuracy: [Some(0.8313), Some(0.8604), Some(0.8721), Some(0.8913)],
                    coarse_fp32: Some((0.03, 0.30, 4.5)),
                    coarse_int8: Some((0.03, 0.30, 4.5)),
                },
            },
            ModelId::Yolo => ModelSpec {
                id: self,
                display_name: "YOLO",
                paper_dataset: "MSCOCO",
                metric: "mAP",
                paper: PaperRecord {
                    model_size_mb: 237.0,
                    ifm_weight_size_mb: 360.0,
                    baseline_accuracy: [None, Some(0.4460), None, Some(0.5530)],
                    coarse_fp32: Some((0.05, 0.35, 6.0)),
                    coarse_int8: Some((0.04, 0.30, 5.5)),
                },
            },
            ModelId::YoloTiny => ModelSpec {
                id: self,
                display_name: "YOLO-Tiny",
                paper_dataset: "MSCOCO",
                metric: "mAP",
                paper: PaperRecord {
                    model_size_mb: 33.8,
                    ifm_weight_size_mb: 51.3,
                    baseline_accuracy: [None, Some(0.1410), None, Some(0.2370)],
                    coarse_fp32: Some((0.035, 0.30, 5.0)),
                    coarse_int8: Some((0.03, 0.30, 4.5)),
                },
            },
            ModelId::LeNet => ModelSpec {
                id: self,
                display_name: "LeNet",
                paper_dataset: "CIFAR10",
                metric: "accuracy",
                paper: PaperRecord {
                    model_size_mb: 1.65,
                    ifm_weight_size_mb: 2.30,
                    baseline_accuracy: [None, Some(0.6130), None, Some(0.6740)],
                    coarse_fp32: None,
                    coarse_int8: None,
                },
            },
        }
    }

    /// Generates the synthetic dataset this model is evaluated on.
    pub fn dataset(self, seed: u64) -> SyntheticVision {
        match self {
            ModelId::Vgg16 | ModelId::DenseNet | ModelId::SqueezeNet => {
                SyntheticVision::imagenet_like(seed)
            }
            ModelId::Yolo | ModelId::YoloTiny => SyntheticVision::detection_like(seed),
            _ => SyntheticVision::small(seed),
        }
    }

    /// Builds the (untrained) network for this model on a dataset spec.
    pub fn build(self, spec: &DatasetSpec, seed: u64) -> Network {
        match self {
            ModelId::ResNet => resnet_mini(spec, seed),
            ModelId::MobileNet => mobilenet_mini(spec, seed),
            ModelId::Vgg16 => vgg_mini(spec, seed),
            ModelId::DenseNet => densenet_mini(spec, seed),
            ModelId::SqueezeNet => squeezenet_mini(spec, seed),
            ModelId::AlexNet => alexnet_mini(spec, seed),
            ModelId::Yolo => yolo_mini(spec, seed),
            ModelId::YoloTiny => yolo_tiny_mini(spec, seed),
            ModelId::LeNet => lenet(spec, seed),
        }
    }
}

/// LeNet: two convolutions with pooling followed by two dense layers. Used
/// for the real-device experiments (Figures 7 and 9).
pub fn lenet(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("lenet", &spec.input_shape());
    let (h, w) = (spec.height, spec.width);
    net.push(Conv2d::new("conv1", spec.channels, 6, 5, 1, 2, &mut rng))
        .push(Relu::new("relu1"))
        .push(MaxPool2d::new("pool1", 2, 2))
        .push(Conv2d::new("conv2", 6, 16, 3, 1, 1, &mut rng))
        .push(Relu::new("relu2"))
        .push(MaxPool2d::new("pool2", 2, 2))
        .push(Flatten::new("flatten"))
        .push(Dense::new("fc1", 16 * (h / 4) * (w / 4), 32, &mut rng))
        .push(Relu::new("relu3"))
        .push(Dense::new("fc2", 32, spec.num_classes, &mut rng));
    net
}

/// AlexNet stand-in: three convolutions with pooling and two dense layers.
pub fn alexnet_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("alexnet", &spec.input_shape());
    let (h, w) = (spec.height, spec.width);
    net.push(Conv2d::new("conv1", spec.channels, 12, 3, 1, 1, &mut rng))
        .push(Relu::new("relu1"))
        .push(MaxPool2d::new("pool1", 2, 2))
        .push(Conv2d::new("conv2", 12, 24, 3, 1, 1, &mut rng))
        .push(Relu::new("relu2"))
        .push(MaxPool2d::new("pool2", 2, 2))
        .push(Conv2d::new("conv3", 24, 24, 3, 1, 1, &mut rng))
        .push(Relu::new("relu3"))
        .push(Flatten::new("flatten"))
        .push(Dense::new("fc1", 24 * (h / 4) * (w / 4), 64, &mut rng))
        .push(Relu::new("relu4"))
        .push(Dense::new("fc2", 64, spec.num_classes, &mut rng));
    net
}

/// VGG-16 stand-in: stacked 3×3 convolutions and the zoo's largest dense
/// classifier (preserving VGG's "largest model" role in Table 1).
pub fn vgg_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("vgg16", &spec.input_shape());
    let (h, w) = (spec.height, spec.width);
    net.push(Conv2d::new("conv1_1", spec.channels, 12, 3, 1, 1, &mut rng))
        .push(Relu::new("relu1_1"))
        .push(Conv2d::new("conv1_2", 12, 12, 3, 1, 1, &mut rng))
        .push(Relu::new("relu1_2"))
        .push(MaxPool2d::new("pool1", 2, 2))
        .push(Conv2d::new("conv2_1", 12, 24, 3, 1, 1, &mut rng))
        .push(Relu::new("relu2_1"))
        .push(Conv2d::new("conv2_2", 24, 24, 3, 1, 1, &mut rng))
        .push(Relu::new("relu2_2"))
        .push(MaxPool2d::new("pool2", 2, 2))
        .push(Conv2d::new("conv3_1", 24, 32, 3, 1, 1, &mut rng))
        .push(Relu::new("relu3_1"))
        .push(Flatten::new("flatten"))
        .push(Dense::new("fc1", 32 * (h / 4) * (w / 4), 160, &mut rng))
        .push(Relu::new("relu_fc1"))
        .push(Dense::new("fc2", 160, spec.num_classes, &mut rng));
    net
}

/// ResNet101 stand-in: an initial convolution followed by four residual
/// blocks and a global-average-pooled classifier.
pub fn resnet_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("resnet101", &spec.input_shape());
    net.push(Conv2d::new("stem", spec.channels, 12, 3, 1, 1, &mut rng))
        .push(ChannelNorm::new("stem_norm", 12))
        .push(Relu::new("stem_relu"))
        .push(Residual::new("res1", 12, 12, 1, &mut rng))
        .push(Residual::new("res2", 12, 24, 2, &mut rng))
        .push(Residual::new("res3", 24, 24, 1, &mut rng))
        .push(Residual::new("res4", 24, 32, 2, &mut rng))
        .push(GlobalAvgPool::new("gap"))
        .push(Dense::new("fc", 32, spec.num_classes, &mut rng));
    net
}

/// MobileNetV2 stand-in: depthwise-separable blocks.
pub fn mobilenet_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("mobilenetv2", &spec.input_shape());
    net.push(Conv2d::new("stem", spec.channels, 12, 3, 2, 1, &mut rng))
        .push(ChannelNorm::new("stem_norm", 12))
        .push(Relu::new("stem_relu"))
        .push(DepthwiseSeparable::new("ds1", 12, 24, 1, &mut rng))
        .push(DepthwiseSeparable::new("ds2", 24, 32, 2, &mut rng))
        .push(DepthwiseSeparable::new("ds3", 32, 32, 1, &mut rng))
        .push(GlobalAvgPool::new("gap"))
        .push(Dense::new("fc", 32, spec.num_classes, &mut rng));
    net
}

/// SqueezeNet1.1 stand-in: fire modules and the zoo's smallest weight
/// footprint.
pub fn squeezenet_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("squeezenet1.1", &spec.input_shape());
    net.push(Conv2d::new("stem", spec.channels, 8, 3, 2, 1, &mut rng))
        .push(Relu::new("stem_relu"))
        .push(Fire::new("fire1", 8, 4, 8, &mut rng))
        .push(Fire::new("fire2", 16, 4, 8, &mut rng))
        .push(MaxPool2d::new("pool", 2, 2))
        .push(Fire::new("fire3", 16, 6, 12, &mut rng))
        .push(GlobalAvgPool::new("gap"))
        .push(Dense::new("fc", 24, spec.num_classes, &mut rng));
    net
}

/// DenseNet201 stand-in: densely connected blocks with channel concatenation.
pub fn densenet_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("densenet201", &spec.input_shape());
    net.push(Conv2d::new("stem", spec.channels, 12, 3, 1, 1, &mut rng))
        .push(Relu::new("stem_relu"))
        .push(DenseBlock::new("dense1", 12, 8, &mut rng))
        .push(DenseBlock::new("dense2", 20, 8, &mut rng))
        .push(MaxPool2d::new("pool", 2, 2))
        .push(DenseBlock::new("dense3", 28, 8, &mut rng))
        .push(DenseBlock::new("dense4", 36, 8, &mut rng))
        .push(GlobalAvgPool::new("gap"))
        .push(Dense::new("fc", 44, spec.num_classes, &mut rng));
    net
}

/// YOLO stand-in: the deeper of the two detection models.
pub fn yolo_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("yolo", &spec.input_shape());
    let (h, w) = (spec.height, spec.width);
    net.push(Conv2d::new("conv1", spec.channels, 16, 3, 1, 1, &mut rng))
        .push(Relu::new("relu1"))
        .push(MaxPool2d::new("pool1", 2, 2))
        .push(Conv2d::new("conv2", 16, 24, 3, 1, 1, &mut rng))
        .push(Relu::new("relu2"))
        .push(MaxPool2d::new("pool2", 2, 2))
        .push(Conv2d::new("conv3", 24, 32, 3, 1, 1, &mut rng))
        .push(Relu::new("relu3"))
        .push(Conv2d::new("conv4", 32, 32, 3, 1, 1, &mut rng))
        .push(Relu::new("relu4"))
        .push(Flatten::new("flatten"))
        .push(Dense::new("fc1", 32 * (h / 4) * (w / 4), 96, &mut rng))
        .push(Relu::new("relu5"))
        .push(Dense::new("fc2", 96, spec.num_classes, &mut rng));
    net
}

/// YOLO-Tiny stand-in: a shallower detection model.
pub fn yolo_tiny_mini(spec: &DatasetSpec, seed: u64) -> Network {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new("yolo-tiny", &spec.input_shape());
    let (h, w) = (spec.height, spec.width);
    net.push(Conv2d::new("conv1", spec.channels, 12, 3, 1, 1, &mut rng))
        .push(Relu::new("relu1"))
        .push(MaxPool2d::new("pool1", 2, 2))
        .push(Conv2d::new("conv2", 12, 24, 3, 1, 1, &mut rng))
        .push(Relu::new("relu2"))
        .push(MaxPool2d::new("pool2", 2, 2))
        .push(Conv2d::new("conv3", 24, 24, 3, 1, 1, &mut rng))
        .push(Relu::new("relu3"))
        .push(Flatten::new("flatten"))
        .push(Dense::new(
            "fc",
            24 * (h / 4) * (w / 4),
            spec.num_classes,
            &mut rng,
        ));
    net
}

/// A trained zoo model plus the synthetic dataset it was trained on, shared
/// behind `Arc`s so any number of evaluation sessions (and the serving
/// layer's shards) reference one copy of the weights and samples.
#[derive(Clone)]
pub struct ZooEntry {
    /// The trained network.
    pub net: std::sync::Arc<Network>,
    /// The dataset the network was trained (and is evaluated) on.
    pub dataset: std::sync::Arc<SyntheticVision>,
}

/// A thread-safe, lazily-populated zoo of *trained* models.
///
/// Construction is deterministic: every entry is trained with the zoo's
/// fixed `(epochs, seed)` configuration, so two zoos with the same
/// configuration — e.g. the one inside a long-running evaluation service and
/// the one a correctness test builds locally — produce bit-identical
/// networks. Entries are trained once, on first request; concurrent
/// requests for the *same* model block until its training finishes, while
/// different models train independently.
pub struct ModelZoo {
    epochs: usize,
    seed: u64,
    entries: std::sync::Mutex<
        std::collections::HashMap<ModelId, std::sync::Arc<std::sync::OnceLock<ZooEntry>>>,
    >,
    builds: std::sync::atomic::AtomicU64,
}

impl ModelZoo {
    /// Creates an empty zoo; every model requested from it is trained for
    /// `epochs` epochs from `seed`.
    pub fn new(epochs: usize, seed: u64) -> Self {
        Self {
            epochs,
            seed,
            entries: std::sync::Mutex::new(std::collections::HashMap::new()),
            builds: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The zoo's training configuration, `(epochs, seed)`.
    pub fn config(&self) -> (usize, u64) {
        (self.epochs, self.seed)
    }

    /// Number of models trained so far (a cache-miss counter: requests that
    /// found their model already resident do not increment it).
    pub fn models_built(&self) -> u64 {
        self.builds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The trained entry for `id`, training it on first request.
    pub fn get(&self, id: ModelId) -> ZooEntry {
        let slot = {
            let mut entries = self.entries.lock().unwrap();
            entries.entry(id).or_default().clone()
        };
        // Training runs outside the map lock so distinct models never
        // serialize on each other; `OnceLock` serializes same-model racers.
        slot.get_or_init(|| {
            use crate::data::Dataset as _;
            self.builds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dataset = id.dataset(self.seed);
            let mut net = id.build(&dataset.spec(), self.seed);
            crate::train::Trainer::new(crate::train::TrainConfig {
                epochs: self.epochs,
                seed: self.seed,
                ..crate::train::TrainConfig::default()
            })
            .train(&mut net, &dataset);
            ZooEntry {
                net: std::sync::Arc::new(net),
                dataset: std::sync::Arc::new(dataset),
            }
        })
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use eden_tensor::Tensor;

    #[test]
    fn every_zoo_model_builds_and_runs_forward() {
        for id in ModelId::all() {
            let dataset = id.dataset(0);
            let spec = dataset.spec();
            let net = id.build(&spec, 1);
            let x = Tensor::zeros(&spec.input_shape());
            let y = net.forward(&x);
            assert_eq!(
                y.shape(),
                &[spec.num_classes],
                "{id}: output shape mismatch"
            );
            assert!(net.param_count() > 0, "{id}: no parameters");
        }
    }

    #[test]
    fn every_zoo_model_supports_backward() {
        for id in ModelId::all() {
            let dataset = id.dataset(0);
            let spec = dataset.spec();
            let mut net = id.build(&spec, 1);
            let (x, label) = &dataset.train()[0];
            let logits = net.forward_train(x);
            let (_, d) = crate::loss::cross_entropy(&logits, *label);
            let d_in = net.backward(&d);
            assert_eq!(d_in.shape(), spec.input_shape().as_slice(), "{id}");
        }
    }

    /// The trainers' backward entry ([`Network::backward_params`]) skips
    /// only the first layer's input gradient: over two accumulated samples
    /// every parameter gradient of every zoo model, the first layer's
    /// included, is bit-identical to the full [`Network::backward`]'s.
    #[test]
    fn backward_params_adds_the_full_backwards_gradients() {
        // (layer index, gradient bits) per parameter.
        let grads = |net: &mut Network| {
            let mut all = Vec::new();
            net.visit_params_layers(&mut |layer, p| {
                all.push((layer, p.grad.data().iter().map(|v| v.to_bits()).collect()))
            });
            all
        };
        for id in ModelId::all() {
            let dataset = id.dataset(0);
            let spec = dataset.spec();
            let mut full = id.build(&spec, 1);
            let mut trained = full.clone();
            for (x, label) in &dataset.train()[..2] {
                let (_, d) = crate::loss::cross_entropy(&full.forward_train(x), *label);
                full.backward(&d);
                let (_, d) = crate::loss::cross_entropy(&trained.forward_train(x), *label);
                trained.backward_params(&d);
            }
            let want: Vec<(usize, Vec<u32>)> = grads(&mut full);
            let first = want.iter().filter(|(layer, _)| *layer == 0);
            assert!(
                first.flat_map(|(_, g)| g).any(|&b| b << 1 != 0),
                "{id}: the first layer has no nonzero gradient to compare"
            );
            assert_eq!(grads(&mut trained), want, "{id}");
        }
    }

    #[test]
    fn data_flow_shapes_are_consistent_with_forward() {
        for id in [ModelId::ResNet, ModelId::SqueezeNet, ModelId::DenseNet] {
            let dataset = id.dataset(0);
            let spec = dataset.spec();
            let net = id.build(&spec, 2);
            let x = Tensor::zeros(&spec.input_shape());
            let mut cur = x.clone();
            for (layer, expected) in net.layers().iter().zip(net.data_flow_shapes()) {
                cur = layer.forward(&cur);
                assert_eq!(cur.shape(), expected.as_slice(), "{id}/{}", layer.name());
            }
        }
    }

    #[test]
    fn model_size_ordering_roughly_matches_paper() {
        // VGG must be the largest-weight model and SqueezeNet/LeNet the
        // smallest, preserving the Table 1 ordering that matters for the
        // paper's "larger DNNs are more error resilient" observation.
        let params = |id: ModelId| {
            let d = id.dataset(0);
            id.build(&d.spec(), 0).param_count()
        };
        let vgg = params(ModelId::Vgg16);
        for id in ModelId::all() {
            assert!(params(id) <= vgg, "{id} larger than VGG");
        }
        assert!(params(ModelId::SqueezeNet) < params(ModelId::ResNet));
        assert!(params(ModelId::LeNet) < params(ModelId::AlexNet));
    }

    #[test]
    fn paper_metadata_is_complete() {
        for id in ModelId::all() {
            let spec = id.spec();
            assert!(spec.paper.model_size_mb > 0.0);
            assert!(spec.paper.ifm_weight_size_mb > 0.0);
            assert!(!spec.display_name.is_empty());
        }
        assert_eq!(ModelId::Yolo.spec().metric, "mAP");
        assert_eq!(ModelId::ResNet.spec().metric, "accuracy");
    }

    #[test]
    fn dataset_assignment_matches_paper() {
        assert_eq!(ModelId::Vgg16.dataset(0).name(), "ilsvrc-syn");
        assert_eq!(ModelId::Yolo.dataset(0).name(), "mscoco-syn");
        assert_eq!(ModelId::ResNet.dataset(0).name(), "cifar10-syn");
    }

    #[test]
    fn model_keys_round_trip_through_from_str() {
        for id in ModelId::all() {
            assert_eq!(id.key().parse::<ModelId>(), Ok(id), "{id}");
        }
        assert_eq!("LeNet".parse::<ModelId>(), Ok(ModelId::LeNet));
        let err = "lnet".parse::<ModelId>().unwrap_err();
        assert!(err.contains("unknown model"), "{err}");
        assert!(err.contains("lenet"), "error must list valid keys: {err}");
    }

    #[test]
    fn model_zoo_trains_once_and_shares_entries() {
        let zoo = ModelZoo::new(1, 7);
        let a = zoo.get(ModelId::LeNet);
        let b = zoo.get(ModelId::LeNet);
        assert!(std::sync::Arc::ptr_eq(&a.net, &b.net));
        assert!(std::sync::Arc::ptr_eq(&a.dataset, &b.dataset));
        assert_eq!(zoo.models_built(), 1);
        // Deterministic: a second zoo with the same configuration trains a
        // bit-identical network.
        let other = ModelZoo::new(1, 7).get(ModelId::LeNet);
        let weights = |net: &Network| {
            let mut v = Vec::new();
            for layer in net.layers() {
                layer.visit_params_ref(&mut |_, t| v.extend(t.data().iter().map(|x| x.to_bits())));
            }
            v
        };
        assert_eq!(weights(&a.net), weights(&other.net));
    }
}
