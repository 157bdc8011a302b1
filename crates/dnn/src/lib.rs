//! # eden-dnn
//!
//! The DNN substrate for the EDEN reproduction: layers with forward/backward
//! passes, sequential networks, an SGD trainer, deterministic synthetic
//! datasets, a model zoo mirroring the paper's Table 1, and quantized
//! inference with fault-injection hooks.
//!
//! The paper evaluates EDEN on eight DNN families (ResNet101, MobileNetV2,
//! VGG-16, DenseNet201, SqueezeNet1.1, AlexNet, YOLO, YOLO-Tiny) plus LeNet.
//! This crate provides architecturally faithful, scaled-down versions of each
//! (see [`zoo`]) trained on synthetic datasets (see [`data`]); the
//! substitution rationale is documented in `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use eden_dnn::{data::SyntheticVision, zoo, train::{Trainer, TrainConfig}, Dataset};
//!
//! let dataset = SyntheticVision::small(42);
//! let mut net = zoo::lenet(&dataset.spec(), 1);
//! let mut trainer = Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::default() });
//! let report = trainer.train(&mut net, &dataset);
//! assert!(report.final_train_accuracy >= 0.0);
//! ```

pub mod data;
pub mod hooks;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod qexec;
pub mod train;
pub mod zoo;

pub use data::{Dataset, SyntheticVision};
pub use hooks::{DataKind, DataSite, FaultHook, NoFaults};
pub use layer::Layer;
pub use network::Network;
pub use zoo::{ModelId, ModelSpec};
