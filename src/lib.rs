//! # EDEN — Energy-Efficient DNN Inference Using Approximate DRAM
//!
//! A Rust reproduction of *Koppula et al., "EDEN: Enabling Energy-Efficient,
//! High-Performance Deep Neural Network Inference Using Approximate DRAM"*
//! (MICRO 2019).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`tensor`] — dense tensors, NN operators and bit-exact quantization;
//! * [`dnn`] — layers, networks, training, synthetic datasets, the model zoo;
//! * [`dram`] — the approximate DRAM device, error models, characterization
//!   and the DRAM energy model;
//! * [`sysim`] — CPU / GPU / accelerator system models;
//! * [`core`] — the EDEN framework: curricular retraining, error-tolerance
//!   characterization, DNN→DRAM mapping, and the end-to-end pipeline.
//!
//! See `README.md` for a tour and the workspace crate map, `examples/` for
//! runnable scenarios, and `crates/bench/src/bin/` for the binaries that
//! regenerate the paper's tables and figures.
//!
//! # Quickstart
//!
//! ```
//! use eden::core::faults::ApproximateMemory;
//! use eden::core::inference::InferenceBackend;
//! use eden::core::EvalSession;
//! use eden::dnn::{data::SyntheticVision, zoo, Dataset};
//! use eden::dram::ErrorModel;
//! use eden::tensor::Precision;
//!
//! let dataset = SyntheticVision::tiny(0);
//! let net = zoo::lenet(&dataset.spec(), 1);
//! let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
//! let mut memory = ApproximateMemory::from_model(ErrorModel::uniform(0.001, 0.5, 7), 3);
//! let accuracy = session.evaluate_with_faults(&dataset.test()[..8], &mut memory);
//! assert!((0.0..=1.0).contains(&accuracy));
//! ```

pub use eden_core as core;
pub use eden_dnn as dnn;
pub use eden_dram as dram;
pub use eden_sysim as sysim;
pub use eden_tensor as tensor;
