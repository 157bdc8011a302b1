//! # eden-dram
//!
//! Approximate DRAM substrate for the EDEN reproduction.
//!
//! The paper (Sections 2.2–2.3, 4 and 6.2) relies on:
//!
//! * DRAM organization and operating parameters (supply voltage `VDD` and the
//!   timing parameters `tRCD`/`tRAS`/`tRP`) — [`params`], [`geometry`];
//! * real approximate DRAM devices whose bit-error behaviour depends on the
//!   operating point, on the stored data pattern and on spatial location
//!   (bitline / wordline), characterized per vendor (Figure 5) — [`vendor`],
//!   [`device`], [`characterize`];
//! * four probabilistic error models fitted to device observations with
//!   maximum-likelihood estimation and model selection (Section 4) —
//!   [`error_model`], [`fit`];
//! * error injection into the bit-exact stored representation of DNN data —
//!   [`inject`];
//! * a DRAMPower-style energy model with `VDD²` scaling — [`energy`].
//!
//! # Example
//!
//! ```
//! use eden_dram::error_model::{ErrorModel, Layout};
//! use eden_tensor::{Precision, QuantTensor, Tensor};
//!
//! let model = ErrorModel::uniform(0.01, 0.5, 7);
//! let t = Tensor::from_vec(vec![1.0; 1024], &[1024]);
//! let clean = QuantTensor::quantize(&t, Precision::Int8);
//! // Which cells are weak depends only on the placement: map it once…
//! let map = model.weak_map(clean.len(), clean.bits_per_value(), &Layout::default());
//! // …then every load draws its failures over the map from a stream seed.
//! let mut corrupted = clean.clone();
//! let flips = map.draw(corrupted.stored_mut(), 1, model.flip_thresholds());
//! assert_eq!(clean.bit_differences(&corrupted), flips);
//! assert!(flips > 0);
//! ```

pub mod characterize;
pub mod device;
pub mod energy;
pub mod error_model;
pub mod fit;
pub mod geometry;
pub mod inject;
pub mod params;
pub mod system;
pub mod util;
pub mod vendor;

pub use device::ApproxDramDevice;
pub use eden_tensor::CorruptionOverlay;
pub use error_model::{ErrorModel, ErrorModelKind, Layout};
pub use params::OperatingPoint;
pub use system::{DramModule, MemorySystem};
pub use vendor::Vendor;
