//! # eden-core
//!
//! The EDEN framework (Section 3): the first general framework that enables
//! energy-efficient, high-performance DNN inference on approximate DRAM
//! while strictly meeting a user-specified accuracy target.
//!
//! EDEN's three steps, all implemented here:
//!
//! 1. **Boosting DNN error tolerance** with *curricular retraining*
//!    ([`curricular`]) and *implausible-value correction* ([`bounding`]),
//!    Section 3.2.
//! 2. **DNN error-tolerance characterization**, coarse-grained and
//!    fine-grained ([`characterize`]), Section 3.3.
//! 3. **DNN→DRAM mapping**, coarse-grained (one operating point for the
//!    whole module, Table 3) and fine-grained (Algorithm 1) ([`mapping`]),
//!    Section 3.4.
//!
//! [`faults`] provides the approximate-memory fault hook that backs both
//! retraining and inference, [`session`] provides the evaluation session —
//! the one evaluation API, shared by single evaluations and by the
//! characterization, retraining and mapping probe loops — on the execution
//! backends of [`inference`], [`lru`] provides the one bounded cache policy
//! behind the session's caches, and [`pipeline`] chains the three steps into
//! the iterative loop of Figure 4.
//!
//! # Example
//!
//! ```
//! use eden_core::faults::ApproximateMemory;
//! use eden_core::inference::InferenceBackend;
//! use eden_core::session::EvalSession;
//! use eden_dnn::{data::SyntheticVision, zoo, Dataset};
//! use eden_dram::ErrorModel;
//! use eden_tensor::Precision;
//!
//! let dataset = SyntheticVision::tiny(0);
//! let net = zoo::lenet(&dataset.spec(), 1);
//! let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
//! let model = ErrorModel::uniform(0.001, 0.5, 7);
//! let mut memory = ApproximateMemory::from_model(model, 3);
//! let accuracy = session.evaluate_with_faults(&dataset.test()[..8], &mut memory);
//! assert!((0.0..=1.0).contains(&accuracy));
//! ```

pub mod bounding;
pub mod characterize;
pub mod curricular;
pub mod faults;
pub mod inference;
pub mod lru;
pub mod mapping;
pub mod pipeline;
pub mod session;

pub use bounding::{BoundingLogic, CorrectionPolicy};
pub use characterize::{CoarseCharacterization, FineCharacterization};
pub use curricular::{CurricularConfig, CurricularTrainer};
pub use faults::{ApproximateMemory, PlacedSpan, SpanComposition, WeakMapCache};
pub use mapping::{CoarseMapping, PlacementPlan};
pub use pipeline::{EdenConfig, EdenOutcome, EdenPipeline};
pub use session::EvalSession;

/// The reference weight load of the unit tests: a copy of every image's
/// clean bits, corrupted by `hook` in image order.
#[cfg(test)]
fn corrupted_images(
    images: &[eden_dnn::network::WeightImage],
    hook: &mut dyn eden_dnn::FaultHook,
) -> Vec<eden_dnn::network::WeightImage> {
    images
        .iter()
        .map(|img| {
            let mut img = img.clone();
            hook.corrupt(&img.site, &mut img.clean);
            img
        })
        .collect()
}
