//! DNN inference on approximate DRAM (Section 3.5).
//!
//! Weights reside permanently in approximate DRAM, so they are corrupted once
//! per inference pass (the bit flips a real device would produce on the loads
//! of that pass); IFMs are corrupted every time they move between layers. The
//! only modification to the inference algorithm itself is the
//! implausible-value correction carried by [`ApproximateMemory`].
//!
//! # One-shot wrappers over the session layer
//!
//! Every function here is a thin wrapper that constructs a throwaway
//! [`EvalSession`] and delegates — the session layer
//! ([`crate::session`]) owns the actual evaluation engine. Call these for a
//! single evaluation; for probe loops (characterization sweeps, tolerance
//! curves, retraining), construct one [`EvalSession`] and reuse it, which
//! amortizes the weight bit images, corrupted-weight pools and weak-cell
//! maps that the one-shot wrappers rebuild per call. Results are
//! bit-for-bit identical either way.
//!
//! # Parallel batch execution
//!
//! [`evaluate_with_faults`] runs samples batch-parallel on the current
//! `eden-par` pool, and [`accuracy_vs_ber`] additionally fans the independent
//! BER operating points out over it — this is what makes the paper's
//! Figure 5/7/8 sweeps tractable. Results are bit-identical for any thread
//! count: each sample's IFM corruption comes from an [`ApproximateMemory`]
//! fork keyed by the sample's *global index*, each BER point builds its own
//! memory from the caller's seed, and per-sample correctness flags land in
//! index-ordered slots. See the README's threading-model section.

use crate::faults::ApproximateMemory;
use crate::session::EvalSession;
use eden_dnn::{FaultHook, Network};
use eden_tensor::{Precision, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// How the DNN executes on top of the corrupted stored bits.
///
/// Both backends model the *same* approximate DRAM: weights and IFMs are
/// quantized to the stored representation and corrupted at the same
/// [`eden_dnn::DataSite`]s in the same load order. They differ only in the
/// arithmetic that consumes the corrupted bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum InferenceBackend {
    /// Simulated quantization (the seed behavior, bit-for-bit): every
    /// corrupted tensor is dequantized back to f32 and the float layers run
    /// on the dequantized values.
    #[default]
    SimulatedF32,
    /// Native integer execution: dense/conv layers consume the sign-extended
    /// quantized integers directly via exact i32/i64-accumulating GEMM
    /// kernels (see [`eden_dnn::qexec`]), skipping the f32 round-trip. Falls
    /// back to the simulated path for FP32, which has no integer
    /// representation.
    NativeInt,
}

impl fmt::Display for InferenceBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceBackend::SimulatedF32 => f.write_str("simulated-f32"),
            InferenceBackend::NativeInt => f.write_str("native-int"),
        }
    }
}

impl FromStr for InferenceBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "simulated" | "simulated-f32" | "f32" => Ok(InferenceBackend::SimulatedF32),
            "native" | "native-int" | "int" => Ok(InferenceBackend::NativeInt),
            other => Err(format!(
                "unknown inference backend {other:?} (expected \"simulated\" or \"native\")"
            )),
        }
    }
}

/// Returns a copy of `net` whose weights have been loaded through
/// approximate memory (quantized to `precision`, corrupted, corrected,
/// dequantized).
///
/// This is the one-shot API; the batch evaluator amortizes the clone and the
/// quantization across refetches via [`Network::weight_images`].
pub fn corrupted_network(
    net: &Network,
    precision: Precision,
    memory: &mut ApproximateMemory,
) -> Network {
    let mut copy = net.clone();
    copy.corrupt_weights(precision, memory);
    copy
}

/// Runs one forward pass with both weights and IFMs served from approximate
/// memory, returning the output logits.
pub fn forward_with_faults(
    net: &Network,
    input: &Tensor,
    precision: Precision,
    memory: &mut ApproximateMemory,
) -> Tensor {
    forward_with_faults_backend(
        net,
        input,
        precision,
        memory,
        InferenceBackend::SimulatedF32,
    )
}

/// [`forward_with_faults`] on an explicit execution backend.
pub fn forward_with_faults_backend(
    net: &Network,
    input: &Tensor,
    precision: Precision,
    memory: &mut ApproximateMemory,
    backend: InferenceBackend,
) -> Tensor {
    EvalSession::new(net, precision, backend).forward_with_faults(input, memory)
}

/// FP32 has no quantized integer representation, so the native backend
/// executes it on the simulated path.
pub(crate) fn effective_backend(
    backend: InferenceBackend,
    precision: Precision,
) -> InferenceBackend {
    if precision.is_integer() {
        backend
    } else {
        InferenceBackend::SimulatedF32
    }
}

/// Classification accuracy over `samples` when the network runs on
/// approximate memory. Weights are re-loaded (and re-corrupted) once per
/// sample batch of 16 to model periodic re-fetching from DRAM.
///
/// Samples run batch-parallel on the current `eden-par` pool. The weight
/// refetches consume `memory`'s own load streams in sequence (exactly as a
/// sequential evaluation would), while each sample's IFM loads come from
/// `memory.fork(sample index)` — so the returned accuracy and the
/// accumulated [`ApproximateMemory::stats`] are bit-identical for any thread
/// count.
///
/// An **empty** sample slice has no defined accuracy: the function returns
/// [`f32::NAN`] as an explicit sentinel (distinguishable from a genuinely
/// collapsed model's `0.0`); sweep consumers should treat NaN as "nothing
/// evaluated", not as an accuracy.
pub fn evaluate_with_faults(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    memory: &mut ApproximateMemory,
) -> f32 {
    evaluate_with_faults_backend(
        net,
        samples,
        precision,
        memory,
        InferenceBackend::SimulatedF32,
    )
}

/// [`evaluate_with_faults`] on an explicit execution backend.
///
/// With [`InferenceBackend::SimulatedF32`] this is bit-for-bit the seed
/// behavior. With [`InferenceBackend::NativeInt`] the same corrupted stored
/// bits feed the exact integer kernels instead of being dequantized, which
/// is substantially faster for the integer precisions and — integer
/// accumulation being associative — equally thread-count invariant.
///
/// Both backends serve weight refetches as sparse corruption overlays over
/// the cached clean bit images ([`Network::weight_images`]): the
/// persistent corrupted copies are
/// patched with only the words each fault draw touches, so the per-refetch
/// cost is O(flips) rather than proportional to the network size. A probe
/// loop should hold an [`EvalSession`] instead of calling this repeatedly
/// (see the [module docs](self)).
pub fn evaluate_with_faults_backend(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    memory: &mut ApproximateMemory,
    backend: InferenceBackend,
) -> f32 {
    EvalSession::new(net, precision, backend).evaluate_with_faults(samples, memory)
}

/// Accuracy of the same network on reliable memory (the baseline the
/// user-specified accuracy target refers to). Returns the [`f32::NAN`]
/// sentinel for an empty sample slice, like [`evaluate_with_faults`].
pub fn evaluate_reliable(net: &Network, samples: &[(Tensor, usize)], precision: Precision) -> f32 {
    evaluate_reliable_backend(net, samples, precision, InferenceBackend::SimulatedF32)
}

/// [`evaluate_reliable`] on an explicit execution backend.
pub fn evaluate_reliable_backend(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    backend: InferenceBackend,
) -> f32 {
    EvalSession::new(net, precision, backend).evaluate_reliable(samples)
}

/// Evaluates accuracy at a sequence of bit error rates using a template
/// error model (the BER sweep that produces the paper's error-tolerance
/// curves, Figure 8).
///
/// The BER points are mutually independent — each builds its own
/// [`ApproximateMemory`] from `seed` — so they fan out over the `eden-par`
/// pool, nesting with the batch parallelism inside [`evaluate_with_faults`].
///
/// An empty `samples` slice yields [`f32::NAN`] at every point (the
/// [`evaluate_with_faults`] sentinel) rather than a fake `0.0` curve.
pub fn accuracy_vs_ber(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    template: &eden_dram::ErrorModel,
    bers: &[f64],
    bounding: Option<crate::bounding::BoundingLogic>,
    seed: u64,
) -> Vec<(f64, f32)> {
    accuracy_vs_ber_backend(
        net,
        samples,
        precision,
        template,
        bers,
        bounding,
        seed,
        InferenceBackend::SimulatedF32,
    )
}

/// [`accuracy_vs_ber`] on an explicit execution backend.
#[allow(clippy::too_many_arguments)]
pub fn accuracy_vs_ber_backend(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    template: &eden_dram::ErrorModel,
    bers: &[f64],
    bounding: Option<crate::bounding::BoundingLogic>,
    seed: u64,
    backend: InferenceBackend,
) -> Vec<(f64, f32)> {
    EvalSession::new(net, precision, backend)
        .accuracy_vs_ber(samples, template, bers, bounding, seed)
}

/// Convenience wrapper: a [`FaultHook`] that applies no corruption, for
/// code paths that need a hook object for reliable memory.
pub fn reliable_hook() -> impl FaultHook {
    eden_dnn::NoFaults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounding::{BoundingLogic, CorrectionPolicy};
    use eden_dnn::data::SyntheticVision;
    use eden_dnn::train::{TrainConfig, Trainer};
    use eden_dnn::{zoo, Dataset};
    use eden_dram::ErrorModel;

    fn trained_lenet(seed: u64) -> (eden_dnn::Network, SyntheticVision) {
        let dataset = SyntheticVision::tiny(seed);
        let mut net = zoo::lenet(&dataset.spec(), seed);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        });
        trainer.train(&mut net, &dataset);
        (net, dataset)
    }

    #[test]
    fn reliable_evaluation_matches_plain_accuracy() {
        let (net, dataset) = trained_lenet(0);
        let plain = eden_dnn::metrics::accuracy(&net, dataset.test());
        let via_memory = evaluate_reliable(&net, dataset.test(), Precision::Fp32);
        assert!((plain - via_memory).abs() < 1e-6);
    }

    #[test]
    fn low_ber_preserves_accuracy_high_ber_destroys_it() {
        let (net, dataset) = trained_lenet(1);
        let samples = &dataset.test()[..32];
        let template = ErrorModel::uniform(0.01, 0.5, 3);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let curve = accuracy_vs_ber(
            &net,
            samples,
            Precision::Int8,
            &template,
            &[1e-5, 0.4],
            Some(bounding),
            5,
        );
        let baseline = evaluate_reliable(&net, samples, Precision::Int8);
        let chance = 1.0 / dataset.spec().num_classes as f32;
        assert!(
            curve[0].1 >= baseline - 0.1,
            "tiny BER should not hurt accuracy"
        );
        assert!(
            curve[1].1 <= baseline - 0.15 || curve[1].1 <= chance + 0.2,
            "40% BER should destroy accuracy (got {} vs baseline {baseline})",
            curve[1].1
        );
    }

    #[test]
    fn bounding_protects_fp32_from_accuracy_collapse() {
        // The paper's key observation (Section 3.2): without correction, a
        // modest BER collapses FP32 accuracy because of exponent-bit flips;
        // with zeroing correction the DNN tolerates orders of magnitude more.
        let (net, dataset) = trained_lenet(2);
        let samples = &dataset.test()[..32];
        let template = ErrorModel::uniform(0.01, 0.5, 7);
        let model = template.with_ber(1e-3);
        let baseline = evaluate_reliable(&net, samples, Precision::Fp32);

        let mut unprotected = ApproximateMemory::from_model(model, 1);
        let without = evaluate_with_faults(&net, samples, Precision::Fp32, &mut unprotected);

        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let mut protected = ApproximateMemory::from_model(model, 1).with_bounding(bounding);
        let with = evaluate_with_faults(&net, samples, Precision::Fp32, &mut protected);

        assert!(
            with >= without,
            "bounding ({with}) should never hurt vs unprotected ({without})"
        );
        assert!(
            with >= baseline - 0.25,
            "with bounding, 1e-3 BER should retain most accuracy ({with} vs {baseline})"
        );
    }

    #[test]
    fn empty_sample_slice_returns_the_nan_sentinel() {
        let (net, _) = trained_lenet(4);
        let mut memory = ApproximateMemory::reliable(0);
        let acc = evaluate_with_faults(&net, &[], Precision::Int8, &mut memory);
        assert!(
            acc.is_nan(),
            "empty slice must be distinguishable, got {acc}"
        );
        assert!(evaluate_reliable(&net, &[], Precision::Int8).is_nan());
        // The BER sweep propagates the sentinel per point instead of
        // reporting a fake collapsed-accuracy curve.
        let template = ErrorModel::uniform(0.01, 0.5, 1);
        let curve = accuracy_vs_ber(
            &net,
            &[],
            Precision::Int8,
            &template,
            &[1e-4, 1e-2],
            None,
            3,
        );
        assert_eq!(curve.len(), 2);
        assert!(curve.iter().all(|(_, acc)| acc.is_nan()));
    }

    #[test]
    fn native_backend_matches_simulated_accuracy_on_reliable_memory() {
        let (net, dataset) = trained_lenet(5);
        let samples = &dataset.test()[..32];
        for precision in [Precision::Int4, Precision::Int8, Precision::Int16] {
            let sim =
                evaluate_reliable_backend(&net, samples, precision, InferenceBackend::SimulatedF32);
            let native =
                evaluate_reliable_backend(&net, samples, precision, InferenceBackend::NativeInt);
            // Integer accumulation is the more exact of the two paths; on a
            // trained classifier the per-sample argmax agrees.
            assert_eq!(sim, native, "{precision}");
        }
    }

    #[test]
    fn native_backend_on_fp32_falls_back_to_simulated() {
        let (net, dataset) = trained_lenet(6);
        let samples = &dataset.test()[..16];
        let mut a = ApproximateMemory::from_model(ErrorModel::uniform(0.01, 0.5, 2), 7);
        let mut b = a.clone();
        let sim = evaluate_with_faults_backend(
            &net,
            samples,
            Precision::Fp32,
            &mut a,
            InferenceBackend::SimulatedF32,
        );
        let native = evaluate_with_faults_backend(
            &net,
            samples,
            Precision::Fp32,
            &mut b,
            InferenceBackend::NativeInt,
        );
        assert_eq!(sim.to_bits(), native.to_bits());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn native_backend_degrades_under_high_ber_like_simulated() {
        let (net, dataset) = trained_lenet(7);
        let samples = &dataset.test()[..32];
        let template = ErrorModel::uniform(0.01, 0.5, 3);
        let curve = accuracy_vs_ber_backend(
            &net,
            samples,
            Precision::Int8,
            &template,
            &[1e-5, 0.4],
            None,
            9,
            InferenceBackend::NativeInt,
        );
        let baseline =
            evaluate_reliable_backend(&net, samples, Precision::Int8, InferenceBackend::NativeInt);
        let chance = 1.0 / dataset.spec().num_classes as f32;
        assert!(curve[0].1 >= baseline - 0.1, "tiny BER should not hurt");
        assert!(
            curve[1].1 <= baseline - 0.15 || curve[1].1 <= chance + 0.2,
            "40% BER should destroy accuracy (got {})",
            curve[1].1
        );
    }

    #[test]
    fn corrupted_network_differs_from_original_at_high_ber() {
        let (net, dataset) = trained_lenet(3);
        let mut memory = ApproximateMemory::from_model(ErrorModel::uniform(0.05, 0.5, 1), 2);
        let corrupted = corrupted_network(&net, Precision::Int8, &mut memory);
        let x = &dataset.test()[0].0;
        assert_ne!(net.forward(x), corrupted.forward(x));
        assert!(memory.stats().bit_flips > 0);
    }
}
