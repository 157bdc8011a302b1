//! DNN inference on approximate DRAM (Section 3.5): the execution backends.
//!
//! Weights reside permanently in approximate DRAM, so they are corrupted once
//! per inference pass (the bit flips a real device would produce on the loads
//! of that pass); IFMs are corrupted every time they move between layers. The
//! only modification to the inference algorithm itself is the
//! implausible-value correction carried by
//! [`ApproximateMemory`](crate::faults::ApproximateMemory).
//!
//! Evaluation runs through [`EvalSession`](crate::session::EvalSession), the
//! one evaluation API: construct it once per `(network, precision, backend)`
//! and call it for single evaluations and probe loops alike. This module
//! defines the [`InferenceBackend`] a session executes on.

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
    /// kernels (see [`eden_dnn::qexec`]), skipping the f32 round-trip. FP32,
    /// which has no integer representation, uses the all-f32 plan.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounding::{BoundingLogic, CorrectionPolicy};
    use crate::faults::ApproximateMemory;
    use crate::session::EvalSession;
    use eden_dnn::data::SyntheticVision;
    use eden_dnn::train::{TrainConfig, Trainer};
    use eden_dnn::{zoo, Dataset};
    use eden_dram::ErrorModel;
    use eden_tensor::Precision;

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
        let via_memory = EvalSession::new(&net, Precision::Fp32, InferenceBackend::default())
            .evaluate_reliable(dataset.test());
        assert!((plain - via_memory).abs() < 1e-6);
    }

    #[test]
    fn low_ber_preserves_accuracy_high_ber_destroys_it() {
        let (net, dataset) = trained_lenet(1);
        let samples = &dataset.test()[..32];
        let template = ErrorModel::uniform(0.01, 0.5, 3);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let curve = session.accuracy_vs_ber(samples, &template, &[1e-5, 0.4], Some(bounding), 5);
        let baseline = session.evaluate_reliable(samples);
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
        let mut session = EvalSession::new(&net, Precision::Fp32, InferenceBackend::default());
        let baseline = session.evaluate_reliable(samples);

        let mut unprotected = ApproximateMemory::from_model(model, 1);
        let without = session.evaluate_with_faults(samples, &mut unprotected);

        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let mut protected = ApproximateMemory::from_model(model, 1).with_bounding(bounding);
        let with = session.evaluate_with_faults(samples, &mut protected);

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
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let mut memory = ApproximateMemory::reliable(0);
        let acc = session.evaluate_with_faults(&[], &mut memory);
        assert!(
            acc.is_nan(),
            "empty slice must be distinguishable, got {acc}"
        );
        assert!(session.evaluate_reliable(&[]).is_nan());
        // The BER sweep propagates the sentinel per point instead of
        // reporting a fake collapsed-accuracy curve.
        let template = ErrorModel::uniform(0.01, 0.5, 1);
        let curve = session.accuracy_vs_ber(&[], &template, &[1e-4, 1e-2], None, 3);
        assert_eq!(curve.len(), 2);
        assert!(curve.iter().all(|(_, acc)| acc.is_nan()));
    }

    #[test]
    fn native_backend_matches_simulated_accuracy_on_reliable_memory() {
        let (net, dataset) = trained_lenet(5);
        let samples = &dataset.test()[..32];
        for precision in [Precision::Int4, Precision::Int8, Precision::Int16] {
            let reliable =
                |backend| EvalSession::new(&net, precision, backend).evaluate_reliable(samples);
            let sim = reliable(InferenceBackend::SimulatedF32);
            let native = reliable(InferenceBackend::NativeInt);
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
        let sim = EvalSession::new(&net, Precision::Fp32, InferenceBackend::SimulatedF32)
            .evaluate_with_faults(samples, &mut a);
        let native = EvalSession::new(&net, Precision::Fp32, InferenceBackend::NativeInt)
            .evaluate_with_faults(samples, &mut b);
        assert_eq!(sim.to_bits(), native.to_bits());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn native_backend_degrades_under_high_ber_like_simulated() {
        let (net, dataset) = trained_lenet(7);
        let samples = &dataset.test()[..32];
        let template = ErrorModel::uniform(0.01, 0.5, 3);
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt);
        let curve = session.accuracy_vs_ber(samples, &template, &[1e-5, 0.4], None, 9);
        let baseline = session.evaluate_reliable(samples);
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
        let x = &dataset.test()[0].0;
        let corrupted = EvalSession::new(&net, Precision::Int8, InferenceBackend::default())
            .forward_with_faults(x, &mut memory);
        assert_ne!(net.forward(x), corrupted);
        assert!(memory.stats().bit_flips > 0);
    }
}
