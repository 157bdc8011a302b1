//! Implausible-value correction ("bounding logic", Sections 3.2 and 5).
//!
//! A single bit error in the exponent of a floating-point value turns a small
//! weight into an enormous one and collapses DNN accuracy. EDEN compares
//! every value loaded from approximate DRAM against thresholds learned from
//! the baseline DNN and *zeroes* out-of-range values (zeroing outperforms
//! saturating, Section 3.2). The paper implements this as one cycle of simple
//! comparator logic in the memory controller (Section 5).

use eden_dnn::{DataSite, Network};
use eden_tensor::{CorruptionOverlay, Precision, QuantTensor, Tensor};
use serde::{Deserialize, Serialize};

/// What to do with a value that falls outside the plausible range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorrectionPolicy {
    /// Replace the value with zero (the paper's chosen policy).
    Zero,
    /// Clamp the value to the nearest threshold (evaluated and rejected by
    /// the paper; kept for the ablation experiment).
    Saturate,
}

/// Thresholds and policy used to correct implausible values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingLogic {
    /// Lower plausibility bound.
    pub lower: f32,
    /// Upper plausibility bound.
    pub upper: f32,
    /// Correction policy.
    pub policy: CorrectionPolicy,
    /// Added latency of the hardware comparator in memory-controller cycles
    /// (Section 5 reports a 1-cycle cost).
    pub latency_cycles: u32,
}

impl BoundingLogic {
    /// Creates bounding logic with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`.
    pub fn new(lower: f32, upper: f32, policy: CorrectionPolicy) -> Self {
        assert!(
            lower <= upper,
            "invalid bounding thresholds [{lower}, {upper}]"
        );
        Self {
            lower,
            upper,
            policy,
            latency_cycles: 1,
        }
    }

    /// Derives thresholds from the weight ranges of a trained baseline
    /// network, expanded by a safety `margin` factor (the paper computes the
    /// thresholds during baseline training; e.g. most SqueezeNet1.1 weights
    /// lie within `[-5, 5]`).
    ///
    /// Activations can be larger than weights; when validation data is
    /// available, prefer [`BoundingLogic::calibrated`], which also observes
    /// the feature-map ranges. This constructor uses a conservative extra
    /// factor to cover activations it cannot observe.
    pub fn from_network(net: &Network, margin: f32, policy: CorrectionPolicy) -> Self {
        let bound = (Self::weight_abs_max(net) * margin).max(1.0) * 32.0;
        Self::new(-bound, bound, policy)
    }

    /// Derives thresholds from both the weight ranges of the baseline network
    /// and the feature-map ranges observed while evaluating `samples` on
    /// reliable memory — the paper's "thresholds computed during training of
    /// the baseline DNN" (Section 3.2).
    pub fn calibrated(
        net: &Network,
        samples: &[(Tensor, usize)],
        margin: f32,
        policy: CorrectionPolicy,
    ) -> Self {
        let mut max_abs = Self::weight_abs_max(net);
        for (x, _) in samples {
            let mut recorder = |_site: &DataSite, q: &mut QuantTensor| {
                max_abs = max_abs.max(q.dequantize().abs_max());
            };
            let output = net.forward_with_ifm_hook(x, Precision::Fp32, &mut recorder);
            max_abs = max_abs.max(output.abs_max());
        }
        let bound = (max_abs * margin).max(1.0) * 2.0;
        Self::new(-bound, bound, policy)
    }

    fn weight_abs_max(net: &Network) -> f32 {
        let mut max_abs = 0.0f32;
        net.visit_params_ref(&mut |_, t| {
            max_abs = max_abs.max(t.abs_max());
        });
        max_abs
    }

    /// Whether a loaded value falls outside the plausible range (NaN is
    /// always implausible).
    fn implausible(&self, v: f32) -> bool {
        v.is_nan() || v < self.lower || v > self.upper
    }

    /// Whether **every representable value** of `tensor`'s quantization grid
    /// lies inside the plausible range — in which case *no* stored word of
    /// this tensor, corrupted or not, can ever need correction, and
    /// [`BoundingLogic::correct`] is provably a no-op that callers may skip.
    ///
    /// True only for integer precisions: every bit pattern of a `b`-bit word
    /// sign-extends to some `q ∈ [q_min, q_max]`, `value = q × scale` is
    /// monotone in `q` for the non-negative finite scale (f32 multiplication
    /// rounds monotonically and `q` is exactly representable), so checking
    /// the two grid endpoints bounds every cell, and an integer dequantized
    /// value can never be NaN. FP32 cells can hold any bit pattern,
    /// including NaN and huge exponents, and always need the full scan.
    ///
    /// This is what makes bounding O(1) per load on the quantized serving
    /// paths: the calibrated thresholds are derived to cover the baseline
    /// ranges, so in the common case the endpoint check short-circuits the
    /// whole O(values) scan.
    pub fn covers_grid(&self, tensor: &QuantTensor) -> bool {
        let (Some(q_min), Some(q_max)) = (tensor.precision().q_min(), tensor.precision().q_max())
        else {
            return false;
        };
        let scale = tensor.scale();
        scale.is_finite()
            && scale >= 0.0
            && !self.implausible(q_min as f32 * scale)
            && !self.implausible(q_max as f32 * scale)
    }

    /// The value an implausible `v` is replaced with under the policy.
    fn replacement(&self, v: f32) -> f32 {
        match self.policy {
            CorrectionPolicy::Zero => 0.0,
            CorrectionPolicy::Saturate => {
                if v.is_nan() {
                    0.0
                } else if v < self.lower {
                    self.lower
                } else {
                    self.upper
                }
            }
        }
    }

    /// Corrects implausible values in a loaded tensor; returns how many
    /// values were corrected.
    pub fn correct(&self, tensor: &mut QuantTensor) -> usize {
        let mut corrected = 0;
        for i in 0..tensor.len() {
            let v = tensor.value(i);
            if self.implausible(v) {
                tensor.set_value(i, self.replacement(v));
                corrected += 1;
            }
        }
        corrected
    }

    /// The corrections this logic applies to an **uncorrupted** stored image:
    /// one `(word index, xor mask)` per value of `clean` that is implausible
    /// as stored (the mask may be zero when the replacement re-quantizes to
    /// the same bits — the value still counts as corrected).
    ///
    /// A clean image never changes between fault draws, so the sparse-overlay
    /// refetch path computes this once per `(image, bounding)` pair and folds
    /// it into every per-draw overlay ([`BoundingLogic::fold_overlay`]),
    /// instead of re-scanning the whole tensor on every load as
    /// [`BoundingLogic::correct`] does.
    pub fn clean_corrections(&self, clean: &QuantTensor) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..clean.len() {
            let v = clean.value(i);
            if self.implausible(v) {
                let fixed = clean.word_from_value(self.replacement(v));
                out.push((i as u32, clean.stored_bits(i) ^ fixed));
            }
        }
        out
    }

    /// Folds this bounding logic into a raw injection overlay over `clean`,
    /// producing the overlay of the *corrected* corrupted image — exactly
    /// what [`BoundingLogic::correct`] would leave after the same injection,
    /// in O(flips + clean corrections) instead of O(values):
    ///
    /// * every flipped word is re-evaluated on its corrupted value (a flip
    ///   can make a value implausible, or make a clean-implausible value
    ///   plausible again);
    /// * every *unflipped* clean-implausible word (from
    ///   [`BoundingLogic::clean_corrections`] of the same image) keeps its
    ///   precomputed correction.
    ///
    /// The returned overlay carries the injection's flip count unchanged and
    /// the correction count the full scan would have reported.
    pub fn fold_overlay(
        &self,
        clean: &QuantTensor,
        overlay: CorruptionOverlay,
        clean_corrections: &[(u32, u32)],
    ) -> CorruptionOverlay {
        let flips = overlay.bit_flips();
        let mut corrections = 0u64;
        let mut deltas: Vec<(u32, u32)> =
            Vec::with_capacity(overlay.len() + clean_corrections.len());
        let mut cc = clean_corrections.iter().peekable();
        for &(w, m) in overlay.deltas() {
            // Unflipped clean-implausible words before this flip keep their
            // precomputed correction.
            while let Some(&&(cw, cm)) = cc.peek() {
                if cw >= w {
                    break;
                }
                corrections += 1;
                deltas.push((cw, cm));
                cc.next();
            }
            // A clean correction on the flipped word itself is superseded by
            // the re-evaluation below.
            if cc.peek().is_some_and(|&&(cw, _)| cw == w) {
                cc.next();
            }
            let corrupted = clean.stored_bits(w as usize) ^ m;
            let v = clean.word_value(corrupted);
            if self.implausible(v) {
                corrections += 1;
                let fixed = clean.word_from_value(self.replacement(v));
                deltas.push((w, clean.stored_bits(w as usize) ^ fixed));
            } else {
                deltas.push((w, m));
            }
        }
        for &(cw, cm) in cc {
            corrections += 1;
            deltas.push((cw, cm));
        }
        CorruptionOverlay::new(
            clean.len(),
            clean.bits_per_value(),
            deltas,
            flips,
            corrections,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_dnn::data::SyntheticVision;
    use eden_dnn::{zoo, Dataset};
    use eden_tensor::{Precision, Tensor};

    #[test]
    fn zeroing_removes_implausible_values() {
        let logic = BoundingLogic::new(-10.0, 10.0, CorrectionPolicy::Zero);
        let t = Tensor::from_vec(vec![1.0, -3.0, 1e12, f32::NAN, -2e9], &[5]);
        let mut q = QuantTensor::quantize(&t, Precision::Fp32);
        let corrected = logic.correct(&mut q);
        assert_eq!(corrected, 3);
        let d = q.dequantize();
        assert_eq!(d.data()[0], 1.0);
        assert_eq!(d.data()[2], 0.0);
        assert_eq!(d.data()[3], 0.0);
        assert_eq!(d.data()[4], 0.0);
    }

    #[test]
    fn saturating_clamps_to_thresholds() {
        let logic = BoundingLogic::new(-2.0, 2.0, CorrectionPolicy::Saturate);
        let t = Tensor::from_vec(vec![5.0, -7.0, 0.5], &[3]);
        let mut q = QuantTensor::quantize(&t, Precision::Fp32);
        logic.correct(&mut q);
        let d = q.dequantize();
        assert_eq!(d.data(), &[2.0, -2.0, 0.5]);
    }

    #[test]
    fn in_range_values_are_untouched() {
        let logic = BoundingLogic::new(-100.0, 100.0, CorrectionPolicy::Zero);
        let t = Tensor::from_vec(vec![1.0, -50.0, 99.9], &[3]);
        let mut q = QuantTensor::quantize(&t, Precision::Fp32);
        assert_eq!(logic.correct(&mut q), 0);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn network_derived_thresholds_cover_its_own_weights() {
        let dataset = SyntheticVision::tiny(0);
        let net = zoo::lenet(&dataset.spec(), 1);
        let logic = BoundingLogic::from_network(&net, 1.5, CorrectionPolicy::Zero);
        // No weight of the network itself should be "implausible".
        let mut corrected = 0;
        net.visit_params_ref(&mut |_, t| {
            let mut q = QuantTensor::quantize(t, Precision::Fp32);
            corrected += logic.correct(&mut q);
        });
        assert_eq!(corrected, 0);
        assert_eq!(logic.latency_cycles, 1);
    }

    #[test]
    fn exponent_flip_is_caught_by_bounding() {
        let logic = BoundingLogic::new(-8.0, 8.0, CorrectionPolicy::Zero);
        let t = Tensor::from_vec(vec![0.75], &[1]);
        let mut q = QuantTensor::quantize(&t, Precision::Fp32);
        q.flip_bit(0, 30); // exponent MSB → enormous value
        assert!(q.value(0).abs() > 1e30);
        logic.correct(&mut q);
        assert_eq!(q.value(0), 0.0);
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_are_rejected() {
        BoundingLogic::new(5.0, -5.0, CorrectionPolicy::Zero);
    }

    #[test]
    fn covers_grid_is_exact_for_every_stored_word() {
        // When covers_grid claims the whole grid is plausible, no bit
        // pattern whatsoever may be correctable — verified exhaustively for
        // int8. When it does not, the scan must stay.
        let t = Tensor::from_vec(vec![1.0, -2.0, 0.5, 2.0], &[4]);
        let q = QuantTensor::quantize(&t, Precision::Int8);
        let covering = BoundingLogic::new(-3.0, 3.0, CorrectionPolicy::Zero);
        assert!(covering.covers_grid(&q));
        for word in 0..=255u32 {
            let mut probe = q.clone();
            probe.stored_mut()[0] = word;
            assert_eq!(
                covering.correct(&mut probe),
                0,
                "word {word:#x} must be plausible under a covering grid"
            );
        }
        // Tight thresholds do not cover the grid (an MSB flip escapes).
        let tight = BoundingLogic::new(-1.0, 1.0, CorrectionPolicy::Zero);
        assert!(!tight.covers_grid(&q));
        // FP32 never qualifies: any bit pattern (NaN, huge exponents) fits.
        let f = QuantTensor::quantize(&t, Precision::Fp32);
        assert!(!covering.covers_grid(&f));
    }

    #[test]
    fn fold_overlay_matches_full_scan_correction() {
        // The sparse fold must reproduce inject-then-correct exactly: same
        // final bits, same correction count — including clean-implausible
        // values that a flip makes plausible again, and plausible values a
        // flip pushes out of range.
        use eden_dram::error_model::Layout;
        use eden_dram::ErrorModel;

        // Data with deliberate outliers so the clean image itself needs
        // corrections.
        let mut data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        data[10] = 1e12;
        data[100] = -4e9;
        data[4000] = f32::NAN;
        let t = Tensor::from_vec(data, &[4096]);
        for policy in [CorrectionPolicy::Zero, CorrectionPolicy::Saturate] {
            let logic = BoundingLogic::new(-2.0, 2.0, policy);
            for precision in [Precision::Fp32, Precision::Int8] {
                let clean = QuantTensor::quantize(&t, precision);
                let model = ErrorModel::uniform(0.01, 0.8, 3);
                let layout = Layout::default();
                let map = model.weak_map(clean.len(), clean.bits_per_value(), &layout);

                let mut reference = clean.clone();
                map.draw(reference.stored_mut(), 55, model.flip_thresholds());
                let scan_corrections = logic.correct(&mut reference);

                let raw = map.draw_overlay(clean.stored(), 55, model.flip_thresholds());
                let folded = logic.fold_overlay(&clean, raw, &logic.clean_corrections(&clean));
                assert_eq!(folded.corrections(), scan_corrections as u64, "{policy:?}");
                let mut patched = clean.clone();
                folded.apply(&mut patched);
                assert_eq!(patched, reference, "{policy:?} {precision}");
            }
        }
    }

    #[test]
    fn clean_corrections_enumerate_exactly_the_implausible_values() {
        let logic = BoundingLogic::new(-1.0, 1.0, CorrectionPolicy::Zero);
        let t = Tensor::from_vec(vec![0.5, 3.0, -0.25, -7.0, 0.0], &[5]);
        let clean = QuantTensor::quantize(&t, Precision::Fp32);
        let corrections = logic.clean_corrections(&clean);
        assert_eq!(
            corrections.iter().map(|&(w, _)| w).collect::<Vec<_>>(),
            vec![1, 3]
        );
        // Applying the correction masks equals running the full scan.
        let mut scanned = clean.clone();
        assert_eq!(logic.correct(&mut scanned), 2);
        let mut patched = clean.clone();
        for &(w, m) in &corrections {
            patched.stored_mut()[w as usize] ^= m;
        }
        assert_eq!(patched, scanned);
    }
}
