//! Sparse corruption overlays over stored tensor words.
//!
//! A [`CorruptionOverlay`] is the compact delta between a clean stored bit
//! image and its corrupted form: an ascending list of
//! `(word index, xor mask)` pairs, one per *touched* word, plus the
//! statistics the corruption accumulated (bit flips from the error source,
//! values corrected by bounding logic). Because XOR is an involution,
//! applying the same overlay twice restores the original image exactly —
//! `apply ∘ revert` is the identity — so a persistent corrupted copy of a
//! network can be patched to a new fault draw and restored to clean in
//! O(touched words) instead of reloading every parameter.
//!
//! At the bit error rates EDEN operates at (1e-7..1e-3) only a tiny
//! fraction of weight bits ever flip, so an overlay is typically orders of
//! magnitude smaller than the image it describes. This is what turns the
//! per-sample fault-injection cost of the characterization, retraining and
//! tolerance-curve loops from O(total weights) into O(flips).
//!
//! The overlay itself is a pure data structure; the producers live in the
//! DRAM layer (`eden_dram`: error models, injectors, the simulated device)
//! and the consumers in the DNN layer (`eden_dnn`: network parameter and
//! native-weight patching).

use crate::quant::QuantTensor;

/// One sparse corruption delta: ascending `(word index, xor mask)` pairs
/// relative to a clean stored image of `values × bits` geometry. See the
/// [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionOverlay {
    values: usize,
    bits: u32,
    /// Touched words, strictly ascending by word index; masks are non-zero
    /// and confined to the low `bits` bits of each word.
    deltas: Vec<(u32, u32)>,
    flips: u64,
    corrections: u64,
}

impl CorruptionOverlay {
    /// Creates an overlay from its parts.
    ///
    /// `deltas` must be strictly ascending by word index with every index
    /// `< values`; zero masks are allowed (a bounding correction can restore
    /// a word to its clean bits while still counting as a correction — such
    /// entries are dropped, only the counters keep them).
    pub fn new(
        values: usize,
        bits: u32,
        deltas: Vec<(u32, u32)>,
        flips: u64,
        corrections: u64,
    ) -> Self {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].0 < w[1].0),
            "overlay deltas must be strictly ascending"
        );
        debug_assert!(deltas.iter().all(|&(w, _)| (w as usize) < values));
        let deltas = if deltas.iter().any(|&(_, m)| m == 0) {
            deltas.into_iter().filter(|&(_, m)| m != 0).collect()
        } else {
            deltas
        };
        Self {
            values,
            bits,
            deltas,
            flips,
            corrections,
        }
    }

    /// An overlay that touches nothing (an error-free load).
    pub fn empty(values: usize, bits: u32) -> Self {
        Self {
            values,
            bits,
            deltas: Vec::new(),
            flips: 0,
            corrections: 0,
        }
    }

    /// The overlay turning `clean` into `corrupted`: one delta per differing
    /// word, with the flip counter set to the total number of differing bits.
    ///
    /// # Panics
    ///
    /// Panics if the two tensors differ in shape or precision.
    pub fn from_diff(clean: &QuantTensor, corrupted: &QuantTensor) -> Self {
        assert_eq!(clean.shape(), corrupted.shape(), "overlay diff shape");
        assert_eq!(
            clean.precision(),
            corrupted.precision(),
            "overlay diff precision"
        );
        let mut deltas = Vec::new();
        let mut flips = 0u64;
        for (i, (&a, &b)) in clean.stored().iter().zip(corrupted.stored()).enumerate() {
            let mask = a ^ b;
            if mask != 0 {
                deltas.push((i as u32, mask));
                flips += mask.count_ones() as u64;
            }
        }
        Self {
            values: clean.len(),
            bits: clean.bits_per_value(),
            deltas,
            flips,
            corrections: 0,
        }
    }

    /// Element count of the image the overlay applies to.
    pub fn values(&self) -> usize {
        self.values
    }

    /// Bits per stored value of the image the overlay applies to.
    pub fn bits_per_value(&self) -> u32 {
        self.bits
    }

    /// The touched words: strictly ascending `(word index, xor mask)` pairs.
    pub fn deltas(&self) -> &[(u32, u32)] {
        &self.deltas
    }

    /// Number of touched words.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the overlay touches no word.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Whether the overlay is the identity in every observable way: it
    /// touches no word **and** recorded no flips or corrections. Stricter
    /// than [`CorruptionOverlay::is_empty`], which only checks the deltas —
    /// a bounding pass can correct a value back to its clean bits, leaving
    /// an empty delta list with a nonzero correction count, and such a load
    /// still perturbs downstream statistics. A clean overlay is the
    /// certificate that a load left both the data and the stats untouched,
    /// which is what lets incremental re-evaluation skip the layer it feeds.
    pub fn is_clean(&self) -> bool {
        self.deltas.is_empty() && self.flips == 0 && self.corrections == 0
    }

    /// Bits flipped by the error source while producing this overlay.
    pub fn bit_flips(&self) -> u64 {
        self.flips
    }

    /// Values corrected by bounding logic while producing this overlay.
    pub fn corrections(&self) -> u64 {
        self.corrections
    }

    /// XORs the overlay into a stored image. Applying a second time restores
    /// the image ([`CorruptionOverlay::revert`]).
    ///
    /// # Panics
    ///
    /// Panics if the tensor geometry does not match the overlay's.
    pub fn apply(&self, tensor: &mut QuantTensor) {
        assert_eq!(tensor.len(), self.values, "overlay geometry (values)");
        assert_eq!(
            tensor.bits_per_value(),
            self.bits,
            "overlay geometry (bits)"
        );
        let stored = tensor.stored_mut();
        for &(w, m) in &self.deltas {
            stored[w as usize] ^= m;
        }
    }

    /// Undoes a previous [`CorruptionOverlay::apply`]. XOR is an involution,
    /// so this is the same operation; the distinct name keeps call sites
    /// readable.
    pub fn revert(&self, tensor: &mut QuantTensor) {
        self.apply(tensor);
    }

    /// Iterates the stored words a patch pass writes against `clean`: per
    /// touched word, `(index, clean bits ^ mask)` when applying and
    /// `(index, clean bits)` when reverting. This is **the** word formula of
    /// every overlay consumer (f32 parameter buffers, native integer
    /// weights, f32 network copies), shared here so apply and revert can
    /// never drift apart.
    ///
    /// # Panics
    ///
    /// Panics (on iteration) if the overlay indexes past `clean`'s length.
    pub fn patched_words<'a>(
        &'a self,
        clean: &'a QuantTensor,
        apply: bool,
    ) -> impl Iterator<Item = (usize, u32)> + 'a {
        self.deltas.iter().map(move |&(w, m)| {
            let i = w as usize;
            (i, clean.stored_bits(i) ^ if apply { m } else { 0 })
        })
    }

    /// Merges another overlay over the same image into this one, XOR-combining
    /// masks on shared words and summing the counters — the composition rule
    /// for multi-module mappings where each DRAM partition holding a slice of
    /// a data type contributes an independent overlay.
    ///
    /// # Panics
    ///
    /// Panics if the two overlays describe different image geometries.
    pub fn merge(&mut self, other: &CorruptionOverlay) {
        assert_eq!(self.values, other.values, "overlay merge geometry (values)");
        assert_eq!(self.bits, other.bits, "overlay merge geometry (bits)");
        let mut merged = Vec::with_capacity(self.deltas.len() + other.deltas.len());
        let (mut a, mut b) = (
            self.deltas.iter().peekable(),
            other.deltas.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(wa, ma)), Some(&&(wb, mb))) => {
                    if wa < wb {
                        merged.push((wa, ma));
                        a.next();
                    } else if wb < wa {
                        merged.push((wb, mb));
                        b.next();
                    } else {
                        if ma ^ mb != 0 {
                            merged.push((wa, ma ^ mb));
                        }
                        a.next();
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                }
                (None, None) => break,
            }
        }
        self.deltas = merged;
        self.flips += other.flips;
        self.corrections += other.corrections;
    }

    /// The same deltas re-indexed into a larger image: word `w` of this
    /// overlay becomes word `offset + w` of an image with `values` elements.
    /// This is the lift that embeds a per-span overlay — produced against a
    /// [`crate::quant::QuantTensor::slice_values`] slice of a data type's
    /// stored words — back into the full image before composition with
    /// [`CorruptionOverlay::merge`].
    ///
    /// # Panics
    ///
    /// Panics if the shifted span does not fit the target geometry.
    pub fn lifted(&self, offset: usize, values: usize) -> CorruptionOverlay {
        assert!(
            offset
                .checked_add(self.values)
                .is_some_and(|end| end <= values),
            "lifted overlay out of bounds: offset {offset} + span {} > {values}",
            self.values
        );
        CorruptionOverlay {
            values,
            bits: self.bits,
            deltas: self
                .deltas
                .iter()
                .map(|&(w, m)| (w + offset as u32, m))
                .collect(),
            flips: self.flips,
            corrections: self.corrections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::Precision;
    use crate::tensor::Tensor;

    fn stored(n: usize, precision: Precision) -> QuantTensor {
        let t = Tensor::from_vec((0..n).map(|i| (i as f32 * 0.21).sin()).collect(), &[n]);
        QuantTensor::quantize(&t, precision)
    }

    #[test]
    fn apply_then_revert_is_the_identity() {
        for precision in Precision::all() {
            let clean = stored(257, precision);
            let mask_limit = if precision.bits() == 32 {
                u32::MAX
            } else {
                (1u32 << precision.bits()) - 1
            };
            let deltas: Vec<(u32, u32)> = (0..257u32)
                .step_by(7)
                .map(|w| (w, (w.wrapping_mul(2654435761) & mask_limit).max(1)))
                .collect();
            let overlay = CorruptionOverlay::new(257, precision.bits(), deltas, 10, 2);
            let mut t = clean.clone();
            overlay.apply(&mut t);
            assert_ne!(t, clean, "{precision}: overlay must change the image");
            overlay.revert(&mut t);
            assert_eq!(t, clean, "{precision}: apply∘revert must be identity");
        }
    }

    #[test]
    fn from_diff_reconstructs_the_corruption() {
        let clean = stored(500, Precision::Int8);
        let mut corrupted = clean.clone();
        corrupted.flip_bit(3, 1);
        corrupted.flip_bit(3, 6);
        corrupted.flip_bit(499, 0);
        let overlay = CorruptionOverlay::from_diff(&clean, &corrupted);
        assert_eq!(overlay.len(), 2);
        assert_eq!(overlay.bit_flips(), 3);
        let mut patched = clean.clone();
        overlay.apply(&mut patched);
        assert_eq!(patched, corrupted);
    }

    #[test]
    fn zero_masks_are_dropped_but_counters_kept() {
        let overlay = CorruptionOverlay::new(8, 8, vec![(1, 0), (2, 0b11), (5, 0)], 2, 3);
        assert_eq!(overlay.deltas(), &[(2, 0b11)]);
        assert_eq!(overlay.bit_flips(), 2);
        assert_eq!(overlay.corrections(), 3);
    }

    #[test]
    fn merge_xors_shared_words_and_sums_counters() {
        let mut a = CorruptionOverlay::new(16, 8, vec![(1, 0b01), (4, 0b10)], 2, 0);
        let b = CorruptionOverlay::new(16, 8, vec![(2, 0b100), (4, 0b10)], 2, 1);
        a.merge(&b);
        // Word 4 cancels (same mask twice), words 1 and 2 survive.
        assert_eq!(a.deltas(), &[(1, 0b01), (2, 0b100)]);
        assert_eq!(a.bit_flips(), 4);
        assert_eq!(a.corrections(), 1);
        // Merging two independent overlays applies like applying both.
        let clean = stored(16, Precision::Int8);
        let x = CorruptionOverlay::new(16, 8, vec![(0, 0b1)], 1, 0);
        let y = CorruptionOverlay::new(16, 8, vec![(7, 0b1000)], 1, 0);
        let mut seq = clean.clone();
        x.apply(&mut seq);
        y.apply(&mut seq);
        let mut both = x.clone();
        both.merge(&y);
        let mut merged = clean.clone();
        both.apply(&mut merged);
        assert_eq!(seq, merged);
    }

    #[test]
    fn lifted_offsets_word_indices_into_the_larger_image() {
        let o = CorruptionOverlay::new(4, 8, vec![(0, 1), (3, 2)], 2, 1);
        let l = o.lifted(5, 16);
        assert_eq!(l.values(), 16);
        assert_eq!(l.deltas(), &[(5, 1), (8, 2)]);
        assert_eq!(l.bit_flips(), 2);
        assert_eq!(l.corrections(), 1);
        // Lifting a slice's diff equals diffing the slice in place.
        let clean = stored(32, Precision::Int8);
        let slice = clean.slice_values(10..20);
        let mut corrupted_slice = slice.clone();
        corrupted_slice.flip_bit(2, 3);
        corrupted_slice.flip_bit(9, 0);
        let lifted = CorruptionOverlay::from_diff(&slice, &corrupted_slice).lifted(10, 32);
        let mut patched = clean.clone();
        lifted.apply(&mut patched);
        assert_eq!(patched.stored_bits(12), clean.stored_bits(12) ^ 0b1000);
        assert_eq!(patched.stored_bits(19), clean.stored_bits(19) ^ 1);
    }

    #[test]
    #[should_panic]
    fn lifted_rejects_spans_that_do_not_fit() {
        let _ = CorruptionOverlay::empty(8, 8).lifted(9, 16);
    }

    #[test]
    fn empty_overlay_touches_nothing() {
        let clean = stored(64, Precision::Int4);
        let overlay = CorruptionOverlay::empty(64, 4);
        assert!(overlay.is_empty());
        let mut t = clean.clone();
        overlay.apply(&mut t);
        assert_eq!(t, clean);
    }

    #[test]
    fn is_clean_requires_empty_deltas_and_zero_counters() {
        assert!(CorruptionOverlay::empty(8, 8).is_clean());
        // A correction that restored the clean bits: empty deltas, but the
        // load still perturbed the stats — not clean.
        let corrected = CorruptionOverlay::new(8, 8, vec![(1, 0)], 0, 1);
        assert!(corrected.is_empty() && !corrected.is_clean());
        let flipped = CorruptionOverlay::new(8, 8, vec![(2, 0b1)], 1, 0);
        assert!(!flipped.is_clean());
    }
}
