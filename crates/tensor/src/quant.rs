//! Symmetric linear quantization with bit-exact stored representations.
//!
//! The paper quantizes every DNN to int4, int8, int16 and FP32 using the
//! "popular symmetric linear DNN quantization scheme" (Section 6.1). For EDEN
//! the essential property is that the *stored bits* of each value are the ones
//! a DRAM device would corrupt, so [`QuantTensor`] keeps the exact storage
//! pattern of every element and exposes bit-flip operations over it.

use crate::bits;
use crate::simd;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Numeric precision of a stored tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 4-bit signed integer.
    Int4,
    /// 8-bit signed integer.
    Int8,
    /// 16-bit signed integer.
    Int16,
    /// IEEE-754 single-precision floating point.
    Fp32,
}

impl Precision {
    /// Number of stored bits per value.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Int4 => 4,
            Precision::Int8 => 8,
            Precision::Int16 => 16,
            Precision::Fp32 => 32,
        }
    }

    /// Whether this is an integer (quantized) precision.
    pub fn is_integer(self) -> bool {
        !matches!(self, Precision::Fp32)
    }

    /// Largest representable quantized magnitude (`2^(b-1) - 1`) for integer
    /// precisions; `None` for FP32.
    pub fn q_max(self) -> Option<i32> {
        match self {
            Precision::Fp32 => None,
            p => Some((1i32 << (p.bits() - 1)) - 1),
        }
    }

    /// Smallest representable quantized value (`-2^(b-1)`) for integer
    /// precisions; `None` for FP32.
    pub fn q_min(self) -> Option<i32> {
        match self {
            Precision::Fp32 => None,
            p => Some(-(1i32 << (p.bits() - 1))),
        }
    }

    /// All precisions evaluated in the paper, smallest first.
    pub fn all() -> [Precision; 4] {
        [
            Precision::Int4,
            Precision::Int8,
            Precision::Int16,
            Precision::Fp32,
        ]
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Precision::Int4 => "int4",
            Precision::Int8 => "int8",
            Precision::Int16 => "int16",
            Precision::Fp32 => "FP32",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "int4" => Ok(Precision::Int4),
            "int8" => Ok(Precision::Int8),
            "int16" => Ok(Precision::Int16),
            "fp32" | "f32" | "float32" => Ok(Precision::Fp32),
            other => Err(format!(
                "unknown precision {other:?} (expected \"int4\", \"int8\", \"int16\" or \"fp32\")"
            )),
        }
    }
}

/// A tensor stored in its exact in-memory bit representation.
///
/// For integer precisions each element holds the two's complement pattern in
/// the low `bits()` bits; for FP32 it holds the IEEE-754 bit pattern. The
/// associated `scale` converts quantized integers back to real values
/// (`value = q * scale`); it is `1.0` for FP32.
///
/// # Example
///
/// ```
/// use eden_tensor::{Tensor, quant::{Precision, QuantTensor}};
/// let t = Tensor::from_vec(vec![1.0, -2.0, 0.5, 0.0], &[4]);
/// let mut q = QuantTensor::quantize(&t, Precision::Int8);
/// q.flip_bit(0, 7); // corrupt the MSB of the first value
/// let corrupted = q.dequantize();
/// assert!(corrupted.data()[0] < 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantTensor {
    shape: Vec<usize>,
    precision: Precision,
    scale: f32,
    stored: Vec<u32>,
}

/// The stored FP32 word of `v`: its bits, except that every NaN is stored
/// as the canonical quiet NaN. The sign and payload of a NaN that arithmetic
/// produces are unspecified — IEEE 754 leaves NaN propagation to the
/// implementation, and the compiler may commute the operands of an f32 add —
/// so the same layer computed by a scalar loop, a SIMD lane or a wider GEMM
/// can yield different NaN bits. Storing them verbatim would let the bits
/// that DRAM faults later flip (and hence the evaluation results) depend on
/// the kernel that ran.
fn fp32_word(v: f32) -> u32 {
    if v.is_nan() {
        0x7fc0_0000
    } else {
        v.to_bits()
    }
}

impl QuantTensor {
    /// Quantizes an `f32` tensor into the given precision using symmetric
    /// linear quantization (`scale = abs_max / q_max`); FP32 stores each
    /// value's bits (every NaN as the canonical quiet NaN).
    ///
    /// Integer values are produced by clamp-then-round: clamping before the
    /// round is equivalent to the classic round-then-clamp (both saturate
    /// past the representable range, and values within half a step of the
    /// boundary round onto it either way) and keeps the truncation inside
    /// the round-half-away's exact `|x| < 2²³` regime even for degenerate
    /// scales.
    pub fn quantize(t: &Tensor, precision: Precision) -> Self {
        let mut out = Self {
            shape: Vec::new(),
            precision,
            scale: 1.0,
            stored: Vec::new(),
        };
        out.requantize_from(t, precision);
        out
    }

    /// Re-quantizes `t` into this tensor in place, reusing the stored-bits
    /// buffer — the allocation-free form of [`QuantTensor::quantize`] used by
    /// the native executor at every layer boundary. Produces exactly the
    /// state `QuantTensor::quantize(t, precision)` would.
    ///
    /// Integer precisions run the dispatched `quantize_f32` kernel
    /// ([`crate::simd::Kernels`]): divide by the scale, clamp, round half
    /// away from zero and mask, one element per lane. The kernel is purely
    /// element-wise (no reduction), so every ISA stores the scalar table's
    /// words exactly; only the scale's `abs_max` scan runs outside it.
    pub fn requantize_from(&mut self, t: &Tensor, precision: Precision) {
        self.shape.clear();
        self.shape.extend_from_slice(t.shape());
        self.precision = precision;
        self.stored.clear();
        match precision {
            Precision::Fp32 => {
                self.scale = 1.0;
                self.stored.extend(t.data().iter().map(|&v| fp32_word(v)));
            }
            p => {
                let q_max = p.q_max().expect("integer precision");
                let q_min = p.q_min().expect("integer precision");
                let abs_max = t.abs_max();
                let scale = if abs_max == 0.0 {
                    1.0
                } else {
                    abs_max / q_max as f32
                };
                self.scale = scale;
                let mask = if p.bits() == 32 {
                    u32::MAX
                } else {
                    (1u32 << p.bits()) - 1
                };
                self.stored.resize(t.len(), 0);
                (simd::kernels().quantize_f32)(
                    t.data(),
                    scale,
                    q_min as f32,
                    q_max as f32,
                    mask,
                    &mut self.stored,
                );
            }
        }
    }

    /// Reconstructs the `f32` tensor from the stored representation.
    pub fn dequantize(&self) -> Tensor {
        let mut data = vec![0.0f32; self.stored.len()];
        self.dequantize_into(&mut data);
        Tensor::from_vec(data, &self.shape)
    }

    /// Writes the dequantized values into an existing slice without
    /// allocating — the weight-refetch hot path dequantizes corrupted bit
    /// images directly into a network's parameter tensors.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the element count.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.stored.len(), "dequantize_into length");
        match self.precision {
            Precision::Fp32 => {
                for (o, &s) in out.iter_mut().zip(&self.stored) {
                    *o = f32::from_bits(s);
                }
            }
            p => {
                let bits = p.bits();
                for (o, &s) in out.iter_mut().zip(&self.stored) {
                    *o = bits::sign_extend(s, bits) as f32 * self.scale;
                }
            }
        }
    }

    /// The sign-extended quantized integer of element `i`.
    ///
    /// # Panics
    ///
    /// Panics for FP32 tensors, which have no quantized integer
    /// representation.
    pub fn q_value(&self, i: usize) -> i32 {
        assert!(
            self.precision.is_integer(),
            "q_value is only defined for integer precisions"
        );
        bits::sign_extend(self.stored[i], self.precision.bits())
    }

    /// The dequantized value of element `i`.
    pub fn value(&self, i: usize) -> f32 {
        self.word_value(self.stored[i])
    }

    /// The value a raw stored word would dequantize to under this tensor's
    /// precision and scale — [`QuantTensor::value`] on a word that need not
    /// be resident in the tensor. Sparse corruption overlays use this to
    /// evaluate a flipped word without materializing the corrupted tensor.
    pub fn word_value(&self, word: u32) -> f32 {
        match self.precision {
            Precision::Fp32 => f32::from_bits(word),
            p => bits::sign_extend(word, p.bits()) as f32 * self.scale,
        }
    }

    /// The sign-extended quantized integer of a raw stored word
    /// ([`QuantTensor::q_value`] on a non-resident word).
    ///
    /// # Panics
    ///
    /// Panics for FP32 tensors.
    pub fn word_q_value(&self, word: u32) -> i32 {
        assert!(
            self.precision.is_integer(),
            "word_q_value is only defined for integer precisions"
        );
        bits::sign_extend(word, self.precision.bits())
    }

    /// Overwrites element `i` with a real value, re-quantizing it.
    pub fn set_value(&mut self, i: usize, v: f32) {
        self.stored[i] = self.word_from_value(v);
    }

    /// The stored word [`QuantTensor::set_value`] would write for `v` —
    /// re-quantization of one value without touching the tensor.
    pub fn word_from_value(&self, v: f32) -> u32 {
        match self.precision {
            Precision::Fp32 => fp32_word(v),
            p => {
                let q_max = p.q_max().expect("integer") as f32;
                let q_min = p.q_min().expect("integer") as f32;
                let q = (v / self.scale).round().clamp(q_min, q_max) as i32;
                let mask = (1u32 << p.bits()) - 1;
                (q as u32) & mask
            }
        }
    }

    /// A copy of the stored words in `range` as a standalone 1-D tensor
    /// sharing this tensor's precision and scale — the per-span view that
    /// multi-module placement corrupts independently. Word `i` of the slice
    /// is word `range.start + i` of the parent, so overlays produced against
    /// the slice lift back into the parent by offsetting word indices.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_values(&self, range: std::ops::Range<usize>) -> QuantTensor {
        QuantTensor {
            shape: vec![range.len()],
            precision: self.precision,
            scale: self.scale,
            stored: self.stored[range].to_vec(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The numeric precision of the stored values.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The dequantization scale (`1.0` for FP32).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Raw stored bit pattern of element `i` (low `bits()` bits significant).
    pub fn stored_bits(&self, i: usize) -> u32 {
        self.stored[i]
    }

    /// Raw stored patterns for all elements.
    pub fn stored(&self) -> &[u32] {
        &self.stored
    }

    /// Mutable raw stored patterns for all elements. Only the low `bits()`
    /// bits of each word are significant; writers must keep the rest zero
    /// (as [`QuantTensor::flip_bit`] does by construction).
    ///
    /// This exists so fault injectors can split a tensor into disjoint chunks
    /// and corrupt them in parallel.
    pub fn stored_mut(&mut self) -> &mut [u32] {
        &mut self.stored
    }

    /// Bits per stored value.
    pub fn bits_per_value(&self) -> u32 {
        self.precision.bits()
    }

    /// Total number of stored bits in the tensor.
    pub fn total_bits(&self) -> u64 {
        self.len() as u64 * self.bits_per_value() as u64
    }

    /// Total number of stored bytes, rounded **up** to whole bytes: an int4
    /// tensor with an odd element count occupies a final half-filled byte
    /// that DRAM capacity accounting must still reserve.
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }

    /// Flips bit `bit` (0 = LSB) of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `bit` is out of range.
    pub fn flip_bit(&mut self, i: usize, bit: u32) {
        assert!(bit < self.bits_per_value(), "bit index out of range");
        self.stored[i] ^= 1 << bit;
    }

    /// Reads bit `bit` of element `i`.
    pub fn get_bit(&self, i: usize, bit: u32) -> bool {
        bits::get_bit(self.stored[i], bit)
    }

    /// Sets bit `bit` of element `i` to `value`.
    pub fn set_bit(&mut self, i: usize, bit: u32, value: bool) {
        assert!(bit < self.bits_per_value(), "bit index out of range");
        if value {
            self.stored[i] |= 1 << bit;
        } else {
            self.stored[i] &= !(1 << bit);
        }
    }

    /// Number of bit positions that differ from another tensor with the same
    /// shape and precision. Used to measure observed bit error rates.
    ///
    /// # Panics
    ///
    /// Panics if shapes or precisions differ.
    pub fn bit_differences(&self, other: &QuantTensor) -> u64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        assert_eq!(self.precision, other.precision, "precision mismatch");
        let w = self.bits_per_value();
        self.stored
            .iter()
            .zip(&other.stored)
            .map(|(&a, &b)| bits::hamming_distance(a, b, w) as u64)
            .sum()
    }

    /// Root-mean-square quantization error against a reference tensor.
    pub fn rms_error(&self, reference: &Tensor) -> f32 {
        let deq = self.dequantize();
        let diff = deq.sub(reference);
        (diff.sq_norm() / diff.len() as f32).sqrt()
    }
}

impl fmt::Display for QuantTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QuantTensor({} values, {}, scale {:.6})",
            self.len(),
            self.precision,
            self.scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::round_half_away;

    #[test]
    fn fp32_round_trips_exactly() {
        let t = Tensor::from_vec(vec![0.1, -2.7, 1e-8, 3.5e7], &[4]);
        let q = QuantTensor::quantize(&t, Precision::Fp32);
        assert_eq!(q.dequantize(), t);
        assert_eq!(q.total_bytes(), 16);
    }

    #[test]
    fn fp32_stores_every_nan_as_the_canonical_quiet_nan() {
        let nans = [
            f32::from_bits(0x7fc0_1021),
            f32::from_bits(0xffc0_4000),
            f32::from_bits(0x7f80_0001),
        ];
        let t = Tensor::from_vec(vec![nans[0], 1.5, nans[1], f32::INFINITY, nans[2]], &[5]);
        let q = QuantTensor::quantize(&t, Precision::Fp32);
        assert_eq!(
            q.stored(),
            &[
                0x7fc0_0000,
                1.5f32.to_bits(),
                0x7fc0_0000,
                f32::INFINITY.to_bits(),
                0x7fc0_0000
            ]
        );
        assert_eq!(q.word_from_value(nans[1]), 0x7fc0_0000);
    }

    #[test]
    fn int8_quantization_error_is_bounded() {
        let t = Tensor::from_vec((-50..50).map(|x| x as f32 / 10.0).collect(), &[100]);
        let q = QuantTensor::quantize(&t, Precision::Int8);
        // Max error is half of one quantization step.
        let step = q.scale();
        for (orig, deq) in t.data().iter().zip(q.dequantize().data()) {
            assert!((orig - deq).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn int4_is_coarser_than_int16() {
        let t = Tensor::from_vec((0..64).map(|x| (x as f32 * 0.13).sin()).collect(), &[64]);
        let e4 = QuantTensor::quantize(&t, Precision::Int4).rms_error(&t);
        let e16 = QuantTensor::quantize(&t, Precision::Int16).rms_error(&t);
        assert!(e4 > e16);
    }

    #[test]
    fn zero_tensor_quantizes_safely() {
        let t = Tensor::zeros(&[8]);
        let q = QuantTensor::quantize(&t, Precision::Int8);
        assert_eq!(q.dequantize(), t);
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn flip_bit_changes_and_restores_value() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        for p in Precision::all() {
            let mut q = QuantTensor::quantize(&t, p);
            let before = q.value(1);
            q.flip_bit(1, 0);
            q.flip_bit(1, 0);
            assert_eq!(q.value(1), before, "double flip must restore ({p})");
        }
    }

    #[test]
    fn msb_flip_on_int8_changes_sign_region() {
        let t = Tensor::from_vec(vec![1.0, 0.5, -0.25, 0.0], &[4]);
        let mut q = QuantTensor::quantize(&t, Precision::Int8);
        let before = q.value(0);
        q.flip_bit(0, 7);
        assert!(
            q.value(0) < before,
            "MSB flip of a positive value goes negative"
        );
    }

    #[test]
    fn exponent_flip_on_fp32_creates_implausible_value() {
        let t = Tensor::from_vec(vec![0.75], &[1]);
        let mut q = QuantTensor::quantize(&t, Precision::Fp32);
        q.flip_bit(0, 30);
        assert!(q.value(0).abs() > 1e30);
    }

    #[test]
    fn bit_differences_counts_flips() {
        let t = Tensor::from_vec(vec![1.0; 16], &[16]);
        let a = QuantTensor::quantize(&t, Precision::Int8);
        let mut b = a.clone();
        b.flip_bit(0, 1);
        b.flip_bit(5, 7);
        b.flip_bit(5, 3);
        assert_eq!(a.bit_differences(&b), 3);
    }

    #[test]
    fn total_bits_accounts_for_precision() {
        let t = Tensor::zeros(&[10]);
        assert_eq!(QuantTensor::quantize(&t, Precision::Int4).total_bits(), 40);
        assert_eq!(QuantTensor::quantize(&t, Precision::Fp32).total_bits(), 320);
    }

    #[test]
    fn branchless_rounding_matches_f32_round_reference() {
        // The vectorizable quantize loop must be bit-identical to the
        // original `(v/scale).round().clamp(..) as i32` formulation,
        // including exact half-way points and boundary values.
        let mut values = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999997,
            -0.49999997,
            127.5,
            -127.5,
            126.5,
            -128.5,
            32767.5,
            -32768.5,
            1e-30,
            -1e-30,
        ];
        for i in 0..10_000 {
            let v = ((i as f32 * 0.7312) - 3650.0) * 1.37e-2;
            values.push(v);
            values.push(v + 0.5);
        }
        for p in [Precision::Int4, Precision::Int8, Precision::Int16] {
            let q_max = p.q_max().unwrap() as f32;
            let q_min = p.q_min().unwrap() as f32;
            for &x in &values {
                let reference = x.round().clamp(q_min, q_max) as i32;
                let fast = round_half_away(x.clamp(q_min, q_max));
                assert_eq!(fast, reference, "{p} at x={x}");
            }
        }
    }

    #[test]
    fn total_bytes_rounds_up_for_odd_int4_lengths() {
        // 3 int4 values = 12 bits: the trailing nibble still occupies a byte.
        let t = Tensor::zeros(&[3]);
        assert_eq!(QuantTensor::quantize(&t, Precision::Int4).total_bytes(), 2);
        // 5 int4 values = 20 bits -> 3 bytes; even counts stay exact.
        let t5 = Tensor::zeros(&[5]);
        assert_eq!(QuantTensor::quantize(&t5, Precision::Int4).total_bytes(), 3);
        let t4 = Tensor::zeros(&[4]);
        assert_eq!(QuantTensor::quantize(&t4, Precision::Int4).total_bytes(), 2);
    }

    #[test]
    fn q_values_match_dequantized_values() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 0.5, 0.0, 3.25], &[5]);
        for p in [Precision::Int4, Precision::Int8, Precision::Int16] {
            let q = QuantTensor::quantize(&t, p);
            for i in 0..q.len() {
                let qi = q.q_value(i);
                assert_eq!(qi, q.word_q_value(q.stored_bits(i)));
                assert_eq!(qi as f32 * q.scale(), q.value(i), "{p} element {i}");
            }
        }
    }

    #[test]
    fn dequantize_into_matches_dequantize() {
        let t = Tensor::from_vec(vec![0.1, -2.7, 1e-3, 3.5], &[4]);
        for p in Precision::all() {
            let q = QuantTensor::quantize(&t, p);
            let mut out = vec![0.0f32; 4];
            q.dequantize_into(&mut out);
            assert_eq!(out, q.dequantize().data(), "{p}");
        }
    }

    #[test]
    fn set_value_requantizes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 4.0], &[3]);
        let mut q = QuantTensor::quantize(&t, Precision::Int8);
        q.set_value(0, 0.0);
        assert_eq!(q.value(0), 0.0);
    }

    #[test]
    fn set_and_get_bit_round_trip() {
        let t = Tensor::from_vec(vec![0.0; 4], &[4]);
        let mut q = QuantTensor::quantize(&t, Precision::Int16);
        q.set_bit(2, 5, true);
        assert!(q.get_bit(2, 5));
        q.set_bit(2, 5, false);
        assert!(!q.get_bit(2, 5));
    }
}
