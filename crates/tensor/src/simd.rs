//! Runtime-dispatched SIMD kernels for the integer and f32 inner loops.
//!
//! The hot loops of [`crate::ops`] and [`crate::quant`] are resolved
//! **once** at first use into a table of function pointers ([`Kernels`])
//! chosen by runtime CPU feature detection
//! (`std::arch::is_x86_feature_detected!`), walking down
//! [`Isa::Avx512`] → [`Isa::Avx2`] → [`Isa::Sse2`] → [`Isa::Scalar`]. The
//! table holds:
//!
//! * `gemm2_i8` and `gemm2_i16`: the two-row panel kernels behind
//!   [`crate::ops::gemm_i8_packed`] and [`crate::ops::gemm_i16_packed`]
//!   (an odd last row of either GEMM runs as a pair with itself);
//! * `axpy_f32`: the f32 row update `out += a·b` behind
//!   [`crate::Tensor::axpy`];
//! * `gemm_f32`: the register-tiled f32 GEMM behind [`crate::ops::gemm`];
//! * `gemm_f32_lhs_t`: the same GEMM reading its lhs through the transpose
//!   of a row-major matrix, the input-gradient GEMM `weightᵀ · d_out` of
//!   [`crate::ops::conv2d_backward`] without a `weightᵀ` copy;
//! * `conv_f32`: the implicit-GEMM f32 convolution behind
//!   [`crate::ops::conv2d`], the same tiled GEMM with its rhs panels
//!   gathered straight from a zero-padded image;
//! * `quantize_f32`: the layer-boundary quantizer behind
//!   [`crate::quant::QuantTensor::requantize_from`];
//! * `abs_max`: the integer max over absolute-value bit patterns behind
//!   [`crate::Tensor::abs_max`], the scale scan of that requantize;
//! * `maxpool_f32` and `maxpool_quant`: 2-D max pooling for inference, on
//!   f32 values (the simulated backend's and FP32's pool layer) and on
//!   stored integer words (the native backend's).
//!
//! # One body per algorithm
//!
//! The SIMD tiers differ only in which intrinsics they call, so each
//! algorithm is written once, generic over a small lane trait that every
//! tier implements for its vector type: `F32Lanes` (f32 lanes) carries the
//! tiled f32 GEMM and `axpy_f32`. The tiled GEMM's one strip/tile driver is
//! also generic over where its rhs column panels come from (`RhsColumns`):
//! a dense row-major matrix (`gemm_f32`) or the implicit patch matrix of a
//! padded image (`conv_f32`); and over how its lhs entries are laid out
//! (`LhsLayout`): row-major, or the transpose of a row-major matrix read
//! in place (`gemm_f32_lhs_t`). `I16Lanes` (16-bit integer lanes, i32
//! after a multiply–add) carries the i8 widening panel body and the i16
//! split-digit panel body. One column-pair driver runs a panel body over
//! every column pair of a transposed rhs, and at one column for an odd last
//! column. The AVX512-VNNI i8 body is a different algorithm and keeps its
//! own code, run by the same driver; the quantizer stays per tier.
//! `U32Lanes` (32-bit lanes of raw words, compared as `i32` or as `f32`)
//! carries the per-element scans: the `abs_max` fold, and one max-pooling
//! body whose two forms (`PoolForm`) differ only in how a word is read,
//! compared and written.
//!
//! The lane traits' safety contract: every method is `#[inline(always)]`
//! with no target feature of its own, and may only run inlined into a tier
//! entry point whose `#[target_feature]` set covers the intrinsics it calls
//! (the AVX-512 entry points also enable `avx2`, whose 256-bit horizontal
//! adds the AVX-512 reduction reuses). Entry points are only installed in a
//! table after runtime detection of those features. A load reads exactly
//! `W` lanes at the pointer it is given; a panel body loads only whole
//! vectors inside the first `k − k mod STEP` lanes of each operand row, and
//! the driver sums the remaining lanes in scalar code.
//!
//! # Parity guarantee
//!
//! The scalar kernels are the source of truth; every wider path is required
//! to be **bit-for-bit identical** to them:
//!
//! * Integer kernels: integer addition is associative, so any lane order
//!   reproduces the scalar sum exactly (given the i8 callers' no-overflow
//!   contract, see [`crate::ops::gemm_i8_packed`]; the i16 kernels need no
//!   contract, see below).
//! * f32 kernels: only *element-wise independent* operations are vectorized
//!   (`out[j] += a * b[j]`, separate multiply and add, **never** FMA), so
//!   each output element's accumulation chain is untouched — reductions over
//!   f32 stay scalar. The tiled GEMM keeps an `MR × NR` block of outputs in
//!   registers and walks `k` in ascending order, so each element still sees
//!   exactly the scalar loop's chain `out += a[p]·b[p]`, `p` ascending; a
//!   term whose lhs entry is exactly `0.0` is skipped per row by a masked
//!   add (not added as `±0`, which would turn a `-0.0` seed into `+0.0`, and
//!   not multiplied, which would turn `0·Inf` into NaN); an lhs with no
//!   exact zero, as layer weights are, takes the unmasked tile. The last
//!   `n mod W` columns of a rhs at least one vector wide are one more
//!   single-vector strip: packed zero-padded into the panel and run by the
//!   same tile on a stack copy of the output rows, of which only the valid
//!   columns are copied back. Each valid lane is still the scalar chain,
//!   and a padding lane (where `NaN·0` may appear) never reaches the
//!   output. Only a dense rhs narrower than one vector, under a row-major
//!   lhs, runs as scalar chains. The lhs layout only moves where a tile
//!   reads `a[i][p]` from, so `gemm_f32_lhs_t` is `gemm_f32` over the
//!   transpose, bit for bit. The convolution's rhs panels hold exactly the
//!   values the im2col matrix would (the image's padding is `+0.0`, as
//!   im2col writes it), so `conv_f32` is `gemm_f32` over that matrix, bit
//!   for bit, and its scalar oracle is the plain loop nest in ascending tap
//!   order.
//! * The quantizer is purely element-wise with no reduction: an IEEE
//!   division, a clamp whose min/max operand order passes NaN through as
//!   the scalar `f32::clamp` does, NaN lanes forced to `0` before a
//!   truncating conversion (the scalar `as i32`), and the exact `±0.5`
//!   compare fix-up of the scalar round-half-away. Every step is exactly
//!   rounded or exact, so each lane is the scalar result.
//! * The scans compare and never accumulate. `abs_max` is an integer max,
//!   associative like the integer sums. Max pooling vectorizes across
//!   outputs, never within a window: each lane folds its own window in the
//!   scalar order, by an `i32` max on sign-extended words or by `maxps x,
//!   m`, which is exactly the scalar `if x > m { x } else { m }` (first
//!   maximum wins, so a `±0.0` tie keeps its first zero; NaN never wins).
//!   The quantized form then converts and scales each maximum once, the
//!   scalar's `q as f32 * scale`.
//!
//! The int8 panel bodies deliberately avoid the classic `pmaddubsw`
//! sign-trick (`maddubs(|a|, sign(b, a))`): corrupted int8 storage spans the
//! full `[-128, 127]` domain and `psignb` wraps `-(-128)` back to `-128`,
//! which would mis-compute `(-128)·(-128)`. Instead the i8 paths use
//! sign-extending widening loads (`vpmovsxbw`) followed by the `pmaddwd`
//! i16 multiply–add — exact over the full domain while keeping operands in
//! one byte each.
//!
//! # Exact i16 products with `pmaddwd`
//!
//! The i16 panel kernels (int16 operands, and int4/int8 reductions too deep
//! for an i32 accumulator) feed full-range i16 lanes straight into
//! `pmaddwd`, which sums two i16×i16 products into one i32 lane. Every
//! product fits i32, and so does every pair sum `r` but one:
//! `(−32768)² + (−32768)² = 2³¹` wraps to `i32::MIN`. So the true pair sums
//! lie in `[−2³¹ + 2¹⁶, 2³¹]`, a range 2³² − 2¹⁶ wide, and the kernels shift
//! it onto the unsigned 32-bit range: `v = r + (2³¹ − 2¹⁶)` computed with
//! wrapping i32 addition is the true `r + 2³¹ − 2¹⁶ ∈ [0, 2³² − 2¹⁶]`
//! exactly — the wrapped sum included, because wrapping addition is exact
//! modulo 2³² and the true value fits `u32`. The two 16-bit digits of `v`
//! (`v >> 16` logical, `v & 0xffff`) are each at most 65535, so they
//! accumulate in separate i32 lanes; every [`GEMM_I16_FLUSH_K`] lanes of
//! depth the kernel flushes the digit sums into i64 as
//! `Σr = 2¹⁶·Σhi + Σlo − pairs·(2³¹ − 2¹⁶)`. A flush block holds 2048 pair
//! sums per output, so a digit sum stays below 2²⁷ at any lane split and no
//! i32 lane can overflow at any depth. Results are the exact i64 dot
//! products, equal to the scalar table's plain i64 loop.
//!
//! # Override
//!
//! Set `EDEN_ISA=scalar|sse2|avx2|avx512` to force a level, primarily for
//! the CI parity matrix. Requesting a level the CPU does not support (or a
//! typo) **panics** — a silent fallback would let CI believe it tested a
//! path it never ran.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m128i, _mm_loadu_ps, _mm_storeu_ps};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// Instruction-set level of a kernel table, ordered from narrowest to
/// widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Plain Rust loops — the bit-for-bit reference implementation.
    Scalar,
    /// 128-bit `pmaddwd` kernels (x86-64 baseline).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
    /// 512-bit kernels; requires both `avx512f` and `avx512bw` (the latter
    /// for the 512-bit `vpmaddwd`/`vpmovsxbw` forms).
    Avx512,
}

impl Isa {
    /// Every level, narrowest first.
    pub fn all() -> [Isa; 4] {
        [Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Avx512]
    }

    /// The widest level this CPU supports, by runtime feature detection.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                Isa::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                Isa::Avx2
            } else {
                // SSE2 is part of the x86-64 baseline.
                Isa::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::Scalar
        }
    }

    /// Whether this CPU can run kernels of this level.
    pub fn is_supported(self) -> bool {
        self <= Isa::detect()
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        })
    }
}

impl FromStr for Isa {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(Isa::Scalar),
            "sse2" => Ok(Isa::Sse2),
            "avx2" => Ok(Isa::Avx2),
            "avx512" => Ok(Isa::Avx512),
            other => Err(format!(
                "unknown ISA {other:?} (expected scalar, sse2, avx2 or avx512)"
            )),
        }
    }
}

/// A two-row panel kernel over lanes `T` with accumulators `A`:
/// `out0[j] += a0 · bt[j·k..][..k]` and `out1[j] += a1 · bt[j·k..][..k]`
/// for every column `j` of a transposed, contiguously packed rhs panel. One
/// call covers a whole row pair of a GEMM, so there is no per-tile
/// dispatch; callers that additionally pad `k` to the panel stride
/// ([`crate::ops::packed_stride_i8`], [`crate::ops::packed_stride_i16`])
/// never touch the scalar tail. Arguments: `(a0, a1, bt, k, out0, out1)`.
pub type GemmPanelFn<T, A> = fn(&[T], &[T], &[T], usize, &mut [A], &mut [A]);

/// A whole f32 GEMM `out (m×n) += a (m×k) · b (k×n)`, all row-major: each
/// output element accumulates `a[i][p] · b[p][j]` in ascending `p` with a
/// separate multiply and add, skipping every term whose lhs entry is
/// exactly `0.0`. Arguments: `(m, k, n, a, b, out)`; panics if a slice is
/// shorter than its geometry.
pub type GemmF32Fn = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// The geometry of an f32 convolution over an image whose zero padding is
/// already in place: `in_c` channel planes of `hp × wp` pixels, convolved
/// with `out_c` square `kernel × kernel` filters at `stride`. The argument
/// of [`ConvF32Fn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddedConv {
    /// Input channels.
    pub in_c: usize,
    /// Output channels (filters).
    pub out_c: usize,
    /// Padded image height.
    pub hp: usize,
    /// Padded image width.
    pub wp: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
}

impl PaddedConv {
    /// Output height and width `(oh, ow)`.
    pub fn out_size(&self) -> (usize, usize) {
        let out = |len: usize| (len - self.kernel) / self.stride + 1;
        (out(self.hp), out(self.wp))
    }

    /// Taps per output, `in_c·kernel²`: the depth of the GEMM.
    pub fn depth(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Panics unless the geometry is well formed and the slices hold an
    /// `out_c × depth` weight, the `in_c × hp × wp` image and the
    /// `out_c × oh·ow` output — the bounds every [`ConvF32Fn`] relies on.
    fn check(&self, weight: &[f32], image: &[f32], out: &[f32]) {
        assert!(
            self.kernel > 0 && self.stride > 0 && self.hp >= self.kernel && self.wp >= self.kernel,
            "conv: bad geometry {self:?}"
        );
        let (oh, ow) = self.out_size();
        let (filters, pixels) = (self.out_c * self.depth(), self.in_c * self.hp * self.wp);
        assert!(weight.len() >= filters, "conv: weight slice too short");
        assert!(image.len() >= pixels, "conv: image slice too short");
        assert!(
            out.len() >= self.out_c * oh * ow,
            "conv: out slice too short"
        );
    }
}

/// A whole f32 convolution as an implicit GEMM: `out (out_c × oh·ow) +=
/// weight (out_c × in_c·k²) · patches`, where entry `((ic·k + ky)·k + kx,
/// oy·ow + ox)` of the patch matrix is pixel `(oy·stride + ky, ox·stride +
/// kx)` of channel `ic` of the padded image. Each output accumulates its
/// taps in ascending `(ic, ky, kx)` order with a separate multiply and add,
/// skipping every exact-zero weight: the [`GemmF32Fn`] chain over the
/// im2col matrix, which is never written. Arguments: `(geometry, weight,
/// image, out)`; panics if a slice is shorter than its geometry.
pub type ConvF32Fn = fn(&PaddedConv, &[f32], &[f32], &mut [f32]);

/// The stored words of linearly quantized f32 values:
/// `out[i] = round_half_away(clamp(src[i] / scale, q_min, q_max)) as u32 &
/// mask`, with NaN (which the clamp passes through) rounding to `0`.
/// `q_min ≤ q_max` must be integers in the `i32` range, so every clamped
/// value truncates in range. Arguments: `(src, scale, q_min, q_max,
/// mask, out)` over the common length of `src` and `out`.
pub type QuantizeFn = fn(&[f32], f32, f32, f32, u32, &mut [u32]);

/// The largest absolute-value bit pattern `bits & 0x7fff_ffff` of the
/// values, or `0` for none. Every pattern is below 2³¹, so the kernels
/// compare them as `i32`. Patterns order as the absolute values do, except
/// that every NaN lies above `+Inf`'s `0x7f80_0000`.
pub type AbsMaxFn = fn(&[f32]) -> u32;

/// The geometry of a 2-D max pooling: `c` channel planes of `h × w`
/// values, pooled over square `size × size` windows at `stride`. The
/// argument of [`MaxPoolF32Fn`] and [`MaxPoolQuantFn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2d {
    /// Channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Square window size.
    pub size: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
}

impl Pool2d {
    /// Output height and width `(oh, ow)`.
    pub fn out_size(&self) -> (usize, usize) {
        let out = |len: usize| (len - self.size) / self.stride + 1;
        (out(self.h), out(self.w))
    }

    /// Panics unless the geometry is well formed and the slices hold the
    /// `c × h × w` input and the `c × oh × ow` output — the bounds every
    /// pooling kernel relies on.
    fn check(&self, input: usize, out: usize) {
        assert!(
            self.size > 0 && self.stride > 0 && self.h >= self.size && self.w >= self.size,
            "maxpool: bad geometry {self:?}"
        );
        let (oh, ow) = self.out_size();
        // Checked, so no wrapped product can pass for a short slice; the
        // output is no larger than the input.
        let words = self
            .c
            .checked_mul(self.h)
            .and_then(|n| n.checked_mul(self.w));
        assert!(
            words.is_some_and(|n| input >= n),
            "maxpool: input slice too short"
        );
        assert!(out >= self.c * oh * ow, "maxpool: out slice too short");
    }
}

/// f32 max pooling for inference: each output folds its window in
/// row-major `(ky, kx)` order by `m = if x > m { x } else { m }` from `m =
/// −Inf`. The first maximum wins (so a `±0.0` tie keeps the first zero),
/// NaN never wins, and a window of only NaN and `−Inf` gives `−Inf` — the
/// values of [`crate::ops::maxpool2d`], without its argmax. Arguments:
/// `(geometry, input, out)`.
pub type MaxPoolF32Fn = fn(&Pool2d, &[f32], &mut [f32]);

/// Max pooling over stored integer words: each output is the largest
/// window value `q` of the words sign-extended from their low `bits` bits,
/// written as `q as f32 * scale` — the dequantized maximum, since
/// dequantization is monotone. `bits` is in `1..=32`. Arguments:
/// `(geometry, words, bits, scale, out)`.
pub type MaxPoolQuantFn = fn(&Pool2d, &[u32], u32, f32, &mut [f32]);

/// Depth, in i16 lanes, of one i32 accumulation block of the i16 panel
/// kernels: after each block the split digit sums are flushed into i64
/// (see the module docs). A multiple of every tier's vector width.
pub const GEMM_I16_FLUSH_K: usize = 4096;

/// The shift that maps every true `pmaddwd` pair sum onto `[0, 2³² − 2¹⁶]`
/// (as a wrapping i32 addend: `2³¹ − 2¹⁶`).
#[cfg(target_arch = "x86_64")]
const PAIR_BIAS: i32 = 0x7fff_0000;

/// Reassembles one flushed i16 block: the true sum of `pairs` pair sums
/// whose biased digits summed to `hi` and `lo`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn unbias(hi: i32, lo: i32, pairs: usize) -> i64 {
    ((hi as i64) << 16) + lo as i64 - pairs as i64 * PAIR_BIAS as i64
}

/// Round-half-away-from-zero to an integer, bit-identical to
/// `x.round() as i32` for every finite `|x| < 2²³` (and mapping NaN to 0,
/// like a saturating cast of NaN).
///
/// `f32::round` lowers to a `roundf` libm call on baseline x86-64 (the
/// nearest-integer instructions need SSE4.1). This form uses only
/// truncation and compares, which the SIMD quantizers mirror lane for lane.
/// The fractional part `x - trunc(x)` is exact for `|x| < 2²³` (both
/// operands are multiples of `ulp(x)` and the difference is representable),
/// so the half-way comparison is exact too.
#[inline]
pub(crate) fn round_half_away(x: f32) -> i32 {
    let t = x as i32; // truncates toward zero; NaN -> 0
    let frac = x - t as f32;
    t + (frac >= 0.5) as i32 - (frac <= -0.5) as i32
}

/// The dispatch table: one function pointer per hot inner loop. All entries
/// of one table come from the same ISA level and are bit-for-bit equal to
/// the [`Isa::Scalar`] table (see the module docs for why that holds).
#[derive(Clone, Copy)]
pub struct Kernels {
    /// The level every entry was resolved at.
    pub isa: Isa,
    /// Two-row × all-columns i8 panel GEMM over a packed transposed rhs —
    /// the batched-execution workhorse: sign-extending loads and `pmaddwd`
    /// into i32 (exact for the full `[-128, 127]` corrupted domain; integer
    /// accumulation, so every blocking order reproduces the scalar sums).
    pub gemm2_i8: GemmPanelFn<i8, i32>,
    /// Two-row × all-columns i16 panel GEMM into i64 — the kernel of
    /// [`crate::ops::gemm_i16_packed`]: `pmaddwd` with split-digit i32
    /// accumulators flushed to i64, exact over the whole i16 domain
    /// including `(−32768)·(−32768)` pairs.
    pub gemm2_i16: GemmPanelFn<i16, i64>,
    /// `out[j] += a · b[j]` over f32 (separate multiply and add, never FMA —
    /// lane-exact versus the scalar loop).
    pub axpy_f32: fn(f32, &[f32], &mut [f32]),
    /// The f32 GEMM behind [`crate::ops::gemm_with`]: an `MR × NR` output
    /// tile held in registers over ascending `k`, with the per-row exact-zero
    /// lhs skip (see [`GemmF32Fn`]).
    pub gemm_f32: GemmF32Fn,
    /// `gemm_f32` with a transposed lhs read in place: its `a` is the
    /// row-major `k × m` matrix whose transpose is the lhs, and each output
    /// sees exactly `gemm_f32`'s chain over that transpose — the input
    /// gradient GEMM `weightᵀ · d_out` of [`crate::ops::conv2d_backward`].
    pub gemm_f32_lhs_t: GemmF32Fn,
    /// The implicit-GEMM f32 convolution behind [`crate::ops::conv2d`]:
    /// `gemm_f32`'s tiles over rhs panels gathered from the padded image
    /// (see [`ConvF32Fn`]).
    pub conv_f32: ConvF32Fn,
    /// The integer-precision quantizer behind
    /// [`crate::quant::QuantTensor::requantize_from`] (see [`QuantizeFn`]).
    pub quantize_f32: QuantizeFn,
    /// The integer max over absolute-value bit patterns behind
    /// [`crate::Tensor::abs_max`], the scale scan of every requantize (see
    /// [`AbsMaxFn`]).
    pub abs_max: AbsMaxFn,
    /// Inference f32 max pooling (see [`MaxPoolF32Fn`]).
    pub maxpool_f32: MaxPoolF32Fn,
    /// Max pooling over stored integer words, the native executor's pool
    /// layer (see [`MaxPoolQuantFn`]).
    pub maxpool_quant: MaxPoolQuantFn,
}

impl fmt::Debug for Kernels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernels").field("isa", &self.isa).finish()
    }
}

/// The kernel table for a specific ISA level, for parity tests and
/// benchmarks that want to exercise a level other than the active one.
///
/// # Panics
///
/// Panics if this CPU does not support `isa`.
pub fn kernels_for(isa: Isa) -> Kernels {
    assert!(
        isa.is_supported(),
        "ISA {isa} is not supported by this CPU (detected {})",
        Isa::detect()
    );
    match isa {
        Isa::Scalar => Kernels {
            isa,
            gemm2_i8: scalar::gemm2_i8,
            gemm2_i16: scalar::gemm2_i16,
            axpy_f32: scalar::axpy_f32,
            gemm_f32: scalar::gemm_f32,
            gemm_f32_lhs_t: scalar::gemm_f32_lhs_t,
            conv_f32: scalar::conv_f32,
            quantize_f32: scalar::quantize_f32,
            abs_max: scalar::abs_max,
            maxpool_f32: scalar::maxpool_f32,
            maxpool_quant: scalar::maxpool_quant,
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => Kernels {
            isa,
            gemm2_i8: sse2::gemm2_i8,
            gemm2_i16: sse2::gemm2_i16,
            axpy_f32: sse2::axpy_f32,
            gemm_f32: sse2::gemm_f32,
            gemm_f32_lhs_t: sse2::gemm_f32_lhs_t,
            conv_f32: sse2::conv_f32,
            quantize_f32: sse2::quantize_f32,
            abs_max: sse2::abs_max,
            maxpool_f32: sse2::maxpool_f32,
            maxpool_quant: sse2::maxpool_quant,
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Kernels {
            isa,
            gemm2_i8: avx2::gemm2_i8,
            gemm2_i16: avx2::gemm2_i16,
            axpy_f32: avx2::axpy_f32,
            gemm_f32: avx2::gemm_f32,
            gemm_f32_lhs_t: avx2::gemm_f32_lhs_t,
            conv_f32: avx2::conv_f32,
            quantize_f32: avx2::quantize_f32,
            abs_max: avx2::abs_max,
            maxpool_f32: avx2::maxpool_f32,
            maxpool_quant: avx2::maxpool_quant,
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => Kernels {
            isa,
            // VNNI is an upgrade within the avx512 level, not a level of
            // its own: the fused-dot form is bit-identical to the
            // `vpmaddwd` form, so which one a CPU gets is invisible to
            // results (and to `EDEN_ISA`, which only names levels).
            gemm2_i8: if std::arch::is_x86_feature_detected!("avx512vnni") {
                avx512::gemm2_i8_vnni
            } else {
                avx512::gemm2_i8
            },
            gemm2_i16: avx512::gemm2_i16,
            axpy_f32: avx512::axpy_f32,
            gemm_f32: avx512::gemm_f32,
            gemm_f32_lhs_t: avx512::gemm_f32_lhs_t,
            conv_f32: avx512::conv_f32,
            quantize_f32: avx512::quantize_f32,
            abs_max: avx512::abs_max,
            maxpool_f32: avx512::maxpool_f32,
            maxpool_quant: avx512::maxpool_quant,
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar ISA levels never pass is_supported off x86-64"),
    }
}

/// The active kernel table, resolved once at first use: the `EDEN_ISA`
/// override if set, otherwise [`Isa::detect`].
///
/// # Panics
///
/// Panics (at first use) if `EDEN_ISA` names an unknown or unsupported
/// level — overrides must never silently fall back.
pub fn kernels() -> &'static Kernels {
    static ACTIVE: OnceLock<Kernels> = OnceLock::new();
    ACTIVE.get_or_init(|| match std::env::var("EDEN_ISA") {
        Ok(value) => {
            let isa: Isa = value
                .parse()
                .unwrap_or_else(|e| panic!("invalid EDEN_ISA: {e}"));
            assert!(
                isa.is_supported(),
                "EDEN_ISA={isa} requested but this CPU supports at most {}",
                Isa::detect()
            );
            kernels_for(isa)
        }
        Err(_) => kernels_for(Isa::detect()),
    })
}

/// The ISA level of the active kernel table (honoring `EDEN_ISA`).
pub fn active_isa() -> Isa {
    kernels().isa
}

/// Panics unless the slices hold an `m×k` lhs and an `m×n` output — with
/// a rhs of `k` rows and `n` columns, the bounds every [`GemmF32Fn`] relies
/// on.
fn check_gemm_f32(m: usize, k: usize, n: usize, a: &[f32], out: &[f32]) {
    assert!(a.len() >= m * k, "gemm: lhs slice too short");
    assert!(out.len() >= m * n, "gemm: out slice too short");
}

/// One tier's f32 vector, as the shared tiled GEMM ([`gemm_f32_tiled`])
/// uses it. Every method is `#[inline(always)]` and carries no target
/// feature of its own: it is inlined into the tier's `#[target_feature]`
/// entry point, where its intrinsics are available.
///
/// # Safety
///
/// Every method may only run on a CPU with the tier's features (the tier's
/// table entries are built only after detecting them); `load` and `store`
/// also need `W` valid `f32` lanes at `p`.
#[cfg(target_arch = "x86_64")]
trait F32Lanes: Copy {
    /// f32 lanes per vector.
    const W: usize;
    /// A per-lane predicate.
    type Mask: Copy;
    /// Unaligned load of `W` lanes.
    unsafe fn load(p: *const f32) -> Self;
    /// Unaligned store of `W` lanes.
    unsafe fn store(self, p: *mut f32);
    /// `a` in every lane.
    unsafe fn splat(a: f32) -> Self;
    /// The lanes that are not exactly `±0.0` (NaN lanes included, as the
    /// scalar `av == 0.0` test is false for NaN).
    unsafe fn nonzero(self) -> Self::Mask;
    /// `acc + a·b` (separate multiply and add, never FMA).
    unsafe fn mul_add(acc: Self, a: Self, b: Self) -> Self;
    /// [`F32Lanes::mul_add`] in the lanes of `keep`, `acc` untouched
    /// elsewhere.
    unsafe fn mul_add_where(acc: Self, a: Self, b: Self, keep: Self::Mask) -> Self;
}

/// Rows of the f32 GEMM's register tile.
#[cfg(target_arch = "x86_64")]
const GEMM_F32_MR: usize = 4;
/// Vectors per row of the f32 GEMM's register tile.
#[cfg(target_arch = "x86_64")]
const GEMM_F32_NV: usize = 2;
/// Depth of one packed rhs panel of the f32 GEMM.
#[cfg(target_arch = "x86_64")]
const GEMM_F32_KC: usize = 256;
/// Widest column strip of any tier (AVX-512: two 16-lane vectors).
#[cfg(target_arch = "x86_64")]
const GEMM_F32_MAX_STRIP: usize = 32;

/// One `R × NV·W` output tile at `out`: loads it into registers, adds
/// `a[r][p] · b[p][..]` for `p` in `0..k` ascending, and stores it back.
/// With `SKIP`, a term whose lhs entry is exactly `0.0` is skipped row by
/// row (a masked add); without it the lhs must hold no exact zero. Lhs
/// entry `(r, p)` sits at `L::offset(lda, r, p)`; row strides: `ldb` for
/// the rhs, `ldo` for the output.
///
/// # Safety
///
/// The `R × k` lhs entries, the `k` rhs rows and the `R` output rows of
/// `NV·W` columns must all be in bounds.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gemm_f32_tile<
    V: F32Lanes,
    L: LhsLayout,
    const R: usize,
    const NV: usize,
    const SKIP: bool,
>(
    k: usize,
    (lda, ldb, ldo): (usize, usize, usize),
    a: *const f32,
    b: *const f32,
    out: *mut f32,
) {
    let mut acc = [[V::splat(0.0); NV]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        for (v, c) in row.iter_mut().enumerate() {
            *c = V::load(out.add(r * ldo + v * V::W));
        }
    }
    for p in 0..k {
        let mut bv = [V::splat(0.0); NV];
        for (v, x) in bv.iter_mut().enumerate() {
            *x = V::load(b.add(p * ldb + v * V::W));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let va = V::splat(*a.add(L::offset(lda, r, p)));
            if SKIP {
                let keep = va.nonzero();
                for (c, &x) in row.iter_mut().zip(&bv) {
                    *c = V::mul_add_where(*c, va, x, keep);
                }
            } else {
                for (c, &x) in row.iter_mut().zip(&bv) {
                    *c = V::mul_add(*c, va, x);
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, c) in row.iter().enumerate() {
            c.store(out.add(r * ldo + v * V::W));
        }
    }
}

/// One output tile of `rows ≤` [`GEMM_F32_MR`] rows, dispatched to the
/// const-`R` [`gemm_f32_tile`].
///
/// # Safety
///
/// As for [`gemm_f32_tile`] at `R = rows`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gemm_f32_rows<V: F32Lanes, L: LhsLayout, const NV: usize, const SKIP: bool>(
    rows: usize,
    k: usize,
    strides: (usize, usize, usize),
    a: *const f32,
    b: *const f32,
    out: *mut f32,
) {
    match rows {
        GEMM_F32_MR => gemm_f32_tile::<V, L, GEMM_F32_MR, NV, SKIP>(k, strides, a, b, out),
        3 => gemm_f32_tile::<V, L, 3, NV, SKIP>(k, strides, a, b, out),
        2 => gemm_f32_tile::<V, L, 2, NV, SKIP>(k, strides, a, b, out),
        1 => gemm_f32_tile::<V, L, 1, NV, SKIP>(k, strides, a, b, out),
        _ => {}
    }
}

/// Where the tiled f32 GEMM's lhs entries come from: entry `(i, p)` of the
/// `m × k` lhs sits [`LhsLayout::offset`] lanes into its slice. The lhs
/// counterpart of [`RhsColumns`]; both layouts hold the same `m·k` entries,
/// so the entry point's bounds check and the exact-zero scan cover either.
#[cfg(target_arch = "x86_64")]
trait LhsLayout {
    /// Whether each lhs row is `k` contiguous entries, so the scalar
    /// narrow-rhs loop ([`gemm_f32_columns`]) may read rows in place.
    const ROW_MAJOR: bool;
    /// The leading dimension of an `m × k` lhs.
    fn ld(m: usize, k: usize) -> usize;
    /// The offset of entry `(i, p)` at leading dimension `ld`.
    fn offset(ld: usize, i: usize, p: usize) -> usize;
}

/// A row-major `m × k` lhs: the lhs of [`GemmF32Fn`] and [`ConvF32Fn`].
#[cfg(target_arch = "x86_64")]
enum RowMajor {}

#[cfg(target_arch = "x86_64")]
impl LhsLayout for RowMajor {
    const ROW_MAJOR: bool = true;
    #[inline(always)]
    fn ld(_: usize, k: usize) -> usize {
        k
    }
    #[inline(always)]
    fn offset(ld: usize, i: usize, p: usize) -> usize {
        i * ld + p
    }
}

/// The transpose of a row-major `k × m` matrix: the lhs of
/// `Kernels::gemm_f32_lhs_t`, read in place. Entry `(i, p)` is the
/// matrix's `(p, i)`, so a tile's rows at one depth are contiguous.
#[cfg(target_arch = "x86_64")]
enum Transposed {}

#[cfg(target_arch = "x86_64")]
impl LhsLayout for Transposed {
    const ROW_MAJOR: bool = false;
    #[inline(always)]
    fn ld(m: usize, _: usize) -> usize {
        m
    }
    #[inline(always)]
    fn offset(ld: usize, i: usize, p: usize) -> usize {
        p * ld + i
    }
}

/// Where the column panels of the tiled f32 GEMM come from: rows `p` and
/// columns `j` of a `k × n` rhs. The entry point that builds a source
/// checks that its `k` rows and `n` columns lie in bounds.
#[cfg(target_arch = "x86_64")]
trait RhsColumns {
    /// The row-major rhs itself, when the source is a dense matrix (`n`
    /// columns per row): its tiles may then read it in place.
    fn dense(&self) -> Option<&[f32]>;

    /// Writes rows `[kb, kb + kc)` of columns `[j, j + width)` (`rows =
    /// (kb, kc)`, `cols = (j, width)`) to `dst`, one row every `full ≥
    /// width` lanes, and zeroes each row's lanes `[width, full)`.
    ///
    /// # Safety
    ///
    /// The rows and columns lie inside the source's geometry, `dst` holds
    /// `kc·full` writable lanes, and the CPU has `V`'s features.
    unsafe fn pack<V: F32Lanes>(
        &self,
        rows: (usize, usize),
        cols: (usize, usize),
        full: usize,
        dst: *mut f32,
    );
}

/// A dense row-major `k × n` rhs: the columns of [`GemmF32Fn`].
#[cfg(target_arch = "x86_64")]
struct DenseRhs<'a> {
    b: &'a [f32],
    n: usize,
}

#[cfg(target_arch = "x86_64")]
impl RhsColumns for DenseRhs<'_> {
    fn dense(&self) -> Option<&[f32]> {
        Some(self.b)
    }

    #[inline(always)]
    unsafe fn pack<V: F32Lanes>(
        &self,
        (kb, kc): (usize, usize),
        (j, width): (usize, usize),
        full: usize,
        dst: *mut f32,
    ) {
        for p in 0..kc {
            let src = &self.b[(kb + p) * self.n + j..][..width];
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst.add(p * full), width);
            std::ptr::write_bytes(dst.add(p * full + width), 0, full - width);
        }
    }
}

/// The implicit patch matrix of a padded image (see [`ConvF32Fn`]): row
/// `(ic·k + ky)·k + kx`, column `oy·ow + ox` is pixel `(oy·stride + ky,
/// ox·stride + kx)` of channel `ic`.
#[cfg(target_arch = "x86_64")]
struct PatchRhs<'a> {
    g: PaddedConv,
    image: &'a [f32],
    ow: usize,
}

#[cfg(target_arch = "x86_64")]
impl RhsColumns for PatchRhs<'_> {
    fn dense(&self) -> Option<&[f32]> {
        None
    }

    /// Gathers the panel per output-row segment of the strip: for every
    /// tap, one run of pixels of one image row, copied whole vectors at a
    /// time at stride 1.
    #[inline(always)]
    unsafe fn pack<V: F32Lanes>(
        &self,
        (kb, kc): (usize, usize),
        (j, width): (usize, usize),
        full: usize,
        dst: *mut f32,
    ) {
        let (hp, wp, k, s) = (self.g.hp, self.g.wp, self.g.kernel, self.g.stride);
        // The strip's segments, one per output row it touches: (first
        // lane, pixel offset of its first column from the tap's origin,
        // length).
        let mut segs = [(0usize, 0usize, 0usize); GEMM_F32_MAX_STRIP];
        let mut count = 0;
        let mut col = j;
        while col < j + width {
            let (oy, ox) = (col / self.ow, col % self.ow);
            let len = (self.ow - ox).min(j + width - col);
            segs[count] = (col - j, oy * s * wp + ox * s, len);
            count += 1;
            col += len;
        }
        let segs = &segs[..count];
        // Each panel row's tap origin: the pixel offset of `(ic, ky, kx)`.
        let mut origins = [0usize; GEMM_F32_KC];
        let (mut ic, mut ky, mut kx) = (kb / (k * k), kb / k % k, kb % k);
        for o in &mut origins[..kc] {
            *o = (ic * hp + ky) * wp + kx;
            kx += 1;
            if kx == k {
                (kx, ky) = (0, ky + 1);
                if ky == k {
                    (ky, ic) = (0, ic + 1);
                }
            }
        }
        let img = self.image.as_ptr();
        for &(d, off, len) in segs {
            // At stride 1 a segment is one run: whole vectors, then
            // four-lane (SSE2) chunks, then single lanes.
            let (body, quads) = if s == 1 {
                (len - len % V::W, len - len % 4)
            } else {
                (0, 0)
            };
            for (p, &o) in origins[..kc].iter().enumerate() {
                let (src, out) = (img.add(o + off), dst.add(p * full + d));
                for x in (0..body).step_by(V::W) {
                    V::load(src.add(x)).store(out.add(x));
                }
                for x in (body..quads).step_by(4) {
                    _mm_storeu_ps(out.add(x), _mm_loadu_ps(src.add(x)));
                }
                for x in quads..len {
                    *out.add(x) = *src.add(x * s);
                }
            }
        }
        if width < full {
            for p in 0..kc {
                std::ptr::write_bytes(dst.add(p * full + width), 0, full - width);
            }
        }
    }
}

/// One strip of output columns `[j, j + width)`, `k` deep, for all `m`
/// rows: [`GEMM_F32_MR`]-row tiles, then one tile of the remaining rows
/// (`SKIP` as for [`gemm_f32_tile`]). A full strip is `NV·W` columns wide;
/// a dense rhs shared by more than one tile, and every other source, is
/// first packed (in [`GEMM_F32_KC`]-deep panels) into `panel`, so the tiles
/// read it from L1 rather than at the rhs row stride. A narrower strip —
/// the last `n mod W` columns, at `NV = 1` — is always packed, zero-padded
/// to a whole vector, and each tile runs on a stack copy of its output
/// rows, of which only the `width` valid columns are copied back. The
/// panels run in ascending `p`, so the accumulation order is unchanged,
/// and a padding lane never reaches a valid output.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_f32_strip<V: F32Lanes, L: LhsLayout, const NV: usize, const SKIP: bool>(
    (m, k, n): (usize, usize, usize),
    j: usize,
    width: usize,
    a: &[f32],
    b: &impl RhsColumns,
    out: &mut [f32],
    panel: &mut std::mem::MaybeUninit<[f32; GEMM_F32_KC * GEMM_F32_MAX_STRIP]>,
) {
    const MR: usize = GEMM_F32_MR;
    let full = NV * V::W;
    let lda = L::ld(m, k);
    check_gemm_f32(m, k, n, a, out);
    assert!(
        full <= GEMM_F32_MAX_STRIP && width <= full && j + width <= n,
        "gemm: strip outside the output"
    );
    let tail = width < full;
    let dense = b.dense().filter(|_| !tail && m <= MR);
    let op = out.as_mut_ptr();
    for kb in (0..k).step_by(GEMM_F32_KC) {
        let kc = (k - kb).min(GEMM_F32_KC);
        let (bp, ldb) = match dense {
            Some(b) => (b[kb * n + j..].as_ptr(), n),
            None => {
                let dst = panel.as_mut_ptr() as *mut f32;
                // SAFETY: rows `[kb, kb + kc) ⊆ [0, k)` and columns `[j, j +
                // width) ⊆ [0, n)` lie inside the source, as its entry point
                // checked; `kc ≤ GEMM_F32_KC` rows of `full ≤
                // GEMM_F32_MAX_STRIP` lanes fit the panel, and the tiles
                // below read only these written rows. The caller's tier has
                // `V`'s features.
                unsafe { b.pack::<V>((kb, kc), (j, width), full, dst) };
                (dst as *const f32, full)
            }
        };
        let mut i = 0;
        while i < m {
            let rows = (m - i).min(MR);
            // SAFETY: checked above: `a` holds `m×k` and `out` `m×n` values
            // and `[j, j + width) ⊆ [0, n)`. The tile reads lhs entries `(i
            // + r, kb + p)` for `r < rows`, `p < kc ≤ k − kb`, all inside the
            // `m × k` lhs in either layout; the rhs is either `kc`
            // packed rows of `full` lanes or `kc` rows of the dense `b`
            // (`k×n`, checked by its caller) at columns `[j, j + full)` with
            // `full = width`. A full strip's tile writes output rows `[i, i
            // + rows)` at those columns; a tail tile works on the `rows ×
            // full` stack tile (`rows ≤ GEMM_F32_MR`, `full ≤
            // GEMM_F32_MAX_STRIP`), whose `width` valid columns are copied
            // from and back to those output rows. The caller's tier has
            // `V`'s features.
            unsafe {
                let a_rows = a.as_ptr().add(L::offset(lda, i, kb));
                if tail {
                    let mut tile = [0.0f32; GEMM_F32_MR * GEMM_F32_MAX_STRIP];
                    let t = tile.as_mut_ptr();
                    for r in 0..rows {
                        std::ptr::copy_nonoverlapping(
                            op.add((i + r) * n + j),
                            t.add(r * full),
                            width,
                        );
                    }
                    gemm_f32_rows::<V, L, NV, SKIP>(rows, kc, (lda, ldb, full), a_rows, bp, t);
                    for r in 0..rows {
                        std::ptr::copy_nonoverlapping(
                            t.add(r * full),
                            op.add((i + r) * n + j),
                            width,
                        );
                    }
                } else {
                    let o = op.add(i * n + j);
                    gemm_f32_rows::<V, L, NV, SKIP>(rows, kc, (lda, ldb, n), a_rows, bp, o);
                }
            }
            i += rows;
        }
    }
}

/// The f32 GEMM of a dense rhs narrower than one vector (`n < W`), by
/// scalar loops that run four rows' independent accumulation chains at
/// once, each in ascending `p` with the exact-zero lhs skip — the n = 1
/// matrix–vector product of a per-sample dense layer is this loop alone.
#[cfg(target_arch = "x86_64")]
fn gemm_f32_columns(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for j in 0..n {
        let mut i = 0;
        while i + 4 <= m {
            let rows = [
                &a[i * k..(i + 1) * k],
                &a[(i + 1) * k..(i + 2) * k],
                &a[(i + 2) * k..(i + 3) * k],
                &a[(i + 3) * k..(i + 4) * k],
            ];
            let mut acc = [0.0f32; 4];
            for (r, c) in acc.iter_mut().enumerate() {
                *c = out[(i + r) * n + j];
            }
            for p in 0..k {
                let bv = b[p * n + j];
                for (c, row) in acc.iter_mut().zip(&rows) {
                    if row[p] != 0.0 {
                        *c += row[p] * bv;
                    }
                }
            }
            for (r, c) in acc.iter().enumerate() {
                out[(i + r) * n + j] = *c;
            }
            i += 4;
        }
        for i in i..m {
            let mut c = out[i * n + j];
            for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                if av != 0.0 {
                    c += av * b[p * n + j];
                }
            }
            out[i * n + j] = c;
        }
    }
}

/// The SIMD tiers' f32 GEMM over any [`RhsColumns`] source and
/// [`LhsLayout`] (their [`GemmF32Fn`]s and [`ConvF32Fn`]): column strips of
/// [`GEMM_F32_NV`] vectors (the outer loop, so a strip of the rhs is packed
/// once and reused by every row tile), one single-vector strip for a last
/// whole vector, and one zero-padded single-vector strip for the last
/// `n mod W` columns. Only a dense rhs narrower than one vector, under a
/// row-major lhs, runs as scalar chains ([`gemm_f32_columns`]); any other
/// narrow product is one zero-padded strip. The tiles mask their adds only
/// when the lhs holds an exact zero (one scan per call); a zero-free lhs,
/// such as a layer's weights, skips nothing. Each output element sees the
/// scalar table's accumulation chain exactly.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gemm_f32_tiled<V: F32Lanes, L: LhsLayout>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &impl RhsColumns,
    out: &mut [f32],
) {
    check_gemm_f32(m, k, n, a, out);
    if n < V::W && L::ROW_MAJOR {
        if let Some(b) = b.dense() {
            gemm_f32_columns(m, k, n, a, b, out);
            return;
        }
    }
    let strip = GEMM_F32_NV * V::W;
    let wide = n - n % strip;
    let vectors = n - n % V::W;
    // Chunked so the compare vectorizes and still stops early.
    let skip = a[..m * k]
        .chunks(64)
        .any(|c| c.iter().fold(false, |z, &x| z | (x == 0.0)));
    let panel = &mut std::mem::MaybeUninit::uninit();
    for j in (0..wide).step_by(strip) {
        if skip {
            gemm_f32_strip::<V, L, GEMM_F32_NV, true>((m, k, n), j, strip, a, b, out, panel);
        } else {
            gemm_f32_strip::<V, L, GEMM_F32_NV, false>((m, k, n), j, strip, a, b, out, panel);
        }
    }
    // At most GEMM_F32_NV − 1 = 1 whole vector is left, then the tail.
    for (j, width) in [(wide, vectors - wide), (vectors, n - vectors)] {
        if width == 0 {
            continue;
        }
        if skip {
            gemm_f32_strip::<V, L, 1, true>((m, k, n), j, width, a, b, out, panel);
        } else {
            gemm_f32_strip::<V, L, 1, false>((m, k, n), j, width, a, b, out, panel);
        }
    }
}

/// The SIMD tiers' [`GemmF32Fn`]s: [`gemm_f32_tiled`] over a dense rhs,
/// with the lhs in layout `L` (row-major for `gemm_f32`, transposed for
/// `gemm_f32_lhs_t`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gemm_f32_dense<V: F32Lanes, L: LhsLayout>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert!(b.len() >= k * n, "gemm: rhs slice too short");
    gemm_f32_tiled::<V, L>(m, k, n, a, &DenseRhs { b, n }, out);
}

/// The SIMD tiers' [`ConvF32Fn`]: [`gemm_f32_tiled`] over the patch matrix
/// of the padded image.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn conv_f32_tiled<V: F32Lanes>(g: &PaddedConv, weight: &[f32], image: &[f32], out: &mut [f32]) {
    g.check(weight, image, out);
    let (oh, ow) = g.out_size();
    let rhs = PatchRhs { g: *g, image, ow };
    gemm_f32_tiled::<V, RowMajor>(g.out_c, g.depth(), oh * ow, weight, &rhs, out);
}

/// `out[j] += a · b[j]` over one tier's f32 vectors (the SIMD tiers'
/// `axpy_f32`): [`F32Lanes::mul_add`] per whole vector, the last `n mod W`
/// lanes by a scalar loop. Separate multiply and add, so each lane is the
/// scalar result.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn axpy_f32_lanes<V: F32Lanes>(a: f32, b: &[f32], out: &mut [f32]) {
    let n = b.len().min(out.len());
    let body = n - n % V::W;
    // SAFETY: every load and store covers lanes `[p, p + W)` with
    // `p + W ≤ body ≤` both lengths; the caller's tier has `V`'s features.
    unsafe {
        let va = V::splat(a);
        for p in (0..body).step_by(V::W) {
            let o = out.as_mut_ptr().add(p);
            V::mul_add(V::load(o), va, V::load(b.as_ptr().add(p))).store(o);
        }
    }
    for i in body..n {
        out[i] += a * b[i];
    }
}

/// One tier's 16-bit integer vector, as the shared integer panel bodies
/// ([`WidenI8`], [`SplitI16`]) use it: `W` i16 lanes, or `W / 2` i32 lanes
/// after a multiply–add. The safety contract is [`F32Lanes`]'s (see the
/// module docs); the loads need `W` valid lanes at `p`.
#[cfg(target_arch = "x86_64")]
trait I16Lanes: Copy {
    /// i16 lanes per vector.
    const W: usize;
    /// All lanes zero.
    unsafe fn zero() -> Self;
    /// Unaligned load of `W` i16 lanes.
    unsafe fn load_i16(p: *const i16) -> Self;
    /// Unaligned load of `W` i8 lanes, each sign-extended to i16.
    unsafe fn load_i8(p: *const i8) -> Self;
    /// `pmaddwd`: each i32 lane is the sum of two adjacent i16×i16 products
    /// (wrapping only for `(−32768)² + (−32768)²`).
    unsafe fn madd(a: Self, b: Self) -> Self;
    /// Wrapping i32 lane addition.
    unsafe fn add_i32(a: Self, b: Self) -> Self;
    /// The 16-bit digits `(v >> 16, v & 0xffff)` of the biased pair sums
    /// `v = r + PAIR_BIAS` (wrapping; see the module docs).
    unsafe fn split_biased(r: Self) -> (Self, Self);
    /// The exact horizontal i32 sums `[Σc[0], Σc[1], Σc[2], Σc[3]]`.
    unsafe fn hsum4(c: [Self; 4]) -> __m128i;
}

/// The exact horizontal sums of a `2 × C` block of i32 accumulators,
/// `C ≤ 2`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn hsum_2xc<V: I16Lanes, const C: usize>(acc: [[V; C]; 2]) -> [[i32; C]; 2] {
    let mut flat = [V::zero(); 4];
    for (r, row) in acc.iter().enumerate() {
        flat[r * C..][..C].copy_from_slice(row);
    }
    // An `__m128i` is four i32 lanes, in order.
    let s: [i32; 4] = std::mem::transmute(V::hsum4(flat));
    let mut sums = [[0; C]; 2];
    for (r, row) in sums.iter_mut().enumerate() {
        row.copy_from_slice(&s[r * C..][..C]);
    }
    sums
}

/// The vectorized dot products of two lhs rows with `C` rhs columns — the
/// per-column body that [`gemm2_panel`] runs at `C = 2` for every column
/// pair and at `C = 1` for an odd last column.
#[cfg(target_arch = "x86_64")]
trait PanelBody: Copy {
    /// Operand lane.
    type T: Copy;
    /// Accumulator.
    type A: Copy + From<Self::T> + std::ops::Mul<Output = Self::A> + std::ops::AddAssign;
    /// Lanes per step: a body covers whole multiples of it.
    const STEP: usize;
    /// `[[a0·b[c]; C], [a1·b[c]; C]]`, each a dot product of `k` lanes, a
    /// multiple of [`PanelBody::STEP`].
    ///
    /// # Safety
    ///
    /// Both rows and all `C` columns hold `k` valid lanes, and the CPU has
    /// the body's features.
    unsafe fn block<const C: usize>(
        self,
        a: [*const Self::T; 2],
        b: [*const Self::T; C],
        k: usize,
    ) -> [[Self::A; C]; 2];
}

/// The SIMD tiers' [`GemmPanelFn`]: `body` over the first
/// `k − k mod STEP` lanes of every column pair of the transposed panel, then
/// at one column for an odd last column; the last `k mod STEP` lanes of
/// every column are summed in scalar code.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gemm2_panel<B: PanelBody>(
    body: B,
    a0: &[B::T],
    a1: &[B::T],
    bt: &[B::T],
    k: usize,
    out0: &mut [B::A],
    out1: &mut [B::A],
) {
    assert!(a0.len() >= k && a1.len() >= k, "gemm2: lhs rows short");
    if k == 0 {
        return;
    }
    let n = out0.len().min(out1.len()).min(bt.len() / k);
    let (out0, out1) = (&mut out0[..n], &mut out1[..n]);
    let kv = k - k % B::STEP;
    let a = [a0.as_ptr(), a1.as_ptr()];
    let pairs = out0.chunks_exact_mut(2).zip(out1.chunks_exact_mut(2));
    // SAFETY (both blocks): the lhs rows hold `k ≥ kv` lanes (asserted),
    // every column `j < n ≤ bt.len() / k` holds the `k` lanes
    // `bt[j·k..][..k]`, and the caller's tier has the body's features.
    for ((o0, o1), b) in pairs.zip(bt.chunks_exact(2 * k)) {
        let cols = [b.as_ptr(), b[k..].as_ptr()];
        let [[s00, s01], [s10, s11]] = unsafe { body.block::<2>(a, cols, kv) };
        o0[0] += s00;
        o0[1] += s01;
        o1[0] += s10;
        o1[1] += s11;
    }
    if n % 2 == 1 {
        let [[s0], [s1]] = unsafe { body.block::<1>(a, [bt[(n - 1) * k..].as_ptr()], kv) };
        out0[n - 1] += s0;
        out1[n - 1] += s1;
    }
    if kv < k {
        for (j, b) in bt.chunks_exact(k).take(n).enumerate() {
            for (o, a) in [(&mut out0[j], a0), (&mut out1[j], a1)] {
                for (&x, &y) in a[kv..k].iter().zip(&b[kv..]) {
                    *o += B::A::from(x) * B::A::from(y);
                }
            }
        }
    }
}

/// The i8 panel body over lanes `V`: sign-extending loads and `pmaddwd`
/// into one i32 accumulator per output (exact over the full corrupted
/// domain, given the callers' no-overflow contract).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct WidenI8<V>(std::marker::PhantomData<V>);

#[cfg(target_arch = "x86_64")]
impl<V: I16Lanes> PanelBody for WidenI8<V> {
    type T = i8;
    type A = i32;
    const STEP: usize = V::W;

    #[inline(always)]
    unsafe fn block<const C: usize>(
        self,
        a: [*const i8; 2],
        b: [*const i8; C],
        k: usize,
    ) -> [[i32; C]; 2] {
        let mut acc = [[V::zero(); C]; 2];
        for p in (0..k).step_by(V::W) {
            let va = [V::load_i8(a[0].add(p)), V::load_i8(a[1].add(p))];
            let mut vb = [V::zero(); C];
            for (v, &col) in vb.iter_mut().zip(&b) {
                *v = V::load_i8(col.add(p));
            }
            for (row, &x) in acc.iter_mut().zip(&va) {
                for (c, &y) in row.iter_mut().zip(&vb) {
                    *c = V::add_i32(*c, V::madd(x, y));
                }
            }
        }
        hsum_2xc(acc)
    }
}

/// The i16 panel body over lanes `V`: `pmaddwd` pair sums, biased and split
/// into two 16-bit digits that accumulate in separate i32 lanes, flushed
/// into i64 every [`GEMM_I16_FLUSH_K`] lanes (see the module docs).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct SplitI16<V>(std::marker::PhantomData<V>);

#[cfg(target_arch = "x86_64")]
impl<V: I16Lanes> PanelBody for SplitI16<V> {
    type T = i16;
    type A = i64;
    const STEP: usize = V::W;

    #[inline(always)]
    unsafe fn block<const C: usize>(
        self,
        a: [*const i16; 2],
        b: [*const i16; C],
        k: usize,
    ) -> [[i64; C]; 2] {
        let mut sums = [[0i64; C]; 2];
        for p0 in (0..k).step_by(GEMM_I16_FLUSH_K) {
            let end = (p0 + GEMM_I16_FLUSH_K).min(k);
            let (mut hi, mut lo) = ([[V::zero(); C]; 2], [[V::zero(); C]; 2]);
            for p in (p0..end).step_by(V::W) {
                let va = [V::load_i16(a[0].add(p)), V::load_i16(a[1].add(p))];
                let mut vb = [V::zero(); C];
                for (v, &col) in vb.iter_mut().zip(&b) {
                    *v = V::load_i16(col.add(p));
                }
                for r in 0..2 {
                    for c in 0..C {
                        let (h, l) = V::split_biased(V::madd(va[r], vb[c]));
                        hi[r][c] = V::add_i32(hi[r][c], h);
                        lo[r][c] = V::add_i32(lo[r][c], l);
                    }
                }
            }
            let (h, l) = (hsum_2xc(hi), hsum_2xc(lo));
            for r in 0..2 {
                for c in 0..C {
                    sums[r][c] += unbias(h[r][c], l[r][c], (end - p0) / 2);
                }
            }
        }
        sums
    }
}

/// One tier's vector of 32-bit lanes, as the per-element scans
/// ([`abs_max_lanes`], [`maxpool_lanes`]) use it: raw words, compared as
/// `i32` or as `f32`. Every method is `#[inline(always)]` with no target
/// feature of its own, as for [`F32Lanes`].
///
/// # Safety
///
/// Every method may only run on a CPU with the tier's features (the tier's
/// table entries are built only after detecting them). `load` and `store`
/// of `n ≤ W` lanes need those `n` lanes valid at `p` and touch no other;
/// `load_strided` needs the lanes it reads (see there).
#[cfg(target_arch = "x86_64")]
trait U32Lanes: Copy {
    /// 32-bit lanes per vector.
    const W: usize;
    /// `x` in every lane.
    unsafe fn splat(x: u32) -> Self;
    /// Lanes `[0, n)` from `p`, the rest zero.
    unsafe fn load(p: *const u32, n: usize) -> Self;
    /// Stores lanes `[0, n)` to `p`.
    unsafe fn store(self, p: *mut u32, n: usize);
    /// The even lanes of `a` followed by `b`: lane `j` is lane `2j` of the
    /// `2W` lanes `a ++ b`.
    unsafe fn even(a: Self, b: Self) -> Self;
    /// Bitwise and.
    unsafe fn and(self, b: Self) -> Self;
    /// The `i32` maximum of each lane pair.
    unsafe fn max_i32(x: Self, m: Self) -> Self;
    /// `if x > m { x } else { m }` per `f32` lane: `x86`'s `maxps x, m`,
    /// which returns `m` for a NaN or a `±0.0` tie.
    unsafe fn max_f32(x: Self, m: Self) -> Self;
    /// Each lane's low `32 − shift` bits sign-extended (`shift < 32`).
    unsafe fn sign_extend(self, shift: u32) -> Self;
    /// The `f32` bits of each `i32` lane's `q as f32 * scale`.
    unsafe fn scale_i32(self, scale: f32) -> Self;

    /// Lanes `[0, n)` read at stride `s` from `p` (`p[j·s]`), the rest
    /// zero, for `1 ≤ n ≤ W`: one load at stride 1; at stride 2,
    /// [`U32Lanes::even`] of two loads of the first `min(2n, avail)` lanes
    /// (two whole vectors unless `n < W` or the data ends); at any other
    /// stride, lane by lane through a stack copy.
    ///
    /// # Safety
    ///
    /// As for the trait, with the `avail ≥ (n − 1)·s + 1` lanes from `p`
    /// valid.
    #[inline(always)]
    unsafe fn load_strided(p: *const u32, s: usize, n: usize, avail: usize) -> Self {
        match s {
            1 => Self::load(p, n),
            2 => {
                let span = (2 * n).min(avail);
                let lo = span.min(Self::W);
                Self::even(
                    Self::load(p, lo),
                    Self::load(p.wrapping_add(Self::W), span - lo),
                )
            }
            _ => {
                let mut lanes = [0u32; 16];
                for (j, lane) in lanes[..n].iter_mut().enumerate() {
                    *lane = *p.add(j * s);
                }
                Self::load(lanes.as_ptr(), n)
            }
        }
    }
}

/// The SIMD tiers' [`AbsMaxFn`]: the absolute-value patterns of whole
/// vectors folded by an `i32` max (the last `len mod W` values as one
/// partial vector, whose missing lanes load as zero), then one horizontal
/// max. Integer max is associative, so the lane order changes nothing.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn abs_max_lanes<V: U32Lanes>(data: &[f32]) -> u32 {
    let p = data.as_ptr() as *const u32;
    let mut lanes = [0u32; 16];
    // SAFETY: the loads read `W` lanes at `i + W ≤ body` and the `len −
    // body < W` lanes at `body`, all inside `data`; the store writes `W ≤
    // 16` lanes of `lanes`. The caller's tier has `V`'s features.
    unsafe {
        let abs = V::splat(0x7fff_ffff);
        let mut acc = V::splat(0);
        let body = data.len() - data.len() % V::W;
        for i in (0..body).step_by(V::W) {
            acc = V::max_i32(V::load(p.add(i), V::W).and(abs), acc);
        }
        let tail = V::load(p.add(body), data.len() - body);
        V::max_i32(tail.and(abs), acc).store(lanes.as_mut_ptr(), V::W);
    }
    lanes.into_iter().fold(0, u32::max)
}

/// How one form of max pooling reads, compares and writes words
/// ([`maxpool_lanes`]).
///
/// # Safety
///
/// Every method may only run on a CPU with `V`'s features.
#[cfg(target_arch = "x86_64")]
trait PoolForm: Copy {
    /// The word each window's fold starts from.
    const LOWEST: u32;
    /// A loaded vector of input words as compared values.
    unsafe fn value<V: U32Lanes>(self, v: V) -> V;
    /// One step of the fold.
    unsafe fn max<V: U32Lanes>(x: V, m: V) -> V;
    /// A window maximum as the `f32` bits of its output.
    unsafe fn output<V: U32Lanes>(self, m: V) -> V;
}

/// f32 words ([`MaxPoolF32Fn`]).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct F32Pool;

#[cfg(target_arch = "x86_64")]
impl PoolForm for F32Pool {
    const LOWEST: u32 = 0xff80_0000; // −Inf
    #[inline(always)]
    unsafe fn value<V: U32Lanes>(self, v: V) -> V {
        v
    }
    #[inline(always)]
    unsafe fn max<V: U32Lanes>(x: V, m: V) -> V {
        V::max_f32(x, m)
    }
    #[inline(always)]
    unsafe fn output<V: U32Lanes>(self, m: V) -> V {
        m
    }
}

/// Stored integer words ([`MaxPoolQuantFn`]): sign-extended by `shift =
/// 32 − bits`, scaled by `scale` on output.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct QuantPool {
    shift: u32,
    scale: f32,
}

#[cfg(target_arch = "x86_64")]
impl PoolForm for QuantPool {
    const LOWEST: u32 = i32::MIN as u32;
    #[inline(always)]
    unsafe fn value<V: U32Lanes>(self, v: V) -> V {
        v.sign_extend(self.shift)
    }
    #[inline(always)]
    unsafe fn max<V: U32Lanes>(x: V, m: V) -> V {
        V::max_i32(x, m)
    }
    #[inline(always)]
    unsafe fn output<V: U32Lanes>(self, m: V) -> V {
        m.scale_i32(self.scale)
    }
}

/// The SIMD tiers' max pooling in either form: each output row in vectors
/// of `W` outputs (the last one partial), each vector folding its
/// windows' taps in row-major `(ky, kx)` order, every tap one strided load
/// ([`U32Lanes::load_strided`]). The fold of each lane is the scalar
/// table's, step for step, with no branch on the data.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn maxpool_lanes<V: U32Lanes, F: PoolForm>(g: &Pool2d, form: F, input: &[u32], out: &mut [f32]) {
    g.check(input.len(), out.len());
    // Stride 2 gets its own inlined copy, specialized to the constant:
    // every pool layer in the model zoo is 2×2 at stride 2.
    match g.stride {
        2 => maxpool_rows::<V, F>(g, 2, form, input, out),
        s => maxpool_rows::<V, F>(g, s, form, input, out),
    }
}

/// [`maxpool_lanes`] at stride `s`, on a checked geometry.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn maxpool_rows<V: U32Lanes, F: PoolForm>(
    g: &Pool2d,
    s: usize,
    form: F,
    input: &[u32],
    out: &mut [f32],
) {
    let (oh, ow) = g.out_size();
    let w = g.w;
    let dst = out.as_mut_ptr() as *mut u32;
    let mut o = 0;
    for ch in 0..g.c {
        for oy in 0..oh {
            let top = (ch * g.h + oy * s) * w;
            for ox in (0..ow).step_by(V::W) {
                let n = (ow - ox).min(V::W);
                // SAFETY: `maxpool_lanes` checked the geometry and that
                // `input` holds `c·h·w` and `out` `c·oh·ow` words. Lane `j <
                // n` of tap `(ky, kx)` reads input `at + j·s`, pixel `(oy·s +
                // ky, (ox + j)·s + kx)` of plane `ch`, inside it as `(oh −
                // 1)·s + size ≤ h` and `(ow − 1)·s + size ≤ w`; the store
                // writes outputs `[o, o + n)` of the `c·oh·ow`. The caller's
                // tier has `V`'s features.
                unsafe {
                    let mut m = V::splat(F::LOWEST);
                    for ky in 0..g.size {
                        for kx in 0..g.size {
                            let at = top + ky * w + ox * s + kx;
                            let x = V::load_strided(input.as_ptr().add(at), s, n, input.len() - at);
                            m = F::max(form.value(x), m);
                        }
                    }
                    form.output(m).store(dst.add(o), n);
                }
                o += n;
            }
        }
    }
}

/// The SIMD tiers' [`MaxPoolF32Fn`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn maxpool_f32_lanes<V: U32Lanes>(g: &Pool2d, input: &[f32], out: &mut [f32]) {
    // SAFETY: `f32` and `u32` have the same size and alignment, and every
    // bit pattern is a valid `u32`.
    let words = unsafe { std::slice::from_raw_parts(input.as_ptr() as *const u32, input.len()) };
    maxpool_lanes::<V, _>(g, F32Pool, words, out);
}

/// The SIMD tiers' [`MaxPoolQuantFn`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn maxpool_quant_lanes<V: U32Lanes>(
    g: &Pool2d,
    words: &[u32],
    bits: u32,
    scale: f32,
    out: &mut [f32],
) {
    assert!((1..=32).contains(&bits), "maxpool: bad word width {bits}");
    let form = QuantPool {
        shift: 32 - bits,
        scale,
    };
    maxpool_lanes::<V, _>(g, form, words, out);
}

/// Bit-for-bit reference implementations. Plain loops; the compiler may
/// auto-vectorize the integer reductions (associative, so still exact) but
/// never the f32 ones.
mod scalar {
    fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let mut acc = 0i32;
        for i in 0..n {
            acc += a[i] as i32 * b[i] as i32;
        }
        acc
    }

    pub fn gemm2_i8(a0: &[i8], a1: &[i8], bt: &[i8], k: usize, out0: &mut [i32], out1: &mut [i32]) {
        let n = out0.len().min(out1.len()).min(bt.len() / k.max(1));
        for j in 0..n {
            let col = &bt[j * k..(j + 1) * k];
            out0[j] += dot_i8(&a0[..k], col);
            out1[j] += dot_i8(&a1[..k], col);
        }
    }

    fn dot_i16(a: &[i16], b: &[i16]) -> i64 {
        a.iter().zip(b).map(|(&x, &y)| x as i64 * y as i64).sum()
    }

    pub fn gemm2_i16(
        a0: &[i16],
        a1: &[i16],
        bt: &[i16],
        k: usize,
        out0: &mut [i64],
        out1: &mut [i64],
    ) {
        let n = out0.len().min(out1.len()).min(bt.len() / k.max(1));
        for j in 0..n {
            let col = &bt[j * k..(j + 1) * k];
            out0[j] += dot_i16(&a0[..k], col);
            out1[j] += dot_i16(&a1[..k], col);
        }
    }

    pub fn axpy_f32(a: f32, b: &[f32], out: &mut [f32]) {
        for (o, &bv) in out.iter_mut().zip(b) {
            *o += a * bv;
        }
    }

    pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        super::check_gemm_f32(m, k, n, a, out);
        assert!(b.len() >= k * n, "gemm: rhs slice too short");
        if n == 0 {
            return;
        }
        for (arow, orow) in a
            .chunks_exact(k.max(1))
            .zip(out.chunks_exact_mut(n))
            .take(m)
        {
            for (p, &av) in arow[..k].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                axpy_f32(av, &b[p * n..(p + 1) * n], orow);
            }
        }
    }

    /// `gemm_f32` with the lhs read through its transpose: `a` is the
    /// row-major `k × m` matrix whose entry `(p, i)` is lhs entry `(i, p)`.
    pub fn gemm_f32_lhs_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        super::check_gemm_f32(m, k, n, a, out);
        assert!(b.len() >= k * n, "gemm: rhs slice too short");
        if n == 0 {
            return;
        }
        for (i, orow) in out.chunks_exact_mut(n).take(m).enumerate() {
            for p in 0..k {
                let av = a[p * m + i];
                if av == 0.0 {
                    continue;
                }
                axpy_f32(av, &b[p * n..(p + 1) * n], orow);
            }
        }
    }

    /// The loop-nest oracle of every tier's `conv_f32`: per filter, taps in
    /// ascending `(ic, ky, kx)` order (exact-zero weights skipped), each
    /// added to every output pixel.
    pub fn conv_f32(g: &super::PaddedConv, weight: &[f32], image: &[f32], out: &mut [f32]) {
        g.check(weight, image, out);
        let (oh, ow) = g.out_size();
        let (k, s) = (g.kernel, g.stride);
        let filters = weight.chunks_exact(g.depth().max(1));
        for (filter, plane) in filters.zip(out.chunks_exact_mut(oh * ow)).take(g.out_c) {
            for (tap, &wv) in filter[..g.depth()].iter().enumerate() {
                if wv == 0.0 {
                    continue;
                }
                let (ic, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
                for (oy, orow) in plane.chunks_exact_mut(ow).enumerate() {
                    let irow = &image[(ic * g.hp + oy * s + ky) * g.wp + kx..];
                    // Stride 1 as a plain zip, which the compiler vectorizes
                    // (element-wise, so still exact).
                    if s == 1 {
                        for (o, &x) in orow.iter_mut().zip(&irow[..ow]) {
                            *o += wv * x;
                        }
                    } else {
                        for (o, &x) in orow.iter_mut().zip(irow.iter().step_by(s)) {
                            *o += wv * x;
                        }
                    }
                }
            }
        }
    }

    pub fn quantize_f32(
        src: &[f32],
        scale: f32,
        q_min: f32,
        q_max: f32,
        mask: u32,
        out: &mut [u32],
    ) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = (super::round_half_away((v / scale).clamp(q_min, q_max)) as u32) & mask;
        }
    }

    pub fn abs_max(data: &[f32]) -> u32 {
        // As `i32`, which baseline x86-64 compares in vectors.
        let patterns = data.iter().map(|x| (x.to_bits() & 0x7fff_ffff) as i32);
        patterns.fold(0, i32::max) as u32
    }

    /// Folds every window of `g` in row-major `(ky, kx)` order from `init`
    /// by `step`, and writes `finish` of the fold to its output.
    fn pool<T: Copy, A: Copy>(
        g: &super::Pool2d,
        input: &[T],
        out: &mut [f32],
        init: A,
        step: impl Fn(A, T) -> A,
        finish: impl Fn(A) -> f32,
    ) {
        g.check(input.len(), out.len());
        let (oh, ow) = g.out_size();
        let (w, s) = (g.w, g.stride);
        let mut o = 0;
        for ch in 0..g.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let top = (ch * g.h + oy * s) * w + ox * s;
                    let mut m = init;
                    for ky in 0..g.size {
                        for kx in 0..g.size {
                            m = step(m, input[top + ky * w + kx]);
                        }
                    }
                    out[o] = finish(m);
                    o += 1;
                }
            }
        }
    }

    pub fn maxpool_f32(g: &super::Pool2d, input: &[f32], out: &mut [f32]) {
        let step = |m: f32, x: f32| if x > m { x } else { m };
        pool(g, input, out, f32::NEG_INFINITY, step, |m| m);
    }

    pub fn maxpool_quant(g: &super::Pool2d, words: &[u32], bits: u32, scale: f32, out: &mut [f32]) {
        assert!((1..=32).contains(&bits), "maxpool: bad word width {bits}");
        let shift = 32 - bits;
        let step = |m: i32, w: u32| m.max(((w << shift) as i32) >> shift);
        pool(g, words, out, i32::MIN, step, |m| m as f32 * scale);
    }
}

/// 128-bit kernels. SSE2 is part of the x86-64 baseline, so these need no
/// runtime check; they are still routed through the table so `EDEN_ISA`
/// can select them explicitly.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    impl super::I16Lanes for __m128i {
        const W: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm_setzero_si128()
        }
        #[inline(always)]
        unsafe fn load_i16(p: *const i16) -> Self {
            _mm_loadu_si128(p as *const __m128i)
        }
        #[inline(always)]
        unsafe fn load_i8(p: *const i8) -> Self {
            // The SSE2 spelling of `pmovsxbw`: duplicate-unpack the eight
            // bytes, then shift each i16 lane right arithmetically.
            let v = _mm_loadl_epi64(p as *const __m128i);
            _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8)
        }
        #[inline(always)]
        unsafe fn madd(a: Self, b: Self) -> Self {
            _mm_madd_epi16(a, b)
        }
        #[inline(always)]
        unsafe fn add_i32(a: Self, b: Self) -> Self {
            _mm_add_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn split_biased(r: Self) -> (Self, Self) {
            let v = _mm_add_epi32(r, _mm_set1_epi32(super::PAIR_BIAS));
            (
                _mm_srli_epi32(v, 16),
                _mm_and_si128(v, _mm_set1_epi32(0xffff)),
            )
        }
        #[inline(always)]
        unsafe fn hsum4([c0, c1, c2, c3]: [Self; 4]) -> __m128i {
            // A 4×4 transpose by unpacks, then adds.
            let s01 = _mm_add_epi32(_mm_unpacklo_epi32(c0, c1), _mm_unpackhi_epi32(c0, c1));
            let s23 = _mm_add_epi32(_mm_unpacklo_epi32(c2, c3), _mm_unpackhi_epi32(c2, c3));
            _mm_add_epi32(_mm_unpacklo_epi64(s01, s23), _mm_unpackhi_epi64(s01, s23))
        }
    }

    // SSE2 is part of the x86-64 baseline, so the shared bodies need no
    // target-feature entry point here.
    pub fn gemm2_i8(a0: &[i8], a1: &[i8], bt: &[i8], k: usize, out0: &mut [i32], out1: &mut [i32]) {
        let body = super::WidenI8::<__m128i>(PhantomData);
        super::gemm2_panel(body, a0, a1, bt, k, out0, out1);
    }

    pub fn gemm2_i16(
        a0: &[i16],
        a1: &[i16],
        bt: &[i16],
        k: usize,
        out0: &mut [i64],
        out1: &mut [i64],
    ) {
        let body = super::SplitI16::<__m128i>(PhantomData);
        super::gemm2_panel(body, a0, a1, bt, k, out0, out1);
    }

    pub fn axpy_f32(a: f32, b: &[f32], out: &mut [f32]) {
        super::axpy_f32_lanes::<__m128>(a, b, out);
    }

    impl super::F32Lanes for __m128 {
        const W: usize = 4;
        type Mask = __m128;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn splat(a: f32) -> Self {
            _mm_set1_ps(a)
        }
        #[inline(always)]
        unsafe fn nonzero(self) -> __m128 {
            // `cmpneq` is the unordered compare: true for NaN.
            _mm_cmpneq_ps(self, _mm_setzero_ps())
        }
        #[inline(always)]
        unsafe fn mul_add(acc: Self, a: Self, b: Self) -> Self {
            _mm_add_ps(acc, _mm_mul_ps(a, b))
        }
        #[inline(always)]
        unsafe fn mul_add_where(acc: Self, a: Self, b: Self, keep: __m128) -> Self {
            let sum = _mm_add_ps(acc, _mm_mul_ps(a, b));
            _mm_or_ps(_mm_and_ps(keep, sum), _mm_andnot_ps(keep, acc))
        }
    }

    pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        super::gemm_f32_dense::<__m128, super::RowMajor>(m, k, n, a, b, out);
    }

    pub fn gemm_f32_lhs_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        super::gemm_f32_dense::<__m128, super::Transposed>(m, k, n, a, b, out);
    }

    pub fn conv_f32(g: &super::PaddedConv, weight: &[f32], image: &[f32], out: &mut [f32]) {
        super::conv_f32_tiled::<__m128>(g, weight, image, out);
    }

    pub fn quantize_f32(
        src: &[f32],
        scale: f32,
        q_min: f32,
        q_max: f32,
        mask: u32,
        out: &mut [u32],
    ) {
        let n = src.len().min(out.len());
        let body = n - n % 4;
        // SAFETY: SSE2 is part of the x86-64 baseline; every load and store
        // covers lanes `[p, p + 4)` with `p + 4 ≤ body ≤` both lengths.
        unsafe {
            let (vs, lo, hi) = (_mm_set1_ps(scale), _mm_set1_ps(q_min), _mm_set1_ps(q_max));
            let (half, neg_half) = (_mm_set1_ps(0.5), _mm_set1_ps(-0.5));
            let vmask = _mm_set1_epi32(mask as i32);
            for p in (0..body).step_by(4) {
                let x = _mm_div_ps(_mm_loadu_ps(src.as_ptr().add(p)), vs);
                // `f32::clamp` order; `max(lo, x)` and `min(hi, x)` return
                // `x` when it is NaN.
                let x = _mm_min_ps(hi, _mm_max_ps(lo, x));
                // NaN lanes → +0.0, so the truncation yields the scalar 0.
                let x = _mm_and_ps(x, _mm_cmpeq_ps(x, x));
                let t = _mm_cvttps_epi32(x);
                let frac = _mm_sub_ps(x, _mm_cvtepi32_ps(t));
                // Compare masks are −1 where true: `t − up + down`.
                let up = _mm_castps_si128(_mm_cmpge_ps(frac, half));
                let down = _mm_castps_si128(_mm_cmple_ps(frac, neg_half));
                let q = _mm_add_epi32(_mm_sub_epi32(t, up), down);
                _mm_storeu_si128(
                    out.as_mut_ptr().add(p) as *mut __m128i,
                    _mm_and_si128(q, vmask),
                );
            }
        }
        super::scalar::quantize_f32(&src[body..n], scale, q_min, q_max, mask, &mut out[body..n]);
    }

    impl super::U32Lanes for __m128i {
        const W: usize = 4;
        #[inline(always)]
        unsafe fn splat(x: u32) -> Self {
            _mm_set1_epi32(x as i32)
        }
        #[inline(always)]
        unsafe fn load(p: *const u32, n: usize) -> Self {
            if n == 4 {
                return _mm_loadu_si128(p as *const __m128i);
            }
            // SSE2 has no masked load: a partial vector goes through the
            // stack.
            let mut lanes = [0u32; 4];
            std::ptr::copy_nonoverlapping(p, lanes.as_mut_ptr(), n);
            _mm_loadu_si128(lanes.as_ptr() as *const __m128i)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u32, n: usize) {
            if n == 4 {
                return _mm_storeu_si128(p as *mut __m128i, self);
            }
            let mut lanes = [0u32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, self);
            std::ptr::copy_nonoverlapping(lanes.as_ptr(), p, n);
        }
        #[inline(always)]
        unsafe fn even(a: Self, b: Self) -> Self {
            let (a, b) = (_mm_castsi128_ps(a), _mm_castsi128_ps(b));
            _mm_castps_si128(_mm_shuffle_ps::<0b10_00_10_00>(a, b))
        }
        #[inline(always)]
        unsafe fn and(self, b: Self) -> Self {
            _mm_and_si128(self, b)
        }
        #[inline(always)]
        unsafe fn max_i32(x: Self, m: Self) -> Self {
            // SSE2 has no `pmaxsd`: select by the compare mask.
            let gt = _mm_cmpgt_epi32(x, m);
            _mm_or_si128(_mm_and_si128(gt, x), _mm_andnot_si128(gt, m))
        }
        #[inline(always)]
        unsafe fn max_f32(x: Self, m: Self) -> Self {
            _mm_castps_si128(_mm_max_ps(_mm_castsi128_ps(x), _mm_castsi128_ps(m)))
        }
        #[inline(always)]
        unsafe fn sign_extend(self, shift: u32) -> Self {
            let count = _mm_cvtsi32_si128(shift as i32);
            _mm_sra_epi32(_mm_sll_epi32(self, count), count)
        }
        #[inline(always)]
        unsafe fn scale_i32(self, scale: f32) -> Self {
            _mm_castps_si128(_mm_mul_ps(_mm_cvtepi32_ps(self), _mm_set1_ps(scale)))
        }
    }

    pub fn abs_max(data: &[f32]) -> u32 {
        super::abs_max_lanes::<__m128i>(data)
    }

    pub fn maxpool_f32(g: &super::Pool2d, input: &[f32], out: &mut [f32]) {
        super::maxpool_f32_lanes::<__m128i>(g, input, out);
    }

    pub fn maxpool_quant(g: &super::Pool2d, words: &[u32], bits: u32, scale: f32, out: &mut [f32]) {
        super::maxpool_quant_lanes::<__m128i>(g, words, bits, scale, out);
    }
}

/// 256-bit AVX2 kernels. Only reachable through [`kernels_for`], which
/// verifies `avx2` support first.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    impl super::I16Lanes for __m256i {
        const W: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_si256()
        }
        #[inline(always)]
        unsafe fn load_i16(p: *const i16) -> Self {
            _mm256_loadu_si256(p as *const __m256i)
        }
        #[inline(always)]
        unsafe fn load_i8(p: *const i8) -> Self {
            _mm256_cvtepi8_epi16(_mm_loadu_si128(p as *const __m128i))
        }
        #[inline(always)]
        unsafe fn madd(a: Self, b: Self) -> Self {
            _mm256_madd_epi16(a, b)
        }
        #[inline(always)]
        unsafe fn add_i32(a: Self, b: Self) -> Self {
            _mm256_add_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn split_biased(r: Self) -> (Self, Self) {
            let v = _mm256_add_epi32(r, _mm256_set1_epi32(super::PAIR_BIAS));
            (
                _mm256_srli_epi32(v, 16),
                _mm256_and_si256(v, _mm256_set1_epi32(0xffff)),
            )
        }
        #[inline(always)]
        unsafe fn hsum4([c0, c1, c2, c3]: [Self; 4]) -> __m128i {
            // Two `hadd` levels, then the two 128-bit halves: ~6
            // instructions for what four separate reductions spend ~24 on.
            let t = _mm256_hadd_epi32(_mm256_hadd_epi32(c0, c1), _mm256_hadd_epi32(c2, c3));
            _mm_add_epi32(_mm256_castsi256_si128(t), _mm256_extracti128_si256(t, 1))
        }
    }

    /// [`super::gemm2_panel`] compiled with AVX2 enabled.
    #[target_feature(enable = "avx2")]
    unsafe fn panel<B: super::PanelBody>(
        body: B,
        a0: &[B::T],
        a1: &[B::T],
        bt: &[B::T],
        k: usize,
        out0: &mut [B::A],
        out1: &mut [B::A],
    ) {
        super::gemm2_panel(body, a0, a1, bt, k, out0, out1);
    }

    pub fn gemm2_i8(a0: &[i8], a1: &[i8], bt: &[i8], k: usize, out0: &mut [i32], out1: &mut [i32]) {
        let body = super::WidenI8::<__m256i>(PhantomData);
        // SAFETY: this table entry is only constructed after `avx2` was
        // runtime-detected.
        unsafe { panel(body, a0, a1, bt, k, out0, out1) }
    }

    pub fn gemm2_i16(
        a0: &[i16],
        a1: &[i16],
        bt: &[i16],
        k: usize,
        out0: &mut [i64],
        out1: &mut [i64],
    ) {
        let body = super::SplitI16::<__m256i>(PhantomData);
        // SAFETY: as `gemm2_i8`.
        unsafe { panel(body, a0, a1, bt, k, out0, out1) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn axpy_f32_impl(a: f32, b: &[f32], out: &mut [f32]) {
        super::axpy_f32_lanes::<__m256>(a, b, out);
    }

    pub fn axpy_f32(a: f32, b: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm2_i8`.
        unsafe { axpy_f32_impl(a, b, out) }
    }

    impl super::F32Lanes for __m256 {
        const W: usize = 8;
        type Mask = __m256;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn splat(a: f32) -> Self {
            _mm256_set1_ps(a)
        }
        #[inline(always)]
        unsafe fn nonzero(self) -> __m256 {
            _mm256_cmp_ps(self, _mm256_setzero_ps(), _CMP_NEQ_UQ)
        }
        #[inline(always)]
        unsafe fn mul_add(acc: Self, a: Self, b: Self) -> Self {
            _mm256_add_ps(acc, _mm256_mul_ps(a, b))
        }
        #[inline(always)]
        unsafe fn mul_add_where(acc: Self, a: Self, b: Self, keep: __m256) -> Self {
            _mm256_blendv_ps(acc, _mm256_add_ps(acc, _mm256_mul_ps(a, b)), keep)
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_f32_impl(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        super::gemm_f32_dense::<__m256, super::RowMajor>(m, k, n, a, b, out);
    }

    pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: this table entry is only constructed after `avx2` was
        // runtime-detected.
        unsafe { gemm_f32_impl(m, k, n, a, b, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_f32_lhs_t_impl(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        super::gemm_f32_dense::<__m256, super::Transposed>(m, k, n, a, b, out);
    }

    pub fn gemm_f32_lhs_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { gemm_f32_lhs_t_impl(m, k, n, a, b, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn conv_f32_impl(g: &super::PaddedConv, weight: &[f32], image: &[f32], out: &mut [f32]) {
        super::conv_f32_tiled::<__m256>(g, weight, image, out);
    }

    pub fn conv_f32(g: &super::PaddedConv, weight: &[f32], image: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { conv_f32_impl(g, weight, image, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn quantize_f32_impl(
        src: &[f32],
        scale: f32,
        q_min: f32,
        q_max: f32,
        mask: u32,
        out: &mut [u32],
    ) {
        let n = src.len().min(out.len());
        let body = n - n % 8;
        let (vs, lo, hi) = (
            _mm256_set1_ps(scale),
            _mm256_set1_ps(q_min),
            _mm256_set1_ps(q_max),
        );
        let (half, neg_half) = (_mm256_set1_ps(0.5), _mm256_set1_ps(-0.5));
        let vmask = _mm256_set1_epi32(mask as i32);
        for p in (0..body).step_by(8) {
            let x = _mm256_div_ps(_mm256_loadu_ps(src.as_ptr().add(p)), vs);
            // As the SSE2 table: clamp in `f32::clamp` order passing NaN
            // through, NaN lanes → +0.0, truncate, ±0.5 fix-up.
            let x = _mm256_min_ps(hi, _mm256_max_ps(lo, x));
            let x = _mm256_and_ps(x, _mm256_cmp_ps(x, x, _CMP_EQ_OQ));
            let t = _mm256_cvttps_epi32(x);
            let frac = _mm256_sub_ps(x, _mm256_cvtepi32_ps(t));
            let up = _mm256_castps_si256(_mm256_cmp_ps(frac, half, _CMP_GE_OQ));
            let down = _mm256_castps_si256(_mm256_cmp_ps(frac, neg_half, _CMP_LE_OQ));
            let q = _mm256_add_epi32(_mm256_sub_epi32(t, up), down);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(p) as *mut __m256i,
                _mm256_and_si256(q, vmask),
            );
        }
        super::scalar::quantize_f32(&src[body..n], scale, q_min, q_max, mask, &mut out[body..n]);
    }

    pub fn quantize_f32(
        src: &[f32],
        scale: f32,
        q_min: f32,
        q_max: f32,
        mask: u32,
        out: &mut [u32],
    ) {
        // SAFETY: as `gemm_f32`; loads and stores stay below `body`.
        unsafe { quantize_f32_impl(src, scale, q_min, q_max, mask, out) }
    }

    /// The `vpmaskmovd` mask of lanes `[0, n)`.
    #[inline(always)]
    unsafe fn first(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    impl super::U32Lanes for __m256i {
        const W: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: u32) -> Self {
            _mm256_set1_epi32(x as i32)
        }
        #[inline(always)]
        unsafe fn load(p: *const u32, n: usize) -> Self {
            if n == 8 {
                return _mm256_loadu_si256(p as *const __m256i);
            }
            _mm256_maskload_epi32(p as *const i32, first(n))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u32, n: usize) {
            if n == 8 {
                return _mm256_storeu_si256(p as *mut __m256i, self);
            }
            _mm256_maskstore_epi32(p as *mut i32, first(n), self)
        }
        #[inline(always)]
        unsafe fn even(a: Self, b: Self) -> Self {
            // Per 128-bit half `[a0 a2 b0 b2]`, then the 64-bit pairs
            // reordered to `a`'s evens before `b`'s.
            let (a, b) = (_mm256_castsi256_ps(a), _mm256_castsi256_ps(b));
            let halves = _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(a, b));
            _mm256_permute4x64_epi64::<0b11_01_10_00>(halves)
        }
        #[inline(always)]
        unsafe fn and(self, b: Self) -> Self {
            _mm256_and_si256(self, b)
        }
        #[inline(always)]
        unsafe fn max_i32(x: Self, m: Self) -> Self {
            _mm256_max_epi32(x, m)
        }
        #[inline(always)]
        unsafe fn max_f32(x: Self, m: Self) -> Self {
            _mm256_castps_si256(_mm256_max_ps(
                _mm256_castsi256_ps(x),
                _mm256_castsi256_ps(m),
            ))
        }
        #[inline(always)]
        unsafe fn sign_extend(self, shift: u32) -> Self {
            let count = _mm_cvtsi32_si128(shift as i32);
            _mm256_sra_epi32(_mm256_sll_epi32(self, count), count)
        }
        #[inline(always)]
        unsafe fn scale_i32(self, scale: f32) -> Self {
            _mm256_castps_si256(_mm256_mul_ps(
                _mm256_cvtepi32_ps(self),
                _mm256_set1_ps(scale),
            ))
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn abs_max_impl(data: &[f32]) -> u32 {
        super::abs_max_lanes::<__m256i>(data)
    }

    pub fn abs_max(data: &[f32]) -> u32 {
        // SAFETY: as `gemm_f32`.
        unsafe { abs_max_impl(data) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn maxpool_f32_impl(g: &super::Pool2d, input: &[f32], out: &mut [f32]) {
        super::maxpool_f32_lanes::<__m256i>(g, input, out);
    }

    pub fn maxpool_f32(g: &super::Pool2d, input: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { maxpool_f32_impl(g, input, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn maxpool_quant_impl(
        g: &super::Pool2d,
        words: &[u32],
        bits: u32,
        scale: f32,
        out: &mut [f32],
    ) {
        super::maxpool_quant_lanes::<__m256i>(g, words, bits, scale, out);
    }

    pub fn maxpool_quant(g: &super::Pool2d, words: &[u32], bits: u32, scale: f32, out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { maxpool_quant_impl(g, words, bits, scale, out) }
    }
}

/// 512-bit kernels (`avx512f` + `avx512bw`). Only reachable through
/// [`kernels_for`], which verifies support first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    impl super::I16Lanes for __m512i {
        const W: usize = 32;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_si512()
        }
        #[inline(always)]
        unsafe fn load_i16(p: *const i16) -> Self {
            _mm512_loadu_si512(p as *const __m512i)
        }
        #[inline(always)]
        unsafe fn load_i8(p: *const i8) -> Self {
            _mm512_cvtepi8_epi16(_mm256_loadu_si256(p as *const __m256i))
        }
        #[inline(always)]
        unsafe fn madd(a: Self, b: Self) -> Self {
            _mm512_madd_epi16(a, b)
        }
        #[inline(always)]
        unsafe fn add_i32(a: Self, b: Self) -> Self {
            _mm512_add_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn split_biased(r: Self) -> (Self, Self) {
            let v = _mm512_add_epi32(r, _mm512_set1_epi32(super::PAIR_BIAS));
            (
                _mm512_srli_epi32(v, 16),
                _mm512_and_si512(v, _mm512_set1_epi32(0xffff)),
            )
        }
        #[inline(always)]
        unsafe fn hsum4(c: [Self; 4]) -> __m128i {
            // Fold each accumulator to 8 lanes, then the AVX2 reduction
            // (AVX-512 entry points enable `avx2` too).
            let mut folded = [_mm256_setzero_si256(); 4];
            for (f, v) in folded.iter_mut().zip(c) {
                *f = _mm256_add_epi32(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1));
            }
            super::I16Lanes::hsum4(folded)
        }
    }

    /// [`super::gemm2_panel`] compiled with AVX-512 (and AVX2) enabled.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx2")]
    unsafe fn panel<B: super::PanelBody>(
        body: B,
        a0: &[B::T],
        a1: &[B::T],
        bt: &[B::T],
        k: usize,
        out0: &mut [B::A],
        out1: &mut [B::A],
    ) {
        super::gemm2_panel(body, a0, a1, bt, k, out0, out1);
    }

    pub fn gemm2_i8(a0: &[i8], a1: &[i8], bt: &[i8], k: usize, out0: &mut [i32], out1: &mut [i32]) {
        let body = super::WidenI8::<__m512i>(PhantomData);
        // SAFETY: this table entry is only constructed after `avx512f` and
        // `avx512bw` were runtime-detected (AVX-512 implies AVX2).
        unsafe { panel(body, a0, a1, bt, k, out0, out1) }
    }

    /// The AVX512-VNNI `vpdpbusd` i8 body: rhs bytes are biased to unsigned
    /// on load (`b ^ 0x80 = b + 128`), one instruction fuses 64 u8×i8 MACs
    /// (4× the `vpmaddwd` form's per-instruction throughput, with no
    /// widening converts), and the bias is removed exactly afterwards via
    /// `Σ(b+128)·a = Σa·b + 128·Σa` — all in i32, so the result is
    /// bit-identical to the signed form. `sub` holds each lhs row's `128·Σa`
    /// over the vectorized prefix (the scalar tail multiplies unbiased bytes,
    /// so it needs no correction).
    #[derive(Clone, Copy)]
    struct Vnni {
        sub: [i32; 2],
    }

    impl super::PanelBody for Vnni {
        type T = i8;
        type A = i32;
        const STEP: usize = 64;

        #[inline(always)]
        unsafe fn block<const C: usize>(
            self,
            a: [*const i8; 2],
            b: [*const i8; C],
            k: usize,
        ) -> [[i32; C]; 2] {
            let flip = _mm512_set1_epi8(-128);
            let mut acc = [[_mm512_setzero_si512(); C]; 2];
            for p in (0..k).step_by(64) {
                let va = [
                    _mm512_loadu_si512(a[0].add(p) as *const __m512i),
                    _mm512_loadu_si512(a[1].add(p) as *const __m512i),
                ];
                let mut vb = [flip; C];
                for (v, &col) in vb.iter_mut().zip(&b) {
                    *v = _mm512_xor_si512(_mm512_loadu_si512(col.add(p) as *const __m512i), flip);
                }
                for (row, &x) in acc.iter_mut().zip(&va) {
                    for (c, &y) in row.iter_mut().zip(&vb) {
                        *c = _mm512_dpbusd_epi32(*c, y, x);
                    }
                }
            }
            let mut sums = super::hsum_2xc(acc);
            for (row, sub) in sums.iter_mut().zip(self.sub) {
                for s in row {
                    *s -= sub;
                }
            }
            sums
        }
    }

    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512vnni",
        enable = "avx2"
    )]
    unsafe fn gemm2_i8_vnni_impl(
        a0: &[i8],
        a1: &[i8],
        bt: &[i8],
        k: usize,
        out0: &mut [i32],
        out1: &mut [i32],
    ) {
        let body = k - k % 64;
        let sub = [a0, a1].map(|a| 128 * a[..body].iter().map(|&x| x as i32).sum::<i32>());
        super::gemm2_panel(Vnni { sub }, a0, a1, bt, k, out0, out1);
    }

    pub fn gemm2_i8_vnni(
        a0: &[i8],
        a1: &[i8],
        bt: &[i8],
        k: usize,
        out0: &mut [i32],
        out1: &mut [i32],
    ) {
        // SAFETY: as `gemm2_i8`; only installed in the table when
        // `avx512vnni` is detected.
        unsafe { gemm2_i8_vnni_impl(a0, a1, bt, k, out0, out1) }
    }

    pub fn gemm2_i16(
        a0: &[i16],
        a1: &[i16],
        bt: &[i16],
        k: usize,
        out0: &mut [i64],
        out1: &mut [i64],
    ) {
        let body = super::SplitI16::<__m512i>(PhantomData);
        // SAFETY: as `gemm2_i8`.
        unsafe { panel(body, a0, a1, bt, k, out0, out1) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_f32_impl(a: f32, b: &[f32], out: &mut [f32]) {
        super::axpy_f32_lanes::<__m512>(a, b, out);
    }

    pub fn axpy_f32(a: f32, b: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm2_i8` (only `avx512f` is needed here).
        unsafe { axpy_f32_impl(a, b, out) }
    }

    impl super::F32Lanes for __m512 {
        const W: usize = 16;
        type Mask = __mmask16;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn splat(a: f32) -> Self {
            _mm512_set1_ps(a)
        }
        #[inline(always)]
        unsafe fn nonzero(self) -> __mmask16 {
            _mm512_cmp_ps_mask(self, _mm512_setzero_ps(), _CMP_NEQ_UQ)
        }
        #[inline(always)]
        unsafe fn mul_add(acc: Self, a: Self, b: Self) -> Self {
            _mm512_add_ps(acc, _mm512_mul_ps(a, b))
        }
        #[inline(always)]
        unsafe fn mul_add_where(acc: Self, a: Self, b: Self, keep: __mmask16) -> Self {
            _mm512_mask_add_ps(acc, keep, acc, _mm512_mul_ps(a, b))
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_f32_impl(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        super::gemm_f32_dense::<__m512, super::RowMajor>(m, k, n, a, b, out);
    }

    pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: this table entry is only constructed after `avx512f` was
        // runtime-detected.
        unsafe { gemm_f32_impl(m, k, n, a, b, out) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_f32_lhs_t_impl(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        super::gemm_f32_dense::<__m512, super::Transposed>(m, k, n, a, b, out);
    }

    pub fn gemm_f32_lhs_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { gemm_f32_lhs_t_impl(m, k, n, a, b, out) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn conv_f32_impl(g: &super::PaddedConv, weight: &[f32], image: &[f32], out: &mut [f32]) {
        super::conv_f32_tiled::<__m512>(g, weight, image, out);
    }

    pub fn conv_f32(g: &super::PaddedConv, weight: &[f32], image: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { conv_f32_impl(g, weight, image, out) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn quantize_f32_impl(
        src: &[f32],
        scale: f32,
        q_min: f32,
        q_max: f32,
        mask: u32,
        out: &mut [u32],
    ) {
        let n = src.len().min(out.len());
        let body = n - n % 16;
        let (vs, lo, hi) = (
            _mm512_set1_ps(scale),
            _mm512_set1_ps(q_min),
            _mm512_set1_ps(q_max),
        );
        let (half, neg_half) = (_mm512_set1_ps(0.5), _mm512_set1_ps(-0.5));
        let (one, vmask) = (_mm512_set1_epi32(1), _mm512_set1_epi32(mask as i32));
        for p in (0..body).step_by(16) {
            let x = _mm512_div_ps(_mm512_loadu_ps(src.as_ptr().add(p)), vs);
            // As the SSE2 table: clamp in `f32::clamp` order passing NaN
            // through, NaN lanes → +0.0, truncate, ±0.5 fix-up.
            let x = _mm512_min_ps(hi, _mm512_max_ps(lo, x));
            let x = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(x, x, _CMP_ORD_Q), x);
            let t = _mm512_cvttps_epi32(x);
            let frac = _mm512_sub_ps(x, _mm512_cvtepi32_ps(t));
            let t = _mm512_mask_add_epi32(t, _mm512_cmp_ps_mask(frac, half, _CMP_GE_OQ), t, one);
            let t =
                _mm512_mask_sub_epi32(t, _mm512_cmp_ps_mask(frac, neg_half, _CMP_LE_OQ), t, one);
            _mm512_storeu_si512(
                out.as_mut_ptr().add(p) as *mut __m512i,
                _mm512_and_si512(t, vmask),
            );
        }
        super::scalar::quantize_f32(&src[body..n], scale, q_min, q_max, mask, &mut out[body..n]);
    }

    pub fn quantize_f32(
        src: &[f32],
        scale: f32,
        q_min: f32,
        q_max: f32,
        mask: u32,
        out: &mut [u32],
    ) {
        // SAFETY: as `gemm_f32`; loads and stores stay below `body`.
        unsafe { quantize_f32_impl(src, scale, q_min, q_max, mask, out) }
    }

    /// The write mask of lanes `[0, n)`.
    #[inline(always)]
    fn first(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    impl super::U32Lanes for __m512i {
        const W: usize = 16;
        #[inline(always)]
        unsafe fn splat(x: u32) -> Self {
            _mm512_set1_epi32(x as i32)
        }
        #[inline(always)]
        unsafe fn load(p: *const u32, n: usize) -> Self {
            if n == 16 {
                return _mm512_loadu_si512(p as *const __m512i);
            }
            _mm512_maskz_loadu_epi32(first(n), p as *const i32)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u32, n: usize) {
            if n == 16 {
                return _mm512_storeu_si512(p as *mut __m512i, self);
            }
            _mm512_mask_storeu_epi32(p as *mut i32, first(n), self)
        }
        #[inline(always)]
        unsafe fn even(a: Self, b: Self) -> Self {
            let evens =
                _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            _mm512_permutex2var_epi32(a, evens, b)
        }
        #[inline(always)]
        unsafe fn and(self, b: Self) -> Self {
            _mm512_and_si512(self, b)
        }
        #[inline(always)]
        unsafe fn max_i32(x: Self, m: Self) -> Self {
            _mm512_max_epi32(x, m)
        }
        #[inline(always)]
        unsafe fn max_f32(x: Self, m: Self) -> Self {
            _mm512_castps_si512(_mm512_max_ps(
                _mm512_castsi512_ps(x),
                _mm512_castsi512_ps(m),
            ))
        }
        #[inline(always)]
        unsafe fn sign_extend(self, shift: u32) -> Self {
            let count = _mm_cvtsi32_si128(shift as i32);
            _mm512_sra_epi32(_mm512_sll_epi32(self, count), count)
        }
        #[inline(always)]
        unsafe fn scale_i32(self, scale: f32) -> Self {
            _mm512_castps_si512(_mm512_mul_ps(
                _mm512_cvtepi32_ps(self),
                _mm512_set1_ps(scale),
            ))
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn abs_max_impl(data: &[f32]) -> u32 {
        super::abs_max_lanes::<__m512i>(data)
    }

    pub fn abs_max(data: &[f32]) -> u32 {
        // SAFETY: as `gemm_f32`.
        unsafe { abs_max_impl(data) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn maxpool_f32_impl(g: &super::Pool2d, input: &[f32], out: &mut [f32]) {
        super::maxpool_f32_lanes::<__m512i>(g, input, out);
    }

    pub fn maxpool_f32(g: &super::Pool2d, input: &[f32], out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { maxpool_f32_impl(g, input, out) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn maxpool_quant_impl(
        g: &super::Pool2d,
        words: &[u32],
        bits: u32,
        scale: f32,
        out: &mut [f32],
    ) {
        super::maxpool_quant_lanes::<__m512i>(g, words, bits, scale, out);
    }

    pub fn maxpool_quant(g: &super::Pool2d, words: &[u32], bits: u32, scale: f32, out: &mut [f32]) {
        // SAFETY: as `gemm_f32`.
        unsafe { maxpool_quant_impl(g, words, bits, scale, out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_parse_and_display_round_trip() {
        for isa in Isa::all() {
            assert_eq!(isa.to_string().parse::<Isa>().unwrap(), isa);
        }
        assert_eq!("AVX2".parse::<Isa>().unwrap(), Isa::Avx2);
        assert!("avx9000".parse::<Isa>().is_err());
    }

    #[test]
    fn isa_levels_are_ordered() {
        assert!(Isa::Scalar < Isa::Sse2);
        assert!(Isa::Sse2 < Isa::Avx2);
        assert!(Isa::Avx2 < Isa::Avx512);
        assert!(Isa::Scalar.is_supported());
    }

    /// The CI ISA matrix sets `EDEN_ISA` and relies on the dispatcher either
    /// honoring it or aborting — a silent fallback would make the matrix
    /// meaningless. With no override, the active table must match detection.
    #[test]
    fn active_isa_honors_eden_isa_override() {
        match std::env::var("EDEN_ISA") {
            Ok(v) => assert_eq!(
                active_isa(),
                v.parse::<Isa>().expect("EDEN_ISA must name a valid ISA"),
                "dispatcher fell back from EDEN_ISA={v}"
            ),
            Err(_) => assert_eq!(active_isa(), Isa::detect()),
        }
    }

    #[test]
    fn every_supported_table_matches_scalar_on_a_smoke_vector() {
        let a8: Vec<i8> = (0..131)
            .map(|i| ((i * 37 % 255) as i16 - 127) as i8)
            .collect();
        let b8: Vec<i8> = (0..131)
            .map(|i| ((i * 53 % 255) as i16 - 127) as i8)
            .collect();
        let bf: Vec<f32> = b8.iter().map(|&v| v as f32 * 0.37).collect();
        let mut reference_f = vec![0.5f32; bf.len()];
        scalar::axpy_f32(1.25, &bf, &mut reference_f);
        // One column: rows `a8` and `b8` against the column `b8`.
        let one_column = |k: &Kernels| {
            let (mut out0, mut out1) = ([0i32], [0i32]);
            (k.gemm2_i8)(&a8, &b8, &b8, b8.len(), &mut out0, &mut out1);
            (out0, out1)
        };
        let reference = one_column(&kernels_for(Isa::Scalar));
        for isa in Isa::all().into_iter().filter(|i| i.is_supported()) {
            let k = kernels_for(isa);
            assert_eq!(one_column(&k), reference, "{isa} gemm2_i8 at one column");
            let mut got_f = vec![0.5f32; bf.len()];
            (k.axpy_f32)(1.25, &bf, &mut got_f);
            assert_eq!(got_f, reference_f, "{isa} axpy_f32");
        }
    }

    /// Every ISA's panel kernel must reproduce the scalar sums bit for bit —
    /// across odd column counts, k values that leave scalar tails, and the
    /// full corrupted i8 domain (±128).
    #[test]
    fn gemm2_i8_matches_scalar_on_every_supported_table() {
        for (k, n) in [(1usize, 5usize), (16, 8), (27, 7), (64, 32), (108, 33)] {
            let a0: Vec<i8> = (0..k).map(|i| ((i * 97 + 13) % 256) as u8 as i8).collect();
            let a1: Vec<i8> = (0..k).map(|i| ((i * 41 + 128) % 256) as u8 as i8).collect();
            let bt: Vec<i8> = (0..n * k)
                .map(|i| ((i * 61 + 7) % 256) as u8 as i8)
                .collect();
            let mut want0 = vec![3i32; n];
            let mut want1 = vec![-5i32; n];
            scalar::gemm2_i8(&a0, &a1, &bt, k, &mut want0, &mut want1);
            for isa in Isa::all().into_iter().filter(|i| i.is_supported()) {
                let kr = kernels_for(isa);
                let mut got0 = vec![3i32; n];
                let mut got1 = vec![-5i32; n];
                (kr.gemm2_i8)(&a0, &a1, &bt, k, &mut got0, &mut got1);
                assert_eq!(got0, want0, "{isa} gemm2_i8 row0 at k={k} n={n}");
                assert_eq!(got1, want1, "{isa} gemm2_i8 row1 at k={k} n={n}");
            }
        }
    }

    /// The exactness hole that rules out the `pmaddubsw` sign-trick:
    /// `(-128)·(-128)` must come out `+16384` on every path.
    #[test]
    fn i8_kernels_are_exact_at_negative_saturation() {
        let a = vec![-128i8; 33];
        let bt = vec![-128i8; 2 * 33];
        let expected = 33 * 16384;
        for isa in Isa::all().into_iter().filter(|i| i.is_supported()) {
            let k = kernels_for(isa);
            let (mut out0, mut out1) = ([0i32], [0i32]);
            (k.gemm2_i8)(&a, &a, &bt[..33], 33, &mut out0, &mut out1);
            assert_eq!(
                (out0, out1),
                ([expected], [expected]),
                "{isa} gemm2_i8 at one column at -128×-128"
            );
            let (mut out0, mut out1) = (vec![0i32; 2], vec![0i32; 2]);
            (k.gemm2_i8)(&a, &a, &bt, 33, &mut out0, &mut out1);
            assert_eq!(
                (out0, out1),
                (vec![expected; 2], vec![expected; 2]),
                "{isa} gemm2_i8 at -128×-128"
            );
        }
    }

    /// The AVX-512 table installs the VNNI i8 panel wherever `avx512vnni` is
    /// detected, so neither the table nor the benchmarks reach the plain
    /// AVX-512 body on such a CPU: run both AVX-512 i8 entries directly
    /// against the scalar panel, on operands saturated at `−128` (mixed with
    /// the other corners), odd and even column counts, and `k` on both sides
    /// of the 32-lane (`vpmaddwd`) and 64-lane (`vpdpbusd`) widths.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_i8_panels_match_scalar_without_the_table() {
        if !Isa::Avx512.is_supported() {
            return;
        }
        let mut entries: Vec<(&str, GemmPanelFn<i8, i32>)> = vec![("avx512", avx512::gemm2_i8)];
        if std::arch::is_x86_feature_detected!("avx512vnni") {
            entries.push(("avx512 vnni", avx512::gemm2_i8_vnni));
        }
        let corners = [-128i8, -128, -128, 127, -1, -128, 0, 1, -127];
        let pick = |i: usize, mul: usize| corners[(i * mul + i / 7) % corners.len()];
        for k in [1usize, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129] {
            for n in [1usize, 2, 3, 4, 5] {
                let a0 = vec![-128i8; k];
                let a1: Vec<i8> = (0..k).map(|i| pick(i, 5)).collect();
                let bt: Vec<i8> = (0..n * k)
                    .map(|i| if i % k < k / 2 { -128 } else { pick(i, 3) })
                    .collect();
                let mut want0 = vec![7i32; n];
                let mut want1 = vec![-9i32; n];
                scalar::gemm2_i8(&a0, &a1, &bt, k, &mut want0, &mut want1);
                for (name, gemm2) in &entries {
                    let mut got0 = vec![7i32; n];
                    let mut got1 = vec![-9i32; n];
                    gemm2(&a0, &a1, &bt, k, &mut got0, &mut got1);
                    assert_eq!(got0, want0, "{name} gemm2_i8 row0 at k={k} n={n}");
                    assert_eq!(got1, want1, "{name} gemm2_i8 row1 at k={k} n={n}");
                }
            }
        }
    }

    /// Every ISA's i16 panel kernel must reproduce the scalar i64 sums —
    /// across odd column counts, k values that leave scalar tails, a k past
    /// the i64 flush block, and the full i16 domain.
    #[test]
    fn gemm2_i16_matches_scalar_on_every_supported_table() {
        for (k, n) in [
            (1usize, 5usize),
            (8, 3),
            (27, 7),
            (64, 32),
            (108, 33),
            (GEMM_I16_FLUSH_K + 37, 3),
        ] {
            let lanes = |len: usize, mul: usize, add: usize| -> Vec<i16> {
                (0..len)
                    .map(|i| ((i * mul + add) % 65536) as u16 as i16)
                    .collect()
            };
            let a0 = lanes(k, 40503, 13);
            let a1 = lanes(k, 9973, 32768);
            let bt = lanes(n * k, 25013, 7);
            let mut want0 = vec![3i64; n];
            let mut want1 = vec![-5i64; n];
            scalar::gemm2_i16(&a0, &a1, &bt, k, &mut want0, &mut want1);
            for isa in Isa::all().into_iter().filter(|i| i.is_supported()) {
                let kr = kernels_for(isa);
                let mut got0 = vec![3i64; n];
                let mut got1 = vec![-5i64; n];
                (kr.gemm2_i16)(&a0, &a1, &bt, k, &mut got0, &mut got1);
                assert_eq!(got0, want0, "{isa} gemm2_i16 row0 at k={k} n={n}");
                assert_eq!(got1, want1, "{isa} gemm2_i16 row1 at k={k} n={n}");
            }
        }
    }

    /// The one `pmaddwd` pair sum that wraps, `(−32768)² + (−32768)² = 2³¹`,
    /// in every lane of several flush blocks: each product must count
    /// `+2³⁰`.
    #[test]
    fn i16_kernels_are_exact_at_the_pmaddwd_wrap() {
        let k = 2 * GEMM_I16_FLUSH_K + 33;
        let a = vec![i16::MIN; k];
        let bt = vec![i16::MIN; 3 * k];
        let expected = k as i64 * (1 << 30);
        for isa in Isa::all().into_iter().filter(|i| i.is_supported()) {
            let kr = kernels_for(isa);
            let (mut out0, mut out1) = (vec![0i64; 3], vec![0i64; 3]);
            (kr.gemm2_i16)(&a, &a, &bt, k, &mut out0, &mut out1);
            assert_eq!(
                (out0, out1),
                (vec![expected; 3], vec![expected; 3]),
                "{isa} gemm2_i16 at -32768×-32768"
            );
        }
    }
}
