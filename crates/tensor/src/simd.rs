//! Runtime-dispatched SIMD kernels for the integer and f32 inner loops.
//!
//! The hot loops of [`crate::ops`] and [`crate::quant`] are resolved
//! **once** at first use into a table of function pointers ([`Kernels`])
//! chosen by runtime CPU feature detection
//! (`std::arch::is_x86_feature_detected!`), walking down
//! [`Isa::Avx512`] → [`Isa::Avx2`] → [`Isa::Sse2`] → [`Isa::Scalar`]. The
//! table holds:
//!
//! * `dot_i8`: the widening i8 dot product (the odd last row of
//!   [`crate::ops::gemm_i8_packed`]);
//! * `gemm2_i8` and `gemm2_i16`: the two-row panel kernels behind
//!   [`crate::ops::gemm_i8_packed`] and [`crate::ops::gemm_i16_packed`];
//! * `axpy_f32`: the f32 row update `out += a·b` behind
//!   [`crate::Tensor::axpy`];
//! * `gemm_f32`: the register-tiled f32 GEMM behind [`crate::ops::gemm`]
//!   and [`crate::ops::gemm_batch`];
//! * `quantize_f32`: the layer-boundary quantizer behind
//!   [`crate::quant::QuantTensor::requantize_from`].
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
//!   exact zero, as layer weights are, takes the unmasked tile.
//! * The quantizer is purely element-wise with no reduction: an IEEE
//!   division, a clamp whose min/max operand order passes NaN through as
//!   the scalar `f32::clamp` does, NaN lanes forced to `0` before a
//!   truncating conversion (the scalar `as i32`), and the exact `±0.5`
//!   compare fix-up of the scalar round-half-away. Every step is exactly
//!   rounded or exact, so each lane is the scalar result.
//!
//! The int8 dot products deliberately avoid the classic `pmaddubsw`
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

/// The stored words of linearly quantized f32 values:
/// `out[i] = round_half_away(clamp(src[i] / scale, q_min, q_max)) as u32 &
/// mask`, with NaN (which the clamp passes through) rounding to `0`.
/// `q_min ≤ q_max` must be integers in the `i32` range, so every clamped
/// value truncates in range. Arguments: `(src, scale, q_min, q_max,
/// mask, out)` over the common length of `src` and `out`.
pub type QuantizeFn = fn(&[f32], f32, f32, f32, u32, &mut [u32]);

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
    /// Widening i8×i8 dot product with i32 accumulation (sign-extend +
    /// `pmaddwd`; exact for the full `[-128, 127]` corrupted domain) — the
    /// odd last row of [`crate::ops::gemm_i8_packed`].
    pub dot_i8: fn(&[i8], &[i8]) -> i32,
    /// Two-row × all-columns i8 panel GEMM over a packed transposed rhs —
    /// the batched-execution workhorse (integer accumulation, so every
    /// blocking order reproduces the scalar sums exactly).
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
    /// The integer-precision quantizer behind
    /// [`crate::quant::QuantTensor::requantize_from`] (see [`QuantizeFn`]).
    pub quantize_f32: QuantizeFn,
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
            dot_i8: scalar::dot_i8,
            gemm2_i8: scalar::gemm2_i8,
            gemm2_i16: scalar::gemm2_i16,
            axpy_f32: scalar::axpy_f32,
            gemm_f32: scalar::gemm_f32,
            quantize_f32: scalar::quantize_f32,
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => Kernels {
            isa,
            dot_i8: sse2::dot_i8,
            gemm2_i8: sse2::gemm2_i8,
            gemm2_i16: sse2::gemm2_i16,
            axpy_f32: sse2::axpy_f32,
            gemm_f32: sse2::gemm_f32,
            quantize_f32: sse2::quantize_f32,
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Kernels {
            isa,
            dot_i8: avx2::dot_i8,
            gemm2_i8: avx2::gemm2_i8,
            gemm2_i16: avx2::gemm2_i16,
            axpy_f32: avx2::axpy_f32,
            gemm_f32: avx2::gemm_f32,
            quantize_f32: avx2::quantize_f32,
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => Kernels {
            isa,
            dot_i8: avx512::dot_i8,
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
            quantize_f32: avx512::quantize_f32,
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

/// Runs a 2×2 i16 block kernel (`[a0·b0, a0·b1, a1·b0, a1·b1]` over
/// slices whose length is a whole number of `W`-lane vectors) across every
/// column pair of a transposed panel — the shared body of the SIMD tiers'
/// `gemm2_i16`. The last `k mod W` lanes are summed here in i64; an odd last
/// column pairs with itself and its duplicate sums are dropped.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel2_i16<const W: usize>(
    a0: &[i16],
    a1: &[i16],
    bt: &[i16],
    k: usize,
    out0: &mut [i64],
    out1: &mut [i64],
    block: impl Fn(&[i16], &[i16], &[i16], &[i16]) -> [i64; 4],
) {
    let n = out0.len().min(out1.len()).min(bt.len() / k.max(1));
    let (a0, a1) = (&a0[..k], &a1[..k]);
    let body = k - k % W;
    for j in (0..n).step_by(2) {
        let j1 = (j + 1).min(n - 1);
        let (b0, b1) = (&bt[j * k..(j + 1) * k], &bt[j1 * k..(j1 + 1) * k]);
        let mut s = block(&a0[..body], &a1[..body], &b0[..body], &b1[..body]);
        for i in body..k {
            let (x0, x1) = (a0[i] as i64, a1[i] as i64);
            let (y0, y1) = (b0[i] as i64, b1[i] as i64);
            s[0] += x0 * y0;
            s[1] += x0 * y1;
            s[2] += x1 * y0;
            s[3] += x1 * y1;
        }
        out0[j] += s[0];
        out1[j] += s[2];
        if j1 > j {
            out0[j1] += s[1];
            out1[j1] += s[3];
        }
    }
}

/// Panics unless the slices hold an `m×k` lhs, a `k×n` rhs and an `m×n`
/// output — the bounds every [`GemmF32Fn`] relies on.
fn check_gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &[f32]) {
    assert!(a.len() >= m * k, "gemm: lhs slice too short");
    assert!(b.len() >= k * n, "gemm: rhs slice too short");
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
/// row (a masked add); without it the lhs must hold no exact zero. Row
/// strides: `lda` for the lhs, `ldb` for the rhs, `ldo` for the output.
///
/// # Safety
///
/// The `R` lhs rows of `k` entries, the `k` rhs rows and the `R` output rows
/// of `NV·W` columns must all be in bounds.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gemm_f32_tile<V: F32Lanes, const R: usize, const NV: usize, const SKIP: bool>(
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
            let va = V::splat(*a.add(r * lda + p));
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

/// One `NV·W`-column strip of the output, `k` deep, for all `m` rows:
/// [`GEMM_F32_MR`]-row tiles, then one tile of the remaining rows (`SKIP`
/// as for [`gemm_f32_tile`]). When more than one tile shares the strip, its
/// rhs is first packed (in [`GEMM_F32_KC`]-deep panels) into `panel`, so
/// the tiles read it from L1 rather than at the rhs row stride; the panels
/// run in ascending `p`, so the accumulation order is unchanged.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gemm_f32_strip<V: F32Lanes, const NV: usize, const SKIP: bool>(
    (m, k, n): (usize, usize, usize),
    j: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    panel: &mut std::mem::MaybeUninit<[f32; GEMM_F32_KC * GEMM_F32_MAX_STRIP]>,
) {
    const MR: usize = GEMM_F32_MR;
    let width = NV * V::W;
    check_gemm_f32(m, k, n, a, b, out);
    assert!(
        width <= GEMM_F32_MAX_STRIP && j + width <= n,
        "gemm: strip outside the output"
    );
    let pack = m > MR;
    let op = out.as_mut_ptr();
    for kb in (0..k).step_by(GEMM_F32_KC) {
        let kc = (k - kb).min(GEMM_F32_KC);
        let (bp, ldb) = if pack {
            let dst = panel.as_mut_ptr() as *mut f32;
            for p in 0..kc {
                let src = &b[(kb + p) * n + j..][..width];
                // SAFETY: row `p < kc ≤ GEMM_F32_KC` of `width ≤
                // GEMM_F32_MAX_STRIP` lanes lies inside the panel; the tiles
                // below read only these `kc` written rows.
                unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst.add(p * width), width) };
            }
            (dst as *const f32, width)
        } else {
            (b[kb * n + j..].as_ptr(), n)
        };
        let ap = a[kb..].as_ptr();
        let strides = (k, ldb, n);
        // SAFETY: checked above: `a` holds `m×k`, `b` `k×n` and `out` `m×n`
        // values and `[j, j + width) ⊆ [0, n)`. Lhs rows start at `kb` and
        // run `kc ≤ k − kb` entries; the rhs is either `kc` packed rows of
        // `width` or `kc` rows of `b` at columns `[j, j + width)`, and so is
        // every output row. The caller's tier has `V`'s features.
        unsafe {
            let mut i = 0;
            while i + MR <= m {
                gemm_f32_tile::<V, MR, NV, SKIP>(kc, strides, ap.add(i * k), bp, op.add(i * n + j));
                i += MR;
            }
            let (ap, op) = (ap.add(i * k), op.add(i * n + j));
            match m - i {
                3 => gemm_f32_tile::<V, 3, NV, SKIP>(kc, strides, ap, bp, op),
                2 => gemm_f32_tile::<V, 2, NV, SKIP>(kc, strides, ap, bp, op),
                1 => gemm_f32_tile::<V, 1, NV, SKIP>(kc, strides, ap, bp, op),
                _ => {}
            }
        }
    }
}

/// Output columns `[j0, n)` (fewer than one vector) of the f32 GEMM, by
/// scalar loops that run four rows' independent accumulation chains at
/// once, each in ascending `p` with the exact-zero lhs skip — the n = 1
/// matrix–vector product of a per-sample dense layer is this loop alone.
#[cfg(target_arch = "x86_64")]
fn gemm_f32_columns(
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    for j in j0..n {
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

/// The SIMD tiers' [`GemmF32Fn`]: column strips of [`GEMM_F32_NV`] vectors
/// (the outer loop, so a strip of `b` is packed once and reused by every
/// row tile), one single-vector strip for a last whole vector, and the last
/// `n mod W` columns by [`gemm_f32_columns`]. The tiles mask their adds only
/// when the lhs holds an exact zero (one scan per call); a zero-free lhs,
/// such as a layer's weights, skips nothing. Each output element sees the
/// scalar table's accumulation chain exactly.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gemm_f32_tiled<V: F32Lanes>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    check_gemm_f32(m, k, n, a, b, out);
    let strip = GEMM_F32_NV * V::W;
    let wide = n - n % strip;
    let vectors = n - n % V::W;
    if vectors > 0 {
        // Chunked so the compare vectorizes and still stops early.
        let skip = a[..m * k]
            .chunks(64)
            .any(|c| c.iter().fold(false, |z, &x| z | (x == 0.0)));
        let panel = &mut std::mem::MaybeUninit::uninit();
        for j in (0..wide).step_by(strip) {
            if skip {
                gemm_f32_strip::<V, GEMM_F32_NV, true>((m, k, n), j, a, b, out, panel);
            } else {
                gemm_f32_strip::<V, GEMM_F32_NV, false>((m, k, n), j, a, b, out, panel);
            }
        }
        // At most GEMM_F32_NV − 1 = 1 whole vector is left.
        if vectors > wide {
            if skip {
                gemm_f32_strip::<V, 1, true>((m, k, n), wide, a, b, out, panel);
            } else {
                gemm_f32_strip::<V, 1, false>((m, k, n), wide, a, b, out, panel);
            }
        }
    }
    gemm_f32_columns(m, k, n, vectors, a, b, out);
}

/// Bit-for-bit reference implementations. Plain loops; the compiler may
/// auto-vectorize the integer reductions (associative, so still exact) but
/// never the f32 ones.
mod scalar {
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
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
        super::check_gemm_f32(m, k, n, a, b, out);
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
}

/// 128-bit kernels. SSE2 is part of the x86-64 baseline, so these need no
/// runtime check; they are still routed through the table so `EDEN_ISA`
/// can select them explicitly.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    /// i16 lanes per vector.
    const I16_LANES: usize = 8;

    /// Exact horizontal sum of the four i32 lanes.
    #[inline]
    unsafe fn hsum_epi32(v: __m128i) -> i32 {
        let hi = _mm_unpackhi_epi64(v, v);
        let s = _mm_add_epi32(v, hi);
        let sw = _mm_shuffle_epi32(s, 0b01);
        _mm_cvtsi128_si32(_mm_add_epi32(s, sw))
    }

    /// Sign-extends the low 8 i8 lanes of `v` to i16 (the SSE2 spelling of
    /// `pmovsxbw`: duplicate-unpack then arithmetic shift).
    #[inline]
    unsafe fn sx_lo_epi8(v: __m128i) -> __m128i {
        _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8)
    }

    /// Sign-extends the high 8 i8 lanes of `v` to i16.
    #[inline]
    unsafe fn sx_hi_epi8(v: __m128i) -> __m128i {
        _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8)
    }

    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        // SAFETY: SSE2 is unconditionally available on x86-64, and all
        // unaligned loads stay within the bounds checked by `n`.
        unsafe {
            let mut acc0 = _mm_setzero_si128();
            let mut acc1 = _mm_setzero_si128();
            let chunks = n / 16;
            for i in 0..chunks {
                let p = i * 16;
                let va = _mm_loadu_si128(a.as_ptr().add(p) as *const __m128i);
                let vb = _mm_loadu_si128(b.as_ptr().add(p) as *const __m128i);
                acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(sx_lo_epi8(va), sx_lo_epi8(vb)));
                acc1 = _mm_add_epi32(acc1, _mm_madd_epi16(sx_hi_epi8(va), sx_hi_epi8(vb)));
            }
            let mut sum = hsum_epi32(_mm_add_epi32(acc0, acc1));
            for i in chunks * 16..n {
                sum += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
            }
            sum
        }
    }

    /// Four simultaneous dot products over a 2×2 operand block
    /// (`a0·b0, a0·b1, a1·b0, a1·b1`): each loaded vector feeds two
    /// multiply–adds. The body of [`gemm2_i8`] at this width.
    fn block2x2_i8(a0: &[i8], a1: &[i8], b0: &[i8], b1: &[i8]) -> (i32, i32, i32, i32) {
        let n = a0.len().min(a1.len()).min(b0.len()).min(b1.len());
        // SAFETY: as `dot_i8`.
        unsafe {
            let mut c00 = _mm_setzero_si128();
            let mut c01 = _mm_setzero_si128();
            let mut c10 = _mm_setzero_si128();
            let mut c11 = _mm_setzero_si128();
            let chunks = n / 16;
            for i in 0..chunks {
                let p = i * 16;
                let va0 = _mm_loadu_si128(a0.as_ptr().add(p) as *const __m128i);
                let va1 = _mm_loadu_si128(a1.as_ptr().add(p) as *const __m128i);
                let vb0 = _mm_loadu_si128(b0.as_ptr().add(p) as *const __m128i);
                let vb1 = _mm_loadu_si128(b1.as_ptr().add(p) as *const __m128i);
                let (a0l, a0h) = (sx_lo_epi8(va0), sx_hi_epi8(va0));
                let (a1l, a1h) = (sx_lo_epi8(va1), sx_hi_epi8(va1));
                let (b0l, b0h) = (sx_lo_epi8(vb0), sx_hi_epi8(vb0));
                let (b1l, b1h) = (sx_lo_epi8(vb1), sx_hi_epi8(vb1));
                c00 = _mm_add_epi32(c00, _mm_madd_epi16(a0l, b0l));
                c00 = _mm_add_epi32(c00, _mm_madd_epi16(a0h, b0h));
                c01 = _mm_add_epi32(c01, _mm_madd_epi16(a0l, b1l));
                c01 = _mm_add_epi32(c01, _mm_madd_epi16(a0h, b1h));
                c10 = _mm_add_epi32(c10, _mm_madd_epi16(a1l, b0l));
                c10 = _mm_add_epi32(c10, _mm_madd_epi16(a1h, b0h));
                c11 = _mm_add_epi32(c11, _mm_madd_epi16(a1l, b1l));
                c11 = _mm_add_epi32(c11, _mm_madd_epi16(a1h, b1h));
            }
            let (mut s00, mut s01) = (hsum_epi32(c00), hsum_epi32(c01));
            let (mut s10, mut s11) = (hsum_epi32(c10), hsum_epi32(c11));
            for i in chunks * 16..n {
                let (x0, x1) = (*a0.get_unchecked(i) as i32, *a1.get_unchecked(i) as i32);
                let (y0, y1) = (*b0.get_unchecked(i) as i32, *b1.get_unchecked(i) as i32);
                s00 += x0 * y0;
                s01 += x0 * y1;
                s10 += x1 * y0;
                s11 += x1 * y1;
            }
            (s00, s01, s10, s11)
        }
    }

    /// `[Σc0, Σc1, Σc2, Σc3]` of four 4-lane accumulators (a 4×4 transpose
    /// by unpacks, then adds; exact — integer addition).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn hsum4_epi32(c0: __m128i, c1: __m128i, c2: __m128i, c3: __m128i) -> __m128i {
        let s01 = _mm_add_epi32(_mm_unpacklo_epi32(c0, c1), _mm_unpackhi_epi32(c0, c1));
        let s23 = _mm_add_epi32(_mm_unpacklo_epi32(c2, c3), _mm_unpackhi_epi32(c2, c3));
        _mm_add_epi32(_mm_unpacklo_epi64(s01, s23), _mm_unpackhi_epi64(s01, s23))
    }

    /// `[a0·b0, a0·b1, a1·b0, a1·b1]` over i16 slices of one length, a
    /// multiple of `W`, exact in i64 by the biased split-digit scheme of the
    /// module docs.
    #[target_feature(enable = "sse2")]
    fn block2x2_i16(a0: &[i16], a1: &[i16], b0: &[i16], b1: &[i16]) -> [i64; 4] {
        const W: usize = I16_LANES;
        let chunks = a0.len().min(a1.len()).min(b0.len()).min(b1.len()) / W;
        let mut sums = [0i64; 4];
        let bias = _mm_set1_epi32(super::PAIR_BIAS);
        let low = _mm_set1_epi32(0xffff);
        let mut c = 0;
        while c < chunks {
            let end = (c + super::GEMM_I16_FLUSH_K / W).min(chunks);
            let mut hi = [_mm_setzero_si128(); 4];
            let mut lo = [_mm_setzero_si128(); 4];
            for i in c..end {
                let p = i * W;
                // SAFETY: `p + W <= chunks · W`, at most the length of every
                // operand slice.
                let (va0, va1, vb0, vb1) = unsafe {
                    (
                        _mm_loadu_si128(a0.as_ptr().add(p) as *const __m128i),
                        _mm_loadu_si128(a1.as_ptr().add(p) as *const __m128i),
                        _mm_loadu_si128(b0.as_ptr().add(p) as *const __m128i),
                        _mm_loadu_si128(b1.as_ptr().add(p) as *const __m128i),
                    )
                };
                let rs = [
                    _mm_madd_epi16(va0, vb0),
                    _mm_madd_epi16(va0, vb1),
                    _mm_madd_epi16(va1, vb0),
                    _mm_madd_epi16(va1, vb1),
                ];
                for q in 0..4 {
                    let v = _mm_add_epi32(rs[q], bias);
                    hi[q] = _mm_add_epi32(hi[q], _mm_srli_epi32(v, 16));
                    lo[q] = _mm_add_epi32(lo[q], _mm_and_si128(v, low));
                }
            }
            let (mut h, mut l) = ([0i32; 4], [0i32; 4]);
            // SAFETY: each store writes four i32 lanes into a four-element
            // array.
            unsafe {
                _mm_storeu_si128(
                    h.as_mut_ptr() as *mut __m128i,
                    hsum4_epi32(hi[0], hi[1], hi[2], hi[3]),
                );
                _mm_storeu_si128(
                    l.as_mut_ptr() as *mut __m128i,
                    hsum4_epi32(lo[0], lo[1], lo[2], lo[3]),
                );
            }
            for q in 0..4 {
                sums[q] += super::unbias(h[q], l[q], (end - c) * W / 2);
            }
            c = end;
        }
        sums
    }

    pub fn gemm2_i16(
        a0: &[i16],
        a1: &[i16],
        bt: &[i16],
        k: usize,
        out0: &mut [i64],
        out1: &mut [i64],
    ) {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        super::panel2_i16::<I16_LANES>(a0, a1, bt, k, out0, out1, |a0, a1, b0, b1| unsafe {
            block2x2_i16(a0, a1, b0, b1)
        });
    }

    pub fn gemm2_i8(a0: &[i8], a1: &[i8], bt: &[i8], k: usize, out0: &mut [i32], out1: &mut [i32]) {
        // Direct (inlinable) calls into this module's dot kernels: the panel
        // form buys SSE2 the loss of the per-tile function-pointer dispatch,
        // which is already most of the win at 128-bit width.
        let n = out0.len().min(out1.len()).min(bt.len() / k.max(1));
        let (a0, a1) = (&a0[..k], &a1[..k]);
        let mut j = 0;
        while j + 2 <= n {
            let b0 = &bt[j * k..(j + 1) * k];
            let b1 = &bt[(j + 1) * k..(j + 2) * k];
            let (s00, s01, s10, s11) = block2x2_i8(a0, a1, b0, b1);
            out0[j] += s00;
            out0[j + 1] += s01;
            out1[j] += s10;
            out1[j + 1] += s11;
            j += 2;
        }
        if j < n {
            let b0 = &bt[j * k..(j + 1) * k];
            out0[j] += dot_i8(a0, b0);
            out1[j] += dot_i8(a1, b0);
        }
    }

    pub fn axpy_f32(a: f32, b: &[f32], out: &mut [f32]) {
        let n = b.len().min(out.len());
        // SAFETY: as `dot_i8`. Separate multiply and add (no FMA), so each
        // lane computes exactly the scalar `out[j] += a * b[j]`.
        unsafe {
            let va = _mm_set1_ps(a);
            let chunks = n / 4;
            for i in 0..chunks {
                let p = i * 4;
                let vb = _mm_loadu_ps(b.as_ptr().add(p));
                let vo = _mm_loadu_ps(out.as_ptr().add(p));
                _mm_storeu_ps(out.as_mut_ptr().add(p), _mm_add_ps(vo, _mm_mul_ps(va, vb)));
            }
            for i in chunks * 4..n {
                *out.get_unchecked_mut(i) += a * *b.get_unchecked(i);
            }
        }
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
        super::gemm_f32_tiled::<__m128>(m, k, n, a, b, out);
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
}

/// 256-bit AVX2 kernels. Only reachable through [`kernels_for`], which
/// verifies `avx2` support first.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// i16 lanes per vector.
    const I16_LANES: usize = 16;

    /// Exact horizontal sum of the eight i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        _mm_cvtsi128_si32(_mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0b01)))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn dot_i8_impl(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let pairs = n / 32;
        for i in 0..pairs {
            let p = i * 32;
            // `vpmovsxbw`: 16 sign-extended i8→i16 lanes per load.
            let va0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p) as *const __m128i));
            let vb0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p) as *const __m128i));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va0, vb0));
            let va1 =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p + 16) as *const __m128i));
            let vb1 =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p + 16) as *const __m128i));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va1, vb1));
        }
        let mut done = pairs * 32;
        if done + 16 <= n {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(done) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(done) as *const __m128i));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, vb));
            done += 16;
        }
        let mut sum = hsum_epi32(_mm256_add_epi32(acc0, acc1));
        for i in done..n {
            sum += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        }
        sum
    }

    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        // SAFETY: this table entry is only constructed after `avx2` was
        // runtime-detected; loads are unaligned and bounds-checked inside.
        unsafe { dot_i8_impl(a, b) }
    }

    /// Reduces four 8-lane i32 accumulators to their four exact horizontal
    /// sums `[Σc00, Σc01, Σc10, Σc11]` with two `hadd` levels — ~6
    /// instructions for what four independent `hsum_epi32` calls spend ~24
    /// on. Integer addition is associative, so the tree order is exact.
    #[inline]
    unsafe fn hsum4_epi32(c00: __m256i, c01: __m256i, c10: __m256i, c11: __m256i) -> __m128i {
        let t0 = _mm256_hadd_epi32(c00, c01);
        let t1 = _mm256_hadd_epi32(c10, c11);
        let t2 = _mm256_hadd_epi32(t0, t1);
        _mm_add_epi32(_mm256_castsi256_si128(t2), _mm256_extracti128_si256(t2, 1))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm2_i8_impl(
        a0: &[i8],
        a1: &[i8],
        bt: &[i8],
        k: usize,
        out0: &mut [i32],
        out1: &mut [i32],
    ) {
        let n = out0.len().min(out1.len()).min(bt.len() / k.max(1));
        let chunks = k / 16;
        let done = chunks * 16;
        let mut j = 0;
        while j + 2 <= n {
            let b0 = bt.as_ptr().add(j * k);
            let b1 = bt.as_ptr().add((j + 1) * k);
            let mut c00 = _mm256_setzero_si256();
            let mut c01 = _mm256_setzero_si256();
            let mut c10 = _mm256_setzero_si256();
            let mut c11 = _mm256_setzero_si256();
            for i in 0..chunks {
                let p = i * 16;
                let va0 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(a0.as_ptr().add(p) as *const __m128i));
                let va1 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(a1.as_ptr().add(p) as *const __m128i));
                let vb0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b0.add(p) as *const __m128i));
                let vb1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b1.add(p) as *const __m128i));
                c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(va0, vb0));
                c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(va0, vb1));
                c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(va1, vb0));
                c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(va1, vb1));
            }
            let mut sums = [0i32; 4];
            _mm_storeu_si128(
                sums.as_mut_ptr() as *mut __m128i,
                hsum4_epi32(c00, c01, c10, c11),
            );
            for i in done..k {
                let (x0, x1) = (*a0.get_unchecked(i) as i32, *a1.get_unchecked(i) as i32);
                let (y0, y1) = (*b0.add(i) as i32, *b1.add(i) as i32);
                sums[0] += x0 * y0;
                sums[1] += x0 * y1;
                sums[2] += x1 * y0;
                sums[3] += x1 * y1;
            }
            *out0.get_unchecked_mut(j) += sums[0];
            *out0.get_unchecked_mut(j + 1) += sums[1];
            *out1.get_unchecked_mut(j) += sums[2];
            *out1.get_unchecked_mut(j + 1) += sums[3];
            j += 2;
        }
        if j < n {
            let b0 = &bt[j * k..(j + 1) * k];
            out0[j] += dot_i8(&a0[..k], b0);
            out1[j] += dot_i8(&a1[..k], b0);
        }
    }

    pub fn gemm2_i8(a0: &[i8], a1: &[i8], bt: &[i8], k: usize, out0: &mut [i32], out1: &mut [i32]) {
        assert!(a0.len() >= k && a1.len() >= k, "gemm2_i8: lhs rows short");
        // SAFETY: as `dot_i8`; the column count is clamped to what `bt` and
        // both out rows can hold, and the lhs length is asserted above.
        unsafe { gemm2_i8_impl(a0, a1, bt, k, out0, out1) }
    }

    /// The AVX2 form of the SSE2 table's `block2x2_i16`.
    #[target_feature(enable = "avx2")]
    fn block2x2_i16(a0: &[i16], a1: &[i16], b0: &[i16], b1: &[i16]) -> [i64; 4] {
        const W: usize = I16_LANES;
        let chunks = a0.len().min(a1.len()).min(b0.len()).min(b1.len()) / W;
        let mut sums = [0i64; 4];
        let bias = _mm256_set1_epi32(super::PAIR_BIAS);
        let low = _mm256_set1_epi32(0xffff);
        let mut c = 0;
        while c < chunks {
            let end = (c + super::GEMM_I16_FLUSH_K / W).min(chunks);
            let mut hi = [_mm256_setzero_si256(); 4];
            let mut lo = [_mm256_setzero_si256(); 4];
            for i in c..end {
                let p = i * W;
                // SAFETY: `p + W <= chunks · W`, at most the length of every
                // operand slice.
                let (va0, va1, vb0, vb1) = unsafe {
                    (
                        _mm256_loadu_si256(a0.as_ptr().add(p) as *const __m256i),
                        _mm256_loadu_si256(a1.as_ptr().add(p) as *const __m256i),
                        _mm256_loadu_si256(b0.as_ptr().add(p) as *const __m256i),
                        _mm256_loadu_si256(b1.as_ptr().add(p) as *const __m256i),
                    )
                };
                let rs = [
                    _mm256_madd_epi16(va0, vb0),
                    _mm256_madd_epi16(va0, vb1),
                    _mm256_madd_epi16(va1, vb0),
                    _mm256_madd_epi16(va1, vb1),
                ];
                for q in 0..4 {
                    let v = _mm256_add_epi32(rs[q], bias);
                    hi[q] = _mm256_add_epi32(hi[q], _mm256_srli_epi32(v, 16));
                    lo[q] = _mm256_add_epi32(lo[q], _mm256_and_si256(v, low));
                }
            }
            let (mut h, mut l) = ([0i32; 4], [0i32; 4]);
            // SAFETY: `hsum4_epi32` needs only AVX2, enabled here; each
            // store writes four i32 lanes into a four-element array.
            unsafe {
                _mm_storeu_si128(
                    h.as_mut_ptr() as *mut __m128i,
                    hsum4_epi32(hi[0], hi[1], hi[2], hi[3]),
                );
                _mm_storeu_si128(
                    l.as_mut_ptr() as *mut __m128i,
                    hsum4_epi32(lo[0], lo[1], lo[2], lo[3]),
                );
            }
            for q in 0..4 {
                sums[q] += super::unbias(h[q], l[q], (end - c) * W / 2);
            }
            c = end;
        }
        sums
    }

    pub fn gemm2_i16(
        a0: &[i16],
        a1: &[i16],
        bt: &[i16],
        k: usize,
        out0: &mut [i64],
        out1: &mut [i64],
    ) {
        // SAFETY: this table entry is only constructed after `avx2` was
        // runtime-detected.
        super::panel2_i16::<I16_LANES>(a0, a1, bt, k, out0, out1, |a0, a1, b0, b1| unsafe {
            block2x2_i16(a0, a1, b0, b1)
        });
    }

    #[target_feature(enable = "avx2")]
    unsafe fn axpy_f32_impl(a: f32, b: &[f32], out: &mut [f32]) {
        let n = b.len().min(out.len());
        let va = _mm256_set1_ps(a);
        let chunks = n / 8;
        for i in 0..chunks {
            let p = i * 8;
            let vb = _mm256_loadu_ps(b.as_ptr().add(p));
            let vo = _mm256_loadu_ps(out.as_ptr().add(p));
            // Separate multiply and add (no FMA) so every lane matches the
            // scalar `out[j] += a * b[j]` rounding exactly.
            _mm256_storeu_ps(
                out.as_mut_ptr().add(p),
                _mm256_add_ps(vo, _mm256_mul_ps(va, vb)),
            );
        }
        for i in chunks * 8..n {
            *out.get_unchecked_mut(i) += a * *b.get_unchecked(i);
        }
    }

    pub fn axpy_f32(a: f32, b: &[f32], out: &mut [f32]) {
        // SAFETY: as `dot_i8`.
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
        super::gemm_f32_tiled::<__m256>(m, k, n, a, b, out);
    }

    pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: this table entry is only constructed after `avx2` was
        // runtime-detected.
        unsafe { gemm_f32_impl(m, k, n, a, b, out) }
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
}

/// 512-bit kernels (`avx512f` + `avx512bw`). Only reachable through
/// [`kernels_for`], which verifies support first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// i16 lanes per vector.
    const I16_LANES: usize = 32;

    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    unsafe fn dot_i8_impl(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let mut acc0 = _mm512_setzero_si512();
        let mut acc1 = _mm512_setzero_si512();
        let pairs = n / 64;
        for i in 0..pairs {
            let p = i * 64;
            // 512-bit `vpmovsxbw`: 32 sign-extended i8→i16 lanes per load.
            let va0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(p) as *const __m256i));
            let vb0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(p) as *const __m256i));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va0, vb0));
            let va1 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(p + 32) as *const __m256i));
            let vb1 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(p + 32) as *const __m256i));
            acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(va1, vb1));
        }
        let mut done = pairs * 64;
        if done + 32 <= n {
            let va =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(done) as *const __m256i));
            let vb =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(done) as *const __m256i));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va, vb));
            done += 32;
        }
        let mut sum = _mm512_reduce_add_epi32(_mm512_add_epi32(acc0, acc1));
        for i in done..n {
            sum += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        }
        sum
    }

    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        // SAFETY: this table entry is only constructed after `avx512f` and
        // `avx512bw` were runtime-detected; loads are unaligned and
        // bounds-checked inside.
        unsafe { dot_i8_impl(a, b) }
    }

    /// Folds a 16-lane i32 accumulator to 8 lanes (exact: integer addition).
    #[inline]
    unsafe fn fold_epi32(v: __m512i) -> __m256i {
        _mm256_add_epi32(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1))
    }

    /// Reduces four folded accumulators to `[Σc00, Σc01, Σc10, Σc11]` with
    /// two `hadd` levels (cf. the AVX2 table's `hsum4_epi32`). AVX-512
    /// implies AVX2, so the 256-bit `hadd` forms are always available here.
    #[inline]
    unsafe fn hsum4_epi32(c00: __m256i, c01: __m256i, c10: __m256i, c11: __m256i) -> __m128i {
        let t0 = _mm256_hadd_epi32(c00, c01);
        let t1 = _mm256_hadd_epi32(c10, c11);
        let t2 = _mm256_hadd_epi32(t0, t1);
        _mm_add_epi32(_mm256_castsi256_si128(t2), _mm256_extracti128_si256(t2, 1))
    }

    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx2")]
    unsafe fn gemm2_i8_impl(
        a0: &[i8],
        a1: &[i8],
        bt: &[i8],
        k: usize,
        out0: &mut [i32],
        out1: &mut [i32],
    ) {
        let n = out0.len().min(out1.len()).min(bt.len() / k.max(1));
        let chunks = k / 32;
        let done = chunks * 32;
        let mut j = 0;
        while j + 2 <= n {
            let b0 = bt.as_ptr().add(j * k);
            let b1 = bt.as_ptr().add((j + 1) * k);
            let mut c00 = _mm512_setzero_si512();
            let mut c01 = _mm512_setzero_si512();
            let mut c10 = _mm512_setzero_si512();
            let mut c11 = _mm512_setzero_si512();
            for i in 0..chunks {
                let p = i * 32;
                let va0 =
                    _mm512_cvtepi8_epi16(_mm256_loadu_si256(a0.as_ptr().add(p) as *const __m256i));
                let va1 =
                    _mm512_cvtepi8_epi16(_mm256_loadu_si256(a1.as_ptr().add(p) as *const __m256i));
                let vb0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b0.add(p) as *const __m256i));
                let vb1 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b1.add(p) as *const __m256i));
                c00 = _mm512_add_epi32(c00, _mm512_madd_epi16(va0, vb0));
                c01 = _mm512_add_epi32(c01, _mm512_madd_epi16(va0, vb1));
                c10 = _mm512_add_epi32(c10, _mm512_madd_epi16(va1, vb0));
                c11 = _mm512_add_epi32(c11, _mm512_madd_epi16(va1, vb1));
            }
            let mut sums = [0i32; 4];
            _mm_storeu_si128(
                sums.as_mut_ptr() as *mut __m128i,
                hsum4_epi32(
                    fold_epi32(c00),
                    fold_epi32(c01),
                    fold_epi32(c10),
                    fold_epi32(c11),
                ),
            );
            for i in done..k {
                let (x0, x1) = (*a0.get_unchecked(i) as i32, *a1.get_unchecked(i) as i32);
                let (y0, y1) = (*b0.add(i) as i32, *b1.add(i) as i32);
                sums[0] += x0 * y0;
                sums[1] += x0 * y1;
                sums[2] += x1 * y0;
                sums[3] += x1 * y1;
            }
            *out0.get_unchecked_mut(j) += sums[0];
            *out0.get_unchecked_mut(j + 1) += sums[1];
            *out1.get_unchecked_mut(j) += sums[2];
            *out1.get_unchecked_mut(j + 1) += sums[3];
            j += 2;
        }
        if j < n {
            let b0 = &bt[j * k..(j + 1) * k];
            out0[j] += dot_i8(&a0[..k], b0);
            out1[j] += dot_i8(&a1[..k], b0);
        }
    }

    pub fn gemm2_i8(a0: &[i8], a1: &[i8], bt: &[i8], k: usize, out0: &mut [i32], out1: &mut [i32]) {
        assert!(a0.len() >= k && a1.len() >= k, "gemm2_i8: lhs rows short");
        // SAFETY: as `dot_i8`; the column count is clamped to what `bt` and
        // both out rows can hold, and the lhs length is asserted above.
        unsafe { gemm2_i8_impl(a0, a1, bt, k, out0, out1) }
    }

    /// [`gemm2_i8`] on the AVX512-VNNI `vpdpbusd` path: rhs bytes are
    /// biased to unsigned on load (`b ^ 0x80 = b + 128`), one instruction
    /// fuses 64 u8×i8 MACs (4× the `vpmaddwd` form's per-instruction
    /// throughput, with no widening converts), and the bias is removed
    /// exactly afterwards via `Σ(b+128)·a = Σa·b + 128·Σa` — all in i32,
    /// so the result is bit-identical to the signed form.
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
        let n = out0.len().min(out1.len()).min(bt.len() / k.max(1));
        let chunks = k / 64;
        let done = chunks * 64;
        // 128·Σa over the vectorized prefix (the scalar tail multiplies
        // unbiased bytes, so it needs no correction).
        let (mut sub0, mut sub1) = (0i32, 0i32);
        for i in 0..done {
            sub0 += *a0.get_unchecked(i) as i32;
            sub1 += *a1.get_unchecked(i) as i32;
        }
        sub0 *= 128;
        sub1 *= 128;
        let flip = _mm512_set1_epi8(-128);
        let mut j = 0;
        while j + 2 <= n {
            let b0 = bt.as_ptr().add(j * k);
            let b1 = bt.as_ptr().add((j + 1) * k);
            let mut c00 = _mm512_setzero_si512();
            let mut c01 = _mm512_setzero_si512();
            let mut c10 = _mm512_setzero_si512();
            let mut c11 = _mm512_setzero_si512();
            for i in 0..chunks {
                let p = i * 64;
                let va0 = _mm512_loadu_si512(a0.as_ptr().add(p) as *const __m512i);
                let va1 = _mm512_loadu_si512(a1.as_ptr().add(p) as *const __m512i);
                let vb0 = _mm512_xor_si512(_mm512_loadu_si512(b0.add(p) as *const __m512i), flip);
                let vb1 = _mm512_xor_si512(_mm512_loadu_si512(b1.add(p) as *const __m512i), flip);
                c00 = _mm512_dpbusd_epi32(c00, vb0, va0);
                c01 = _mm512_dpbusd_epi32(c01, vb1, va0);
                c10 = _mm512_dpbusd_epi32(c10, vb0, va1);
                c11 = _mm512_dpbusd_epi32(c11, vb1, va1);
            }
            let mut sums = [0i32; 4];
            _mm_storeu_si128(
                sums.as_mut_ptr() as *mut __m128i,
                hsum4_epi32(
                    fold_epi32(c00),
                    fold_epi32(c01),
                    fold_epi32(c10),
                    fold_epi32(c11),
                ),
            );
            for i in done..k {
                let (x0, x1) = (*a0.get_unchecked(i) as i32, *a1.get_unchecked(i) as i32);
                let (y0, y1) = (*b0.add(i) as i32, *b1.add(i) as i32);
                sums[0] += x0 * y0;
                sums[1] += x0 * y1;
                sums[2] += x1 * y0;
                sums[3] += x1 * y1;
            }
            *out0.get_unchecked_mut(j) += sums[0] - sub0;
            *out0.get_unchecked_mut(j + 1) += sums[1] - sub0;
            *out1.get_unchecked_mut(j) += sums[2] - sub1;
            *out1.get_unchecked_mut(j + 1) += sums[3] - sub1;
            j += 2;
        }
        if j < n {
            let b0 = &bt[j * k..(j + 1) * k];
            out0[j] += dot_i8(&a0[..k], b0);
            out1[j] += dot_i8(&a1[..k], b0);
        }
    }

    pub fn gemm2_i8_vnni(
        a0: &[i8],
        a1: &[i8],
        bt: &[i8],
        k: usize,
        out0: &mut [i32],
        out1: &mut [i32],
    ) {
        assert!(a0.len() >= k && a1.len() >= k, "gemm2_i8: lhs rows short");
        // SAFETY: as `gemm2_i8`; only installed in the table when
        // `avx512vnni` is detected.
        unsafe { gemm2_i8_vnni_impl(a0, a1, bt, k, out0, out1) }
    }

    /// The 512-bit form of the SSE2 table's `block2x2_i16`.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx2")]
    fn block2x2_i16(a0: &[i16], a1: &[i16], b0: &[i16], b1: &[i16]) -> [i64; 4] {
        const W: usize = I16_LANES;
        let chunks = a0.len().min(a1.len()).min(b0.len()).min(b1.len()) / W;
        let mut sums = [0i64; 4];
        let bias = _mm512_set1_epi32(super::PAIR_BIAS);
        let low = _mm512_set1_epi32(0xffff);
        let mut c = 0;
        while c < chunks {
            let end = (c + super::GEMM_I16_FLUSH_K / W).min(chunks);
            let mut hi = [_mm512_setzero_si512(); 4];
            let mut lo = [_mm512_setzero_si512(); 4];
            for i in c..end {
                let p = i * W;
                // SAFETY: `p + W <= chunks · W`, at most the length of every
                // operand slice.
                let (va0, va1, vb0, vb1) = unsafe {
                    (
                        _mm512_loadu_si512(a0.as_ptr().add(p) as *const __m512i),
                        _mm512_loadu_si512(a1.as_ptr().add(p) as *const __m512i),
                        _mm512_loadu_si512(b0.as_ptr().add(p) as *const __m512i),
                        _mm512_loadu_si512(b1.as_ptr().add(p) as *const __m512i),
                    )
                };
                let rs = [
                    _mm512_madd_epi16(va0, vb0),
                    _mm512_madd_epi16(va0, vb1),
                    _mm512_madd_epi16(va1, vb0),
                    _mm512_madd_epi16(va1, vb1),
                ];
                for q in 0..4 {
                    let v = _mm512_add_epi32(rs[q], bias);
                    hi[q] = _mm512_add_epi32(hi[q], _mm512_srli_epi32(v, 16));
                    lo[q] = _mm512_add_epi32(lo[q], _mm512_and_si512(v, low));
                }
            }
            let (mut h, mut l) = ([0i32; 4], [0i32; 4]);
            // SAFETY: `fold_epi32` and `hsum4_epi32` need only the features
            // enabled here; each store writes four i32 lanes into a
            // four-element array.
            unsafe {
                _mm_storeu_si128(
                    h.as_mut_ptr() as *mut __m128i,
                    hsum4_epi32(
                        fold_epi32(hi[0]),
                        fold_epi32(hi[1]),
                        fold_epi32(hi[2]),
                        fold_epi32(hi[3]),
                    ),
                );
                _mm_storeu_si128(
                    l.as_mut_ptr() as *mut __m128i,
                    hsum4_epi32(
                        fold_epi32(lo[0]),
                        fold_epi32(lo[1]),
                        fold_epi32(lo[2]),
                        fold_epi32(lo[3]),
                    ),
                );
            }
            for q in 0..4 {
                sums[q] += super::unbias(h[q], l[q], (end - c) * W / 2);
            }
            c = end;
        }
        sums
    }

    pub fn gemm2_i16(
        a0: &[i16],
        a1: &[i16],
        bt: &[i16],
        k: usize,
        out0: &mut [i64],
        out1: &mut [i64],
    ) {
        // SAFETY: this table entry is only constructed after `avx512f` and
        // `avx512bw` were runtime-detected (AVX-512 implies AVX2).
        super::panel2_i16::<I16_LANES>(a0, a1, bt, k, out0, out1, |a0, a1, b0, b1| unsafe {
            block2x2_i16(a0, a1, b0, b1)
        });
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_f32_impl(a: f32, b: &[f32], out: &mut [f32]) {
        let n = b.len().min(out.len());
        let va = _mm512_set1_ps(a);
        let chunks = n / 16;
        for i in 0..chunks {
            let p = i * 16;
            let vb = _mm512_loadu_ps(b.as_ptr().add(p));
            let vo = _mm512_loadu_ps(out.as_ptr().add(p));
            // Separate multiply and add (no FMA): lane-exact vs scalar.
            _mm512_storeu_ps(
                out.as_mut_ptr().add(p),
                _mm512_add_ps(vo, _mm512_mul_ps(va, vb)),
            );
        }
        for i in chunks * 16..n {
            *out.get_unchecked_mut(i) += a * *b.get_unchecked(i);
        }
    }

    pub fn axpy_f32(a: f32, b: &[f32], out: &mut [f32]) {
        // SAFETY: as `dot_i8` (only `avx512f` is needed here).
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
        super::gemm_f32_tiled::<__m512>(m, k, n, a, b, out);
    }

    pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: this table entry is only constructed after `avx512f` was
        // runtime-detected.
        unsafe { gemm_f32_impl(m, k, n, a, b, out) }
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
        let reference = scalar::dot_i8(&a8, &b8);
        for isa in Isa::all().into_iter().filter(|i| i.is_supported()) {
            let k = kernels_for(isa);
            assert_eq!((k.dot_i8)(&a8, &b8), reference, "{isa} dot_i8");
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
            assert_eq!(
                (k.dot_i8)(&a, &bt[..33]),
                expected,
                "{isa} dot_i8 at -128×-128"
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
