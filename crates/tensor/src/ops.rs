//! Neural-network operators (forward and backward).
//!
//! All operators work on the dense [`Tensor`] type. Convolution tensors use
//! the `[channels, height, width]` (CHW) layout for single samples and
//! `[batch, channels, height, width]` (NCHW) for batches where noted.
//!
//! The f32 convolution ([`conv2d`]) is an implicit GEMM: the dispatched
//! `conv_f32` kernel packs the tiled GEMM's rhs panels straight from a
//! zero-padded copy of the input, so no im2col matrix is written or read
//! back. Its backward pass ([`conv2d_backward`]) still gathers patch rows
//! for its weight-gradient GEMM.
//!
//! The native integer backend runs on two packed panel GEMMs that share one
//! operand layout: rows of `k` sign-extended lanes, zero-padded to a fixed
//! stride, with weights as lhs rows and patch-major activation rows as the
//! transposed rhs (packed by [`im2col_t_stored_strided`] and
//! [`pack_stored_rows`] straight from the stored bits). Convolution patch
//! rows hold their taps channel-interleaved, in `(ky, kx, ic)` order, so a
//! kernel row is one contiguous run of lanes; [`conv_patch_lane`] is the one
//! map from a tap's `(ic, ky, kx)` index to its lane, and conv weight panels
//! are packed through it too.
//! [`gemm_i8_packed`] takes i8 lanes with i32 accumulation (int4/int8);
//! [`gemm_i16_packed`] takes i16 lanes with exact i64 results (int16, and
//! reductions too deep for i32).

use crate::simd::{self, Kernels};
use crate::tensor::Tensor;

/// Dense f32 matrix multiply-accumulate over raw slices:
/// `out (m×n) += a (m×k) · b (k×n)`, all row-major.
///
/// This is the shared kernel behind [`matmul`], [`conv2d_backward`] and
/// the dense layers, and [`conv2d`] runs its tiles too. It runs the
/// dispatched `gemm_f32` kernel ([`crate::simd::Kernels`]): a register tile
/// of 4 output rows × 2 vectors walks the whole of `k` in ascending order
/// with a separate multiply and add, reading each rhs column strip from a
/// packed panel. The last `n mod W` columns run as one more vector strip,
/// zero-padded in the panel and written back through a stack tile; only a
/// rhs narrower than one vector (`n < W`, such as a matrix–vector product)
/// runs as scalar chains, four rows at a time.
/// Either way every output element accumulates its `k` contributions in
/// ascending-`p` order, so results are independent of the tiling and
/// bit-identical to a naive triple loop — with one caveat: terms whose
/// **lhs** entry is exactly `0.0` are skipped, row by row (a masked add in
/// the tile; a sparsity win for pruned weights). A skipped `0.0 * b` term
/// differs from a naive nest only in the sign of a zero sum (a `-0.0` seed
/// stays `-0.0`) and in `0.0 × (NaN/±Inf)` products, which a naive nest
/// would propagate as NaN.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`/`k`/`n` geometry requires.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_with(simd::kernels(), m, k, n, a, b, out);
}

/// [`gemm`] against an explicit kernel table — lets parity tests and
/// benchmarks pin a specific ISA level instead of the process-wide one.
pub fn gemm_with(
    kr: &Kernels,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    (kr.gemm_f32)(m, k, n, a, b, out);
}

/// Batched f32 GEMM `out (m×n) += a (m×k) · b (k×n)` whose B matrix packs a
/// whole batch of activation columns: an alias of [`gemm`], kept for callers
/// that name the batched form.
pub fn gemm_batch(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm(m, k, n, a, b, out);
}

/// Row stride (in i8 lanes) of the k-padded panel layout consumed by
/// [`gemm_i8_packed`]: the reduction depth rounded up to a whole number of
/// 64-byte kernel chunks. Packing rows at this stride (zero-filling the pad
/// — exact, since `0·x` contributes nothing to an integer sum) keeps every
/// SIMD lane of the panel kernels full and the scalar tails unreachable.
pub const fn packed_stride_i8(k: usize) -> usize {
    (k + 63) & !63
}

/// Row stride (in i16 lanes) of the k-padded panel layout consumed by
/// [`gemm_i16_packed`]: the depth rounded up to whole 32-lane (64-byte)
/// kernel chunks, with the same zero-pad rule as [`packed_stride_i8`].
pub const fn packed_stride_i16(k: usize) -> usize {
    (k + 31) & !31
}

/// An integer operand lane of the packed panel GEMMs: `i8` for
/// [`gemm_i8_packed`], `i16` for [`gemm_i16_packed`]. The panel packers
/// ([`im2col_t_stored_strided`], [`pack_stored_rows`]) are written once over
/// this trait.
pub trait PanelLane: Copy + Default + 'static {
    /// The widest stored precision, in bits, whose sign-extended values fit
    /// the lane.
    const MAX_BITS: u32;

    /// Row stride of the k-padded panel layout for reduction depth `k`.
    fn packed_stride(k: usize) -> usize;

    /// The sign-extended value of a stored word of `bits` ≤
    /// [`PanelLane::MAX_BITS`] bits.
    fn from_stored(word: u32, bits: u32) -> Self;
}

impl PanelLane for i8 {
    const MAX_BITS: u32 = 8;

    fn packed_stride(k: usize) -> usize {
        packed_stride_i8(k)
    }

    fn from_stored(word: u32, bits: u32) -> Self {
        crate::bits::sign_extend(word, bits) as i8
    }
}

impl PanelLane for i16 {
    const MAX_BITS: u32 = 16;

    fn packed_stride(k: usize) -> usize {
        packed_stride_i16(k)
    }

    fn from_stored(word: u32, bits: u32) -> Self {
        crate::bits::sign_extend(word, bits) as i16
    }
}

/// Columns per `gemm2` call of an odd last row in [`gemm_packed_rows`]: the
/// length of its stack twin row.
const ODD_ROW_BLOCK: usize = 64;

/// The shared driver of the packed panel GEMMs: `out (m×n) += a (m×k) ·
/// bt (n×k)ᵀ`, one `gemm2` call per row pair over every column; an odd last
/// row runs as a pair with itself, [`ODD_ROW_BLOCK`] columns at a time, its
/// twin sums going to a spare row on the stack.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_rows<T, A: Copy + Default>(
    name: &str,
    m: usize,
    k: usize,
    n: usize,
    a: &[T],
    bt: &[T],
    out: &mut [A],
    gemm2: simd::GemmPanelFn<T, A>,
) {
    assert!(a.len() >= m * k, "{name}: lhs slice too short");
    assert!(bt.len() >= n * k, "{name}: rhs slice too short");
    assert!(out.len() >= m * n, "{name}: out slice too short");
    if n == 0 {
        return;
    }
    let mut i = 0;
    while i + 2 <= m {
        let (o0, rest) = out[i * n..].split_at_mut(n);
        gemm2(
            &a[i * k..(i + 1) * k],
            &a[(i + 1) * k..(i + 2) * k],
            bt,
            k,
            o0,
            &mut rest[..n],
        );
        i += 2;
    }
    if i < m {
        let arow = &a[i * k..(i + 1) * k];
        let mut spare = [A::default(); ODD_ROW_BLOCK];
        let blocks = out[i * n..(i + 1) * n].chunks_mut(ODD_ROW_BLOCK);
        // `k = 0` adds nothing: no rhs block, no call.
        for (o, b) in blocks.zip(bt[..n * k].chunks(ODD_ROW_BLOCK * k.max(1))) {
            gemm2(arow, arow, b, k, o, &mut spare[..o.len()]);
        }
    }
}

/// Blocked i8 GEMM over a k-padded packed operand pair: `a` holds `m` rows
/// of `k` lanes (the caller zero-pads real rows up to `k` =
/// [`packed_stride_i8`] of the true depth), `bt` the transposed rhs in the
/// same row form, and one [`crate::simd::Kernels::gemm2_i8`] call covers an
/// entire row pair (an odd last row runs as a pair with itself), on the
/// caller's thread.
///
/// This is the int4/int8 production kernel. Operands stay in one byte per
/// value; the kernels sign-extend on load (`vpmovsxbw`) and use the
/// `pmaddwd` multiply–add, which is exact over the full corrupted domain
/// `[-128, 127]` — unlike the classic `pmaddubsw` sign-trick, which wraps at
/// `(-128)·(-128)` (see [`crate::simd`]). The caller guarantees no i32
/// overflow: with `|a|, |b| ≤ 128` every accumulator stays within `k · 2¹⁴`,
/// so any `k < 2¹⁷` is safe; deeper reductions must use [`gemm_i16_packed`].
pub fn gemm_i8_packed(m: usize, k: usize, n: usize, a: &[i8], bt: &[i8], out: &mut [i32]) {
    gemm_i8_packed_with(simd::kernels(), m, k, n, a, bt, out);
}

/// [`gemm_i8_packed`] against an explicit kernel table.
pub fn gemm_i8_packed_with(
    kr: &Kernels,
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    bt: &[i8],
    out: &mut [i32],
) {
    gemm_packed_rows("gemm_i8_packed", m, k, n, a, bt, out, kr.gemm2_i8);
}

/// Blocked i16 GEMM with exact **i64 results** over a k-padded packed
/// operand pair: the i16 twin of [`gemm_i8_packed`] (same operand layout at
/// the [`packed_stride_i16`] stride), one
/// [`crate::simd::Kernels::gemm2_i16`] call per row pair. The kernels use
/// `pmaddwd` on full-range i16 lanes with split-digit i32 accumulators
/// flushed into i64 (see [`crate::simd`]), so every result is the exact dot
/// product at any depth and for every operand, `−32768` included.
///
/// This is the int16 production kernel, and the one for int4/int8
/// reductions too deep for [`gemm_i8_packed`]'s i32 accumulators.
pub fn gemm_i16_packed(m: usize, k: usize, n: usize, a: &[i16], bt: &[i16], out: &mut [i64]) {
    gemm_i16_packed_with(simd::kernels(), m, k, n, a, bt, out);
}

/// [`gemm_i16_packed`] against an explicit kernel table.
pub fn gemm_i16_packed_with(
    kr: &Kernels,
    m: usize,
    k: usize,
    n: usize,
    a: &[i16],
    bt: &[i16],
    out: &mut [i64],
) {
    gemm_packed_rows("gemm_i16_packed", m, k, n, a, bt, out, kr.gemm2_i16);
}

/// Matrix multiplication `a (m×k) * b (k×n) -> (m×n)`, backed by [`gemm`].
///
/// # Panics
///
/// Panics if the inner dimensions do not agree or inputs are not rank-2.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(a.shape().len(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be rank 2");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dParams {
    /// Convenience constructor.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Self {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input spatial size.
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

/// Unrolls a `[in_c, h, w]` input into the im2col patch matrix
/// `[in_c·k·k, oh·ow]`: row `(ic·k + ky)·k + kx`, column `oy·ow + ox` holds
/// the input pixel the kernel tap `(ic, ky, kx)` sees at output position
/// `(oy, ox)` (zero where the tap falls into the padding). It is
/// [`im2col_strided`] at column offset 0 and row stride `oh·ow`: the
/// reference layout of the packers' tests ([`conv2d`] never writes it).
#[cfg(test)]
fn im2col(input: &Tensor, p: Conv2dParams) -> Tensor {
    let (in_c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let ohw = p.out_size(h) * p.out_size(w);
    let mut cols = vec![0.0f32; in_c * p.kernel * p.kernel * ohw];
    im2col_strided(input.data(), in_c, h, w, p, 0, ohw, &mut cols);
    Tensor::from_vec(cols, &[in_c * p.kernel * p.kernel, ohw])
}

/// The panel lane of a convolution tap in the native integer backend's
/// patch order. `tap` is the tap's `(ic, ky, kx)` index `(ic·k + ky)·k +
/// kx`: the row of the im2col patch matrix and the column of a row-major
/// `[out_c, in_c, k, k]` weight. Its lane is `(ky·k + kx)·in_c + ic`, the
/// channel-interleaved `(ky, kx, ic)` order [`im2col_t_stored_strided`]
/// writes, so each kernel row of a patch is one contiguous run of `k·in_c`
/// lanes. Weight panels must use the same permutation; integer sums are
/// exact, so permuting both operands' `k` alike leaves every product sum
/// unchanged.
pub fn conv_patch_lane(in_c: usize, kernel: usize, tap: usize) -> usize {
    let taps = kernel * kernel;
    tap % taps * in_c + tap / taps
}

/// Transposed im2col straight from the raw stored words of a quantized
/// `[in_c, h, w]` tensor into panel lanes `T` (`bits` ≤
/// [`PanelLane::MAX_BITS`], so every sign-extended value fits a lane):
/// writes the **patch-major** `[oh·ow, in_c·k·k]` matrix, row `oy·ow + ox`
/// holding output position `(oy, ox)`'s receptive field in the `(ky, kx,
/// ic)` lane order of [`conv_patch_lane`], each patch row at `row_stride` ≥
/// `in_c·k·k` — the k-padded panel form [`gemm_i8_packed`] and
/// [`gemm_i16_packed`] consume. The stored words are sign-extended **once**
/// into `vals`, channel-interleaved (HWC), so every in-bounds kernel row of
/// a patch becomes one contiguous copy of `k·in_c` lanes. Every lane of the
/// `oh·ow` patch rows is written: padding taps and the pad lanes
/// `[in_c·k·k, row_stride)` are zeroed, so `cols` needs no pre-zeroing.
#[allow(clippy::too_many_arguments)]
pub fn im2col_t_stored_strided<T: PanelLane>(
    stored: &[u32],
    bits: u32,
    in_c: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    row_stride: usize,
    vals: &mut Vec<T>,
    cols: &mut [T],
) {
    assert!(
        bits <= T::MAX_BITS,
        "im2col_t_stored_strided: {bits}-bit values exceed the {}-bit lane",
        T::MAX_BITS
    );
    assert!(
        stored.len() >= in_c * h * w,
        "im2col_t_stored_strided: input too short"
    );
    vals.clear();
    vals.resize(in_c * h * w, T::default());
    for (ic, plane) in stored[..in_c * h * w].chunks_exact(h * w).enumerate() {
        for (dst, &s) in vals[ic..].iter_mut().step_by(in_c).zip(plane) {
            *dst = T::from_stored(s, bits);
        }
    }
    gather_patch_rows(vals, in_c, h, w, p, row_stride, cols);
}

/// The patch-major gather shared by [`im2col_t_stored_strided`] and
/// [`conv2d_backward`]: from a channel-interleaved (HWC) `[h, w, in_c]`
/// image `vals`, writes row `oy·ow + ox` of the `[oh·ow, in_c·k·k]` patch
/// matrix in the `(ky, kx, ic)` lane order of [`conv_patch_lane`], each row
/// at `row_stride` ≥ `in_c·k·k`. Every in-bounds kernel row of a patch is one
/// contiguous copy of `k·in_c` lanes; padding taps and the pad lanes
/// `[in_c·k·k, row_stride)` are zeroed, so `cols` needs no pre-zeroing.
fn gather_patch_rows<T: Copy + Default>(
    vals: &[T],
    in_c: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    row_stride: usize,
    cols: &mut [T],
) {
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let k = p.kernel;
    let kc = k * in_c;
    assert!(vals.len() >= in_c * h * w, "patch gather: image too short");
    assert!(
        row_stride >= kc * k,
        "patch gather: row stride below patch length"
    );
    assert!(
        cols.len() >= oh * ow * row_stride,
        "patch gather: output slice too short"
    );
    // Output columns whose kx span covers the whole kernel row
    // (ix = ox·stride + kx − padding ∈ [0, w) for every kx): everything
    // left of `ox_full_lo` clips at the left image edge, everything at
    // `ox_full_hi` or beyond clips at the right one.
    let ox_full_lo = p.padding.div_ceil(p.stride).min(ow);
    let ox_full_hi = if w + p.padding >= k {
        ((w + p.padding - k) / p.stride + 1).clamp(ox_full_lo, ow)
    } else {
        ox_full_lo
    };
    // One edge-clipped column: the span of in-bounds kx taps, if any.
    let partial = |vals: &[T], band: &mut [T], ox: usize, iy: usize, d: usize| {
        let kx_lo = p.padding.saturating_sub(ox * p.stride).min(k);
        let kx_hi = (w + p.padding)
            .saturating_sub(ox * p.stride)
            .clamp(kx_lo, k);
        if kx_lo < kx_hi {
            let src = (iy * w + ox * p.stride + kx_lo - p.padding) * in_c;
            band[d + kx_lo * in_c..d + kx_hi * in_c]
                .copy_from_slice(&vals[src..src + (kx_hi - kx_lo) * in_c]);
        }
    };
    for (oy, band) in cols[..oh * ow * row_stride]
        .chunks_exact_mut(ow * row_stride)
        .enumerate()
    {
        // Zero one output row's patch rows (a cache-resident band) first, so
        // padding taps and pad lanes need no per-column bookkeeping, then
        // copy every in-bounds kernel row over them.
        band.fill(T::default());
        for ky in 0..k {
            let iy = (oy * p.stride + ky).wrapping_sub(p.padding);
            if iy >= h {
                continue;
            }
            let tap = ky * kc;
            for ox in 0..ox_full_lo {
                partial(vals, band, ox, iy, ox * row_stride + tap);
            }
            // Full-span columns: one k·in_c-lane copy each, with all index
            // math hoisted out of the loop. A full-span column has
            // `ox·stride ≥ padding`, so its first index does not underflow.
            if ox_full_lo < ox_full_hi {
                let mut d = ox_full_lo * row_stride + tap;
                let mut src = (iy * w + ox_full_lo * p.stride - p.padding) * in_c;
                for _ in ox_full_lo..ox_full_hi {
                    band[d..d + kc].copy_from_slice(&vals[src..src + kc]);
                    d += row_stride;
                    src += p.stride * in_c;
                }
            }
            for ox in ox_full_hi..ow {
                partial(vals, band, ox, iy, ox * row_stride + tap);
            }
        }
    }
}

/// [`im2col_t_stored_strided`] into i8 lanes (`bits` ≤ 8) — the int4/int8
/// patch packer.
#[allow(clippy::too_many_arguments)]
pub fn im2col_i8_t_stored_strided(
    stored: &[u32],
    bits: u32,
    in_c: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    row_stride: usize,
    vals: &mut Vec<i8>,
    cols: &mut [i8],
) {
    im2col_t_stored_strided(stored, bits, in_c, h, w, p, row_stride, vals, cols);
}

/// Packs the sign-extended stored words of a row-major `[rows, k]` operand
/// into panel rows of `row_stride` ≥ `k` lanes — the lhs (weight) and dense
/// rhs (activation) form of the packed panel GEMMs. `out` must be
/// pre-zeroed; pad lanes are left untouched.
///
/// # Panics
///
/// Panics if `k` does not divide `stored.len()`, if `row_stride < k`, if
/// `out` is shorter than the packed rows, or if `bits` exceeds the lane.
pub fn pack_stored_rows<T: PanelLane>(
    stored: &[u32],
    bits: u32,
    k: usize,
    row_stride: usize,
    out: &mut [T],
) {
    assert!(
        bits <= T::MAX_BITS,
        "pack_stored_rows: {bits}-bit values exceed the {}-bit lane",
        T::MAX_BITS
    );
    assert!(
        k > 0 && stored.len().is_multiple_of(k) && row_stride >= k,
        "pack_stored_rows: bad row geometry"
    );
    assert!(
        out.len() >= stored.len() / k * row_stride,
        "pack_stored_rows: output slice too short"
    );
    for (dst, src) in out.chunks_exact_mut(row_stride).zip(stored.chunks_exact(k)) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = T::from_stored(s, bits);
        }
    }
}

/// The output columns `[ox_lo, ox_hi)` whose kernel column `kx` lands
/// inside an image row of width `w`: `ix = ox·stride + kx − padding ∈ [0,
/// w)`, with `ox_lo·stride + kx ≥ padding` whenever the range is non-empty.
fn tap_columns(p: Conv2dParams, w: usize, ow: usize, kx: usize) -> (usize, usize) {
    let ox_lo = p.padding.saturating_sub(kx).div_ceil(p.stride).min(ow);
    let ox_hi = if w + p.padding > kx {
        ((w + p.padding - kx - 1) / p.stride + 1).clamp(ox_lo, ow)
    } else {
        ox_lo
    };
    (ox_lo, ox_hi)
}

/// Strided f32 im2col: writes one sample's `[in_c·k·k, oh·ow]` patch matrix
/// (row `(ic·k + ky)·k + kx`, column `oy·ow + ox`) into columns
/// `[col_offset, col_offset + oh·ow)` of a `[in_c·k·k, row_stride]` batch
/// matrix, so a whole batch of samples packs into one rhs for
/// [`gemm`]. Every lane of those columns is written: each in-bounds
/// kernel row is one run copy (a `copy_from_slice` at stride 1) and padding
/// taps are written as explicit zeros, so `cols` needs no pre-zeroing.
///
/// # Panics
///
/// Panics if `input` is shorter than `in_c·h·w`, if the sample's columns
/// pass `row_stride`, or if `cols` is shorter than `in_c·k·k` rows.
#[allow(clippy::too_many_arguments)]
pub fn im2col_strided(
    input: &[f32],
    in_c: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    col_offset: usize,
    row_stride: usize,
    cols: &mut [f32],
) {
    assert!(
        input.len() >= in_c * h * w,
        "strided im2col: input too short"
    );
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let k = p.kernel;
    let ck = in_c * k * k;
    assert!(
        col_offset + oh * ow <= row_stride,
        "strided im2col: sample columns exceed the row stride"
    );
    assert!(
        cols.len() >= ck * row_stride,
        "strided im2col: batch matrix too short"
    );
    let s = p.stride;
    for (row, dst) in cols.chunks_exact_mut(row_stride).take(ck).enumerate() {
        let (ic, ky, kx) = (row / (k * k), row / k % k, row % k);
        let plane = &input[ic * h * w..(ic + 1) * h * w];
        let (ox_lo, ox_hi) = tap_columns(p, w, ow, kx);
        let span = ox_hi - ox_lo;
        for (oy, drow) in dst[col_offset..col_offset + oh * ow]
            .chunks_exact_mut(ow)
            .enumerate()
        {
            let iy = (oy * s + ky).wrapping_sub(p.padding);
            if iy >= h || span == 0 {
                drow.fill(0.0);
                continue;
            }
            drow[..ox_lo].fill(0.0);
            drow[ox_hi..].fill(0.0);
            let x0 = iy * w + ox_lo * s + kx - p.padding;
            let run = &mut drow[ox_lo..ox_hi];
            if s == 1 {
                run.copy_from_slice(&plane[x0..x0 + span]);
            } else {
                for (d, &v) in run.iter_mut().zip(plane[x0..].iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

/// Folds an im2col-shaped gradient `[in_c·k·k, oh·ow]` (the layout of
/// [`im2col_strided`]) back onto the input grid `[in_c, h, w]`, adding
/// where receptive fields overlap — the adjoint of im2col. The adds run in
/// `(ic, ky, kx, oy, ox)` order; for one `(tap, oy)` the in-bounds output
/// columns land on distinct pixels of one input row, so each is one
/// contiguous (stride 1) or strided row-slice add, and every pixel still
/// receives its terms in that order.
fn col2im_add(d_cols: &[f32], in_c: usize, h: usize, w: usize, p: Conv2dParams, out: &mut [f32]) {
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let (k, s) = (p.kernel, p.stride);
    let ohw = oh * ow;
    assert!(
        d_cols.len() >= in_c * k * k * ohw && out.len() >= in_c * h * w,
        "col2im: slice too short"
    );
    for (tap, src) in d_cols.chunks_exact(ohw).take(in_c * k * k).enumerate() {
        let (ic, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
        let plane = &mut out[ic * h * w..(ic + 1) * h * w];
        let (ox_lo, ox_hi) = tap_columns(p, w, ow, kx);
        if ox_lo == ox_hi {
            continue;
        }
        for (oy, row) in src.chunks_exact(ow).enumerate() {
            let iy = (oy * s + ky).wrapping_sub(p.padding);
            if iy >= h {
                continue;
            }
            let x0 = iy * w + ox_lo * s + kx - p.padding;
            let run = &row[ox_lo..ox_hi];
            if s == 1 {
                for (d, &g) in plane[x0..x0 + run.len()].iter_mut().zip(run) {
                    *d += g;
                }
            } else {
                for (d, &g) in plane[x0..].iter_mut().step_by(s).zip(run) {
                    *d += g;
                }
            }
        }
    }
}

/// 2-D convolution forward pass for a single sample, as an implicit GEMM:
/// the input is copied once into a zero-padded image (read in place when
/// `padding` is 0), every output row is seeded with its bias, and the
/// dispatched `conv_f32` kernel ([`crate::simd::ConvF32Fn`]) runs the
/// register-tiled f32 GEMM `weight [out_c × in_c·k²] · patches` with its
/// rhs panels gathered straight from that image. No im2col matrix is
/// written.
///
/// * `input` — `[in_c, h, w]`
/// * `weight` — `[out_c, in_c, k, k]`
/// * `bias` — `[out_c]`
///
/// Returns `[out_c, oh, ow]`. Each output accumulates its terms in the same
/// `(ic, ky, kx)`-ascending order (bias first) as a direct loop nest would,
/// so the result matches a naive implementation bit for bit on finite
/// activations (exactly-zero weights skip their terms — see [`gemm`] for the
/// NaN/Inf edge).
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, p: Conv2dParams) -> Tensor {
    let (in_c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (out_c, w_in_c, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    assert_eq!(in_c, w_in_c, "conv2d channel mismatch");
    assert_eq!(weight.shape()[3], k, "conv2d kernel must be square");
    assert_eq!(bias.len(), out_c, "conv2d bias size mismatch");
    assert_eq!(k, p.kernel, "conv2d weight kernel disagrees with params");
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let g = simd::PaddedConv {
        in_c,
        out_c,
        hp: h + 2 * p.padding,
        wp: w + 2 * p.padding,
        kernel: k,
        stride: p.stride,
    };
    let padded;
    let image = if p.padding == 0 {
        input.data()
    } else {
        padded = padded_image(input.data(), in_c, h, w, p.padding);
        &padded[..]
    };
    // Seed every output row with its bias so the bias participates first in
    // each accumulation chain, exactly like `acc = bias; acc += ...`.
    let mut out = vec![0.0f32; out_c * oh * ow];
    for (row, &b) in out.chunks_exact_mut(oh * ow).zip(bias.data()) {
        row.fill(b);
    }
    (simd::kernels().conv_f32)(&g, weight.data(), image, &mut out);
    Tensor::from_vec(out, &[out_c, oh, ow])
}

/// A copy of the `[in_c, h, w]` image with `padding` rows and columns of
/// `+0.0` on every side (the value im2col writes for a padding tap).
fn padded_image(input: &[f32], in_c: usize, h: usize, w: usize, padding: usize) -> Vec<f32> {
    let wp = w + 2 * padding;
    let plane = (h + 2 * padding) * wp;
    let mut img = vec![0.0f32; in_c * plane];
    for (r, src) in input[..in_c * h * w].chunks_exact(w).enumerate() {
        let (c, y) = (r / h, r % h);
        let start = c * plane + (y + padding) * wp + padding;
        img[start..start + w].copy_from_slice(src);
    }
    img
}

/// The reusable working buffer of the convolution backward pass
/// ([`conv2d_param_grads`] and [`conv2d_backward`]). The parameter
/// gradients split it into the channel-interleaved input, its patch-major
/// rows and the weight-gradient GEMM's output; the input gradient then
/// reuses its front as the patch-shaped `weightᵀ · d_out`. It grows to its
/// high-water size and is reused from then on; no call reads a value an
/// earlier call left behind, so which scratch a call gets never changes a
/// result. One scratch serves every convolution of a backward pass.
///
/// Cloning yields an empty scratch, so replicating its owner (a training
/// lane) copies no buffer.
#[derive(Debug, Default)]
pub struct ConvScratch {
    buf: Vec<f32>,
}

impl Clone for ConvScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The geometry of a single-sample convolution backward pass: `(in_c, h,
/// w, out_c, oh·ow, in_c·k²)`, with `d_out`'s shape checked against the
/// forward output's.
fn backward_geometry(
    input: &Tensor,
    d_out: &Tensor,
    p: Conv2dParams,
) -> (usize, usize, usize, usize, usize, usize) {
    let (in_c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let out_c = d_out.shape()[0];
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    assert_eq!(
        d_out.shape(),
        &[out_c, oh, ow],
        "conv2d_backward d_out shape"
    );
    (in_c, h, w, out_c, oh * ow, in_c * p.kernel * p.kernel)
}

/// Adds the weight and bias gradients of a single-sample convolution onto
/// `grad_weight` (`[out_c, in_c, k, k]`, row-major) and `grad_bias`
/// (`[out_c]`): the parameter half of [`conv2d_backward`], for a first
/// layer whose input gradient nobody reads.
///
/// The weight gradient is one GEMM, `d_out (out_c × oh·ow) · patches (oh·ow
/// × in_c·k²)`, over patch-major rows gathered straight from the input in
/// the `(ky, kx, ic)` lane order of [`conv_patch_lane`] (whole kernel rows
/// per copy). Its lane-ordered result is added straight into the caller's
/// tap-ordered gradient, `grad[ic·k² + t] += lanes[t·in_c + ic]`.
///
/// The accumulation orders are fixed: each weight-gradient term starts at
/// `+0.0` and adds its terms in ascending output position, skipping
/// exact-zero `d_out` entries (the [`gemm`] lhs rule), before it is added
/// to `grad_weight`; each bias term is a sequential sum of its `d_out`
/// channel, then added to `grad_bias`. Permuting the gathered lanes only
/// moves whole output columns of the GEMM, so no chain changes.
///
/// # Panics
///
/// Panics if `d_out` is not the forward output's shape or a gradient slice
/// has the wrong length.
pub fn conv2d_param_grads(
    input: &Tensor,
    d_out: &Tensor,
    p: Conv2dParams,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
    scratch: &mut ConvScratch,
) {
    let (in_c, h, w, out_c, ohw, ck) = backward_geometry(input, d_out, p);
    assert_eq!(grad_weight.len(), out_c * ck, "conv2d_backward weight grad");
    assert_eq!(grad_bias.len(), out_c, "conv2d_backward bias grad");
    let dd = d_out.data();
    for (g, oc) in grad_bias.iter_mut().zip(0..) {
        *g += dd[oc * ohw..(oc + 1) * ohw].iter().sum::<f32>();
    }

    // The HWC image and the patch rows are written whole before they are
    // read; the GEMM output starts at `+0.0`.
    let buf = &mut scratch.buf;
    buf.resize(buf.len().max(in_c * h * w + ohw * ck + out_c * ck), 0.0);
    let (vals, rest) = buf.split_at_mut(in_c * h * w);
    let (patches, rest) = rest.split_at_mut(ohw * ck);
    let lanes = &mut rest[..out_c * ck];
    lanes.fill(0.0);
    for (ic, plane) in input.data()[..in_c * h * w].chunks_exact(h * w).enumerate() {
        for (dst, &v) in vals[ic..].iter_mut().step_by(in_c).zip(plane) {
            *dst = v;
        }
    }
    gather_patch_rows(vals, in_c, h, w, p, ck, patches);
    gemm(out_c, ohw, ck, dd, patches, lanes);
    let taps = p.kernel * p.kernel;
    for (g, lanes) in grad_weight.chunks_exact_mut(ck).zip(lanes.chunks_exact(ck)) {
        // Tap `ic·k² + t` sits in lane `t·in_c + ic` ([`conv_patch_lane`]).
        for (ic, g) in g.chunks_exact_mut(taps).enumerate() {
            for (d, &v) in g.iter_mut().zip(lanes[ic..].iter().step_by(in_c)) {
                *d += v;
            }
        }
    }
}

/// 2-D convolution backward pass for a single sample: adds the weight and
/// bias gradients onto `grad_weight` and `grad_bias` exactly as
/// [`conv2d_param_grads`] does, and returns the input gradient `[in_c, h,
/// w]`, `col2im(weightᵀ · d_out)`.
///
/// * `input` — `[in_c, h, w]`, the forward input;
/// * `weight` — `[out_c, in_c, k, k]`;
/// * `d_out` — `[out_c, oh, ow]`, matching the forward output.
///
/// The input-gradient GEMM reads the row-major weight through the
/// dispatched `gemm_f32_lhs_t` kernel, so no `weightᵀ` is built: each
/// `weightᵀ · d_out` entry starts at `+0.0` and adds in ascending `oc`,
/// skipping exact-zero weights. The fold is a row-slice add per `(tap,
/// oy)`, and each input pixel adds its terms in `(ic, ky, kx, oy, ox)`
/// order. Working buffers come from `scratch`; only the returned gradient
/// is allocated.
///
/// # Panics
///
/// Panics if a shape or gradient slice disagrees with the geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    p: Conv2dParams,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
    scratch: &mut ConvScratch,
) -> Tensor {
    let (in_c, h, w, out_c, ohw, ck) = backward_geometry(input, d_out, p);
    assert_eq!(
        weight.shape(),
        &[out_c, in_c, p.kernel, p.kernel],
        "conv2d_backward weight shape"
    );
    conv2d_param_grads(input, d_out, p, grad_weight, grad_bias, scratch);
    let d_cols = &mut scratch.buf[..ck * ohw];
    d_cols.fill(0.0);
    (simd::kernels().gemm_f32_lhs_t)(ck, out_c, ohw, weight.data(), d_out.data(), d_cols);
    let mut d_in = vec![0.0f32; in_c * h * w];
    col2im_add(d_cols, in_c, h, w, p, &mut d_in);
    Tensor::from_vec(d_in, &[in_c, h, w])
}

/// 2×2 (or general) max pooling forward pass for a single `[c, h, w]` sample,
/// the training form.
///
/// Returns the pooled output and the flat argmax indices used by the backward
/// pass. Each window folds in row-major order from `−Inf`, taking an element
/// only if it is strictly greater, so the first maximum wins and NaN never
/// does; a window with no element above `−Inf` (all NaN or all `−Inf`)
/// outputs `−Inf` and routes its gradient to its own first element. The
/// outputs are the values of the inference kernel `Kernels::maxpool_f32`
/// (see [`crate::simd::MaxPoolF32Fn`]), whose oracle this is.
pub fn maxpool2d(input: &Tensor, size: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let oh = (h - size) / stride + 1;
    let ow = (w - size) / stride + 1;
    let id = input.data();
    let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
    let mut arg = vec![0usize; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let oi = ch * oh * ow + oy * ow + ox;
                arg[oi] = ch * h * w + oy * stride * w + ox * stride;
                for ky in 0..size {
                    for kx in 0..size {
                        let iy = oy * stride + ky;
                        let ix = ox * stride + kx;
                        let ii = ch * h * w + iy * w + ix;
                        if id[ii] > out[oi] {
                            out[oi] = id[ii];
                            arg[oi] = ii;
                        }
                    }
                }
            }
        }
    }
    (Tensor::from_vec(out, &[c, oh, ow]), arg)
}

/// Max pooling backward pass: routes gradients to the argmax positions.
pub fn maxpool2d_backward(input_shape: &[usize], d_out: &Tensor, argmax: &[usize]) -> Tensor {
    let mut d_in = vec![0.0f32; input_shape.iter().product()];
    for (g, &src) in d_out.data().iter().zip(argmax) {
        d_in[src] += g;
    }
    Tensor::from_vec(d_in, input_shape)
}

/// Global average pooling: `[c, h, w] -> [c]`.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let id = input.data();
    let mut out = vec![0.0f32; c];
    for ch in 0..c {
        let s: f32 = id[ch * h * w..(ch + 1) * h * w].iter().sum();
        out[ch] = s / (h * w) as f32;
    }
    Tensor::from_vec(out, &[c])
}

/// Backward pass of [`global_avg_pool`].
pub fn global_avg_pool_backward(input_shape: &[usize], d_out: &Tensor) -> Tensor {
    let (c, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
    let scale = 1.0 / (h * w) as f32;
    let mut d_in = vec![0.0f32; c * h * w];
    for ch in 0..c {
        let g = d_out.data()[ch] * scale;
        for v in &mut d_in[ch * h * w..(ch + 1) * h * w] {
            *v = g;
        }
    }
    Tensor::from_vec(d_in, input_shape)
}

/// ReLU activation.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// ReLU backward: passes gradient where the forward input was positive.
pub fn relu_backward(input: &Tensor, d_out: &Tensor) -> Tensor {
    input.zip(d_out, |x, g| if x > 0.0 { g } else { 0.0 })
}

/// Numerically-stable softmax over a rank-1 tensor.
pub fn softmax(x: &Tensor) -> Tensor {
    let m = x.max();
    let exps: Vec<f32> = x.data().iter().map(|&v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    Tensor::from_vec(exps.into_iter().map(|e| e / s).collect(), x.shape())
}

/// Cross-entropy loss of softmax `probs` against a one-hot `label` index.
///
/// Returns `(loss, d_logits)` where `d_logits` is the gradient with respect to
/// the pre-softmax logits (the usual `probs - onehot` shortcut).
pub fn softmax_cross_entropy(logits: &Tensor, label: usize) -> (f32, Tensor) {
    let probs = softmax(logits);
    let eps = 1e-9f32;
    let loss = -(probs.data()[label] + eps).ln();
    let mut d = probs.data().to_vec();
    d[label] -= 1.0;
    (loss, Tensor::from_vec(d, logits.shape()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 reproduces the input.
        let input = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[1, 3, 3]);
        let weight = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, Conv2dParams::new(1, 1, 0));
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_known_sum_kernel() {
        // 3x3 all-ones kernel with padding 1 at the center equals the sum of
        // the full input.
        let input = Tensor::from_vec(vec![1.0; 9], &[1, 3, 3]);
        let weight = Tensor::from_vec(vec![1.0; 9], &[1, 1, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, Conv2dParams::new(3, 1, 1));
        assert_eq!(out.shape(), &[1, 3, 3]);
        assert!(approx(out.get(&[0, 1, 1]), 9.0));
        assert!(approx(out.get(&[0, 0, 0]), 4.0)); // corner sees 2x2 window
    }

    /// Reference naive conv used to validate the implicit-GEMM path.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, bias: &Tensor, p: Conv2dParams) -> Tensor {
        let (in_c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (out_c, k) = (weight.shape()[0], weight.shape()[2]);
        let (oh, ow) = (p.out_size(h), p.out_size(w));
        let mut out = vec![0.0f32; out_c * oh * ow];
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.data()[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input.data()[ic * h * w + iy as usize * w + ix as usize]
                                    * weight.data()[oc * in_c * k * k + ic * k * k + ky * k + kx];
                            }
                        }
                    }
                    out[oc * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        Tensor::from_vec(out, &[out_c, oh, ow])
    }

    fn pseudo(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * phase).sin()).collect()
    }

    #[test]
    fn gemm_matches_naive_triple_loop_across_block_boundaries() {
        // Sizes straddling the MC/KC blocking thresholds.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 4),
            (65, 257, 7),
            (64, 256, 2),
            (70, 513, 3),
        ] {
            let a = pseudo(m * k, 0.31);
            let b = pseudo(k * n, 0.17);
            let mut blocked = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut blocked);
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for p in 0..k {
                    for j in 0..n {
                        naive[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
            // Bit-identical, not just approximately equal: accumulation order
            // per output element is the same in both loops.
            assert_eq!(blocked, naive, "gemm mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_accumulates_into_out() {
        let mut out = vec![1.0f32; 4];
        gemm(
            2,
            2,
            2,
            &[1.0, 0.0, 0.0, 1.0],
            &[5.0, 6.0, 7.0, 8.0],
            &mut out,
        );
        assert_eq!(out, vec![6.0, 7.0, 8.0, 9.0]);
    }

    /// `a (m×k) · bt (n×k)ᵀ` by the naive triple loop, in i64.
    fn naive_i64<T: Copy + Into<i64>>(m: usize, k: usize, n: usize, a: &[T], bt: &[T]) -> Vec<i64> {
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a[i * k + p].into() * bt[j * k + p].into();
                }
            }
        }
        out
    }

    /// `rows` of `k` lanes, each zero-padded to the lane type's panel stride.
    fn pad_rows<T: PanelLane>(rows: &[T], k: usize) -> Vec<T> {
        let k_pad = T::packed_stride(k);
        let mut out = vec![T::default(); rows.len() / k * k_pad];
        for (dst, src) in out.chunks_exact_mut(k_pad).zip(rows.chunks_exact(k)) {
            dst[..k].copy_from_slice(src);
        }
        out
    }

    /// [`gemm_i16_packed`] on the padded forms of `a (m×k)` and `bt (n×k)`.
    fn packed_i16(m: usize, k: usize, n: usize, a: &[i16], bt: &[i16], out: &mut [i64]) {
        gemm_i16_packed(
            m,
            packed_stride_i16(k),
            n,
            &pad_rows(a, k),
            &pad_rows(bt, k),
            out,
        );
    }

    /// A pseudo-random operand over the whole i16 domain.
    fn i16_values(len: usize, mul: usize, add: usize) -> Vec<i16> {
        (0..len)
            .map(|i| ((i * mul + add) % 65536) as u16 as i16)
            .collect()
    }

    #[test]
    fn integer_gemm_matches_naive_reference() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 4), (65, 257, 7), (70, 513, 3)] {
            let a = i16_values(m * k, 37, 11);
            let bt = i16_values(n * k, 53, 7);
            let mut out64 = vec![0i64; m * n];
            packed_i16(m, k, n, &a, &bt, &mut out64);
            assert_eq!(
                out64,
                naive_i64(m, k, n, &a, &bt),
                "gemm_i16_packed mismatch at ({m},{k},{n})"
            );
        }
    }

    /// A dense layer run as a group of one is the `n = 1` GEMM: it must
    /// equal the matching column of the same product over a wider batch.
    #[test]
    fn integer_matvec_matches_gemm_column() {
        let (m, k, batch) = (33, 129, 3);
        let a = i16_values(m * k, 29, 0);
        let bt = i16_values(batch * k, 41, 0);
        let mut mv = vec![0i64; m];
        packed_i16(m, k, 1, &a, &bt[k..2 * k], &mut mv);
        let mut gm = vec![0i64; m * batch];
        packed_i16(m, k, batch, &a, &bt, &mut gm);
        let column: Vec<i64> = (0..m).map(|i| gm[i * batch + 1]).collect();
        assert_eq!(mv, column);
    }

    /// Both integer dispatch paths equal the naive i64 triple loop on the
    /// same operands, across the full ±128 domain: the packed i8 GEMM
    /// (int4/int8) and the packed i16 GEMM (int16 and deep reductions).
    #[test]
    fn dot_structured_i8_gemm_matches_i32_gemm() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 4), (6, 75, 64), (16, 54, 16), (7, 129, 3)] {
            let a: Vec<i8> = (0..m * k)
                .map(|i| ((i * 37 + 11) % 256) as u8 as i8)
                .collect();
            let bt: Vec<i8> = (0..n * k)
                .map(|i| ((i * 53 + 7) % 256) as u8 as i8)
                .collect();
            let reference = naive_i64(m, k, n, &a, &bt);
            let mut dot = vec![0i32; m * n];
            gemm_i8_packed(
                m,
                packed_stride_i8(k),
                n,
                &pad_rows(&a, k),
                &pad_rows(&bt, k),
                &mut dot,
            );
            let dot: Vec<i64> = dot.iter().map(|&v| v as i64).collect();
            assert_eq!(dot, reference, "gemm_i8_packed mismatch at ({m},{k},{n})");
            let widen = |v: &[i8]| v.iter().map(|&x| x as i16).collect::<Vec<i16>>();
            let mut wide = vec![0i64; m * n];
            packed_i16(m, k, n, &widen(&a), &widen(&bt), &mut wide);
            assert_eq!(wide, reference, "gemm_i16_packed mismatch at ({m},{k},{n})");
        }
    }

    /// The dense group-of-one shape (`n = 1`) on both integer paths.
    #[test]
    fn i8_matvec_matches_i32_matvec() {
        let (m, k) = (33, 129);
        // Full corrupted int8 domain including -128.
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 29) % 256) as u8 as i8).collect();
        let x: Vec<i8> = (0..k).map(|i| ((i * 41) % 256) as u8 as i8).collect();
        let reference = naive_i64(m, k, 1, &a, &x);
        let mut dot = vec![0i32; m];
        gemm_i8_packed(
            m,
            packed_stride_i8(k),
            1,
            &pad_rows(&a, k),
            &pad_rows(&x, k),
            &mut dot,
        );
        let dot: Vec<i64> = dot.iter().map(|&v| v as i64).collect();
        assert_eq!(dot, reference);
        let widen = |v: &[i8]| v.iter().map(|&x| x as i16).collect::<Vec<i16>>();
        let mut wide = vec![0i64; m];
        packed_i16(m, k, 1, &widen(&a), &widen(&x), &mut wide);
        assert_eq!(wide, reference);
    }

    #[test]
    fn integer_gemm_accumulates_into_out() {
        let mut out = vec![1i64; 4];
        packed_i16(2, 2, 2, &[1, 0, 0, 1], &[5, 7, 6, 8], &mut out);
        assert_eq!(out, vec![6, 7, 8, 9]);
    }

    /// The i16 patch packer reproduces the f32 [`im2col`] on the same
    /// integer values (transposed, in [`conv_patch_lane`] order, at the
    /// panel stride, zero pad lanes), over the full 16-bit stored domain.
    /// `cols` starts stale, so every lane must be written.
    #[test]
    fn im2col_i32_matches_f32_im2col_on_integer_data() {
        for (in_c, h, w, k, stride, padding) in
            [(3, 9, 9, 3, 1, 1), (2, 8, 7, 3, 2, 1), (1, 5, 7, 1, 1, 0)]
        {
            let p = Conv2dParams::new(k, stride, padding);
            let stored: Vec<u32> = (0..in_c * h * w)
                .map(|i| ((i * 40503 + 7) % 65536) as u32)
                .collect();
            let floats: Vec<f32> = stored
                .iter()
                .map(|&s| crate::bits::sign_extend(s, 16) as f32)
                .collect();
            let reference = im2col(&Tensor::from_vec(floats, &[in_c, h, w]), p);
            let (ohw, ck) = (p.out_size(h) * p.out_size(w), in_c * k * k);
            let stride_lanes = packed_stride_i16(ck);
            let mut cols = vec![0x5555i16; ohw * stride_lanes];
            im2col_t_stored_strided(
                &stored,
                16,
                in_c,
                h,
                w,
                p,
                stride_lanes,
                &mut Vec::new(),
                &mut cols,
            );
            for patch in 0..ohw {
                let row = &cols[patch * stride_lanes..(patch + 1) * stride_lanes];
                for tap in 0..ck {
                    assert_eq!(
                        row[conv_patch_lane(in_c, k, tap)] as f32,
                        reference.data()[tap * ohw + patch],
                        "im2col mismatch at k={k} s={stride} p={padding}"
                    );
                }
                assert!(row[ck..].iter().all(|&v| v == 0), "pad lanes are zeroed");
            }
        }
    }

    #[test]
    fn conv2d_gemm_matches_naive_reference() {
        for (in_c, out_c, h, w, k, stride, padding) in [
            (3, 8, 9, 9, 3, 1, 1),
            (2, 4, 8, 8, 3, 2, 1),
            (1, 2, 5, 7, 1, 1, 0),
            (4, 3, 6, 6, 5, 1, 2),
        ] {
            let p = Conv2dParams::new(k, stride, padding);
            let input = Tensor::from_vec(pseudo(in_c * h * w, 0.23), &[in_c, h, w]);
            let weight = Tensor::from_vec(pseudo(out_c * in_c * k * k, 0.41), &[out_c, in_c, k, k]);
            let bias = Tensor::from_vec(pseudo(out_c, 0.77), &[out_c]);
            assert_eq!(
                conv2d(&input, &weight, &bias, p),
                conv2d_naive(&input, &weight, &bias, p),
                "conv mismatch at in_c={in_c} out_c={out_c} k={k} s={stride} p={padding}"
            );
        }
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im_add(y)> for all x, y — the defining
        // property the backward pass's scatter relies on.
        let p = Conv2dParams::new(3, 2, 1);
        let (c, h, w) = (2, 6, 5);
        let x = Tensor::from_vec(pseudo(c * h * w, 0.13), &[c, h, w]);
        let cols = im2col(&x, p);
        let y = Tensor::from_vec(pseudo(cols.len(), 0.37), cols.shape());
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut folded = vec![0.0f32; c * h * w];
        col2im_add(y.data(), c, h, w, p, &mut folded);
        let rhs: f32 = x.data().iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn conv2d_backward_matches_numerical_gradient() {
        // Finite-difference check of d_weight on a tiny conv.
        let input = Tensor::from_vec(
            vec![0.5, -1.0, 2.0, 0.3, 1.5, -0.7, 0.2, 0.9, -1.1],
            &[1, 3, 3],
        );
        let mut weight = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4], &[1, 1, 2, 2]);
        let bias = Tensor::zeros(&[1]);
        let p = Conv2dParams::new(2, 1, 0);

        // Loss = sum of outputs.
        let out = conv2d(&input, &weight, &bias, p);
        let d_out = Tensor::full(out.shape(), 1.0);
        let (mut d_weight, mut d_bias) = ([0.0f32; 4], [0.0f32]);
        let scratch = &mut ConvScratch::default();
        conv2d_backward(
            &input,
            &weight,
            &d_out,
            p,
            &mut d_weight,
            &mut d_bias,
            scratch,
        );

        let eps = 1e-3;
        for (wi, &analytic) in d_weight.iter().enumerate() {
            let orig = weight.data()[wi];
            weight.data_mut()[wi] = orig + eps;
            let lp = conv2d(&input, &weight, &bias, p).sum();
            weight.data_mut()[wi] = orig - eps;
            let lm = conv2d(&input, &weight, &bias, p).sum();
            weight.data_mut()[wi] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic).abs() < 1e-2,
                "weight grad mismatch at {wi}: numerical {num} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let (out, arg) = maxpool2d(&input, 2, 2);
        assert_eq!(out.data(), &[4.0]);
        let d_out = Tensor::from_vec(vec![5.0], &[1, 1, 1]);
        let d_in = maxpool2d_backward(&[1, 2, 2], &d_out, &arg);
        assert_eq!(d_in.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    /// A window with nothing above `−Inf` (all NaN, or all `−Inf`) outputs
    /// `−Inf` and routes its gradient to its own first element, never to
    /// another window's or channel's.
    #[test]
    fn maxpool_window_without_a_maximum_routes_to_its_first_element() {
        let nan = f32::NAN;
        let neg = f32::NEG_INFINITY;
        // Two channels of 2×4, 2×2 windows: channel 0's left window is all
        // NaN, channel 1's right window all −Inf.
        #[rustfmt::skip]
        let input = Tensor::from_vec(
            vec![
                nan, nan, 1.0, 2.0,
                nan, nan, 3.0, 0.5,
                4.0, -1.0, neg, neg,
                nan, 2.5, neg, neg,
            ],
            &[2, 2, 4],
        );
        let (out, arg) = maxpool2d(&input, 2, 2);
        assert_eq!(out.data(), &[neg, 3.0, 4.0, neg]);
        assert_eq!(arg, vec![0, 6, 8, 10]);
        let d_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]);
        let d_in = maxpool2d_backward(&[2, 2, 4], &d_out, &arg);
        let mut want = vec![0.0f32; 16];
        (want[0], want[6], want[8], want[10]) = (1.0, 2.0, 3.0, 4.0);
        assert_eq!(d_in.data(), want.as_slice());
    }

    #[test]
    fn global_avg_pool_mean_and_gradient() {
        let input = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 2, 2]);
        let out = global_avg_pool(&input);
        assert_eq!(out.data(), &[4.0]);
        let d = global_avg_pool_backward(&[1, 2, 2], &Tensor::from_vec(vec![4.0], &[1]));
        assert_eq!(d.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_and_backward() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
        let g = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]);
        assert_eq!(relu_backward(&x, &g).data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0, 1000.0], &[3]);
        let p = softmax(&x);
        assert!(approx(p.sum(), 1.0));
        assert!(approx(p.data()[0], 1.0 / 3.0));
    }

    #[test]
    fn cross_entropy_gradient_shape() {
        let logits = Tensor::from_vec(vec![0.1, 0.9, -0.3], &[3]);
        let (loss, d) = softmax_cross_entropy(&logits, 1);
        assert!(loss > 0.0);
        assert_eq!(d.shape(), &[3]);
        // Gradient sums to ~0 for softmax cross-entropy.
        assert!(d.sum().abs() < 1e-5);
    }

    /// Deterministic pseudo-random f32s in [-1, 1) for the batched parity
    /// tests.
    fn lcg_f32(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 23) as f32) - 1.0
            })
            .collect()
    }

    fn lcg_i32(seed: u64, len: usize, q: i32) -> Vec<i32> {
        let span = (2 * q + 1) as u64;
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) % span) as i32 - q
            })
            .collect()
    }

    #[test]
    fn integer_gemm_batch_variants_match_their_per_call_forms() {
        // An odd row count, so the last row pairs with itself; the per-call
        // form runs every row alone (the odd-row path).
        let (m, k, n) = (19, 96, 640);
        let a = i16_values(m * k, 40503, 3);
        let bt = i16_values(n * k, 9973, 4);
        let mut whole = vec![0i64; m * n];
        packed_i16(m, k, n, &a, &bt, &mut whole);
        let mut per_row = vec![0i64; m * n];
        for (i, out) in per_row.chunks_exact_mut(n).enumerate() {
            packed_i16(1, k, n, &a[i * k..(i + 1) * k], &bt, out);
        }
        assert_eq!(whole, per_row);
    }

    #[test]
    fn strided_im2col_packs_per_sample_patch_matrices() {
        let p = Conv2dParams::new(3, 1, 1);
        let (in_c, h, w) = (2, 5, 5);
        let (oh, ow) = (p.out_size(h), p.out_size(w));
        let ck = in_c * 9;
        let samples: Vec<Vec<f32>> = (0..3).map(|s| lcg_f32(10 + s, in_c * h * w)).collect();
        let n = 3 * oh * ow;
        let mut packed = vec![0.0f32; ck * n];
        for (j, s) in samples.iter().enumerate() {
            im2col_strided(s, in_c, h, w, p, j * oh * ow, n, &mut packed);
        }
        for (j, s) in samples.iter().enumerate() {
            let single = im2col(&Tensor::from_vec(s.clone(), &[in_c, h, w]), p);
            for row in 0..ck {
                assert_eq!(
                    &packed[row * n + j * oh * ow..row * n + (j + 1) * oh * ow],
                    &single.data()[row * oh * ow..(row + 1) * oh * ow],
                    "sample {j} row {row}"
                );
            }
        }
    }

    /// The span-copy strided gather must reproduce the naive per-tap patch
    /// gather (the transpose of the f32 [`im2col`] on the sign-extended
    /// values, read through [`conv_patch_lane`]) in the first `ck` lanes of
    /// every patch row and zero the pad lanes of a stale buffer, across
    /// strides/paddings and sub-byte precisions.
    #[test]
    fn strided_i8_im2col_matches_the_per_tap_form_with_zero_pad_lanes() {
        for (kernel, stride, padding, bits) in [(3, 1, 1, 8u32), (3, 2, 1, 4), (5, 2, 2, 8)] {
            let p = Conv2dParams::new(kernel, stride, padding);
            let (in_c, h, w) = (3, 9, 7);
            let (oh, ow) = (p.out_size(h), p.out_size(w));
            let ck = in_c * kernel * kernel;
            let mask = (1u32 << bits) - 1;
            let stored: Vec<u32> = lcg_i32(7, in_c * h * w, 1 << 20)
                .iter()
                .map(|&v| (v as u32) & mask)
                .collect();
            let values: Vec<f32> = stored
                .iter()
                .map(|&s| crate::bits::sign_extend(s, bits) as f32)
                .collect();
            let straight = im2col(&Tensor::from_vec(values, &[in_c, h, w]), p);
            let row_stride = packed_stride_i8(ck);
            let mut vals = Vec::new();
            let mut got = vec![0x55i8; oh * ow * row_stride];
            im2col_i8_t_stored_strided(
                &stored, bits, in_c, h, w, p, row_stride, &mut vals, &mut got,
            );
            for patch in 0..oh * ow {
                let row = &got[patch * row_stride..(patch + 1) * row_stride];
                let mut expect = vec![0i8; ck];
                for tap in 0..ck {
                    expect[conv_patch_lane(in_c, kernel, tap)] =
                        straight.data()[tap * oh * ow + patch] as i8;
                }
                assert_eq!(
                    &row[..ck],
                    &expect[..],
                    "patch {patch} at k{kernel}/s{stride}/p{padding}/{bits}b"
                );
                assert!(
                    row[ck..].iter().all(|&v| v == 0),
                    "pad lanes of patch {patch} must be zeroed"
                );
            }
        }
    }

    #[test]
    fn conv_patch_lane_is_a_bijection_onto_the_patch() {
        for in_c in 1..6 {
            for kernel in 1..6 {
                let ck = in_c * kernel * kernel;
                let mut seen = vec![false; ck];
                for tap in 0..ck {
                    let lane = conv_patch_lane(in_c, kernel, tap);
                    assert!(
                        lane < ck,
                        "lane {lane} outside the patch at c{in_c}/k{kernel}"
                    );
                    assert!(!seen[lane], "lane {lane} hit twice at c{in_c}/k{kernel}");
                    seen[lane] = true;
                }
            }
        }
        // Tap (ic, ky, kx) = (1, 2, 0) of a 3-channel 3×3 kernel is index
        // (1·3 + 2)·3 + 0 = 15 and lands on lane (2·3 + 0)·3 + 1 = 19.
        assert_eq!(conv_patch_lane(3, 3, 15), 19);
    }

    /// The packed-panel GEMM must equal the naive dot-structured triple
    /// loop on the same logical operands (the pad lanes hold zeros, which
    /// contribute nothing to an integer sum) — odd m included.
    #[test]
    fn packed_i8_gemm_matches_the_dot_structured_form() {
        for (m, k, n) in [(1usize, 27usize, 5usize), (12, 108, 33), (7, 64, 16)] {
            let a8: Vec<i8> = lcg_i32(3, m * k, 128).iter().map(|&v| v as i8).collect();
            let bt8: Vec<i8> = lcg_i32(9, n * k, 128).iter().map(|&v| v as i8).collect();
            let mut want = vec![0i32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        want[i * n + j] += a8[i * k + p] as i32 * bt8[j * k + p] as i32;
                    }
                }
            }
            let mut got = vec![0i32; m * n];
            gemm_i8_packed(
                m,
                packed_stride_i8(k),
                n,
                &pad_rows(&a8, k),
                &pad_rows(&bt8, k),
                &mut got,
            );
            assert_eq!(got, want, "packed gemm at ({m},{k},{n})");
        }
    }
}
