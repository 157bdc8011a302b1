//! Bit-for-bit parity of every dispatched SIMD kernel against the scalar
//! reference, of the packed i8 and i16 GEMMs built on them against a naive
//! triple loop, of the implicit-GEMM f32 convolution against a naive loop
//! nest, of the absolute-value scan against its definition, and of the two
//! max-pooling forms against `ops::maxpool2d` and a naive loop, at every
//! ISA level this CPU supports.
//!
//! The repo's determinism contract says results never depend on which
//! kernel table happened to be resolved, so each property here runs the
//! same inputs through `kernels_for(isa)` for all supported levels and
//! requires exact equality with `kernels_for(Isa::Scalar)`. Inputs cover
//! ragged lengths (not multiples of any lane width), unaligned slice
//! offsets, and the negative/saturating corners of the corrupted quantized
//! domain (notably `-128`, where the `pmaddubsw` sign-trick would break —
//! see `eden_tensor::simd`) and, for the i16 kernels, `-32768`, where a
//! `pmaddwd` pair sum wraps.

use eden_par::ThreadPool;
use eden_tensor::ops::{self, PanelLane};
use eden_tensor::simd::{kernels_for, Isa, Kernels, PaddedConv, Pool2d, GEMM_I16_FLUSH_K};
use eden_tensor::{bits, Tensor};
use proptest::prelude::*;

/// Every kernel table this CPU can run, scalar first.
fn supported_tables() -> Vec<Kernels> {
    Isa::all()
        .into_iter()
        .filter(|isa| isa.is_supported())
        .map(kernels_for)
        .collect()
}

/// The corrupted int8 domain: bit flips can produce any pattern, so the
/// saturating corners (`-128` in particular) must be as common as the
/// interior.
const I8_EXTREMES: [i8; 8] = [-128, -127, -64, -1, 0, 1, 126, 127];

/// Operand values whose low byte is fed to the i8 kernels (truncation keeps
/// every value inside the corrupted int8 domain while covering all of it).
fn i16_operand() -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec(-2048i32..2049, 1..200)
}

fn i8_operand() -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec(-128i32..128, 1..200)
}

/// A pseudo-random row-major `rows × k` operand spanning the full corrupted
/// int8 domain `[-128, 127]`.
fn i8_matrix(rows: usize, k: usize, mul: u32, seed: u32) -> Vec<i8> {
    (0..rows * k)
        .map(|i| ((i as u32 * mul + seed * 11) % 256) as u8 as i8)
        .collect()
}

/// `a (m×k) · bt (n×k)ᵀ` by the naive triple loop, in i32.
fn naive_dot_gemm(m: usize, k: usize, n: usize, a: &[i8], bt: &[i8]) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                out[i * n + j] += a[i * k + p] as i32 * bt[j * k + p] as i32;
            }
        }
    }
    out
}

/// A pseudo-random row-major `rows × k` operand spanning the full i16
/// domain.
fn i16_matrix(rows: usize, k: usize, mul: u32, seed: u32) -> Vec<i16> {
    (0..rows * k)
        .map(|i| ((i as u32).wrapping_mul(mul).wrapping_add(seed * 11) % 65536) as u16 as i16)
        .collect()
}

/// `a (m×k) · bt (n×k)ᵀ` by the naive triple loop, in i64.
fn naive_i64_gemm(m: usize, k: usize, n: usize, a: &[i16], bt: &[i16]) -> Vec<i64> {
    let mut out = vec![0i64; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                out[i * n + j] += a[i * k + p] as i64 * bt[j * k + p] as i64;
            }
        }
    }
    out
}

/// Rows of `k` lanes zero-padded to the lane type's packed panel stride
/// (pad lanes contribute nothing to integer sums).
fn pad_rows<T: PanelLane>(rows: &[T], k: usize) -> Vec<T> {
    let k_pad = T::packed_stride(k);
    let mut out = vec![T::default(); rows.len() / k * k_pad];
    for (dst, src) in out.chunks_exact_mut(k_pad).zip(rows.chunks_exact(k)) {
        dst[..k].copy_from_slice(src);
    }
    out
}

/// [`ops::gemm_i8_packed_with`] on the padded forms of `a` and `bt`.
fn packed_gemm(t: &Kernels, m: usize, k: usize, n: usize, a: &[i8], bt: &[i8]) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    let k_pad = ops::packed_stride_i8(k);
    ops::gemm_i8_packed_with(t, m, k_pad, n, &pad_rows(a, k), &pad_rows(bt, k), &mut out);
    out
}

/// [`ops::gemm_i16_packed_with`] on the padded forms of `a` and `bt`.
fn packed_gemm_i16(t: &Kernels, m: usize, k: usize, n: usize, a: &[i16], bt: &[i16]) -> Vec<i64> {
    let mut out = vec![0i64; m * n];
    let k_pad = ops::packed_stride_i16(k);
    ops::gemm_i16_packed_with(t, m, k_pad, n, &pad_rows(a, k), &pad_rows(bt, k), &mut out);
    out
}

/// `gemm2_i8` at one column (the odd-column path of every panel kernel):
/// rows `a0` and `a1` against the column `b`, over `b.len()` lanes.
fn one_column_i8(t: &Kernels, a0: &[i8], a1: &[i8], b: &[i8]) -> (i32, i32) {
    let (mut out0, mut out1) = ([0i32], [0i32]);
    (t.gemm2_i8)(a0, a1, b, b.len(), &mut out0, &mut out1);
    (out0[0], out1[0])
}

proptest! {
    /// The widening i8 dot products of the one-column panel under ragged
    /// lengths and unaligned offsets.
    #[test]
    fn dot_kernels_match_scalar_at_every_isa(
        xs in i16_operand(),
        ys in i16_operand(),
        off in 0usize..8,
    ) {
        let n = xs.len().min(ys.len());
        let off = off.min(n.saturating_sub(1));
        // Low bytes of the operands (truncation — still a valid
        // corrupted-domain value).
        let a8: Vec<i8> = xs.iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> = ys.iter().map(|&v| v as i8).collect();
        let (a, b) = (&a8[off..n], &b8[off..n]);

        let tables = supported_tables();
        let r8 = one_column_i8(&tables[0], a, b, b);
        for t in &tables[1..] {
            prop_assert_eq!(one_column_i8(t, a, b, b), r8, "{} gemm2_i8 at one column", t.isa);
        }
    }

    /// The saturating corners of the corrupted int8 domain, dense: every
    /// element is drawn from the extreme set (−128 included), so the
    /// sign-extension of every wide path is exercised where approximations
    /// would diverge — in the two-row panel kernel at one column and at two.
    #[test]
    fn i8_dots_are_exact_on_saturating_inputs(
        picks in prop::collection::vec((0usize..8, 0usize..8), 1..150),
        off in 0usize..4,
    ) {
        let a: Vec<i8> = picks.iter().map(|&(i, _)| I8_EXTREMES[i]).collect();
        let b: Vec<i8> = picks.iter().map(|&(_, j)| I8_EXTREMES[j]).collect();
        let off = off.min(a.len() - 1);
        let (a, b) = (&a[off..], &b[off..]);
        let k = a.len();
        // Panel rows (a, b) against columns (b, a): the four cross dots.
        let bt: Vec<i8> = b.iter().chain(a).copied().collect();
        let tables = supported_tables();
        let reference = one_column_i8(&tables[0], a, b, b);
        let panel = |t: &Kernels| {
            let (mut out0, mut out1) = (vec![0i32; 2], vec![0i32; 2]);
            (t.gemm2_i8)(a, b, &bt, k, &mut out0, &mut out1);
            (out0, out1)
        };
        let reference2 = panel(&tables[0]);
        for t in &tables[1..] {
            prop_assert_eq!(one_column_i8(t, a, b, b), reference, "{} gemm2_i8 at one column", t.isa);
            prop_assert_eq!(panel(t), reference2.clone(), "{} gemm2_i8", t.isa);
        }
    }

    /// The f32 row-update kernel bit-for-bit (the wide forms use separate
    /// multiply and add, so each lane must round identically to the scalar
    /// loop).
    #[test]
    fn axpy_kernels_match_scalar_at_every_isa(
        xs in i8_operand(),
        scale in -100.0f32..100.0,
        off in 0usize..8,
    ) {
        let off = off.min(xs.len() - 1);
        let bf: Vec<f32> = xs[off..].iter().map(|&v| v as f32 * 0.37).collect();

        let tables = supported_tables();
        let mut outf = vec![0.125f32; bf.len()];
        (tables[0].axpy_f32)(scale, &bf, &mut outf);
        for t in &tables[1..] {
            let mut gotf = vec![0.125f32; bf.len()];
            (t.axpy_f32)(scale, &bf, &mut gotf);
            // Bit-for-bit, not approximate: compare the raw bit patterns.
            let want: Vec<u32> = outf.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = gotf.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "{} axpy_f32", t.isa);
        }
    }

    /// The dot-structured packed i8 GEMM against a naive triple loop, at
    /// every supported level, with shapes whose `k` straddles every lane
    /// width and the 64-lane pad.
    #[test]
    fn dot_structured_gemms_match_naive_at_every_isa(
        m in 1usize..6,
        k in 1usize..130,
        n in 1usize..6,
        seed in 0u32..1000,
    ) {
        let a = i8_matrix(m, k, 37, seed);
        let bt = i8_matrix(n, k, 53, seed + 1);
        let naive = naive_dot_gemm(m, k, n, &a, &bt);
        for t in supported_tables() {
            let got = packed_gemm(&t, m, k, n, &a, &bt);
            prop_assert_eq!(&got, &naive, "{} gemm_i8_packed ({},{},{})", t.isa, m, k, n);
        }
    }

    /// A dense layer run as a group of one: the `n = 1` packed GEMM (a
    /// matrix–vector product) against the naive dot per row, at every level.
    #[test]
    fn matvecs_match_gemm_column_at_every_isa(
        m in 1usize..40,
        k in 1usize..130,
        seed in 0u32..1000,
    ) {
        let a = i8_matrix(m, k, 29, seed);
        let x = i8_matrix(1, k, 41, seed + 3);
        let reference = naive_dot_gemm(m, k, 1, &a, &x);
        for t in supported_tables() {
            let got = packed_gemm(&t, m, k, 1, &a, &x);
            prop_assert_eq!(&got, &reference, "{} gemm_i8_packed n=1 ({},{})", t.isa, m, k);
        }
    }

    /// The f32 GEMM (which now dispatches its row update) stays bit-identical
    /// to the naive triple loop — the invariant the SimulatedF32 backend's
    /// determinism rests on.
    #[test]
    fn f32_gemm_matches_naive_triple_loop(
        m in 1usize..6,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u32..1000,
    ) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| (((i as u32 * 37 + seed * 11) % 256) as f32 - 128.0) * 0.013)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| (((i as u32 * 53 + seed * 7) % 256) as f32 - 128.0) * 0.017)
            .collect();
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    naive[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        let mut blocked = vec![0.0f32; m * n];
        ops::gemm(m, k, n, &a, &b, &mut blocked);
        let want: Vec<u32> = naive.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = blocked.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want, "f32 gemm ({},{},{})", m, k, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The surviving i8 pipeline end to end: [`ops::gemm_i8_packed_with`]
    /// on every supported table against the naive triple loop, with odd `m`
    /// (the self-paired tail row), `k` on both sides of the 64-lane
    /// pad, the full ±128 domain, wide (over 1024-column) cases, and 1/2/8
    /// pool threads: the result must not depend on the pool it is run in.
    #[test]
    fn packed_i8_gemm_matches_naive_at_every_isa_and_thread_count(
        m in 1usize..48,
        k in 1usize..200,
        n_narrow in 1usize..9,
        wide_sel in 0u8..2,
        threads_idx in 0usize..3,
        seed in 0u32..1000,
    ) {
        let n = if wide_sel == 1 { 1024 + n_narrow } else { n_narrow };
        let threads = [1usize, 2, 8][threads_idx];
        let a = i8_matrix(m, k, 37, seed);
        let bt = i8_matrix(n, k, 53, seed + 1);
        let naive = naive_dot_gemm(m, k, n, &a, &bt);
        let pool = ThreadPool::new(threads);
        for t in supported_tables() {
            let got = pool.install(|| packed_gemm(&t, m, k, n, &a, &bt));
            prop_assert_eq!(
                &got, &naive,
                "{} gemm_i8_packed ({},{},{}) at {} threads", t.isa, m, k, n, threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The i16 panel pipeline end to end: [`ops::gemm_i16_packed_with`] on
    /// every supported table against the naive i64 triple loop, with odd
    /// `m` (the spare-pair tail row), `k` on both sides of the 32-lane pad
    /// or past the kernels' i64 flush block, the full i16 domain, forced
    /// all-`i16::MIN` rows and columns (every `pmaddwd` pair sum of that
    /// output wraps), wide (over 1024-column) shallow cases, and 1/2/8 pool
    /// threads: the result must not depend on the pool it is run in.
    #[test]
    fn packed_i16_gemm_matches_naive_at_every_isa_and_thread_count(
        m in 1usize..24,
        k_small in 1usize..100,
        // depth (shallow, shallow, past the flush block) × (narrow, wide)
        // × narrow column count 1..=8
        shape in 0usize..6 * 8,
        // whether to force the wrap, and at which (row, column)
        wrap in 0usize..2 * 24 * 9,
        threads_idx in 0usize..3,
        seed in 0u32..1000,
    ) {
        let (mode, n_narrow) = (shape % 6, 1 + shape / 6);
        let deep = mode % 3 == 2;
        let k = if deep { GEMM_I16_FLUSH_K + k_small } else { k_small };
        let n = if mode >= 3 && !deep { 1024 + n_narrow } else { n_narrow };
        let (wrap_sel, wrap_row, wrap_col) = (wrap % 2, wrap / 2 % 24, wrap / 48);
        let threads = [1usize, 2, 8][threads_idx];
        let mut a = i16_matrix(m, k, 40503, seed);
        let mut bt = i16_matrix(n, k, 9973, seed + 1);
        if wrap_sel == 1 {
            let (r, c) = (wrap_row % m, wrap_col % n);
            a[r * k..(r + 1) * k].fill(i16::MIN);
            bt[c * k..(c + 1) * k].fill(i16::MIN);
        }
        let naive = naive_i64_gemm(m, k, n, &a, &bt);
        let pool = ThreadPool::new(threads);
        for t in supported_tables() {
            let got = pool.install(|| packed_gemm_i16(&t, m, k, n, &a, &bt));
            prop_assert_eq!(
                &got, &naive,
                "{} gemm_i16_packed ({},{},{}) at {} threads", t.isa, m, k, n, threads
            );
        }
    }
}

/// The quantizer's hard inputs at every scale: signed zeros, infinities,
/// NaNs with payloads and either sign, subnormals, values past `2²³` and
/// the extremes of f32, then exact half-way steps `±k.5` (exact quotients
/// at the power-of-two scales).
fn quantize_corner_values() -> Vec<f32> {
    let mut v: Vec<f32> = [
        0x0000_0000u32,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
        0xffc1_2345,
        0x0000_0001,
        0x8000_0001,
        0x0040_0000,
        0x807f_ffff,
    ]
    .into_iter()
    .map(f32::from_bits)
    .collect();
    v.extend([
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        8_388_608.0,
        -8_388_609.0,
        1.0e9,
        -2_147_483_648.0,
        0.499_999_97,
        -0.499_999_97,
    ]);
    v.extend((-40..40).map(|k| k as f32 + 0.5));
    v.extend((-4..4).map(|k| (k as f32 + 0.5) * 32768.0 / 16.0));
    v
}

/// `round(x / scale)` clamped to the range and masked, by `f32::round`
/// (half away from zero) with the saturating `as i32` (NaN → 0): the
/// quantizer's definition, independent of every kernel.
fn naive_quantize(src: &[f32], scale: f32, lo: f32, hi: f32, mask: u32) -> Vec<u32> {
    src.iter()
        .map(|&v| ((v / scale).round().clamp(lo, hi) as i32 as u32) & mask)
        .collect()
}

/// An f32 for the tile kernel tests: `h` picks one of the edge values
/// `specials` (weighted by `every`) or an ordinary finite value.
fn f32_operand(h: u32, every: u32, specials: &[f32]) -> f32 {
    let pick = h % every;
    if (pick as usize) < specials.len() {
        specials[pick as usize]
    } else {
        ((h >> 8) % 512) as f32 * 0.031 - 7.9
    }
}

/// A well-mixed hash of element `i` of the operand `salt` under `seed`.
fn operand_hash(seed: u32, i: usize, salt: u32) -> u32 {
    (i as u32 ^ seed.wrapping_mul(0x9e37_79b9))
        .wrapping_mul(0x85eb_ca6b)
        .wrapping_add(salt)
        .rotate_left(13)
        .wrapping_mul(0xc2b2_ae35)
}

/// Raw bits with every NaN collapsed to one pattern: which NaN an f32 add
/// propagates is unspecified (see `QuantTensor`'s FP32 storage), so NaN
/// payloads are not part of the kernels' contract; everything else is,
/// signed zeros included.
fn bits_modulo_nan(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
        .collect()
}

/// The tiled f32 GEMM at every supported level against the naive loop
/// with the zero-skip rule, on operands hashed from `seed`: on odd seeds
/// exact `±0.0` lhs entries face `±Inf`/NaN rhs entries and `-0.0` output
/// seeds (even seeds keep the lhs zero-free, the tiles' unmasked form). A
/// tile that adds `0·b` instead of skipping it turns those into NaN or
/// `+0.0`.
fn check_gemm_f32_at_every_isa(m: usize, k: usize, n: usize, seed: u32) {
    check_gemm_f32_layout_at_every_isa(m, k, n, seed, false);
}

/// [`check_gemm_f32_at_every_isa`] for `gemm_f32` (`transposed` unset) or
/// for `gemm_f32_lhs_t`, whose `a` is the row-major `k × m` matrix holding
/// lhs entry `(i, p)` at `(p, i)`. Both read the same hashed entry `(i,
/// p)`, so a kernel that reads the transposed operand row-major sees other
/// values and fails.
fn check_gemm_f32_layout_at_every_isa(m: usize, k: usize, n: usize, seed: u32, transposed: bool) {
    let hash = |i: usize, salt: u32| operand_hash(seed, i, salt);
    let zeros: &[f32] = if seed % 2 == 1 { &[0.0, -0.0] } else { &[] };
    let at = |i: usize, p: usize| if transposed { p * m + i } else { i * k + p };
    let mut a = vec![0.0f32; m * k];
    for i in 0..m {
        for p in 0..k {
            a[at(i, p)] = f32_operand(hash(i * k + p, 1), 5, zeros);
        }
    }
    let b: Vec<f32> = (0..k * n)
        .map(|i| {
            f32_operand(
                hash(i, 2),
                23,
                &[f32::INFINITY, f32::NEG_INFINITY, f32::NAN],
            )
        })
        .collect();
    let seed_out: Vec<f32> = (0..m * n)
        .map(|i| f32_operand(hash(i, 3), 3, &[-0.0]))
        .collect();
    let mut naive = seed_out.clone();
    for i in 0..m {
        for p in 0..k {
            let av = a[at(i, p)];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                naive[i * n + j] += av * b[p * n + j];
            }
        }
    }
    let want = bits_modulo_nan(&naive);
    for t in supported_tables() {
        let mut got = seed_out.clone();
        if transposed {
            (t.gemm_f32_lhs_t)(m, k, n, &a, &b, &mut got);
        } else {
            ops::gemm_with(&t, m, k, n, &a, &b, &mut got);
        }
        prop_assert_eq!(
            bits_modulo_nan(&got),
            want.clone(),
            "{} gemm_f32 (transposed lhs: {}) ({},{},{})",
            t.isa,
            transposed,
            m,
            k,
            n
        );
    }
}

proptest! {
    /// The layer-boundary quantizer bit for bit at every supported level:
    /// random bit patterns after the corner list, each at several scales
    /// (subnormal and huge included), for the int4, int8 and int16 ranges
    /// and masks, at unaligned starts and at 17 consecutive lengths (every
    /// tail size of every vector width). Every table, the scalar one
    /// included, must equal the naive `f32::round` definition. The last
    /// configuration keeps all 32 bits of the word, which exposes a NaN lane
    /// that is truncated without being zeroed first (`i32::MIN`, masked away
    /// by every narrower mask).
    #[test]
    fn quantize_kernels_match_scalar_at_every_isa(
        words in prop::collection::vec(any::<u32>(), 0..48),
        scale_idx in 0usize..8,
        off in 0usize..4,
    ) {
        let mut src = quantize_corner_values();
        src.extend(words.iter().map(|&w| f32::from_bits(w)));
        let scale = [
            1.0f32,
            0.5,
            0.017_3,
            3.0e38,
            1.0e-40,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            7.0,
        ][scale_idx];
        let src = &src[off..];
        let tables = supported_tables();
        for (lo, hi, mask) in [
            (-8.0f32, 7.0f32, 0xfu32),
            (-128.0, 127.0, 0xff),
            (-32768.0, 32767.0, 0xffff),
            (-32768.0, 32767.0, u32::MAX),
        ] {
            let want = naive_quantize(src, scale, lo, hi, mask);
            for len in src.len().saturating_sub(17)..=src.len() {
                for t in &tables {
                    let mut got = vec![0x5555_5555u32; len];
                    (t.quantize_f32)(&src[..len], scale, lo, hi, mask, &mut got);
                    prop_assert_eq!(
                        &got[..], &want[..len],
                        "{} quantize_f32 at scale {:e}, mask {:#x}, len {}",
                        t.isa, scale, mask, len
                    );
                }
            }
        }
    }

    /// [`check_gemm_f32_at_every_isa`] with `m` around the 4-row tile and
    /// `n` below, at and past every tier's tile width (1..80 columns).
    #[test]
    fn f32_gemm_tile_matches_scalar_at_every_isa(
        m in 1usize..11,
        k in 0usize..24,
        n in 1usize..80,
        seed in 0u32..1000,
    ) {
        check_gemm_f32_at_every_isa(m, k, n, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same check past the 256-deep rhs panel and over every column
    /// residue mod 16: `m` above the 4-row tile (so every strip is packed),
    /// depths `k₀` and `256 + k₀` (up to 300), and every `n` in `1..=32`
    /// plus the conv backward's dW widths 108 and 216, so the zero-padded
    /// tail strip meets every tier's vector width on both sides of a panel
    /// boundary.
    #[test]
    fn f32_gemm_tail_strip_matches_scalar_past_the_panel_depth(
        m in 5usize..12,
        k0 in 1usize..45,
        seed in 0u32..1000,
    ) {
        for k in [k0, 256 + k0] {
            for n in (1..=32).chain([108, 216]) {
                check_gemm_f32_at_every_isa(m, k, n, seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The transposed-lhs GEMM (`gemm_f32_lhs_t`, the conv backward's
    /// `weightᵀ · d_out`) at every supported level against the naive loop
    /// and so against the scalar table: `m` from a single row through two
    /// whole 4-row tiles and a ragged last tile, depths `k₀` and `256 + k₀`
    /// (past the packed panel depth), every `n` in `1..=32` (below one
    /// vector, the zero-padded tail strip, whole strips) plus 64, the
    /// `res2.conv2` input-gradient width, and both zero-free lhs operands
    /// and operands with exact `±0.0` entries (the masked skip path).
    #[test]
    fn f32_gemm_lhs_t_matches_scalar_past_the_panel_depth(
        m in 1usize..12,
        k0 in 1usize..45,
        seed in 0u32..1000,
    ) {
        for seed in [seed * 2, seed * 2 + 1] {
            for k in [k0, 256 + k0] {
                for n in (1..=32).chain([64]) {
                    check_gemm_f32_layout_at_every_isa(m, k, n, seed, true);
                }
            }
        }
    }
}

/// The implicit-GEMM f32 convolution at every supported level, and
/// `ops::conv2d` on the active table, against the naive loop nest over the
/// unpadded input: each output starts at its bias, then adds its taps in
/// ascending `(ic, ky, kx)` order, skipping exact-zero weights and reading
/// `+0.0` for a tap in the padding (the value an im2col matrix holds
/// there). Operands hashed from `seed` hold exact `±0.0` inputs and
/// weights and `-0.0` biases, so a kernel that adds a skipped term, or
/// reads padding as anything but `+0.0`, flips the sign of a zero.
fn check_conv_f32_at_every_isa(
    (in_c, out_c): (usize, usize),
    (kernel, stride, padding): (usize, usize, usize),
    (h, w): (usize, usize),
    seed: u32,
) {
    let hash = |i: usize, salt: u32| operand_hash(seed, i, salt);
    let p = ops::Conv2dParams::new(kernel, stride, padding);
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let depth = in_c * kernel * kernel;
    let input: Vec<f32> = (0..in_c * h * w)
        .map(|i| f32_operand(hash(i, 1), 5, &[0.0, -0.0]))
        .collect();
    let weight: Vec<f32> = (0..out_c * depth)
        .map(|i| f32_operand(hash(i, 2), 7, &[0.0, -0.0]))
        .collect();
    let bias: Vec<f32> = (0..out_c)
        .map(|i| f32_operand(hash(i, 3), 2, &[-0.0]))
        .collect();
    let mut naive = vec![0.0f32; out_c * oh * ow];
    for oc in 0..out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[oc];
                for tap in 0..depth {
                    let wv = weight[oc * depth + tap];
                    if wv == 0.0 {
                        continue;
                    }
                    let (ic, ky, kx) =
                        (tap / (kernel * kernel), tap / kernel % kernel, tap % kernel);
                    let iy = (oy * stride + ky).wrapping_sub(padding);
                    let ix = (ox * stride + kx).wrapping_sub(padding);
                    let x = if iy < h && ix < w {
                        input[(ic * h + iy) * w + ix]
                    } else {
                        0.0
                    };
                    acc += wv * x;
                }
                naive[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
    let want = bits_modulo_nan(&naive);
    let (hp, wp) = (h + 2 * padding, w + 2 * padding);
    let mut image = vec![0.0f32; in_c * hp * wp];
    for (r, row) in input.chunks_exact(w).enumerate() {
        let start = ((r / h) * hp + r % h + padding) * wp + padding;
        image[start..start + w].copy_from_slice(row);
    }
    let g = PaddedConv {
        in_c,
        out_c,
        hp,
        wp,
        kernel,
        stride,
    };
    let seeded: Vec<f32> = bias
        .iter()
        .flat_map(|&b| std::iter::repeat_n(b, oh * ow))
        .collect();
    let geometry = format!("c{in_c}→{out_c} k{kernel} s{stride} p{padding} {h}×{w}");
    for t in supported_tables() {
        let mut got = seeded.clone();
        (t.conv_f32)(&g, &weight, &image, &mut got);
        prop_assert_eq!(
            bits_modulo_nan(&got),
            want.clone(),
            "{} conv_f32 {}",
            t.isa,
            geometry
        );
    }
    let got = ops::conv2d(
        &Tensor::from_vec(input, &[in_c, h, w]),
        &Tensor::from_vec(weight, &[out_c, in_c, kernel, kernel]),
        &Tensor::from_vec(bias, &[out_c]),
        p,
    );
    prop_assert_eq!(
        bits_modulo_nan(got.data()),
        want,
        "ops::conv2d {}",
        geometry
    );
}

proptest! {
    /// [`check_conv_f32_at_every_isa`] over random geometry: padding up to
    /// 2 with kernels from 1 to 5 (so padding reaches past `k / 2`, and
    /// past the kernel itself), strides up to 3, non-square images small
    /// enough that many outputs are narrower than one vector of every
    /// tier.
    #[test]
    fn conv_f32_matches_the_naive_loop_nest_at_every_isa(
        channels in (1usize..8, 1usize..10),
        conv in (1usize..6, 1usize..4, 0usize..3),
        extra in (0usize..12, 0usize..12),
        seed in 0u32..1000,
    ) {
        let (kernel, _, padding) = conv;
        let min = kernel.saturating_sub(2 * padding).max(1);
        let h = min + extra.0;
        let w = if min + extra.1 == h { h + 1 } else { min + extra.1 };
        check_conv_f32_at_every_isa(channels, conv, (h, w), seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same check with 275 to 400 taps per output, past the 256-deep
    /// rhs panel, so a panel starts mid-filter.
    #[test]
    fn conv_f32_matches_the_naive_loop_nest_past_the_panel_depth(
        channels in (11usize..17, 1usize..10),
        stride in 1usize..3,
        padding in 0usize..3,
        h in 5usize..11,
        seed in 0u32..1000,
    ) {
        check_conv_f32_at_every_isa(channels, (5, stride, padding), (h, h + 3), seed);
    }
}

/// The absolute-value scan's hard inputs: signed zeros, NaN payloads of
/// either sign (quiet and signalling), infinities, subnormals and the
/// extremes of f32.
fn abs_max_corner_values() -> Vec<f32> {
    [
        0x0000_0000u32,
        0x8000_0000,
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
        0xffc1_2345,
        0x7fff_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x0000_0001,
        0x8000_0001,
        0x807f_ffff,
        0x7f7f_ffff,
        0xff7f_ffff,
    ]
    .into_iter()
    .map(f32::from_bits)
    .collect()
}

proptest! {
    /// The `abs_max` kernel at every supported level against its naive
    /// definition — the largest `bits & 0x7fff_ffff` — on the corner values
    /// mixed into random words at random positions, at every length up to
    /// a few vectors of every tier and at unaligned starts. `Tensor::abs_max`
    /// on the active table must also equal the `f32::max` fold of `|x|`,
    /// which ignores NaN.
    #[test]
    fn abs_max_kernels_match_the_naive_scan_at_every_isa(
        words in prop::collection::vec(any::<u32>(), 0..70),
        picks in prop::collection::vec(0usize..64, 0..70),
        off in 0usize..4,
    ) {
        let corners = abs_max_corner_values();
        // Mostly corner values: a NaN or an infinity in most runs, and runs
        // of NaN only.
        let mut data: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
        for (i, &p) in picks.iter().enumerate() {
            if i < data.len() && p < 2 * corners.len() {
                data[i] = corners[p % corners.len()];
            }
        }
        let data = &data[off.min(data.len())..];
        for t in supported_tables() {
            for len in 0..=data.len() {
                let naive = data[..len].iter().map(|x| x.to_bits() & 0x7fff_ffff).max();
                prop_assert_eq!(
                    (t.abs_max)(&data[..len]),
                    naive.unwrap_or(0),
                    "{} abs_max of {} values", t.isa, len
                );
            }
        }
        if !data.is_empty() {
            let fold = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let got = Tensor::from_vec(data.to_vec(), &[data.len()]).abs_max();
            prop_assert_eq!(got.to_bits(), fold.to_bits(), "Tensor::abs_max");
        }
    }
}

/// A random pooling geometry: `c` 1–7, `h` 1–20 and `w` 1–49 (odd
/// included; past 32, a stride-2 row fills a whole AVX-512 vector), `size`
/// 1–3 clamped to the plane, `stride` 1–3.
fn pool_geometry((c, h, w, size, stride): (usize, usize, usize, usize, usize)) -> Pool2d {
    Pool2d {
        c,
        h,
        w,
        size: size.min(h).min(w),
        stride,
    }
}

proptest! {
    /// The inference f32 max pooling at every supported level against its
    /// oracle `ops::maxpool2d(..).0`, bit for bit, over random geometry.
    /// `mode` picks the values: ordinary values with NaN, `±Inf` and `±0.0`
    /// mixed in; only NaN and `±0.0` (so every window is a tie of zeros, or
    /// NaN only, and the first zero must win); or only NaN and `−Inf` (every
    /// window outputs `−Inf`).
    #[test]
    fn maxpool_f32_kernels_match_ops_maxpool2d_at_every_isa(
        geometry in (1usize..8, 1usize..21, 1usize..50, 1usize..4, 1usize..4),
        mode in 0u32..3,
        seed in 0u32..1000,
    ) {
        let g = pool_geometry(geometry);
        let specials: &[f32] = match mode {
            0 => &[f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY],
            1 => &[f32::NAN, -0.0, 0.0],
            _ => &[f32::NAN, f32::NEG_INFINITY],
        };
        let every = if mode == 0 { 9 } else { specials.len() as u32 };
        let input: Vec<f32> = (0..g.c * g.h * g.w)
            .map(|i| f32_operand(operand_hash(seed, i, 1), every, specials))
            .collect();
        let tensor = Tensor::from_vec(input.clone(), &[g.c, g.h, g.w]);
        let want: Vec<u32> =
            ops::maxpool2d(&tensor, g.size, g.stride).0.data().iter().map(|v| v.to_bits()).collect();
        for t in supported_tables() {
            let mut got = vec![f32::NAN; want.len()];
            (t.maxpool_f32)(&g, &input, &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "{} maxpool_f32 {:?}", t.isa, g);
        }
    }

    /// Max pooling over stored words at every supported level against a
    /// naive loop over `bits::sign_extend`, at 4, 8, 16 and 32 bits, over
    /// random geometry. Words are random in the low `bits` bits, with the
    /// most negative word (`1 << (bits − 1)`) and `−1` frequent, and whole
    /// planes of the most negative word on some seeds.
    #[test]
    fn maxpool_quant_kernels_match_the_naive_loop_at_every_isa(
        geometry in (1usize..8, 1usize..21, 1usize..50, 1usize..4, 1usize..4),
        bits_idx in 0usize..4,
        scale in 1.0e-3f32..10.0,
        seed in 0u32..1000,
    ) {
        let g = pool_geometry(geometry);
        let bits = [4u32, 8, 16, 32][bits_idx];
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let most_negative = 1u32 << (bits - 1);
        let words: Vec<u32> = (0..g.c * g.h * g.w)
            .map(|i| {
                let h = operand_hash(seed, i, 2);
                match h % if seed % 5 == 0 { 1 } else { 4 } {
                    0 => most_negative,
                    1 => mask,
                    _ => (h >> 3) & mask,
                }
            })
            .collect();
        let (oh, ow) = g.out_size();
        let mut want = vec![0.0f32; g.c * oh * ow];
        for ch in 0..g.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = i32::MIN;
                    for ky in 0..g.size {
                        for kx in 0..g.size {
                            let i = (ch * g.h + oy * g.stride + ky) * g.w + ox * g.stride + kx;
                            best = best.max(bits::sign_extend(words[i], bits));
                        }
                    }
                    want[(ch * oh + oy) * ow + ox] = best as f32 * scale;
                }
            }
        }
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        for t in supported_tables() {
            let mut got = vec![f32::NAN; want.len()];
            (t.maxpool_quant)(&g, &words, bits, scale, &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "{} maxpool_quant {:?} at {} bits", t.isa, g, bits);
        }
    }
}
