//! Property-based tests over the tensor substrate invariants.

use eden_tensor::bits;
use eden_tensor::ops;
use eden_tensor::{CorruptionOverlay, Precision, QuantTensor, Shape, Tensor};
use proptest::prelude::*;

fn small_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..64)
}

/// A shrink-friendly strategy over [`Shape`]: generated shapes have rank
/// 1–4 with extents 1–8, and counterexamples shrink by dropping trailing
/// dimensions and pulling extents towards 1, so a failing case minimizes to
/// something close to `[1]`.
#[derive(Clone, Debug)]
struct ShapeStrategy;

impl proptest::strategy::Strategy for ShapeStrategy {
    type Value = Shape;

    fn generate(&self, rng: &mut rand::rngs::StdRng) -> Shape {
        use rand::Rng;
        let rank = rng.gen_range(1usize..=4);
        let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(1usize..=8)).collect();
        Shape::new(&dims)
    }

    fn shrink(&self, value: &Shape) -> Vec<Shape> {
        let dims = value.dims();
        let mut out = Vec::new();
        // Drop trailing dimensions (rank reduction first: the most aggressive
        // simplification).
        if dims.len() > 1 {
            out.push(Shape::new(&dims[..dims.len() - 1]));
            out.push(Shape::new(&dims[1..]));
        }
        // Pull each extent towards 1.
        for (i, &d) in dims.iter().enumerate() {
            if d > 1 {
                for cand in [1, d / 2, d - 1] {
                    if cand >= 1 && cand != d {
                        let mut v = dims.to_vec();
                        v[i] = cand;
                        let s = Shape::new(&v);
                        if !out.contains(&s) {
                            out.push(s);
                        }
                    }
                }
            }
        }
        out
    }
}

/// A tensor filled with seeded uniform data in a generated shape, built
/// inside the test body from a `(Shape, seed)` tuple rather than via
/// `prop_map` — tuple strategies shrink componentwise, so counterexamples
/// still minimize through [`ShapeStrategy`]'s shrinker.
fn tensor_for(shape: &Shape, seed: u64) -> Tensor {
    let mut rng = eden_tensor::init::seeded_rng(seed);
    eden_tensor::init::uniform(shape.dims(), -50.0, 50.0, &mut rng)
}

/// The overlay produced by flipping the given `(element, bit)` pairs on a
/// copy of `clean` (indices folded into range; duplicate flips cancel, as
/// real double corruption would).
fn overlay_from_flips(clean: &QuantTensor, flips: &[(usize, u32)]) -> CorruptionOverlay {
    let mut corrupted = clean.clone();
    for &(i, b) in flips {
        corrupted.flip_bit(i % clean.len(), b % clean.bits_per_value());
    }
    CorruptionOverlay::from_diff(clean, &corrupted)
}

/// The naive per-tap gather the native conv packer must reproduce: for every
/// output position, its receptive field's sign-extended stored values in
/// `(ky, kx, ic)` order (zero for taps in the padding), then zero pad lanes
/// up to `row_stride`. Written tap by tap, with no call into `ops`.
#[allow(clippy::too_many_arguments)]
fn naive_patch_rows(
    stored: &[u32],
    bits: u32,
    in_c: usize,
    h: usize,
    w: usize,
    p: ops::Conv2dParams,
    row_stride: usize,
) -> Vec<i32> {
    let k = p.kernel;
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let mut rows = Vec::with_capacity(oh * ow * row_stride);
    for oy in 0..oh {
        for ox in 0..ow {
            for ky in 0..k {
                for kx in 0..k {
                    for ic in 0..in_c {
                        let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                        let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                        let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                        rows.push(if inside {
                            bits::sign_extend(
                                stored[(ic * h + iy as usize) * w + ix as usize],
                                bits,
                            )
                        } else {
                            0
                        });
                    }
                }
            }
            rows.resize(rows.len() + row_stride - in_c * k * k, 0);
        }
    }
    rows
}

/// Runs the panel packer into stale `T` lanes (and a stale `vals` buffer)
/// and widens the result for comparison.
#[allow(clippy::too_many_arguments)]
fn packed_patch_rows<T: ops::PanelLane + Into<i32>>(
    stored: &[u32],
    bits: u32,
    in_c: usize,
    h: usize,
    w: usize,
    p: ops::Conv2dParams,
    stale: T,
) -> (usize, Vec<i32>) {
    let ck = in_c * p.kernel * p.kernel;
    let row_stride = T::packed_stride(ck);
    let mut vals = vec![stale; 7];
    let mut cols = vec![stale; p.out_size(h) * p.out_size(w) * row_stride];
    ops::im2col_t_stored_strided(
        stored, bits, in_c, h, w, p, row_stride, &mut vals, &mut cols,
    );
    (row_stride, cols.into_iter().map(Into::into).collect())
}

/// The f32 batch patch matrix by the definition: for every tap row
/// `(ic·k + ky)·k + kx` and output position `(oy, ox)`, the input pixel the
/// tap sees, or `0.0` in the padding; sample columns start at `col_offset`
/// of rows `row_stride` long and every other column keeps `stale`. Written
/// tap by tap, with no call into `ops`.
#[allow(clippy::too_many_arguments)]
fn naive_f32_patch_columns(
    input: &[f32],
    in_c: usize,
    h: usize,
    w: usize,
    p: ops::Conv2dParams,
    col_offset: usize,
    row_stride: usize,
    stale: f32,
) -> Vec<f32> {
    let k = p.kernel;
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let mut cols = vec![stale; in_c * k * k * row_stride];
    for ic in 0..in_c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ic * k + ky) * k + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                        let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                        let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                        cols[row * row_stride + col_offset + oy * ow + ox] = if inside {
                            input[(ic * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
    cols
}

/// The three gradients of a single-sample convolution by naive loop nests
/// with the accumulation orders [`ops::conv2d_backward`] promises, written
/// with no call into `ops`:
///
/// * `d_bias[oc]`: a sequential sum of `d_out[oc]` from `-0.0` (the
///   identity of IEEE addition, as `Iterator::sum` starts);
/// * `d_weight[oc][tap]`: from `+0.0`, adds `d_out[oc][pos] · x(tap, pos)` in
///   ascending output position, skipping exact-zero `d_out` entries (a
///   padding tap contributes `g · 0.0`);
/// * `d_cols[tap][pos]`: from `+0.0`, adds `w[oc][tap] · d_out[oc][pos]` in
///   ascending `oc`, skipping exact-zero weights;
/// * `d_input`: from `+0.0`, adds `d_cols[tap][pos]` onto the pixel the tap
///   sees in `(ic, ky, kx, oy, ox)` order.
fn naive_conv2d_backward(
    input: &[f32],
    weight: &[f32],
    d_out: &[f32],
    (in_c, h, w, out_c): (usize, usize, usize, usize),
    p: ops::Conv2dParams,
) -> [Vec<f32>; 3] {
    let k = p.kernel;
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    let (ck, ohw) = (in_c * k * k, oh * ow);
    // The input pixel tap `(ic, ky, kx)` sees at output `(oy, ox)`, if any.
    let pixel = |tap: usize, pos: usize| {
        let (ic, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
        let iy = (pos / ow * p.stride + ky) as isize - p.padding as isize;
        let ix = (pos % ow * p.stride + kx) as isize - p.padding as isize;
        ((0..h as isize).contains(&iy) && (0..w as isize).contains(&ix))
            .then(|| (ic * h + iy as usize) * w + ix as usize)
    };
    let d_bias = (0..out_c)
        .map(|oc| {
            d_out[oc * ohw..(oc + 1) * ohw]
                .iter()
                .fold(-0.0, |s, &g| s + g)
        })
        .collect();
    let mut d_weight = vec![0.0f32; out_c * ck];
    for oc in 0..out_c {
        for tap in 0..ck {
            for pos in 0..ohw {
                let g = d_out[oc * ohw + pos];
                if g != 0.0 {
                    d_weight[oc * ck + tap] += g * pixel(tap, pos).map_or(0.0, |i| input[i]);
                }
            }
        }
    }
    let mut d_cols = vec![0.0f32; ck * ohw];
    for tap in 0..ck {
        for pos in 0..ohw {
            for oc in 0..out_c {
                let wv = weight[oc * ck + tap];
                if wv != 0.0 {
                    d_cols[tap * ohw + pos] += wv * d_out[oc * ohw + pos];
                }
            }
        }
    }
    let mut d_input = vec![0.0f32; in_c * h * w];
    for tap in 0..ck {
        for pos in 0..ohw {
            if let Some(i) = pixel(tap, pos) {
                d_input[i] += d_cols[tap * ohw + pos];
            }
        }
    }
    [d_input, d_weight, d_bias]
}

proptest! {
    /// [`ops::conv2d_backward`] bit for bit against the naive loop nests of
    /// [`naive_conv2d_backward`] over random geometry (in_c 1–7, out_c 1–9,
    /// kernel 1–5, stride 1–3, padding 0–2, `h ≠ w`), with exact `±0.0`
    /// entries in `d_out` and in the weights, so every zero-skip and every
    /// signed-zero sum is exercised, on a scratch a larger call left dirty;
    /// and [`ops::conv2d_param_grads`], its parameter half, to the same
    /// parameter gradients.
    #[test]
    fn conv2d_backward_matches_the_naive_accumulation_orders(
        chans in (1usize..8, 1usize..10),
        conv in (1usize..6, 1usize..4, 0usize..3),
        image in (0usize..9, 1usize..9),
        seed in 0u64..1000,
    ) {
        use rand::Rng;
        let (in_c, out_c) = chans;
        let (kernel, stride, padding) = conv;
        // h ≥ kernel − 2·padding, and w ≠ h.
        let h = kernel.saturating_sub(2 * padding).max(1) + image.0;
        let w = h + image.1;
        let (h, w) = if seed % 2 == 0 { (h, w) } else { (w, h) };
        let p = ops::Conv2dParams::new(kernel, stride, padding);
        let ohw = p.out_size(h) * p.out_size(w);
        let mut rng = eden_tensor::init::seeded_rng(seed);
        let mut draw = |len: usize, zero_every: u32| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0u32..zero_every) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect()
        };
        let input = draw(in_c * h * w, 16);
        let weight = draw(out_c * in_c * kernel * kernel, 6);
        let d_out = draw(out_c * ohw, 4);
        // A scratch left dirty by a larger call first: no stale value may
        // reach the result.
        let mut scratch = ops::ConvScratch::default();
        let (big_h, big_w) = (h + 3, w + 2);
        let big_ohw = p.out_size(big_h) * p.out_size(big_w);
        let ck = in_c * kernel * kernel;
        ops::conv2d_backward(
            &Tensor::from_vec(draw(in_c * big_h * big_w, 16), &[in_c, big_h, big_w]),
            &Tensor::from_vec(weight.clone(), &[out_c, in_c, kernel, kernel]),
            &Tensor::from_vec(
                draw(out_c * big_ohw, 4),
                &[out_c, p.out_size(big_h), p.out_size(big_w)],
            ),
            p,
            &mut vec![0.0; out_c * ck],
            &mut vec![0.0; out_c],
            &mut scratch,
        );
        // The gradients are added onto `-0.0`, the identity of IEEE
        // addition, so they come back exactly as computed.
        let (mut d_w, mut d_b) = (vec![-0.0f32; out_c * ck], vec![-0.0f32; out_c]);
        let input_t = Tensor::from_vec(input.clone(), &[in_c, h, w]);
        let d_out_t = Tensor::from_vec(d_out.clone(), &[out_c, p.out_size(h), p.out_size(w)]);
        let d_in = ops::conv2d_backward(
            &input_t,
            &Tensor::from_vec(weight.clone(), &[out_c, in_c, kernel, kernel]),
            &d_out_t,
            p,
            &mut d_w,
            &mut d_b,
            &mut scratch,
        );
        let [d_input, d_weight, d_bias] =
            naive_conv2d_backward(&input, &weight, &d_out, (in_c, h, w, out_c), p);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(d_in.shape(), &[in_c, h, w][..]);
        prop_assert_eq!(bits(d_in.data()), bits(&d_input));
        prop_assert_eq!(bits(&d_w), bits(&d_weight));
        prop_assert_eq!(bits(&d_b), bits(&d_bias));
        // The parameter half alone adds the same gradients, on a scratch the
        // input gradient just left dirty.
        let (mut p_w, mut p_b) = (vec![-0.0f32; out_c * ck], vec![-0.0f32; out_c]);
        ops::conv2d_param_grads(&input_t, &d_out_t, p, &mut p_w, &mut p_b, &mut scratch);
        prop_assert_eq!(bits(&p_w), bits(&d_weight));
        prop_assert_eq!(bits(&p_b), bits(&d_bias));
    }
}

proptest! {
    // The quantization round-trip invariants below guard the bit-exact
    // storage layer everything else builds on, so run them at double the
    // default case count.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn quantize_dequantize_error_bounded_by_step(data in small_vec()) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        for p in [Precision::Int8, Precision::Int16] {
            let q = QuantTensor::quantize(&t, p);
            let step = q.scale();
            for (a, b) in t.data().iter().zip(q.dequantize().data()) {
                prop_assert!((a - b).abs() <= step / 2.0 + 1e-4);
            }
        }
    }

    #[test]
    fn fp32_quantization_is_lossless(data in small_vec()) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        let q = QuantTensor::quantize(&t, Precision::Fp32);
        prop_assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn double_bit_flip_is_identity(data in small_vec(), idx in 0usize..64, bit in 0u32..32) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        for p in Precision::all() {
            let mut q = QuantTensor::quantize(&t, p);
            let i = idx % n;
            let b = bit % p.bits();
            let before = q.stored_bits(i);
            q.flip_bit(i, b);
            q.flip_bit(i, b);
            prop_assert_eq!(q.stored_bits(i), before);
        }
    }

    #[test]
    fn bit_differences_matches_flip_count(data in small_vec(), flips in prop::collection::vec((0usize..64, 0u32..8), 0..10)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        let base = QuantTensor::quantize(&t, Precision::Int8);
        let mut corrupted = base.clone();
        let mut unique = std::collections::HashSet::new();
        for (i, b) in flips {
            unique.insert((i % n, b));
        }
        for &(i, b) in &unique {
            corrupted.flip_bit(i, b);
        }
        prop_assert_eq!(base.bit_differences(&corrupted), unique.len() as u64);
    }

    #[test]
    fn sign_extend_round_trips_through_mask(v in -128i32..128, width in 8u32..=16) {
        let mask = (1u32 << width) - 1;
        let stored = (v as u32) & mask;
        prop_assert_eq!(bits::sign_extend(stored, width), v);
    }

    #[test]
    fn matmul_distributes_over_addition(a in prop::collection::vec(-2.0f32..2.0, 4), b in prop::collection::vec(-2.0f32..2.0, 4), c in prop::collection::vec(-2.0f32..2.0, 4)) {
        let ta = Tensor::from_vec(a, &[2, 2]);
        let tb = Tensor::from_vec(b, &[2, 2]);
        let tc = Tensor::from_vec(c, &[2, 2]);
        let lhs = ops::matmul(&ta, &tb.add(&tc));
        let rhs = ops::matmul(&ta, &tb).add(&ops::matmul(&ta, &tc));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_is_a_probability_distribution(data in prop::collection::vec(-10.0f32..10.0, 2..16)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        let p = ops::softmax(&t);
        prop_assert!((p.sum() - 1.0).abs() < 1e-4);
        prop_assert!(p.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn relu_is_idempotent(data in small_vec()) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        let once = ops::relu(&t);
        let twice = ops::relu(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn shape_len_is_product_and_last_index_is_dense(shape in ShapeStrategy) {
        let expected: usize = shape.dims().iter().product();
        prop_assert_eq!(shape.len(), expected);
        prop_assert!(!shape.is_empty());
        // The flat index of the last coordinate must land on len - 1: strides
        // tile the whole buffer with no gaps or overlap.
        let last: Vec<usize> = shape.dims().iter().map(|&d| d - 1).collect();
        prop_assert_eq!(shape.flat_index(&last), shape.len() - 1);
        // The outermost stride times the outermost extent covers everything.
        prop_assert_eq!(shape.strides()[0] * shape.dims()[0], shape.len());
    }

    #[test]
    fn shape_flat_indices_are_a_bijection(shape in ShapeStrategy) {
        // Enumerate every coordinate and check flat indices hit 0..len once.
        let mut seen = vec![false; shape.len()];
        let mut idx = vec![0usize; shape.rank()];
        loop {
            let flat = shape.flat_index(&idx);
            prop_assert!(!seen[flat], "flat index {} visited twice", flat);
            seen[flat] = true;
            // Odometer increment.
            let mut d = shape.rank();
            loop {
                if d == 0 {
                    break;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < shape.dims()[d] {
                    break;
                }
                idx[d] = 0;
                if d == 0 {
                    d = usize::MAX;
                    break;
                }
            }
            if d == usize::MAX {
                break;
            }
        }
        prop_assert!(seen.into_iter().all(|v| v));
    }

    #[test]
    fn merge_equals_from_diff_of_sequential_corruption(
        data in small_vec(),
        flips_a in prop::collection::vec((0usize..64, 0u32..8), 0..12),
        flips_b in prop::collection::vec((0usize..64, 0u32..8), 0..12),
    ) {
        // Merging the overlays of two independent corruptions must describe
        // exactly the image both corruptions produce sequentially — including
        // overlapping words, where shared mask bits cancel just as a second
        // physical flip of the same cell would.
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        let clean = QuantTensor::quantize(&t, Precision::Int8);
        let a = overlay_from_flips(&clean, &flips_a);
        let b = overlay_from_flips(&clean, &flips_b);
        let mut seq = clean.clone();
        a.apply(&mut seq);
        b.apply(&mut seq);
        let reference = CorruptionOverlay::from_diff(&clean, &seq);
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.deltas(), reference.deltas());
        let mut via_merged = clean.clone();
        merged.apply(&mut via_merged);
        prop_assert_eq!(via_merged, seq);
        // Counters accumulate the per-source statistics, not the net diff.
        prop_assert_eq!(merged.bit_flips(), a.bit_flips() + b.bit_flips());
    }

    #[test]
    fn merge_preserves_ascending_order_and_sums_counters(
        words_a in prop::collection::vec((0u32..64, 1u32..256), 0..16),
        words_b in prop::collection::vec((0u32..64, 1u32..256), 0..16),
        flips_a in 0u64..100, corr_a in 0u64..100,
        flips_b in 0u64..100, corr_b in 0u64..100,
    ) {
        let dedup = |v: &[(u32, u32)]| {
            let mut m = std::collections::BTreeMap::new();
            for &(w, mask) in v {
                m.insert(w % 64, mask & 0xFF);
            }
            m.into_iter().filter(|&(_, mask)| mask != 0).collect::<Vec<_>>()
        };
        let mut a = CorruptionOverlay::new(64, 8, dedup(&words_a), flips_a, corr_a);
        let b = CorruptionOverlay::new(64, 8, dedup(&words_b), flips_b, corr_b);
        a.merge(&b);
        prop_assert!(a.deltas().windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(a.deltas().iter().all(|&(_, mask)| mask != 0));
        prop_assert_eq!(a.bit_flips(), flips_a + flips_b);
        prop_assert_eq!(a.corrections(), corr_a + corr_b);
    }

    #[test]
    fn quantization_round_trips_for_every_shape(shape in ShapeStrategy, seed in 0u64..1000) {
        let t = tensor_for(&shape, seed);
        for p in [Precision::Int4, Precision::Int8, Precision::Int16, Precision::Fp32] {
            let q = QuantTensor::quantize(&t, p);
            let back = q.dequantize();
            prop_assert_eq!(back.shape(), t.shape());
            prop_assert_eq!(back.len(), t.len());
            let step = q.scale();
            for (a, b) in t.data().iter().zip(back.data()) {
                prop_assert!(
                    (a - b).abs() <= step / 2.0 + 1e-4,
                    "precision {:?}: {} vs {} (step {})", p, a, b, step
                );
            }
        }
    }

    /// The native conv patch packer equals the naive `(ky, kx, ic)` gather
    /// over random geometry (`h ≠ w`, padding below the kernel) and stored
    /// precisions, on both lane widths, writing every lane of a stale
    /// buffer; and [`ops::conv_patch_lane`] names the lane each tap lands on.
    #[test]
    fn conv_patch_packer_matches_the_naive_gather(
        image in (1usize..6, 1usize..10, 1usize..9),
        conv in (1usize..5, 1usize..3, 0usize..4),
        bits_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        use rand::Rng;
        let (in_c, h, w_step) = image;
        // w ∈ [1, 9] and never equal to h.
        let w = (h - 1 + w_step) % 9 + 1;
        let (kernel, stride, padding) = (conv.0, conv.1, conv.2 % conv.0);
        if h + 2 * padding < kernel || w + 2 * padding < kernel {
            return;
        }
        let bits = [4u32, 8, 16][bits_idx];
        let p = ops::Conv2dParams::new(kernel, stride, padding);
        let mut rng = eden_tensor::init::seeded_rng(seed);
        let stored: Vec<u32> = (0..in_c * h * w)
            .map(|_| rng.gen_range(0u32..=(1u32 << bits) - 1))
            .collect();
        let (row_stride, wide) = packed_patch_rows(&stored, bits, in_c, h, w, p, 0x5555i16);
        prop_assert_eq!(&wide, &naive_patch_rows(&stored, bits, in_c, h, w, p, row_stride));
        if bits <= 8 {
            let (row_stride, narrow) = packed_patch_rows(&stored, bits, in_c, h, w, p, 0x55i8);
            prop_assert_eq!(&narrow, &naive_patch_rows(&stored, bits, in_c, h, w, p, row_stride));
        }
        for ic in 0..in_c {
            for ky in 0..kernel {
                for kx in 0..kernel {
                    let tap = (ic * kernel + ky) * kernel + kx;
                    prop_assert_eq!(
                        ops::conv_patch_lane(in_c, kernel, tap),
                        (ky * kernel + kx) * in_c + ic
                    );
                }
            }
        }
    }

    /// The f32 patch gather of the simulated and FP32 convolutions equals
    /// the per-tap definition over random geometry (`h ≠ w`, stride 1..=3,
    /// padding below the kernel) at a column offset inside a wider batch
    /// row, writing every lane of its sample's columns of a stale
    /// (`0x5555_5555`) matrix and no lane of the others.
    #[test]
    fn strided_f32_im2col_matches_the_per_tap_gather(
        image in (1usize..5, 1usize..10, 1usize..9),
        conv in (1usize..5, 1usize..4, 0usize..4),
        place in (0usize..3, 0usize..5),
        seed in 0u64..1000,
    ) {
        use rand::Rng;
        let (in_c, h, w_step) = image;
        let w = (h - 1 + w_step) % 9 + 1;
        let (kernel, stride, padding) = (conv.0, conv.1, conv.2 % conv.0);
        if h + 2 * padding < kernel || w + 2 * padding < kernel {
            return;
        }
        let p = ops::Conv2dParams::new(kernel, stride, padding);
        let ohw = p.out_size(h) * p.out_size(w);
        let (col_offset, row_stride) = (place.0 * ohw, (place.0 + 1) * ohw + place.1);
        let mut rng = eden_tensor::init::seeded_rng(seed);
        let input: Vec<f32> = (0..in_c * h * w).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        let stale = f32::from_bits(0x5555_5555);
        let mut cols = vec![stale; in_c * kernel * kernel * row_stride];
        ops::im2col_strided(&input, in_c, h, w, p, col_offset, row_stride, &mut cols);
        let want = naive_f32_patch_columns(&input, in_c, h, w, p, col_offset, row_stride, stale);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&cols), bits(&want));
    }
}
