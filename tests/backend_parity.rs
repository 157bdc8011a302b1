//! Backend parity: the native integer engine against the simulated-f32 path.
//!
//! The two backends consume identical corrupted stored bits but differ in
//! arithmetic: the simulated path dequantizes and accumulates in f32
//! (rounding after every multiply–add), while the native path accumulates
//! the quantized integers exactly and applies the scale once. Because EDEN
//! re-quantizes every layer boundary, a 1-ULP f32 difference can flip a
//! stored LSB and be amplified by a whole quantization step downstream —
//! so bit-identical *logits* across backends are unattainable by
//! construction. What this suite pins instead is every invariant that *is*
//! exact, plus a precision-aware envelope for the rest:
//!
//! 1. `NativeInt` is **bit-identical to a naive scalar integer reference**
//!    (independent reimplementation of the quantized semantics) across
//!    int4/int8/int16, odd shapes and fault injection — this is what
//!    catches kernel/blocking/SIMD bugs.
//! 2. `NativeInt` is **bit-identical across 1/2/8 worker threads** (integer
//!    accumulation is associative).
//! 3. `NativeInt` vs `SimulatedF32` logits stay inside an envelope scaled to
//!    the precision's quantization step, and batch accuracies agree.

use eden::core::faults::ApproximateMemory;
use eden::core::inference::InferenceBackend;
use eden::core::session::EvalSession;
use eden::dnn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use eden::dnn::{DataKind, DataSite, FaultHook, Layer, Network};
use eden::dram::ErrorModel;
use eden::tensor::init::{seeded_rng, uniform};
use eden::tensor::{Precision, QuantTensor, Tensor};
use eden_par::ThreadPool;
use proptest::prelude::*;

/// Builds a small network with deliberately odd (non-power-of-two, non-even)
/// shapes so kernel tails and padding paths are exercised.
fn odd_net(arch: u8, seed: u64) -> (Network, Vec<usize>) {
    let mut rng = seeded_rng(seed);
    match arch % 3 {
        0 => {
            // Conv stack on a 7×9 image with 3 channels.
            let mut net = Network::new("conv-odd", &[3, 7, 9]);
            net.push(Conv2d::new("c1", 3, 5, 3, 1, 1, &mut rng))
                .push(Relu::new("r1"))
                .push(MaxPool2d::new("p1", 2, 2))
                .push(Conv2d::new("c2", 5, 3, 3, 2, 0, &mut rng))
                .push(Flatten::new("f"))
                .push(Dense::new("fc", 3, 3, &mut rng));
            (net, vec![3, 7, 9])
        }
        1 => {
            // Dense-only MLP with odd widths (also exercises the int4
            // odd-length footprint path).
            let mut net = Network::new("mlp-odd", &[11]);
            net.push(Dense::new("fc1", 11, 7, &mut rng))
                .push(Relu::new("r"))
                .push(Dense::new("fc2", 7, 5, &mut rng))
                .push(Relu::new("r2"))
                .push(Dense::new("fc3", 5, 3, &mut rng));
            (net, vec![11])
        }
        _ => {
            // Strided conv with padding into a dense head.
            let mut net = Network::new("stride-odd", &[2, 9, 7]);
            net.push(Conv2d::new("c", 2, 4, 5, 2, 2, &mut rng))
                .push(Relu::new("r"))
                .push(Flatten::new("f"))
                .push(Dense::new("fc", 4 * 5 * 4, 5, &mut rng));
            (net, vec![2, 9, 7])
        }
    }
}

fn make_memory(net: &Network, precision: Precision, ber: f64, seed: u64) -> ApproximateMemory {
    let mut memory = if ber > 0.0 {
        ApproximateMemory::from_model(ErrorModel::uniform(0.02, 0.5, 7).with_ber(ber), seed)
    } else {
        ApproximateMemory::reliable(seed)
    };
    memory.preallocate(net, precision);
    memory
}

fn logits(
    net: &Network,
    x: &Tensor,
    precision: Precision,
    ber: f64,
    seed: u64,
    backend: InferenceBackend,
) -> Tensor {
    let mut memory = make_memory(net, precision, ber, seed);
    EvalSession::new(net, precision, backend).forward_with_faults(x, &mut memory)
}

/// A naive scalar reimplementation of the native integer semantics: same
/// load-stream order as the production engine (weight images in visit order,
/// then one IFM load per layer), exact i64 accumulation, identical epilogue
/// expressions — but no im2col, no blocking, no SIMD. The production engine
/// must match it bit for bit.
fn naive_native_logits(
    net: &Network,
    x: &Tensor,
    precision: Precision,
    memory: &mut ApproximateMemory,
) -> Tensor {
    // Weight refetch: corrupt a copy of each clean bit image in visit order.
    let images = net.weight_images(precision);
    let mut corrupted: Vec<QuantTensor> = Vec::new();
    for img in &images {
        let mut q = img.clean.clone();
        memory.corrupt(&img.site, &mut q);
        corrupted.push(q);
    }
    let params_of = |layer_index: usize| -> (&QuantTensor, &QuantTensor) {
        let mut it = images
            .iter()
            .zip(&corrupted)
            .filter(|(img, _)| img.layer_index == layer_index);
        let w = it.next().expect("weight image").1;
        let b = it.next().expect("bias image").1;
        (w, b)
    };

    let mut cur = x.clone();
    for (i, layer) in net.layers().iter().enumerate() {
        let site = DataSite::new(i, layer.name(), DataKind::Ifm);
        let mut q = QuantTensor::quantize(&cur, precision);
        memory.corrupt(&site, &mut q);
        let name = layer.name();
        cur = if name.starts_with('c') {
            // Conv2d layers (named c/c1/c2 in the odd nets).
            let (qw, qb) = params_of(i);
            naive_conv(layer.as_ref(), &q, qw, qb)
        } else if name.starts_with("fc") {
            let (qw, qb) = params_of(i);
            naive_dense(&q, qw, qb)
        } else if name.starts_with('r') {
            // ReLU in the integer domain.
            let scale = q.scale();
            let data: Vec<f32> = (0..q.len())
                .map(|j| {
                    let v = q.q_value(j);
                    if v > 0 {
                        v as f32 * scale
                    } else {
                        0.0
                    }
                })
                .collect();
            Tensor::from_vec(data, q.shape())
        } else if name.starts_with('p') {
            naive_maxpool(&q, 2, 2)
        } else {
            // Flatten.
            let mut data = vec![0.0f32; q.len()];
            q.dequantize_into(&mut data);
            let n = data.len();
            Tensor::from_vec(data, &[n])
        };
    }
    cur
}

fn naive_dense(qx: &QuantTensor, qw: &QuantTensor, qb: &QuantTensor) -> Tensor {
    let k = qx.len();
    let m = qw.len() / k;
    let scale = qw.scale() * qx.scale();
    let bias = qb.dequantize();
    let mut y = vec![0.0f32; m];
    for (o, yo) in y.iter_mut().enumerate() {
        let mut acc: i64 = 0;
        for p in 0..k {
            acc += qw.q_value(o * k + p) as i64 * qx.q_value(p) as i64;
        }
        // Same epilogue expression as the production engine: scale first,
        // bias added after.
        *yo = acc as f32 * scale + bias.data()[o];
    }
    Tensor::from_vec(y, &[m])
}

fn naive_conv(layer: &dyn Layer, qx: &QuantTensor, qw: &QuantTensor, qb: &QuantTensor) -> Tensor {
    let shape = qx.shape().to_vec();
    let (in_c, h, w) = (shape[0], shape[1], shape[2]);
    let out_shape = layer.output_shape(&shape);
    let (out_c, oh, ow) = (out_shape[0], out_shape[1], out_shape[2]);
    let k2 = qw.len() / (out_c * in_c);
    let k = (k2 as f64).sqrt().round() as usize;
    // Recover stride/padding from the geometry: try the small space used by
    // the odd nets.
    let (stride, padding) = (0..3usize)
        .flat_map(|p| (1..4usize).map(move |s| (s, p)))
        .find(|(s, p)| (h + 2 * p - k) / s + 1 == oh && (w + 2 * p - k) / s + 1 == ow)
        .expect("conv geometry");
    let scale = qw.scale() * qx.scale();
    let bias = qb.dequantize();
    let mut y = vec![0.0f32; out_c * oh * ow];
    for oc in 0..out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i64 = 0;
                for ic in 0..in_c {
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xq = qx.q_value(ic * h * w + iy as usize * w + ix as usize);
                            let wq = qw.q_value(oc * in_c * k * k + ic * k * k + ky * k + kx);
                            acc += wq as i64 * xq as i64;
                        }
                    }
                }
                // Same epilogue expression as the production engine:
                // bias + acc · scale.
                y[oc * oh * ow + oy * ow + ox] = bias.data()[oc] + acc as f32 * scale;
            }
        }
    }
    Tensor::from_vec(y, &[out_c, oh, ow])
}

fn naive_maxpool(qx: &QuantTensor, size: usize, stride: usize) -> Tensor {
    let shape = qx.shape().to_vec();
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (oh, ow) = ((h - size) / stride + 1, (w - size) / stride + 1);
    let scale = qx.scale();
    let mut out = vec![0.0f32; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i32::MIN;
                for ky in 0..size {
                    for kx in 0..size {
                        let q =
                            qx.q_value(ch * h * w + (oy * stride + ky) * w + (ox * stride + kx));
                        best = best.max(q);
                    }
                }
                out[ch * oh * ow + oy * ow + ox] = best as f32 * scale;
            }
        }
    }
    Tensor::from_vec(out, &[c, oh, ow])
}

/// Cross-backend logit envelope: one quantization step of the final
/// activation scale, amplified by a small constant for cascade effects, plus
/// f32 rounding slack. Coarser precisions get wider envelopes (their
/// re-quantization steps are larger).
fn envelope(precision: Precision, reference: f32) -> f32 {
    let step = match precision {
        Precision::Int4 => 0.6,
        Precision::Int8 => 0.08,
        _ => 5e-3,
    };
    step * (1.0 + reference.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn native_engine_matches_naive_integer_reference_bit_for_bit(
        arch in 0u8..3,
        seed in 0u64..1_000,
        precision_idx in 0usize..3,
        fault_sel in 0u8..2,
    ) {
        let precision = [Precision::Int4, Precision::Int8, Precision::Int16][precision_idx];
        let (net, input_shape) = odd_net(arch, seed);
        let mut rng = seeded_rng(seed ^ 0xA5A5);
        let x = uniform(&input_shape, -1.0, 1.0, &mut rng);
        let ber = if fault_sel == 1 { 1e-3 } else { 0.0 };

        // 1. Production engine ≡ naive scalar reference, bit for bit: the
        // SIMD dot kernels, 2×2 blocking, im2col lowering, scratch reuse and
        // refetch plumbing must not change a single bit.
        let mut reference_memory = make_memory(&net, precision, ber, seed);
        let reference = naive_native_logits(&net, &x, precision, &mut reference_memory);
        let native = logits(&net, &x, precision, ber, seed, InferenceBackend::NativeInt);
        let native_bits: Vec<u32> = native.data().iter().map(|v| v.to_bits()).collect();
        let reference_bits: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&native_bits, &reference_bits, "{} engine != naive reference", precision);

        // 2. Bit-identical for any worker count.
        for threads in [1usize, 2, 8] {
            let run = ThreadPool::new(threads).install(|| {
                logits(&net, &x, precision, ber, seed, InferenceBackend::NativeInt)
            });
            let bits: Vec<u32> = run.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&bits, &native_bits, "native logits differ at {} threads", threads);
        }

        // 3. Cross-backend envelope: the simulated-f32 logits agree up to
        // re-quantization discontinuities of the precision.
        let simulated = logits(&net, &x, precision, ber, seed, InferenceBackend::SimulatedF32);
        prop_assert_eq!(native.shape(), simulated.shape());
        for (n, s) in native.data().iter().zip(simulated.data()) {
            prop_assert!(
                (n - s).abs() <= envelope(precision, *s),
                "{} logit outside envelope: native {} vs simulated {}", precision, n, s
            );
        }
    }

    #[test]
    fn batch_accuracy_parity_on_reliable_memory(seed in 0u64..200, precision_idx in 0usize..3) {
        // Whole-batch evaluation through the real evaluator: on reliable
        // memory the two engines classify a batch nearly identically — any
        // systematic divergence would show up as a large accuracy gap.
        let precision = [Precision::Int4, Precision::Int8, Precision::Int16][precision_idx];
        let (net, input_shape) = odd_net(0, seed);
        let mut rng = seeded_rng(seed ^ 0x77);
        let samples: Vec<(Tensor, usize)> = (0..24)
            .map(|i| (uniform(&input_shape, -1.0, 1.0, &mut rng), i % 3))
            .collect();
        let oneshot = |backend| EvalSession::new(&net, precision, backend).evaluate_reliable(&samples);
        let sim = oneshot(InferenceBackend::SimulatedF32);
        let native = oneshot(InferenceBackend::NativeInt);
        // Allow a couple of marginal-sample disagreements out of 24 (logit
        // near-ties can re-quantize either way).
        prop_assert!(
            (sim - native).abs() <= 2.0 / 24.0 + 1e-6,
            "batch accuracy diverged: simulated {} vs native {}", sim, native
        );

        // A reused session must reproduce each backend's one-shot result bit
        // for bit — on the second call it serves from warm pools and the
        // cached baseline, which is exactly the reuse path to pin.
        for (backend, oneshot) in [
            (InferenceBackend::SimulatedF32, sim),
            (InferenceBackend::NativeInt, native),
        ] {
            let mut session = EvalSession::new(&net, precision, backend);
            let first = session.evaluate_reliable(&samples);
            let second = session.evaluate_reliable(&samples);
            prop_assert_eq!(first.to_bits(), oneshot.to_bits(), "{} session != one-shot", precision);
            prop_assert_eq!(second.to_bits(), oneshot.to_bits(), "{} warm session != one-shot", precision);
        }
    }
}
