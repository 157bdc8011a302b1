//! Per-layer probes of the traced run: one 32-sample window replayed layer
//! by layer through the public executors, and the `tensor::ops` kernels
//! timed at every VGG parameter layer's shape.
//!
//! * Native backend: `qexec::forward_native_batch_observed` runs the window
//!   under a [`TimedHook`] that wraps `ApproximateMemory`. The executor
//!   observes each sample at every layer boundary and loads each IFM through
//!   the hook, so a layer's wall time runs from its first boundary
//!   observation to the next layer's, and its self time is that minus the
//!   time spent inside the hook.
//! * Simulated backend: the same window, one `Layer::forward_batch` call per
//!   layer on the dequantized corrupted activations.
//! * Faults: weight refetch overlays (`ApproximateMemory::corrupt_overlay`),
//!   their application (`apply_overlay`/`revert_overlay`) and the weak-cell
//!   map scan (`ApproximateMemory::preallocate`) are timed around the call.

use crate::{median, Metrics, TRAIN_SEED};
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::faults::{ApproximateMemory, MemoryStats};
use eden_dnn::network::WeightImage;
use eden_dnn::qexec::{self, NativeWeights, QuantScratch};
use eden_dnn::zoo::ModelId;
use eden_dnn::{DataKind, DataSite, Dataset, FaultHook, Network};
use eden_dram::ErrorModel;
use eden_sysim::WorkloadProfile;
use eden_tensor::ops::{self, Conv2dParams};
use eden_tensor::{CorruptionOverlay, Precision, QuantTensor, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples of the replayed window (the session's default batch cap).
pub const WINDOW: usize = 32;

/// Replays per probe; each reported time is the median over them.
const REPS: usize = 5;

/// Precision of every replay and kernel probe.
const PRECISION: Precision = Precision::Int8;

/// Serves IFM loads from `ApproximateMemory` and records, per layer, when
/// the executor reached it and how long each load took.
struct TimedHook {
    memory: ApproximateMemory,
    /// `(layer, instant)` of every boundary observation.
    observed: Vec<(usize, Instant)>,
    /// `(layer, seconds)` spent inside each load.
    loads: Vec<(usize, f64)>,
}

impl TimedHook {
    fn new(memory: ApproximateMemory) -> Self {
        Self {
            memory,
            observed: Vec::new(),
            loads: Vec::new(),
        }
    }
}

impl FaultHook for TimedHook {
    fn corrupt(&mut self, site: &DataSite, tensor: &mut QuantTensor) {
        let t = Instant::now();
        self.memory.corrupt(site, tensor);
        self.loads
            .push((site.layer_index, t.elapsed().as_secs_f64()));
    }
}

/// Medians of one replayed window.
pub struct Replay {
    /// Self time per layer: wall time minus IFM load time.
    pub self_s: Vec<f64>,
    pub ifm_corrupt_s: f64,
    pub weight_overlay_s: f64,
    pub overlay_apply_s: f64,
    pub weak_map_s: f64,
    /// Loads, flips and corrections of one replay (weights and IFMs).
    pub stats: MemoryStats,
}

/// The memory every replay draws from: a fig08-style uniform template at
/// BER 1e-3 with bounding calibrated on the network.
fn replay_memory(net: &Network, dataset: &dyn Dataset, seed: u64) -> ApproximateMemory {
    let bounding =
        BoundingLogic::calibrated(net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    ApproximateMemory::from_model(ErrorModel::uniform(0.02, 0.5, seed).with_ber(1e-3), seed)
        .with_bounding(bounding)
}

fn overlays(memory: &mut ApproximateMemory, images: &[WeightImage]) -> Vec<CorruptionOverlay> {
    images
        .iter()
        .map(|img| memory.corrupt_overlay(&img.site, &img.clean, None))
        .collect()
}

/// Per-layer wall time from boundary observations: layer `i` runs from its
/// first observation to layer `i + 1`'s (or to `end` for the last layer).
fn layer_walls(
    depth: usize,
    observed: &[(usize, Instant)],
    start: Instant,
    end: Instant,
) -> Vec<f64> {
    let mut first: Vec<Option<Instant>> = vec![None; depth + 1];
    for &(layer, t) in observed {
        let slot = &mut first[layer];
        if slot.is_none_or(|f| t < f) {
            *slot = Some(t);
        }
    }
    first[0] = first[0].or(Some(start));
    first[depth] = Some(end);
    (0..depth)
        .map(|i| {
            let a = first[i].unwrap_or(start);
            let b = (i + 1..=depth).find_map(|k| first[k]).unwrap_or(end);
            b.saturating_duration_since(a).as_secs_f64()
        })
        .collect()
}

/// Replays one window through the native (`native == true`) or simulated
/// executor `REPS` times.
pub fn replay(net: &Network, dataset: &dyn Dataset, native: bool, seed: u64) -> Replay {
    let template = replay_memory(net, dataset, seed);
    let inputs: Vec<Tensor> = dataset.test()[..WINDOW]
        .iter()
        .map(|(x, _)| x.clone())
        .collect();
    let images = net.weight_images(PRECISION);
    let depth = net.depth();
    let mut native_weights = NativeWeights::prepare(net);
    native_weights.refresh_clean(&images);
    let mut sim_net = net.clone();
    sim_net.load_clean_weights(&images);
    let ifm_sites: Vec<DataSite> = net
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| DataSite::new(i, l.name(), DataKind::Ifm))
        .collect();

    let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); depth];
    let (mut ifm, mut weight, mut apply, mut weak) = (vec![], vec![], vec![], vec![]);
    let mut stats = MemoryStats::default();
    let mut scratch = QuantScratch::new();
    for _ in 0..REPS {
        let mut memory = template.clone();
        let t = Instant::now();
        memory.preallocate(net, PRECISION);
        weak.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let drawn = overlays(&mut memory, &images);
        weight.push(t.elapsed().as_secs_f64());
        let mut hooks: Vec<TimedHook> = (0..WINDOW as u64)
            .map(|j| TimedHook::new(memory.fork(j)))
            .collect();

        let t = Instant::now();
        if native {
            native_weights.apply_overlay(&images, &drawn);
        } else {
            sim_net.apply_overlay(&images, &drawn);
        }
        let mut apply_s = t.elapsed().as_secs_f64();

        let start = Instant::now();
        if native {
            let starts = vec![0usize; WINDOW];
            let out = qexec::forward_native_batch_observed(
                net,
                &native_weights,
                &inputs,
                &starts,
                PRECISION,
                &mut hooks,
                &mut scratch,
                |_, layer, _, hook: &mut TimedHook| hook.observed.push((layer, Instant::now())),
            );
            black_box(out);
        } else {
            let mut xs = inputs.clone();
            for (i, layer) in sim_net.layers().iter().enumerate() {
                hooks[0].observed.push((i, Instant::now()));
                let dq: Vec<Tensor> = xs
                    .iter()
                    .zip(hooks.iter_mut())
                    .map(|(x, hook)| {
                        let mut q = QuantTensor::quantize(x, PRECISION);
                        hook.corrupt(&ifm_sites[i], &mut q);
                        q.dequantize()
                    })
                    .collect();
                let refs: Vec<&Tensor> = dq.iter().collect();
                xs = layer
                    .forward_batch(&refs)
                    .unwrap_or_else(|| dq.iter().map(|x| layer.forward(x)).collect());
            }
            black_box(xs);
        }
        let end = Instant::now();

        let t = Instant::now();
        if native {
            native_weights.revert_overlay(&images, &drawn);
        } else {
            sim_net.revert_overlay(&images, &drawn);
        }
        apply_s += t.elapsed().as_secs_f64();
        apply.push(apply_s);

        let observed: Vec<(usize, Instant)> = hooks
            .iter()
            .flat_map(|h| h.observed.iter().copied())
            .collect();
        let walls = layer_walls(depth, &observed, start, end);
        let mut load_s = vec![0.0; depth];
        let mut rep_stats = memory.stats();
        for hook in &hooks {
            for &(layer, s) in &hook.loads {
                load_s[layer] += s;
            }
            let s = hook.memory.stats();
            rep_stats.loads += s.loads;
            rep_stats.bit_flips += s.bit_flips;
            rep_stats.corrections += s.corrections;
        }
        for i in 0..depth {
            per_layer[i].push((walls[i] - load_s[i]).max(0.0));
        }
        ifm.push(load_s.iter().sum());
        stats = rep_stats;
    }
    Replay {
        self_s: per_layer.iter().map(|v| median(v)).collect(),
        ifm_corrupt_s: median(&ifm),
        weight_overlay_s: median(&weight),
        overlay_apply_s: median(&apply),
        weak_map_s: median(&weak),
        stats,
    }
}

/// Records a replay as `dnn.<model>.<backend>.<layer>.*` metrics, plus the
/// fault-layer metrics of the model when `faults` is set.
fn emit_replay(
    m: &mut Metrics,
    model: &str,
    backend: &str,
    net: &Network,
    r: &Replay,
    faults: bool,
) {
    let profile = WorkloadProfile::from_network(net, PRECISION, 0.0);
    for (i, layer) in net.layers().iter().enumerate() {
        let prefix = format!("dnn.{model}.{backend}.{}", layer.name());
        m.set(format!("{prefix}.self_s"), r.self_s[i]);
        if backend == "native" && layer.param_count() > 0 && layer.supports_quant_forward() {
            let traffic = &profile.layers[i];
            let per_s = WINDOW as f64 / r.self_s[i].max(1e-12);
            m.set(
                format!("{prefix}.gmac_per_s"),
                traffic.macs as f64 * per_s / 1e9,
            );
            m.set(
                format!("{prefix}.computed_gb_per_s"),
                traffic.total_bytes() as f64 * per_s / 1e9,
            );
        }
    }
    if faults {
        m.set(format!("faults.{model}.ifm_corrupt_s"), r.ifm_corrupt_s);
        m.set(
            format!("faults.{model}.weight_overlay_s"),
            r.weight_overlay_s,
        );
        m.set(format!("dnn.{model}.overlay_apply_s"), r.overlay_apply_s);
        m.set(format!("faults.{model}.loads"), r.stats.loads as f64);
        m.set(
            format!("faults.{model}.bit_flips"),
            r.stats.bit_flips as f64,
        );
        m.set(
            format!("faults.{model}.corrections"),
            r.stats.corrections as f64,
        );
    }
}

/// The per-layer probes every traced run reports: vgg (native and
/// simulated) and resnet (native) window replays, the weak-map scan and
/// the VGG kernel probes. A workload passes the trained network it runs;
/// the others are built untrained (timings do not depend on the weights).
pub fn shared_probes(
    m: &mut Metrics,
    vgg: Option<(&Network, &dyn Dataset)>,
    resnet: Option<(&Network, &dyn Dataset)>,
    seed: u64,
) {
    let build = |id: ModelId| {
        let dataset = id.dataset(TRAIN_SEED);
        (id.build(&dataset.spec(), TRAIN_SEED), dataset)
    };
    let vgg_own = vgg.is_none().then(|| build(ModelId::Vgg16));
    let resnet_own = resnet.is_none().then(|| build(ModelId::ResNet));
    let (vgg_net, vgg_data) = vgg.unwrap_or_else(|| {
        let (n, d) = vgg_own.as_ref().expect("built above");
        (n, d as &dyn Dataset)
    });
    let (res_net, res_data) = resnet.unwrap_or_else(|| {
        let (n, d) = resnet_own.as_ref().expect("built above");
        (n, d as &dyn Dataset)
    });

    let vgg_native = replay(vgg_net, vgg_data, true, seed);
    emit_replay(m, "vgg", "native", vgg_net, &vgg_native, true);
    let vgg_sim = replay(vgg_net, vgg_data, false, seed);
    emit_replay(m, "vgg", "sim", vgg_net, &vgg_sim, false);
    let res_native = replay(res_net, res_data, true, seed);
    emit_replay(m, "resnet", "native", res_net, &res_native, true);
    m.set(
        "dram.weak_map_s",
        vgg_native.weak_map_s + res_native.weak_map_s,
    );
    kernel_probes(m, vgg_net);
}

/// Median seconds per call of `f` (at least 5 calls, up to ~20 ms).
fn per_call(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || (start.elapsed() < Duration::from_millis(20) && times.len() < 500) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Deterministic filler values in [-1, 1).
fn filler(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7919 + salt * 104_729) % 2001) as f32 / 1000.0 - 1.0)
        .collect()
}

/// The convolution geometry producing `out` from `input` with a `k`×`k`
/// kernel, preferring "same" padding.
fn conv_params(k: usize, input: &[usize], out: &[usize]) -> Conv2dParams {
    let paddings = std::iter::once(k / 2).chain(0..k);
    for padding in paddings {
        for stride in 1..=k {
            let p = Conv2dParams {
                kernel: k,
                stride,
                padding,
            };
            if p.out_size(input[1]) == out[1] && p.out_size(input[2]) == out[2] {
                return p;
            }
        }
    }
    panic!("no convolution geometry maps {input:?} to {out:?}");
}

/// Kernel timings of one convolution: `(im2col_s, gemm_s)` of the i8 panel
/// path at batch `b`, or of the f32 path when `f32_path` is set.
fn conv_kernels(
    oc: usize,
    input: &[usize],
    p: Conv2dParams,
    b: usize,
    f32_path: bool,
) -> (f64, f64) {
    let (ic, h, w) = (input[0], input[1], input[2]);
    let (ohw, ck) = (p.out_size(h) * p.out_size(w), ic * p.kernel * p.kernel);
    let n = b * ohw;
    let x = Tensor::from_vec(filler(ic * h * w, 1), input);
    if f32_path {
        let weights = filler(oc * ck, 2);
        let mut cols = vec![0.0f32; ck * n];
        let mut out = vec![0.0f32; oc * n];
        let im2col = per_call(|| {
            for j in 0..b {
                ops::im2col_strided(x.data(), ic, h, w, p, j * ohw, n, &mut cols);
            }
        });
        let gemm = per_call(|| {
            out.fill(0.0);
            ops::gemm_batch(oc, ck, n, &weights, &cols, &mut out);
            black_box(&out);
        });
        return (im2col, gemm);
    }
    let q = QuantTensor::quantize(&x, PRECISION);
    let ck_pad = ops::packed_stride_i8(ck);
    let mut cols8 = vec![0i8; n * ck_pad];
    let mut vals8 = Vec::new();
    let im2col = per_call(|| {
        for j in 0..b {
            ops::im2col_i8_t_stored_strided(
                q.stored(),
                q.bits_per_value(),
                ic,
                h,
                w,
                p,
                ck_pad,
                &mut vals8,
                &mut cols8[j * ohw * ck_pad..(j + 1) * ohw * ck_pad],
            );
        }
    });
    let gemm = dense_gemm(oc, ck, n, &cols8);
    (im2col, gemm)
}

/// Seconds per i8 panel GEMM of an `m`×`k` weight against `cols8`'s `n`
/// packed rows.
fn dense_gemm(m: usize, k: usize, n: usize, cols8: &[i8]) -> f64 {
    let k_pad = ops::packed_stride_i8(k);
    let mut a = vec![0i8; m * k_pad];
    for (r, row) in a.chunks_exact_mut(k_pad).enumerate() {
        for (c, v) in row[..k].iter_mut().enumerate() {
            *v = ((r * 31 + c * 17) % 255) as i32 as i8;
        }
    }
    let mut acc = vec![0i32; m * n];
    per_call(|| {
        acc.fill(0);
        ops::gemm_i8_packed(m, k_pad, n, &a, cols8, &mut acc);
        black_box(&acc);
    })
}

/// `tensor.vgg.*`: im2col and GEMM per VGG parameter layer at batch 32 and
/// batch 1 on the i8 panel path, plus the im2col share of conv kernel time
/// on the native (i8) and simulated (f32) paths at batch 32.
fn kernel_probes(m: &mut Metrics, net: &Network) {
    let mut shape = net.input_shape().to_vec();
    let (mut native, mut sim) = ([0.0; 2], [0.0; 2]);
    for layer in net.layers() {
        let out = layer.output_shape(&shape);
        let mut weight_shape = Vec::new();
        layer.visit_params_ref(&mut |name, t| {
            if name == "weight" {
                weight_shape = t.shape().to_vec();
            }
        });
        let prefix = format!("tensor.vgg.{}", layer.name());
        match weight_shape.len() {
            4 => {
                let p = conv_params(weight_shape[2], &shape, &out);
                let oc = weight_shape[0];
                let (im2col, gemm) = conv_kernels(oc, &shape, p, WINDOW, false);
                m.set(format!("{prefix}.im2col_s"), im2col);
                m.set(format!("{prefix}.gemm_s"), gemm);
                native[0] += im2col;
                native[1] += gemm;
                let (im2col1, gemm1) = conv_kernels(oc, &shape, p, 1, false);
                m.set(format!("{prefix}.im2col_b1_s"), im2col1);
                m.set(format!("{prefix}.gemm_b1_s"), gemm1);
                let (im2col_f, gemm_f) = conv_kernels(oc, &shape, p, WINDOW, true);
                sim[0] += im2col_f;
                sim[1] += gemm_f;
            }
            2 => {
                let (mm, k) = (weight_shape[0], weight_shape[1]);
                let cols8 = vec![1i8; WINDOW * ops::packed_stride_i8(k)];
                m.set(
                    format!("{prefix}.gemm_s"),
                    dense_gemm(mm, k, WINDOW, &cols8),
                );
                m.set(format!("{prefix}.gemm_b1_s"), dense_gemm(mm, k, 1, &cols8));
            }
            _ => {}
        }
        shape = out;
    }
    m.set(
        "tensor.vgg.im2col_share_native",
        native[0] / (native[0] + native[1]).max(1e-12),
    );
    m.set(
        "tensor.vgg.im2col_share_sim",
        sim[0] / (sim[0] + sim[1]).max(1e-12),
    );
}
