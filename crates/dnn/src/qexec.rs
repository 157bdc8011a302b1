//! The group executor of both inference backends, and native quantized
//! execution (the `NativeInt` backend).
//!
//! Both backends corrupt the same stored bits at the same data sites in the
//! same load order; they differ only in the per-layer arithmetic, which a
//! [`NativeWeights`] fixes as a per-layer plan when it is built. The native
//! plan ([`NativeWeights::prepare`]) executes dense and convolutional layers
//! directly on the **sign-extended quantized integers**: the corrupted
//! stored bits are packed into k-padded, patch-major panel rows and feed one
//! of two panel GEMMs of the same layout — i8 lanes with i32 accumulation
//! ([`eden_tensor::ops::gemm_i8_packed`]) where [`use_i8_kernels_for`] holds
//! (int4/int8), i16 lanes with exact i64 results
//! ([`eden_tensor::ops::gemm_i16_packed`]) everywhere else (int16, and
//! int4/int8 reductions too deep for i32) — and a single fused epilogue
//! applies the per-sample scale product and the bias. Weights are packed
//! into their panel form from the clean images once
//! ([`NativeWeights::refresh_clean`]), and each refetch's sparse corruption
//! overlays patch the packed lanes in place. Convolution weight lanes follow
//! the patch rows' `(ky, kx, ic)` order
//! ([`eden_tensor::ops::conv_patch_lane`]); dense weight lanes keep their
//! column order. ReLU, pooling and flatten run in the quantized domain;
//! layers without a native implementation (normalization, composite blocks)
//! run their f32 forward on a clone of the network whose parameters take
//! the same clean loads and overlays ([`Network::load_clean_weights`],
//! [`Network::apply_overlay`]), so any architecture runs under either
//! backend. The simulated plan ([`NativeWeights::simulated`]) runs every
//! layer that way: dequantize the corrupted IFM, then the f32 layer.
//!
//! There is one executor, [`forward_native_batch_observed`]: a group of
//! samples sharing one corrupted weight state runs layer by layer, each
//! layer's compute as one GEMM over the whole group, and a single sample is
//! simply a group of one.
//!
//! Integer accumulation is exact and associative, so the native plan is
//! bit-identical for any thread count by construction. Against the
//! simulated plan it agrees to within f32 rounding of the per-layer
//! accumulation chains (the integer path is the *more* accurate of the
//! two); the workspace-level `backend_parity` property test pins that bound
//! across precisions, shapes and thread counts.

use crate::layer::Layer;
use crate::network::{Network, WeightImage};
use crate::{DataKind, DataSite, FaultHook};
use eden_tensor::ops::{self, PanelLane};
use eden_tensor::{CorruptionOverlay, Precision, QuantTensor, Tensor};

/// Corrupted quantized parameters of one native layer, rebuilt on every
/// weight refetch from the cached clean bit images.
///
/// The weights are held in the lhs panel form of the layer's GEMM, packed
/// once per refetch: one row per output, `k` sign-extended lanes at the
/// kernel's k-padded stride, zero pad lanes. Dense rows keep their column
/// order; convolution rows hold their `[in_c, k, k]` taps in the `(ky, kx,
/// ic)` lane order of the patch rows ([`ops::conv_patch_lane`]). Exactly one
/// of the two forms is filled, chosen by [`use_i8_kernels_for`] on the
/// weight precision and the row depth `k`.
#[derive(Debug, Clone, Default)]
pub struct QuantLayerParams {
    /// i8 panel rows at the [`ops::packed_stride_i8`] stride, the lhs of
    /// [`ops::gemm_i8_packed`] (int4/int8). Every corrupted 4/8-bit pattern
    /// sign-extends into `[-128, 127]` exactly.
    pub qweight8: Vec<i8>,
    /// i16 panel rows at the [`ops::packed_stride_i16`] stride, the lhs of
    /// [`ops::gemm_i16_packed`] (int16, and int4/int8 reductions too deep
    /// for i32 accumulators).
    pub qweight16: Vec<i16>,
    /// Dequantization scale of the (corrupted) weight tensor.
    pub weight_scale: f32,
    /// Dequantized corrupted bias values.
    pub bias: Vec<f32>,
}

impl QuantLayerParams {
    /// Loads parameter `name` (`weight` or `bias`) from a (corrupted) bit
    /// image: the weight packed into its panel form, the bias dequantized.
    fn load(&mut self, name: &str, q: &QuantTensor) {
        if name == "weight" {
            self.load_weight(q);
        } else {
            self.bias.clear();
            self.bias.resize(q.len(), 0.0);
            q.dequantize_into(&mut self.bias);
        }
    }

    /// Packs a (corrupted) weight tensor into the panel form of its kernel
    /// path and takes its scale.
    fn load_weight(&mut self, q: &QuantTensor) {
        let k = weight_depth(q);
        self.weight_scale = q.scale();
        self.qweight8.clear();
        self.qweight16.clear();
        if use_i8_kernels_for(q.precision(), k) {
            pack_weight_panel(q, &mut self.qweight8);
        } else {
            pack_weight_panel(q, &mut self.qweight16);
        }
    }

    /// Writes every `(index, word)` pair — weight indices in visit order,
    /// stored words of `clean`'s precision — into its packed lane.
    fn patch_weights(&mut self, clean: &QuantTensor, words: impl Iterator<Item = (usize, u32)>) {
        if use_i8_kernels_for(clean.precision(), weight_depth(clean)) {
            patch_panel(&mut self.qweight8, clean, words);
        } else {
            patch_panel(&mut self.qweight16, clean, words);
        }
    }
}

/// The reduction depth of a weight tensor: the length of one output's row
/// (`in_features` of a dense layer, `in_c·k·k` of a convolution).
fn weight_depth(q: &QuantTensor) -> usize {
    q.len() / q.shape()[0]
}

/// The panel lane of column `col` of a weight row of `shape`: the
/// `(ky, kx, ic)` patch lane ([`ops::conv_patch_lane`]) for a rank-4
/// `[out_c, in_c, k, k]` convolution weight, `col` itself for a dense one.
fn weight_lane(shape: &[usize], col: usize) -> usize {
    match *shape {
        [_, in_c, kernel, _] => ops::conv_patch_lane(in_c, kernel, col),
        _ => col,
    }
}

/// Packs a weight tensor's stored words into lhs panel rows at the `T`
/// stride with zero pad lanes, each column at its [`weight_lane`]. `out` is
/// cleared and regrown, so it reallocates only past its high-water size.
fn pack_weight_panel<T: PanelLane>(q: &QuantTensor, out: &mut Vec<T>) {
    let k = weight_depth(q);
    let k_pad = T::packed_stride(k);
    let bits = q.bits_per_value();
    let lanes: Vec<usize> = (0..k).map(|col| weight_lane(q.shape(), col)).collect();
    out.clear();
    out.resize(q.len() / k * k_pad, T::default());
    for (dst, src) in out.chunks_exact_mut(k_pad).zip(q.stored().chunks_exact(k)) {
        for (&lane, &word) in lanes.iter().zip(src) {
            dst[lane] = T::from_stored(word, bits);
        }
    }
}

/// Packs the stored words of `tensors` — each a row-major `[rows, k]`
/// operand — back to back into panel rows at the `T` stride
/// ([`PanelLane::packed_stride`]) with zero pad lanes: the operand form of
/// the packed panel GEMMs. `out` is cleared and regrown, so it reallocates
/// only past its high-water size.
pub(crate) fn pack_panel<T: PanelLane>(tensors: &[&QuantTensor], k: usize, out: &mut Vec<T>) {
    let k_pad = T::packed_stride(k);
    let rows: usize = tensors.iter().map(|q| q.len() / k).sum();
    out.clear();
    out.resize(rows * k_pad, T::default());
    let mut at = 0;
    for q in tensors {
        let len = q.len() / k * k_pad;
        ops::pack_stored_rows(
            q.stored(),
            q.bits_per_value(),
            k,
            k_pad,
            &mut out[at..at + len],
        );
        at += len;
    }
}

/// Overwrites lane `row·k_pad + weight_lane(col)` of the packed panel of
/// weight `clean` for every flat index `row·k + col` in `words` (stored
/// words of `clean`'s precision).
fn patch_panel<T: PanelLane>(
    panel: &mut [T],
    clean: &QuantTensor,
    words: impl Iterator<Item = (usize, u32)>,
) {
    let k = weight_depth(clean);
    let k_pad = T::packed_stride(k);
    let bits = clean.bits_per_value();
    for (i, word) in words {
        panel[i / k * k_pad + weight_lane(clean.shape(), i % k)] = T::from_stored(word, bits);
    }
}

/// Reusable per-worker scratch buffers of the group executor. One instance
/// serves every layer of every group a worker processes; no buffer is
/// reallocated once it has reached its high-water size.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    /// Group-wide rhs panel rows on the i8 path (`[batch·ohw, ck]` patch
    /// rows of a convolution, `[batch, k]` of a dense layer), each at the
    /// [`ops::packed_stride_i8`] stride.
    pub cols8: Vec<i8>,
    /// The same on the i16 path, at the [`ops::packed_stride_i16`] stride.
    pub cols16: Vec<i16>,
    /// Whole-image sign-extended, channel-interleaved (HWC) view feeding
    /// the i8 patch packer ([`ops::im2col_t_stored_strided`]).
    pub vals8: Vec<i8>,
    /// The same for the i16 patch packer.
    pub vals16: Vec<i16>,
    /// Batch-wide dequantized GEMM output (`[m, n]`), reused across layers
    /// so no layer allocates it fresh.
    pub ybatch: Vec<f32>,
    /// i32 accumulators (i8 path).
    pub acc_i32: Vec<i32>,
    /// i64 results (i16 path).
    pub acc_i64: Vec<i64>,
    /// Per-sample corrupted stored bits of the current GEMM layer's IFMs
    /// (the first buffer serves every sample of the other layers).
    stored: Vec<Option<QuantTensor>>,
    /// Per-sample dequantized IFM buffers of the f32 layers.
    dequant: Vec<Vec<f32>>,
}

impl QuantScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A pool of scratch buffers (by default [`QuantScratch`]) shared by the
/// workers of a parallel evaluation.
///
/// Workers check a buffer out for the duration of one forward pass and
/// return it afterwards, so the arena holds at most as many buffers as the
/// peak number of concurrent passes — each grown once to its high-water
/// size and reused from then on. Scratch contents never influence results
/// (every consumer fully overwrites the regions it reads), so *which*
/// buffer a worker gets is irrelevant and checkout order cannot affect
/// numerics.
///
/// An owning evaluation session drops its arena — and every buffer — with
/// the session, unlike thread-local scratch, which would pin the high-water
/// allocation of the largest network ever evaluated for the thread's
/// lifetime.
#[derive(Debug)]
pub struct ScratchArena<T = QuantScratch> {
    slots: std::sync::Mutex<Vec<T>>,
}

impl<T> Default for ScratchArena<T> {
    fn default() -> Self {
        Self {
            slots: std::sync::Mutex::new(Vec::new()),
        }
    }
}

impl<T: Default> ScratchArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a scratch buffer checked out of the arena, allocating a
    /// fresh one when all buffers are in use.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut scratch = self.slots.lock().unwrap().pop().unwrap_or_default();
        let result = f(&mut scratch);
        self.slots.lock().unwrap().push(scratch);
        result
    }

    /// Number of buffers currently resident (checked-in) in the arena.
    pub fn resident(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Drops every checked-in buffer (buffers currently checked out are
    /// returned to an empty arena and survive). Used by session eviction to
    /// release scratch memory; contents never influence results, so draining
    /// is always safe.
    pub fn drain(&self) {
        self.slots.lock().unwrap().clear();
    }
}

/// Whether a `(precision, reduction depth)` pair takes the i8 kernels:
/// the operands must fit i8 (int4/int8) **and** the i32 accumulator must
/// provably hold the `k`-term sums; every other pair takes the i16 panel
/// kernels with i64 results. Weight packing, the layers' operand packing and
/// the kernel dispatch all use this one predicate, so they can never
/// disagree.
pub fn use_i8_kernels_for(precision: Precision, k: usize) -> bool {
    precision.is_integer() && precision.bits() <= 8 && !needs_wide_accumulator(precision, k)
}

/// Whether integer accumulation over `k` products of `precision` operands
/// needs an i64 accumulator. int4/int8 sums fit i32 for any practical depth;
/// a single int16 product already reaches 2³⁰.
pub fn needs_wide_accumulator(precision: Precision, k: usize) -> bool {
    match precision.q_min() {
        // FP32 never reaches the integer kernels.
        None => true,
        Some(q_min) => {
            let q = (q_min as i64).abs();
            (k as i64).saturating_mul(q * q) >= i32::MAX as i64
        }
    }
}

/// How one layer of a [`NativeWeights`] plan executes, fixed when the plan
/// is built.
#[derive(Debug, Clone)]
enum LayerPlan {
    /// Integer panel GEMM over the corrupted stored bits of the group's IFMs
    /// ([`Layer::quant_forward_batch`]) with these corrupted parameters.
    Gemm(QuantLayerParams),
    /// Quantized-domain activation ([`Layer::quant_forward_activation`]);
    /// a parameterless layer without one runs as [`LayerPlan::F32`].
    Activation,
    /// f32 forward on the dequantized IFMs, through the weight-refreshed
    /// f32 network for parameterized layers.
    F32,
}

/// The per-layer execution plan and corrupted-weight state of one refetch
/// slot. The native plan ([`NativeWeights::prepare`]) runs dense and conv
/// layers as integer GEMMs, ReLU, pooling and flatten in the quantized
/// domain and everything else on f32; the simulated plan
/// ([`NativeWeights::simulated`]) runs every layer on f32 over a full
/// weight-refreshed clone of the network. Both plans corrupt the same stored
/// bits at the same [`DataSite`]s in the same load order.
#[derive(Clone)]
pub struct NativeWeights {
    plan: Vec<LayerPlan>,
    /// Weight-refreshed f32 copy of the network, present iff some
    /// parameterized layer runs on f32.
    f32_net: Option<Network>,
    /// One IFM [`DataSite`] per layer, built once.
    ifm_sites: Vec<DataSite>,
}

impl NativeWeights {
    /// The native plan for `net`: an integer parameter slot per layer that
    /// supports native execution, the quantized-domain activation for every
    /// parameterless layer, and f32 (on a network clone made only if some
    /// parameterized layer needs it) for the rest.
    pub fn prepare(net: &Network) -> Self {
        Self::with_plan(net, |layer| {
            if layer.param_count() == 0 {
                LayerPlan::Activation
            } else if layer.supports_quant_forward() && has_weight_bias_params(layer) {
                LayerPlan::Gemm(QuantLayerParams::default())
            } else {
                LayerPlan::F32
            }
        })
    }

    /// The simulated-quantization plan for `net`: every layer runs its f32
    /// forward on the dequantized corrupted IFM, over a weight-refreshed
    /// clone of the network.
    pub fn simulated(net: &Network) -> Self {
        Self::with_plan(net, |_| LayerPlan::F32)
    }

    fn with_plan(net: &Network, mut plan_of: impl FnMut(&dyn Layer) -> LayerPlan) -> Self {
        let plan: Vec<LayerPlan> = net.layers().iter().map(|l| plan_of(l.as_ref())).collect();
        let needs_f32_net = net
            .layers()
            .iter()
            .zip(&plan)
            .any(|(l, p)| matches!(p, LayerPlan::F32) && l.param_count() > 0);
        Self {
            plan,
            f32_net: needs_f32_net.then(|| net.clone()),
            ifm_sites: net
                .layers()
                .iter()
                .enumerate()
                .map(|(i, l)| DataSite::new(i, l.name(), DataKind::Ifm))
                .collect(),
        }
    }

    /// The integer parameters of layer `i`, if it executes as a GEMM.
    pub fn native_params(&self, i: usize) -> Option<&QuantLayerParams> {
        match self.plan.get(i) {
            Some(LayerPlan::Gemm(params)) => Some(params),
            _ => None,
        }
    }

    /// Whether a weight-refreshed f32 network is maintained.
    pub fn has_f32_net(&self) -> bool {
        self.f32_net.is_some()
    }

    /// Re-loads every weight site with its **clean** bit image — the
    /// baseline state of the sparse-overlay refetch path: each GEMM layer's
    /// integer parameters are packed from its images, and the f32 copy, when
    /// there is one, loads every image ([`Network::load_clean_weights`]).
    /// The clean images are read in place; no load stream is consumed.
    pub fn refresh_clean(&mut self, images: &[WeightImage]) {
        for img in images {
            match self.plan.get_mut(img.layer_index) {
                Some(LayerPlan::Gemm(params)) => params.load(&img.param_name, &img.clean),
                _ => assert!(
                    self.f32_net.is_some(),
                    "weight image for an f32 layer but no f32 network"
                ),
            }
        }
        if let Some(net) = &mut self.f32_net {
            net.load_clean_weights(images);
        }
    }

    /// Patches the weight state with one [`CorruptionOverlay`] per weight
    /// image, touching only the overlaid words — the analogue of
    /// [`Network::apply_overlay`], which patches the f32 copy. The state
    /// must currently be the clean baseline
    /// ([`NativeWeights::refresh_clean`] or after
    /// [`NativeWeights::revert_overlay`]); the result is bit-identical to
    /// [`NativeWeights::refresh_clean`] of images whose stored bits carry
    /// the same corruption, at O(flips) instead of O(total weights).
    pub fn apply_overlay(&mut self, images: &[WeightImage], overlays: &[CorruptionOverlay]) {
        self.patch_overlay(images, overlays, true);
        if let Some(net) = &mut self.f32_net {
            net.apply_overlay(images, overlays);
        }
    }

    /// Undoes [`NativeWeights::apply_overlay`], restoring every touched word
    /// to its clean value in O(flips).
    pub fn revert_overlay(&mut self, images: &[WeightImage], overlays: &[CorruptionOverlay]) {
        self.patch_overlay(images, overlays, false);
        if let Some(net) = &mut self.f32_net {
            net.revert_overlay(images, overlays);
        }
    }

    /// Writes each overlay's patched words into the integer parameters of
    /// its GEMM layer; images of other layers live only in the f32 copy.
    fn patch_overlay(
        &mut self,
        images: &[WeightImage],
        overlays: &[CorruptionOverlay],
        apply: bool,
    ) {
        assert_eq!(images.len(), overlays.len(), "one overlay per image");
        for (img, overlay) in images.iter().zip(overlays) {
            let Some(LayerPlan::Gemm(params)) = self.plan.get_mut(img.layer_index) else {
                continue;
            };
            let words = overlay.patched_words(&img.clean, apply);
            if img.param_name == "weight" {
                // The scale is a property of the clean quantization and is
                // untouched by bit corruption, so it never needs re-patching.
                params.patch_weights(&img.clean, words);
            } else {
                for (i, word) in words {
                    params.bias[i] = img.clean.word_value(word);
                }
            }
        }
    }

    /// The f32 layer `i` runs as: the weight-refreshed copy where one is
    /// kept, else `net`'s own (parameterless) layer.
    fn f32_layer<'n>(&'n self, net: &'n Network, i: usize) -> &'n dyn Layer {
        self.f32_net.as_ref().unwrap_or(net).layers()[i].as_ref()
    }
}

/// Whether the layer's parameters are exactly `weight` then `bias` (the
/// structure the generic [`QuantLayerParams`] builder understands).
fn has_weight_bias_params(layer: &dyn Layer) -> bool {
    let mut names = Vec::new();
    layer.visit_params_ref(&mut |name, _| names.push(name.to_string()));
    names == ["weight", "bias"]
}

/// The group executor of both backends: a group of samples runs through one
/// shared weight state, layer by layer, following its plan. Every layer's
/// IFM is quantized into a per-sample stored-bits buffer and corrupted by
/// the sample's own hook at the layer's [`DataSite`] (so both plans consume
/// the same load streams); then the layer runs as its plan says:
///
/// * **GEMM** — one integer panel GEMM over every active sample's activation
///   rows (weight-stationary dataflow, [`Layer::quant_forward_batch`])
///   through the runtime-dispatched SIMD kernels (see
///   [`eden_tensor::simd`]): one-byte lanes for int4/int8, two-byte lanes
///   with exact i64 results for int16 and overflow-deep reductions;
/// * **activation** — [`Layer::quant_forward_activation`] on the stored
///   bits, without dequantizing;
/// * **f32** — the dequantized IFMs through [`Layer::forward_batch`] when
///   more than one sample is active, all shapes match and the layer has a
///   batched form (dense layers), else through [`Layer::forward`] per
///   sample (bit-identical either way).
///
/// A single sample is a group of one.
///
/// `starts[j]` is sample `j`'s resume layer (0 for a full pass; otherwise
/// `inputs[j]` is the activation entering layer `starts[j]`): a sample
/// participates in layer `i` iff `starts[j] <= i`, which is how per-sample
/// checkpoint resumes compose with grouping. Before each executed layer `i`
/// loads sample `j`'s IFM, `observe(j, i, x, &mut hooks[j])` is called with
/// the exact f32 activation entering the layer and the sample's hook (still
/// untouched by layer `i`'s load) — what lets a caller harvest
/// clean-activation checkpoints without the executor knowing anything about
/// checkpoint stores. Observation never changes execution.
///
/// Per sample, the sequence of `observe` calls, IFM loads and layer
/// computations depends only on that sample (integer accumulation is exact,
/// the epilogue element-wise and the batched f32 forms bit-identical to the
/// per-sample ones), so results and per-hook statistics are independent of
/// the group a sample runs in. Given the activation a full pass produces at
/// a resume boundary and a hook whose state matches that point of the load
/// sequence, a resumed sample's output is bit-identical to its full pass:
/// the prefix is skipped, not approximated.
///
/// # Panics
///
/// Panics if `precision` is not an integer precision while the plan has
/// integer layers (FP32 has no quantized representation to execute on), if
/// `weights` was prepared for a different architecture, if a resume layer
/// exceeds the network depth, or if `inputs`, `starts` and `hooks` disagree
/// in length.
#[allow(clippy::too_many_arguments)]
pub fn forward_native_batch_observed<H: FaultHook>(
    net: &Network,
    weights: &NativeWeights,
    inputs: &[Tensor],
    starts: &[usize],
    precision: Precision,
    hooks: &mut [H],
    scratch: &mut QuantScratch,
    mut observe: impl FnMut(usize, usize, &Tensor, &mut H),
) -> Vec<Tensor> {
    assert!(
        precision.is_integer() || weights.plan.iter().all(|p| matches!(p, LayerPlan::F32)),
        "the native plan requires an integer precision, got {precision}"
    );
    assert_eq!(weights.plan.len(), net.depth(), "weights/network mismatch");
    assert_eq!(inputs.len(), starts.len(), "inputs/starts mismatch");
    assert_eq!(inputs.len(), hooks.len(), "inputs/hooks mismatch");
    assert!(
        starts.iter().all(|&s| s <= net.depth()),
        "resume layer exceeds depth {}",
        net.depth()
    );
    let batch = inputs.len();
    let mut xs: Vec<Tensor> = inputs.to_vec();
    // Per-sample stored-bits and dequantized buffers, reused across layer
    // boundaries and groups. `QuantTensor::quantize` is `requantize_from`
    // on a fresh buffer, so reuse is bit-identical to allocating per layer.
    let mut stored = std::mem::take(&mut scratch.stored);
    let mut dequant = std::mem::take(&mut scratch.dequant);
    if stored.len() < batch {
        stored.resize_with(batch, || None);
        dequant.resize_with(batch, Vec::new);
    }
    let min_start = starts.iter().copied().min().unwrap_or(0);
    for (i, layer) in net.layers().iter().enumerate().skip(min_start) {
        let active: Vec<usize> = (0..batch).filter(|&j| starts[j] <= i).collect();
        let plan = &weights.plan[i];
        // Samples whose layer runs on f32, with their dequantized IFMs.
        let mut f32_inputs: Vec<(usize, Tensor)> = Vec::new();
        for &j in &active {
            observe(j, i, &xs[j], &mut hooks[j]);
            // Only a GEMM needs every sample's stored bits at once; the
            // other layers share one buffer.
            let k = if matches!(plan, LayerPlan::Gemm(_)) {
                j
            } else {
                0
            };
            let q = match &mut stored[k] {
                Some(q) => {
                    q.requantize_from(&xs[j], precision);
                    q
                }
                None => stored[k].insert(QuantTensor::quantize(&xs[j], precision)),
            };
            hooks[j].corrupt(&weights.ifm_sites[i], q);
            // Layers other than GEMMs consume each sample's stored bits
            // right away, while they are still in cache.
            match plan {
                LayerPlan::Gemm(_) => continue,
                LayerPlan::Activation => {
                    if let Some(y) = layer.quant_forward_activation(q) {
                        xs[j] = y;
                        continue;
                    }
                }
                LayerPlan::F32 => {}
            }
            let mut buf = std::mem::take(&mut dequant[j]);
            buf.clear();
            buf.resize(q.len(), 0.0);
            q.dequantize_into(&mut buf);
            f32_inputs.push((j, Tensor::from_vec(buf, q.shape())));
        }
        match plan {
            LayerPlan::Gemm(params) => {
                let qrefs: Vec<&QuantTensor> = active
                    .iter()
                    .map(|&j| stored[j].as_ref().expect("IFM loaded"))
                    .collect();
                let ys = layer
                    .quant_forward_batch(&qrefs, params, scratch)
                    .expect("layer advertised native quantized support");
                for (&j, y) in active.iter().zip(ys) {
                    xs[j] = y;
                }
            }
            _ => forward_f32(weights.f32_layer(net, i), f32_inputs, &mut dequant, &mut xs),
        }
    }
    scratch.stored = stored;
    scratch.dequant = dequant;
    xs
}

/// The f32 step of the group executor: runs `layer` over the dequantized
/// IFMs of `inputs` — one [`Layer::forward_batch`] when more than one
/// sample is active and all shapes match, else [`Layer::forward`] per
/// sample — and hands each IFM's buffer back to `dequant` for reuse.
fn forward_f32(
    layer: &dyn Layer,
    inputs: Vec<(usize, Tensor)>,
    dequant: &mut [Vec<f32>],
    xs: &mut [Tensor],
) {
    let uniform = inputs.windows(2).all(|w| w[0].1.shape() == w[1].1.shape());
    let batched = if inputs.len() > 1 && uniform {
        let refs: Vec<&Tensor> = inputs.iter().map(|(_, t)| t).collect();
        layer.forward_batch(&refs)
    } else {
        None
    };
    match batched {
        Some(ys) => {
            for ((j, t), y) in inputs.into_iter().zip(ys) {
                xs[j] = y;
                dequant[j] = t.into_vec();
            }
        }
        None => {
            for (j, t) in inputs {
                xs[j] = layer.forward(&t);
                dequant[j] = t.into_vec();
            }
        }
    }
}

/// Integer GEMM over a packed multi-sample rhs with a fused per-sample-scale
/// epilogue, dispatching on operand width: the packed i8 panel GEMM where
/// [`use_i8_kernels_for`] holds, the packed i16 panel GEMM everywhere else
/// (int16, and int4/int8 reductions too deep for i32). Each sample
/// contributes `cols_per_sample` consecutive output columns with its
/// **own** quantization scale, so the epilogue is
/// `out[row·n + j] = bias[row] + acc[row·n + j] · scales[j / cols_per_sample]`
/// (`n = cols_per_sample · batch`). The rhs rows — `scratch.cols8` on the i8
/// path, `scratch.cols16` on the i16 path — must be packed at that path's
/// panel stride with zero pad lanes, like the weights in `params`. Used by
/// [`crate::layers::Conv2d`] (patch rows) and [`crate::layers::Dense`] (one
/// row per sample).
#[allow(clippy::too_many_arguments)]
pub fn quant_gemm_bias_batch_into(
    m: usize,
    k: usize,
    cols_per_sample: usize,
    params: &QuantLayerParams,
    scratch: &mut QuantScratch,
    precision: Precision,
    scales: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let n = cols_per_sample * scales.len();
    if use_i8_kernels_for(precision, k) {
        scratch.acc_i32.clear();
        scratch.acc_i32.resize(m * n, 0);
        ops::gemm_i8_packed(
            m,
            ops::packed_stride_i8(k),
            n,
            &params.qweight8,
            &scratch.cols8,
            &mut scratch.acc_i32,
        );
        epilogue_batch(
            m,
            cols_per_sample,
            &scratch.acc_i32,
            scales,
            bias,
            out,
            |a| a as f32,
        );
    } else {
        scratch.acc_i64.clear();
        scratch.acc_i64.resize(m * n, 0);
        ops::gemm_i16_packed(
            m,
            ops::packed_stride_i16(k),
            n,
            &params.qweight16,
            &scratch.cols16,
            &mut scratch.acc_i64,
        );
        epilogue_batch(
            m,
            cols_per_sample,
            &scratch.acc_i64,
            scales,
            bias,
            out,
            |a| a as f32,
        );
    }
}

/// The fused per-sample-scale epilogue:
/// `out[row·n + j] = bias[row] + acc[row·n + j] · scales[j / cols_per_sample]`,
/// with `to_f32` the accumulator's `as f32` conversion.
fn epilogue_batch<A: Copy>(
    m: usize,
    cols_per_sample: usize,
    acc: &[A],
    scales: &[f32],
    bias: &[f32],
    out: &mut [f32],
    to_f32: impl Fn(A) -> f32,
) {
    let n = cols_per_sample * scales.len();
    for (row, &b) in bias.iter().enumerate().take(m) {
        // Per-sample segments of the row share one scale: iterate segment
        // by segment so the hot loop is a pure fused multiply-add.
        for (s, &scale) in scales.iter().enumerate() {
            let lo = row * n + s * cols_per_sample;
            for (o, &a) in out[lo..lo + cols_per_sample]
                .iter_mut()
                .zip(&acc[lo..lo + cols_per_sample])
            {
                *o = b + to_f32(a) * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use crate::network::corrupted_images;
    use crate::NoFaults;
    use eden_tensor::init::{seeded_rng, uniform};

    fn tiny_net(seed: u64) -> Network {
        let mut rng = seeded_rng(seed);
        let mut net = Network::new("tiny", &[2, 7, 7]);
        net.push(Conv2d::new("conv1", 2, 3, 3, 1, 1, &mut rng))
            .push(Relu::new("relu1"))
            .push(MaxPool2d::new("pool1", 2, 2))
            .push(Flatten::new("flatten"))
            .push(Dense::new("fc", 3 * 3 * 3, 5, &mut rng));
        net
    }

    /// One sample through the native executor as a group of one.
    fn forward_one(
        net: &Network,
        weights: &NativeWeights,
        x: &Tensor,
        precision: Precision,
        scratch: &mut QuantScratch,
    ) -> Tensor {
        let mut out = forward_native_batch_observed(
            net,
            weights,
            std::slice::from_ref(x),
            &[0],
            precision,
            &mut [NoFaults],
            scratch,
            |_, _, _, _| {},
        );
        out.pop().unwrap()
    }

    fn native_forward(net: &Network, x: &Tensor, precision: Precision) -> Tensor {
        let mut weights = NativeWeights::prepare(net);
        weights.refresh_clean(&net.weight_images(precision));
        forward_one(net, &weights, x, precision, &mut QuantScratch::new())
    }

    /// The simulated-f32 reference: weights round-tripped through the stored
    /// representation (as a weight refetch does), IFMs quantized per layer.
    fn simulated_forward(net: &Network, x: &Tensor, precision: Precision) -> Tensor {
        let mut c = net.clone();
        c.load_clean_weights(&net.weight_images(precision));
        c.forward_with_ifm_hook(x, precision, &mut NoFaults)
    }

    #[test]
    fn native_forward_tracks_simulated_path_closely() {
        let net = tiny_net(3);
        let mut rng = seeded_rng(7);
        let x = uniform(&[2, 7, 7], -1.0, 1.0, &mut rng);
        for p in [Precision::Int4, Precision::Int8, Precision::Int16] {
            let simulated = simulated_forward(&net, &x, p);
            let native = native_forward(&net, &x, p);
            assert_eq!(native.shape(), simulated.shape());
            for (a, b) in native.data().iter().zip(simulated.data()) {
                assert!(
                    (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                    "{p}: native {a} vs simulated {b}"
                );
            }
        }
    }

    #[test]
    fn native_forward_is_deterministic() {
        let net = tiny_net(4);
        let mut rng = seeded_rng(9);
        let x = uniform(&[2, 7, 7], -1.0, 1.0, &mut rng);
        let a = native_forward(&net, &x, Precision::Int8);
        let b = native_forward(&net, &x, Precision::Int8);
        assert_eq!(a, b);
    }

    #[test]
    fn layer_forward_batch_matches_per_sample_bit_for_bit() {
        let mut rng = seeded_rng(21);
        let dense = Dense::new("d", 32, 7, &mut rng);
        let xs: Vec<Tensor> = (0..4)
            .map(|_| uniform(&[32], -1.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        for (x, y) in xs.iter().zip(dense.forward_batch(&refs).unwrap()) {
            assert_eq!(dense.forward(x), y);
        }
    }

    #[test]
    fn batched_native_forward_is_bit_identical_to_per_sample() {
        let net = tiny_net(5);
        let mut rng = seeded_rng(11);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| uniform(&[2, 7, 7], -1.0, 1.0, &mut rng))
            .collect();
        for p in [Precision::Int4, Precision::Int8, Precision::Int16] {
            let mut weights = NativeWeights::prepare(&net);
            weights.refresh_clean(&net.weight_images(p));
            let per: Vec<Tensor> = inputs
                .iter()
                .map(|x| forward_one(&net, &weights, x, p, &mut QuantScratch::new()))
                .collect();
            let mut hooks: Vec<NoFaults> = (0..inputs.len()).map(|_| NoFaults).collect();
            let starts = vec![0usize; inputs.len()];
            let mut scratch = QuantScratch::new();
            let batched = forward_native_batch_observed(
                &net,
                &weights,
                &inputs,
                &starts,
                p,
                &mut hooks,
                &mut scratch,
                |_, _, _, _| {},
            );
            assert_eq!(per, batched, "{p}");
        }
    }

    #[test]
    fn batched_native_forward_respects_per_sample_resume_layers() {
        // Samples resuming at different boundaries (as checkpointed batch
        // members do) must see exactly the suffix a solo resume would run.
        let net = tiny_net(6);
        let mut rng = seeded_rng(13);
        let p = Precision::Int8;
        let mut weights = NativeWeights::prepare(&net);
        weights.refresh_clean(&net.weight_images(p));
        let x0 = uniform(&[2, 7, 7], -1.0, 1.0, &mut rng);
        // Sample 1 "resumes" from layer 2 with the boundary activation a full
        // pass produces there.
        let mut boundary = None;
        let full = forward_native_batch_observed(
            &net,
            &weights,
            std::slice::from_ref(&x0),
            &[0],
            p,
            &mut [NoFaults],
            &mut QuantScratch::new(),
            |_, i, x, _| {
                if i == 2 {
                    boundary = Some(x.clone());
                }
            },
        )
        .pop()
        .unwrap();
        let boundary = boundary.unwrap();
        let inputs = vec![x0.clone(), boundary];
        let starts = vec![0usize, 2];
        let mut hooks: Vec<NoFaults> = vec![NoFaults, NoFaults];
        let mut scratch = QuantScratch::new();
        let batched = forward_native_batch_observed(
            &net,
            &weights,
            &inputs,
            &starts,
            p,
            &mut hooks,
            &mut scratch,
            |_, _, _, _| {},
        );
        assert_eq!(batched[0], full);
        assert_eq!(batched[1], full);
    }

    #[test]
    fn scratch_arena_reuses_buffers() {
        let arena: ScratchArena = ScratchArena::new();
        arena.with(|s| s.cols8.resize(128, 0));
        assert_eq!(arena.resident(), 1);
        // The returned buffer comes back out with its capacity intact.
        arena.with(|s| assert!(s.cols8.capacity() >= 128));
        assert_eq!(arena.resident(), 1);
    }

    #[test]
    fn lenet_style_net_needs_no_fallback() {
        let weights = NativeWeights::prepare(&tiny_net(0));
        assert!(!weights.has_f32_net());
    }

    #[test]
    fn norm_layer_forces_fallback_network() {
        let mut rng = seeded_rng(1);
        let mut net = Network::new("norm", &[2, 4, 4]);
        net.push(crate::layers::ChannelNorm::new("cn", 2))
            .push(Flatten::new("flatten"))
            .push(Dense::new("fc", 32, 3, &mut rng));
        let weights = NativeWeights::prepare(&net);
        assert!(weights.has_f32_net());
        // The fallback path still produces outputs close to the f32 path.
        let x = uniform(&[2, 4, 4], -1.0, 1.0, &mut rng);
        let simulated = simulated_forward(&net, &x, Precision::Int8);
        let native = native_forward(&net, &x, Precision::Int8);
        for (a, b) in native.data().iter().zip(simulated.data()) {
            assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }

    /// Asserts two native weight states hold lane-identical weight panels
    /// (and the same bias values) in every native layer.
    fn assert_same_panels(a: &NativeWeights, b: &NativeWeights, what: &str) {
        assert_eq!(a.plan.len(), b.plan.len(), "{what}: layer count");
        for i in 0..a.plan.len() {
            let (Some(pa), Some(pb)) = (a.native_params(i), b.native_params(i)) else {
                assert!(
                    a.native_params(i).is_none() && b.native_params(i).is_none(),
                    "{what}: layer {i} routing"
                );
                continue;
            };
            assert_eq!(pa.qweight8, pb.qweight8, "{what}: layer {i} i8 panel");
            assert_eq!(pa.qweight16, pb.qweight16, "{what}: layer {i} i16 panel");
            assert_eq!(pa.bias, pb.bias, "{what}: layer {i} bias");
        }
    }

    #[test]
    fn native_overlay_patching_matches_refresh() {
        // Both a fully-native net and one with a fallback layer: applying
        // overlays to clean native state must equal a full refresh from
        // images carrying the same corruption, and revert must restore clean.
        let mut rng = seeded_rng(2);
        let mut norm_net = Network::new("norm", &[2, 4, 4]);
        norm_net
            .push(crate::layers::ChannelNorm::new("cn", 2))
            .push(Flatten::new("flatten"))
            .push(Dense::new("fc", 32, 3, &mut rng));
        for (net, input_shape) in [(tiny_net(5), vec![2usize, 7, 7]), (norm_net, vec![2, 4, 4])] {
            for precision in [Precision::Int4, Precision::Int8, Precision::Int16] {
                let images = net.weight_images(precision);
                let mask_limit = (1u32 << precision.bits()) - 1;
                let overlays: Vec<CorruptionOverlay> = images
                    .iter()
                    .map(|img| {
                        let deltas: Vec<(u32, u32)> = (0..img.clean.len() as u32)
                            .step_by(3)
                            .map(|w| (w, (w.wrapping_mul(37) & mask_limit).max(1)))
                            .collect();
                        let flips = deltas.iter().map(|&(_, m)| m.count_ones() as u64).sum();
                        CorruptionOverlay::new(img.clean.len(), precision.bits(), deltas, flips, 0)
                    })
                    .collect();

                let mut cursor = 0usize;
                let mut reference = NativeWeights::prepare(&net);
                reference.refresh_clean(&corrupted_images(
                    &images,
                    &mut |_: &DataSite, q: &mut QuantTensor| {
                        overlays[cursor].apply(q);
                        cursor += 1;
                    },
                ));

                let mut patched = NativeWeights::prepare(&net);
                patched.refresh_clean(&images);
                patched.apply_overlay(&images, &overlays);

                // Overlay patching writes every word to the lane the packer
                // put it in: the panels agree lane for lane.
                assert_same_panels(&reference, &patched, &format!("{precision} patched"));

                let x = uniform(&input_shape, -1.0, 1.0, &mut rng);
                let mut scratch = QuantScratch::new();
                let via_reference = forward_one(&net, &reference, &x, precision, &mut scratch);
                let via_patch = forward_one(&net, &patched, &x, precision, &mut scratch);
                assert_eq!(via_reference, via_patch, "{precision}");

                // Revert restores the clean state bit for bit.
                patched.revert_overlay(&images, &overlays);
                let mut clean = NativeWeights::prepare(&net);
                clean.refresh_clean(&images);
                assert_same_panels(&clean, &patched, &format!("{precision} reverted"));
                let via_reverted = forward_one(&net, &patched, &x, precision, &mut scratch);
                let via_clean = forward_one(&net, &clean, &x, precision, &mut scratch);
                assert_eq!(via_reverted, via_clean, "{precision}");
            }
        }
    }

    #[test]
    fn wide_accumulator_selection_is_conservative() {
        assert!(!needs_wide_accumulator(Precision::Int8, 1 << 16));
        assert!(needs_wide_accumulator(Precision::Int8, 1 << 18));
        assert!(needs_wide_accumulator(Precision::Int16, 2));
        assert!(!needs_wide_accumulator(Precision::Int4, 1 << 20));
        // The combined predicate rejects the i8 kernels exactly when the
        // i32 accumulator could overflow, even for i8-sized operands.
        assert!(use_i8_kernels_for(Precision::Int8, 1 << 16));
        assert!(!use_i8_kernels_for(Precision::Int8, 1 << 18));
        assert!(!use_i8_kernels_for(Precision::Int16, 8));
    }

    #[test]
    fn deep_int8_reductions_take_the_overflow_proof_path() {
        // k = 2^18 int8 worst-case products sum to ~2^32, overflowing an i32
        // accumulator — the dispatch must route such depths to the i64
        // kernel even though the operands fit i8.
        let k = 1 << 18;
        let m = 2;
        let mut rng = seeded_rng(0);
        let mut layer = Dense::new("deep", k, m, &mut rng);
        let big = Tensor::full(&[k], 1.0);
        layer.visit_params(&mut |p| {
            if p.name == "weight" {
                *p.value = Tensor::full(&[m, k], 1.0);
            }
        });
        let qx = QuantTensor::quantize(&big, Precision::Int8);
        let mut net = Network::new("deep", &[k]);
        net.push(layer.clone());
        let mut weights = NativeWeights::prepare(&net);
        weights.refresh_clean(&net.weight_images(Precision::Int8));
        let params = weights.native_params(0).expect("dense is native");
        // Packed for the i16 panel kernels, not the i8 ones.
        assert!(params.qweight8.is_empty());
        assert_eq!(params.qweight16.len(), m * ops::packed_stride_i16(k));
        let mut scratch = QuantScratch::new();
        let y = layer
            .quant_forward_batch(&[&qx], params, &mut scratch)
            .expect("dense is native")
            .pop()
            .unwrap();
        // All-ones tensors quantize to q = 127 with scale 1/127, so the true
        // sum is k·127² · (1/127)² = k exactly; an overflowed i32
        // accumulator would wrap to a wildly different value.
        let expected = k as f32;
        for &v in y.data() {
            assert!(
                (v - expected).abs() <= expected * 1e-3,
                "deep reduction overflowed: got {v}, expected ~{expected}"
            );
        }
    }
}
