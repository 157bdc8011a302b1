//! Sequential networks of layers.
//!
//! # Serving weights from approximate DRAM
//!
//! Every weight load starts from the cached clean bit images of
//! [`Network::weight_images`]. The parameters are held at the dequantized
//! clean baseline ([`Network::load_clean_weights`]), and each fault draw is
//! patched in as sparse [`CorruptionOverlay`]s ([`Network::apply_overlay`] /
//! [`Network::revert_overlay`]): only the words an overlay touches are
//! rewritten, so a refetch costs O(flips), and `apply ∘ revert` restores the
//! baseline exactly. One persistent corrupted copy therefore serves any
//! number of fault draws without full reloads.
//!
//! The workspace `overlay_equivalence` suite pins this path bit for bit
//! against a test-local reference that corrupts a copy of every clean image
//! per refetch and loads the result with [`Network::load_clean_weights`].

use crate::hooks::{DataKind, DataSite, FaultHook};
use crate::layer::{Layer, ParamEntry};
use eden_tensor::ops::ConvScratch;
use eden_tensor::{CorruptionOverlay, Precision, QuantTensor, Tensor};
use serde::{Deserialize, Serialize};

/// Description of one DNN data type (a layer's weights or IFM) and its size.
///
/// Used by the EDEN framework to enumerate mappable data and compute DRAM
/// footprints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataTypeInfo {
    /// Which data type this is.
    pub site: DataSite,
    /// Number of scalar elements.
    pub elements: usize,
}

impl DataTypeInfo {
    /// Size in bytes at a given precision, rounded **up** to whole bytes: an
    /// int4 tensor with an odd element count still occupies its final
    /// half-filled byte, and DRAM capacity checks must reserve it.
    pub fn bytes(&self, precision: Precision) -> u64 {
        (self.elements as u64 * precision.bits() as u64).div_ceil(8)
    }
}

/// The clean quantized bit image of one layer parameter, captured once per
/// evaluation (see [`Network::weight_images`]) so each weight refetch
/// corrupts a copy of the stored bits instead of cloning and re-quantizing
/// the whole network.
#[derive(Debug, Clone)]
pub struct WeightImage {
    /// The weight data site the parameter belongs to (one per layer: a
    /// layer's weight and bias share the site).
    pub site: DataSite,
    /// Index of the owning layer.
    pub layer_index: usize,
    /// Parameter name within the layer (e.g. `"weight"`, `"bias"`).
    pub param_name: String,
    /// The clean quantized stored representation.
    pub clean: QuantTensor,
}

/// A feed-forward network: an ordered sequence of layers applied to a single
/// sample.
#[derive(Clone)]
pub struct Network {
    name: String,
    input_shape: Vec<usize>,
    layers: Vec<Box<dyn Layer>>,
    /// The backward pass's working buffers, handed to every layer in turn.
    /// A clone starts with an empty one, so a training lane copies none.
    scratch: ConvScratch,
}

impl Network {
    /// Creates an empty network for inputs of the given shape.
    pub fn new(name: impl Into<String>, input_shape: &[usize]) -> Self {
        Self {
            name: name.into(),
            input_shape: input_shape.to_vec(),
            layers: Vec::new(),
            scratch: ConvScratch::default(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expected input shape (per sample).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Pure inference forward pass.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Training forward pass (caches intermediates in each layer).
    pub fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward_train(&x);
        }
        x
    }

    /// Backward pass through all layers: adds every layer's parameter
    /// gradients and returns the gradient with respect to the network
    /// input.
    pub fn backward(&mut self, d_out: &Tensor) -> Tensor {
        self.backward_pass(d_out, true)
            .expect("the input gradient was asked for")
    }

    /// The trainers' backward pass: adds exactly the parameter gradients of
    /// [`Network::backward`], bit for bit, but stops before the first
    /// layer's input gradient ([`Layer::backward_params`]), which no
    /// trainer reads.
    pub fn backward_params(&mut self, d_out: &Tensor) {
        self.backward_pass(d_out, false);
    }

    /// Runs every layer's backward pass, last to first, and the first
    /// layer's input gradient only if `input_grad` is set (returning it).
    fn backward_pass(&mut self, d_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input_grad.then(|| d_out.clone());
        };
        let mut d: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            d = Some(layer.backward(d.as_ref().unwrap_or(d_out), &mut self.scratch));
        }
        let d = d.as_ref().unwrap_or(d_out);
        if input_grad {
            Some(first.backward(d, &mut self.scratch))
        } else {
            first.backward_params(d, &mut self.scratch);
            None
        }
    }

    /// Folds one sample's training updates from `lane` — a replica of this
    /// network that ran `zero_grads`, `forward_train` and `backward` (or
    /// `backward_params`) on the sample — into this network, layer by layer ([`Layer::fold_lane`]).
    /// Folding a minibatch's lanes in sample order is bit-identical to
    /// running each sample on this network in turn.
    ///
    /// # Panics
    ///
    /// Panics if `lane` does not have this network's layer structure.
    pub fn fold_lane(&mut self, lane: &Network) {
        assert_eq!(self.layers.len(), lane.layers.len(), "lane layer count");
        for (layer, lane_layer) in self.layers.iter_mut().zip(&lane.layers) {
            layer.fold_lane(lane_layer.as_ref());
        }
    }

    /// Zeros all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Visits every parameter of every layer (training order).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Visits every parameter immutably.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    /// Visits every parameter with the index of its owning layer (same order
    /// as [`Network::visit_params`]).
    pub fn visit_params_layers(&mut self, f: &mut dyn FnMut(usize, ParamEntry<'_>)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_params(&mut |p| f(i, p));
        }
    }

    /// Collects all accumulated gradients in visit order.
    pub fn collect_grads(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.grad.clone()));
        out
    }

    /// Overwrites all accumulated gradients from a vector in visit order
    /// (e.g. gradients computed on a corrupted copy of the network).
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the parameter structure.
    pub fn set_grads(&mut self, grads: &[Tensor]) {
        let mut i = 0;
        self.visit_params(&mut |p| {
            assert!(i < grads.len(), "not enough gradient tensors");
            assert_eq!(p.grad.shape(), grads[i].shape(), "gradient shape mismatch");
            *p.grad = grads[i].clone();
            i += 1;
        });
        assert_eq!(i, grads.len(), "too many gradient tensors");
    }

    /// Predicted class for a single sample (argmax of the output logits).
    pub fn predict(&self, input: &Tensor) -> usize {
        self.forward(input).argmax()
    }

    /// The shape of every layer's output (last entry is the network output).
    pub fn data_flow_shapes(&self) -> Vec<Vec<usize>> {
        let mut shapes = Vec::with_capacity(self.layers.len());
        let mut cur = self.input_shape.clone();
        for layer in &self.layers {
            cur = layer.output_shape(&cur);
            shapes.push(cur.clone());
        }
        shapes
    }

    /// Enumerates every mappable DNN data type: one weight entry per layer
    /// with parameters, plus one IFM entry per layer (the layer's input).
    pub fn data_sites(&self) -> Vec<DataTypeInfo> {
        let mut out = Vec::new();
        let mut cur_shape = self.input_shape.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            // IFM: the input of this layer.
            out.push(DataTypeInfo {
                site: DataSite::new(i, layer.name(), DataKind::Ifm),
                elements: cur_shape.iter().product(),
            });
            // Weights, if any.
            let params = layer.param_count();
            if params > 0 {
                out.push(DataTypeInfo {
                    site: DataSite::new(i, layer.name(), DataKind::Weight),
                    elements: params,
                });
            }
            cur_shape = layer.output_shape(&cur_shape);
        }
        out
    }

    /// Approximate multiply-accumulate count for one inference.
    pub fn total_macs(&self) -> u64 {
        let mut total = 0;
        let mut cur = self.input_shape.clone();
        for layer in &self.layers {
            total += layer.macs(&cur);
            cur = layer.output_shape(&cur);
        }
        total
    }

    /// Total bytes of all weights at a precision, rounding each parameter
    /// tensor **up** to whole bytes (tensors are stored at byte granularity,
    /// so an int4 tensor with an odd element count pads its last byte —
    /// truncating `bits/8` under-reported Table 1 footprints and DRAM
    /// capacity requirements for such models).
    pub fn weight_bytes(&self, precision: Precision) -> u64 {
        let bits = precision.bits() as u64;
        let mut total = 0u64;
        self.visit_params_ref(&mut |_, t| total += (t.len() as u64 * bits).div_ceil(8));
        total
    }

    /// Total bytes of all IFMs (per inference of one sample) at a precision,
    /// rounding each IFM tensor up to whole bytes like
    /// [`Network::weight_bytes`].
    pub fn ifm_bytes(&self, precision: Precision) -> u64 {
        let bits = precision.bits() as u64;
        let mut total = 0u64;
        let mut cur: Vec<usize> = self.input_shape.clone();
        for layer in &self.layers {
            total += (cur.iter().product::<usize>() as u64 * bits).div_ceil(8);
            cur = layer.output_shape(&cur);
        }
        total
    }

    /// Captures the clean quantized bit image of every layer parameter, in
    /// layer order and, within a layer, in [`Network::visit_params`] order.
    ///
    /// Computed once per evaluation, the images are the stored bits every
    /// weight load reads: [`Network::load_clean_weights`] loads them as they
    /// are, and each fault draw is patched on top as sparse overlays
    /// ([`Network::apply_overlay`]) instead of re-quantizing the network.
    pub fn weight_images(&self, precision: Precision) -> Vec<WeightImage> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let site = DataSite::new(i, layer.name(), DataKind::Weight);
            layer.visit_params_ref(&mut |name, t| {
                out.push(WeightImage {
                    site: site.clone(),
                    layer_index: i,
                    param_name: name.to_string(),
                    clean: QuantTensor::quantize(t, precision),
                });
            });
        }
        out
    }

    /// Overwrites this network's parameters with the **dequantized clean**
    /// bit images — the baseline state of the sparse-overlay refetch path.
    /// Without faults this is post-training quantization: FP32 images load
    /// the parameters unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `images` does not match this network's parameter structure.
    pub fn load_clean_weights(&mut self, images: &[WeightImage]) {
        let mut cursor = 0usize;
        self.visit_params_layers(&mut |layer_index, p| {
            let img = images.get(cursor).expect("missing weight image");
            cursor += 1;
            debug_assert_eq!(img.layer_index, layer_index, "weight image order");
            debug_assert_eq!(img.param_name, p.name, "weight image order");
            img.clean.dequantize_into(p.value.data_mut());
        });
        assert_eq!(cursor, images.len(), "unconsumed weight images");
    }

    /// Patches this network's parameters with one [`CorruptionOverlay`] per
    /// weight image: only the words each overlay touches are re-dequantized
    /// (from `clean bits ^ mask`), so the cost is O(flips) instead of
    /// O(total weights).
    ///
    /// The parameters must currently hold the dequantized clean images —
    /// either via [`Network::load_clean_weights`] or after
    /// [`Network::revert_overlay`] of the previously applied overlays. The
    /// result is then bit-identical to loading images whose stored bits carry
    /// the same corruption.
    ///
    /// # Panics
    ///
    /// Panics if `images`/`overlays` do not match the parameter structure.
    pub fn apply_overlay(&mut self, images: &[WeightImage], overlays: &[CorruptionOverlay]) {
        self.patch_overlay(images, overlays, true);
    }

    /// Undoes [`Network::apply_overlay`]: restores every touched word to its
    /// dequantized clean value, leaving the parameters back at the
    /// [`Network::load_clean_weights`] baseline in O(flips).
    ///
    /// # Panics
    ///
    /// Panics if `images`/`overlays` do not match the parameter structure.
    pub fn revert_overlay(&mut self, images: &[WeightImage], overlays: &[CorruptionOverlay]) {
        self.patch_overlay(images, overlays, false);
    }

    fn patch_overlay(
        &mut self,
        images: &[WeightImage],
        overlays: &[CorruptionOverlay],
        apply: bool,
    ) {
        assert_eq!(images.len(), overlays.len(), "one overlay per image");
        let mut cursor = 0usize;
        self.visit_params_layers(&mut |layer_index, p| {
            let (img, overlay) = (&images[cursor], &overlays[cursor]);
            cursor += 1;
            debug_assert_eq!(img.layer_index, layer_index, "weight image order");
            debug_assert_eq!(img.param_name, p.name, "weight image order");
            let data = p.value.data_mut();
            for (i, word) in overlay.patched_words(&img.clean, apply) {
                data[i] = img.clean.word_value(word);
            }
        });
        assert_eq!(cursor, images.len(), "unconsumed weight images");
    }

    /// Pure forward pass in which every layer's IFM is round-tripped through
    /// the stored representation at `precision` and corrupted by `hook`
    /// before use — modelling IFMs that are stored to and loaded from
    /// approximate DRAM between layers. The straightforward reference the
    /// group executor's all-f32 plan ([`crate::qexec::NativeWeights::simulated`])
    /// is pinned against.
    pub fn forward_with_ifm_hook(
        &self,
        input: &Tensor,
        precision: Precision,
        hook: &mut dyn FaultHook,
    ) -> Tensor {
        let mut x = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let site = DataSite::new(i, layer.name(), DataKind::Ifm);
            let mut q = QuantTensor::quantize(&x, precision);
            hook.corrupt(&site, &mut q);
            x = layer.forward(&q.dequantize());
        }
        x
    }

    /// Training forward pass with IFM corruption (used by curricular
    /// retraining, which runs the forward pass on approximate DRAM).
    pub fn forward_train_with_ifm_hook(
        &mut self,
        input: &Tensor,
        precision: Precision,
        hook: &mut dyn FaultHook,
    ) -> Tensor {
        let mut x = input.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let site = DataSite::new(i, layer.name(), DataKind::Ifm);
            let mut q = QuantTensor::quantize(&x, precision);
            hook.corrupt(&site, &mut q);
            x = layer.forward_train(&q.dequantize());
        }
        x
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network({}, {} layers, {} params, input {:?})",
            self.name,
            self.depth(),
            self.param_count(),
            self.input_shape
        )
    }
}

/// The reference weight load of the unit tests: a copy of every image's
/// clean bits, corrupted by `hook` in image order.
#[cfg(test)]
pub(crate) fn corrupted_images(
    images: &[WeightImage],
    hook: &mut dyn FaultHook,
) -> Vec<WeightImage> {
    images
        .iter()
        .map(|img| {
            let mut img = img.clone();
            hook.corrupt(&img.site, &mut img.clean);
            img
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticVision;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use crate::metrics;
    use crate::train::{TrainConfig, Trainer};
    use crate::Dataset;
    use eden_tensor::init::{seeded_rng, uniform};

    /// `net` post-training quantized at `precision`: a clone loaded with
    /// its clean weight images.
    fn quantized(net: &Network, precision: Precision) -> Network {
        let mut out = net.clone();
        out.load_clean_weights(&net.weight_images(precision));
        out
    }

    /// Corrupts `net`'s weights in place, loading its clean images at
    /// `precision` through `hook`.
    fn corrupt(net: &mut Network, precision: Precision, hook: &mut dyn FaultHook) {
        let images = corrupted_images(&net.weight_images(precision), hook);
        net.load_clean_weights(&images);
    }

    fn tiny_net(seed: u64) -> Network {
        let mut rng = seeded_rng(seed);
        let mut net = Network::new("tiny", &[1, 8, 8]);
        net.push(Conv2d::new("conv1", 1, 4, 3, 1, 1, &mut rng))
            .push(Relu::new("relu1"))
            .push(MaxPool2d::new("pool1", 2, 2))
            .push(Flatten::new("flatten"))
            .push(Dense::new("fc", 4 * 4 * 4, 3, &mut rng));
        net
    }

    #[test]
    fn forward_output_matches_declared_shapes() {
        let net = tiny_net(0);
        let x = Tensor::zeros(&[1, 8, 8]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[3]);
        assert_eq!(net.data_flow_shapes().last().unwrap(), &vec![3]);
    }

    #[test]
    fn backward_runs_end_to_end() {
        let mut net = tiny_net(1);
        let mut rng = seeded_rng(9);
        let x = uniform(&[1, 8, 8], -1.0, 1.0, &mut rng);
        let y = net.forward_train(&x);
        let d = net.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(d.shape(), &[1, 8, 8]);
    }

    #[test]
    fn data_sites_enumerate_weights_and_ifms() {
        let net = tiny_net(2);
        let sites = net.data_sites();
        // 5 layers → 5 IFMs; conv + dense have weights → 2 weight entries.
        assert_eq!(sites.len(), 7);
        let weights: Vec<_> = sites
            .iter()
            .filter(|s| s.site.kind == DataKind::Weight)
            .collect();
        assert_eq!(weights.len(), 2);
        assert_eq!(
            weights.iter().map(|w| w.elements).sum::<usize>(),
            net.param_count()
        );
        // First IFM is the network input.
        assert_eq!(sites[0].elements, 64);
    }

    #[test]
    fn weight_and_ifm_bytes_scale_with_precision() {
        let net = tiny_net(3);
        assert_eq!(
            net.weight_bytes(Precision::Fp32),
            4 * net.weight_bytes(Precision::Int8)
        );
        assert!(net.ifm_bytes(Precision::Int8) > 0);
    }

    #[test]
    fn int4_footprints_round_up_odd_tensors() {
        // Dense(3→1): weight has 3 elements (12 bits → 2 bytes), bias has 1
        // (4 bits → 1 byte). Truncating division reported 2 bytes total.
        let mut rng = seeded_rng(0);
        let mut net = Network::new("odd", &[3]);
        net.push(Dense::new("fc", 3, 1, &mut rng));
        assert_eq!(net.weight_bytes(Precision::Int4), 3);
        // IFM of the only layer: 3 int4 elements → 2 bytes.
        assert_eq!(net.ifm_bytes(Precision::Int4), 2);
        // DataTypeInfo::bytes rounds up the same way.
        let sites = net.data_sites();
        assert_eq!(sites[0].bytes(Precision::Int4), 2); // 3-element IFM
        assert_eq!(sites[1].bytes(Precision::Int4), 2); // 4 params
    }

    #[test]
    fn overlay_patching_matches_image_reload() {
        // The sparse refetch path: a persistent copy held at the clean
        // baseline, patched per draw, must track a full load of corrupted
        // images bit for bit — and revert must restore the exact baseline.
        let net = tiny_net(9);
        let images = net.weight_images(Precision::Int8);
        // Per-image overlays flipping a few scattered bits.
        let overlays: Vec<CorruptionOverlay> = images
            .iter()
            .map(|img| {
                let deltas: Vec<(u32, u32)> = (0..img.clean.len() as u32)
                    .step_by(5)
                    .map(|w| (w, 1 + (w % 7)))
                    .collect();
                let flips = deltas.iter().map(|&(_, m)| m.count_ones() as u64).sum();
                CorruptionOverlay::new(img.clean.len(), 8, deltas, flips, 0)
            })
            .collect();

        // Reference: full image reload through a hook applying the same
        // deltas.
        let mut cursor = 0usize;
        let mut reference = net.clone();
        reference.load_clean_weights(&corrupted_images(
            &images,
            &mut |_: &DataSite, q: &mut QuantTensor| {
                overlays[cursor].apply(q);
                cursor += 1;
            },
        ));

        let mut patched = net.clone();
        patched.load_clean_weights(&images);
        let baseline: Vec<Tensor> = {
            let mut out = Vec::new();
            patched.visit_params_ref(&mut |_, t| out.push(t.clone()));
            out
        };
        patched.apply_overlay(&images, &overlays);
        let x = Tensor::full(&[1, 8, 8], 0.3);
        assert_eq!(reference.forward(&x), patched.forward(&x));

        // Revert restores the clean baseline exactly; re-applying replays.
        patched.revert_overlay(&images, &overlays);
        let mut reverted = Vec::new();
        patched.visit_params_ref(&mut |_, t| reverted.push(t.clone()));
        assert_eq!(baseline, reverted);
        patched.apply_overlay(&images, &overlays);
        assert_eq!(reference.forward(&x), patched.forward(&x));
    }

    #[test]
    fn grads_round_trip_between_copies() {
        let mut a = tiny_net(4);
        let mut b = a.clone();
        let mut rng = seeded_rng(10);
        let x = uniform(&[1, 8, 8], -1.0, 1.0, &mut rng);
        let y = b.forward_train(&x);
        b.backward(&Tensor::full(y.shape(), 1.0));
        let grads = b.collect_grads();
        a.set_grads(&grads);
        assert_eq!(a.collect_grads(), grads);
    }

    #[test]
    fn corrupt_weights_changes_output() {
        let mut net = tiny_net(5);
        let mut rng = seeded_rng(11);
        let x = uniform(&[1, 8, 8], -1.0, 1.0, &mut rng);
        let clean = net.forward(&x);
        // Flip the MSB of every weight value — output must change.
        corrupt(
            &mut net,
            Precision::Int8,
            &mut |_: &DataSite, q: &mut QuantTensor| {
                for i in 0..q.len() {
                    q.flip_bit(i, 7);
                }
            },
        );
        let corrupted = net.forward(&x);
        assert_ne!(clean, corrupted);
    }

    #[test]
    fn ifm_hook_without_faults_matches_quantized_forward() {
        let net = tiny_net(6);
        let mut rng = seeded_rng(12);
        let x = uniform(&[1, 8, 8], -1.0, 1.0, &mut rng);
        let a = net.forward_with_ifm_hook(&x, Precision::Fp32, &mut crate::hooks::NoFaults);
        let b = net.forward(&x);
        // FP32 round-trip is lossless, so outputs are identical.
        assert_eq!(a, b);
    }

    #[test]
    fn cloned_network_is_independent() {
        let net = tiny_net(7);
        let mut copy = net.clone();
        corrupt(
            &mut copy,
            Precision::Int8,
            &mut |_: &DataSite, q: &mut QuantTensor| {
                for i in 0..q.len() {
                    q.flip_bit(i, 0);
                }
            },
        );
        let x = Tensor::full(&[1, 8, 8], 0.5);
        assert_ne!(net.forward(&x), copy.forward(&x));
    }

    fn small_conv_net(d: &SyntheticVision) -> Network {
        let spec = d.spec();
        let mut rng = seeded_rng(0);
        let mut net = Network::new("cnn", &spec.input_shape());
        net.push(Conv2d::new("conv", spec.channels, 6, 3, 1, 1, &mut rng))
            .push(Relu::new("relu"))
            .push(Flatten::new("flatten"))
            .push(Dense::new(
                "fc",
                6 * spec.height * spec.width,
                spec.num_classes,
                &mut rng,
            ));
        net
    }

    #[test]
    fn fp32_quantization_does_not_change_outputs() {
        let d = SyntheticVision::tiny(0);
        let net = small_conv_net(&d);
        let q = quantized(&net, Precision::Fp32);
        let x = &d.test()[0].0;
        assert_eq!(net.forward(x), q.forward(x));
    }

    #[test]
    fn int16_quantization_keeps_accuracy_int4_may_collapse() {
        let d = SyntheticVision::tiny(1);
        let mut net = small_conv_net(&d);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        });
        trainer.train(&mut net, &d);
        let base = metrics::accuracy(&net, d.test());
        let a16 = metrics::accuracy(&quantized(&net, Precision::Int16), d.test());
        let a4 = metrics::accuracy(&quantized(&net, Precision::Int4), d.test());
        assert!(
            a16 >= base - 0.1,
            "int16 accuracy {a16} dropped far below {base}"
        );
        // int4 is allowed to be worse (Table 2 shows collapse for some nets),
        // but it must still be a valid accuracy.
        assert!((0.0..=1.0).contains(&a4));
    }

    #[test]
    fn footprint_scales_linearly_with_precision() {
        let d = SyntheticVision::tiny(2);
        let net = small_conv_net(&d);
        let (f32_weights, f32_ifms) = (
            net.weight_bytes(Precision::Fp32),
            net.ifm_bytes(Precision::Fp32),
        );
        assert_eq!(f32_weights, 4 * net.weight_bytes(Precision::Int8));
        assert_eq!(f32_ifms, 4 * net.ifm_bytes(Precision::Int8));
        assert!(f32_weights + f32_ifms > 0);
    }
}
