//! The [`Layer`] trait implemented by all network building blocks.

use crate::qexec::{QuantLayerParams, QuantScratch};
use eden_tensor::ops::ConvScratch;
use eden_tensor::{QuantTensor, Tensor};
use std::any::Any;

/// A named, mutable view of a layer parameter and its accumulated gradient.
pub struct ParamEntry<'a> {
    /// Parameter name, unique within the layer (e.g. `"weight"`, `"bias"`).
    pub name: &'a str,
    /// The parameter tensor.
    pub value: &'a mut Tensor,
    /// The gradient accumulated by the most recent backward pass(es).
    pub grad: &'a mut Tensor,
}

/// A neural-network layer.
///
/// Layers operate on single samples in `[channels, height, width]` layout for
/// spatial layers or `[features]` for dense layers. Each layer supports:
///
/// * a **pure forward pass** ([`Layer::forward`]) used for inference, with
///   an optional multi-sample form ([`Layer::forward_batch`]),
/// * a **training forward pass** ([`Layer::forward_train`]) that caches the
///   intermediates of *one* sample for [`Layer::backward`],
/// * a **backward pass** that accumulates that sample's parameter gradients
///   and returns the gradient with respect to the layer input, and
/// * a **lane fold** ([`Layer::fold_lane`]) that replays the gradient (and
///   running-statistic) updates of one sample run on a replica of the layer.
///
/// Minibatches are trained data-parallel by
/// [`crate::train::minibatch_step`]: each sample runs `forward_train` +
/// `backward` (`backward_params` for the first layer) on a *lane replica*
/// of the network, and the master folds the lanes in sample order — bit-identical to running every sample on the
/// master in turn.
///
/// Layers are `Send + Sync`: the batch-parallel inference engine shares one
/// `&Network` across worker threads, each running independent pure forward
/// passes.
pub trait Layer: LayerClone + Send + Sync {
    /// Human-readable layer name (unique within a network, e.g. `"conv1"`).
    fn name(&self) -> &str;

    /// Pure inference forward pass.
    fn forward(&self, input: &Tensor) -> Tensor;

    /// Training forward pass; caches intermediates for [`Layer::backward`].
    fn forward_train(&mut self, input: &Tensor) -> Tensor;

    /// Backward pass for the sample of the most recent
    /// [`Layer::forward_train`] call: adds the sample's parameter gradients
    /// onto the accumulated ones (so a minibatch accumulates by calling
    /// `forward_train` + `backward` once per sample) and returns the
    /// gradient with respect to the layer input. `scratch` holds the
    /// working buffers of the convolution backward pass, shared by every
    /// layer of one pass (composite blocks hand it to their children);
    /// its contents never influence a result.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding
    /// [`Layer::forward_train`].
    fn backward(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) -> Tensor;

    /// [`Layer::backward`] for a network's first layer, whose input
    /// gradient nobody reads: adds the same parameter gradients, bit for
    /// bit, and returns nothing. The default runs `backward` and drops its
    /// result; a layer whose input gradient costs real work (a convolution)
    /// overrides it to skip that work.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) {
        self.backward(d_out, scratch);
    }

    /// Folds one sample's training updates from `lane` — a replica of this
    /// layer (same type and structure) that ran `zero_grads`,
    /// `forward_train` and `backward` (or `backward_params`) on that
    /// sample — into this layer,
    /// leaving it bit-identical to having run the sample itself.
    ///
    /// Folding the lanes of a minibatch **in sample order** therefore
    /// reproduces the sequential per-sample loop exactly. How a layer folds
    /// depends on how its `backward` accumulates:
    ///
    /// * **Separable** layers (convolutions, dense) add exactly one term per
    ///   gradient element per sample, so the fold is `grad += lane.grad`.
    ///   The lane's gradient is `+0 + term`, and a master gradient that
    ///   starts at `+0` can never become `−0`, so adding it is exact.
    /// * **Chained** layers (channel normalization) accumulate many terms per
    ///   gradient element per sample and update running statistics once per
    ///   sample; their lanes cache the per-sample intermediates and the fold
    ///   replays both chains in order.
    /// * **Composite** blocks recurse into their children.
    ///
    /// The default suits parameterless layers: there is nothing to fold.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a replica of this layer, or (the default) if
    /// the layer has parameters but does not implement the fold.
    fn fold_lane(&mut self, lane: &dyn Layer) {
        let _ = lane;
        assert_eq!(
            self.param_count(),
            0,
            "layer {} has parameters and must implement fold_lane",
            self.name()
        );
    }

    /// Visits every trainable parameter (and its gradient) of this layer.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>));

    /// Visits every trainable parameter immutably.
    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor));

    /// Resets all accumulated gradients to zero.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| {
            for g in p.grad.data_mut() {
                *g = 0.0;
            }
        });
    }

    /// Output shape for a given input shape. Used to pre-compute data-type
    /// sizes for DNN→DRAM mapping without running inference.
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |_, t| n += t.len());
        n
    }

    /// Whether this layer implements [`Layer::quant_forward_batch`]. Layers
    /// that return `true` must have exactly a `weight` and a `bias`
    /// parameter (in visit order) and must return `Some` from
    /// `quant_forward_batch`.
    fn supports_quant_forward(&self) -> bool {
        false
    }

    /// Batched pure forward pass over a group of same-shape samples: **one**
    /// GEMM whose B matrix holds the whole batch of activation columns
    /// (weight-stationary dataflow — the layer's weights stream through the
    /// cache once per batch instead of once per sample). The dense layer
    /// implements it; convolutions run per sample, where the implicit GEMM
    /// of [`eden_tensor::ops::conv2d`] reads the input in place instead of
    /// packing a batch-wide patch matrix.
    ///
    /// Implementations must be **bit-identical** to calling
    /// [`Layer::forward`] on each input independently: the f32 GEMM keeps
    /// each output element's k-ascending accumulation chain, which packing
    /// extra columns never reorders. The default returns `None` and the
    /// executor falls back to per-sample [`Layer::forward`] calls.
    fn forward_batch(&self, inputs: &[&Tensor]) -> Option<Vec<Tensor>> {
        let _ = inputs;
        None
    }

    /// Native quantized forward pass over a group of samples sharing the
    /// layer's corrupted quantized parameters: consumes each sample's
    /// (corrupted) quantized input activations and produces its f32 output
    /// via exact integer accumulation, without dequantizing the inputs — one
    /// integer GEMM over a packed multi-sample patch matrix, with each
    /// sample's own quantization scale applied in the per-column epilogue.
    /// Integer accumulation is exact and the f32 epilogue element-wise, so
    /// each sample's output is independent of the group it runs in (a single
    /// sample is a group of one). The default returns `None`; the executor
    /// only calls this on layers that advertise
    /// [`Layer::supports_quant_forward`].
    fn quant_forward_batch(
        &self,
        inputs: &[&QuantTensor],
        params: &QuantLayerParams,
        scratch: &mut QuantScratch,
    ) -> Option<Vec<Tensor>> {
        let _ = (inputs, params, scratch);
        None
    }

    /// Quantized-domain forward for parameterless layers whose f32 forward
    /// **commutes exactly with dequantization** — order-preserving maps
    /// (ReLU, max pooling: dequantization is monotone, so integer and float
    /// comparisons select the same values) and pure reshapes (flatten).
    /// Consumes the corrupted quantized input and produces the f32 output
    /// directly, bit-identical to `self.forward(&input.dequantize())` in a
    /// single pass. Layers without such an implementation return `None`.
    fn quant_forward_activation(&self, input: &QuantTensor) -> Option<Tensor> {
        let _ = input;
        None
    }

    /// Approximate number of multiply-accumulate operations needed to
    /// evaluate this layer on one sample with the given input shape. Used by
    /// the system-level simulators to estimate compute time.
    ///
    /// The default (one MAC per parameter) is correct for dense layers and a
    /// lower bound for everything else; convolutional layers override it.
    fn macs(&self, _input_shape: &[usize]) -> u64 {
        self.param_count() as u64
    }
}

/// Object-safe cloning and downcasting support for boxed layers.
pub trait LayerClone {
    /// Clones the layer into a new box.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// The layer as [`Any`], so [`Layer::fold_lane`] can recover its lane's
    /// concrete type.
    fn as_any(&self) -> &dyn Any;
}

impl<T> LayerClone for T
where
    T: 'static + Layer + Clone,
{
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `lane` as the concrete layer type `T` of the layer folding it.
///
/// # Panics
///
/// Panics if `lane` is not a `T`.
pub(crate) fn lane_as<T: 'static>(lane: &dyn Layer) -> &T {
    lane.as_any()
        .downcast_ref()
        .expect("fold_lane: the lane is not a replica of this layer")
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
