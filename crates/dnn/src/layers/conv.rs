//! Standard and depthwise 2-D convolution layers.
//!
//! Both layers run their f32 convolutions on the register-tiled GEMM
//! kernel in `eden_tensor::ops`, sharing the matmul hot path with the dense
//! layers: the forward pass per sample as an implicit GEMM whose rhs panels
//! are gathered straight from the padded input
//! ([`eden_tensor::ops::conv2d`]), the backward pass through a patch
//! gather ([`eden_tensor::ops::conv2d_backward`]), which adds the
//! parameter gradients in place and whose working buffers come from the
//! [`ConvScratch`] the network passes to [`Layer::backward`]. A first
//! layer's [`Layer::backward_params`] stops before the input gradient.
//! Both are bit-identical to a direct loop nest. The standard layer's
//! quantized form packs a multi-sample integer patch matrix for one panel
//! GEMM per group ([`Layer::quant_forward_batch`]).

use crate::layer::{lane_as, Layer, ParamEntry};
use crate::qexec::{self, QuantLayerParams, QuantScratch};
use eden_tensor::ops::{self, Conv2dParams, ConvScratch, PanelLane};
use eden_tensor::{init, QuantTensor, Tensor};
use rand::rngs::StdRng;

/// A standard 2-D convolution layer, evaluated as one GEMM per sample.
///
/// Weights have shape `[out_channels, in_channels, kernel, kernel]`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    params: Conv2dParams,
    in_channels: usize,
    out_channels: usize,
    cache_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-uniform initialized weights.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Self {
            name: name.into(),
            weight: init::he_uniform(&[out_channels, in_channels, kernel, kernel], fan_in, rng),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(&[out_channels]),
            params: Conv2dParams::new(kernel, stride, padding),
            in_channels,
            out_channels,
            cache_input: None,
        }
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// The convolution geometry.
    pub fn conv_params(&self) -> Conv2dParams {
        self.params
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        ops::conv2d(input, &self.weight, &self.bias, self.params)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cache_input = Some(input.clone());
        ops::conv2d(input, &self.weight, &self.bias, self.params)
    }

    fn backward(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) -> Tensor {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward before forward_train");
        ops::conv2d_backward(
            input,
            &self.weight,
            d_out,
            self.params,
            self.grad_weight.data_mut(),
            self.grad_bias.data_mut(),
            scratch,
        )
    }

    /// Only the parameter half of [`Layer::backward`]: no input-gradient
    /// GEMM and no scatter.
    fn backward_params(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward before forward_train");
        ops::conv2d_param_grads(
            input,
            d_out,
            self.params,
            self.grad_weight.data_mut(),
            self.grad_bias.data_mut(),
            scratch,
        );
    }

    fn fold_lane(&mut self, lane: &dyn Layer) {
        let lane = lane_as::<Self>(lane);
        self.grad_weight.axpy(1.0, &lane.grad_weight);
        self.grad_bias.axpy(1.0, &lane.grad_bias);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        f(ParamEntry {
            name: "weight",
            value: &mut self.weight,
            grad: &mut self.grad_weight,
        });
        f(ParamEntry {
            name: "bias",
            value: &mut self.bias,
            grad: &mut self.grad_bias,
        });
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f("weight", &self.weight);
        f("bias", &self.bias);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![
            self.out_channels,
            self.params.out_size(input_shape[1]),
            self.params.out_size(input_shape[2]),
        ]
    }

    fn macs(&self, input_shape: &[usize]) -> u64 {
        let out = self.output_shape(input_shape);
        (out[1] * out[2]) as u64 * self.weight.len() as u64
    }

    fn supports_quant_forward(&self) -> bool {
        true
    }

    /// Quantized convolution, the integer mirror of
    /// [`eden_tensor::ops::conv2d`]: patch-major integer im2col straight from
    /// the stored bits into `(ky, kx, ic)`-ordered panel rows (the lane order
    /// of the packed weights), one panel GEMM with exact
    /// accumulation whose rhs packs every sample's patch rows, then one fused
    /// `bias + acc · s_w·s_x` epilogue with each sample's own scale.
    fn quant_forward_batch(
        &self,
        inputs: &[&QuantTensor],
        params: &QuantLayerParams,
        scratch: &mut QuantScratch,
    ) -> Option<Vec<Tensor>> {
        let first = inputs.first()?;
        let shape = first.shape().to_vec();
        assert_eq!(
            shape.len(),
            3,
            "conv quant_forward_batch input must be [c, h, w]"
        );
        assert!(
            inputs
                .iter()
                .all(|q| q.shape() == shape && q.precision() == first.precision()),
            "conv quant_forward_batch requires uniform sample geometry"
        );
        let (in_c, h, w) = (shape[0], shape[1], shape[2]);
        assert_eq!(
            in_c, self.in_channels,
            "conv quant_forward_batch channel mismatch"
        );
        let p = self.params;
        let (oh, ow) = (p.out_size(h), p.out_size(w));
        let (ohw, ck) = (oh * ow, in_c * p.kernel * p.kernel);
        let precision = first.precision();
        let n = inputs.len() * ohw;
        // The scratch matrices grow once to the batch-wide size here and are
        // reused across layers and groups from then on — never reallocated
        // inside the layer loop.
        if qexec::use_i8_kernels_for(precision, ck) {
            pack_patches(inputs, p, ck, ohw, &mut scratch.vals8, &mut scratch.cols8);
        } else {
            pack_patches(inputs, p, ck, ohw, &mut scratch.vals16, &mut scratch.cols16);
        }
        let scales: Vec<f32> = inputs
            .iter()
            .map(|q| params.weight_scale * q.scale())
            .collect();
        // The GEMM output lives in the shared scratch too (the epilogue
        // fully overwrites it, so stale contents are irrelevant).
        let mut y = std::mem::take(&mut scratch.ybatch);
        y.resize(self.out_channels * n, 0.0);
        qexec::quant_gemm_bias_batch_into(
            self.out_channels,
            ck,
            ohw,
            params,
            scratch,
            precision,
            &scales,
            &params.bias,
            &mut y,
        );
        let out = (0..inputs.len())
            .map(|j| {
                let mut s = Vec::with_capacity(self.out_channels * ohw);
                for oc in 0..self.out_channels {
                    s.extend_from_slice(&y[oc * n + j * ohw..oc * n + (j + 1) * ohw]);
                }
                Tensor::from_vec(s, &[self.out_channels, oh, ow])
            })
            .collect();
        scratch.ybatch = y;
        Some(out)
    }
}

/// Packs every sample's `[ohw, ck]` patch rows at the `T` panel stride, zero
/// pad lanes, back to back into `cols` — the rhs of a packed panel GEMM. The
/// packer writes every lane, so stale contents of `cols` are never read.
fn pack_patches<T: PanelLane>(
    inputs: &[&QuantTensor],
    p: Conv2dParams,
    ck: usize,
    ohw: usize,
    vals: &mut Vec<T>,
    cols: &mut Vec<T>,
) {
    let ck_pad = T::packed_stride(ck);
    cols.resize(inputs.len() * ohw * ck_pad, T::default());
    for (q, rows) in inputs.iter().zip(cols.chunks_exact_mut(ohw * ck_pad)) {
        let s = q.shape();
        ops::im2col_t_stored_strided(
            q.stored(),
            q.bits_per_value(),
            s[0],
            s[1],
            s[2],
            p,
            ck_pad,
            vals,
            rows,
        );
    }
}

/// A depthwise 2-D convolution: each input channel is convolved with its own
/// single-channel kernel (groups = channels), as used by MobileNet-style
/// depthwise-separable blocks.
///
/// Weights have shape `[channels, 1, kernel, kernel]`.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    name: String,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    params: Conv2dParams,
    channels: usize,
    cache_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution layer.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = kernel * kernel;
        Self {
            name: name.into(),
            weight: init::he_uniform(&[channels, 1, kernel, kernel], fan_in, rng),
            bias: Tensor::zeros(&[channels]),
            grad_weight: Tensor::zeros(&[channels, 1, kernel, kernel]),
            grad_bias: Tensor::zeros(&[channels]),
            params: Conv2dParams::new(kernel, stride, padding),
            channels,
            cache_input: None,
        }
    }

    fn channel_slice(t: &Tensor, c: usize) -> Tensor {
        let (h, w) = (t.shape()[1], t.shape()[2]);
        let data = t.data()[c * h * w..(c + 1) * h * w].to_vec();
        Tensor::from_vec(data, &[1, h, w])
    }

    fn kernel_slice(&self, c: usize) -> Tensor {
        let k = self.params.kernel;
        let data = self.weight.data()[c * k * k..(c + 1) * k * k].to_vec();
        Tensor::from_vec(data, &[1, 1, k, k])
    }

    fn apply(&self, input: &Tensor) -> Tensor {
        let mut per_channel = Vec::with_capacity(self.channels);
        for c in 0..self.channels {
            let x = Self::channel_slice(input, c);
            let w = self.kernel_slice(c);
            let b = Tensor::from_vec(vec![self.bias.data()[c]], &[1]);
            per_channel.push(ops::conv2d(&x, &w, &b, self.params));
        }
        concat_channels(&per_channel)
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        self.apply(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cache_input = Some(input.clone());
        self.apply(input)
    }

    fn backward(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) -> Tensor {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward before forward_train");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let k = self.params.kernel;
        let mut d_in = Vec::with_capacity(self.channels);
        for c in 0..self.channels {
            let x = Self::channel_slice(input, c);
            let wt = self.kernel_slice(c);
            let d_c = Self::channel_slice(d_out, c);
            d_in.push(ops::conv2d_backward(
                &x,
                &wt,
                &d_c,
                self.params,
                &mut self.grad_weight.data_mut()[c * k * k..(c + 1) * k * k],
                &mut self.grad_bias.data_mut()[c..c + 1],
                scratch,
            ));
        }
        let out = concat_channels(&d_in);
        out.reshape(&[self.channels, h, w])
    }

    fn fold_lane(&mut self, lane: &dyn Layer) {
        let lane = lane_as::<Self>(lane);
        self.grad_weight.axpy(1.0, &lane.grad_weight);
        self.grad_bias.axpy(1.0, &lane.grad_bias);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        f(ParamEntry {
            name: "weight",
            value: &mut self.weight,
            grad: &mut self.grad_weight,
        });
        f(ParamEntry {
            name: "bias",
            value: &mut self.bias,
            grad: &mut self.grad_bias,
        });
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f("weight", &self.weight);
        f("bias", &self.bias);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![
            self.channels,
            self.params.out_size(input_shape[1]),
            self.params.out_size(input_shape[2]),
        ]
    }

    fn macs(&self, input_shape: &[usize]) -> u64 {
        let out = self.output_shape(input_shape);
        (out[1] * out[2]) as u64 * self.weight.len() as u64
    }
}

/// Concatenates `[c_i, h, w]` tensors along the channel dimension.
///
/// # Panics
///
/// Panics if the spatial dimensions differ or `parts` is empty.
pub fn concat_channels(parts: &[Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "cannot concat zero tensors");
    let (h, w) = (parts[0].shape()[1], parts[0].shape()[2]);
    let total_c: usize = parts.iter().map(|p| p.shape()[0]).sum();
    let mut data = Vec::with_capacity(total_c * h * w);
    for p in parts {
        assert_eq!(p.shape()[1], h, "concat height mismatch");
        assert_eq!(p.shape()[2], w, "concat width mismatch");
        data.extend_from_slice(p.data());
    }
    Tensor::from_vec(data, &[total_c, h, w])
}

/// Splits a `[c, h, w]` tensor into chunks with the given channel counts
/// (inverse of [`concat_channels`]).
pub fn split_channels(t: &Tensor, channel_counts: &[usize]) -> Vec<Tensor> {
    let (h, w) = (t.shape()[1], t.shape()[2]);
    let mut out = Vec::with_capacity(channel_counts.len());
    let mut offset = 0;
    for &c in channel_counts {
        let data = t.data()[offset * h * w..(offset + c) * h * w].to_vec();
        out.push(Tensor::from_vec(data, &[c, h, w]));
        offset += c;
    }
    assert_eq!(
        offset,
        t.shape()[0],
        "split channel counts do not cover tensor"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_tensor::init::seeded_rng;

    #[test]
    fn conv_output_shape_matches_forward() {
        let mut rng = seeded_rng(0);
        let l = Conv2d::new("c", 3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[3, 16, 16]);
        assert_eq!(
            l.forward(&x).shape(),
            l.output_shape(&[3, 16, 16]).as_slice()
        );
        assert_eq!(l.forward(&x).shape(), &[8, 16, 16]);
    }

    #[test]
    fn conv_stride_halves_resolution() {
        let mut rng = seeded_rng(0);
        let l = Conv2d::new("c", 3, 4, 3, 2, 1, &mut rng);
        assert_eq!(l.output_shape(&[3, 16, 16]), vec![4, 8, 8]);
    }

    #[test]
    fn conv_backward_accumulates_grads() {
        let mut rng = seeded_rng(5);
        let mut l = Conv2d::new("c", 1, 2, 3, 1, 1, &mut rng);
        let x = init::uniform(&[1, 5, 5], -1.0, 1.0, &mut rng);
        let y = l.forward_train(&x);
        let d = Tensor::full(y.shape(), 1.0);
        let d_in = l.backward(&d, &mut Default::default());
        assert_eq!(d_in.shape(), x.shape());
        let mut nonzero = false;
        l.visit_params(&mut |p| {
            if p.grad.abs_max() > 0.0 {
                nonzero = true;
            }
        });
        assert!(nonzero);
    }

    #[test]
    fn depthwise_preserves_channel_count() {
        let mut rng = seeded_rng(0);
        let l = DepthwiseConv2d::new("dw", 4, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[4, 8, 8]);
        assert_eq!(l.forward(&x).shape(), &[4, 8, 8]);
        assert_eq!(l.param_count(), 4 * 9 + 4);
    }

    #[test]
    fn depthwise_channels_are_independent() {
        let mut rng = seeded_rng(1);
        let l = DepthwiseConv2d::new("dw", 2, 3, 1, 1, &mut rng);
        // Input with energy only in channel 0 produces output only in channel 0.
        let mut data = vec![0.0f32; 2 * 4 * 4];
        for v in &mut data[0..16] {
            *v = 1.0;
        }
        let x = Tensor::from_vec(data, &[2, 4, 4]);
        let y = l.forward(&x);
        let ch1: f32 = y.data()[16..32].iter().map(|v| v.abs()).sum();
        assert_eq!(ch1, 0.0);
    }

    #[test]
    fn depthwise_backward_shapes() {
        let mut rng = seeded_rng(2);
        let mut l = DepthwiseConv2d::new("dw", 3, 3, 1, 1, &mut rng);
        let x = init::uniform(&[3, 6, 6], -1.0, 1.0, &mut rng);
        let y = l.forward_train(&x);
        let d_in = l.backward(&Tensor::full(y.shape(), 0.5), &mut Default::default());
        assert_eq!(d_in.shape(), &[3, 6, 6]);
    }

    #[test]
    fn concat_split_round_trip() {
        let a = Tensor::full(&[2, 3, 3], 1.0);
        let b = Tensor::full(&[1, 3, 3], 2.0);
        let c = concat_channels(&[a.clone(), b.clone()]);
        assert_eq!(c.shape(), &[3, 3, 3]);
        let parts = split_channels(&c, &[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }
}
