//! Composite blocks used by the model zoo.
//!
//! Each block is a [`Layer`] built out of the primitive layers, mirroring the
//! structural motifs of the paper's evaluated networks: residual blocks
//! (ResNet101), fire modules (SqueezeNet1.1), depthwise-separable blocks
//! (MobileNetV2) and densely-connected blocks (DenseNet201).

use crate::layer::{lane_as, Layer, ParamEntry};
use crate::layers::basic::Relu;
use crate::layers::conv::{concat_channels, split_channels, Conv2d, DepthwiseConv2d};
use crate::layers::norm::ChannelNorm;
use eden_tensor::ops::ConvScratch;
use eden_tensor::Tensor;
use rand::rngs::StdRng;

/// A ResNet-style residual block: two 3×3 convolutions with a (possibly
/// projected) skip connection and a final ReLU.
#[derive(Clone)]
pub struct Residual {
    name: String,
    conv1: Conv2d,
    norm1: ChannelNorm,
    relu1: Relu,
    conv2: Conv2d,
    norm2: ChannelNorm,
    projection: Option<Conv2d>,
    cache_pre_activation: Option<Tensor>,
}

impl Residual {
    /// Creates a residual block mapping `in_channels` to `out_channels` with
    /// the given stride. A 1×1 projection is added to the shortcut when the
    /// shapes differ.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        let projection = if in_channels != out_channels || stride != 1 {
            Some(Conv2d::new(
                format!("{name}.proj"),
                in_channels,
                out_channels,
                1,
                stride,
                0,
                rng,
            ))
        } else {
            None
        };
        Self {
            conv1: Conv2d::new(
                format!("{name}.conv1"),
                in_channels,
                out_channels,
                3,
                stride,
                1,
                rng,
            ),
            norm1: ChannelNorm::new(format!("{name}.norm1"), out_channels),
            relu1: Relu::new(format!("{name}.relu1")),
            conv2: Conv2d::new(
                format!("{name}.conv2"),
                out_channels,
                out_channels,
                3,
                1,
                1,
                rng,
            ),
            norm2: ChannelNorm::new(format!("{name}.norm2"), out_channels),
            projection,
            cache_pre_activation: None,
            name,
        }
    }

    fn main_path(&self, input: &Tensor) -> Tensor {
        let x = self.conv1.forward(input);
        let x = self.norm1.forward(&x);
        let x = self.relu1.forward(&x);
        let x = self.conv2.forward(&x);
        self.norm2.forward(&x)
    }

    fn shortcut(&self, input: &Tensor) -> Tensor {
        match &self.projection {
            Some(p) => p.forward(input),
            None => input.clone(),
        }
    }
}

impl Layer for Residual {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        let main = self.main_path(input);
        let short = self.shortcut(input);
        eden_tensor::ops::relu(&main.add(&short))
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let x = self.conv1.forward_train(input);
        let x = self.norm1.forward_train(&x);
        let x = self.relu1.forward_train(&x);
        let x = self.conv2.forward_train(&x);
        let main = self.norm2.forward_train(&x);
        let short = match &mut self.projection {
            Some(p) => p.forward_train(input),
            None => input.clone(),
        };
        let pre = main.add(&short);
        self.cache_pre_activation = Some(pre.clone());
        eden_tensor::ops::relu(&pre)
    }

    fn backward(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) -> Tensor {
        let pre = self
            .cache_pre_activation
            .as_ref()
            .expect("backward before forward_train");
        let d_pre = eden_tensor::ops::relu_backward(pre, d_out);
        // Main path.
        let d = self.norm2.backward(&d_pre, scratch);
        let d = self.conv2.backward(&d, scratch);
        let d = self.relu1.backward(&d, scratch);
        let d = self.norm1.backward(&d, scratch);
        let d_main_input = self.conv1.backward(&d, scratch);
        // Shortcut path.
        let d_short_input = match &mut self.projection {
            Some(p) => p.backward(&d_pre, scratch),
            None => d_pre,
        };
        d_main_input.add(&d_short_input)
    }

    fn fold_lane(&mut self, lane: &dyn Layer) {
        let lane = lane_as::<Self>(lane);
        self.conv1.fold_lane(&lane.conv1);
        self.norm1.fold_lane(&lane.norm1);
        self.conv2.fold_lane(&lane.conv2);
        self.norm2.fold_lane(&lane.norm2);
        if let (Some(p), Some(lane_p)) = (&mut self.projection, &lane.projection) {
            p.fold_lane(lane_p);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        self.conv1.visit_params(f);
        self.norm1.visit_params(f);
        self.conv2.visit_params(f);
        self.norm2.visit_params(f);
        if let Some(p) = &mut self.projection {
            p.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.conv1.visit_params_ref(f);
        self.norm1.visit_params_ref(f);
        self.conv2.visit_params_ref(f);
        self.norm2.visit_params_ref(f);
        if let Some(p) = &self.projection {
            p.visit_params_ref(f);
        }
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        self.conv1.output_shape(input_shape)
    }

    fn macs(&self, input_shape: &[usize]) -> u64 {
        let mid = self.conv1.output_shape(input_shape);
        let proj = self
            .projection
            .as_ref()
            .map(|p| p.macs(input_shape))
            .unwrap_or(0);
        self.conv1.macs(input_shape) + self.conv2.macs(&mid) + proj
    }
}

/// A SqueezeNet fire module: a 1×1 squeeze convolution followed by parallel
/// 1×1 and 3×3 expand convolutions whose outputs are concatenated.
#[derive(Clone)]
pub struct Fire {
    name: String,
    squeeze: Conv2d,
    relu_s: Relu,
    expand1: Conv2d,
    relu_e1: Relu,
    expand3: Conv2d,
    relu_e3: Relu,
    expand_channels: usize,
}

impl Fire {
    /// Creates a fire module producing `2 * expand_channels` output channels.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        squeeze_channels: usize,
        expand_channels: usize,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        Self {
            squeeze: Conv2d::new(
                format!("{name}.squeeze"),
                in_channels,
                squeeze_channels,
                1,
                1,
                0,
                rng,
            ),
            relu_s: Relu::new(format!("{name}.relu_s")),
            expand1: Conv2d::new(
                format!("{name}.expand1"),
                squeeze_channels,
                expand_channels,
                1,
                1,
                0,
                rng,
            ),
            relu_e1: Relu::new(format!("{name}.relu_e1")),
            expand3: Conv2d::new(
                format!("{name}.expand3"),
                squeeze_channels,
                expand_channels,
                3,
                1,
                1,
                rng,
            ),
            relu_e3: Relu::new(format!("{name}.relu_e3")),
            expand_channels,
            name,
        }
    }
}

impl Layer for Fire {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        let s = self.relu_s.forward(&self.squeeze.forward(input));
        let e1 = self.relu_e1.forward(&self.expand1.forward(&s));
        let e3 = self.relu_e3.forward(&self.expand3.forward(&s));
        concat_channels(&[e1, e3])
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let s = self
            .relu_s
            .forward_train(&self.squeeze.forward_train(input));
        let e1 = self.relu_e1.forward_train(&self.expand1.forward_train(&s));
        let e3 = self.relu_e3.forward_train(&self.expand3.forward_train(&s));
        concat_channels(&[e1, e3])
    }

    fn backward(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) -> Tensor {
        let parts = split_channels(d_out, &[self.expand_channels, self.expand_channels]);
        let d_e1 = self
            .expand1
            .backward(&self.relu_e1.backward(&parts[0], scratch), scratch);
        let d_e3 = self
            .expand3
            .backward(&self.relu_e3.backward(&parts[1], scratch), scratch);
        let d_s = d_e1.add(&d_e3);
        self.squeeze
            .backward(&self.relu_s.backward(&d_s, scratch), scratch)
    }

    fn fold_lane(&mut self, lane: &dyn Layer) {
        let lane = lane_as::<Self>(lane);
        self.squeeze.fold_lane(&lane.squeeze);
        self.expand1.fold_lane(&lane.expand1);
        self.expand3.fold_lane(&lane.expand3);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        self.squeeze.visit_params(f);
        self.expand1.visit_params(f);
        self.expand3.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.squeeze.visit_params_ref(f);
        self.expand1.visit_params_ref(f);
        self.expand3.visit_params_ref(f);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![2 * self.expand_channels, input_shape[1], input_shape[2]]
    }

    fn macs(&self, input_shape: &[usize]) -> u64 {
        let squeezed = self.squeeze.output_shape(input_shape);
        self.squeeze.macs(input_shape) + self.expand1.macs(&squeezed) + self.expand3.macs(&squeezed)
    }
}

/// A MobileNet-style depthwise-separable block: depthwise 3×3 convolution,
/// normalization, ReLU, pointwise 1×1 convolution, normalization, ReLU.
#[derive(Clone)]
pub struct DepthwiseSeparable {
    name: String,
    depthwise: DepthwiseConv2d,
    norm1: ChannelNorm,
    relu1: Relu,
    pointwise: Conv2d,
    norm2: ChannelNorm,
    relu2: Relu,
}

impl DepthwiseSeparable {
    /// Creates a depthwise-separable block mapping `in_channels` to
    /// `out_channels` with the given stride on the depthwise convolution.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        Self {
            depthwise: DepthwiseConv2d::new(format!("{name}.dw"), in_channels, 3, stride, 1, rng),
            norm1: ChannelNorm::new(format!("{name}.norm1"), in_channels),
            relu1: Relu::new(format!("{name}.relu1")),
            pointwise: Conv2d::new(
                format!("{name}.pw"),
                in_channels,
                out_channels,
                1,
                1,
                0,
                rng,
            ),
            norm2: ChannelNorm::new(format!("{name}.norm2"), out_channels),
            relu2: Relu::new(format!("{name}.relu2")),
            name,
        }
    }
}

impl Layer for DepthwiseSeparable {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        let x = self.depthwise.forward(input);
        let x = self.norm1.forward(&x);
        let x = self.relu1.forward(&x);
        let x = self.pointwise.forward(&x);
        let x = self.norm2.forward(&x);
        self.relu2.forward(&x)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let x = self.depthwise.forward_train(input);
        let x = self.norm1.forward_train(&x);
        let x = self.relu1.forward_train(&x);
        let x = self.pointwise.forward_train(&x);
        let x = self.norm2.forward_train(&x);
        self.relu2.forward_train(&x)
    }

    fn backward(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) -> Tensor {
        let d = self.relu2.backward(d_out, scratch);
        let d = self.norm2.backward(&d, scratch);
        let d = self.pointwise.backward(&d, scratch);
        let d = self.relu1.backward(&d, scratch);
        let d = self.norm1.backward(&d, scratch);
        self.depthwise.backward(&d, scratch)
    }

    fn fold_lane(&mut self, lane: &dyn Layer) {
        let lane = lane_as::<Self>(lane);
        self.depthwise.fold_lane(&lane.depthwise);
        self.norm1.fold_lane(&lane.norm1);
        self.pointwise.fold_lane(&lane.pointwise);
        self.norm2.fold_lane(&lane.norm2);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        self.depthwise.visit_params(f);
        self.norm1.visit_params(f);
        self.pointwise.visit_params(f);
        self.norm2.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.depthwise.visit_params_ref(f);
        self.norm1.visit_params_ref(f);
        self.pointwise.visit_params_ref(f);
        self.norm2.visit_params_ref(f);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let dw = self.depthwise.output_shape(input_shape);
        self.pointwise.output_shape(&dw)
    }

    fn macs(&self, input_shape: &[usize]) -> u64 {
        let dw = self.depthwise.output_shape(input_shape);
        self.depthwise.macs(input_shape) + self.pointwise.macs(&dw)
    }
}

/// A DenseNet-style densely-connected block: a 3×3 convolution producing
/// `growth` new channels that are concatenated onto the input.
#[derive(Clone)]
pub struct DenseBlock {
    name: String,
    conv: Conv2d,
    relu: Relu,
    in_channels: usize,
    growth: usize,
}

impl DenseBlock {
    /// Creates a densely-connected block; the output has
    /// `in_channels + growth` channels.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        growth: usize,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        Self {
            conv: Conv2d::new(format!("{name}.conv"), in_channels, growth, 3, 1, 1, rng),
            relu: Relu::new(format!("{name}.relu")),
            in_channels,
            growth,
            name,
        }
    }
}

impl Layer for DenseBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        let new = self.relu.forward(&self.conv.forward(input));
        concat_channels(&[input.clone(), new])
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let new = self.relu.forward_train(&self.conv.forward_train(input));
        concat_channels(&[input.clone(), new])
    }

    fn backward(&mut self, d_out: &Tensor, scratch: &mut ConvScratch) -> Tensor {
        let parts = split_channels(d_out, &[self.in_channels, self.growth]);
        let d_new = self
            .conv
            .backward(&self.relu.backward(&parts[1], scratch), scratch);
        parts[0].add(&d_new)
    }

    fn fold_lane(&mut self, lane: &dyn Layer) {
        self.conv.fold_lane(&lane_as::<Self>(lane).conv);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        self.conv.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.conv.visit_params_ref(f);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![
            self.in_channels + self.growth,
            input_shape[1],
            input_shape[2],
        ]
    }

    fn macs(&self, input_shape: &[usize]) -> u64 {
        self.conv.macs(input_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_tensor::init::{seeded_rng, uniform};

    #[test]
    fn residual_identity_shortcut_shapes() {
        let mut rng = seeded_rng(0);
        let b = Residual::new("res", 8, 8, 1, &mut rng);
        let x = Tensor::zeros(&[8, 8, 8]);
        assert_eq!(b.forward(&x).shape(), &[8, 8, 8]);
    }

    #[test]
    fn residual_projection_shortcut_shapes() {
        let mut rng = seeded_rng(0);
        let b = Residual::new("res", 4, 8, 2, &mut rng);
        let x = Tensor::zeros(&[4, 8, 8]);
        assert_eq!(b.forward(&x).shape(), &[8, 4, 4]);
        assert_eq!(b.output_shape(&[4, 8, 8]), vec![8, 4, 4]);
    }

    #[test]
    fn residual_backward_produces_input_shaped_gradient() {
        let mut rng = seeded_rng(1);
        let mut b = Residual::new("res", 3, 6, 2, &mut rng);
        let x = uniform(&[3, 8, 8], -1.0, 1.0, &mut rng);
        let y = b.forward_train(&x);
        let d = b.backward(&Tensor::full(y.shape(), 1.0), &mut Default::default());
        assert_eq!(d.shape(), x.shape());
        assert!(d.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fire_doubles_expand_channels() {
        let mut rng = seeded_rng(2);
        let b = Fire::new("fire", 8, 4, 8, &mut rng);
        let x = Tensor::zeros(&[8, 6, 6]);
        assert_eq!(b.forward(&x).shape(), &[16, 6, 6]);
    }

    #[test]
    fn fire_backward_gradient_shape() {
        let mut rng = seeded_rng(3);
        let mut b = Fire::new("fire", 4, 2, 4, &mut rng);
        let x = uniform(&[4, 6, 6], -1.0, 1.0, &mut rng);
        let y = b.forward_train(&x);
        let d = b.backward(&Tensor::full(y.shape(), 0.1), &mut Default::default());
        assert_eq!(d.shape(), x.shape());
    }

    #[test]
    fn depthwise_separable_shapes_and_params() {
        let mut rng = seeded_rng(4);
        let b = DepthwiseSeparable::new("ds", 8, 16, 2, &mut rng);
        assert_eq!(b.output_shape(&[8, 8, 8]), vec![16, 4, 4]);
        // Depthwise-separable should have fewer params than a full 3x3 conv
        // with the same channel mapping.
        let full_conv_params = 16 * 8 * 9 + 16;
        assert!(b.param_count() < full_conv_params);
    }

    #[test]
    fn dense_block_concatenates_input() {
        let mut rng = seeded_rng(5);
        let mut b = DenseBlock::new("dense", 4, 6, &mut rng);
        let x = uniform(&[4, 5, 5], -1.0, 1.0, &mut rng);
        let y = b.forward_train(&x);
        assert_eq!(y.shape(), &[10, 5, 5]);
        // The first 4 channels of the output are exactly the input.
        assert_eq!(&y.data()[0..4 * 25], x.data());
        let d = b.backward(&Tensor::full(&[10, 5, 5], 1.0), &mut Default::default());
        assert_eq!(d.shape(), x.shape());
    }

    #[test]
    fn block_params_are_visited() {
        let mut rng = seeded_rng(6);
        let mut b = Residual::new("res", 4, 4, 1, &mut rng);
        let mut names = Vec::new();
        b.visit_params(&mut |p| names.push(p.name.to_string()));
        assert!(names.iter().filter(|n| *n == "weight").count() >= 2);
    }
}
