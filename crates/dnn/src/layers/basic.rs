//! Parameter-free layers: activations, pooling and flattening.

use crate::layer::{Layer, ParamEntry};
use eden_tensor::ops::{self, ConvScratch};
use eden_tensor::{QuantTensor, Tensor};

/// Rectified linear unit activation.
#[derive(Debug, Clone)]
pub struct Relu {
    name: String,
    cache_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cache_input: None,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        ops::relu(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cache_input = Some(input.clone());
        ops::relu(input)
    }

    fn backward(&mut self, d_out: &Tensor, _: &mut ConvScratch) -> Tensor {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward before forward_train");
        ops::relu_backward(input, d_out)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamEntry<'_>)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&str, &Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    /// `relu(q·s) = max(q, 0)·s` exactly (the scale is positive), so the
    /// native path applies ReLU in the integer domain and dequantizes the
    /// survivors in the same pass.
    fn quant_forward_activation(&self, input: &QuantTensor) -> Option<Tensor> {
        let scale = input.scale();
        let bits = input.bits_per_value();
        let data: Vec<f32> = input
            .stored()
            .iter()
            .map(|&s| {
                let q = eden_tensor::bits::sign_extend(s, bits);
                if q > 0 {
                    q as f32 * scale
                } else {
                    0.0
                }
            })
            .collect();
        Some(Tensor::from_vec(data, input.shape()))
    }
}

/// Max pooling over square windows.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    name: String,
    size: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max pooling layer with window `size` and stride `stride`.
    pub fn new(name: impl Into<String>, size: usize, stride: usize) -> Self {
        Self {
            name: name.into(),
            size,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        ops::maxpool2d(input, self.size, self.stride).0
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let (out, arg) = ops::maxpool2d(input, self.size, self.stride);
        self.cache = Some((input.shape().to_vec(), arg));
        out
    }

    fn backward(&mut self, d_out: &Tensor, _: &mut ConvScratch) -> Tensor {
        let (shape, arg) = self.cache.as_ref().expect("backward before forward_train");
        ops::maxpool2d_backward(shape, d_out, arg)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamEntry<'_>)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&str, &Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (c, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
        vec![
            c,
            (h - self.size) / self.stride + 1,
            (w - self.size) / self.stride + 1,
        ]
    }

    /// Dequantization is strictly monotone on the quantized integers, so
    /// selecting window maxima by integer comparison (first strict maximum
    /// wins, like [`ops::maxpool2d`]) picks values that dequantize to
    /// exactly the f32-path output — without materializing the f32 input or
    /// the training-path argmax buffer.
    fn quant_forward_activation(&self, input: &QuantTensor) -> Option<Tensor> {
        let shape = input.shape();
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let (oh, ow) = (
            (h - self.size) / self.stride + 1,
            (w - self.size) / self.stride + 1,
        );
        let scale = input.scale();
        let bits = input.bits_per_value();
        let stored = input.stored();
        let mut out = vec![0.0f32; c * oh * ow];
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = i32::MIN;
                    for ky in 0..self.size {
                        let iy = oy * self.stride + ky;
                        for kx in 0..self.size {
                            let ix = ox * self.stride + kx;
                            let q = eden_tensor::bits::sign_extend(
                                stored[ch * h * w + iy * w + ix],
                                bits,
                            );
                            if q > best {
                                best = q;
                            }
                        }
                    }
                    out[ch * oh * ow + oy * ow + ox] = best as f32 * scale;
                }
            }
        }
        Some(Tensor::from_vec(out, &[c, oh, ow]))
    }
}

/// Global average pooling: `[c, h, w] -> [c]`.
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    name: String,
    cache_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cache_shape: None,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        ops::global_avg_pool(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cache_shape = Some(input.shape().to_vec());
        ops::global_avg_pool(input)
    }

    fn backward(&mut self, d_out: &Tensor, _: &mut ConvScratch) -> Tensor {
        let shape = self
            .cache_shape
            .as_ref()
            .expect("backward before forward_train");
        ops::global_avg_pool_backward(shape, d_out)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamEntry<'_>)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&str, &Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0]]
    }
}

/// Flattens any tensor into a rank-1 feature vector.
#[derive(Debug, Clone)]
pub struct Flatten {
    name: String,
    cache_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cache_shape: None,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        input.reshape(&[input.len()])
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cache_shape = Some(input.shape().to_vec());
        input.reshape(&[input.len()])
    }

    fn backward(&mut self, d_out: &Tensor, _: &mut ConvScratch) -> Tensor {
        let shape = self
            .cache_shape
            .as_ref()
            .expect("backward before forward_train");
        d_out.reshape(shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamEntry<'_>)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&str, &Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape.iter().product()]
    }

    /// Flattening is a pure reshape: dequantize straight into the rank-1
    /// output.
    fn quant_forward_activation(&self, input: &QuantTensor) -> Option<Tensor> {
        let mut data = vec![0.0f32; input.len()];
        input.dequantize_into(&mut data);
        let n = data.len();
        Some(Tensor::from_vec(data, &[n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_backward_agree_with_ops() {
        let mut l = Relu::new("relu");
        let x = Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]);
        let y = l.forward_train(&x);
        assert_eq!(y.data(), &[0.0, 0.5, 3.0]);
        let g = l.backward(
            &Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]),
            &mut Default::default(),
        );
        assert_eq!(g.data(), &[0.0, 1.0, 1.0]);
        assert_eq!(l.param_count(), 0);
    }

    #[test]
    fn maxpool_output_shape_matches_forward() {
        let l = MaxPool2d::new("pool", 2, 2);
        let x = Tensor::zeros(&[3, 8, 8]);
        assert_eq!(l.forward(&x).shape(), l.output_shape(&[3, 8, 8]).as_slice());
    }

    #[test]
    fn flatten_round_trips_gradient_shape() {
        let mut l = Flatten::new("flatten");
        let x = Tensor::zeros(&[2, 3, 3]);
        let y = l.forward_train(&x);
        assert_eq!(y.shape(), &[18]);
        let g = l.backward(&Tensor::zeros(&[18]), &mut Default::default());
        assert_eq!(g.shape(), &[2, 3, 3]);
    }

    #[test]
    fn global_avg_pool_shapes() {
        let l = GlobalAvgPool::new("gap");
        assert_eq!(l.output_shape(&[16, 4, 4]), vec![16]);
        let x = Tensor::full(&[2, 2, 2], 3.0);
        assert_eq!(l.forward(&x).data(), &[3.0, 3.0]);
    }

    #[test]
    fn quantized_activations_match_dequantize_then_forward_exactly() {
        // The quantized-domain implementations must be bit-identical to
        // dequantize + f32 forward for every integer precision, including
        // negative values, ties inside pooling windows, and zeros.
        use eden_tensor::Precision;
        let data: Vec<f32> = (0..2 * 6 * 6)
            .map(|i| ((i as f32 * 0.7).sin() * 3.0 * ((i % 5) as f32 - 2.0)).round() * 0.25)
            .collect();
        let t = Tensor::from_vec(data, &[2, 6, 6]);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Relu::new("relu")),
            Box::new(MaxPool2d::new("pool", 2, 2)),
            Box::new(MaxPool2d::new("pool3", 3, 1)),
            Box::new(Flatten::new("flatten")),
        ];
        for p in [Precision::Int4, Precision::Int8, Precision::Int16] {
            let q = QuantTensor::quantize(&t, p);
            for layer in &layers {
                let reference = layer.forward(&q.dequantize());
                let native = layer
                    .quant_forward_activation(&q)
                    .expect("activation layers implement the quantized path");
                assert_eq!(native, reference, "{} at {p}", layer.name());
            }
        }
    }

    #[test]
    fn global_avg_pool_has_no_quantized_path() {
        // Averaging does not commute with dequantization rounding, so the
        // layer must fall back to the f32 path rather than approximate it.
        let q = QuantTensor::quantize(&Tensor::zeros(&[2, 2, 2]), eden_tensor::Precision::Int8);
        assert!(GlobalAvgPool::new("gap")
            .quant_forward_activation(&q)
            .is_none());
    }

    #[test]
    fn boxed_layer_clone_works() {
        let l: Box<dyn Layer> = Box::new(Relu::new("r"));
        let c = l.clone();
        assert_eq!(c.name(), "r");
    }
}
