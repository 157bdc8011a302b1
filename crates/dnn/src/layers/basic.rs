//! Parameter-free layers: activations, pooling and flattening.

use crate::layer::{Layer, ParamEntry};
use eden_tensor::ops::{self, ConvScratch};
use eden_tensor::simd::{self, Pool2d};
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

    /// The pooling geometry over a `[c, h, w]` input.
    fn geometry(&self, input_shape: &[usize]) -> Pool2d {
        Pool2d {
            c: input_shape[0],
            h: input_shape[1],
            w: input_shape[2],
            size: self.size,
            stride: self.stride,
        }
    }

    /// Runs `kernel` into a fresh `[c, oh, ow]` output tensor.
    fn pooled(&self, input_shape: &[usize], kernel: impl FnOnce(&Pool2d, &mut [f32])) -> Tensor {
        let g = self.geometry(input_shape);
        let (oh, ow) = g.out_size();
        let mut out = vec![0.0f32; g.c * oh * ow];
        kernel(&g, &mut out);
        Tensor::from_vec(out, &[g.c, oh, ow])
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    /// The dispatched `maxpool_f32` kernel: the values of
    /// [`ops::maxpool2d`] without its argmax.
    fn forward(&self, input: &Tensor) -> Tensor {
        let pool = simd::kernels().maxpool_f32;
        self.pooled(input.shape(), |g, out| pool(g, input.data(), out))
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
        let g = self.geometry(input_shape);
        let (oh, ow) = g.out_size();
        vec![g.c, oh, ow]
    }

    /// Dequantization is strictly monotone on the quantized integers, so
    /// selecting window maxima by integer comparison picks values that
    /// dequantize to exactly the f32-path output. The dispatched
    /// `maxpool_quant` kernel does so on the stored words, without
    /// materializing the f32 input.
    fn quant_forward_activation(&self, input: &QuantTensor) -> Option<Tensor> {
        let pool = simd::kernels().maxpool_quant;
        let (words, bits, scale) = (input.stored(), input.bits_per_value(), input.scale());
        Some(self.pooled(input.shape(), |g, out| pool(g, words, bits, scale, out)))
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

    /// A well-mixed hash of element `i` under `seed`.
    fn hash(seed: u32, i: usize) -> u32 {
        (i as u32 ^ seed.wrapping_mul(0x9e37_79b9))
            .wrapping_mul(0x85eb_ca6b)
            .rotate_left(13)
            .wrapping_mul(0xc2b2_ae35)
    }

    proptest::proptest! {
        /// The inference forward (the dispatched `maxpool_f32` kernel)
        /// against `ops::maxpool2d(..).0`, bit for bit, and the training
        /// forward against both, over random geometry: `c` 1–7, `h` and `w`
        /// 1–20, window 1–3, stride 1–3. `mode` 0 mixes NaN, `±Inf` and
        /// `±0.0` into ordinary values; mode 1 holds only NaN and `±0.0`, so
        /// every window is a tie of zeros or NaN only; mode 2 only NaN and
        /// `−Inf`.
        #[test]
        fn maxpool_forward_matches_ops_maxpool2d(
            geometry in (1usize..8, 1usize..21, 1usize..21, 1usize..4, 1usize..4),
            mode in 0u32..3,
            seed in 0u32..1000,
        ) {
            let (c, h, w, size, stride) = geometry;
            let size = size.min(h).min(w);
            let specials: &[f32] = match mode {
                0 => &[f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY],
                1 => &[f32::NAN, -0.0, 0.0],
                _ => &[f32::NAN, f32::NEG_INFINITY],
            };
            let every = if mode == 0 { 9 } else { specials.len() as u32 };
            let data: Vec<f32> = (0..c * h * w)
                .map(|i| {
                    let x = hash(seed, i);
                    match specials.get((x % every) as usize) {
                        Some(&v) => v,
                        None => (x >> 8) as f32 * 1.0e-6 - 8.0,
                    }
                })
                .collect();
            let t = Tensor::from_vec(data, &[c, h, w]);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut layer = MaxPool2d::new("pool", size, stride);
            let want = ops::maxpool2d(&t, size, stride).0;
            proptest::prop_assert_eq!(bits(&layer.forward(&t)), bits(&want));
            proptest::prop_assert_eq!(bits(&layer.forward_train(&t)), bits(&want));
            proptest::prop_assert_eq!(layer.output_shape(t.shape()), want.shape().to_vec());
        }

        /// The native forward (the dispatched `maxpool_quant` kernel) on
        /// corrupted stored words against a naive loop over
        /// `QuantTensor::q_value`, at 4, 8 and 16 bits over random
        /// geometry. Words are random in the low `bits` bits, with the most
        /// negative word and `−1` frequent.
        #[test]
        fn maxpool_quant_forward_matches_the_naive_loop(
            geometry in (1usize..8, 1usize..21, 1usize..21, 1usize..4, 1usize..4),
            precision in 0usize..3,
            seed in 0u32..1000,
        ) {
            use eden_tensor::Precision;
            let (c, h, w, size, stride) = geometry;
            let size = size.min(h).min(w);
            let p = [Precision::Int4, Precision::Int8, Precision::Int16][precision];
            let data: Vec<f32> = (0..c * h * w).map(|i| hash(seed, i) as f32 * 1e-9).collect();
            let mut q = QuantTensor::quantize(&Tensor::from_vec(data, &[c, h, w]), p);
            let mask = (1u32 << p.bits()) - 1;
            for (i, word) in q.stored_mut().iter_mut().enumerate() {
                let x = hash(seed ^ 0x5bd1, i);
                *word = match x % 4 {
                    0 => 1 << (p.bits() - 1),
                    1 => mask,
                    _ => (x >> 3) & mask,
                };
            }
            let (oh, ow) = ((h - size) / stride + 1, (w - size) / stride + 1);
            let mut want = vec![0.0f32; c * oh * ow];
            for (o, y) in want.iter_mut().enumerate() {
                let (ch, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
                let mut best = i32::MIN;
                for ky in 0..size {
                    for kx in 0..size {
                        let i = (ch * h + oy * stride + ky) * w + ox * stride + kx;
                        best = best.max(q.q_value(i));
                    }
                }
                *y = best as f32 * q.scale();
            }
            let got = MaxPool2d::new("pool", size, stride)
                .quant_forward_activation(&q)
                .expect("max pooling runs in the quantized domain");
            proptest::prop_assert_eq!(got.shape(), &[c, oh, ow]);
            let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(got.data()), bits(&want), "{}", p);
        }
    }
}
