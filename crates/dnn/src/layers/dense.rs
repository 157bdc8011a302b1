//! Fully-connected (dense) layers.
//!
//! The forward pass is one call into the register-tiled GEMM kernel in
//! `eden_tensor::ops` — the same tiles that run the convolution layers'
//! implicit GEMM.

use crate::layer::{lane_as, Layer, ParamEntry};
use crate::qexec::{self, QuantLayerParams, QuantScratch};
use eden_tensor::ops::{self, ConvScratch};
use eden_tensor::{init, QuantTensor, Tensor};
use rand::rngs::StdRng;

/// A fully-connected layer computing `y = W x + b`.
///
/// Weights have shape `[out_features, in_features]`.
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cache_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-uniform initialized weights.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            name: name.into(),
            weight: init::he_uniform(&[out_features, in_features], in_features, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cache_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[0]
    }

    fn apply(&self, input: &Tensor) -> Tensor {
        let x = input.reshape(&[input.len(), 1]);
        let y = ops::matmul(&self.weight, &x);
        let mut out = y.reshape(&[self.out_features()]);
        out.axpy(1.0, &self.bias);
        out
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        self.apply(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cache_input = Some(input.reshape(&[input.len()]));
        self.apply(input)
    }

    fn backward(&mut self, d_out: &Tensor, _: &mut ConvScratch) -> Tensor {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward before forward_train");
        let n_in = self.in_features();
        let n_out = self.out_features();
        // d_weight[o, i] += d_out[o] * input[i]
        let gd = self.grad_weight.data_mut();
        for o in 0..n_out {
            let go = d_out.data()[o];
            if go == 0.0 {
                continue;
            }
            for i in 0..n_in {
                gd[o * n_in + i] += go * input.data()[i];
            }
        }
        self.grad_bias.axpy(1.0, d_out);
        // d_input[i] = sum_o d_out[o] * w[o, i]
        let mut d_in = vec![0.0f32; n_in];
        for o in 0..n_out {
            let go = d_out.data()[o];
            if go == 0.0 {
                continue;
            }
            let row = &self.weight.data()[o * n_in..(o + 1) * n_in];
            for (di, &w) in d_in.iter_mut().zip(row) {
                *di += go * w;
            }
        }
        Tensor::from_vec(d_in, &[n_in])
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

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.out_features()]
    }

    /// Weight-stationary batched dense layer: the batch's activation vectors
    /// become the columns of one `[k, batch]` rhs, a single
    /// [`eden_tensor::ops::gemm`] produces all outputs, and each bias
    /// is added after its product chain — mirroring the per-sample
    /// `matmul` + `axpy` ordering bit for bit.
    fn forward_batch(&self, inputs: &[&Tensor]) -> Option<Vec<Tensor>> {
        let (m, k) = (self.out_features(), self.in_features());
        let batch = inputs.len();
        if batch == 0 {
            return Some(Vec::new());
        }
        assert!(
            inputs.iter().all(|x| x.len() == k),
            "dense forward_batch input length mismatch"
        );
        let mut b = vec![0.0f32; k * batch];
        for (j, x) in inputs.iter().enumerate() {
            for (p, &v) in x.data().iter().enumerate() {
                b[p * batch + j] = v;
            }
        }
        let mut out = vec![0.0f32; m * batch];
        ops::gemm(m, k, batch, self.weight.data(), &b, &mut out);
        let bd = self.bias.data();
        Some(
            (0..batch)
                .map(|j| {
                    let mut y = vec![0.0f32; m];
                    for (o, yo) in y.iter_mut().enumerate() {
                        *yo = out[o * batch + j];
                        *yo += bd[o];
                    }
                    Tensor::from_vec(y, &[m])
                })
                .collect(),
        )
    }

    fn supports_quant_forward(&self) -> bool {
        true
    }

    /// Quantized dense layer, `y = (Σ qW·qx) · s_w·s_x + bias` with the sum
    /// in exact integer arithmetic: every sample contributes one panel row to
    /// a single integer GEMM (a group of one is a matrix–vector product),
    /// with each sample's own scale in the fused epilogue.
    fn quant_forward_batch(
        &self,
        inputs: &[&QuantTensor],
        params: &QuantLayerParams,
        scratch: &mut QuantScratch,
    ) -> Option<Vec<Tensor>> {
        let (m, k) = (self.out_features(), self.in_features());
        let first = inputs.first()?;
        let precision = first.precision();
        assert!(
            inputs
                .iter()
                .all(|q| q.len() == k && q.precision() == precision),
            "dense quant_forward_batch requires uniform sample geometry"
        );
        let batch = inputs.len();
        // Batch-wide operand matrices live in the shared scratch: grown once
        // to the group size, reused across layers without reallocation.
        if qexec::use_i8_kernels_for(precision, k) {
            qexec::pack_panel(inputs, k, &mut scratch.cols8);
        } else {
            qexec::pack_panel(inputs, k, &mut scratch.cols16);
        }
        let scales: Vec<f32> = inputs
            .iter()
            .map(|q| params.weight_scale * q.scale())
            .collect();
        let mut y = std::mem::take(&mut scratch.ybatch);
        y.resize(m * batch, 0.0);
        qexec::quant_gemm_bias_batch_into(
            m,
            k,
            1,
            params,
            scratch,
            precision,
            &scales,
            &params.bias,
            &mut y,
        );
        let out = (0..batch)
            .map(|j| {
                let col: Vec<f32> = (0..m).map(|o| y[o * batch + j]).collect();
                Tensor::from_vec(col, &[m])
            })
            .collect();
        scratch.ybatch = y;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_tensor::init::seeded_rng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = seeded_rng(0);
        let mut l = Dense::new("fc", 2, 2, &mut rng);
        l.visit_params(&mut |p| {
            if p.name == "weight" {
                *p.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
            } else {
                *p.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
            }
        });
        let y = l.forward(&Tensor::from_vec(vec![1.0, 1.0], &[2]));
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = seeded_rng(3);
        let mut l = Dense::new("fc", 3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.4, -0.7, 1.2], &[3]);
        let _ = l.forward_train(&x);
        let d_out = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let d_in = l.backward(&d_out, &mut Default::default());

        // Numerical check of input gradient for loss = sum(d_out .* y).
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = l.forward(&xp).mul(&d_out).sum();
            let lm: f32 = l.forward(&xm).mul(&d_out).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - d_in.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut rng = seeded_rng(1);
        let mut l = Dense::new("fc", 2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let g = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        l.forward_train(&x);
        l.backward(&g, &mut Default::default());
        l.forward_train(&x);
        l.backward(&g, &mut Default::default());
        let mut sum = 0.0;
        l.visit_params(&mut |p| {
            if p.name == "bias" {
                sum = p.grad.sum();
            }
        });
        assert_eq!(sum, 4.0);
        l.zero_grads();
        l.visit_params(&mut |p| assert_eq!(p.grad.sum(), 0.0));
    }

    #[test]
    fn param_count_is_correct() {
        let mut rng = seeded_rng(2);
        let l = Dense::new("fc", 10, 5, &mut rng);
        assert_eq!(l.param_count(), 10 * 5 + 5);
    }
}
