//! Per-channel normalization.

use crate::layer::{lane_as, Layer, ParamEntry};
use eden_tensor::ops::ConvScratch;
use eden_tensor::Tensor;

/// Per-channel normalization with learnable scale and shift.
///
/// During training the layer normalizes each channel by the sample's own
/// channel statistics and updates running statistics with momentum; during
/// inference it uses the running statistics. The backward pass treats the
/// normalization statistics as constants (a standard simplification that is
/// sufficient for the shallow networks used in this reproduction).
#[derive(Debug, Clone)]
pub struct ChannelNorm {
    name: String,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<NormCache>,
}

/// Channels whose `gamma`/`beta` gradient chains
/// [`ChannelNorm`]'s gradient accumulation advances together.
const NORM_FOLD_CHANNELS: usize = 4;

/// One sample's training intermediates: what `backward` needs, plus what
/// [`Layer::fold_lane`] replays on the master (the sample's channel
/// statistics for the running-statistic updates, and its `d_out` for the
/// `gamma`/`beta` gradient chains).
#[derive(Debug, Clone)]
struct NormCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
    means: Vec<f32>,
    vars: Vec<f32>,
    channels: usize,
    spatial: usize,
    d_out: Option<Tensor>,
}

impl ChannelNorm {
    /// Creates a normalization layer over `channels` channels.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        Self {
            name: name.into(),
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    fn stats(input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let spatial = h * w;
        let mut means = vec![0.0f32; c];
        let mut vars = vec![0.0f32; c];
        for ch in 0..c {
            let slice = &input.data()[ch * spatial..(ch + 1) * spatial];
            let mean = slice.iter().sum::<f32>() / spatial as f32;
            let var = slice.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / spatial as f32;
            means[ch] = mean;
            vars[ch] = var;
        }
        (means, vars)
    }

    fn normalize(&self, input: &Tensor, means: &[f32], vars: &[f32]) -> (Tensor, Vec<f32>) {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let spatial = h * w;
        let mut out = vec![0.0f32; c * spatial];
        let mut inv_std = vec![0.0f32; c];
        for ch in 0..c {
            let istd = 1.0 / (vars[ch] + self.eps).sqrt();
            inv_std[ch] = istd;
            let g = self.gamma.data()[ch];
            let b = self.beta.data()[ch];
            for i in 0..spatial {
                let x = input.data()[ch * spatial + i];
                out[ch * spatial + i] = g * (x - means[ch]) * istd + b;
            }
        }
        (Tensor::from_vec(out, input.shape()), inv_std)
    }

    /// Moves the running statistics one momentum step towards a sample's
    /// channel statistics.
    fn update_running(&mut self, means: &[f32], vars: &[f32]) {
        for (rm, m) in self.running_mean.data_mut().iter_mut().zip(means) {
            *rm = (1.0 - self.momentum) * *rm + self.momentum * m;
        }
        for (rv, v) in self.running_var.data_mut().iter_mut().zip(vars) {
            *rv = (1.0 - self.momentum) * *rv + self.momentum * v;
        }
    }

    /// Adds one sample's `gamma`/`beta` gradients, element by element in
    /// spatial order — a chain of `spatial` additions per channel, which is
    /// why this layer's lanes fold by replaying it rather than by adding
    /// their gradients. The chains of [`NORM_FOLD_CHANNELS`] channels
    /// advance together (they are independent, so the additions overlap);
    /// each channel still adds its terms in spatial order.
    fn accumulate_grads(&mut self, normalized: &Tensor, d_out: &Tensor, spatial: usize) {
        const C: usize = NORM_FOLD_CHANNELS;
        let channels = self.grad_gamma.len();
        let (go, nz) = (&d_out.data()[..channels * spatial], normalized.data());
        let gg = self.grad_gamma.data_mut();
        let gb = self.grad_beta.data_mut();
        let whole = channels - channels % C;
        for ch in (0..whole).step_by(C) {
            let g: [&[f32]; C] = std::array::from_fn(|c| &go[(ch + c) * spatial..][..spatial]);
            let n: [&[f32]; C] = std::array::from_fn(|c| &nz[(ch + c) * spatial..][..spatial]);
            let mut sg: [f32; C] = std::array::from_fn(|c| gg[ch + c]);
            let mut sb: [f32; C] = std::array::from_fn(|c| gb[ch + c]);
            for i in 0..spatial {
                for c in 0..C {
                    sg[c] += g[c][i] * n[c][i];
                    sb[c] += g[c][i];
                }
            }
            gg[ch..ch + C].copy_from_slice(&sg);
            gb[ch..ch + C].copy_from_slice(&sb);
        }
        for ch in whole..channels {
            let rows = go[ch * spatial..].iter().zip(&nz[ch * spatial..]);
            for (&go, &n) in rows.take(spatial) {
                gg[ch] += go * n;
                gb[ch] += go;
            }
        }
    }
}

impl Layer for ChannelNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        self.normalize(input, self.running_mean.data(), self.running_var.data())
            .0
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let (means, vars) = Self::stats(input);
        self.update_running(&means, &vars);
        let (out, inv_std) = self.normalize(input, &means, &vars);
        // Store the normalized (pre-affine) values for the backward pass.
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let spatial = h * w;
        let mut normalized = vec![0.0f32; c * spatial];
        for ch in 0..c {
            for i in 0..spatial {
                normalized[ch * spatial + i] =
                    (input.data()[ch * spatial + i] - means[ch]) * inv_std[ch];
            }
        }
        self.cache = Some(NormCache {
            normalized: Tensor::from_vec(normalized, input.shape()),
            inv_std,
            means,
            vars,
            channels: c,
            spatial,
            d_out: None,
        });
        out
    }

    fn backward(&mut self, d_out: &Tensor, _: &mut ConvScratch) -> Tensor {
        let mut cache = self.cache.take().expect("backward before forward_train");
        let spatial = cache.spatial;
        self.accumulate_grads(&cache.normalized, d_out, spatial);
        let mut d_in = vec![0.0f32; cache.channels * spatial];
        for (ch, (di, go)) in d_in
            .chunks_exact_mut(spatial)
            .zip(d_out.data().chunks_exact(spatial))
            .enumerate()
        {
            let (g, istd) = (self.gamma.data()[ch], cache.inv_std[ch]);
            for (di, &go) in di.iter_mut().zip(go) {
                *di = go * g * istd;
            }
        }
        cache.d_out = Some(d_out.clone());
        self.cache = Some(cache);
        Tensor::from_vec(d_in, d_out.shape())
    }

    /// Replays the lane's sample on this layer: one running-statistic step
    /// from the sample's channel statistics, then the sample's `gamma`/`beta`
    /// gradient chains — exactly the updates `forward_train` + `backward`
    /// would have made here.
    fn fold_lane(&mut self, lane: &dyn Layer) {
        let cache = lane_as::<Self>(lane)
            .cache
            .as_ref()
            .expect("fold_lane before the lane's forward_train");
        let d_out = cache
            .d_out
            .as_ref()
            .expect("fold_lane before the lane's backward");
        self.update_running(&cache.means, &cache.vars);
        self.accumulate_grads(&cache.normalized, d_out, cache.spatial);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamEntry<'_>)) {
        f(ParamEntry {
            name: "gamma",
            value: &mut self.gamma,
            grad: &mut self.grad_gamma,
        });
        f(ParamEntry {
            name: "beta",
            value: &mut self.beta,
            grad: &mut self.grad_beta,
        });
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f("gamma", &self.gamma);
        f("beta", &self.beta);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_tensor::init::{seeded_rng, uniform};

    #[test]
    fn training_forward_normalizes_channels() {
        let mut l = ChannelNorm::new("norm", 2);
        let mut rng = seeded_rng(0);
        let x = uniform(&[2, 8, 8], 3.0, 5.0, &mut rng);
        let y = l.forward_train(&x);
        // After normalization, each channel should have ~0 mean and ~1 std.
        let spatial = 64;
        for ch in 0..2 {
            let slice = &y.data()[ch * spatial..(ch + 1) * spatial];
            let mean: f32 = slice.iter().sum::<f32>() / spatial as f32;
            assert!(mean.abs() < 1e-3, "channel mean {mean} not ~0");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut l = ChannelNorm::new("norm", 1);
        let mut rng = seeded_rng(1);
        // Prime the running statistics with several training passes.
        for _ in 0..50 {
            let x = uniform(&[1, 4, 4], 9.0, 11.0, &mut rng);
            l.forward_train(&x);
        }
        let x = Tensor::full(&[1, 4, 4], 10.0);
        let y = l.forward(&x);
        // Input equal to the running mean should normalize to ~beta (= 0).
        assert!(y.abs_max() < 1.0);
    }

    #[test]
    fn backward_produces_finite_gradients() {
        let mut l = ChannelNorm::new("norm", 3);
        let mut rng = seeded_rng(2);
        let x = uniform(&[3, 4, 4], -1.0, 1.0, &mut rng);
        let y = l.forward_train(&x);
        let d = l.backward(&Tensor::full(y.shape(), 1.0), &mut Default::default());
        assert_eq!(d.shape(), x.shape());
        assert!(d.data().iter().all(|v| v.is_finite()));
        l.visit_params(&mut |p| assert!(p.grad.data().iter().all(|v| v.is_finite())));
    }

    /// Folding lanes equals running the same samples in order on one
    /// layer, and both equal the naive per-channel chains, bit for bit: for
    /// every channel count 1–9 (each remainder of the interleave width) and
    /// spatial size 1–70, three samples whose `d_out` holds exact `±0.0`
    /// entries, checked on the gradients and the running statistics.
    #[test]
    fn folded_lanes_match_the_sequential_samples_and_the_naive_chains() {
        let bits = |l: &ChannelNorm| {
            [&l.grad_gamma, &l.grad_beta, &l.running_mean, &l.running_var]
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let mut rng = seeded_rng(3);
        for channels in 1..=9 {
            for spatial in 1..=70 {
                let shape = [channels, 1, spatial];
                let mut sequential = ChannelNorm::new("norm", channels);
                let mut folded = sequential.clone();
                let mut lane = sequential.clone();
                let (mut gamma, mut beta) = (vec![0.0f32; channels], vec![0.0f32; channels]);
                for _ in 0..3 {
                    let x = uniform(&shape, -2.0, 2.0, &mut rng);
                    let mut d = uniform(&shape, -1.0, 1.0, &mut rng);
                    for (i, v) in d.data_mut().iter_mut().enumerate() {
                        match i % 5 {
                            1 => *v = 0.0,
                            3 => *v = -0.0,
                            _ => {}
                        }
                    }
                    sequential.forward_train(&x);
                    let cache = sequential.cache.as_ref().unwrap();
                    let rows = d
                        .data()
                        .chunks(spatial)
                        .zip(cache.normalized.data().chunks(spatial));
                    for ((g, b), (d, n)) in gamma.iter_mut().zip(&mut beta).zip(rows) {
                        for (&d, &n) in d.iter().zip(n) {
                            *g += d * n;
                            *b += d;
                        }
                    }
                    sequential.backward(&d, &mut Default::default());
                    lane.zero_grads();
                    lane.forward_train(&x);
                    lane.backward(&d, &mut Default::default());
                    folded.fold_lane(&lane);
                }
                let want = bits(&sequential);
                assert_eq!(bits(&folded), want, "{channels} channels × {spatial}");
                let naive: [Vec<u32>; 2] =
                    [&gamma, &beta].map(|g| g.iter().map(|v| v.to_bits()).collect());
                assert_eq!(want[..2], naive, "{channels} channels × {spatial}");
            }
        }
    }

    #[test]
    fn gamma_beta_counted_as_params() {
        let l = ChannelNorm::new("norm", 7);
        assert_eq!(l.param_count(), 14);
    }
}
