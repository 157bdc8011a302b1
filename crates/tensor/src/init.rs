//! Deterministic weight initializers.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Kaiming/He uniform initialization for layers followed by ReLU.
///
/// `fan_in` is the number of input connections per output unit.
pub fn he_uniform(dims: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-bound..bound)).collect();
    Tensor::from_vec(data, dims)
}

/// A seedable RNG for reproducible initialization.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform random tensor in `[lo, hi)`.
pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, dims)
}

/// Standard-normal random tensor scaled by `std`.
pub fn normal(dims: &[usize], std: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = dims.iter().product();
    // Box-Muller transform to avoid an extra dependency.
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(data, dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_init_is_deterministic() {
        let a = he_uniform(&[4, 4], 4, &mut seeded_rng(7));
        let b = he_uniform(&[4, 4], 4, &mut seeded_rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = he_uniform(&[8, 8], 8, &mut seeded_rng(1));
        let b = he_uniform(&[8, 8], 8, &mut seeded_rng(2));
        assert_ne!(a, b);
    }

    #[test]
    fn he_bound_respected() {
        let fan_in = 16;
        let bound = (6.0 / fan_in as f32).sqrt();
        let t = he_uniform(&[32, 16], fan_in, &mut seeded_rng(3));
        assert!(t.abs_max() <= bound);
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let t = normal(&[10_000], 2.0, &mut seeded_rng(11));
        assert!(t.mean().abs() < 0.1);
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!((var.sqrt() - 2.0).abs() < 0.1);
    }

    #[test]
    fn uniform_range_respected() {
        let t = uniform(&[1000], -0.5, 0.5, &mut seeded_rng(4));
        assert!(t.max() < 0.5 && t.min() >= -0.5);
    }
}
