//! The dense `f32` tensor type.

use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// This is the working data type for all DNN computation in the EDEN
/// reproduction. Values destined for approximate DRAM are converted to a
/// bit-exact stored representation via [`crate::quant::QuantTensor`].
///
/// # Example
///
/// ```
/// use eden_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(a.get(&[1, 0]), 3.0);
/// assert_eq!(a.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Self { shape, data }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Self { shape, data }
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied by
    /// `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Self { shape, data }
    }

    /// The tensor's shape as a slice of dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional coordinate.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional coordinate.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let i = self.shape.flat_index(idx);
        self.data[i] = value;
    }

    /// Returns a tensor with the same data but a different shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Applies a function element-wise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise binary operation with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds `scale * other` into `self` in place (AXPY), used by optimizers
    /// and gradient folds. Runs the dispatched `axpy_f32` kernel
    /// ([`crate::simd::Kernels`]), element-wise with a separate multiply and
    /// add, so every ISA computes the scalar loop's bits.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        (crate::simd::kernels().axpy_f32)(scale, &other.data, &mut self.data);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element (NaN-ignoring); `f32::NEG_INFINITY` for all-NaN data.
    pub fn max(&self) -> f32 {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-ignoring); `f32::INFINITY` for all-NaN data.
    pub fn min(&self) -> f32 {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value of any element, NaN ignored; `+0.0` when no
    /// element counts.
    pub fn abs_max(&self) -> f32 {
        // An integer max over the absolute bit patterns, which order as the
        // floats do for every non-NaN value, by the dispatched `abs_max`
        // kernel. A result above `+Inf`'s pattern means a NaN was present,
        // and only then does a second pass leave the NaN patterns out.
        const INF: i32 = 0x7f80_0000;
        let max = (crate::simd::kernels().abs_max)(&self.data);
        if max <= INF as u32 {
            return f32::from_bits(max);
        }
        let patterns = self.data.iter().map(|x| (x.to_bits() & 0x7fff_ffff) as i32);
        f32::from_bits(patterns.filter(|&a| a <= INF).fold(0, i32::max) as u32)
    }

    /// Index of the maximum element in the flat data.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of the tensor.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Fraction of elements that are exactly zero.
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f32 / self.len() as f32
    }

    /// Extracts one slice along the outermost dimension (e.g., one sample of a
    /// batch). The result drops the outermost dimension.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank-1 or `index` is out of bounds.
    pub fn outer_slice(&self, index: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(dims.len() >= 2, "outer_slice requires rank >= 2");
        assert!(index < dims[0], "outer_slice index out of bounds");
        let inner: usize = dims[1..].iter().product();
        let data = self.data[index * inner..(index + 1) * inner].to_vec();
        Tensor::from_vec(data, &dims[1..])
    }

    /// Stacks rank-`n` tensors of identical shape into one rank-`n+1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let inner = items[0].shape().to_vec();
        let mut data = Vec::with_capacity(items.len() * items[0].len());
        for t in items {
            assert_eq!(t.shape(), inner.as_slice(), "stack shape mismatch");
            data.extend_from_slice(t.data());
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(&inner);
        Tensor::from_vec(data, &dims)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(
            f,
            "[{}{}]",
            preview.join(", "),
            if self.len() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.get(&[0, 0]), 1.0);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 4.0, 0.0, 2.0], &[4]);
        assert_eq!(t.sum(), 5.0);
        assert_eq!(t.mean(), 1.25);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.abs_max(), 4.0);
        assert_eq!(t.argmax(), 1);
        assert!((t.sparsity() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn stack_and_outer_slice_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.outer_slice(0), a);
        assert_eq!(s.outer_slice(1), b);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[4]);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]);
    }

    /// The integer-pattern `abs_max` against the `f32::max` fold it
    /// replaced, bit for bit, on signed zeros, NaN payloads of both signs,
    /// infinities and subnormals, each placed at several positions of runs
    /// long enough to take the vectorized loop. (There is no empty tensor:
    /// a shape has no zero extent.)
    #[test]
    fn abs_max_matches_the_float_fold() {
        let fold = |d: &[f32]| d.iter().fold(0.0_f32, |m, &x| m.max(x.abs()));
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            -f32::MIN_POSITIVE,
            f32::MAX,
            -f32::MAX,
            -3.5,
        ];
        let mut cases: Vec<Vec<f32>> = vec![vec![-0.0; 3], vec![-f32::NAN; 70]];
        for &v in &specials {
            cases.push(vec![v]);
            for len in [7usize, 64, 133] {
                for at in [0, len / 2, len - 1] {
                    let mut run: Vec<f32> = (0..len).map(|i| (i % 5) as f32 * -1e-40).collect();
                    run[at] = v;
                    cases.push(run.clone());
                    run.iter_mut()
                        .filter(|x| **x != v)
                        .for_each(|x| *x = f32::NAN);
                    cases.push(run);
                }
            }
        }
        for data in cases {
            let want = fold(&data);
            let t = Tensor::from_vec(data.clone(), &[data.len()]);
            assert_eq!(t.abs_max().to_bits(), want.to_bits(), "abs_max of {data:?}");
        }
    }

    #[test]
    fn max_ignores_nan() {
        let t = Tensor::from_vec(vec![f32::NAN, 1.0, -2.0], &[3]);
        assert_eq!(t.max(), 1.0);
        assert_eq!(t.min(), -2.0);
    }
}
