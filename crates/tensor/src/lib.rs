//! # eden-tensor
//!
//! Dense tensor substrate for the EDEN reproduction.
//!
//! This crate provides:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with the shape algebra and
//!   operators ([`ops`]) needed by the DNN layers in `eden-dnn` (matrix
//!   multiplication, 2-D convolution, pooling, activations), including the
//!   backward passes required for (re)training.
//! * [`quant`] — symmetric linear quantization into the numeric precisions the
//!   paper evaluates (`int4`, `int8`, `int16`, `FP32`), with **bit-exact
//!   storage representations** so DRAM bit flips can be applied to the same
//!   bits a real device would corrupt.
//! * [`bits`] — bit-level views and flip operations over stored values.
//! * [`init`] — deterministic weight initializers.
//! * [`simd`] — runtime-dispatched SIMD kernel tables (SSE2/AVX2/AVX-512)
//!   behind the hot [`ops`] loops, bit-for-bit equal to their scalar
//!   reference and overridable via `EDEN_ISA`.
//!
//! # Example
//!
//! ```
//! use eden_tensor::{Tensor, quant::{Precision, QuantTensor}};
//!
//! let t = Tensor::from_vec(vec![0.5, -1.25, 3.0, 0.0], &[2, 2]);
//! let q = QuantTensor::quantize(&t, Precision::Int8);
//! let back = q.dequantize();
//! assert_eq!(back.shape(), &[2, 2]);
//! ```

pub mod bits;
pub mod init;
pub mod ops;
pub mod overlay;
pub mod quant;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use overlay::CorruptionOverlay;
pub use quant::{Precision, QuantTensor};
pub use shape::Shape;
pub use tensor::Tensor;
