//! # tensor — NCHW tensors and neural-network kernels for the ODENet stack
//!
//! This crate is the software substrate under both execution domains of the
//! paper's system:
//!
//! * the **PS part** (ARM Cortex-A9 software) runs `f32` kernels;
//! * the **PL part** (the FPGA ODEBlock) runs 32-bit Q20 fixed-point
//!   kernels — simulated bit-exactly via [`qfixed`].
//!
//! Every forward kernel that can be offloaded (3×3 convolution, batch
//! normalization, ReLU, residual/Euler update) is generic over the
//! [`Scalar`] trait so the identical code path serves `f32` and
//! [`qfixed::Q20`]. Backward kernels (training happens offline in float,
//! as in the paper) are `f32`-only.
//!
//! Parallelism is plain data parallelism over disjoint output planes built
//! on `std::thread::scope` (see [`par`]); results are independent of
//! the thread count.
//!
//! ```
//! use tensor::{Tensor, Shape4, conv::{conv2d, Conv2dParams}};
//!
//! let x = Tensor::<f32>::from_fn(Shape4::new(1, 3, 8, 8), |_, c, h, w| {
//!     (c + h + w) as f32 * 0.01
//! });
//! let weight = Tensor::<f32>::from_fn(Shape4::new(4, 3, 3, 3), |o, i, kh, kw| {
//!     ((o + i + kh + kw) % 3) as f32 * 0.1 - 0.1
//! });
//! let y = conv2d(&x, &weight, Conv2dParams::same_3x3());
//! assert_eq!(y.shape(), Shape4::new(1, 4, 8, 8));
//! ```

// `deny`, not `forbid`: the conv module's two AVX2 dispatch calls are the
// crate's only `unsafe`, each allowed at its call site (a safe caller
// cannot invoke a `#[target_feature]` function; see `conv`'s "Builds").
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bn;
pub mod conv;
pub mod linear;
pub mod ops;
pub mod par;
pub mod pool;
pub mod scalar;
mod shape;
pub mod softmax;
#[allow(clippy::module_inception)]
mod tensor;

pub use scalar::Scalar;
pub use shape::Shape4;
pub use tensor::Tensor;
