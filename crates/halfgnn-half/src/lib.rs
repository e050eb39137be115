//! Software half-precision (IEEE 754 binary16) arithmetic and the vector
//! data types used by HalfGNN.
//!
//! The paper's accuracy findings hinge on exact FP16 semantics: overflow to
//! `INF` at ±65504, gradual underflow through subnormals, and NaN
//! propagation through follow-up operations. This crate implements binary16
//! from scratch (bit-level, round-to-nearest-even) rather than wrapping a
//! hardware type, so every overflow the paper describes is reproduced
//! deterministically on any host.
//!
//! Three arithmetic paths mirror Fig. 3 of the paper:
//!
//! * **Implicit float promotion** (Fig. 3a) — the `std::ops` impls on
//!   [`Half`]: operands are converted to `f32`, the op runs in `f32`, and the
//!   result is rounded back. This is what CUDA's native `+`/`*` on `__half`
//!   does, and what DGL's kernels effectively execute.
//! * **Half intrinsics** (Fig. 3b) — [`intrinsics`]: correctly-rounded
//!   scalar half arithmetic (`hadd`, `hmul`, `hfma`, …) with no persistent
//!   float state. Same throughput as float on real GPUs.
//! * **Half2 SIMD** (Fig. 3c) — [`Half2`]: two lanes per instruction,
//!   doubling arithmetic throughput. [`Half4`] and [`Half8`] are the paper's
//!   proposed wider types: native *data-load* vectors (backed by
//!   `float2`/`float4`-sized words) whose arithmetic decomposes into `half2`
//!   operations, exactly as §5.1.2 specifies.
//!
//! All three paths round their results through [`Half::from_f32`]; the
//! [`overflow`] module exploits that choke point to record, under the
//! opt-in `provenance` feature, the first op site that produced an
//! INF/NaN — the forensic trail behind the paper's Fig. 1c NaN collapse.

pub mod f16;
pub mod intrinsics;
pub mod overflow;
pub mod quant;
pub mod slice;
pub mod vec2;
pub mod vec48;

pub use f16::Half;
pub use vec2::Half2;
pub use vec48::{Half4, Half8};

/// Re-export of the scalar type, intrinsics and vector types for glob imports.
pub mod prelude {
    pub use crate::f16::Half;
    pub use crate::intrinsics::*;
    pub use crate::vec2::Half2;
    pub use crate::vec48::{Half4, Half8};
}
