//! Graph storage, synthetic generators, and the Table-1 dataset registry.
//!
//! Sparse kernels in this reproduction consume the same two storage formats
//! the paper describes (§2.1.1): COO for edge-parallel kernels and CSR for
//! vertex-parallel ones. The generators produce scaled-down synthetic
//! stand-ins for the paper's 16 datasets that preserve what the kernels are
//! sensitive to — degree skew (hub vertices drive the FP16 overflow of
//! §3.1.3), density, and feature/class dimensions — while the labeled
//! datasets use stochastic-block-model community structure with
//! class-correlated features so the accuracy experiments genuinely learn.

pub mod coo;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod features;
pub mod gen;
pub mod metrics;
pub mod partition;
pub mod reach;
pub mod sample;

pub use coo::Coo;
pub use csr::Csr;
pub use delta::DeltaCsr;
pub use partition::{partition, PartitionStrategy, Shard, ShardPlan};
pub use reach::{induced_subgraph, khop_ball};
pub use sample::{BatchSubgraph, NeighborAccess, NeighborSampler};

/// Vertex identifier. 32 bits covers every dataset in this reproduction and
/// halves index-array traffic versus `usize`, matching GPU practice.
pub type VertexId = u32;
