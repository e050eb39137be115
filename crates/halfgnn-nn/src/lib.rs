//! GNN models (GCN, GAT, GIN, SAGE) with hand-written forward/backward
//! passes over the sparse kernels, and the mixed-precision trainer.
//!
//! The paper's training recipe follows Micikevicius et al.: *state
//! tensors* (activations, edge tensors) live in half precision; *weight
//! updates* stay in float. Each step casts the f32 master weights to half,
//! runs forward/backward through the precision-appropriate kernels, and
//! feeds f32 gradients to Adam. Each model is written once, generic over
//! the state-tensor element type ([`elem::Elem`], `f32` or `Half`), which
//! owns that AMP boundary. Which kernels run is decided by
//! [`trainer::PrecisionMode`]:
//!
//! | mode | SpMM | SDDMM | exp | meaning |
//! |---|---|---|---|---|
//! | `Float` | cuSPARSE-f32 | DGL-f32 | f32 | DGL-float baseline |
//! | `HalfNaive` | cuSPARSE-f16 (post-scaled, atomics) | DGL-f16 | AMP-promoted | DGL-half baseline — overflows on hub graphs |
//! | `HalfGnn` | HalfGNN (discretized, staged) | HalfGNN half8 | shadow API | the paper's system |
//! | `HalfGnnNoDiscretize` | HalfGNN with post-reduction scaling | HalfGNN half8 | shadow | the §6.1.1 ablation |

pub mod adam;
pub mod dist;
pub mod elem;
pub mod gat;
pub mod gcn;
pub mod gin;
pub mod graphdata;
pub mod models;
pub mod params;
pub mod sage;
pub mod snapshot;
pub mod trainer;
