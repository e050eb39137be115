//! The graph a model step runs on — the full training graph or one
//! sampled batch subgraph — with its precomputed training state: both
//! storage formats, degree-norm tables in both precisions, and the
//! transpose permutation backward passes use to reindex edge tensors.

use halfgnn_graph::{BatchSubgraph, Coo, Csr};
use halfgnn_half::Half;
use halfgnn_kernels::common::{row_scales_inv_sqrt, row_scales_mean};

/// Everything the model steps need about the graph, computed once.
///
/// Models, `Dispatch`, and the trainer take `&GraphView`, so the same
/// steps serve full-batch training, sampled mini-batches and serving's
/// coalesced subgraphs.
pub struct GraphView {
    /// Canonical COO of Â (symmetrized, self-looped).
    pub coo: Coo,
    /// CSR of Â.
    pub csr: Csr,
    /// Row degrees.
    pub degrees: Vec<u32>,
    /// `1/deg` per row in half (discretized mean scaling).
    pub mean_scale_h: Vec<Half>,
    /// `1/deg` per row in f32.
    pub mean_scale_f: Vec<f32>,
    /// `1/sqrt(deg)` per row in half (GCN `both` norm).
    pub inv_sqrt_scale_h: Vec<Half>,
    /// `1/sqrt(deg)` per row in f32.
    pub inv_sqrt_scale_f: Vec<f32>,
    /// Transpose permutation: `alpha_t[i] = alpha[t_perm[i]]`.
    pub t_perm: Vec<usize>,
}

impl GraphView {
    /// View of a full graph, which must already be symmetric Â (panics
    /// otherwise: GNN training assumes Â = Âᵀ so backward kernels can
    /// reuse the same structure).
    pub fn full(csr: &Csr) -> GraphView {
        assert!(csr.is_symmetric(), "training graphs must be symmetrized");
        let coo = csr.to_coo();
        let degrees = csr.degrees();
        let mean_scale_h = row_scales_mean(&degrees);
        let mean_scale_f =
            degrees.iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 }).collect();
        let inv_sqrt_scale_h = row_scales_inv_sqrt(&degrees);
        let inv_sqrt_scale_f: Vec<f32> =
            degrees.iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / (d as f32).sqrt() }).collect();
        let t_perm = coo.transpose_permutation();
        GraphView {
            coo,
            csr: csr.clone(),
            degrees,
            mean_scale_h,
            mean_scale_f,
            inv_sqrt_scale_h,
            inv_sqrt_scale_f,
            t_perm,
        }
    }

    /// View of one sampled batch. The raw sampled CSR has fanout-bounded
    /// in-rows but is *not* symmetric; the steps assume Â = Âᵀ (shared
    /// forward/backward structure), so the batch adjacency is
    /// Â_B = sym(sample) + I over the batch's local vertex set.
    pub fn batch(sub: &BatchSubgraph) -> GraphView {
        GraphView::full(&sub.csr.symmetrized_with_self_loops())
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.coo.num_rows()
    }

    /// Number of edges.
    pub fn nnz(&self) -> usize {
        self.coo.nnz()
    }

    /// Permute an edge tensor into transpose order.
    pub fn permute_to_transpose<T: Copy>(&self, e: &[T]) -> Vec<T> {
        self.t_perm.iter().map(|&i| e[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_graph_tables() {
        let csr = Csr::from_edges(4, 4, &[(0, 1), (1, 2)]).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        assert_eq!(g.n(), 4);
        assert_eq!(g.degrees.len(), 4);
        for (v, &d) in g.degrees.iter().enumerate() {
            assert!((g.mean_scale_f[v] - 1.0 / d as f32).abs() < 1e-6);
            assert!((g.mean_scale_h[v].to_f32() - 1.0 / d as f32).abs() < 1e-3);
            assert!((g.inv_sqrt_scale_h[v].to_f32() - 1.0 / (d as f32).sqrt()).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_permutation_is_identity_on_symmetric_values() {
        // For a symmetric graph, permuting twice returns the original.
        let csr = Csr::from_edges(5, 5, &[(0, 1), (2, 3), (1, 4)]).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let vals: Vec<usize> = (0..g.nnz()).collect();
        let once = g.permute_to_transpose(&vals);
        let twice = g.permute_to_transpose(&once);
        assert_eq!(twice, vals);
    }

    #[test]
    #[should_panic(expected = "symmetrized")]
    fn asymmetric_graph_rejected() {
        let csr = Csr::from_edges(3, 3, &[(0, 1)]);
        GraphView::full(&csr);
    }

    #[test]
    fn batch_view_symmetrizes_the_sampled_csr() {
        // A raw sampled subgraph is directed (fanout-bounded rows).
        let sub = BatchSubgraph {
            csr: Csr::from_edges(3, 3, &[(0, 1), (0, 2), (1, 2)]),
            global_ids: vec![7, 3, 9],
            n_seeds: 2,
        };
        let v = GraphView::batch(&sub);
        assert!(v.csr.is_symmetric(), "batch adjacency must be symmetric");
        for u in 0..3u32 {
            assert!(v.csr.row(u).contains(&u), "missing self loop at {u}");
        }
    }
}
