//! Model parameters: f32 master copies with Glorot initialization, plus a
//! flat view for the optimizer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Concatenate parameter (or gradient) tensors into one flat vector.
pub(crate) fn concat(parts: &[&Vec<f32>]) -> Vec<f32> {
    let mut v = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for part in parts {
        v.extend_from_slice(part);
    }
    v
}

/// Copy a flat vector back into parameter tensors: the inverse of
/// [`concat`] over the same parts.
pub(crate) fn scatter<const N: usize>(flat: &[f32], parts: [&mut Vec<f32>; N]) {
    let mut off = 0;
    for part in parts {
        let len = part.len();
        part.copy_from_slice(&flat[off..off + len]);
        off += len;
    }
    assert_eq!(off, flat.len(), "flat vector length must match the parameter count");
}

/// Glorot-uniform matrix, `rows × cols`.
pub fn glorot(rows: usize, cols: usize, rng: &mut StdRng) -> Vec<f32> {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect()
}

/// Two-layer model parameters shared by GCN and GIN: `W1 (f_in×h)`,
/// `b1 (h)`, `W2 (h×c)`, `b2 (c)`.
#[derive(Clone)]
pub struct TwoLayerParams {
    /// Layer-1 weight.
    pub w1: Vec<f32>,
    /// Layer-1 bias.
    pub b1: Vec<f32>,
    /// Layer-2 weight.
    pub w2: Vec<f32>,
    /// Layer-2 bias.
    pub b2: Vec<f32>,
    /// Input feature length.
    pub f_in: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output width (padded class count for half paths).
    pub classes: usize,
}

impl TwoLayerParams {
    /// Glorot-initialized parameters.
    pub fn new(f_in: usize, hidden: usize, classes: usize, seed: u64) -> TwoLayerParams {
        let mut rng = StdRng::seed_from_u64(seed);
        TwoLayerParams {
            w1: glorot(f_in, hidden, &mut rng),
            b1: vec![0.0; hidden],
            w2: glorot(hidden, classes, &mut rng),
            b2: vec![0.0; classes],
            f_in,
            hidden,
            classes,
        }
    }

    /// Flatten parameters for the optimizer (order: w1, b1, w2, b2).
    pub fn flat(&self) -> Vec<f32> {
        concat(&[&self.w1, &self.b1, &self.w2, &self.b2])
    }

    /// Write a flat vector back into the structured parameters.
    pub fn set_flat(&mut self, flat: &[f32]) {
        scatter(flat, [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]);
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.w1.len() + self.b1.len() + self.w2.len() + self.b2.len()
    }
}

/// Gradients matching [`TwoLayerParams`].
#[derive(Default)]
pub struct TwoLayerGrads {
    /// ∂L/∂W1.
    pub w1: Vec<f32>,
    /// ∂L/∂b1.
    pub b1: Vec<f32>,
    /// ∂L/∂W2.
    pub w2: Vec<f32>,
    /// ∂L/∂b2.
    pub b2: Vec<f32>,
}

impl TwoLayerGrads {
    /// Flatten in the same order as [`TwoLayerParams::flat`].
    pub fn flat(&self) -> Vec<f32> {
        concat(&[&self.w1, &self.b1, &self.w2, &self.b2])
    }
}

/// GAT parameters: per layer a projection `W` (no bias, per the original)
/// and two attention vectors `a_src`, `a_dst` over the projected features.
pub struct GatParams {
    /// Layer-1 projection, `f_in × hidden`.
    pub w1: Vec<f32>,
    /// Layer-1 source attention vector, `hidden`.
    pub a_src1: Vec<f32>,
    /// Layer-1 destination attention vector, `hidden`.
    pub a_dst1: Vec<f32>,
    /// Layer-2 projection, `hidden × classes`.
    pub w2: Vec<f32>,
    /// Layer-2 source attention vector, `classes`.
    pub a_src2: Vec<f32>,
    /// Layer-2 destination attention vector, `classes`.
    pub a_dst2: Vec<f32>,
    /// Input feature length.
    pub f_in: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output width.
    pub classes: usize,
}

impl GatParams {
    /// Glorot-initialized single-head GAT.
    pub fn new(f_in: usize, hidden: usize, classes: usize, seed: u64) -> GatParams {
        let mut rng = StdRng::seed_from_u64(seed);
        GatParams {
            w1: glorot(f_in, hidden, &mut rng),
            a_src1: glorot(hidden, 1, &mut rng),
            a_dst1: glorot(hidden, 1, &mut rng),
            w2: glorot(hidden, classes, &mut rng),
            a_src2: glorot(classes, 1, &mut rng),
            a_dst2: glorot(classes, 1, &mut rng),
            f_in,
            hidden,
            classes,
        }
    }

    /// Flat view (w1, a_src1, a_dst1, w2, a_src2, a_dst2).
    pub fn flat(&self) -> Vec<f32> {
        concat(&[&self.w1, &self.a_src1, &self.a_dst1, &self.w2, &self.a_src2, &self.a_dst2])
    }

    /// Restore from a flat vector.
    pub fn set_flat(&mut self, flat: &[f32]) {
        let p = self;
        scatter(
            flat,
            [&mut p.w1, &mut p.a_src1, &mut p.a_dst1, &mut p.w2, &mut p.a_src2, &mut p.a_dst2],
        );
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.w1.len()
            + self.a_src1.len()
            + self.a_dst1.len()
            + self.w2.len()
            + self.a_src2.len()
            + self.a_dst2.len()
    }
}

/// Gradients matching [`GatParams`].
#[derive(Default)]
pub struct GatGrads {
    /// ∂L/∂W1.
    pub w1: Vec<f32>,
    /// ∂L/∂a_src1.
    pub a_src1: Vec<f32>,
    /// ∂L/∂a_dst1.
    pub a_dst1: Vec<f32>,
    /// ∂L/∂W2.
    pub w2: Vec<f32>,
    /// ∂L/∂a_src2.
    pub a_src2: Vec<f32>,
    /// ∂L/∂a_dst2.
    pub a_dst2: Vec<f32>,
}

impl GatGrads {
    /// Flat view matching [`GatParams::flat`].
    pub fn flat(&self) -> Vec<f32> {
        concat(&[&self.w1, &self.a_src1, &self.a_dst1, &self.w2, &self.a_src2, &self.a_dst2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = glorot(100, 50, &mut rng);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.iter().all(|&v| v.abs() <= limit));
        assert!(w.iter().any(|&v| v.abs() > limit * 0.5), "not degenerate");
    }

    #[test]
    fn two_layer_flat_round_trip() {
        let mut p = TwoLayerParams::new(8, 4, 3, 7);
        let flat = p.flat();
        assert_eq!(flat.len(), p.num_params());
        assert_eq!(p.num_params(), 8 * 4 + 4 + 4 * 3 + 3);
        let mut modified = flat.clone();
        modified[0] = 42.0;
        p.set_flat(&modified);
        assert_eq!(p.w1[0], 42.0);
        assert_eq!(p.flat(), modified);
    }

    #[test]
    fn gat_flat_round_trip() {
        let mut p = GatParams::new(8, 4, 3, 7);
        let flat = p.flat();
        assert_eq!(flat.len(), p.num_params());
        let mut modified = flat.clone();
        *modified.last_mut().unwrap() = -9.0;
        p.set_flat(&modified);
        assert_eq!(*p.a_dst2.last().unwrap(), -9.0);
        assert_eq!(p.flat(), modified);
    }

    #[test]
    fn init_is_seeded() {
        let a = TwoLayerParams::new(8, 4, 3, 7);
        let b = TwoLayerParams::new(8, 4, 3, 7);
        let c = TwoLayerParams::new(8, 4, 3, 8);
        assert_eq!(a.flat(), b.flat());
        assert_ne!(a.flat(), c.flat());
    }
}
