//! First-order IR-drop model for crossbar wire parasitics.
//!
//! Large crossbars suffer voltage degradation along word lines and
//! current-collection loss along bit lines: a cell far from the drivers
//! sees less than the full input voltage, so its effective contribution
//! shrinks. This module implements the widely-used first-order analytical
//! approximation (cf. the calibration literature the paper cites, e.g.
//! Li et al., DATE'14 "ICE"): the effective conductance of cell `(i, j)`
//! is attenuated by a factor
//!
//! ```text
//! a(i, j) = 1 / (1 + r_wire · g_avg · (i + j))
//! ```
//!
//! where `i + j` is the Manhattan distance from the driver corner,
//! `r_wire` the per-segment wire resistance and `g_avg` the mean
//! programmed conductance (the loading of the line). Setting
//! `r_wire = 0` recovers the ideal array. The model is deliberately
//! closed-form: it captures the qualitative position dependence that
//! makes IR drop a *systematic, position-correlated* weight error —
//! distinct from the i.i.d. error models of `healthmon-faults` — at a
//! cost compatible with campaign-scale simulation.

use healthmon_tensor::Tensor;

/// First-order IR-drop attenuation model.
///
/// # Example
///
/// ```
/// use healthmon_reram::IrDropModel;
/// use healthmon_tensor::Tensor;
///
/// let model = IrDropModel::new(0.002);
/// let g = Tensor::ones(&[64, 64]);
/// let attenuated = model.attenuate(&g);
/// // The far corner is attenuated the most.
/// assert!(attenuated.at(&[63, 63]) < attenuated.at(&[0, 0]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrDropModel {
    /// Normalized per-segment wire resistance (`r_wire · g_unit`).
    r_wire: f32,
}

impl IrDropModel {
    /// Creates a model with the given normalized per-segment wire
    /// resistance. Typical normalized values for 128×128 arrays are in
    /// `1e-4 … 1e-2`; 0 disables the effect.
    ///
    /// # Panics
    ///
    /// Panics if `r_wire` is negative or not finite.
    pub fn new(r_wire: f32) -> Self {
        assert!(r_wire >= 0.0 && r_wire.is_finite(), "invalid wire resistance {r_wire}");
        IrDropModel { r_wire }
    }

    /// The normalized wire resistance.
    pub fn r_wire(&self) -> f32 {
        self.r_wire
    }

    /// Attenuation factor of cell `(row, col)` for an array whose mean
    /// conductance is `g_avg`.
    pub fn factor(&self, row: usize, col: usize, g_avg: f32) -> f32 {
        1.0 / (1.0 + self.r_wire * g_avg * (row + col) as f32)
    }

    /// Mean attenuation factor of the cells `(r0..r1, col)` — the
    /// row-block granularity the integer crossbar path applies drop at:
    /// one factor per (row block, bit line) scales the block's `i32`
    /// partial sum instead of attenuating every cell individually.
    ///
    /// # Panics
    ///
    /// Panics if the row range is empty.
    pub fn mean_factor(&self, r0: usize, r1: usize, col: usize, g_avg: f32) -> f32 {
        assert!(r0 < r1, "empty row block [{r0}, {r1})");
        let sum: f32 = (r0..r1).map(|r| self.factor(r, col, g_avg)).sum();
        sum / (r1 - r0) as f32
    }

    /// Applies position-dependent attenuation to a conductance (or
    /// effective-weight) matrix, returning the array the analog
    /// computation actually realizes.
    ///
    /// # Panics
    ///
    /// Panics if `conductances` is not 2-D.
    pub fn attenuate(&self, conductances: &Tensor) -> Tensor {
        assert_eq!(conductances.ndim(), 2, "IR drop applies to 2-D arrays");
        if self.r_wire == 0.0 {
            return conductances.clone();
        }
        let (rows, cols) = (conductances.shape()[0], conductances.shape()[1]);
        let g_avg = conductances
            .as_slice()
            .iter()
            .map(|v| v.abs())
            .sum::<f32>()
            / conductances.len() as f32;
        let mut out = conductances.clone();
        let data = out.as_mut_slice();
        for r in 0..rows {
            for c in 0..cols {
                data[r * cols + c] *= self.factor(r, c, g_avg);
            }
        }
        out
    }
}

impl Default for IrDropModel {
    /// A mild default (`r_wire = 1e-3`) representative of 128×128 arrays.
    fn default() -> Self {
        IrDropModel { r_wire: 1e-3 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_tensor::SeededRng;

    #[test]
    fn zero_resistance_is_identity() {
        let mut rng = SeededRng::new(1);
        let g = Tensor::randn(&[8, 8], &mut rng);
        assert_eq!(IrDropModel::new(0.0).attenuate(&g), g);
    }

    #[test]
    fn attenuation_monotone_in_distance() {
        let model = IrDropModel::new(0.01);
        let g_avg = 0.5;
        let mut prev = f32::INFINITY;
        for d in 0..20 {
            let f = model.factor(d, 0, g_avg);
            assert!(f < prev, "factor must decrease with distance");
            assert!(f > 0.0 && f <= 1.0);
            prev = f;
        }
    }

    #[test]
    fn near_corner_nearly_ideal() {
        let model = IrDropModel::new(0.005);
        assert_eq!(model.factor(0, 0, 1.0), 1.0);
    }

    #[test]
    fn mean_factor_brackets_block_extremes() {
        let model = IrDropModel::new(0.01);
        let g_avg = 0.5;
        let mean = model.mean_factor(8, 16, 3, g_avg);
        assert!(mean < model.factor(8, 3, g_avg));
        assert!(mean > model.factor(15, 3, g_avg));
        // A one-row block is exactly that row's factor.
        assert_eq!(model.mean_factor(4, 5, 2, g_avg), model.factor(4, 2, g_avg));
    }

    #[test]
    fn larger_arrays_suffer_more() {
        let model = IrDropModel::default();
        // The far corner of each array.
        let small = model.factor(31, 31, 0.5);
        let large = model.factor(255, 255, 0.5);
        assert!(large < small);
    }

    #[test]
    fn attenuate_shrinks_magnitudes_only() {
        let mut rng = SeededRng::new(2);
        let g = Tensor::randn(&[16, 16], &mut rng);
        let out = IrDropModel::new(0.01).attenuate(&g);
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!(b.abs() <= a.abs() + 1e-7, "attenuation must not amplify");
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn higher_resistance_attenuates_more() {
        let g = Tensor::ones(&[32, 32]);
        let mild = IrDropModel::new(1e-4).attenuate(&g);
        let harsh = IrDropModel::new(1e-2).attenuate(&g);
        assert!(harsh.sum() < mild.sum());
    }

    #[test]
    #[should_panic(expected = "invalid wire resistance")]
    fn rejects_negative_resistance() {
        IrDropModel::new(-0.1);
    }
}
