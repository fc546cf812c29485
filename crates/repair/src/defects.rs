//! Defect maps: where the stuck cells are.

use healthmon_tensor::{SeededRng, Tensor};

healthmon_serdes::json_codec! {
    /// One stuck cell in a 2-D weight matrix.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct StuckCell {
        /// Matrix row (word line).
        pub row: usize,
        /// Matrix column (bit line).
        pub col: usize,
        /// The weight value the cell is frozen at (0 for stuck-at-zero,
        /// ±w_max for stuck-at-one under differential mapping).
        pub value: f32,
    }
}

healthmon_serdes::json_codec! {
    /// The defect map of one crossbar-mapped weight matrix: which cells are
    /// stuck, and at what effective weight value. Persisted as the bare
    /// cell list.
    ///
    /// In deployment this comes from march-style array testing; for
    /// experiments it is sampled synthetically with
    /// [`DefectMap::sample_for_matrix`].
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct DefectMap(Vec<StuckCell>);
}

impl DefectMap {
    /// Creates a defect map from an explicit cell list.
    pub fn new(cells: Vec<StuckCell>) -> Self {
        DefectMap(cells)
    }

    /// Samples a defect map for `weights` (`[rows, cols]`): each cell is
    /// independently stuck with probability `rate`, half stuck-at-zero
    /// and half stuck-at-±max (sign random).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 2-D or `rate` is outside `[0, 1]`.
    pub fn sample_for_matrix(weights: &Tensor, rate: f64, rng: &mut SeededRng) -> Self {
        assert_eq!(weights.ndim(), 2, "defect maps describe 2-D matrices");
        assert!((0.0..=1.0).contains(&rate), "defect rate {rate} outside [0, 1]");
        let (rows, cols) = (weights.shape()[0], weights.shape()[1]);
        let w_max = weights.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let mut cells = Vec::new();
        for row in 0..rows {
            for col in 0..cols {
                if rng.chance(rate) {
                    let value = if rng.chance(0.5) {
                        0.0
                    } else if rng.chance(0.5) {
                        w_max
                    } else {
                        -w_max
                    };
                    cells.push(StuckCell { row, col, value });
                }
            }
        }
        DefectMap(cells)
    }

    /// The stuck cells.
    pub fn cells(&self) -> &[StuckCell] {
        &self.0
    }

    /// Number of stuck cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is defect-free.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Stuck cells on physical row `row`.
    pub fn cells_in_row(&self, row: usize) -> impl Iterator<Item = &StuckCell> {
        self.0.iter().filter(move |c| c.row == row)
    }

    /// Stuck cells on physical column `col`.
    pub fn cells_in_col(&self, col: usize) -> impl Iterator<Item = &StuckCell> {
        self.0.iter().filter(move |c| c.col == col)
    }

    /// Applies the defects to a copy of `weights` under the identity
    /// (logical row r on physical row r) assignment: every stuck cell
    /// overrides the stored weight.
    ///
    /// # Panics
    ///
    /// Panics if a defect lies outside the matrix.
    pub fn apply(&self, weights: &Tensor) -> Tensor {
        self.apply_with_assignment(weights, &identity(weights.shape()[0]))
    }

    /// Applies the defects with an explicit logical→physical row
    /// assignment: `assignment[logical]` is the physical row the logical
    /// row is programmed onto; stuck cells live at *physical* positions.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not a permutation of the row count or
    /// a defect lies outside the matrix.
    pub fn apply_with_assignment(&self, weights: &Tensor, assignment: &[usize]) -> Tensor {
        assert_eq!(weights.ndim(), 2, "defects apply to 2-D matrices");
        let (rows, cols) = (weights.shape()[0], weights.shape()[1]);
        assert_eq!(assignment.len(), rows, "assignment must cover every row");
        let mut seen = vec![false; rows];
        for &p in assignment {
            assert!(p < rows && !seen[p], "assignment must be a permutation");
            seen[p] = true;
        }
        // physical -> logical inverse map
        let mut logical_of = vec![0usize; rows];
        for (logical, &physical) in assignment.iter().enumerate() {
            logical_of[physical] = logical;
        }
        let mut out = weights.clone();
        for cell in &self.0 {
            assert!(cell.row < rows && cell.col < cols, "defect outside matrix");
            let logical = logical_of[cell.row];
            *out.at_mut(&[logical, cell.col]) = cell.value;
        }
        out
    }

    /// Total |Δw| the defects inflict on `weights` under an assignment —
    /// the objective the remapper minimizes.
    pub fn damage(&self, weights: &Tensor, assignment: &[usize]) -> f32 {
        let damaged = self.apply_with_assignment(weights, assignment);
        weights.l1_distance(&damaged)
    }
}

/// The identity row assignment.
pub(crate) fn identity(rows: usize) -> Vec<usize> {
    (0..rows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_rate_roughly_respected() {
        let mut rng = SeededRng::new(1);
        let w = Tensor::randn(&[40, 40], &mut rng);
        let map = DefectMap::sample_for_matrix(&w, 0.1, &mut rng);
        let frac = map.len() as f64 / 1600.0;
        assert!((0.05..0.15).contains(&frac), "defect fraction {frac}");
    }

    #[test]
    fn apply_overrides_only_stuck_cells() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let map = DefectMap::new(vec![StuckCell { row: 0, col: 1, value: 0.0 }]);
        let damaged = map.apply(&w);
        assert_eq!(damaged.as_slice(), &[1.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn assignment_moves_defects_between_logical_rows() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let map = DefectMap::new(vec![StuckCell { row: 0, col: 0, value: 0.0 }]);
        // Logical row 0 on physical row 1, logical 1 on physical 0:
        // the defect at physical (0,0) now hits logical row 1.
        let damaged = map.apply_with_assignment(&w, &[1, 0]);
        assert_eq!(damaged.as_slice(), &[1.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn damage_is_zero_without_defects() {
        let mut rng = SeededRng::new(2);
        let w = Tensor::randn(&[5, 5], &mut rng);
        let map = DefectMap::default();
        assert_eq!(map.damage(&w, &identity(5)), 0.0);
        assert!(map.is_empty());
    }

    #[test]
    fn damage_depends_on_assignment() {
        // Defect at physical (0, 0); logical weights: row 0 has a huge
        // value at col 0, row 1 a tiny one.
        let w = Tensor::from_vec(vec![10.0, 0.0, 0.1, 0.0], &[2, 2]).unwrap();
        let map = DefectMap::new(vec![StuckCell { row: 0, col: 0, value: 0.0 }]);
        let bad = map.damage(&w, &[0, 1]); // big weight sits on defect
        let good = map.damage(&w, &[1, 0]); // small weight sits on defect
        assert!(bad > good);
        assert!((bad - 10.0).abs() < 1e-6);
        assert!((good - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_non_permutation_assignment() {
        let w = Tensor::zeros(&[2, 2]);
        DefectMap::default().apply_with_assignment(&w, &[0, 0]);
    }
}
