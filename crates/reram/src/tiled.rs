//! Tiled mapping of arbitrary weight matrices onto fixed-geometry
//! crossbar tiles.

use crate::crossbar::{record_dac, DacGrid, ExecState, IntState, INT_PAR_THRESHOLD};
use crate::crossbar::{PHASE_ACCUMULATE_NS, PHASE_DAC_NS};
use crate::{CellFault, Crossbar, CrossbarConfig, IrDropModel, ScrubOutcome};
use healthmon_tensor::{pool, SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::time::Instant;

// Tile mapping is a pure function of matrix shape and tile geometry, so
// utilization counters are Stable. Utilization itself is derived at
// report time as cells_used / cells_allocated.
static TILES_MAPPED: tel::Counter = tel::Counter::new("reram.tile.mapped", tel::Stability::Stable);
static TILE_CELLS_USED: tel::Counter =
    tel::Counter::new("reram.tile.cells_used", tel::Stability::Stable);
static TILE_CELLS_ALLOCATED: tel::Counter =
    tel::Counter::new("reram.tile.cells_allocated", tel::Stability::Stable);
static TILE_UTILIZATION_MIN: tel::Gauge =
    tel::Gauge::new("reram.tile.utilization_min", tel::Stability::Stable);

/// Patches per sweep of the column-layout product: a sweep's codes for
/// one 32-word-line block (16 KB) and a conv tile's accumulators stay in
/// L1 while every tile of the grid reads them.
const COL_CHUNK: usize = 256;

/// A weight matrix `[m, n]` partitioned across a grid of crossbar tiles.
///
/// Row blocks map to word-line groups and column blocks to bit-line
/// groups; a product accumulates the partial bit-line sums of every tile
/// in a row block, exactly as ISAAC-class accelerators sum partial
/// products across arrays.
///
/// # Example
///
/// ```
/// use healthmon_reram::{CrossbarConfig, TiledMatrix};
/// use healthmon_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let w = Tensor::randn(&[300, 50], &mut rng); // larger than one 128x128 tile
/// let tiled = TiledMatrix::program(&w, &CrossbarConfig::ideal(), &mut rng);
/// assert_eq!(tiled.tile_grid(), (3, 1));
/// let x = Tensor::randn(&[1, 300], &mut rng);
/// assert_eq!(tiled.matmul(&x).shape(), &[1, 50]);
/// ```
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    rows: usize,
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
    /// Tiles in row-major grid order.
    tiles: Vec<Crossbar>,
}

impl TiledMatrix {
    /// Programs `weights` (`[m, n]`) across as many tiles as the config
    /// geometry requires.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 2-D or the config is invalid.
    pub fn program(weights: &Tensor, config: &CrossbarConfig, rng: &mut SeededRng) -> Self {
        config.validate();
        assert_eq!(weights.ndim(), 2, "tiled mapping requires a 2-D matrix");
        let (m, n) = (weights.shape()[0], weights.shape()[1]);
        let grid_r = m.div_ceil(config.rows);
        let grid_c = n.div_ceil(config.cols);
        let mut tiles = Vec::with_capacity(grid_r * grid_c);
        for br in 0..grid_r {
            let r0 = br * config.rows;
            let r1 = (r0 + config.rows).min(m);
            for bc in 0..grid_c {
                let c0 = bc * config.cols;
                let c1 = (c0 + config.cols).min(n);
                let mut block = Tensor::zeros(&[r1 - r0, c1 - c0]);
                {
                    let src = weights.as_slice();
                    let dst = block.as_mut_slice();
                    let bw = c1 - c0;
                    for r in r0..r1 {
                        dst[(r - r0) * bw..(r - r0 + 1) * bw]
                            .copy_from_slice(&src[r * n + c0..r * n + c1]);
                    }
                }
                if tel::enabled() {
                    let used = ((r1 - r0) * (c1 - c0)) as u64;
                    let allocated = (config.rows * config.cols) as u64;
                    TILES_MAPPED.inc();
                    TILE_CELLS_USED.add(used);
                    TILE_CELLS_ALLOCATED.add(allocated);
                    TILE_UTILIZATION_MIN.set_min(used as f64 / allocated as f64);
                }
                tiles.push(Crossbar::program(&block, config, rng));
            }
        }
        TiledMatrix { rows: m, cols: n, tile_rows: grid_r, tile_cols: grid_c, tiles }
    }

    /// Logical matrix dimensions `[m, n]`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of tile blocks `(row_blocks, col_blocks)`.
    pub fn tile_grid(&self) -> (usize, usize) {
        (self.tile_rows, self.tile_cols)
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Shared access to every tile in row-major grid order.
    pub fn tiles(&self) -> &[Crossbar] {
        &self.tiles
    }

    /// The effective weight matrix the tiles actually store.
    pub fn effective_weights(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        let (row_extent, col_extent) = (self.tile_rows_extent(), self.tile_cols_extent());
        let o = out.as_mut_slice();
        for br in 0..self.tile_rows {
            for bc in 0..self.tile_cols {
                let block = self.tiles[br * self.tile_cols + bc].effective_weights();
                let bw = block.shape()[1];
                let rows = block.as_slice().chunks_exact(bw.max(1));
                for (r, src) in rows.enumerate() {
                    let dst = (br * row_extent + r) * self.cols + bc * col_extent;
                    o[dst..dst + bw].copy_from_slice(src);
                }
            }
        }
        out
    }

    fn tile_rows_extent(&self) -> usize {
        self.tiles[0].rows()
    }

    fn tile_cols_extent(&self) -> usize {
        // First tile of the first row block has the full column extent
        // unless there is a single, narrower block.
        self.tiles[0].cols()
    }

    /// Crossbar-backed matrix product `X·W` for a batch `X` of shape
    /// `[batch, m]`, returning `[batch, n]`.
    ///
    /// One product per tile against its cached conductance state — not
    /// `batch` single-row sweeps. On the integer path the whole batch is
    /// quantized once and runs [`TiledMatrix::matmul_cols`]'s kernel on
    /// its codes transposed to `[m + 1, batch]`, the batch padded to whole
    /// vector blocks whose padding is never folded, ADC-quantized or
    /// counted. Partial bit-line sums accumulate across row blocks in
    /// ascending grid order, the same per-element order a single-row
    /// product uses, so a one-row batch returns bit for bit that row of
    /// any larger batch.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not 2-D with `m` columns.
    pub fn matmul(&self, input: &Tensor) -> Tensor {
        self.matmul_in(&self.execs(), input)
    }

    /// Every tile's execution state, fetched once per product: each tile
    /// use counts one cache lookup.
    pub(crate) fn execs(&self) -> Vec<&ExecState> {
        self.tiles.iter().map(Crossbar::exec).collect()
    }

    /// The DAC grid every tile shares (all tiles are programmed from one
    /// config) and each tile's integer state, or `None` when a tile lacks
    /// integer state.
    pub(crate) fn int_states<'e>(
        &self,
        execs: &[&'e ExecState],
    ) -> Option<(DacGrid, Vec<&'e IntState>)> {
        let grid = self.tiles[0].dac_grid()?;
        let ints = execs.iter().map(|exec| exec.int.as_ref()).collect::<Option<Vec<_>>>()?;
        Some((grid, ints))
    }

    /// [`TiledMatrix::matmul`] against execution states already fetched.
    pub(crate) fn matmul_in(&self, execs: &[&ExecState], input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 2, "batched matmul expects 2-D input");
        assert_eq!(input.shape()[1], self.rows, "inner dimension mismatch");
        let batch = input.shape()[0];
        // Integer fast path: when every tile shares one DAC grid and has
        // integer state, the whole input quantizes to DAC codes ONCE and
        // every tile reads its word lines' rows of the transposed codes in
        // place. A NaN input instead goes tile by tile below, so tiles
        // whose word lines saw no NaN still take the integer path.
        if let Some((grid, ints)) = self.int_states(execs) {
            let t_dac = tel::enabled().then(Instant::now);
            if let Some((codes, lanes)) = grid.dense_codes_for(input.as_slice(), batch, self.rows)
            {
                PHASE_DAC_NS.record_since(t_dac);
                if tel::enabled() {
                    record_dac(input.as_slice());
                }
                return self.int_matmul_cols(&grid, &ints, &codes, lanes, batch).transpose();
            }
        }
        let x = input.as_slice();
        let row_extent = self.tiles[0].rows();
        let col_extent = self.tiles[0].cols();
        let mut out = Tensor::zeros(&[batch, self.cols]);
        let mut seg = Vec::new();
        for br in 0..self.tile_rows {
            let r0 = br * row_extent;
            for bc in 0..self.tile_cols {
                let tile = &self.tiles[br * self.tile_cols + bc];
                let c0 = bc * col_extent;
                // Word-line segment for this row block: input columns
                // [r0, r0 + tile.rows()) of every batch row.
                seg.clear();
                for b in 0..batch {
                    seg.extend_from_slice(&x[b * self.rows + r0..b * self.rows + r0 + tile.rows()]);
                }
                let seg_t = Tensor::from_vec(std::mem::take(&mut seg), &[batch, tile.rows()])
                    .expect("segment shape matches tile rows");
                let partial = tile.matmul_in(execs[br * self.tile_cols + bc], &seg_t);
                seg = seg_t.into_vec(); // reclaim the buffer for the next tile
                let p = partial.as_slice();
                let o = out.as_mut_slice();
                // The first row block ASSIGNS instead of accumulating into
                // the zero-initialized output: 0.0 + (−0.0) would flip a
                // negative-zero partial sum to +0.0 and break the
                // bit-identity of the single-tile case with the plain GEMM.
                if br == 0 {
                    for b in 0..batch {
                        for j in 0..tile.cols() {
                            o[b * self.cols + c0 + j] = p[b * tile.cols() + j];
                        }
                    }
                } else {
                    for b in 0..batch {
                        for j in 0..tile.cols() {
                            o[b * self.cols + c0 + j] += p[b * tile.cols() + j];
                        }
                    }
                }
            }
        }
        out
    }

    /// Column-layout crossbar product `Wᵀ·C` for a matrix `C` of shape
    /// `[m, patches]` whose columns are the inputs, returning
    /// `[n, patches]` — a convolution's `W·col(x)` with `Wᵀ` programmed on
    /// the tiles, without transposing `col(x)` in or the result out.
    ///
    /// Bit-identical to `self.matmul(&c.transpose()).transpose()`: on the
    /// integer path every output is the same exact integer sum, folded and
    /// ADC-quantized by the same arithmetic, with partial sums across row
    /// blocks added in the same order. Without an integer path (converters
    /// off, cells too fine for codes) or with a NaN in `C`, it runs exactly
    /// that transposed product.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not 2-D with `m` rows.
    pub fn matmul_cols(&self, c: &Tensor) -> Tensor {
        self.matmul_cols_in(&self.execs(), c)
    }

    /// [`TiledMatrix::matmul_cols`] against execution states already
    /// fetched.
    pub(crate) fn matmul_cols_in(&self, execs: &[&ExecState], c: &Tensor) -> Tensor {
        assert_eq!(c.ndim(), 2, "column-layout product expects [m, patches]");
        assert_eq!(c.shape()[0], self.rows, "inner dimension mismatch");
        if let Some((grid, ints)) = self.int_states(execs) {
            let t_dac = tel::enabled().then(Instant::now);
            if let Some(mut codes) = grid.centered_codes_for(c.as_slice()) {
                // The spare row an odd last word line pairs with.
                codes.resize(codes.len() + c.shape()[1], grid.centered_zero());
                PHASE_DAC_NS.record_since(t_dac);
                if tel::enabled() {
                    record_dac(c.as_slice());
                }
                return self.int_matmul_cols(&grid, &ints, &codes, c.shape()[1], c.shape()[1]);
            }
        }
        self.matmul_in(execs, &c.transpose()).transpose()
    }

    /// The integer column-layout product over centered DAC codes (see
    /// `DacGrid::centered_codes_for`) laid out `[m + 1, stride]`, the last
    /// row a spare for an odd last word line to pair with, of which the
    /// first `patches` columns are outputs: [`Crossbar::int_cols`] on
    /// every tile per sweep of patches, partial sums across row blocks
    /// added in ascending grid order, the first row block assigning (as
    /// in [`TiledMatrix::matmul`]). The kernel also runs the columns past
    /// `patches`, up to whole 16-lane blocks, where the rows have room; it
    /// never folds them. Above the integer-path threshold the patches
    /// split across the pool; every output is computed whole by one thread
    /// in a fixed order, so results are bit-identical at any thread count.
    pub(crate) fn int_matmul_cols(
        &self,
        grid: &DacGrid,
        ints: &[&IntState],
        codes: &[i16],
        stride: usize,
        patches: usize,
    ) -> Tensor {
        assert!(
            patches <= stride && codes.len() == (self.rows + 1) * stride,
            "column codes shape mismatch"
        );
        let t_acc = tel::enabled().then(Instant::now);
        let n = self.cols;
        let threads = if patches * self.rows * n < INT_PAR_THRESHOLD {
            1
        } else {
            pool::max_threads().min(patches.div_ceil(COL_CHUNK)).max(1)
        };
        let mut out = vec![0.0f32; n * patches];
        if threads <= 1 {
            self.cols_range(grid, ints, codes, stride, 0, &mut out);
        } else {
            // Part k holds the `[n, width]` outputs of patches
            // `[k·per, k·per + width)`; the parts are then laid side by side.
            let per = patches.div_ceil(threads).next_multiple_of(16);
            let mut parts = vec![0.0f32; n * patches];
            pool::run_chunks(&mut parts, n * per, |k, part| {
                self.cols_range(grid, ints, codes, stride, k * per, part);
            });
            for (k, part) in parts.chunks(n * per).enumerate() {
                let width = part.len() / n;
                for (row, src) in out.chunks_exact_mut(patches).zip(part.chunks_exact(width)) {
                    row[k * per..k * per + width].copy_from_slice(src);
                }
            }
        }
        PHASE_ACCUMULATE_NS.record_since(t_acc);
        Tensor::from_vec(out, &[n, patches]).expect("column product shape is consistent")
    }

    /// Outputs of patches `[p0, p0 + width)` into `out` (`[n, width]`),
    /// from codes whose rows are `stride` patches long.
    fn cols_range(
        &self,
        grid: &DacGrid,
        ints: &[&IntState],
        codes: &[i16],
        stride: usize,
        p0: usize,
        out: &mut [f32],
    ) {
        let width = out.len() / self.cols;
        let row_extent = self.tiles[0].rows();
        let col_extent = self.tiles[0].cols();
        let most = COL_CHUNK.min(width).next_multiple_of(16);
        let mut acc = vec![0i32; col_extent * most];
        let mut tile_out = vec![0.0f32; col_extent * most];
        for c0 in (0..width).step_by(COL_CHUNK) {
            let w = COL_CHUNK.min(width - c0);
            // Whole 16-lane blocks where the code rows have room.
            let lanes = w.next_multiple_of(16).min(stride - p0 - c0);
            for (k, tile) in self.tiles.iter().enumerate() {
                let (br, bc) = (k / self.tile_cols, k % self.tile_cols);
                let x = &codes[br * row_extent * stride + p0 + c0..];
                let acc = &mut acc[..tile.cols() * lanes];
                let tile_out = &mut tile_out[..tile.cols() * w];
                tile.int_cols(ints[k], grid, x, stride, lanes, acc, tile_out);
                for (j, part) in tile_out.chunks_exact(w).enumerate() {
                    let o = &mut out[(bc * col_extent + j) * width + c0..][..w];
                    if br == 0 {
                        o.copy_from_slice(part);
                    } else {
                        for (o, &v) in o.iter_mut().zip(part) {
                            *o += v;
                        }
                    }
                }
            }
        }
    }

    /// Injects stuck cells into every tile.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn inject_stuck_cells(&mut self, fault: CellFault, fraction: f64, rng: &mut SeededRng) {
        for tile in &mut self.tiles {
            tile.inject_stuck_cells(fault, fraction, rng);
        }
    }

    /// Applies lognormal conductance disturbance to every tile.
    pub fn disturb(&mut self, sigma: f32, rng: &mut SeededRng) {
        for tile in &mut self.tiles {
            tile.disturb(sigma, rng);
        }
    }

    /// Flips cells with probability `probability` in every tile (one
    /// continuous RNG stream in row-major grid order; see
    /// [`Crossbar::flip_cells`]). Returns the total flipped cell count.
    pub fn flip_cells(&mut self, probability: f64, rng: &mut SeededRng) -> usize {
        let mut flipped = 0usize;
        for tile in &mut self.tiles {
            flipped += tile.flip_cells(probability, rng);
        }
        flipped
    }

    /// Enables online parity tolerance on every tile.
    pub fn enable_parity(&mut self) {
        for tile in &mut self.tiles {
            tile.enable_parity();
        }
    }

    /// Re-baselines the parity checksums of every tile.
    pub fn refresh_parity(&mut self) {
        for tile in &mut self.tiles {
            tile.refresh_parity();
        }
    }

    /// Scrubs every tile against its parity checksums, merging outcomes.
    pub fn scrub_parity(&mut self) -> ScrubOutcome {
        let mut outcome = ScrubOutcome::default();
        for tile in &mut self.tiles {
            outcome.merge(tile.scrub_parity());
        }
        outcome
    }

    /// Applies conductance drift toward the high-resistance state to every
    /// tile (see [`Crossbar::drift`]).
    pub fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng) {
        for tile in &mut self.tiles {
            tile.drift(nu, time, rng);
        }
    }

    /// Applies the first-order IR-drop model to every tile.
    pub fn apply_ir_drop(&mut self, model: &IrDropModel) {
        for tile in &mut self.tiles {
            tile.apply_ir_drop(model);
        }
    }

    /// Freezes the differential pair at logical matrix position
    /// `(row, col)` to read as `weight` (see [`Crossbar::stick_cell`]).
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are outside the logical matrix.
    pub fn stick_cell(&mut self, row: usize, col: usize, weight: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row}, {col}) outside {}x{} matrix",
            self.rows,
            self.cols
        );
        let row_extent = self.tile_rows_extent();
        let col_extent = self.tile_cols_extent();
        let (br, bc) = (row / row_extent, col / col_extent);
        let tile = &mut self.tiles[br * self.tile_cols + bc];
        tile.stick_cell(row % row_extent, col % col_extent, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tile_matches_crossbar() {
        let mut rng = SeededRng::new(1);
        let w = Tensor::randn(&[10, 6], &mut rng);
        let tiled = TiledMatrix::program(&w, &CrossbarConfig::ideal(), &mut rng);
        assert_eq!(tiled.tile_count(), 1);
        let x = Tensor::randn(&[1, 10], &mut rng);
        let ideal = x.matmul(&w);
        let got = tiled.matmul(&x);
        assert_eq!(got.shape(), &[1, 6]);
        for (a, b) in got.as_slice().iter().zip(ideal.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn multi_tile_partition_and_accumulate() {
        let mut rng = SeededRng::new(2);
        // 130x140 over 128x128 tiles -> 2x2 grid.
        let w = Tensor::randn(&[130, 140], &mut rng);
        let tiled = TiledMatrix::program(&w, &CrossbarConfig::ideal(), &mut rng);
        assert_eq!(tiled.tile_grid(), (2, 2));
        assert_eq!(tiled.tile_count(), 4);
        let x = Tensor::randn(&[1, 130], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let ideal = x.matmul(&w);
        let got = tiled.matmul(&x);
        let rel = got.l1_distance(&ideal) / ideal.norm_l1().max(1e-6);
        assert!(rel < 1e-3, "tiled matvec relative error {rel}");
    }

    #[test]
    fn small_tiles_stress_partitioning() {
        let mut rng = SeededRng::new(3);
        let config = CrossbarConfig { rows: 4, cols: 3, ..CrossbarConfig::ideal() };
        let w = Tensor::randn(&[10, 8], &mut rng);
        let tiled = TiledMatrix::program(&w, &config, &mut rng);
        assert_eq!(tiled.tile_grid(), (3, 3));
        let x = Tensor::randn(&[1, 10], &mut rng);
        let ideal = x.matmul(&w);
        let got = tiled.matmul(&x);
        for (a, b) in got.as_slice().iter().zip(ideal.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn batched_matmul_matches_rows() {
        let mut rng = SeededRng::new(4);
        let w = Tensor::randn(&[6, 5], &mut rng);
        let tiled = TiledMatrix::program(&w, &CrossbarConfig::ideal(), &mut rng);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let batch = tiled.matmul(&x);
        for b in 0..3 {
            let single = tiled.matmul(&x.row(b).reshape(&[1, 6]).unwrap());
            assert_eq!(batch.row(b).reshape(&[1, 5]).unwrap(), single);
        }
    }

    #[test]
    fn quantized_batched_matmul_matches_rows() {
        // The integer fast path must give a one-row batch bit for bit the
        // matching row of a larger one, on a multi-tile default
        // (quantized) config.
        let mut rng = SeededRng::new(40);
        let w = Tensor::randn(&[130, 140], &mut rng);
        let tiled = TiledMatrix::program(&w, &CrossbarConfig::default(), &mut rng);
        assert_eq!(tiled.tile_grid(), (2, 2));
        let x = Tensor::randn(&[3, 130], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let batch = tiled.matmul(&x);
        for b in 0..3 {
            let single = tiled.matmul(&x.row(b).reshape(&[1, 130]).unwrap());
            assert_eq!(batch.row(b).reshape(&[1, 140]).unwrap(), single);
        }
    }

    #[test]
    fn quantized_fast_path_matches_per_tile_execution() {
        // Quantize-once must agree bit for bit with gathering each tile's
        // f32 segment and letting the tile quantize it itself — DAC codes
        // are a pure per-element function, so the two routes see identical
        // codes.
        let mut rng = SeededRng::new(41);
        let config = CrossbarConfig { rows: 32, cols: 24, ..CrossbarConfig::default() };
        let w = Tensor::randn(&[70, 50], &mut rng);
        let tiled = TiledMatrix::program(&w, &config, &mut rng);
        let x = Tensor::randn(&[4, 70], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let fast = tiled.matmul(&x);

        let batch = 4;
        let xs = x.as_slice();
        let mut reference = Tensor::zeros(&[batch, tiled.cols]);
        for br in 0..tiled.tile_rows {
            let r0 = br * config.rows;
            for bc in 0..tiled.tile_cols {
                let tile = &tiled.tiles[br * tiled.tile_cols + bc];
                let c0 = bc * config.cols;
                let mut seg = Vec::new();
                for b in 0..batch {
                    seg.extend_from_slice(&xs[b * tiled.rows + r0..b * tiled.rows + r0 + tile.rows()]);
                }
                let seg_t = Tensor::from_vec(seg, &[batch, tile.rows()]).unwrap();
                let partial = tile.matmul(&seg_t);
                let p = partial.as_slice();
                let o = reference.as_mut_slice();
                for b in 0..batch {
                    for j in 0..tile.cols() {
                        if br == 0 {
                            o[b * tiled.cols + c0 + j] = p[b * tile.cols() + j];
                        } else {
                            o[b * tiled.cols + c0 + j] += p[b * tile.cols() + j];
                        }
                    }
                }
            }
        }
        assert_eq!(fast, reference);
    }

    #[test]
    fn nan_input_poisons_quantized_output() {
        // NaN cannot be represented as a DAC code; the fast path must bail
        // to the f32 reference path, which propagates the poison.
        let mut rng = SeededRng::new(42);
        let w = Tensor::randn(&[10, 6], &mut rng);
        let tiled = TiledMatrix::program(&w, &CrossbarConfig::default(), &mut rng);
        let mut x = vec![0.5f32; 10];
        x[3] = f32::NAN;
        let out = tiled.matmul(&Tensor::from_vec(x, &[1, 10]).unwrap());
        assert!(out.as_slice().iter().all(|v| v.is_nan()), "NaN must poison the output row");
    }

    #[test]
    fn effective_weights_round_trip() {
        let mut rng = SeededRng::new(5);
        let config = CrossbarConfig { rows: 4, cols: 4, ..CrossbarConfig::ideal() };
        let w = Tensor::randn(&[7, 9], &mut rng);
        let tiled = TiledMatrix::program(&w, &config, &mut rng);
        let back = tiled.effective_weights();
        assert_eq!(back.shape(), w.shape());
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn exact_single_tile_matmul_is_bitwise_digital() {
        let mut rng = SeededRng::new(7);
        let w = Tensor::randn(&[30, 12], &mut rng);
        let config = CrossbarConfig { rows: 64, cols: 64, ..CrossbarConfig::exact() };
        let tiled = TiledMatrix::program(&w, &config, &mut rng);
        assert_eq!(tiled.tile_count(), 1);
        let x = Tensor::randn(&[5, 30], &mut rng);
        assert_eq!(tiled.matmul(&x), x.matmul(&w));
    }

    #[test]
    fn stick_cell_routes_to_the_right_tile() {
        let mut rng = SeededRng::new(8);
        let config = CrossbarConfig { rows: 4, cols: 3, ..CrossbarConfig::exact() };
        let w = Tensor::randn(&[10, 8], &mut rng);
        let mut tiled = TiledMatrix::program(&w, &config, &mut rng);
        // Positions spanning different tile blocks, including ragged edges.
        for &(r, c) in &[(0usize, 0usize), (5, 4), (9, 7), (3, 6)] {
            tiled.stick_cell(r, c, 0.125);
            let back = tiled.effective_weights();
            assert!(
                (back.at(&[r, c]) - 0.125).abs() < 1e-6,
                "stuck weight missing at ({r}, {c}): {}",
                back.at(&[r, c])
            );
        }
    }

    #[test]
    fn drift_and_ir_drop_reach_every_tile() {
        let mut rng = SeededRng::new(9);
        let config = CrossbarConfig { rows: 4, cols: 4, ..CrossbarConfig::ideal() };
        let w = Tensor::full(&[8, 8], 0.5);
        let mut drifted = TiledMatrix::program(&w, &config, &mut rng);
        let before = drifted.effective_weights().norm_l1();
        drifted.drift(0.5, 3.0, &mut rng);
        let back = drifted.effective_weights();
        assert!(back.norm_l1() < before, "drift did not shrink the tiled matrix");
        assert!(back.as_slice().iter().all(|&v| (0.0..=0.5 + 1e-5).contains(&v)));

        let mut dropped = TiledMatrix::program(&w, &config, &mut rng);
        dropped.apply_ir_drop(&IrDropModel::new(0.05));
        let back = dropped.effective_weights();
        // Every tile's far corner is attenuated below its origin cell.
        for br in 0..2 {
            for bc in 0..2 {
                let origin = back.at(&[br * 4, bc * 4]);
                let corner = back.at(&[br * 4 + 3, bc * 4 + 3]);
                assert!(corner < origin, "tile ({br},{bc}) not attenuated: {corner} vs {origin}");
            }
        }
    }

    #[test]
    fn stuck_cells_degrade_accuracy_of_product() {
        let mut rng = SeededRng::new(6);
        let w = Tensor::randn(&[20, 10], &mut rng);
        let mut tiled = TiledMatrix::program(&w, &CrossbarConfig::ideal(), &mut rng);
        let x = Tensor::randn(&[1, 20], &mut rng);
        let clean = tiled.matmul(&x);
        tiled.inject_stuck_cells(CellFault::StuckLow, 0.3, &mut rng);
        let faulty = tiled.matmul(&x);
        assert!(clean.l1_distance(&faulty) > 0.01);
    }
}
