//! Layer drills: a network's matmuls run one by one through an engine
//! the benchmark assembles itself, so each mapped layer can be timed.
//!
//! [`MappedEngine`] programs every conductance-mapped weight as its own
//! [`TiledMatrix`], in the order and orientation `AnalogBackend` uses, and
//! ages it the same way. Its logits must equal the backend's bit for bit,
//! which makes it the reference the `checkup_analog` verdicts are checked
//! against, as well as the probe behind the `reram.layer.*` metrics.

use healthmon_nn::{MatmulEngine, MatmulOrientation, Network};
use healthmon_reram::{CellFault, CrossbarConfig, TiledMatrix};
use healthmon_tensor::{SeededRng, Tensor};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every mapped weight of a network on its own tiled crossbar matrix.
pub struct MappedEngine {
    layers: BTreeMap<String, (TiledMatrix, MatmulOrientation)>,
}

impl MappedEngine {
    /// Programs `net` as `AnalogBackend::program` does: parameters in
    /// state-dict order from one RNG stream, `WX` weights transposed.
    pub fn program(net: &Network, config: &CrossbarConfig, rng: &mut SeededRng) -> MappedEngine {
        let mut orientations = BTreeMap::new();
        for (i, layer) in net.layers().iter().enumerate() {
            for (name, o) in layer.matmuls() {
                orientations.insert(format!("layer{i}.{name}"), o);
            }
        }
        let mut layers = BTreeMap::new();
        net.for_each_param(|key, tensor| {
            let Some(&o) = orientations.get(key) else {
                return;
            };
            let oriented = match o {
                MatmulOrientation::XW => tensor.clone(),
                MatmulOrientation::WX => tensor.transpose(),
            };
            layers.insert(
                key.to_owned(),
                (TiledMatrix::program(&oriented, config, rng), o),
            );
        });
        MappedEngine { layers }
    }

    /// Drift, then stuck-low cells, each over the layers in key order from
    /// one RNG stream, as the backend's own mutators walk them.
    pub fn age(&mut self, nu: f32, time: f32, stuck_fraction: f64, rng: &mut SeededRng) {
        for (m, _) in self.layers.values_mut() {
            m.drift(nu, time, rng);
        }
        for (m, _) in self.layers.values_mut() {
            m.inject_stuck_cells(CellFault::StuckLow, stuck_fraction, rng);
        }
    }
}

impl MatmulEngine for MappedEngine {
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        match self.layers.get(key) {
            Some((m, _)) => m.matmul(x),
            None => x.matmul(w),
        }
    }

    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        match self.layers.get(key) {
            Some((m, _)) => m.matmul(&x.transpose()).transpose(),
            None => w.matmul(x),
        }
    }
}

/// Wraps an engine and accumulates per-key call counts and wall time, in
/// the order the layers first run.
pub struct Timed<E> {
    inner: E,
    times: RefCell<Vec<(String, u64, f64)>>,
}

impl<E: MatmulEngine> Timed<E> {
    pub fn new(inner: E) -> Timed<E> {
        Timed {
            inner,
            times: RefCell::new(Vec::new()),
        }
    }

    fn record(&self, key: &str, f: impl FnOnce() -> Tensor) -> Tensor {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        let mut times = self.times.borrow_mut();
        match times.iter_mut().find(|(k, _, _)| k == key) {
            Some((_, calls, secs)) => {
                *calls += 1;
                *secs += dt;
            }
            None => times.push((key.to_owned(), 1, dt)),
        }
        out
    }

    /// Mean microseconds per call, by weight key.
    pub fn mean_us(&self) -> Vec<(String, f64)> {
        self.times
            .borrow()
            .iter()
            .map(|(key, calls, secs)| (key.clone(), secs * 1e6 / *calls as f64))
            .collect()
    }
}

impl<E: MatmulEngine> MatmulEngine for Timed<E> {
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        self.record(key, || self.inner.matmul_xw(key, x, w))
    }

    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        self.record(key, || self.inner.matmul_wx(key, w, x))
    }
}

/// Runs `reps` inferences of `input` through `engine` timed per layer.
/// Returns the per-layer means and the logits of the last pass.
pub fn time_layers<E: MatmulEngine>(
    net: &Network,
    input: &Tensor,
    engine: E,
    reps: usize,
) -> (Vec<(String, f64)>, Tensor) {
    let timed = Timed::new(engine);
    let mut logits = net.infer_with(input, &timed);
    for _ in 1..reps {
        logits = net.infer_with(input, &timed);
    }
    (timed.mean_us(), logits)
}
