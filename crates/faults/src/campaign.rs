//! Fault campaigns: statistical fleets of fault models derived from one
//! golden network.
//!
//! The paper reports detection rates averaged over 100 fault models per
//! error level; [`FaultCampaign`] reproduces that protocol with exact
//! per-index determinism, and [`par_map_models`] fans evaluation out
//! across threads.

use crate::FaultModel;
use healthmon_nn::Network;
use healthmon_tensor::{pool, SeededRng};
use healthmon_telemetry as tel;

// Sweep shape (how many models were evaluated) is part of the campaign
// spec, so these are Stable regardless of how chunks land on threads.
static CAMPAIGN_SWEEPS: tel::Counter =
    tel::Counter::new("campaign.sweeps", tel::Stability::Stable);
static CAMPAIGN_MODELS: tel::Counter =
    tel::Counter::new("campaign.models_evaluated", tel::Stability::Stable);

/// A generator of faulty copies of a golden network.
///
/// Fault model `i` of a campaign is always identical for the same
/// `(golden weights, campaign seed, fault spec, i)` regardless of how many
/// other models were generated or in what order — each index derives its
/// own RNG stream.
#[derive(Debug, Clone)]
pub struct FaultCampaign<'a> {
    golden: &'a Network,
    seed: u64,
}

impl<'a> FaultCampaign<'a> {
    /// Creates a campaign over `golden` with the given seed.
    pub fn new(golden: &'a Network, seed: u64) -> Self {
        FaultCampaign { golden, seed }
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The RNG stream for fault-model `index`.
    fn stream(&self, index: usize) -> SeededRng {
        SeededRng::new(self.seed).fork(index as u64)
    }

    /// Builds fault model `index`: a clone of the golden network with
    /// `fault` applied under the index's own RNG stream.
    pub fn model(&self, fault: &FaultModel, index: usize) -> Network {
        let mut net = self.golden.clone();
        let mut rng = self.stream(index);
        fault.apply(&mut net, &mut rng);
        net
    }

    /// Iterates over the first `count` fault models.
    pub fn models<'b>(
        &'b self,
        fault: &'b FaultModel,
        count: usize,
    ) -> impl Iterator<Item = Network> + 'b {
        (0..count).map(move |i| self.model(fault, i))
    }
}

/// The number of worker threads to use for `len` independent items,
/// derived from the process-wide cached budget
/// ([`healthmon_tensor::pool::max_threads`]).
fn auto_threads(len: usize) -> usize {
    pool::max_threads().min(len.max(1))
}

/// Evaluates `f` on the fault models named by `indices`, using exactly
/// `threads` worker threads (clamped to `[1, indices.len()]`), returning
/// results in the order of `indices`.
///
/// This is the engine under every `par_map_*` entry point; exposed so
/// resumable campaign drivers can evaluate an arbitrary remainder set.
/// Determinism matches [`FaultCampaign::model`]: the result for index `i`
/// depends only on `(golden, fault, seed, i)`, never on `threads`.
pub fn par_map_indices_with_threads<T, F>(
    golden: &Network,
    fault: &FaultModel,
    seed: u64,
    indices: &[usize],
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Network) -> T + Sync,
{
    let threads = threads.clamp(1, indices.len().max(1));
    let campaign = FaultCampaign::new(golden, seed);
    let mut results: Vec<Option<T>> = (0..indices.len()).map(|_| None).collect();
    if results.is_empty() {
        return Vec::new();
    }
    CAMPAIGN_SWEEPS.inc();
    CAMPAIGN_MODELS.add(indices.len() as u64);
    let _sweep_span = tel::span("campaign.sweep");
    let chunk = indices.len().div_ceil(threads);
    pool::run_chunks(&mut results, chunk, |ci, slots| {
        let idx_chunk = &indices[ci * chunk..ci * chunk + slots.len()];
        // One scratch network per chunk: cloned once, then re-derived per
        // index by copying the golden parameters in place. Every index
        // sees the same reset (params = golden, grads = 0) regardless of
        // its position in the chunk, so results are independent of chunk
        // boundaries and thread count. Evaluation closures must not read
        // state they did not produce (see the determinism contract in
        // DESIGN.md).
        let mut scratch: Option<Network> = None;
        for (&i, slot) in idx_chunk.iter().zip(slots.iter_mut()) {
            let net = match scratch.as_mut() {
                Some(net) => {
                    net.copy_params_from(golden);
                    net
                }
                None => scratch.insert(golden.clone()),
            };
            net.zero_grads();
            let mut rng = campaign.stream(i);
            fault.apply(net, &mut rng);
            *slot = Some(f(i, net));
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index was evaluated"))
        .collect()
}

/// [`par_map_indices_with_threads`] with an automatic thread count.
pub fn par_map_indices<T, F>(
    golden: &Network,
    fault: &FaultModel,
    seed: u64,
    indices: &[usize],
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Network) -> T + Sync,
{
    par_map_indices_with_threads(golden, fault, seed, indices, auto_threads(indices.len()), f)
}

/// Evaluates `f` on `count` fault models in parallel, returning results in
/// index order.
///
/// `f` receives the fault-model index and a mutable reference to that
/// index's faulty network (mutable because inference through
/// [`Network::forward`] caches activations).
///
/// Determinism matches [`FaultCampaign::model`]: the result for index `i`
/// does not depend on thread count.
pub fn par_map_models<T, F>(
    golden: &Network,
    fault: &FaultModel,
    seed: u64,
    count: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Network) -> T + Sync,
{
    par_map_models_with_threads(golden, fault, seed, count, auto_threads(count), f)
}

/// [`par_map_models`] with an explicit worker-thread count (clamped to
/// `[1, count]`) — for determinism tests and for callers that must bound
/// their parallelism.
pub fn par_map_models_with_threads<T, F>(
    golden: &Network,
    fault: &FaultModel,
    seed: u64,
    count: usize,
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Network) -> T + Sync,
{
    let indices: Vec<usize> = (0..count).collect();
    par_map_indices_with_threads(golden, fault, seed, &indices, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_tensor::Tensor;

    fn golden() -> Network {
        let mut rng = SeededRng::new(1);
        tiny_mlp(4, 8, 3, &mut rng)
    }

    fn weights(net: &Network) -> Vec<f32> {
        let mut v = Vec::new();
        net.for_each_param(|_, t| v.extend_from_slice(t.as_slice()));
        v
    }

    #[test]
    fn model_index_is_deterministic() {
        let g = golden();
        let c = FaultCampaign::new(&g, 5);
        let fault = FaultModel::ProgrammingVariation { sigma: 0.2 };
        let a = c.model(&fault, 3);
        let b = c.model(&fault, 3);
        assert_eq!(weights(&a), weights(&b));
    }

    #[test]
    fn different_indices_differ() {
        let g = golden();
        let c = FaultCampaign::new(&g, 5);
        let fault = FaultModel::ProgrammingVariation { sigma: 0.2 };
        assert_ne!(weights(&c.model(&fault, 0)), weights(&c.model(&fault, 1)));
    }

    #[test]
    fn different_seeds_differ() {
        let g = golden();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.2 };
        let a = FaultCampaign::new(&g, 1).model(&fault, 0);
        let b = FaultCampaign::new(&g, 2).model(&fault, 0);
        assert_ne!(weights(&a), weights(&b));
    }

    #[test]
    fn golden_model_unchanged_by_campaign() {
        let g = golden();
        let before = weights(&g);
        let c = FaultCampaign::new(&g, 5);
        let _ = c
            .models(&FaultModel::RandomSoftError { probability: 0.5 }, 4)
            .collect::<Vec<_>>();
        assert_eq!(before, weights(&g));
    }

    #[test]
    fn par_map_matches_sequential() {
        let g = golden();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let x = Tensor::ones(&[4]);
        let seq: Vec<f32> = FaultCampaign::new(&g, 9)
            .models(&fault, 8)
            .map(|mut net| net.forward_single(&x).sum())
            .collect();
        let par = par_map_models(&g, &fault, 9, 8, |_, net| net.forward_single(&x).sum());
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_preserves_index_order() {
        let g = golden();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.1 };
        let idx = par_map_models(&g, &fault, 0, 13, |i, _| i);
        assert_eq!(idx, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_zero_count_is_empty() {
        let g = golden();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.1 };
        let out: Vec<usize> = par_map_models(&g, &fault, 0, 0, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = golden();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.25 };
        let x = Tensor::ones(&[4]);
        let runs: Vec<Vec<u32>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                par_map_models_with_threads(&g, &fault, 13, 11, threads, |_, net| {
                    net.forward_single(&x).sum().to_bits()
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1], "2 threads diverged from sequential");
        assert_eq!(runs[0], runs[2], "8 threads diverged from sequential");
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_indices() {
        // A sparse fault touches few weights per index, so any incomplete
        // scratch reset between consecutive indices of a chunk would leave
        // the previous model's corruption behind. Compare against fresh
        // clones at several thread counts (= several chunk geometries).
        let g = golden();
        let fault = FaultModel::RandomSoftError { probability: 0.02 };
        let x = Tensor::ones(&[4]);
        let fresh: Vec<u32> = FaultCampaign::new(&g, 77)
            .models(&fault, 12)
            .map(|mut net| net.forward_single(&x).sum().to_bits())
            .collect();
        for threads in [1usize, 2, 5, 12] {
            let reused = par_map_models_with_threads(&g, &fault, 77, 12, threads, |_, net| {
                net.forward_single(&x).sum().to_bits()
            });
            assert_eq!(fresh, reused, "scratch reuse leaked state at {threads} threads");
        }
    }

    #[test]
    fn par_map_indices_matches_full_sweep() {
        let g = golden();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.2 };
        let x = Tensor::ones(&[4]);
        let full = par_map_models(&g, &fault, 21, 10, |_, net| {
            net.forward_single(&x).sum().to_bits()
        });
        let subset = [7usize, 2, 9];
        let partial = par_map_indices(&g, &fault, 21, &subset, |_, net| {
            net.forward_single(&x).sum().to_bits()
        });
        for (&i, &v) in subset.iter().zip(&partial) {
            assert_eq!(full[i], v, "index {i} differs between full and partial sweeps");
        }
    }
}
