//! Resumable fault campaigns: a [`CampaignCheckpoint`] records which fault
//! models of a detection sweep have been evaluated and what each one's
//! per-criterion verdicts were, so an interrupted 100-model campaign can
//! resume exactly where it stopped.
//!
//! Because fault model `i` depends only on `(golden weights, seed, fault,
//! i)` — never on evaluation order or thread count — a resumed sweep is
//! bit-identical to an uninterrupted one. Checkpoints serialize through
//! `healthmon-serdes`, keeping the artifact format dependency-free.

use crate::error::HealthmonError;
use crate::metrics::SdcCriterion;
use healthmon_serdes::JsonError;

healthmon_serdes::json_codec! {
    /// The saved state of a partially-evaluated detection campaign.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CampaignCheckpoint {
        /// Seeds are full 64-bit values, hence the decimal-string rule.
        seed: u64 as healthmon_serdes::decimal,
        count: usize,
        /// Criterion labels, recorded so a resume with *different* criteria is
        /// rejected instead of silently mixing verdict columns.
        criteria: Vec<String>,
        /// Completed `(model index, per-criterion verdicts)` rows, sorted by
        /// index.
        rows: Vec<(usize, Vec<bool>)>,
    }
    check CampaignCheckpoint::check_rows;
}

impl CampaignCheckpoint {
    /// Starts an empty checkpoint for a sweep of `count` fault models
    /// under `seed`, evaluated against `criteria`.
    pub fn new(seed: u64, count: usize, criteria: &[SdcCriterion]) -> Self {
        CampaignCheckpoint {
            seed,
            count,
            criteria: criteria.iter().map(SdcCriterion::label).collect(),
            rows: Vec::new(),
        }
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The total number of fault models in the sweep.
    pub fn count(&self) -> usize {
        self.count
    }

    /// How many fault models have been evaluated so far.
    pub fn completed(&self) -> usize {
        self.rows.len()
    }

    /// Whether every fault model has been evaluated.
    pub fn is_complete(&self) -> bool {
        self.rows.len() == self.count
    }

    /// The indices still to be evaluated, ascending.
    pub fn remaining(&self) -> Vec<usize> {
        let done: Vec<usize> = self.rows.iter().map(|(i, _)| *i).collect();
        (0..self.count).filter(|i| !done.contains(i)).collect()
    }

    /// Verifies that `criteria` are the ones this checkpoint was started
    /// with.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::CheckpointMismatch`] on any difference.
    pub fn verify_criteria(&self, criteria: &[SdcCriterion]) -> Result<(), HealthmonError> {
        let labels: Vec<String> = criteria.iter().map(SdcCriterion::label).collect();
        if labels != self.criteria {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "checkpoint was recorded for criteria {:?}, resume requested {:?}",
                self.criteria, labels
            )));
        }
        Ok(())
    }

    /// Records the verdicts for fault model `index`.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::CheckpointMismatch`] if `index` is out of range
    /// or already recorded, or the verdict row has the wrong width.
    pub fn record(&mut self, index: usize, verdicts: Vec<bool>) -> Result<(), HealthmonError> {
        if index >= self.count {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "model index {index} out of range for a {}-model sweep",
                self.count
            )));
        }
        if verdicts.len() != self.criteria.len() {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "verdict row has {} entries, expected {} criteria",
                verdicts.len(),
                self.criteria.len()
            )));
        }
        match self.rows.binary_search_by_key(&index, |(i, _)| *i) {
            Ok(_) => Err(HealthmonError::CheckpointMismatch(format!(
                "model index {index} already recorded"
            ))),
            Err(pos) => {
                self.rows.insert(pos, (index, verdicts));
                Ok(())
            }
        }
    }

    /// Per-criterion detection rates over the *completed* rows, as a
    /// fraction of the full sweep size. Equal to the final rates once
    /// [`is_complete`](Self::is_complete) holds.
    pub fn rates(&self) -> Vec<f32> {
        if self.count == 0 {
            return vec![0.0; self.criteria.len()];
        }
        (0..self.criteria.len())
            .map(|ci| {
                self.rows.iter().filter(|(_, v)| v[ci]).count() as f32 / self.count as f32
            })
            .collect()
    }

    /// Serializes the checkpoint to a JSON string.
    pub fn to_json_string(&self) -> String {
        healthmon_serdes::to_string(self)
    }

    /// Deserializes a checkpoint from a JSON string.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::Json`] if the text is not a valid checkpoint.
    pub fn from_json_str(text: &str) -> Result<Self, HealthmonError> {
        Ok(healthmon_serdes::from_str(text)?)
    }

    /// Writes the checkpoint to `path` atomically (temp + fsync +
    /// rename, see [`crate::store::write_atomic`]): a kill mid-save
    /// leaves the previous complete checkpoint, never a torn file.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::CheckpointCorrupt`] carrying the path on any
    /// I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), HealthmonError> {
        let path = path.as_ref();
        crate::store::write_atomic(path, self.to_json_string().as_bytes()).map_err(|e| {
            HealthmonError::CheckpointCorrupt {
                path: path.display().to_string(),
                detail: e.to_string(),
            }
        })
    }

    /// Loads a checkpoint from `path`, reporting unreadable or
    /// unparseable files as [`HealthmonError::CheckpointCorrupt`] with
    /// the offending path.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::CheckpointCorrupt`] when the file is missing,
    /// unreadable, truncated, or fails to parse.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, HealthmonError> {
        let path = path.as_ref();
        let text = crate::store::read_checkpoint(path)?;
        Self::from_json_str(&text).map_err(|e| crate::store::mark_corrupt(path, e))
    }
}

impl CampaignCheckpoint {
    /// Load-time invariant: every row in range, one verdict per
    /// criterion, sorted by index without duplicates.
    fn check_rows(&self) -> Result<(), JsonError> {
        let mut last: Option<usize> = None;
        for (i, v) in &self.rows {
            if *i >= self.count {
                return Err(JsonError::invalid(format!(
                    "checkpoint row index {i} out of range for count {}",
                    self.count
                )));
            }
            if v.len() != self.criteria.len() {
                return Err(JsonError::invalid(format!(
                    "checkpoint row {i} has {} verdicts, expected {}",
                    v.len(),
                    self.criteria.len()
                )));
            }
            if last.is_some_and(|p| p >= *i) {
                return Err(JsonError::invalid(
                    "checkpoint rows must be sorted by index without duplicates",
                ));
            }
            last = Some(*i);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criteria() -> Vec<SdcCriterion> {
        vec![SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }]
    }

    #[test]
    fn fresh_checkpoint_has_everything_remaining() {
        let cp = CampaignCheckpoint::new(7, 5, &criteria());
        assert_eq!(cp.remaining(), vec![0, 1, 2, 3, 4]);
        assert!(!cp.is_complete());
        assert_eq!(cp.rates(), vec![0.0, 0.0]);
    }

    #[test]
    fn recording_shrinks_the_remainder() {
        let mut cp = CampaignCheckpoint::new(7, 3, &criteria());
        cp.record(1, vec![true, false]).unwrap();
        assert_eq!(cp.remaining(), vec![0, 2]);
        cp.record(0, vec![true, true]).unwrap();
        cp.record(2, vec![false, false]).unwrap();
        assert!(cp.is_complete());
        assert_eq!(cp.rates(), vec![2.0 / 3.0, 1.0 / 3.0]);
    }

    #[test]
    fn record_rejects_bad_rows() {
        let mut cp = CampaignCheckpoint::new(7, 3, &criteria());
        assert!(cp.record(3, vec![true, true]).is_err());
        assert!(cp.record(0, vec![true]).is_err());
        cp.record(0, vec![true, true]).unwrap();
        assert!(cp.record(0, vec![true, true]).is_err());
    }

    #[test]
    fn verify_criteria_catches_a_swap() {
        let cp = CampaignCheckpoint::new(7, 3, &criteria());
        assert!(cp.verify_criteria(&criteria()).is_ok());
        let other = vec![SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.05 }];
        assert!(cp.verify_criteria(&other).is_err());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut cp = CampaignCheckpoint::new(u64::MAX - 3, 4, &criteria());
        cp.record(2, vec![true, false]).unwrap();
        cp.record(0, vec![false, false]).unwrap();
        let restored = CampaignCheckpoint::from_json_str(&cp.to_json_string()).unwrap();
        assert_eq!(restored, cp);
        // u64 seeds beyond 2^53 survive (stored as a decimal string).
        assert_eq!(restored.seed(), u64::MAX - 3);
    }

    #[test]
    fn save_and_load_round_trip_and_report_corruption() {
        let dir = std::env::temp_dir().join("healthmon_campaign_cp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        let mut cp = CampaignCheckpoint::new(5, 3, &criteria());
        cp.record(1, vec![true, false]).unwrap();
        cp.save(&path).unwrap();
        assert_eq!(CampaignCheckpoint::load(&path).unwrap(), cp);
        // Truncate mid-file: load must report the damaged path, not a
        // context-free parse error.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match CampaignCheckpoint::load(&path).unwrap_err() {
            HealthmonError::CheckpointCorrupt { path: p, .. } => {
                assert!(p.contains("campaign.json"));
            }
            other => panic!("expected CheckpointCorrupt, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_json_rejects_corruption() {
        let cp = CampaignCheckpoint::new(1, 2, &criteria());
        let good = cp.to_json_string();
        // Out-of-range row index.
        let bad = good.replace("\"rows\":[]", "\"rows\":[[9,[true,true]]]");
        assert!(CampaignCheckpoint::from_json_str(&bad).is_err());
        // Non-numeric seed.
        let bad = good.replace("\"seed\":\"1\"", "\"seed\":\"xyz\"");
        assert!(CampaignCheckpoint::from_json_str(&bad).is_err());
    }
}
