//! The incident flight recorder: self-contained postmortem artifacts
//! dumped when a device suffers a [`crate::FleetIncident`], is
//! quarantined, or parks.
//!
//! A fleet report tells an operator *that* device 0042 was quarantined;
//! the flight record tells them *why*: the last lifetime events leading
//! up to the incident, the recent health-timeline window, the checkup
//! pipeline structure, and the deterministic per-device tallies — all in
//! one `incident-<device>-<epoch>.json` written via
//! [`crate::store::write_atomic`], so a crash mid-dump never leaves a
//! torn artifact.
//!
//! # Determinism contract
//!
//! Every field is derived from *device-local, epoch-keyed* state. The
//! artifact deliberately excludes wall-clock measurements (span
//! durations, histogram contents): those are scheduling-dependent and
//! would break the guarantee that CI relies on — the same fleet run
//! produces byte-identical flight records across reruns and at any
//! `HEALTHMON_THREADS` setting. Live latency data is served by the
//! metrics exporter instead (`healthmon-telemetry::export`). The
//! structural phase list ([`CHECKUP_PHASES`]) stands in for the span
//! tree: it names the pipeline stages whose per-phase histograms the
//! exporter publishes.
//!
//! Each record carries the fleet/lifetime config digest (so a postmortem
//! can be matched to the exact run configuration) and is sealed like a
//! fleet shard: a final FNV-1a digest over its own stored bytes. The
//! [`std::str::FromStr`] impl refuses artifacts whose digest does not
//! match, turning silent corruption into a loud parse error.

use crate::digest::{envelope, seal, unseal};
use crate::error::HealthmonError;
use crate::runtime::LifetimeEvent;
use crate::store;
use healthmon_serdes::{FromJson, JsonError};
use healthmon_telemetry::TimelinePoint;
use std::path::{Path, PathBuf};

/// Artifact format tag; bump on layout changes.
pub const FLIGHT_FORMAT: &str = "healthmon-flight-record-v1";

/// The checkup pipeline stages, in execution order. Matches the
/// `phase.*` latency histograms published by the telemetry exporter.
pub const CHECKUP_PHASES: [&str; 6] =
    ["dac", "accumulate", "adc", "detector", "diagnose", "repair"];

/// How many trailing lifetime events a record embeds.
pub const FLIGHT_EVENT_WINDOW: usize = 24;

/// How many trailing timeline points a record embeds.
pub const FLIGHT_TIMELINE_WINDOW: usize = 32;

healthmon_serdes::json_codec! {
    /// One self-contained postmortem artifact. See the module docs for the
    /// determinism contract.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FlightRecord {
        /// Fleet device id (0 for single-device lifetime runs).
        pub device: u32,
        /// Virtual epoch the trigger fired at.
        pub epoch: u64,
        /// Trigger class: an incident kind label, `quarantine`, or `park`.
        pub reason: String,
        /// Human-readable trigger description.
        pub detail: String,
        /// Digest of the run configuration the device was operating under.
        pub config_digest: u64 as healthmon_serdes::decimal,
        /// Last-N lifetime events, oldest first.
        pub events: Vec<LifetimeEvent>,
        /// Recent health-timeline window, oldest first.
        pub timeline: Vec<TimelinePoint>,
        /// Checkup pipeline stages, in execution order.
        pub phases: Vec<String>,
        /// Deterministic per-device tallies (`name`, `value`), in insertion
        /// order.
        pub tallies: Vec<(String, u64)> as healthmon_serdes::entries,
    }
}

impl FlightRecord {
    /// Starts a record with the common header fields and the static
    /// phase list; callers append events, timeline, and tallies.
    pub fn new(device: u32, epoch: u64, reason: &str, detail: &str, config_digest: u64) -> Self {
        FlightRecord {
            device,
            epoch,
            reason: reason.to_owned(),
            detail: detail.to_owned(),
            config_digest,
            events: Vec::new(),
            timeline: Vec::new(),
            phases: CHECKUP_PHASES.iter().map(|p| (*p).to_owned()).collect(),
            tallies: Vec::new(),
        }
    }

    /// Appends one `(name, value)` tally.
    pub fn push_tally(&mut self, name: &str, value: u64) {
        self.tallies.push((name.to_owned(), value));
    }

    /// Renders the artifact, sealed by its self-digest: FNV-1a over its
    /// stored bytes up to the final `digest` field.
    pub fn render(&self) -> String {
        seal(envelope(FLIGHT_FORMAT, &[self]))
    }

    /// Canonical artifact file name: `incident-<device>-<epoch>.json`.
    pub fn file_name(device: u32, epoch: u64) -> String {
        format!("incident-{device:04}-{epoch}.json")
    }

    /// Atomically writes the artifact into `dir`, returning its path.
    ///
    /// # Errors
    ///
    /// Any I/O error from [`store::write_atomic`].
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(Self::file_name(self.device, self.epoch));
        store::write_atomic(&path, self.render().as_bytes())?;
        Ok(path)
    }

    /// One-line operator summary, used by `healthmon flight`.
    pub fn summary(&self) -> String {
        format!(
            "device {:04} epoch {}: {} — {} (events={}, timeline={}, tallies={})",
            self.device,
            self.epoch,
            self.reason,
            self.detail,
            self.events.len(),
            self.timeline.len(),
            self.tallies.len(),
        )
    }
}

impl std::str::FromStr for FlightRecord {
    type Err = HealthmonError;

    /// Parses and digest-verifies an artifact produced by
    /// [`FlightRecord::render`].
    ///
    /// # Errors
    ///
    /// [`HealthmonError::Json`] on malformed JSON, an unknown format
    /// tag, or an embedded digest that does not match the payload.
    fn from_str(text: &str) -> Result<FlightRecord, HealthmonError> {
        let value = unseal(text)?;
        let format = value.field("format")?.as_str()?;
        if format != FLIGHT_FORMAT {
            return Err(JsonError::invalid(format!(
                "unknown flight-record format `{format}` (expected `{FLIGHT_FORMAT}`)"
            ))
            .into());
        }
        Ok(FlightRecord::from_json(&value)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn sample() -> FlightRecord {
        let mut r = FlightRecord::new(42, 7, "quarantine", "3 offenses", 12345);
        r.events.push(LifetimeEvent::Diagnosed { epoch: 6, suspect: "layer0.weight".into() });
        r.timeline.push(TimelinePoint {
            epoch: 6,
            state: "watch".into(),
            accuracy: 0.75,
            score: 0.125,
            repairs: 1,
            scrubs: 0,
            retries: 2,
        });
        r.push_tally("offenses", 3);
        r.push_tally("retries", 5);
        r
    }

    #[test]
    fn render_parse_round_trips_and_verifies() {
        let r = sample();
        let text = r.render();
        let back = FlightRecord::from_str(&text).unwrap();
        assert_eq!(back, r);
        // Rendering is deterministic: same record, same bytes.
        assert_eq!(back.render(), text);
        assert!(back.summary().contains("device 0042 epoch 7: quarantine"));
    }

    #[test]
    fn tampered_artifact_is_rejected() {
        let text = sample().render().replace("3 offenses", "2 offenses");
        let err = FlightRecord::from_str(&text).unwrap_err();
        assert!(err.to_string().contains("digest mismatch"), "got: {err}");
    }

    #[test]
    fn unknown_format_is_rejected() {
        let text = sample().render().replace(FLIGHT_FORMAT, "flight-v999");
        assert!(FlightRecord::from_str(&text).is_err());
    }

    #[test]
    fn write_lands_under_the_canonical_name() {
        let dir = std::env::temp_dir().join("healthmon_flight_write");
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample().write(&dir).unwrap();
        assert!(path.ends_with("incident-0042-7.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        FlightRecord::from_str(&text).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
