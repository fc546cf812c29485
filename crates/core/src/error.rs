//! The crate-wide error taxonomy: every recoverable failure of the
//! detection and monitoring machinery funnels into [`HealthmonError`].
//!
//! The containment philosophy is that a monitored accelerator must never
//! take the monitor down with it: non-finite activations, invalid
//! policies and corrupted or mismatched checkpoints all surface as values
//! of this type instead of propagating panics or silently-wrong states.

use healthmon_nn::NonFiniteActivation;
use healthmon_serdes::JsonError;
use std::error::Error;
use std::fmt;

/// A recoverable failure of the detection / monitoring machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthmonError {
    /// Serializing or deserializing an artifact (checkpoint, report)
    /// failed.
    Json(JsonError),
    /// A network produced a non-finite activation during a checked
    /// forward pass.
    NonFinite(NonFiniteActivation),
    /// A [`MonitorPolicy`](crate::MonitorPolicy) failed validation.
    InvalidPolicy(String),
    /// A pattern subset was requested outside `1..=len`.
    InvalidTruncation {
        /// The requested subset size.
        requested: usize,
        /// The number of patterns actually available.
        available: usize,
    },
    /// A campaign checkpoint does not match the sweep being resumed
    /// (different criteria, count, or an out-of-range record).
    CheckpointMismatch(String),
    /// A checkpoint file on disk is unreadable, truncated, or fails to
    /// parse — the artifact itself is damaged, as opposed to
    /// [`HealthmonError::CheckpointMismatch`] where a well-formed
    /// checkpoint disagrees with the resume inputs.
    CheckpointCorrupt {
        /// The file that failed to load.
        path: String,
        /// What went wrong (I/O error, parse error, digest mismatch).
        detail: String,
    },
}

impl fmt::Display for HealthmonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthmonError::Json(e) => write!(f, "serialization failed: {e}"),
            HealthmonError::NonFinite(e) => write!(f, "{e}"),
            HealthmonError::InvalidPolicy(message) => write!(f, "{message}"),
            HealthmonError::InvalidTruncation { requested, available } => write!(
                f,
                "cannot take a subset of {requested} patterns from a set of {available} \
                 (valid sizes are 1..={available})"
            ),
            HealthmonError::CheckpointMismatch(message) => {
                write!(f, "checkpoint mismatch: {message}")
            }
            HealthmonError::CheckpointCorrupt { path, detail } => {
                write!(f, "checkpoint `{path}` is corrupt: {detail}")
            }
        }
    }
}

impl Error for HealthmonError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HealthmonError::Json(e) => Some(e),
            HealthmonError::NonFinite(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for HealthmonError {
    fn from(e: JsonError) -> Self {
        HealthmonError::Json(e)
    }
}

impl From<NonFiniteActivation> for HealthmonError {
    fn from(e: NonFiniteActivation) -> Self {
        HealthmonError::NonFinite(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let e = HealthmonError::InvalidTruncation { requested: 9, available: 4 };
        assert!(e.to_string().contains("subset of 9"));
        assert!(e.to_string().contains("1..=4"));
        let e = HealthmonError::CheckpointMismatch("criteria differ".into());
        assert!(e.to_string().contains("criteria differ"));
        let e = HealthmonError::CheckpointCorrupt {
            path: "shard-003.json".into(),
            detail: "unexpected end of input".into(),
        };
        assert!(e.to_string().contains("shard-003.json"));
        assert!(e.to_string().contains("corrupt"));
    }

    #[test]
    fn sources_chain() {
        let e: HealthmonError = JsonError::invalid("bad").into();
        assert!(e.source().is_some());
        let e = HealthmonError::InvalidPolicy("nope".into());
        assert!(e.source().is_none());
    }

    #[test]
    fn conversions_wrap() {
        let e: HealthmonError = NonFiniteActivation { layer: 2 }.into();
        assert!(matches!(e, HealthmonError::NonFinite(_)));
    }
}
