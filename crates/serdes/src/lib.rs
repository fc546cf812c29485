//! **healthmon-serdes** — a minimal, dependency-free JSON layer for the
//! healthmon workspace.
//!
//! The workspace builds fully offline: no registry crates, no `serde`.
//! Everything the experiments persist — weight snapshots, pattern caches,
//! fault specs, campaign checkpoints — goes through this crate instead.
//! It provides:
//!
//! * [`Json`] — an owned JSON value model (object keys keep insertion
//!   order, so output is deterministic).
//! * [`parse`] / [`Json::render`] — a recursive-descent parser and a
//!   compact writer. Floats are written in shortest round-trip form.
//! * [`ToJson`] / [`FromJson`] — conversion traits with implementations
//!   for the primitives and containers the workspace serializes. `f32`
//!   keeps non-finite values representable (as the strings `"NaN"`,
//!   `"inf"`, `"-inf"`), because fault-injected weights can legitimately
//!   be non-finite and must survive a save/load round trip.
//! * [`json_codec!`] — declares a persisted struct or enum and implements
//!   both traits from that one declaration, with the [`decimal`] codec
//!   for u64s past 2^53 and the [`entries`] codec for ordered maps.
//!
//! # Example
//!
//! ```
//! use healthmon_serdes::{from_str, to_string, FromJson, Json, ToJson};
//!
//! let v: Vec<f32> = vec![1.0, 2.5, f32::NAN];
//! let json = to_string(&v);
//! let back: Vec<f32> = from_str(&json).unwrap();
//! assert_eq!(back[1], 2.5);
//! assert!(back[2].is_nan());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod error;
mod parse;
mod traits;
mod value;

pub use codec::{decimal, entries};
pub use error::JsonError;
pub use parse::parse;
pub use traits::{FromJson, ToJson};
pub use value::Json;

/// Serializes a value to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render()
}

/// Parses a JSON string and converts it to `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] if the text is not valid JSON or does not match
/// the expected schema of `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Serializes a value as JSON to a file.
///
/// # Errors
///
/// Returns a [`JsonError::Io`] if the file cannot be written.
pub fn write_file<T: ToJson + ?Sized>(
    path: impl AsRef<std::path::Path>,
    value: &T,
) -> Result<(), JsonError> {
    std::fs::write(path.as_ref(), to_string(value))
        .map_err(|e| JsonError::Io(format!("{}: {e}", path.as_ref().display())))
}

/// Reads a JSON file and converts it to `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] if the file cannot be read, parsed, or does not
/// match the expected schema.
pub fn read_file<T: FromJson>(path: impl AsRef<std::path::Path>) -> Result<T, JsonError> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| JsonError::Io(format!("{}: {e}", path.as_ref().display())))?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("healthmon_serdes_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.json");
        let v: Vec<(String, f32)> = vec![("a".into(), 1.5), ("b".into(), -2.0)];
        write_file(&path, &v).unwrap();
        let back: Vec<(String, f32)> = read_file(&path).unwrap();
        assert_eq!(v, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let r: Result<Vec<f32>, JsonError> = read_file("/nonexistent/healthmon.json");
        assert!(matches!(r, Err(JsonError::Io(_))));
    }
}
