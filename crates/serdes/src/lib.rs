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
