//! The JSON error type shared by parsing and conversion.

use crate::value::Json;
use std::error::Error;
use std::fmt;

/// An error from JSON parsing or conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not valid JSON.
    Parse {
        /// Byte offset of the error in the input.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A value had the wrong JSON type for the target.
    Type {
        /// The type the target expected.
        expected: &'static str,
        /// The type actually found.
        found: &'static str,
    },
    /// An object was missing a required field.
    MissingField(String),
    /// A value was structurally valid JSON but semantically out of range
    /// for the target (e.g. a negative count, an unknown enum tag).
    Invalid(String),
}

impl JsonError {
    /// Convenience constructor for "expected X, found Y" mismatches;
    /// usable by downstream `FromJson` impls as well.
    pub fn type_error(expected: &'static str, found: &Json) -> Self {
        JsonError::Type { expected, found: found.type_name() }
    }

    /// Convenience constructor for semantic errors.
    pub fn invalid(message: impl Into<String>) -> Self {
        JsonError::Invalid(message.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Type { expected, found } => {
                write!(f, "expected JSON {expected}, found {found}")
            }
            JsonError::MissingField(key) => write!(f, "missing JSON field `{key}`"),
            JsonError::Invalid(message) => write!(f, "invalid JSON value: {message}"),
        }
    }
}

impl Error for JsonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let e = JsonError::Parse { offset: 12, message: "unexpected `}`".into() };
        assert!(e.to_string().contains("byte 12"));
        assert!(JsonError::MissingField("shape".into()).to_string().contains("`shape`"));
        assert!(JsonError::Type { expected: "array", found: "null" }
            .to_string()
            .contains("expected JSON array"));
    }
}
