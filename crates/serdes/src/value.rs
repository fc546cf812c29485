//! The owned JSON value model and its compact writer.

use crate::error::JsonError;
use std::fmt::Write as _;

/// An owned JSON value.
///
/// Objects are stored as ordered `(key, value)` pairs rather than a hash
/// map so rendering is deterministic: the same value always produces the
/// same bytes, which the campaign-checkpoint and artifact-cache code rely
/// on for reproducible diffs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => render_number(*n, out),
            Json::String(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// The value as a number, or a type error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Type`] if the value is not a number.
    pub fn as_number(&self) -> Result<f64, JsonError> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(JsonError::type_error("number", other)),
        }
    }

    /// The value as a string slice, or a type error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Type`] if the value is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(JsonError::type_error("string", other)),
        }
    }

    /// The value as a bool, or a type error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Type`] if the value is not a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::type_error("bool", other)),
        }
    }

    /// The value as an array slice, or a type error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Type`] if the value is not an array.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(JsonError::type_error("array", other)),
        }
    }

    /// The value as object fields, or a type error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Type`] if the value is not an object.
    pub fn as_object(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(JsonError::type_error("object", other)),
        }
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Type`] if the value is not an object and
    /// [`JsonError::MissingField`] if the key is absent.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        let fields = self.as_object()?;
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError::MissingField(key.to_owned()))
    }
}

/// JSON forbids non-finite numbers; the `f32`/`f64` codecs in `traits`
/// never pass them here, but a hand-built `Json::Number(NaN)` must still
/// render to *something* parseable, so it degrades to `null`.
fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 && !(n == 0.0 && n.is_sign_negative()) {
        // -0.0 falls through to the float path so its sign survives the
        // round trip.
        // Integral values print without a fraction (`3` not `3.0`),
        // matching what serde_json produced for integer fields.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a JSON string literal. Each run of bytes that needs no
/// escape is copied whole; the bytes that do are all ASCII, so every run
/// ends on a char boundary.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_check::run_cases;

    /// The string writer before runs were copied whole: one char at a
    /// time. The property test pins `render_string` to it.
    fn render_string_reference(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn string_runs_render_like_the_scalar_reference() {
        // Every control char, the two escaped printables, DEL, plain
        // ASCII and 2- to 4-byte scalars.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '\u{7f}', 'a', 'Z', '0', ' ', '/', '{']);
        alphabet.extend(['é', '€', '\u{2028}', '😀']);
        run_cases(2048, |g| {
            let len = g.usize_in(0, 48);
            let s: String = (0..len).map(|_| alphabet[g.usize_in(0, alphabet.len())]).collect();
            let (mut fast, mut reference) = (String::from("x"), String::from("x"));
            render_string(&s, &mut fast);
            render_string_reference(&s, &mut reference);
            assert_eq!(fast, reference, "rendering {s:?}");
            assert_eq!(crate::parse(&fast[1..]), Ok(Json::String(s)), "round trip of {fast:?}");
        });
    }

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Number(3.0).render(), "3");
        assert_eq!(Json::Number(2.5).render(), "2.5");
        assert_eq!(Json::String("hi".into()).render(), "\"hi\"");
    }

    #[test]
    fn renders_containers_deterministically() {
        let v = Json::Object(vec![
            ("b".into(), Json::Number(1.0)),
            ("a".into(), Json::Array(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[null,false]}");
        assert_eq!(v.render(), v.clone().render());
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::String("a\"b\\c\nd".into()).render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::String("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_number_degrades_to_null() {
        assert_eq!(Json::Number(f64::NAN).render(), "null");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null");
    }

    #[test]
    fn accessors_enforce_types() {
        assert!(Json::Null.as_number().is_err());
        assert_eq!(Json::Number(4.0).as_number().unwrap(), 4.0);
        assert_eq!(Json::String("x".into()).as_str().unwrap(), "x");
        assert!(Json::Bool(true).as_array().is_err());
        let obj = Json::Object(vec![("k".into(), Json::Number(1.0))]);
        assert_eq!(obj.field("k").unwrap().as_number().unwrap(), 1.0);
        assert!(matches!(obj.field("missing"), Err(JsonError::MissingField(_))));
    }
}
