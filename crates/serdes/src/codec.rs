//! Declarative codecs: [`json_codec!`](crate::json_codec) declares a
//! persisted type and implements [`ToJson`](crate::ToJson) /
//! [`FromJson`](crate::FromJson) for it from that one declaration, and the
//! field codecs below cover the two layouts the plain trait impls cannot:
//! [`decimal`] u64s and [`entries`] objects.

/// Declares a persisted type and implements `ToJson` + `FromJson` for it
/// from the same list, so every key and label is spelled exactly once.
///
/// Four shapes, following the usual JSON data model:
///
/// * **Structs** encode as objects, keys in field order. A trailing
///   `check path;` names a `fn(&Self) -> Result<(), JsonError>` run on
///   every decoded value, for invariants that span fields.
/// * **Newtype structs** (`struct S(T);`) encode as their inner value,
///   with the same optional `check`.
/// * **Unit enums** encode as label strings (`Variant = "label"`); the
///   macro also generates `label(self) -> &'static str`.
/// * **Tagged enums** (`enum E by kind { Variant = "label" { fields } }`)
///   encode as one object per value: the tag key first, then the
///   variant's fields. The macro also generates the tag accessor
///   (`fn kind(&self) -> &'static str` for `by kind`).
///
/// A field encodes through its type's own `ToJson`/`FromJson` unless it
/// names a codec module with `as`: `seed: u64 as healthmon_serdes::decimal`
/// (any module with `to_json(&T) -> Json` and
/// `from_json(&Json) -> Result<T, JsonError>`).
///
/// Decoding ignores unknown keys and reports the first missing or
/// mistyped field as a `JsonError`.
///
/// # Example
///
/// ```
/// use healthmon_serdes::{from_str, json_codec, to_string};
///
/// json_codec! {
///     /// A labelled color.
///     #[derive(Debug, Clone, Copy, PartialEq)]
///     pub enum Color {
///         /// Red.
///         Red = "red",
///         /// Blue.
///         Blue = "blue",
///     }
/// }
///
/// json_codec! {
///     /// A painted run.
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct Run {
///         /// Paint used.
///         pub color: Color,
///         /// Seed of the run, past 2^53.
///         pub seed: u64 as healthmon_serdes::decimal,
///     }
/// }
///
/// let run = Run { color: Color::Blue, seed: u64::MAX };
/// let text = to_string(&run);
/// assert_eq!(text, r#"{"color":"blue","seed":"18446744073709551615"}"#);
/// assert_eq!(from_str::<Run>(&text).unwrap(), run);
/// assert_eq!(Color::Red.label(), "red");
/// ```
#[macro_export]
macro_rules! json_codec {
    // One field's value, through its type's codec or a named module.
    (@to $value:expr) => { $crate::ToJson::to_json($value) };
    (@to $value:expr, $($codec:ident)::+) => { $($codec)::+::to_json($value) };
    (@from $ty:ty, $value:expr) => { <$ty as $crate::FromJson>::from_json($value)? };
    (@from $ty:ty, $value:expr, $($codec:ident)::+) => { $($codec)::+::from_json($value)? };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident by $tag:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $label:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $ty:ty $(as $($codec:ident)::+)?
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* } ),*
        }

        impl $name {
            #[doc = concat!("The `", stringify!($tag), "` label this value is persisted under.")]
            $vis fn $tag(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $label ),*
                }
            }
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                let tag = (
                    stringify!($tag).to_owned(),
                    $crate::Json::String(self.$tag().to_owned()),
                );
                match self {
                    $(
                        $name::$variant { $($field),* } => $crate::Json::Object(vec![
                            tag,
                            $( (
                                stringify!($field).to_owned(),
                                $crate::json_codec!(@to $field $(, $($codec)::+)?),
                            ) ),*
                        ]),
                    )*
                }
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match value.field(stringify!($tag))?.as_str()? {
                    $(
                        $label => Ok($name::$variant {
                            $( $field: $crate::json_codec!(
                                @from $ty, value.field(stringify!($field))? $(, $($codec)::+)?
                            ) ),*
                        }),
                    )*
                    other => Err($crate::JsonError::invalid(format!(
                        "unknown {} {} `{other}`",
                        stringify!($name),
                        stringify!($tag)
                    ))),
                }
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant ),*
        }

        impl $name {
            /// Stable lowercase label used by serialized artifacts and reports.
            $vis fn label(self) -> &'static str {
                match self {
                    $( $name::$variant => $label ),*
                }
            }
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::String(self.label().to_owned())
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match value.as_str()? {
                    $( $label => Ok($name::$variant), )*
                    other => Err($crate::JsonError::invalid(format!(
                        "unknown {} `{other}`",
                        stringify!($name)
                    ))),
                }
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $($codec:ident)::+)?
            ),* $(,)?
        }
        $(check $check:path;)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty ),*
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $( (
                        stringify!($field).to_owned(),
                        $crate::json_codec!(@to &self.$field $(, $($codec)::+)?),
                    ) ),*
                ])
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let decoded = $name {
                    $( $field: $crate::json_codec!(
                        @from $ty, value.field(stringify!($field))? $(, $($codec)::+)?
                    ) ),*
                };
                $( $check(&decoded)?; )?
                Ok(decoded)
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident ( $fvis:vis $ty:ty );
        $(check $check:path;)?
    ) => {
        $(#[$meta])*
        $vis struct $name($fvis $ty);

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let decoded = $name($crate::json_codec!(@from $ty, value));
                $( $check(&decoded)?; )?
                Ok(decoded)
            }
        }
    };
}

/// The decimal-string rule for `u64`s that must survive JSON's f64
/// numbers exactly (seeds, digests, virtual-time counters): the value
/// renders as its decimal digits in a string. Plain `u64` fields stay
/// JSON numbers.
pub mod decimal {
    use crate::{Json, JsonError};

    /// Renders `value` as a decimal string.
    pub fn to_json(value: &u64) -> Json {
        Json::String(value.to_string())
    }

    /// Reads a string of decimal digits back into a `u64`.
    ///
    /// # Errors
    ///
    /// A type error for a non-string, and [`JsonError::Invalid`] for a
    /// string that is not a decimal u64 (signs, blanks and overflow
    /// included).
    pub fn from_json(value: &Json) -> Result<u64, JsonError> {
        let text = value.as_str()?;
        match text.parse::<u64>() {
            Ok(n) if text.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
            _ => Err(JsonError::invalid(format!("`{text}` is not a decimal u64"))),
        }
    }
}

/// Ordered `(name, value)` entries encoded as one JSON object whose keys
/// keep their order — tallies and metadata maps.
pub mod entries {
    use crate::{FromJson, Json, JsonError, ToJson};

    /// Renders the entries as an object, in order.
    pub fn to_json<T: ToJson>(entries: &[(String, T)]) -> Json {
        Json::Object(entries.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    /// Reads an object back into its entries, in order.
    ///
    /// # Errors
    ///
    /// A type error when the value is not an object, or the first value
    /// that does not decode as `T`.
    pub fn from_json<T: FromJson>(value: &Json) -> Result<Vec<(String, T)>, JsonError> {
        value.as_object()?.iter().map(|(k, v)| Ok((k.clone(), T::from_json(v)?))).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_str, to_string, JsonError};

    json_codec! {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Phase {
            Warm = "warm",
            Cold = "cold",
        }
    }

    json_codec! {
        #[derive(Debug, Clone, PartialEq)]
        enum Event by kind {
            Started = "started" { at: u64 as crate::decimal },
            Moved = "moved" { phase: Phase, steps: Vec<u32> },
            Stopped = "stopped" {},
        }
    }

    json_codec! {
        #[derive(Debug, Clone, PartialEq)]
        struct Log {
            name: String,
            counts: Vec<(String, u64)> as crate::entries,
            events: Vec<Event>,
        }
        check Log::check;
    }

    impl Log {
        fn check(&self) -> Result<(), JsonError> {
            if self.name.is_empty() {
                return Err(JsonError::invalid("a log needs a name"));
            }
            Ok(())
        }
    }

    json_codec! {
        #[derive(Debug, Clone, PartialEq)]
        struct Even(u32);
        check Even::check;
    }

    impl Even {
        fn check(&self) -> Result<(), JsonError> {
            if self.0 % 2 == 1 {
                return Err(JsonError::invalid("odd"));
            }
            Ok(())
        }
    }

    fn sample() -> Log {
        Log {
            name: "run".into(),
            counts: vec![("b".into(), 2), ("a".into(), 1)],
            events: vec![
                Event::Started { at: u64::MAX },
                Event::Moved { phase: Phase::Cold, steps: vec![3, 1] },
                Event::Stopped {},
            ],
        }
    }

    #[test]
    fn every_shape_round_trips_in_declaration_order() {
        let text = to_string(&sample());
        assert_eq!(
            text,
            "{\"name\":\"run\",\"counts\":{\"b\":2,\"a\":1},\"events\":[\
             {\"kind\":\"started\",\"at\":\"18446744073709551615\"},\
             {\"kind\":\"moved\",\"phase\":\"cold\",\"steps\":[3,1]},\
             {\"kind\":\"stopped\"}]}"
        );
        assert_eq!(from_str::<Log>(&text).unwrap(), sample());
        assert_eq!(to_string(&Even(4)), "4");
        assert_eq!(from_str::<Even>("4").unwrap(), Even(4));
        assert_eq!(Phase::Warm.label(), "warm");
        assert_eq!(sample().events[1].kind(), "moved");
    }

    #[test]
    fn unknown_labels_tags_and_broken_checks_are_errors() {
        assert!(from_str::<Phase>("\"tepid\"").is_err());
        assert!(from_str::<Event>("{\"kind\":\"jumped\"}").is_err());
        assert!(from_str::<Event>("{\"at\":\"1\"}").is_err());
        let nameless = to_string(&sample()).replace("\"run\"", "\"\"");
        assert!(from_str::<Log>(&nameless).is_err());
        assert!(from_str::<Even>("3").is_err());
        // A non-object entries map is a type error, not an empty map.
        let listed = to_string(&sample()).replace("{\"b\":2,\"a\":1}", "[]");
        assert!(matches!(from_str::<Log>(&listed), Err(JsonError::Type { .. })));
    }

    #[test]
    fn decimal_accepts_only_plain_digits() {
        use crate::decimal::from_json;
        let s = |t: &str| crate::Json::String(t.to_owned());
        assert_eq!(from_json(&s("18446744073709551615")).unwrap(), u64::MAX);
        for bad in ["", "+5", "-1", " 7", "1e3", "18446744073709551616", "0x10"] {
            assert!(from_json(&s(bad)).is_err(), "accepted `{bad}`");
        }
        assert!(from_json(&crate::Json::Number(5.0)).is_err());
    }
}
