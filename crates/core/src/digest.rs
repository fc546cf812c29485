//! FNV-1a digests and the envelope of persisted state.
//!
//! Lifetime checkpoints, fleet shards and flight-recorder artifacts open
//! with a `format` tag ([`envelope`]); checkpoints and shards then carry
//! the [`Identity`] of the inputs they were written under. Shards and
//! flight records are [`seal`]ed: a final `digest` over their own stored
//! bytes, which [`unseal`] checks before anything is trusted. Every
//! digest is a u64 written with the decimal-string rule.

use crate::error::HealthmonError;
use crate::patterns::TestPatternSet;
use healthmon_nn::Network;
use healthmon_serdes::{decimal, parse, FromJson, Json, JsonError, ToJson};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(mut hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over every parameter key and the exact f32 bit patterns.
pub(crate) fn network_digest(net: &Network) -> u64 {
    let mut hash = FNV_OFFSET;
    net.for_each_param(|key, tensor| {
        hash = fnv1a(hash, key.bytes());
        for &v in tensor.as_slice() {
            hash = fnv1a(hash, v.to_bits().to_le_bytes());
        }
    });
    hash
}

/// FNV-1a over the pattern method, shape, and exact image bit patterns.
pub(crate) fn patterns_digest(patterns: &TestPatternSet) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, patterns.method().bytes());
    for &dim in patterns.images().shape() {
        hash = fnv1a(hash, (dim as u64).to_le_bytes());
    }
    for &v in patterns.images().as_slice() {
        hash = fnv1a(hash, v.to_bits().to_le_bytes());
    }
    hash
}

healthmon_serdes::json_codec! {
    /// The identity a lifetime checkpoint or fleet shard carries right
    /// after its format tag: digests of the configuration, golden network
    /// and pattern set it was written under. A resume recomputes it from
    /// its own inputs and refuses a checkpoint written under another.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Identity {
        config_digest: u64 as healthmon_serdes::decimal,
        golden_digest: u64 as healthmon_serdes::decimal,
        patterns_digest: u64 as healthmon_serdes::decimal,
    }
}

impl Identity {
    /// The identity of a run over these inputs.
    pub(crate) fn of(config_digest: u64, golden: &Network, patterns: &TestPatternSet) -> Self {
        Identity {
            config_digest,
            golden_digest: network_digest(golden),
            patterns_digest: patterns_digest(patterns),
        }
    }

    /// Checks the identity stored in `value` against this one, the
    /// identity of the resume's own inputs; `config` names the
    /// configuration and `golden` is described in the error.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::Json`] when the stored triple is missing or
    /// malformed, [`HealthmonError::CheckpointMismatch`] naming the first
    /// input that differs.
    pub(crate) fn verify(
        &self,
        value: &Json,
        config: &str,
        golden: &Network,
    ) -> Result<(), HealthmonError> {
        let stored = Identity::from_json(value)?;
        check_digest(stored.config_digest, self.config_digest, config)?;
        let shape: Vec<String> = golden.input_shape().iter().map(|d| d.to_string()).collect();
        let network = format!(
            "golden network (resume built `{}` weights: {} params over {} layers)",
            shape.join("x"),
            golden.num_params(),
            golden.layers().len()
        );
        check_digest(stored.golden_digest, self.golden_digest, &network)?;
        check_digest(stored.patterns_digest, self.patterns_digest, "pattern set")
    }
}

/// Rejects a stored digest that differs from the one recomputed at
/// resume; `what` names the guarded input.
pub(crate) fn check_digest(stored: u64, expected: u64, what: &str) -> Result<(), HealthmonError> {
    if stored != expected {
        return Err(HealthmonError::CheckpointMismatch(format!(
            "the checkpoint was written under a different {what} \
             (digest {stored} != {expected})"
        )));
    }
    Ok(())
}

/// The layout every checkpoint and artifact shares: the `format` tag,
/// then the fields of each part, in order.
pub(crate) fn envelope(format: &str, parts: &[&dyn ToJson]) -> Vec<(String, Json)> {
    let mut fields = vec![("format".to_owned(), format.to_json())];
    for part in parts {
        let Json::Object(part_fields) = part.to_json() else {
            unreachable!("envelope parts are json_codec! structs");
        };
        fields.extend(part_fields);
    }
    fields
}

/// The key that opens a sealed object's final field.
const SEAL_KEY: &str = ",\"digest\":";

/// Renders `fields` as one object sealed by a final `digest` field. The
/// sealing rule, shared by fleet shards and flight records: the digest is
/// FNV-1a over the object rendered without it — the stored bytes before
/// `,"digest":` plus the closing brace — written by the decimal rule.
pub(crate) fn seal(fields: Vec<(String, Json)>) -> String {
    let mut text = Json::Object(fields).render();
    let digest = decimal::to_json(&fnv1a(FNV_OFFSET, text.bytes()));
    // Reopen the object to append the digest as its last field.
    text.pop();
    text.push_str(SEAL_KEY);
    text.push_str(&digest.render());
    text.push('}');
    text
}

/// Parses a sealed object and checks its digest against the bytes it
/// was read from (see [`seal`]).
///
/// # Errors
///
/// A [`JsonError`] when the text does not parse, its `digest` is not a
/// decimal u64 in the final field, or the bytes hash to another digest.
pub(crate) fn unseal(text: &str) -> Result<Json, JsonError> {
    let value = parse(text)?;
    let stored = value.field("digest")?;
    let claimed = decimal::from_json(stored)?;
    let final_field = format!("{SEAL_KEY}{}}}", stored.render());
    let payload_end = text
        .rfind(SEAL_KEY)
        .filter(|&at| text[at..] == final_field)
        .ok_or_else(|| JsonError::invalid("`digest` is not the final field"))?;
    let actual = fnv1a(fnv1a(FNV_OFFSET, text[..payload_end].bytes()), *b"}");
    if actual != claimed {
        return Err(JsonError::invalid(format!(
            "digest mismatch: the artifact says {claimed}, its bytes hash to {actual}"
        )));
    }
    Ok(value)
}
