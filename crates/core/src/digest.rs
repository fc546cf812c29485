//! FNV-1a digests that guard persisted state: lifetime checkpoints,
//! fleet shards and flight-recorder artifacts store them as decimal
//! strings, and a resume recomputes and compares them before trusting
//! anything it reads back.

use crate::error::HealthmonError;
use crate::patterns::TestPatternSet;
use healthmon_nn::Network;
use healthmon_serdes::Json;

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

/// [`verify_digest`] of the golden network under `golden_digest`,
/// describing the network the resume was handed.
pub(crate) fn verify_golden_digest(value: &Json, golden: &Network) -> Result<(), HealthmonError> {
    let shape: Vec<String> = golden.input_shape().iter().map(|d| d.to_string()).collect();
    let what = format!(
        "golden network (resume built `{}` weights: {} params over {} layers)",
        shape.join("x"),
        golden.num_params(),
        golden.layers().len()
    );
    verify_digest(value, "golden_digest", network_digest(golden), &what)
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

/// Checks the u64 digest stored as a decimal string under `field`
/// against `expected`; `what` names the guarded input in the error.
pub(crate) fn verify_digest(
    value: &Json,
    field: &str,
    expected: u64,
    what: &str,
) -> Result<(), HealthmonError> {
    let stored = value.field(field)?.as_str()?.parse::<u64>().map_err(|_| {
        HealthmonError::CheckpointMismatch(format!("`{field}` is not a u64 digest"))
    })?;
    if stored != expected {
        return Err(HealthmonError::CheckpointMismatch(format!(
            "the checkpoint was written under a different {what} \
             (digest {stored} != {expected})"
        )));
    }
    Ok(())
}
