//! One probe of the CPU's vector extensions for every runtime-dispatched
//! kernel in the workspace.
//!
//! A kernel keeps one source body and names the [`Tier`]s it is built
//! for, widest first. [`Tier::best_of`] picks the first one the running
//! CPU supports, from a probe made once per process, and [`run`]
//! executes the body compiled for that tier. Tests run every tier a
//! kernel lists by name, through [`Tier::runnable`].
//!
//! # Bit-exactness
//!
//! A tier decides which elements are computed together, never which
//! operations compute them: no fused multiply-add, no reordered
//! floating-point reduction, no other approximation. So every tier of a
//! kernel returns the same bits, and a host without a tier computes the
//! same outputs on a narrower one.

use std::sync::OnceLock;

/// A vector instruction-set tier a kernel can be built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// AVX-512F: 512-bit registers, 16 `f32` lanes, mask registers.
    Avx512,
    /// AVX2: 256-bit `f32` and integer vectors.
    Avx2,
    /// AVX: 256-bit `f32` vectors.
    Avx,
    /// The build target's baseline (SSE2 on x86-64); runs everywhere.
    Portable,
}

impl Tier {
    /// Every tier, widest first.
    pub const ALL: [Tier; 4] = [Tier::Avx512, Tier::Avx2, Tier::Avx, Tier::Portable];

    /// Whether the running CPU supports this tier. The CPU is probed once
    /// per process.
    pub fn supported(self) -> bool {
        static PROBE: OnceLock<[bool; 4]> = OnceLock::new();
        PROBE.get_or_init(|| Tier::ALL.map(Tier::probe))[self as usize]
    }

    fn probe(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx => std::arch::is_x86_feature_detected!("avx"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx512 | Tier::Avx2 | Tier::Avx => false,
            Tier::Portable => true,
        }
    }

    /// The first of a kernel's `tiers` (widest first) that the CPU
    /// supports, or [`Tier::Portable`].
    pub fn best_of(tiers: &[Tier]) -> Tier {
        tiers.iter().copied().find(|t| t.supported()).unwrap_or(Tier::Portable)
    }

    /// The tiers of `tiers` this CPU can run, and [`Tier::Portable`]:
    /// what a test runs by name. Each tier skipped is named on stderr.
    pub fn runnable(tiers: &[Tier]) -> Vec<Tier> {
        let mut out: Vec<Tier> = tiers
            .iter()
            .copied()
            .filter(|tier| {
                let ok = tier.supported();
                if !ok {
                    eprintln!("skipping the {tier:?} tier: this CPU lacks it");
                }
                ok
            })
            .collect();
        if !out.contains(&Tier::Portable) {
            out.push(Tier::Portable);
        }
        out
    }
}

/// Runs `kernel` compiled for `tier`: the call is made from a function
/// built with the tier's target features, into which `kernel` and the
/// `#[inline(always)]` body it calls are inlined, so the compiler
/// vectorizes that body to the tier's width.
///
/// # Panics
///
/// Panics if the CPU does not support `tier`.
#[inline(always)]
pub fn run<R>(tier: Tier, kernel: impl FnOnce() -> R) -> R {
    assert!(tier.supported(), "the {tier:?} tier is not supported by this CPU");
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assert above verified AVX-512F support.
        Tier::Avx512 => unsafe { on_avx512(kernel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assert above verified AVX2 support.
        Tier::Avx2 => unsafe { on_avx2(kernel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assert above verified AVX support.
        Tier::Avx => unsafe { on_avx(kernel) },
        _ => kernel(),
    }
}

/// [`run`]'s AVX-512 build.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn on_avx512<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// [`run`]'s AVX2 build.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn on_avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// [`run`]'s AVX build.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn on_avx<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_is_always_supported_and_runnable() {
        assert!(Tier::Portable.supported());
        assert_eq!(Tier::best_of(&[]), Tier::Portable);
        assert_eq!(Tier::runnable(&[]), vec![Tier::Portable]);
    }

    #[test]
    fn best_of_picks_the_first_supported_tier() {
        for tier in Tier::ALL {
            let best = Tier::best_of(&[tier]);
            assert_eq!(best, if tier.supported() { tier } else { Tier::Portable });
        }
        let runnable = Tier::runnable(&Tier::ALL);
        assert_eq!(Tier::best_of(&Tier::ALL), runnable[0]);
    }

    #[test]
    fn run_calls_the_kernel_on_every_runnable_tier() {
        for tier in Tier::runnable(&Tier::ALL) {
            let v: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
            assert_eq!(run(tier, || v.iter().map(|x| x * 2.0).sum::<f32>()), 666.0);
        }
    }
}
