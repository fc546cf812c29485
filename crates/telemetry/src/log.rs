//! A quiet-aware diagnostic logger for library crates.
//!
//! Library crates must never write to stdout: stdout belongs to command
//! output (reports, verdicts) that CI byte-compares. Diagnostics route
//! through [`log`] instead, which writes to **stderr** and respects a
//! process-global verbosity threshold. Unlike metrics and spans, the
//! logger is active even when telemetry recording is disabled — it
//! replaces pre-existing `eprintln!` diagnostics, whose visibility must
//! not depend on `--trace`.
//!
//! Messages are emitted verbatim (no level prefix) so routing an
//! existing `eprintln!` through the logger is byte-transparent on
//! stderr.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};

/// Diagnostic severity, ordered from most to least urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or surprising conditions; always shown by default.
    Error = 0,
    /// Suspicious conditions (property failures, rejected inputs).
    Warn = 1,
    /// Progress reporting (training epochs, convergence notes).
    Info = 2,
    /// High-volume tracing detail; hidden by default.
    Debug = 3,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

/// Messages at levels numerically above this are suppressed.
static VERBOSITY: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the global verbosity threshold.
pub fn set_verbosity(level: Level) {
    VERBOSITY.store(level as u8, Ordering::Relaxed);
}

/// The current verbosity threshold.
pub fn verbosity() -> Level {
    Level::from_u8(VERBOSITY.load(Ordering::Relaxed))
}

/// Writes one diagnostic line to stderr if `level` passes the
/// threshold. Prefer the [`log_error!`](crate::log_error),
/// [`log_warn!`](crate::log_warn), [`log_info!`](crate::log_info), and
/// [`log_debug!`](crate::log_debug) macros.
pub fn log(level: Level, args: fmt::Arguments<'_>) {
    if level <= verbosity() {
        // Unlike `eprintln!`, a stderr whose reader has gone drops the
        // line instead of panicking the process.
        let _ = writeln!(std::io::stderr(), "{args}");
    }
}

/// Logs at [`Level::Error`] (format-args syntax).
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Error, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`] (format-args syntax).
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Warn, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`] (format-args syntax).
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Info, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`] (format-args syntax).
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Debug, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn verbosity_threshold_round_trips() {
        let prev = verbosity();
        set_verbosity(Level::Debug);
        assert_eq!(verbosity(), Level::Debug);
        set_verbosity(Level::Error);
        assert_eq!(verbosity(), Level::Error);
        set_verbosity(prev);
    }

    #[test]
    fn macros_compile_at_every_level() {
        // Visibility is a stderr side effect; this just exercises the
        // macro expansion paths.
        crate::log_error!("e {}", 1);
        crate::log_warn!("w {}", 2);
        crate::log_info!("i {}", 3);
        crate::log_debug!("d {}", 4);
    }
}
