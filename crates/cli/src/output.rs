//! The CLI's one writer for stdout and stderr.
//!
//! `println!` and `eprintln!` panic when their stream is a pipe whose
//! reader has gone (`healthmon models | head -1`), so a command that did
//! its work would exit 101. Everything the CLI prints goes through
//! `out!`, `outln!`, `err!` and `errln!` instead: a write that
//! meets a closed pipe ends that stream's output quietly, and the command
//! still returns its own exit code. Any other write error panics, as the
//! std macros do.

use std::fmt;
use std::io::{self, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);
static STDERR_CLOSED: AtomicBool = AtomicBool::new(false);

/// `print!` through [`stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::output::stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`stdout`].
macro_rules! outln {
    () => {
        $crate::output::stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::output::stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprint!` through [`stderr`].
macro_rules! err {
    ($($arg:tt)*) => {
        $crate::output::stderr(format_args!($($arg)*))
    };
}

/// `eprintln!` through [`stderr`].
macro_rules! errln {
    () => {
        $crate::output::stderr(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::output::stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout unless a write already met a closed pipe.
pub fn stdout(args: fmt::Arguments<'_>) {
    write(&mut io::stdout().lock(), &STDOUT_CLOSED, "stdout", args);
}

/// Writes to stderr unless a write already met a closed pipe.
pub fn stderr(args: fmt::Arguments<'_>) {
    write(&mut io::stderr().lock(), &STDERR_CLOSED, "stderr", args);
}

/// Whether stdout's reader has gone, so a command that only prints (a
/// watch loop) can stop.
pub fn stdout_closed() -> bool {
    STDOUT_CLOSED.load(Ordering::Relaxed)
}

fn write(stream: &mut impl Write, closed: &AtomicBool, name: &str, args: fmt::Arguments<'_>) {
    if closed.load(Ordering::Relaxed) {
        return;
    }
    match stream.write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => closed.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to {name}: {e}"),
    }
}
