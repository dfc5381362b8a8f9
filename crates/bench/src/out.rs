//! Standard-output writing for the command-line printers.
//!
//! `print!` panics when stdout is closed, and `figures all | head -1`
//! closes it after one line. The [`out!`](crate::out) and
//! [`outln!`](crate::outln) macros write through [`emit`] instead: a
//! closed pipe ends the process quietly with status 0, and any other
//! write error is reported with status 1.

use std::io::{self, Write};

/// Writes `args` to stdout, ending the process if stdout is gone.
pub fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        stdout_failed(e)
    }
}

#[cold]
fn stdout_failed(e: io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("cannot write to stdout: {e}");
    std::process::exit(1);
}

/// `print!` through [`emit`](crate::out::emit).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`](crate::out::emit).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}
