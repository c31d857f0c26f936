//! Standard-output handling for the bench binaries.
//!
//! `println!` panics when standard output is a pipe whose reader has gone
//! (`speed | head`). The binaries print through [`outln!`](crate::outln)
//! instead, which treats a closed reader as the end of the run.

use std::io::{ErrorKind, Write};

/// Prints a line to standard output like `println!`. A closed reader
/// (broken pipe) ends the process with status 0 instead of a panic; any
/// other write error ends it with status 1.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::print_line(format_args!($($arg)*))
    };
}

/// Writes one formatted line to standard output; see [`outln!`](crate::outln).
pub fn print_line(args: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.write_all(b"\n")) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to standard output: {e}");
        std::process::exit(1);
    }
}
