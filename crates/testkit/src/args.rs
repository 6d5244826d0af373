//! The one command-line parser of the workspace's binaries (`crates/bench`,
//! `sweep`, `lint`).
//!
//! Parsing is strict: an unknown flag, a repeated flag, a missing value or
//! a value that does not parse prints the reason and the usage line to
//! stderr and exits with status 2. A typo never runs the default.

use std::str::FromStr;

/// The arguments not yet consumed by [`Args::flag`] / [`Args::value`];
/// [`Args::finish`] rejects whatever is left.
pub struct Args {
    bin: String,
    usage: &'static str,
    rest: Vec<String>,
}

impl Args {
    /// The process's arguments; `usage` is the flag summary printed after
    /// the binary name on a parse failure.
    pub fn from_env(usage: &'static str) -> Self {
        let mut args = std::env::args();
        Self {
            bin: args.next().unwrap_or_default(),
            usage,
            rest: args.collect(),
        }
    }

    /// Prints `why` and the usage line to stderr and exits with status 2:
    /// for the constraints between flags only the binary knows.
    pub fn fail(&self, why: &str) -> ! {
        let bin = self.bin.rsplit('/').next().unwrap_or_default();
        eprintln!("{why}\nusage: {bin} {}", self.usage);
        std::process::exit(2)
    }

    fn take(&mut self, name: &str) -> Option<usize> {
        let i = self.rest.iter().position(|a| a == name)?;
        self.rest.remove(i);
        Some(i)
    }

    /// Consumes the bare flag `name`; true if it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// Consumes `name VALUE`; `None` if `name` was not given.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let i = self.take(name)?;
        if i == self.rest.len() {
            self.fail(&format!("{name} needs a value"));
        }
        let raw = self.rest.remove(i);
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => self.fail(&format!("bad value for {name}: {raw:?}")),
        }
    }

    /// Consumes `name [VALUE]`, where the next argument is the value
    /// unless it starts with `-`: `None` if `name` was not given,
    /// `Some(None)` if it was given bare.
    pub fn optional_value(&mut self, name: &str) -> Option<Option<String>> {
        let i = self.take(name)?;
        let has_value = self.rest.get(i).is_some_and(|v| !v.starts_with('-'));
        Some(has_value.then(|| self.rest.remove(i)))
    }

    /// Rejects every argument nothing consumed.
    pub fn finish(self) {
        if let Some(unknown) = self.rest.first() {
            self.fail(&format!("unknown argument {unknown:?}"));
        }
    }
}
