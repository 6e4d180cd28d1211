//! The shared command-line surface of the sweep binaries:
//! `--threads N`, `--smoke`, `--list`, `--csv PATH`, `--json PATH`,
//! `--telemetry-out DIR`.
//!
//! No external argument-parsing dependency: the grammar is six flags.
//! Binary-specific flags are returned unparsed in [`SweepArgs::rest`].

use crate::runner::default_threads;
use std::path::PathBuf;

/// Parsed common sweep flags.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Worker threads (`--threads N`, default: available parallelism).
    pub threads: usize,
    /// Run the reduced smoke grid (`--smoke`).
    pub smoke: bool,
    /// Print the expanded grid (job id → parameters) and exit without
    /// running anything (`--list`) — for debugging sweep specs.
    pub list: bool,
    /// Write records as CSV to this path (`--csv PATH`).
    pub csv: Option<PathBuf>,
    /// Write records as JSON to this path (`--json PATH`).
    pub json: Option<PathBuf>,
    /// Collect run-time telemetry and write `metrics.csv`, `epochs.csv`
    /// and `trace.json` into this directory (`--telemetry-out DIR`).
    pub telemetry_out: Option<PathBuf>,
    /// Arguments the common parser did not consume, in original order.
    pub rest: Vec<String>,
}

impl SweepArgs {
    /// Parses the common flags out of `args` (exclusive of the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns a usage message when a flag is malformed or missing its
    /// value, or when `--list` comes with an output flag (`--csv`,
    /// `--json`, `--telemetry-out`): a listing runs nothing, so it
    /// would write nothing.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<SweepArgs, String> {
        let mut out = SweepArgs {
            threads: default_threads(),
            smoke: false,
            list: false,
            csv: None,
            json: None,
            telemetry_out: None,
            rest: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    out.threads = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("--threads: bad value {v:?}"))?;
                }
                "--smoke" => out.smoke = true,
                "--list" => out.list = true,
                "--csv" => out.csv = Some(args.next().ok_or("--csv needs a path")?.into()),
                "--json" => out.json = Some(args.next().ok_or("--json needs a path")?.into()),
                "--telemetry-out" => {
                    out.telemetry_out = Some(
                        args.next()
                            .ok_or("--telemetry-out needs a directory")?
                            .into(),
                    );
                }
                _ => out.rest.push(arg),
            }
        }
        if let Some((flag, _)) = out.outputs().into_iter().find(|&(_, set)| set && out.list) {
            return Err(format!("--list runs nothing, so it cannot write {flag}"));
        }
        Ok(out)
    }

    /// Each output flag, and whether it was given.
    fn outputs(&self) -> [(&'static str, bool); 3] {
        [
            ("--csv", self.csv.is_some()),
            ("--json", self.json.is_some()),
            ("--telemetry-out", self.telemetry_out.is_some()),
        ]
    }

    /// Parses the process arguments, exiting with the usage message on
    /// error — the standard `main()` entry point.
    pub fn from_env() -> SweepArgs {
        SweepArgs::parse(std::env::args().skip(1)).unwrap_or_else(|msg| usage_exit(&msg))
    }

    /// [`SweepArgs::from_env`] for binaries with no flags of their own:
    /// an unconsumed argument is a usage error too (exit status 2).
    pub fn from_env_no_extra() -> SweepArgs {
        let args = SweepArgs::from_env();
        if let Err(msg) = args.reject_rest() {
            usage_exit(&msg);
        }
        args
    }

    /// Exits with the usage error (status 2) if one of the output flags
    /// named in `unwritten` (`--json`, `--telemetry-out`) was given: a
    /// binary refuses an output it does not write rather than accepting
    /// the flag and ignoring it.
    pub fn refuse(self, unwritten: &[&str]) -> SweepArgs {
        for (flag, set) in self.outputs() {
            if set && unwritten.contains(&flag) {
                usage_exit(&format!("this binary does not write {flag}"));
            }
        }
        self
    }

    /// Fails on any unconsumed argument — for binaries with no flags of
    /// their own.
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized argument.
    pub fn reject_rest(&self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(arg) => Err(format!("unrecognized argument {arg:?}")),
        }
    }
}

/// Prints `msg` and the common usage line to stderr and exits with
/// status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: [--threads N] [--smoke] [--list] [--csv PATH] [--json PATH] \
         [--telemetry-out DIR]"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&[]).unwrap();
        assert!(!a.smoke);
        assert!(!a.list);
        assert!(a.threads >= 1);
        assert!(a.csv.is_none() && a.json.is_none() && a.rest.is_empty());
        assert!(parse(&["--list"]).unwrap().list);

        let a = parse(&[
            "--threads",
            "4",
            "--smoke",
            "--csv",
            "o.csv",
            "--json",
            "o.json",
        ])
        .unwrap();
        assert_eq!(a.threads, 4);
        assert!(a.smoke);
        assert_eq!(a.csv.as_deref(), Some(std::path::Path::new("o.csv")));
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("o.json")));
    }

    #[test]
    fn unknown_args_pass_through_in_order() {
        let a = parse(&["--mesh", "8x8", "--threads", "2", "--seeds", "1,2"]).unwrap();
        assert_eq!(a.threads, 2);
        assert_eq!(a.rest, vec!["--mesh", "8x8", "--seeds", "1,2"]);
        assert!(a.reject_rest().is_err());
    }

    #[test]
    fn bad_thread_counts_are_rejected() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
    }
}
