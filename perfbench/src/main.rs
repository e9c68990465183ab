//! `perfbench` — the compiled half of the spam-mass benchmark.
//!
//! `run.py` drives it; every subcommand prints its result as one JSON
//! object on stdout (or nothing, for pure file writers) and exits
//! non-zero on failure:
//!
//! ```text
//! perfbench fixture     --hosts N --seed S --dir D
//! perfbench refupdate   --state DIR --step FILE --tiny FILE --out-step FILE --out-tiny FILE
//! perfbench check-state --state DIR --expect FILE
//! perfbench serveload   --addr A --state DIR --tsv FILE --seconds S --seed N [--log FILE]
//! perfbench trace       --workload W --dir D --seed N --mem-bw GBS
//! perfbench bwprobe     --llc-bytes N
//! perfbench exec        --out FILE --err FILE -- CMD ARGS...
//! ```

mod exec;
mod fixture;
mod load;
mod probe;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` pairs after the subcommand.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Args { values })
    }

    /// The value of a required flag.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.values.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    /// A required flag parsed as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse().map_err(|_| format!("--{key}: cannot parse {raw:?}"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench fixture|refupdate|check-state|serveload|trace|bwprobe|exec [--flag value]...");
        return ExitCode::from(2);
    };
    // `exec` passes everything after `--` through as the measured command.
    let (flags, tail) = match rest.iter().position(|a| a == "--") {
        Some(i) if command == "exec" => (&rest[..i], &rest[i + 1..]),
        _ => (rest, &[][..]),
    };
    let result = Args::parse(flags).and_then(|args| match command.as_str() {
        "fixture" => fixture::fixture(&args),
        "refupdate" => fixture::reference_update(&args),
        "check-state" => fixture::check_state(&args),
        "serveload" => load::serveload(&args),
        "trace" => trace::trace(&args),
        "bwprobe" => probe::bwprobe(&args),
        "exec" => exec::exec(&args, tail),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Maps any displayable error into the subcommands' `String` errors.
pub fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Bytes on disk of one published state generation (0 if unreadable).
pub fn generation_bytes(state: &spammass_delta::StateDir, generation: u64) -> u64 {
    std::fs::read_dir(state.generation_path(generation))
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
