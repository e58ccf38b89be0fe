//! The GPS reproduction's benchmark: three workloads, end-to-end host
//! metrics from timed runs and a per-layer split from a traced run.
//!
//! ```text
//! gps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gps-benchmark --setup-only <name> --seed <n>
//! gps-benchmark --write-reference <file>
//! ```
//!
//! A timed run starts itself with `--setup-only` to time set-up from
//! process start.
//!
//! Run from the repository root (it reads `.git` for provenance and
//! writes under `.bench_out/`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this crate.

mod digest;
mod fig;
mod host;
mod lanes;
mod metrics;
mod run;
mod spans;
mod stats;
mod timeline;
mod units;

use std::path::Path;
use std::process::ExitCode;

use gps_types::Json;

use crate::host::Provenance;
use crate::metrics::result_line;
use crate::run::{OUT_DIR, SETUP_REPS, WARMUP_REPS, WORKLOADS};

const USAGE: &str =
    "usage: gps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     gps-benchmark --setup-only <name> --seed <n>\n       \
                     gps-benchmark --write-reference <file>";

/// Validated command-line arguments.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// One set-up pass, then `ready` on standard output.
    SetupOnly {
        workload: String,
        seed: u64,
    },
    WriteReference(String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" | "--setup-only" if WORKLOADS.contains(&value.as_str()) => {
                setup_only = flag == "--setup-only";
                workload = Some(value.clone());
            }
            "--workload" | "--setup-only" => {
                return Err(format!(
                    "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? >= 1 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be at least 1".into()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--write-reference" => return Ok(Command::WriteReference(value.clone())),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if setup_only {
        return Ok(Command::SetupOnly {
            workload: workload.ok_or("--setup-only needs a workload")?,
            seed: seed.ok_or("--seed is required")?,
        });
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let load_at_start = host::load_average();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gps-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::SetupOnly { workload, seed } => match run::setup_only(&workload, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gps-benchmark: {workload}: set-up: {e}");
                ExitCode::FAILURE
            }
        },
        Command::WriteReference(path) => match run::generate_reference() {
            Ok(reference) => {
                let text = format!(
                    "# Reference digests of every benchmark unit: simulated cycles, fabric traffic,\n\
                     # instructions and policy metrics. A unit whose digest differs fails.\n\
                     # Regenerate only for a change meant to alter simulated output:\n\
                     #   cargo run --release --manifest-path benchmark/Cargo.toml -- --write-reference benchmark/reference.txt\n{}",
                    reference.emit()
                );
                match std::fs::write(&path, text) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("gps-benchmark: writing {path}: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("gps-benchmark: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let outcome = if trace {
                run::traced(&workload, seed)
            } else {
                run::timed(&workload, seed, seconds)
            };
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("gps-benchmark: {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut provenance = Provenance::collect(
                Path::new("."),
                &workload,
                seed,
                seconds,
                trace,
                load_at_start,
            );
            provenance.warmup_reps = WARMUP_REPS;
            provenance.setup_reps = if trace { 1 } else { SETUP_REPS };
            let provenance = provenance.to_json();
            for f in outcome.failures.iter().take(20) {
                eprintln!("gps-benchmark: failed unit: {f}");
            }
            if let Some(spans) = outcome.spans {
                let path = Path::new(OUT_DIR).join(format!("spans-{workload}-seed{seed}.json"));
                let doc = Json::Obj(vec![
                    ("provenance".into(), provenance.clone()),
                    ("trace".into(), spans),
                ]);
                let written = std::fs::create_dir_all(OUT_DIR)
                    .and_then(|()| std::fs::write(&path, doc.emit()));
                match written {
                    Ok(()) => eprintln!("gps-benchmark: spans written to {}", path.display()),
                    Err(e) => {
                        eprintln!("gps-benchmark: writing {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            let line = match result_line(
                outcome.attempted,
                outcome.failures.len() as u64,
                &outcome.metrics,
            ) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("gps-benchmark: {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut header = vec![("provenance".into(), provenance)];
            if let Some(samples) = outcome.samples {
                header.push(("samples".into(), samples));
            }
            println!("{}", Json::Obj(header).emit());
            println!("{line}");
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        assert_eq!(
            parse(&args(
                "--workload lanes_16gpu --seed 7 --seconds 20 --trace 1"
            )),
            Ok(Command::Run {
                workload: "lanes_16gpu".into(),
                seed: 7,
                seconds: 20,
                trace: true
            })
        );
        assert!(matches!(
            parse(&args("--seed 1 --seconds 1 --workload fig_sweep_4gpu")),
            Ok(Command::Run { trace: false, .. })
        ));
        assert_eq!(
            parse(&args("--setup-only timeline_4gpu --seed 3")),
            Ok(Command::SetupOnly {
                workload: "timeline_4gpu".into(),
                seed: 3
            })
        );
        for bad in [
            "--setup-only nope --seed 1",
            "--setup-only lanes_16gpu",
            "--workload nope --seed 1 --seconds 1",
            "--workload lanes_16gpu --seed x --seconds 1",
            "--workload lanes_16gpu --seed 1 --seconds 0",
            "--workload lanes_16gpu --seed 1 --seconds 1 --trace 2",
            "--workload lanes_16gpu --seconds 1",
            "--workload lanes_16gpu --seed 1 --seconds",
            "--frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
