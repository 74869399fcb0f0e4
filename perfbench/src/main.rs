//! Command-line entry point.
//!
//! ```text
//! perfbench --workload <fig3-sweep|dense-n5000|sparse-beacon>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last
//! line, the JSON result. With `--trace 1` the spans of every pass are
//! written to `.bench_out/<workload>-seed<N>-spans.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use ffd2d_perfbench::workload::{Spec, Workload};
use ffd2d_perfbench::{run, Options, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <fig3-sweep|dense-n5000|sparse-beacon> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench = run(&Spec::full(workload), &opts);
    if opts.trace {
        let path = PathBuf::from(".bench_out").join(format!(
            "{}-seed{}-spans.jsonl",
            workload.name(),
            opts.seed
        ));
        match bench.spans.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    print!("{}", bench.report());
    ExitCode::SUCCESS
}
