//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints provenance and detail lines, then one result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when the run is not correct (a safety violation, a failed
//! replay check, or no agreed session), 2 on a usage error.

use std::process::ExitCode;
use std::time::Duration;

use thinair_perfbench::workload::{self, WORKLOADS};
use thinair_perfbench::{measure, Options};

/// Where a traced run writes its spans and telemetry, relative to the
/// working directory.
const OUT_DIR: &str = "perfbench/out";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts =
        Options { seed: 1, window: Duration::from_secs(10), trace: false, out_dir: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad())?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                opts.window = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.trace {
        opts.out_dir = Some(OUT_DIR.to_string());
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::find(&name) else {
        eprintln!("perfbench: unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    match measure(wl, &opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} run is not correct", wl.name);
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
