//! Runs one workload of the benchmark and prints its result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload otb_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Diagnostics go to the lines before the last; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use perfbench::{result_json, run, RunSpec};
use std::process::ExitCode;
use std::time::Duration;

fn parse() -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 1,
        measure: Duration::from_secs(10),
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => spec.seed = value.parse().map_err(bad)?,
            "--seconds" => spec.measure = Duration::from_secs(value.parse().map_err(bad)?),
            "--trace" => spec.trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, spec))
}

fn main() -> ExitCode {
    let (workload, spec) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if matches!(workload.as_str(), "otb_grid" | "detect_full_isp") {
        // The renderer's per-frame noise pass stays serial: the grid's
        // workers are `otb_grid`'s only parallelism, and a parallel pass
        // makes every `detect_full_isp` frame wait for both vCPUs, so
        // steal on either one slows it (see README). Set before any
        // thread exists or any renderer reads it.
        std::env::set_var("EUPHRATES_THREADS", "1");
    }
    match run(&workload, &spec) {
        Ok(result) => {
            for note in &result.notes {
                println!("{note}");
            }
            println!("{}", result_json(&result, spec.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
