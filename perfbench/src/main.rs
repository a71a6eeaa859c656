//! The repository benchmark: two seeded workloads over the radio-map
//! imputation library.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table6|serve-steady> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run prints the environment fingerprint and a report of its
//! samples as JSON lines, then, as its last line, the result object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run (`--trace 1`)
//! reports the per-layer metrics and writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. A failed correctness check
//! makes the run exit with status 1.

mod common;
mod env;
mod inputs;
mod offline;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Outcome, RunOptions};

const WORKLOADS: [&str; 2] = ["table6", "serve-steady"];

struct Args {
    workload: String,
    opts: RunOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        opts: RunOptions {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

fn run(workload: &str, opts: RunOptions) -> Outcome {
    match workload {
        "table6" => offline::run(opts),
        "serve-steady" => serving::run(opts),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = env::rm_variables();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: these knobs change the program being measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let Args { workload, opts } = args;
    println!(
        "{}",
        env::fingerprint_json(&workload, opts.seed, opts.trace, opts.seconds)
    );

    if opts.trace {
        common::count_allocations();
    }
    let mut out = run(&workload, opts);
    out.set("peak_rss_mb", env::peak_rss_mb());
    if out.attempted == 0 {
        out.fail("no operation was attempted".into());
    }

    if opts.trace {
        let path =
            PathBuf::from(".bench_out").join(format!("spans-{workload}-{}.jsonl", opts.seed));
        if let Err(e) = trace::write_jsonl(&path, &out.spans) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
        out.info("spans", out.spans.len());
    }
    let metrics = if opts.trace {
        report::metrics_json(&out, &report::PER_LAYER, true)
    } else {
        report::metrics_json(&out, &report::END_TO_END, false)
    };
    let metrics = metrics.unwrap_or_else(|e| {
        out.fail(e);
        "{}".to_string()
    });

    let mut info: Vec<String> = out
        .info
        .iter()
        .map(|(k, v)| format!("{}:{v}", env::json_str(k)))
        .collect();
    info.push(format!(
        "\"failures\":[{}]",
        out.failures
            .iter()
            .map(|f| env::json_str(f))
            .collect::<Vec<_>>()
            .join(",")
    ));
    println!("{{\"report\":{{{}}}}}", info.join(","));

    let correct = out.failed == 0;
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)
    );
    for failure in &out.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
