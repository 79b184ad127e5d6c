//! One repetition of an HFuse benchmark workload, in a process of its own.
//!
//! ```text
//! hfuse-perfbench --workload <dl-search|mining-search|compile-sweep> --seed <n>
//!                 [--trace <0|1>] [--trace-out <file>] [--check-winners <0|1>]
//! ```
//!
//! Prints one JSON object on its last line of standard output: the
//! repetition's metrics, the operations it attempted and the ones that
//! failed, and a signature of its exact results. With `--trace 1` it also
//! replays every step through public calls, reports the per-layer metrics,
//! and writes the spans to `--trace-out` in Chrome trace-event form. With
//! `--check-winners 0` it skips the native runs and winner checks (see
//! `workload::run_rep`) and reports no `fused_speedup`. Exits
//! 1 when any operation failed, 2 on bad arguments. `perfbench/run.py`
//! drives repetitions of this binary and aggregates them.

mod clock;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// The profiling worker count every timed search runs with.
const SEARCH_THREADS: &str = "1";

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    trace_out: Option<String>,
    check_winners: bool,
}

fn parse_bool(name: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("{name} takes 0 or 1, not {other}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut trace_out = None;
    let mut check_winners = true;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => traced = parse_bool(&flag, &value()?)?,
            "--trace-out" => trace_out = Some(value()?),
            "--check-winners" => check_winners = parse_bool(&flag, &value()?)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        traced,
        trace_out,
        check_winners,
    })
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String]) -> String {
    let items: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", items.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // With more than one worker the search lowers its abort budget in
    // completion order, so the simulated work would vary between runs.
    std::env::set_var("HFUSE_SEARCH_THREADS", SEARCH_THREADS);
    let Some(plan) = workload::Plan::new(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {} (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let rep = workload::run_rep(&plan, args.traced, args.check_winners);
    for note in &rep.notes {
        eprintln!("{note}");
    }
    if let (Some(path), Some(json)) = (&args.trace_out, &rep.trace_json) {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| format!("{}:{v:e}", json_str(k)))
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"search_threads\":{},\"traced\":{},\
         \"attempted\":{},\"failures\":{},\"signature\":{},\"metrics\":{{{}}}}}",
        json_str(&args.workload),
        args.seed,
        json_str(SEARCH_THREADS),
        args.traced,
        rep.attempted,
        json_list(&rep.failures),
        json_str(&rep.signature),
        metrics.join(",")
    );
    if rep.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
