//! Wall-clock benchmark of the fusion-configuration search. Measures four
//! arms per pair:
//!
//! * `wall_ms` — the shipped default: branch-and-bound pruning and the
//!   calibrated analytic pre-filter. This is the arm the CI
//!   `bench-regression` job gates.
//! * `wall_ms_no_model` — pruning only (`model_filter: false`): what
//!   the search cost before the model filter existed.
//! * `wall_ms_exhaustive` — no pruning, no filter (`prune: false`).
//! * `wall_ms_naive` — exhaustive on the naive single-step simulator loop
//!   (`HFUSE_SIM_NO_SKIP=1`): the original reference cost.
//!
//! Every arm must report a bit-identical winner. Writes `BENCH_search.json`
//! in the working directory.
//!
//! With `--enforce-baseline`, the committed `BENCH_search.json` is read
//! before being overwritten and the run exits nonzero if any pair's
//! `wall_ms` regressed by more than 20%, or if any pair's `sim_cycles`
//! (the winner's simulated cycles, deterministic) differs from the
//! baseline at all — the CI perf gate.
//!
//! Dependency-free (plain `std::time::Instant`); run with:
//! `cargo run --release --example bench_search [-- --enforce-baseline]`

use std::time::Instant;

use hfuse::fusion::{search_fusion_config, SearchOptions, SearchReport};
use hfuse::kernels::AnyBenchmark;
use hfuse::sim::{Gpu, GpuConfig};

struct PairResult {
    pair: String,
    wall_ms: f64,
    wall_ms_no_model: f64,
    wall_ms_exhaustive: f64,
    wall_ms_naive: f64,
    speedup: f64,
    sim_cycles: u64,
    candidates: usize,
    candidates_pruned: usize,
    model_rank: usize,
    compile_ms: f64,
    profile_ms: f64,
}

fn run_search(
    first: &str,
    second: &str,
    scale_second: f64,
    prune: bool,
    model_filter: bool,
) -> (SearchReport, f64) {
    let mut gpu = Gpu::new(GpuConfig::pascal_like());
    let b1 = AnyBenchmark::by_name(first).expect("benchmark exists");
    let b2 = AnyBenchmark::by_name(second)
        .expect("benchmark exists")
        .scaled(scale_second);
    let in1 = b1.benchmark().fusion_input(gpu.memory_mut());
    let in2 = b2.benchmark().fusion_input(gpu.memory_mut());
    let opts = SearchOptions {
        prune,
        model_filter,
        ..SearchOptions::default()
    };
    let start = Instant::now();
    let report = search_fusion_config(&gpu, &in1, &in2, opts).expect("search");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// Pulls `"key": <number>` out of one baseline JSON row (the file is
/// written by this program, so the hand-rolled extraction is safe).
fn json_number(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One committed baseline row.
struct Baseline {
    pair: String,
    wall_ms: f64,
    sim_cycles: Option<u64>,
}

fn baseline_rows(json: &str) -> Vec<Baseline> {
    let mut out = Vec::new();
    for row in json.lines() {
        let Some(pair_start) = row.find("\"pair\": \"") else {
            continue;
        };
        let rest = &row[pair_start + 9..];
        let Some(pair_end) = rest.find('"') else {
            continue;
        };
        if let Some(wall_ms) = json_number(row, "wall_ms") {
            out.push(Baseline {
                pair: rest[..pair_end].to_owned(),
                wall_ms,
                sim_cycles: json_number(row, "sim_cycles").map(|c| c as u64),
            });
        }
    }
    out
}

fn winner_key(r: &SearchReport) -> (u32, Option<u32>, u64) {
    (r.best().d1, r.best().reg_bound, r.best().cycles)
}

fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce-baseline");
    let baseline = std::fs::read_to_string("BENCH_search.json")
        .map(|s| baseline_rows(&s))
        .unwrap_or_default();

    // One worker keeps the arm-to-arm comparison a pure single-thread
    // wall-clock measurement.
    std::env::set_var("HFUSE_SEARCH_THREADS", "1");

    // Five tunable DL pairs (14 candidates each — where pruning and the
    // model filter have the most to cut) plus the memory-bound dual-Ethash
    // mining co-location from the paper's workload table. Ethash is
    // non-tunable (two candidates), so its wall clock isolates the
    // simulator-side wins (fast-forward, vectorization) from the
    // search-side ones. The last three rows are new-family crosses
    // (BLAS × image × attention), exercising tree reductions, 2-D stencil
    // indexing, and loop-carried accumulators in the searched kernels.
    let pairs = [
        ("Maxpool", "Batchnorm", 1.0),
        ("Upsample", "Hist", 1.0),
        ("Batchnorm", "Upsample", 1.0),
        ("Batchnorm", "Im2Col", 1.0),
        ("Hist", "Im2Col", 1.0),
        ("Ethash", "Ethash", 1.0),
        ("Axpy", "Blur", 1.0),
        ("Dot", "Downsample", 1.0),
        ("Gemv", "Attention", 1.0),
    ];

    let mut results = Vec::new();
    for (first, second, scale_second) in pairs {
        let mut name = format!("{}+{}", first.to_lowercase(), second.to_lowercase());
        if scale_second != 1.0 {
            name = format!("{name}x{scale_second:.0}");
        }

        std::env::remove_var("HFUSE_SIM_NO_SKIP");

        // The shipped default: prune + model filter.
        let (report, wall_ms) = run_search(first, second, scale_second, true, true);

        // Pruning without the analytic pre-filter.
        let (no_model, wall_ms_no_model) = run_search(first, second, scale_second, true, false);

        let (exhaustive, wall_ms_exhaustive) = run_search(first, second, scale_second, false, true);

        std::env::set_var("HFUSE_SIM_NO_SKIP", "1");
        let (naive_report, wall_ms_naive) = run_search(first, second, scale_second, false, true);
        std::env::remove_var("HFUSE_SIM_NO_SKIP");

        // No arm may change the winner: not the model filter, not the
        // budget aborts, not the event-driven loop.
        for (arm, r) in [
            ("no-model", &no_model),
            ("exhaustive", &exhaustive),
            ("naive", &naive_report),
        ] {
            assert_eq!(
                winner_key(&report),
                winner_key(r),
                "{arm} arm changed the search result for {name}"
            );
        }

        let r = PairResult {
            pair: name,
            wall_ms,
            wall_ms_no_model,
            wall_ms_exhaustive,
            wall_ms_naive,
            speedup: wall_ms_naive / wall_ms,
            sim_cycles: report.best().cycles,
            candidates: report.candidates.len(),
            candidates_pruned: report.pruned_count(),
            model_rank: report.best_model_rank(),
            compile_ms: report.compile_ms,
            profile_ms: report.profile_ms,
        };
        println!(
            "{:<22} {:>8.1} ms default | {:>8.1} ms no-model | \
             {:>8.1} ms exhaustive | {:>8.1} ms naive | {:>5.2}x | best {} cycles \
             ({} candidates, {} pruned, model rank {})",
            r.pair,
            r.wall_ms,
            r.wall_ms_no_model,
            r.wall_ms_exhaustive,
            r.wall_ms_naive,
            r.speedup,
            r.sim_cycles,
            r.candidates,
            r.candidates_pruned,
            r.model_rank
        );
        results.push(r);
    }

    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\"pair\": \"{}\", \"wall_ms\": {:.2}, \"wall_ms_no_model\": {:.2}, \
                 \"wall_ms_exhaustive\": {:.2}, \
                 \"wall_ms_naive\": {:.2}, \"speedup\": {:.2}, \"sim_cycles\": {}, \
                 \"candidates\": {}, \"candidates_pruned\": {}, \"model_rank\": {}, \
                 \"compile_ms\": {:.2}, \"profile_ms\": {:.2}}}",
                r.pair,
                r.wall_ms,
                r.wall_ms_no_model,
                r.wall_ms_exhaustive,
                r.wall_ms_naive,
                r.speedup,
                r.sim_cycles,
                r.candidates,
                r.candidates_pruned,
                r.model_rank,
                r.compile_ms,
                r.profile_ms
            )
        })
        .collect();
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    std::fs::write("BENCH_search.json", &json).expect("write BENCH_search.json");
    println!("\nwrote BENCH_search.json");

    let best = results.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
    println!("best wall-clock speedup over naive exhaustive: {best:.2}x");

    if enforce {
        let mut failed = false;
        for r in &results {
            match baseline.iter().find(|b| b.pair == r.pair) {
                Some(b) => {
                    if b.sim_cycles != Some(r.sim_cycles) {
                        eprintln!(
                            "SIM CYCLES CHANGED: {} winner ran {} cycles (baseline {:?})",
                            r.pair, r.sim_cycles, b.sim_cycles
                        );
                        failed = true;
                    }
                    let base_ms = b.wall_ms;
                    let limit = base_ms * 1.2;
                    if r.wall_ms > limit {
                        eprintln!(
                            "REGRESSION: {} took {:.1} ms (baseline {:.1} ms, limit {:.1} ms)",
                            r.pair, r.wall_ms, base_ms, limit
                        );
                        failed = true;
                    } else {
                        println!(
                            "baseline ok: {} {:.1} ms vs {:.1} ms (+20% limit {:.1} ms)",
                            r.pair, r.wall_ms, base_ms, limit
                        );
                    }
                }
                None => println!("baseline missing for {}; skipping gate", r.pair),
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
