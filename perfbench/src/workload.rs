//! The three workloads, and one repetition of a workload.
//!
//! Every workload runs the same steps on its own pairs of kernels. It sets
//! up the device and registers the kernels; searches each searched pair in
//! a fresh `Session`; compiles each compiled pair through one `Session`, in
//! a cold pass and then an edit pass; and checks every output. The pairs
//! are what make each workload load a different layer:
//!
//! * `dl-search` searches and compiles three of the ten deep-learning
//!   pairs, 14 candidates each. Search orchestration and the compile path
//!   do the most work of any workload here.
//! * `mining-search` searches and compiles Ethash paired with Blake256,
//!   Blake2b and SHA256: one partition and two candidates per pair, so the
//!   simulator and the model filter's native runs take nearly all the time.
//! * `compile-sweep` compiles every paper and family pair and searches only
//!   Axpy+Blur, so frontend, analysis, fusion and lowering do the work.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cuda_frontend::ast::Function;
use cuda_frontend::{parse_kernel, parse_kernel_with_spans};
use gpu_sim::{BudgetedRun, DecodedKernel, Gpu, GpuConfig, Launch};
use hfuse_analysis::{analysis_cache_stats, analyze_kernel, summarize_ranges, AnalysisOptions};
use hfuse_core::search::register_bound;
use hfuse_core::{
    horizontal_fuse, measure_single, FusedKernel, FusionInput, KernelId, QueryStats, SearchOptions,
    SearchReport, Session, SessionStats,
};
use hfuse_kernels::crypto::{blake256::Blake256, blake2b::Blake2b, ethash::Ethash, sha256::Sha256};
use hfuse_kernels::{AnyBenchmark, Benchmark, PairSpec};
use thread_ir::spill::apply_register_bound;
use thread_ir::{lower_kernel, lower_kernel_unoptimized, KernelIr};

use crate::clock::{Meter, Timed};
use crate::procfs;
use crate::stats::{geomean, median};
use crate::trace::{check_nesting, Layer, Tracer};

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["dl-search", "mining-search", "compile-sweep"];

/// Set-ups timed at each end of a repetition; `setup_s` is the median of
/// all of them. Timing both ends samples the machine at two moments several
/// seconds apart rather than one.
const SETUPS_PER_END: usize = 16;

/// Timed compile passes (a cold pass and an edit pass each) per repetition
/// of the search workloads. Their passes take well under a second, too
/// short to time once against the noise of a shared machine, so each
/// repetition times this many and reports the medians. compile-sweep's
/// passes take seconds and are timed once, cold.
const SHORT_COMPILE_PASSES: usize = 3;

/// SplitMix64: turns the benchmark seed into the workload's inputs.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// What one workload runs, drawn from its seed.
pub struct Plan {
    /// Distinct kernels with their workloads.
    pub kernels: Vec<AnyBenchmark>,
    /// Pairs the compile passes sweep, as indices into `kernels`.
    pub compile_pairs: Vec<(usize, usize)>,
    /// Pairs searched, as indices into `kernels`.
    pub search_pairs: Vec<(usize, usize)>,
    /// Kernels in the order the edit pass edits them.
    pub edit_order: Vec<usize>,
    /// What the whitespace-only edit adds around a kernel's source.
    pub whitespace: String,
    /// The constant the one-constant edit declares in a kernel's body.
    pub constant: u32,
    /// Timed compile passes per repetition.
    pub compile_passes: usize,
}

impl Plan {
    /// The plan of workload `name` for `seed`, or `None` for an unknown
    /// workload.
    pub fn new(name: &str, seed: u64) -> Option<Plan> {
        let mut rng = Rng(seed);
        let mut compile_passes = SHORT_COMPILE_PASSES;
        let (compile, search) = match name {
            "dl-search" => {
                let pairs = dl_draw(&mut rng);
                (pairs.clone(), pairs)
            }
            "mining-search" => {
                let mut pairs: Vec<PairSpec> = hfuse_kernels::crypto_pairs()
                    .into_iter()
                    .filter(|p| p.first.name() == "Ethash" || p.second.name() == "Ethash")
                    .collect();
                rng.shuffle(&mut pairs);
                (pairs.clone(), pairs)
            }
            "compile-sweep" => {
                let mut pairs = hfuse_kernels::all_pairs();
                pairs.extend(hfuse_kernels::family_pairs());
                rng.shuffle(&mut pairs);
                let axpy_blur = hfuse_kernels::family_pairs().swap_remove(0);
                compile_passes = 1;
                (pairs, vec![axpy_blur])
            }
            _ => return None,
        };
        let mut kernels = Vec::new();
        let compile_pairs: Vec<_> = compile.iter().map(|p| intern(&mut kernels, p)).collect();
        let search_pairs = search.iter().map(|p| intern(&mut kernels, p)).collect();
        // The crypto kernels take a message or nonce seed: the DAG, the
        // messages and the reference hashes all follow it.
        for k in &mut kernels {
            *k = reseed(k, &mut rng);
        }
        let mut edit_order: Vec<usize> = (0..kernels.len())
            .filter(|&k| pairs_with(&compile_pairs, k).next().is_some())
            .collect();
        rng.shuffle(&mut edit_order);
        let whitespace = "\n".repeat(1 + (rng.next_u64() % 3) as usize)
            + &" ".repeat((rng.next_u64() % 4) as usize);
        let constant = (rng.next_u64() % 1_000_000) as u32;
        Some(Plan {
            kernels,
            compile_pairs,
            search_pairs,
            edit_order,
            whitespace,
            constant,
            compile_passes,
        })
    }

    fn pair_name(&self, (a, b): (usize, usize)) -> String {
        format!("{}+{}", self.kernels[a].name(), self.kernels[b].name())
    }

    fn bench(&self, k: usize) -> &dyn Benchmark {
        self.kernels[k].benchmark()
    }
}

/// The DL pairs dl-search runs, in a seeded order: three of the paper's
/// ten that between them cover all five DL kernels, with winners both
/// faster (Batchnorm+Hist, Hist+Upsample) and slower (Im2Col+Maxpool) than
/// native co-execution. The set is fixed because the pair costs differ up
/// to threefold: a seeded subset would make seeds differ in work, and the
/// spread across seeds would measure the draw, not the program. The DL
/// kernels take no data seed, so the seed only orders the searches.
fn dl_draw(rng: &mut Rng) -> Vec<PairSpec> {
    const PAIRS: [(&str, &str); 3] = [
        ("Batchnorm", "Hist"),
        ("Hist", "Upsample"),
        ("Im2Col", "Maxpool"),
    ];
    let mut pairs: Vec<PairSpec> = hfuse_kernels::dl_pairs()
        .into_iter()
        .filter(|p| {
            let (x, y) = (p.first.name(), p.second.name());
            PAIRS
                .iter()
                .any(|&(a, b)| (x, y) == (a, b) || (x, y) == (b, a))
        })
        .collect();
    assert_eq!(
        pairs.len(),
        PAIRS.len(),
        "every chosen pair is one of the paper's"
    );
    rng.shuffle(&mut pairs);
    pairs
}

fn intern(kernels: &mut Vec<AnyBenchmark>, pair: &PairSpec) -> (usize, usize) {
    let mut index = |b: &AnyBenchmark| {
        kernels
            .iter()
            .position(|k| k.name() == b.name())
            .unwrap_or_else(|| {
                kernels.push(b.clone());
                kernels.len() - 1
            })
    };
    (index(&pair.first), index(&pair.second))
}

fn reseed(k: &AnyBenchmark, rng: &mut Rng) -> AnyBenchmark {
    match k {
        AnyBenchmark::Ethash(b) => AnyBenchmark::Ethash(Ethash {
            seed: rng.next_u64() as u32,
            ..b.clone()
        }),
        AnyBenchmark::Blake256(b) => AnyBenchmark::Blake256(Blake256 {
            seed: rng.next_u64() as u32,
            ..b.clone()
        }),
        AnyBenchmark::Blake2b(b) => AnyBenchmark::Blake2b(Blake2b {
            seed: rng.next_u64(),
            ..b.clone()
        }),
        AnyBenchmark::Sha256(b) => AnyBenchmark::Sha256(Sha256 {
            seed: rng.next_u64() as u32,
            ..b.clone()
        }),
        other => other.clone(),
    }
}

fn pairs_with(pairs: &[(usize, usize)], k: usize) -> impl Iterator<Item = usize> + '_ {
    (0..pairs.len()).filter(move |&p| pairs[p].0 == k || pairs[p].1 == k)
}

/// The thread partitions the Fig. 6 sweep visits for a pair: every multiple
/// of the granularity below `d0` when both kernels are tunable, their
/// native block sizes otherwise.
fn partitions(a: &dyn Benchmark, b: &dyn Benchmark) -> Vec<(u32, u32)> {
    let opts = SearchOptions::default();
    if a.tunable() && b.tunable() {
        (1..)
            .map(|i| i * opts.granularity)
            .take_while(|&d1| d1 < opts.d0)
            .map(|d1| (d1, opts.d0 - d1))
            .collect()
    } else {
        vec![(a.default_threads(), b.default_threads())]
    }
}

/// What one repetition reports.
#[derive(Default)]
pub struct Rep {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Exact results, which must read the same in every repetition of one
    /// seed.
    pub signature: String,
    /// Operations attempted: searches, winner checks, pair sweeps,
    /// candidate checks and edit checks.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Human-readable notes.
    pub notes: Vec<String>,
    /// The traced repetition's spans, in Chrome trace-event JSON.
    pub trace_json: Option<String>,
}

impl Rep {
    fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_owned(), v);
    }

    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }
}

/// Everything a repetition needs before its first query.
struct Prepared {
    base: Gpu,
    /// Fusion inputs of the searched kernels, uploaded to `base`.
    inputs: Vec<Option<FusionInput>>,
    /// The compile passes' session, with every compiled kernel registered.
    session: Session,
    ids: Vec<Option<KernelId>>,
    sources: Vec<String>,
}

fn prepare(plan: &Plan) -> Prepared {
    let mut base = Gpu::new(GpuConfig::pascal_like());
    let n = plan.kernels.len();
    let uses = |pairs: &[(usize, usize)], k: usize| pairs_with(pairs, k).next().is_some();
    let inputs = (0..n)
        .map(|k| uses(&plan.search_pairs, k).then(|| plan.bench(k).fusion_input(base.memory_mut())))
        .collect();
    let mut session = Session::new(GpuConfig::pascal_like());
    let mut ids = vec![None; n];
    let mut sources = vec![String::new(); n];
    for k in 0..n {
        if uses(&plan.compile_pairs, k) {
            sources[k] = plan.bench(k).source();
            ids[k] = Some(session.add_kernel(sources[k].clone()));
        }
    }
    Prepared {
        base,
        inputs,
        session,
        ids,
        sources,
    }
}

/// Sets up `n` times, one set-up alive at a time as a user would have it,
/// adds each one's time to `setups`, and returns the last set-up.
fn time_setups(plan: &Plan, n: usize, meter: &mut Meter, setups: &mut Vec<Timed>) -> Prepared {
    let ((walls, last), batch) = meter.time(|| {
        let mut walls = Vec::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            drop(last.take());
            let t = Instant::now();
            last = Some(prepare(plan));
            walls.push(t.elapsed().as_secs_f64());
        }
        (walls, last.expect("one set-up at least"))
    });
    // The set-ups are too short to probe around one by one; they share
    // their batch's scale.
    let scale = batch.scaled_s / batch.wall_s;
    setups.extend(walls.into_iter().map(|wall_s| Timed {
        wall_s,
        scaled_s: wall_s * scale,
    }));
    last
}

/// Runs one repetition of `plan`; with `traced`, also replays every step
/// through public calls and reports the per-layer metrics. Without
/// `check_winners` it skips the native runs and the winner checks, and so
/// reports no `fused_speedup`: the searches are deterministic, and another
/// repetition with the same signature checks the same winners.
pub fn run_rep(plan: &Plan, traced: bool, check_winners: bool) -> Rep {
    let mut rep = Rep::default();
    let mut tr = Tracer::new(traced);
    let mut meter = Meter::new();

    let mut setups = Vec::with_capacity(2 * SETUPS_PER_END);
    let mut p = time_setups(plan, SETUPS_PER_END, &mut meter, &mut setups);

    let cache0 = analysis_cache_stats();
    let searched = search_phase(plan, &p, check_winners, &mut meter, &mut tr, &mut rep);
    let cache1 = analysis_cache_stats();
    let compiled = compile_passes(plan, &mut p, &mut meter, &mut tr, &mut rep);
    let cache2 = analysis_cache_stats();

    let hits = |c: hfuse_analysis::AnalysisCacheStats| c.hits + c.range_hits;
    let misses = |c: hfuse_analysis::AnalysisCacheStats| c.misses + c.range_misses;
    rep.notes.push(format!(
        "analysis cache (cold at process start): searches {} hits / {} misses, \
         compile passes {} hits / {} misses",
        hits(cache1) - hits(cache0),
        misses(cache1) - misses(cache0),
        hits(cache2) - hits(cache1),
        misses(cache2) - misses(cache1),
    ));

    rep.set("winner_cycles", searched.winner_cycles as f64);
    if check_winners {
        match geomean(&searched.speedups) {
            Some(g) if searched.speedups.len() == plan.search_pairs.len() => {
                rep.set("fused_speedup", g)
            }
            _ => rep
                .failures
                .push("no fused speedup for some searched pair".to_owned()),
        }
    }
    match procfs::peak_rss_mib() {
        Some(mib) => rep.set("peak_rss_mb", mib),
        None => rep.failures.push("peak RSS unavailable".to_owned()),
    }
    // After the peak was read, so that these set-ups, alive next to `p`,
    // leave it as the workload made it.
    drop(time_setups(plan, SETUPS_PER_END, &mut meter, &mut setups));

    // Every time is reported scaled to the reference speed, and as
    // measured under `wall.`. `e2e_s` is the timed part of the repetition;
    // traced minus untraced is the tracing overhead.
    let mut e2e = searched.took;
    e2e += compiled.cold;
    e2e += compiled.edit;
    for (name, t) in [
        ("setup_s", median_timed(&setups)),
        ("search_s", searched.took),
        ("compile_s", compiled.cold),
        ("recompile_s", compiled.edit),
        ("e2e_s", e2e),
    ] {
        rep.set(name, t.scaled_s);
        rep.set(&format!("wall.{name}"), t.wall_s);
    }
    rep.set("slowdown", meter.median_slowdown());
    rep.signature = format!("{}|{}", searched.signature, compiled.signature);

    if traced {
        replay_compile(plan, &p, &mut tr, &mut rep);
        per_layer_metrics(&tr, &p.session.stats(), (cache0, cache2), &mut rep);
        rep.check(check_nesting(tr.spans()));
        rep.trace_json = Some(tr.chrome_json());
    }
    rep
}

#[derive(Default)]
struct Searched {
    took: Timed,
    winner_cycles: u64,
    speedups: Vec<f64>,
    signature: String,
}

/// Searches every searched pair in a fresh `Session` (so no search is
/// served from a memo), timing only `search_winner`. With `check_winners`,
/// also runs each pair natively for the fused speed-up and checks the
/// winner's outputs.
fn search_phase(
    plan: &Plan,
    p: &Prepared,
    check_winners: bool,
    meter: &mut Meter,
    tr: &mut Tracer,
    rep: &mut Rep,
) -> Searched {
    let mut out = Searched::default();
    for (i, &(a, b)) in plan.search_pairs.iter().enumerate() {
        let name = plan.pair_name((a, b));
        let (Some(in1), Some(in2)) = (&p.inputs[a], &p.inputs[b]) else {
            unreachable!("searched kernels have inputs")
        };
        tr.set_search(Some(i as u32));
        let pair_span = tr.begin("search.pair", Layer::Bench);
        let mut s = Session::with_gpu(p.base.clone());
        let (ka, kb) = (s.add_fusion_input(in1), s.add_fusion_input(in2));

        rep.attempted += 1;
        let (report, took) =
            meter.time(|| tr.time("search.winner", Layer::Search, || s.search_winner(ka, kb)));
        out.took += took;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                rep.failures.push(format!("{name}: search: {e}"));
                tr.end(pair_span);
                continue;
            }
        };
        let best = report.best();
        out.winner_cycles += best.cycles;
        if check_winners {
            rep.attempted += 1;
            match s.native(ka, kb) {
                Ok(n) => out
                    .speedups
                    .push(n.total_cycles as f64 / best.cycles as f64),
                Err(e) => rep.failures.push(format!("{name}: native run: {e}")),
            }
            rep.check(
                check_winner(&p.base, plan.bench(a), plan.bench(b), in1, in2, &report)
                    .map_err(|e| format!("{name} winner: {e}")),
            );
        }
        let outcomes: Vec<String> = report
            .candidates
            .iter()
            .map(|c| {
                let (d1, d2, bound) = (c.d1, c.d2, c.reg_bound);
                format!("{d1}/{d2}/{bound:?}={}@{:?}", c.cycles, c.pruned_at)
            })
            .collect();
        out.signature += &format!(
            "{name}: best {} [{}]; ",
            report.best_idx,
            outcomes.join(" ")
        );
        rep.notes.push(format!(
            "{name}: winner d1={} d2={} bound={:?} {} cycles, {} candidates, {} pruned",
            best.d1,
            best.d2,
            best.reg_bound,
            best.cycles,
            report.candidates.len(),
            report.pruned_count()
        ));
        if tr.on() {
            replay_search(tr, &p.base, in1, in2, &report, rep, &name);
        }
        tr.end(pair_span);
    }
    tr.set_search(None);
    out
}

/// Re-runs the winner functionally on a clone of the pre-search device and
/// checks both members' outputs against their CPU references.
fn check_winner(
    base: &Gpu,
    ba: &dyn Benchmark,
    bb: &dyn Benchmark,
    in1: &FusionInput,
    in2: &FusionInput,
    report: &SearchReport,
) -> Result<(), String> {
    let best = report.best();
    let mut gpu = base.clone();
    gpu.run_functional(&[fused_launch(
        Arc::new(report.best_kernel.clone()),
        best.d1 + best.d2,
        in1,
        in2,
    )])
    .map_err(|e| e.to_string())?;
    ba.check(gpu.memory(), &in1.args)?;
    bb.check(gpu.memory(), &in2.args)
}

fn fused_launch(
    kernel: Arc<KernelIr>,
    threads: u32,
    in1: &FusionInput,
    in2: &FusionInput,
) -> Launch {
    Launch {
        kernel,
        grid_dim: in1.grid_dim.max(in2.grid_dim),
        block_dim: (threads, 1, 1),
        dynamic_shared_bytes: in1.dynamic_shared + in2.dynamic_shared,
        args: in1.args.iter().chain(&in2.args).copied().collect(),
    }
}

/// Lowers `f` inside an `ir.lower` span, next to an unoptimized lowering
/// probe so that `ir.opt_s` is their difference.
fn lower_traced(tr: &mut Tracer, f: &Function) -> Result<KernelIr, String> {
    tr.probe("ir.lower_unoptimized", Layer::Ir, || {
        lower_kernel_unoptimized(f)
    })
    .map_err(|e| e.to_string())?;
    let ir = tr
        .time("ir.lower", Layer::Ir, || lower_kernel(f))
        .map_err(|e| e.to_string())?;
    tr.add("ir.insts", ir.insts.len() as f64);
    Ok(ir)
}

fn bound_traced(tr: &mut Tracer, ir: &mut KernelIr, bound: u32) {
    tr.time("ir.regbound", Layer::Ir, || apply_register_bound(ir, bound));
    tr.add("ir.spilled_regs", ir.spilled_regs.len() as f64);
}

/// The seconds of the span that just closed.
fn last_span_s(tr: &Tracer) -> f64 {
    tr.spans().last().map_or(0.0, |s| s.dur_ns() as f64 * 1e-9)
}

/// Replays one search's steps through public calls, each in a span: the
/// two member lowerings and the model filter's two native runs; fusing
/// (with the static gate's range summaries and fused lint), lowering and
/// bounding every candidate; then decoding and running every unique
/// program at the budget the search gave it, and re-running the completed
/// ones functionally.
fn replay_search(
    tr: &mut Tracer,
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    report: &SearchReport,
    rep: &mut Rep,
    name: &str,
) {
    let replay = tr.begin("replay.search", Layer::Bench);
    let outcome = replay_search_steps(tr, base, in1, in2, report);
    tr.end(replay);
    rep.check(outcome.map_err(|e| format!("{name} replay: {e}")));
}

fn replay_search_steps(
    tr: &mut Tracer,
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    report: &SearchReport,
) -> Result<(), String> {
    for inp in [in1, in2] {
        lower_traced(tr, &inp.kernel)?;
    }
    if SearchOptions::default().model_filter {
        for inp in [in1, in2] {
            tr.time("search.model", Layer::Search, || measure_single(base, inp))
                .map_err(|e| e.to_string())?;
        }
    }

    // Compile every candidate as the sweep does, sharing identical programs.
    let mut fused: Option<FusedKernel> = None;
    let mut programs: Vec<(Arc<KernelIr>, usize)> = Vec::new();
    let mut winner_ir = None;
    for (ci, c) in report.candidates.iter().enumerate() {
        if fused.as_ref().is_none_or(|f| (f.d1, f.d2) != (c.d1, c.d2)) {
            let dims = |inp: &FusionInput, d| inp.shape.dims(d).ok_or("bad block shape");
            let (dims1, dims2) = (dims(in1, c.d1)?, dims(in2, c.d2)?);
            let f = tr
                .time("fuse.horizontal_fuse", Layer::Fuse, || {
                    horizontal_fuse(&in1.kernel, dims1, &in2.kernel, dims2)
                })
                .map_err(|e| e.to_string())?;
            // The static gate's analysis, which the search ran cold.
            tr.time("analysis.ranges", Layer::Analysis, || {
                summarize_ranges(&in1.kernel, Some(c.d1))
            });
            tr.time("analysis.ranges", Layer::Analysis, || {
                summarize_ranges(&in2.kernel, Some(c.d2))
            });
            if !f.gate_fast_path {
                let opts = AnalysisOptions {
                    block_threads: Some(f.block_threads()),
                    ..AnalysisOptions::default()
                };
                tr.time("analysis.lint", Layer::Analysis, || {
                    analyze_kernel(&f.function, None, &opts)
                });
            }
            fused = Some(f);
        }
        let f = fused.as_ref().expect("fused above");
        let mut ir = lower_traced(tr, &f.function)?;
        if let Some(b) = c.reg_bound {
            bound_traced(tr, &mut ir, b);
        }
        if ci == report.best_idx {
            winner_ir = Some(ir.clone());
        }
        if !programs.iter().any(|(p, _)| **p == ir) {
            programs.push((Arc::new(ir), ci));
        }
    }
    if winner_ir.as_ref() != Some(&report.best_kernel) {
        return Err("the replayed winner differs from the searched one".to_owned());
    }

    let mut sim_cycles = 0u64;
    let mut completed_cycles = 0u64;
    for (prog, ci) in &programs {
        let c = &report.candidates[*ci];
        tr.probe("sim.decode", Layer::Sim, || {
            DecodedKernel::new(prog, base.uniform_exec(), base.vector_exec())
        });
        let launch = fused_launch(Arc::clone(prog), c.d1 + c.d2, in1, in2);
        // The search aborts a run at the first clock past its budget; a
        // budget one below the recorded abort clock stops at that clock.
        let budget = c.pruned_at.map_or(u64::MAX, |at| at - 1);
        let mut gpu = base.clone();
        let run = tr
            .time("sim.run", Layer::Sim, || {
                gpu.run_with_budget(std::slice::from_ref(&launch), budget)
            })
            .map_err(|e| e.to_string())?;
        match run {
            BudgetedRun::Completed(res) => {
                if c.pruned_at.is_some() || res.total_cycles != c.cycles {
                    return Err(format!(
                        "candidate {ci} completed in {} cycles",
                        res.total_cycles
                    ));
                }
                tr.add("sim.completed_run_s", last_span_s(tr));
                tr.add("sim.warp_insts", res.metrics.issued_slots as f64);
                sim_cycles += res.total_cycles;
                completed_cycles += res.total_cycles;
                let mut gpu = base.clone();
                tr.probe("sim.functional", Layer::Sim, || {
                    gpu.run_functional(&[launch])
                })
                .map_err(|e| e.to_string())?;
            }
            BudgetedRun::Aborted { cycles_so_far } => {
                if c.pruned_at != Some(cycles_so_far) {
                    return Err(format!("candidate {ci} aborted at {cycles_so_far}"));
                }
                sim_cycles += cycles_so_far;
                tr.add("search.aborted_cycles", cycles_so_far as f64);
            }
        }
    }
    tr.add("sim.cycles", sim_cycles as f64);
    tr.add("search.sim_cycles", sim_cycles as f64);
    tr.add("search.completed_cycles", completed_cycles as f64);
    tr.add("search.candidates", report.candidates.len() as f64);
    tr.add("search.unique_programs", programs.len() as f64);
    tr.add("search.pruned", report.pruned_count() as f64);
    tr.add("search.winner_model_rank", report.best_model_rank() as f64);
    tr.add("search.report_compile_s", report.compile_ms * 1e-3);
    tr.add("search.report_profile_s", report.profile_ms * 1e-3);
    tr.add("search.searches", 1.0);
    Ok(())
}

struct Compiled {
    cold: Timed,
    edit: Timed,
    signature: String,
}

/// The medians of the wall and of the scaled times.
fn median_timed(t: &[Timed]) -> Timed {
    let of = |f: fn(&Timed) -> f64| median(&t.iter().map(f).collect::<Vec<_>>());
    Timed {
        wall_s: of(|t| t.wall_s).expect("one time at least"),
        scaled_s: of(|t| t.scaled_s).expect("one time at least"),
    }
}

/// Runs `plan.compile_passes` timed compile passes, the first through `p`'s
/// session and the others through fresh ones, and reports the median
/// times. With more than one, an untimed pass first warms the process-wide
/// analysis cache, so that every timed pass finds it in the same state.
fn compile_passes(
    plan: &Plan,
    p: &mut Prepared,
    meter: &mut Meter,
    tr: &mut Tracer,
    rep: &mut Rep,
) -> Compiled {
    if plan.compile_passes > 1 {
        compile_phase(
            plan,
            &mut prepare(plan),
            meter,
            &mut Tracer::new(false),
            rep,
        );
    }
    let first = compile_phase(plan, p, meter, tr, rep);
    let (mut cold, mut edit) = (vec![first.cold], vec![first.edit]);
    for _ in 1..plan.compile_passes {
        let c = compile_phase(
            plan,
            &mut prepare(plan),
            meter,
            &mut Tracer::new(false),
            rep,
        );
        rep.check(if c.signature == first.signature {
            Ok(())
        } else {
            Err(format!(
                "compile passes differ: {} vs {}",
                c.signature, first.signature
            ))
        });
        cold.push(c.cold);
        edit.push(c.edit);
    }
    Compiled {
        cold: median_timed(&cold),
        edit: median_timed(&edit),
        signature: first.signature,
    }
}

/// One candidate the compile passes produced.
struct Candidate {
    fused: Arc<FusedKernel>,
    ir: KernelIr,
    capped: KernelIr,
}

/// The compile passes' state: the session, and the fused kernel each
/// `(pair, d1)` was last lowered from, so that a memo hit skips lowering.
struct Compiler<'a> {
    plan: &'a Plan,
    cfg: GpuConfig,
    ids: &'a [Option<KernelId>],
    lowered: BTreeMap<(usize, u32), Arc<FusedKernel>>,
    produced: Vec<Candidate>,
}

impl Compiler<'_> {
    fn id(&self, k: usize) -> KernelId {
        self.ids[k].expect("compiled kernels are registered")
    }

    /// Lints both members, fuses the pair at every Fig. 6 partition, and
    /// lowers each newly fused kernel with and without the register bound.
    fn sweep_pair(&mut self, s: &mut Session, pair: usize) -> Result<(), String> {
        let (a, b) = self.plan.compile_pairs[pair];
        let (ka, kb) = (self.id(a), self.id(b));
        let name = self.plan.pair_name((a, b));
        for k in [ka, kb] {
            let diags = s.lints(k, None).map_err(|e| format!("{name}: lint: {e}"))?;
            if let Some(d) = diags.first() {
                return Err(format!("{name}: lint: {d}"));
            }
        }
        let nregs_a = s.ir(ka).map_err(|e| e.to_string())?.reg_pressure();
        let nregs_b = s.ir(kb).map_err(|e| e.to_string())?.reg_pressure();
        let (ba, bb) = (self.plan.bench(a), self.plan.bench(b));
        for (d1, d2) in partitions(ba, bb) {
            let (Some(dims1), Some(dims2)) = (ba.shape().dims(d1), bb.shape().dims(d2)) else {
                continue;
            };
            let fused = s
                .fused(ka, kb, dims1, dims2)
                .map_err(|e| format!("{name} at {d1}/{d2}: fuse: {e}"))?;
            if self
                .lowered
                .get(&(pair, d1))
                .is_some_and(|f| Arc::ptr_eq(f, &fused))
            {
                continue;
            }
            let ir = lower_kernel(&fused.function)
                .map_err(|e| format!("{name} at {d1}/{d2}: lower: {e}"))?;
            let shmem = ir.shared_bytes(ba.dynamic_shared() + bb.dynamic_shared());
            let r0 = register_bound(&self.cfg, d1, nregs_a, d2, nregs_b, shmem, d1 + d2);
            let mut capped = ir.clone();
            apply_register_bound(&mut capped, r0);
            self.lowered.insert((pair, d1), Arc::clone(&fused));
            self.produced.push(Candidate { fused, ir, capped });
        }
        Ok(())
    }
}

fn delta(after: QueryStats, before: QueryStats) -> QueryStats {
    QueryStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        recomputes: after.recomputes - before.recomputes,
    }
}

/// Checks that a whitespace-only edit re-ran only the parse.
fn check_cut_off(before: &SessionStats, after: &SessionStats) -> Result<(), String> {
    let ast = delta(after.ast, before.ast);
    let downstream = [
        delta(after.ir, before.ir),
        delta(after.lints, before.lints),
        delta(after.fused, before.fused),
    ];
    if ast.recomputes == 1 && downstream.iter().all(|q| q.computes() == 0) {
        Ok(())
    } else {
        Err(format!(
            "whitespace edit was not cut off at the parse: {ast:?} {downstream:?}"
        ))
    }
}

/// Checks that a one-constant edit re-ran the kernel's downstream queries:
/// its parse, lowering and lint once each, and one fusion per partition.
fn check_recomputed(
    before: &SessionStats,
    after: &SessionStats,
    partitions: u64,
) -> Result<(), String> {
    let got = [
        delta(after.ast, before.ast).recomputes,
        delta(after.ir, before.ir).recomputes,
        delta(after.lints, before.lints).recomputes,
        delta(after.fused, before.fused).recomputes,
    ];
    if got == [1, 1, 1, partitions] {
        Ok(())
    } else {
        Err(format!(
            "constant edit recomputed ast/ir/lints/fused {got:?}, want [1, 1, 1, {partitions}]"
        ))
    }
}

/// Declares `bench_edit = constant` as the first statement of the kernel.
fn constant_edit(src: &str, constant: u32) -> String {
    let body = src
        .find("__global__")
        .and_then(|g| src[g..].find('{').map(|o| g + o + 1))
        .expect("a kernel source has a body");
    format!(
        "{} int bench_edit = {constant}; {}",
        &src[..body],
        &src[body..]
    )
}

/// The cold pass and the edit pass through one `Session`, then the checks
/// of everything they produced.
fn compile_phase(
    plan: &Plan,
    p: &mut Prepared,
    meter: &mut Meter,
    tr: &mut Tracer,
    rep: &mut Rep,
) -> Compiled {
    let mut c = Compiler {
        plan,
        cfg: GpuConfig::pascal_like(),
        ids: &p.ids,
        lowered: BTreeMap::new(),
        produced: Vec::new(),
    };
    let s = &mut p.session;
    let mut sweep_failures = Vec::new();

    let span = tr.begin("compile.cold", Layer::Bench);
    let ((), cold) = meter.time(|| {
        for pair in 0..plan.compile_pairs.len() {
            rep.attempted += 1;
            if let Err(e) = c.sweep_pair(s, pair) {
                sweep_failures.push(e);
            }
        }
    });
    tr.end(span);
    let cold_candidates = c.produced.len();

    let span = tr.begin("compile.edit", Layer::Bench);
    let mut edits = Vec::new();
    let ((), edit) = meter.time(|| {
        for &k in &plan.edit_order {
            let id = c.id(k);
            let pairs: Vec<usize> = pairs_with(&plan.compile_pairs, k).collect();
            let before = s.stats();
            s.set_kernel_source(id, format!("{0}{1}{0}", plan.whitespace, p.sources[k]));
            for &pair in &pairs {
                rep.attempted += 1;
                if let Err(e) = c.sweep_pair(s, pair) {
                    sweep_failures.push(e);
                }
            }
            let mid = s.stats();
            s.set_kernel_source(id, constant_edit(&p.sources[k], plan.constant));
            for &pair in &pairs {
                rep.attempted += 1;
                if let Err(e) = c.sweep_pair(s, pair) {
                    sweep_failures.push(e);
                }
            }
            edits.push((k, pairs, before, mid, s.stats()));
        }
    });
    tr.end(span);

    rep.failures.extend(sweep_failures);
    for (k, pairs, before, mid, after) in &edits {
        let name = plan.kernels[*k].name();
        let parts: usize = pairs
            .iter()
            .map(|&pair| {
                let (a, b) = plan.compile_pairs[pair];
                partitions(plan.bench(a), plan.bench(b)).len()
            })
            .sum();
        rep.check(check_cut_off(before, mid).map_err(|e| format!("{name}: {e}")));
        rep.check(check_recomputed(mid, after, parts as u64).map_err(|e| format!("{name}: {e}")));
    }
    let (mut insts, mut spilled) = (0usize, 0usize);
    for cand in &c.produced {
        insts += cand.ir.insts.len() + cand.capped.insts.len();
        spilled += cand.capped.spilled_regs.len();
        rep.check(check_candidate(cand));
    }
    rep.notes.push(format!(
        "compile passes: {} pairs, {} candidates cold, {} after edits of {} kernels",
        plan.compile_pairs.len(),
        cold_candidates,
        c.produced.len() - cold_candidates,
        plan.edit_order.len()
    ));
    Compiled {
        cold,
        edit,
        signature: format!(
            "compiled {cold_candidates}+{} candidates, {insts} insts, {spilled} spilled",
            c.produced.len() - cold_candidates
        ),
    }
}

/// Both lowerings verify, and the fused source prints and parses back to
/// the same kernel.
fn check_candidate(c: &Candidate) -> Result<(), String> {
    let name = &c.fused.function.name;
    thread_ir::verify::verify(&c.ir).map_err(|e| format!("{name}: {e}"))?;
    thread_ir::verify::verify(&c.capped).map_err(|e| format!("{name} (bounded): {e}"))?;
    let src = c.fused.to_source();
    let back = parse_kernel(&src).map_err(|e| format!("{name}: fused source: {e}"))?;
    if cuda_frontend::printer::print_function(&back) != src {
        return Err(format!("{name}: fused source does not print back the same"));
    }
    Ok(())
}

/// Replays the cold compile pass through public calls, each in a span:
/// parse and lint every kernel; then for every pair and partition, the
/// members' range summaries, the fusion, the fused kernel's lint, and
/// lowering with and without the register bound.
fn replay_compile(plan: &Plan, p: &Prepared, tr: &mut Tracer, rep: &mut Rep) {
    let replay = tr.begin("replay.compile", Layer::Bench);
    let outcome = replay_compile_steps(plan, p, tr);
    tr.end(replay);
    rep.check(outcome.map_err(|e| format!("compile replay: {e}")));
}

fn replay_compile_steps(plan: &Plan, p: &Prepared, tr: &mut Tracer) -> Result<(), String> {
    let cfg = GpuConfig::pascal_like();
    let mut parsed: Vec<Option<(Function, u32)>> = vec![None; plan.kernels.len()];
    for (k, slot) in parsed.iter_mut().enumerate() {
        if p.ids[k].is_none() {
            continue;
        }
        let (f, spans) = tr
            .time("frontend.parse", Layer::Frontend, || {
                parse_kernel_with_spans(&p.sources[k])
            })
            .map_err(|e| e.to_string())?;
        tr.time("analysis.lint", Layer::Analysis, || {
            analyze_kernel(&f, Some(&spans), &AnalysisOptions::default())
        });
        let nregs = lower_traced(tr, &f)?.reg_pressure();
        *slot = Some((f, nregs));
    }
    for &(a, b) in &plan.compile_pairs {
        let (Some((fa, nregs_a)), Some((fb, nregs_b))) = (&parsed[a], &parsed[b]) else {
            unreachable!("compiled kernels were parsed")
        };
        let (ba, bb) = (plan.bench(a), plan.bench(b));
        for (d1, d2) in partitions(ba, bb) {
            let (Some(dims1), Some(dims2)) = (ba.shape().dims(d1), bb.shape().dims(d2)) else {
                continue;
            };
            tr.time("analysis.ranges", Layer::Analysis, || {
                summarize_ranges(fa, Some(d1))
            });
            tr.time("analysis.ranges", Layer::Analysis, || {
                summarize_ranges(fb, Some(d2))
            });
            let fused = tr
                .time("fuse.horizontal_fuse", Layer::Fuse, || {
                    horizontal_fuse(fa, dims1, fb, dims2)
                })
                .map_err(|e| e.to_string())?;
            let opts = AnalysisOptions {
                block_threads: Some(d1 + d2),
                ..AnalysisOptions::default()
            };
            tr.time("analysis.lint", Layer::Analysis, || {
                analyze_kernel(&fused.function, None, &opts)
            });
            let mut ir = lower_traced(tr, &fused.function)?;
            let shmem = ir.shared_bytes(ba.dynamic_shared() + bb.dynamic_shared());
            bound_traced(
                tr,
                &mut ir,
                register_bound(&cfg, d1, *nregs_a, d2, *nregs_b, shmem, d1 + d2),
            );
        }
    }
    Ok(())
}

/// The per-layer metrics of a traced repetition.
fn per_layer_metrics(
    tr: &Tracer,
    session: &SessionStats,
    (cache_before, cache_after): (
        hfuse_analysis::AnalysisCacheStats,
        hfuse_analysis::AnalysisCacheStats,
    ),
    rep: &mut Rep,
) {
    let run_s = tr.total_s("sim.run");
    let functional_s = tr.total_s("sim.functional");
    let sim_cycles = tr.counter("sim.cycles");
    let warp_insts = tr.counter("sim.warp_insts");
    let completed_run_s = tr.counter("sim.completed_run_s");
    let searches = tr.counter("search.searches").max(1.0);

    // search.self_s: each search's wall time minus the replayed calls that
    // mirror its own work (probes left out).
    let mut search_self_s = 0.0;
    for winner in tr.spans().iter().filter(|s| s.name == "search.winner") {
        let mirrored: u64 = tr
            .spans()
            .iter()
            .filter(|s| {
                s.search == winner.search
                    && !s.probe
                    && s.layer != Layer::Bench
                    && s.name != "search.winner"
            })
            .map(|s| s.dur_ns())
            .sum();
        search_self_s += (winner.dur_ns() as f64 - mirrored as f64) * 1e-9;
    }

    let queries = [
        session.ast,
        session.ir,
        session.lints,
        session.ranges,
        session.fused,
    ];
    let hits: u64 = queries.iter().map(|q| q.hits).sum();
    let lookups: u64 = queries.iter().map(|q| q.lookups()).sum();

    let values = [
        ("frontend.parse_s", tr.total_s("frontend.parse")),
        ("frontend.kernels", tr.count("frontend.parse") as f64),
        ("frontend.self_s", tr.layer_self_s(Layer::Frontend)),
        ("analysis.lint_s", tr.total_s("analysis.lint")),
        ("analysis.ranges_s", tr.total_s("analysis.ranges")),
        (
            "analysis.cache_hits",
            ((cache_after.hits + cache_after.range_hits)
                - (cache_before.hits + cache_before.range_hits)) as f64,
        ),
        (
            "analysis.cache_misses",
            ((cache_after.misses + cache_after.range_misses)
                - (cache_before.misses + cache_before.range_misses)) as f64,
        ),
        ("analysis.self_s", tr.layer_self_s(Layer::Analysis)),
        ("fuse.fuse_s", tr.total_s("fuse.horizontal_fuse")),
        ("fuse.candidates", tr.count("fuse.horizontal_fuse") as f64),
        ("fuse.self_s", tr.layer_self_s(Layer::Fuse)),
        ("ir.lower_s", tr.total_s("ir.lower")),
        (
            "ir.opt_s",
            tr.total_s("ir.lower") - tr.total_s("ir.lower_unoptimized"),
        ),
        ("ir.regbound_s", tr.total_s("ir.regbound")),
        ("ir.insts", tr.counter("ir.insts")),
        ("ir.spilled_regs", tr.counter("ir.spilled_regs")),
        ("ir.self_s", tr.layer_self_s(Layer::Ir)),
        ("sim.decode_s", tr.total_s("sim.decode")),
        ("sim.run_s", run_s),
        ("sim.functional_s", functional_s),
        ("sim.timing_s", completed_run_s - functional_s),
        ("sim.cycles", sim_cycles),
        ("sim.warp_insts", warp_insts),
        ("sim.warp_insts_per_s", warp_insts / completed_run_s),
        ("sim.cycles_per_s", sim_cycles / run_s),
        ("sim.self_s", tr.layer_self_s(Layer::Sim)),
        ("search.model_s", tr.total_s("search.model")),
        ("search.candidates", tr.counter("search.candidates")),
        (
            "search.unique_programs",
            tr.counter("search.unique_programs"),
        ),
        ("search.pruned", tr.counter("search.pruned")),
        ("search.sim_cycles", tr.counter("search.sim_cycles")),
        ("search.aborted_cycles", tr.counter("search.aborted_cycles")),
        (
            "search.useful_ratio",
            tr.counter("search.completed_cycles") / tr.counter("search.sim_cycles"),
        ),
        (
            "search.winner_model_rank",
            tr.counter("search.winner_model_rank") / searches,
        ),
        (
            "search.report_compile_s",
            tr.counter("search.report_compile_s"),
        ),
        (
            "search.report_profile_s",
            tr.counter("search.report_profile_s"),
        ),
        ("search.self_s", search_self_s),
        ("session.hits", hits as f64),
        (
            "session.misses",
            queries.iter().map(|q| q.misses).sum::<u64>() as f64,
        ),
        (
            "session.recomputes",
            queries.iter().map(|q| q.recomputes).sum::<u64>() as f64,
        ),
        ("session.hit_ratio", hits as f64 / lookups as f64),
    ];
    for (name, v) in values {
        rep.set(name, v);
    }
}
