//! `hfuse` — command-line front door to the library, in the spirit of the
//! paper's source-to-source compiler: fuse CUDA kernel files, inspect what
//! the compiler pipeline produces, and run the profiling search on the
//! built-in benchmarks.
//!
//! ```text
//! hfuse fuse a.cu b.cu [more.cu ...] --threads 256,256[,...] [-o fused.cu]
//! hfuse vfuse a.cu b.cu [-o fused.cu]
//! hfuse compile file.cu [--no-opt] [--dump-ir]
//! hfuse search PAIR [--gpu pascal|volta] [--d0 N] [--granularity N] [--no-prune]
//! hfuse bench KERNEL [--gpu pascal|volta]
//! hfuse list
//! ```
//!
//! Compile-pipeline subcommands (`fuse`, `compile`, `search`, `bench`,
//! `lint`) run through a [`Session`] — the incremental query layer in
//! `hfuse-core` — so repeated work within one invocation (and, for the
//! static analysis, across the fuse gate and the linter) is memoized.

use std::process::ExitCode;

use hfuse::frontend::printer::print_function;
use hfuse::fusion::{
    horizontal_fuse_many, vertical_fuse, FusionPart, HfuseError, SearchOptions, Session,
};
use hfuse::ir::{lower_kernel_unoptimized, KernelIr};
use hfuse::kernels::{all_pairs, AnyBenchmark};
use hfuse::sim::{Gpu, GpuConfig, Launch};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("fuse") => cmd_fuse(
            &Opts::parse("fuse", &args[1..], &["--threads", "--output"], &[])?,
            false,
        ),
        Some("vfuse") => cmd_fuse(&Opts::parse("vfuse", &args[1..], &["--output"], &[])?, true),
        Some("compile") => cmd_compile(&Opts::parse(
            "compile",
            &args[1..],
            &[],
            &["--no-opt", "--dump-ir"],
        )?),
        Some("run") => cmd_run(&Opts::parse(
            "run",
            &args[1..],
            &["--grid", "--block", "--show", "--shared", "--gpu", "--arg"],
            &[],
        )?),
        Some("search") => cmd_search(&Opts::parse(
            "search",
            &args[1..],
            &["--gpu", "--d0", "--granularity"],
            &["--no-prune", "--no-model-filter"],
        )?),
        Some("bench") => cmd_bench(&Opts::parse(
            "bench",
            &args[1..],
            &["--gpu"],
            &["--calibrate"],
        )?),
        Some("lint") => cmd_lint(&Opts::parse(
            "lint",
            &args[1..],
            &["--threads", "--extent"],
            &["--paper", "--all", "--json"],
        )?),
        Some("list") => {
            Opts::parse("list", &args[1..], &[], &[])?;
            cmd_list()
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "\
hfuse — automatic horizontal fusion for GPU kernels

USAGE:
  hfuse fuse <a.cu> <b.cu> [more.cu ...] [--threads N,N[,..]] [-o OUT]
      Horizontally fuse two or more kernels (one __global__ per file).
      --threads gives each kernel's block threads (default 256 each).
  hfuse vfuse <a.cu> <b.cu> [-o OUT]
      Vertically fuse two kernels (the baseline the paper compares against).
  hfuse compile <file.cu> [--no-opt] [--dump-ir]
      Lower a kernel to the SIMT IR and report size / register pressure.
  hfuse run <file.cu> --grid G --block B --arg SPEC [--arg SPEC ...]
      Execute a kernel on the simulator and report metrics. Argument specs
      match the kernel signature in order:
        i32:<v> | u32:<v> | f32:<v> | f64:<v> | i64:<v> | u64:<v>
        buf:<elems>[:<fill>]   (pointer arg: zeroed f32/u32 buffer, or
                                filled with `fill` as a float; printed back
                                after the run with --show N)
  hfuse search <PAIR> [--gpu pascal|volta] [--d0 N] [--granularity N]
               [--no-prune] [--no-model-filter]
      Run the Fig. 6 configuration search on a built-in benchmark pair,
      e.g. `hfuse search Batchnorm+Hist`. Candidates are ranked by the
      calibrated analytic model and profiled best-first with
      branch-and-bound pruning; --no-prune forces exhaustive profiling,
      --no-model-filter falls back to the legacy cost-estimate ordering.
      The winner is identical in every mode.
  hfuse bench <KERNEL> [--gpu pascal|volta]
      Profile one built-in benchmark kernel (a Fig. 8 row).
  hfuse bench --calibrate [--gpu pascal|volta]
      Refit the analytic search model: exhaustively profile every paper
      pair's candidates and print the per-latency-class constants (the
      CALIBRATED_K array in gpu-sim's model.rs) plus fit quality.
  hfuse lint <file.cu> [more.cu ...] [--threads N] [--extent name=len ...]
             [--json] | hfuse lint --paper | --all
      Run the static fusion-safety analyzer: barrier-divergence, definite
      shared-memory races, partial-barrier structure, and value-range
      out-of-bounds lints. --threads fixes the block size (sharpens the
      barrier and range lints); --extent declares a global pointer
      parameter's length in elements, arming the global-out-of-bounds
      lint for it (repeatable); --json prints machine-readable output;
      --paper lints every built-in paper kernel instead, --all
      additionally covers the extension kernels and the BLAS / image /
      attention families. Exits nonzero on any diagnostic.
  hfuse list
      List built-in benchmark kernels and evaluation pairs.

Flags may be written `--flag value` or `--flag=value`; `-o` is short for
`--output`.
";

/// One subcommand's parsed command line: positional arguments plus
/// validated flags.
///
/// Every subcommand goes through this one parser, so `--flag value`,
/// `--flag=value`, repeated flags (`--arg`), and the `-o` alias for
/// `--output` behave identically everywhere — and a flag the subcommand
/// doesn't declare is an error naming the subcommand instead of being
/// silently ignored.
struct Opts {
    cmd: &'static str,
    positionals: Vec<String>,
    /// `(canonical flag, value)` occurrences, in command-line order.
    values: Vec<(&'static str, String)>,
    bools: Vec<&'static str>,
}

impl Opts {
    fn parse(
        cmd: &'static str,
        args: &[String],
        value_flags: &'static [&'static str],
        bool_flags: &'static [&'static str],
    ) -> Result<Opts, String> {
        let mut opts = Opts {
            cmd,
            positionals: Vec::new(),
            values: Vec::new(),
            bools: Vec::new(),
        };
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let arg = if arg == "-o" {
                "--output"
            } else {
                arg.as_str()
            };
            if !arg.starts_with("--") {
                opts.positionals.push(arg.to_owned());
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v.to_owned())),
                None => (arg, None),
            };
            if let Some(&canon) = bool_flags.iter().find(|&&f| f == name) {
                if inline.is_some() {
                    return Err(format!("`hfuse {cmd}`: flag `{canon}` takes no value"));
                }
                opts.bools.push(canon);
            } else if let Some(&canon) = value_flags.iter().find(|&&f| f == name) {
                let value = match inline {
                    Some(v) => v,
                    None => iter
                        .next()
                        .cloned()
                        .ok_or_else(|| format!("`hfuse {cmd}`: flag `{canon}` needs a value"))?,
                };
                opts.values.push((canon, value));
            } else {
                return Err(format!(
                    "unknown flag `{name}` for `hfuse {cmd}` (see `hfuse --help`)"
                ));
            }
        }
        Ok(opts)
    }

    /// The last value given for a flag.
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable flag, in order.
    fn values_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.values
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, name: &str) -> bool {
        self.bools.contains(&name)
    }

    /// Parses the last value of a flag, or `None` when absent. Parse errors
    /// name the flag.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|e| format!("`hfuse {}`: {name} {v}: {e}", self.cmd))
            })
            .transpose()
    }
}

fn gpu_config(opts: &Opts) -> Result<GpuConfig, String> {
    match opts.value("--gpu") {
        None | Some("pascal") | Some("1080ti") => Ok(GpuConfig::pascal_like()),
        Some("volta") | Some("v100") => Ok(GpuConfig::volta_like()),
        Some(other) => Err(format!("unknown GPU `{other}` (use pascal or volta)")),
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn read_kernel(path: &str) -> Result<hfuse::frontend::Function, String> {
    let src = read_source(path)?;
    hfuse::frontend::parse_kernel(&src).map_err(|e| format!("{path}:\n{}", e.render(&src)))
}

/// Renders a session-query error for a kernel loaded from `path`: parse
/// errors get the multi-line source-context rendering, everything else its
/// `Display` form.
fn render_err(e: &HfuseError, path: &str, src: &str) -> String {
    match e {
        HfuseError::Frontend(fe) => format!("{path}:\n{}", fe.render(src)),
        other => other.to_string(),
    }
}

fn write_or_print(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_fuse(opts: &Opts, vertical: bool) -> Result<(), String> {
    let files: Vec<&str> = opts.positionals.iter().map(String::as_str).collect();
    if files.len() < 2 {
        return Err("fuse needs at least two kernel files".to_owned());
    }
    if vertical && files.len() != 2 {
        return Err("vertical fusion takes exactly two kernels".to_owned());
    }
    let out = opts.value("--output");

    if vertical {
        let kernels: Vec<_> = files
            .iter()
            .map(|f| read_kernel(f))
            .collect::<Result<_, _>>()?;
        let fused = vertical_fuse(&kernels[0], &kernels[1]).map_err(|e| e.to_string())?;
        return write_or_print(out, &print_function(&fused.function));
    }

    let threads: Vec<u32> = match opts.value("--threads") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map_err(|e| format!("--threads: {e}"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![256; files.len()],
    };
    if threads.len() != files.len() {
        return Err(format!(
            "--threads lists {} counts for {} kernels",
            threads.len(),
            files.len()
        ));
    }

    if files.len() == 2 {
        // Pairwise fusion runs through the session's memoized `fused` query
        // (same pipeline the search uses).
        let mut s = Session::new(GpuConfig::pascal_like());
        let mut ids = Vec::new();
        let mut sources = Vec::new();
        for f in &files {
            let src = read_source(f)?;
            ids.push(s.add_kernel(src.clone()));
            sources.push(src);
        }
        for (i, &k) in ids.iter().enumerate() {
            s.ast(k)
                .map_err(|e| render_err(&e, files[i], &sources[i]))?;
        }
        let fused = s
            .fused(ids[0], ids[1], (threads[0], 1, 1), (threads[1], 1, 1))
            .map_err(|e| e.to_string())?;
        eprintln!(
            "fused 2 kernels into a {}-thread block (partitions {:?})",
            fused.block_threads(),
            [fused.d1, fused.d2]
        );
        return write_or_print(out, &fused.to_source());
    }

    let kernels: Vec<_> = files
        .iter()
        .map(|f| read_kernel(f))
        .collect::<Result<_, _>>()?;
    let parts: Vec<FusionPart> = kernels
        .into_iter()
        .zip(&threads)
        .map(|(k, &t)| FusionPart::new(k, (t, 1, 1)))
        .collect();
    let fused = horizontal_fuse_many(&parts).map_err(|e| e.to_string())?;
    eprintln!(
        "fused {} kernels into a {}-thread block (partitions {:?})",
        parts.len(),
        fused.block_threads(),
        fused.partitions
    );
    write_or_print(out, &fused.to_source())
}

fn cmd_compile(opts: &Opts) -> Result<(), String> {
    let [file] = opts.positionals.as_slice() else {
        return Err("compile takes exactly one kernel file".to_owned());
    };
    let src = read_source(file)?;
    let ir: KernelIr = if opts.flag("--no-opt") {
        let kernel = hfuse::frontend::parse_kernel(&src)
            .map_err(|e| format!("{file}:\n{}", e.render(&src)))?;
        lower_kernel_unoptimized(&kernel).map_err(|e| e.to_string())?
    } else {
        // The optimized pipeline goes through the session's `ir` query.
        let mut s = Session::new(GpuConfig::pascal_like());
        let k = s.add_kernel(src.clone());
        let ir = s.ir(k).map_err(|e| render_err(&e, file, &src))?;
        (*ir).clone()
    };
    println!("kernel `{}`", ir.name);
    println!("  instructions:      {}", ir.insts.len());
    println!("  virtual registers: {}", ir.num_regs);
    println!("  register pressure: {}", ir.reg_pressure());
    println!(
        "  simulator rows:    {} per warp",
        thread_ir::liveness::storage_slots(&ir).num_slots
    );
    println!("  static shared:     {} bytes", ir.shared_static_bytes);
    println!(
        "  dynamic shared:    {}",
        if ir.uses_dynamic_shared { "yes" } else { "no" }
    );
    println!("  local memory:      {} bytes/thread", ir.local_bytes);
    if opts.flag("--dump-ir") {
        print!("{}", thread_ir::printer::print_kernel_ir(&ir));
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let [file] = opts.positionals.as_slice() else {
        return Err("run takes exactly one kernel file".to_owned());
    };
    let src = read_source(file)?;
    let cfg = gpu_config(opts)?;
    let mut s = Session::with_gpu(Gpu::new(cfg.clone()));
    let kid = s.add_kernel(src.clone());
    let kernel_name = s
        .ast(kid)
        .map_err(|e| render_err(&e, file, &src))?
        .name
        .clone();
    let ir = s.ir(kid).map_err(|e| render_err(&e, file, &src))?;

    let grid: u32 = opts.parsed("--grid")?.unwrap_or(8);
    let block: u32 = opts.parsed("--block")?.unwrap_or(256);
    let show: usize = opts.parsed("--show")?.unwrap_or(8);

    let mut arg_values = Vec::new();
    let mut buffers = Vec::new();
    for spec in opts.values_of("--arg") {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad --arg `{spec}`"))?;
        use hfuse::sim::ParamValue as P;
        let v = match kind {
            "i32" => P::I32(rest.parse().map_err(|e| format!("{spec}: {e}"))?),
            "u32" => P::U32(rest.parse().map_err(|e| format!("{spec}: {e}"))?),
            "i64" => P::I64(rest.parse().map_err(|e| format!("{spec}: {e}"))?),
            "u64" => P::U64(rest.parse().map_err(|e| format!("{spec}: {e}"))?),
            "f32" => P::F32(rest.parse().map_err(|e| format!("{spec}: {e}"))?),
            "f64" => P::F64(rest.parse().map_err(|e| format!("{spec}: {e}"))?),
            "buf" => {
                let (elems, fill) = match rest.split_once(':') {
                    Some((n, f)) => (
                        n.parse::<usize>().map_err(|e| format!("{spec}: {e}"))?,
                        Some(f.parse::<f32>().map_err(|e| format!("{spec}: {e}"))?),
                    ),
                    None => (rest.parse().map_err(|e| format!("{spec}: {e}"))?, None),
                };
                let id = match fill {
                    Some(f) => s.gpu_mut().memory_mut().alloc_from_f32(&vec![f; elems]),
                    None => s.gpu_mut().memory_mut().alloc_f32(elems),
                };
                buffers.push((id, elems));
                P::Ptr(id)
            }
            other => return Err(format!("unknown --arg kind `{other}`")),
        };
        arg_values.push(v);
    }

    let launch = Launch {
        kernel: (*ir).clone().into(),
        grid_dim: grid,
        block_dim: (block, 1, 1),
        dynamic_shared_bytes: opts.parsed("--shared")?.unwrap_or(0),
        args: arg_values,
    };
    let r = s.gpu_mut().run(&[launch]).map_err(|e| e.to_string())?;
    println!(
        "`{kernel_name}` on {} (grid {grid} × block {block}):",
        cfg.name
    );
    println!("  cycles:            {}", r.total_cycles);
    println!(
        "  issue slot util:   {:.2}%",
        r.metrics.issue_slot_utilization()
    );
    println!("  mem-inst stall:    {:.1}%", r.metrics.mem_stall_pct());
    println!("  occupancy:         {:.1}%", r.metrics.occupancy_pct());
    for (i, (id, elems)) in buffers.iter().enumerate() {
        let n = show.min(*elems);
        let vals = s.gpu().memory().read_f32s(*id);
        println!("  buffer {i} (first {n} as f32): {:?}", &vals[..n]);
    }
    Ok(())
}

fn parse_pair(name: &str) -> Result<(AnyBenchmark, AnyBenchmark), String> {
    let (a, b) = name
        .split_once('+')
        .ok_or_else(|| format!("pair `{name}` must be of the form A+B (see `hfuse list`)"))?;
    let a = AnyBenchmark::by_name(a).ok_or_else(|| format!("unknown kernel `{a}`"))?;
    let b = AnyBenchmark::by_name(b).ok_or_else(|| format!("unknown kernel `{b}`"))?;
    Ok((a, b))
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    let [pair_name] = opts.positionals.as_slice() else {
        return Err("search takes one PAIR argument, e.g. Batchnorm+Hist".to_owned());
    };
    let (a, b) = parse_pair(pair_name)?;
    let cfg = gpu_config(opts)?;
    let d0 = opts.parsed("--d0")?.unwrap_or(1024);
    let granularity = opts.parsed("--granularity")?.unwrap_or(128);

    let mut gpu = Gpu::new(cfg.clone());
    let in1 = a.benchmark().fusion_input(gpu.memory_mut());
    let in2 = b.benchmark().fusion_input(gpu.memory_mut());

    // One session carries the whole subcommand: the native baseline and the
    // search share the memoized parses.
    let mut s = Session::with_gpu(gpu);
    s.set_search_options(SearchOptions {
        d0,
        granularity,
        prune: !opts.flag("--no-prune"),
        model_filter: !opts.flag("--no-model-filter"),
    });
    let ka = s.add_fusion_input(&in1);
    let kb = s.add_fusion_input(&in2);

    let native = s.native(ka, kb).map_err(|e| e.to_string())?;
    println!(
        "GPU {} — native co-execution: {} cycles",
        cfg.name, native.total_cycles
    );
    let report = s.search_winner(ka, kb).map_err(|e| e.to_string())?;
    println!(
        "{:>6} {:>6} {:>7} {:>9} {:>9} {:>7} {:>9} {:>7}",
        "d1", "d2", "bound", "cycles", "speedup%", "util%", "memstall%", "occ%"
    );
    for c in &report.candidates {
        if let Some(at) = c.pruned_at {
            println!(
                "{:>6} {:>6} {:>7} {:>9} {:>9}",
                c.d1,
                c.d2,
                c.reg_bound
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "-".into()),
                format!(">{at}"),
                "pruned",
            );
            continue;
        }
        println!(
            "{:>6} {:>6} {:>7} {:>9} {:>+9.1} {:>7.1} {:>9.1} {:>7.1}",
            c.d1,
            c.d2,
            c.reg_bound
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".into()),
            c.cycles,
            100.0 * (native.total_cycles as f64 / c.cycles as f64 - 1.0),
            c.issue_util,
            c.mem_stall,
            c.occupancy
        );
    }
    let best = report.best();
    println!(
        "best: d1 = {}, bound = {:?} → {:+.1}% over native",
        best.d1,
        best.reg_bound,
        100.0 * (native.total_cycles as f64 / best.cycles as f64 - 1.0)
    );
    println!(
        "search: {} candidates, {} pruned early; compile {:.1} ms, profile {:.1} ms",
        report.candidates.len(),
        report.pruned_count(),
        report.compile_ms,
        report.profile_ms
    );
    println!("{}", report.explain_best());
    Ok(())
}

fn cmd_bench(opts: &Opts) -> Result<(), String> {
    if opts.flag("--calibrate") {
        return cmd_calibrate(opts);
    }
    let [name] = opts.positionals.as_slice() else {
        return Err("bench takes one KERNEL argument, e.g. Ethash".to_owned());
    };
    let b = AnyBenchmark::by_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))?;
    let cfg = gpu_config(opts)?;
    let mut gpu = Gpu::new(cfg.clone());
    let input = b.benchmark().fusion_input(gpu.memory_mut());
    let mut s = Session::with_gpu(gpu);
    let k = s.add_fusion_input(&input);
    let r = s.single(k).map_err(|e| e.to_string())?;
    println!("{} on {}:", b.name(), cfg.name);
    println!("  cycles:            {}", r.total_cycles);
    println!(
        "  issue slot util:   {:.2}%",
        r.metrics.issue_slot_utilization()
    );
    println!("  mem-inst stall:    {:.1}%", r.metrics.mem_stall_pct());
    println!("  occupancy:         {:.1}%", r.metrics.occupancy_pct());
    println!("  instructions:      {}", r.metrics.thread_insts);
    println!("  mem transactions:  {}", r.metrics.mem_transactions);
    Ok(())
}

/// `hfuse bench --calibrate`: exhaustively profile every paper pair's
/// candidates, refit the analytic model's per-class constants, and print
/// them as the Rust array to check in, with a fit-quality comparison
/// against the currently compiled-in constants.
fn cmd_calibrate(opts: &Opts) -> Result<(), String> {
    use hfuse::fusion::calibration_rows;
    use hfuse::sim::model::{fit_constants, CalibrationRow, CALIBRATED_K, NUM_FEATURES};
    use hfuse::sim::IssueKind;

    let cfg = gpu_config(opts)?;
    let mut rows: Vec<CalibrationRow> = Vec::new();
    let mut groups: Vec<(String, std::ops::Range<usize>)> = Vec::new();
    for pair in all_pairs() {
        let mut gpu = Gpu::new(cfg.clone());
        let in1 = pair.first.benchmark().fusion_input(gpu.memory_mut());
        let in2 = pair.second.benchmark().fusion_input(gpu.memory_mut());
        let pair_rows = calibration_rows(&gpu, &in1, &in2, SearchOptions::default())
            .map_err(|e| format!("{}: {e}", pair.name()))?;
        eprintln!("{}: {} observations", pair.name(), pair_rows.len());
        let start = rows.len();
        rows.extend(pair_rows);
        groups.push((pair.name(), start..rows.len()));
    }
    if rows.is_empty() {
        return Err("no schedulable candidates to calibrate on".to_owned());
    }
    let k = fit_constants(&rows);

    // Per-pair top-1 agreement: does the fitted model's best-ranked
    // candidate coincide with the simulated winner?
    let argmin = |vals: &[f64]| -> usize {
        vals.iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
            .map_or(0, |(i, _)| i)
    };
    let mut agree = 0;
    for (name, range) in &groups {
        let pair_rows = &rows[range.clone()];
        let preds: Vec<f64> = pair_rows
            .iter()
            .map(|r| r.features.iter().zip(&k).map(|(x, c)| x * c).sum())
            .collect();
        let sims: Vec<f64> = pair_rows.iter().map(|r| r.cycles as f64).collect();
        let (mi, si) = (argmin(&preds), argmin(&sims));
        if mi == si {
            agree += 1;
        } else {
            eprintln!(
                "{name}: model top-1 is candidate {mi}, simulated winner is {si} \
                 (model gap {:+.1}%)",
                100.0 * (sims[mi] / sims[si] - 1.0)
            );
        }
    }
    eprintln!(
        "model top-1 matches the simulated winner on {agree}/{} pairs",
        groups.len()
    );

    // Mean absolute relative error of predicted vs simulated cycles, for
    // both the fresh fit and the constants currently compiled in.
    let mare = |consts: &[f64; NUM_FEATURES]| -> f64 {
        rows.iter()
            .map(|r| {
                let pred: f64 = r.features.iter().zip(consts).map(|(x, c)| x * c).sum();
                (pred - r.cycles as f64).abs() / (r.cycles as f64).max(1.0)
            })
            .sum::<f64>()
            / rows.len() as f64
    };

    println!(
        "// Fitted on {} candidate observations from the {} paper pairs ({}).",
        rows.len(),
        all_pairs().len(),
        cfg.name
    );
    println!("pub const CALIBRATED_K: [f64; NUM_FEATURES] = [");
    for kind in IssueKind::ALL {
        println!("    {:?}, // {}", k[kind.index()], kind.name());
    }
    println!(
        "    {:?}, // spill operands",
        k[hfuse::sim::model::SPILL_FEATURE]
    );
    println!(
        "    {:?}, // load imbalance",
        k[hfuse::sim::model::IMBALANCE_FEATURE]
    );
    println!("];");
    println!(
        "fit quality: mean |pred-sim|/sim = {:.1}% (compiled-in constants: {:.1}%)",
        100.0 * mare(&k),
        100.0 * mare(&CALIBRATED_K)
    );
    Ok(())
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn cmd_lint(opts: &Opts) -> Result<(), String> {
    let threads: Option<u32> = opts.parsed("--threads")?;

    // `--extent out=256` declares a global pointer parameter's length in
    // elements, arming the global-out-of-bounds lint for that buffer.
    let mut extents = std::collections::BTreeMap::new();
    for spec in opts.values_of("--extent") {
        let (name, len) = spec
            .split_once('=')
            .ok_or_else(|| format!("`hfuse lint`: --extent {spec}: expected name=len"))?;
        let len: i64 = len
            .parse()
            .map_err(|e| format!("`hfuse lint`: --extent {spec}: {e}"))?;
        extents.insert(name.to_owned(), len);
    }

    // (label, source, block threads) for every kernel to analyze.
    let mut units: Vec<(String, String, Option<u32>)> = Vec::new();
    if opts.flag("--paper") || opts.flag("--all") {
        let mut benches = AnyBenchmark::all();
        if opts.flag("--all") {
            benches.extend(AnyBenchmark::extensions());
            benches.extend(AnyBenchmark::families());
        }
        for b in benches {
            let bench = b.benchmark();
            units.push((
                b.name().to_owned(),
                bench.source(),
                Some(threads.unwrap_or_else(|| bench.default_threads())),
            ));
        }
    } else {
        if opts.positionals.is_empty() {
            return Err("lint needs at least one kernel file, or --paper".to_owned());
        }
        for f in &opts.positionals {
            let src = read_source(f)?;
            units.push((f.clone(), src, threads));
        }
    }

    // One session for the whole lint run; its `lints` query shares the
    // process-wide analysis cache with the fuse-time safety gate, so a
    // kernel linted here is never re-analyzed by a later fuse in the same
    // process (and vice versa).
    let mut s = Session::new(GpuConfig::pascal_like());
    if !extents.is_empty() {
        s.set_global_extents(Some(extents));
    }
    let json = opts.flag("--json");
    let mut total = 0usize;
    let mut rows: Vec<String> = Vec::new();
    for (label, src, block_threads) in &units {
        let k = s.add_kernel(src.clone());
        let diags = s
            .lints(k, *block_threads)
            .map_err(|e| render_err(&e, label, src))?;
        if json {
            let ds: Vec<String> = diags
                .iter()
                .map(|d| {
                    let pos = match d.span {
                        Some(sp) => format!("\"line\": {}, \"col\": {}", sp.line, sp.col),
                        None => "\"line\": null, \"col\": null".to_owned(),
                    };
                    format!(
                        "      {{ \"severity\": \"{}\", \"code\": \"{}\", {pos}, \"message\": \"{}\" }}",
                        d.severity,
                        json_escape(&d.code),
                        json_escape(&d.message)
                    )
                })
                .collect();
            rows.push(format!(
                "  {{\n    \"kernel\": \"{}\",\n    \"diagnostics\": [{}]\n  }}",
                json_escape(label),
                if ds.is_empty() {
                    String::new()
                } else {
                    format!("\n{}\n    ", ds.join(",\n"))
                }
            ));
        } else {
            for d in diags.iter() {
                println!("{label}: {}", d.render(src));
            }
        }
        total += diags.len();
    }
    if json {
        println!(
            "{{\n\"checked\": {}, \"total\": {},\n\"kernels\": [\n{}\n]\n}}",
            units.len(),
            total,
            rows.join(",\n")
        );
    }
    if total == 0 {
        if !json {
            let n = units.len();
            eprintln!(
                "checked {n} kernel{}: no diagnostics",
                if n == 1 { "" } else { "s" }
            );
        }
        Ok(())
    } else {
        Err(format!(
            "{total} diagnostic{} reported",
            if total == 1 { "" } else { "s" }
        ))
    }
}

fn cmd_list() -> Result<(), String> {
    println!("benchmark kernels (paper set, extensions, then families):");
    for b in AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
    {
        let bench = b.benchmark();
        println!(
            "  {:<10} block {}{}, grid {}",
            b.name(),
            bench.default_threads(),
            if bench.tunable() {
                " (tunable)"
            } else {
                " (fixed)"
            },
            bench.grid_dim()
        );
    }
    println!("\nevaluation pairs (starred member is the one the ratio sweep scales):");
    for p in all_pairs() {
        println!("  {}", p.name());
    }
    println!("\nfamily pairs (BLAS / image / attention crosses):");
    for p in hfuse::kernels::family_pairs() {
        println!("  {}", p.name());
    }
    Ok(())
}
