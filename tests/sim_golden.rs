//! Golden simulated statistics. The engine's differential tests compare
//! two loops of the engine (event-driven vs single-step), and those loops
//! share the interpreter, the issue scan and the SIMT control state, so a
//! drift common to both would pass them. These tests pin the numbers
//! themselves:
//!
//! - the full [`RunResult`] of all 17 benchmark kernels run alone, through
//!   [`Gpu::run`] and [`Gpu::run_naive`];
//! - whole candidate tables (cycles, abort clocks, the bits of every
//!   utilization/stall/occupancy figure, per-class issue counts) of a DL,
//!   a crypto, a family and a 3-way fusion search.
//!
//! A change to the simulator's cost model is expected to change these
//! tables; a performance change to the engine must not. On a mismatch the
//! test prints the actual table, ready to paste over the expected one.

use hfuse::fusion::{
    search_fusion_config, search_multi_fusion_config, FusionInput, MultiSearchReport,
    SearchOptions, SearchReport,
};
use hfuse::ir::lower_kernel;
use hfuse::kernels::AnyBenchmark;
use hfuse::sim::{Gpu, GpuConfig, Launch, RunMetrics, RunResult};

/// Workload scale for the single-kernel runs and the searches.
const SCALE: f64 = 0.25;

/// One line of the single-kernel table: every field of the result.
fn run_line(name: &str, r: &RunResult) -> String {
    let RunMetrics {
        cycles,
        issued_slots,
        total_slots,
        stall_mem,
        stall_exec,
        stall_sync,
        stall_other,
        active_warp_cycles,
        active_sm_cycles,
        max_warps_per_sm,
        thread_insts,
        mem_transactions,
        class_issues,
    } = r.metrics;
    format!(
        "{name} total={} finish={:?} cycles={cycles} issued={issued_slots} \
         slots={total_slots} mem={stall_mem} exec={stall_exec} sync={stall_sync} \
         other={stall_other} warp_cycles={active_warp_cycles} sm_cycles={active_sm_cycles} \
         max_warps={max_warps_per_sm} thread_insts={thread_insts} tx={mem_transactions} \
         class={class_issues:?}",
        r.total_cycles, r.launch_finish
    )
}

/// Runs `bench` alone on a fresh `pascal_like` device: `naive` picks the
/// single-step loop.
fn run_single(bench: &AnyBenchmark, naive: bool) -> RunResult {
    let mut gpu = Gpu::new(GpuConfig::pascal_like());
    let inp = bench.benchmark().fusion_input(gpu.memory_mut());
    let launch = Launch {
        kernel: lower_kernel(&inp.kernel).expect("lower").into(),
        grid_dim: inp.grid_dim,
        block_dim: inp.shape.dims(inp.default_threads).expect("default dims"),
        dynamic_shared_bytes: inp.dynamic_shared,
        args: inp.args.clone(),
    };
    let run = if naive { Gpu::run_naive } else { Gpu::run };
    run(&mut gpu, &[launch]).unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
}

/// Asserts `actual` equals the pinned `expected` table, printing the whole
/// actual table on a mismatch.
fn assert_table(what: &str, expected: &str, actual: &str) {
    let expected: Vec<&str> = expected
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let actual_lines: Vec<&str> = actual.lines().collect();
    if expected != actual_lines {
        let first = expected
            .iter()
            .zip(&actual_lines)
            .position(|(e, a)| e != a)
            .unwrap_or(expected.len().min(actual_lines.len()));
        panic!(
            "{what}: simulated statistics changed (first difference at line {}).\n\
             expected: {:?}\nactual:   {:?}\nactual table:\n{actual}",
            first + 1,
            expected.get(first),
            actual_lines.get(first),
        );
    }
}

#[test]
fn single_kernel_runs_match_golden() {
    let benches: Vec<AnyBenchmark> = AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
        .map(|b| b.scaled(SCALE))
        .collect();
    assert_eq!(benches.len(), 17);
    let mut table = String::new();
    for b in &benches {
        let fast = run_single(b, false);
        assert_eq!(
            run_single(b, true),
            fast,
            "{}: the naive loop differs from the fast run",
            b.name()
        );
        table.push_str(&run_line(b.name(), &fast));
        table.push('\n');
    }
    assert_table("single-kernel runs", SINGLE_GOLDEN, &table);
}

/// The model's member histograms come from functional passes
/// (`Gpu::run_functional_classes`), standing in for the timed runs' class
/// counts: the two must be equal on every kernel, device and block size.
#[test]
fn functional_class_histograms_match_timed_runs() {
    let benches = AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
        .map(|b| b.scaled(SCALE));
    let mut runs = 0;
    for bench in benches {
        let cfgs = [
            GpuConfig::test_tiny(),
            GpuConfig::pascal_like(),
            GpuConfig::volta_like(),
        ];
        for cfg in cfgs {
            let mut gpu = Gpu::new(cfg.clone());
            let inp = bench.benchmark().fusion_input(gpu.memory_mut());
            let sizes = if inp.tunable {
                vec![128, inp.default_threads, 512]
            } else {
                vec![inp.default_threads]
            };
            for threads in sizes {
                let launch = [Launch {
                    kernel: lower_kernel(&inp.kernel).expect("lower").into(),
                    grid_dim: inp.grid_dim,
                    block_dim: inp.shape.dims(threads).expect("block shape"),
                    dynamic_shared_bytes: inp.dynamic_shared,
                    args: inp.args.clone(),
                }];
                let what = format!("{} on {} at {threads} threads", bench.name(), cfg.name);
                let functional = gpu.clone().run_functional_classes(&launch);
                match (functional, gpu.clone().run(&launch)) {
                    (Ok(f), Ok(timed)) => {
                        assert_eq!(f, timed.metrics.class_issues, "{what}");
                        runs += 1;
                    }
                    // A kernel whose tiles do not fit this block size
                    // faults either way.
                    (Err(_), Err(_)) => {}
                    (f, t) => panic!("{what}: functional {f:?}, timed {t:?}"),
                }
            }
        }
    }
    assert!(runs >= 3 * 17, "{runs} runs");
}

fn setup(names: &[&str]) -> (Gpu, Vec<FusionInput>) {
    setup_on(GpuConfig::test_tiny(), SCALE, names)
}

fn setup_on(cfg: GpuConfig, scale: f64, names: &[&str]) -> (Gpu, Vec<FusionInput>) {
    let mut gpu = Gpu::new(cfg);
    let inputs = names
        .iter()
        .map(|n| {
            AnyBenchmark::by_name(n)
                .expect("benchmark exists")
                .scaled(scale)
                .benchmark()
                .fusion_input(gpu.memory_mut())
        })
        .collect();
    (gpu, inputs)
}

/// The candidate table of a pairwise search, floats as raw bits.
fn pair_table(r: &SearchReport) -> String {
    let mut t = format!("best={} d0={}\n", r.best_idx, r.d0);
    for c in &r.candidates {
        t.push_str(&format!(
            "{}+{} reg={:?} cycles={} pruned_at={:?} model={} util={:#x} stall={:#x} \
             occ={:#x} class={:?}\n",
            c.d1,
            c.d2,
            c.reg_bound,
            c.cycles,
            c.pruned_at,
            c.model_score,
            c.issue_util.to_bits(),
            c.mem_stall.to_bits(),
            c.occupancy.to_bits(),
            c.class_issues,
        ));
    }
    t
}

/// The candidate table of an N-way search, floats as raw bits.
fn multi_table(r: &MultiSearchReport) -> String {
    let mut t = format!("best={} d0={}\n", r.best_idx, r.d0);
    for c in &r.candidates {
        t.push_str(&format!(
            "{:?} reg={:?} cycles={} pruned_at={:?} util={:#x} occ={:#x}\n",
            c.partition,
            c.reg_bound,
            c.cycles,
            c.pruned_at,
            c.issue_util.to_bits(),
            c.occupancy.to_bits(),
        ));
    }
    t
}

fn pair_search(a: &str, b: &str) -> String {
    let (gpu, inputs) = setup(&[a, b]);
    let r = search_fusion_config(&gpu, &inputs[0], &inputs[1], SearchOptions::default())
        .unwrap_or_else(|e| panic!("{a}+{b}: {e}"));
    pair_table(&r)
}

#[test]
fn dl_search_matches_golden() {
    assert_table(
        "Batchnorm+Hist",
        BATCHNORM_HIST,
        &pair_search("Batchnorm", "Hist"),
    );
}

/// A search at the scale of the paper's evaluation, where the
/// critical-path bound decides the losers: four of the five losing
/// programs were never simulated, their `pruned_at` is their bound. The
/// fifth, 512+512, raced the winner in the front and reports one cycle
/// past the winner's finish.
#[test]
fn dl_search_at_pascal_scale_matches_golden() {
    let (gpu, inputs) = setup_on(GpuConfig::pascal_like(), 1.0, &["Hist", "Upsample"]);
    let r = search_fusion_config(&gpu, &inputs[0], &inputs[1], SearchOptions::default())
        .expect("Hist+Upsample search");
    assert_table(
        "Hist+Upsample at pascal",
        HIST_UPSAMPLE_PASCAL,
        &pair_table(&r),
    );
}

#[test]
fn crypto_search_matches_golden() {
    assert_table(
        "Blake256+Blake2b",
        BLAKE256_BLAKE2B,
        &pair_search("Blake256", "Blake2b"),
    );
}

#[test]
fn family_search_matches_golden() {
    assert_table(
        "Dot+Downsample",
        DOT_DOWNSAMPLE,
        &pair_search("Dot", "Downsample"),
    );
}

#[test]
fn three_way_search_matches_golden() {
    let (gpu, inputs) = setup(&["Hist", "Maxpool", "Upsample"]);
    let opts = SearchOptions {
        granularity: 256,
        ..SearchOptions::default()
    };
    let r = search_multi_fusion_config(&gpu, &inputs, opts).expect("multi search");
    assert_table(
        "Hist+Maxpool+Upsample",
        HIST_MAXPOOL_UPSAMPLE,
        &multi_table(&r),
    );
}

const SINGLE_GOLDEN: &str = "
Maxpool total=7553 finish=[7552] cycles=7553 issued=40960 slots=119292 mem=65275 exec=10790 sync=0 other=2267 warp_cycles=1784476 sm_cycles=29823 max_warps=64 thread_insts=1310720 tx=4608 class=[33280, 3072, 0, 0, 0, 0, 2560, 0, 0, 2048, 0]
Batchnorm total=34494 finish=[34493] cycles=34494 issued=471872 slots=549240 mem=13404 exec=19048 sync=33368 other=11548 warp_cycles=8181704 sm_cycles=137310 max_warps=64 thread_insts=14485952 tx=2176 class=[385472, 14528, 0, 30720, 3264, 0, 2176, 0, 0, 33664, 2048]
Upsample total=15344 finish=[15343] cycles=15344 issued=117376 slots=244504 mem=107583 exec=15808 sync=0 other=3737 warp_cycles=3737679 sm_cycles=61126 max_warps=64 thread_insts=3747328 tx=6144 class=[97984, 5120, 0, 0, 0, 0, 5120, 0, 0, 9152, 0]
Im2Col total=4432 finish=[4431] cycles=4432 issued=45664 slots=70236 mem=19487 exec=4335 sync=0 other=750 warp_cycles=908167 sm_cycles=17559 max_warps=64 thread_insts=1457728 tx=1104 class=[37200, 4608, 0, 0, 0, 0, 1104, 0, 0, 2752, 0]
Hist total=15300 finish=[15299] cycles=15300 issued=85760 slots=242108 mem=29711 exec=68855 sync=56960 other=822 warp_cycles=3751405 sm_cycles=60527 max_warps=64 thread_insts=2742617 tx=2176 class=[69504, 2048, 0, 0, 256, 2048, 2048, 128, 0, 8704, 1024]
Ethash total=135340 finish=[135339] cycles=135340 issued=57088 slots=2157716 mem=1447397 exec=12848 sync=0 other=640383 warp_cycles=23913603 sm_cycles=539429 max_warps=64 thread_insts=1826816 tx=130816 class=[49152, 1024, 0, 0, 0, 0, 4352, 0, 0, 2560, 0]
SHA256 total=73333 finish=[73332] cycles=73333 issued=1120000 slots=1173096 mem=474 exec=48764 sync=0 other=3858 warp_cycles=9351814 sm_cycles=293274 max_warps=64 thread_insts=35840000 tx=256 class=[1118720, 0, 0, 0, 0, 0, 256, 0, 0, 1024, 0]
Blake256 total=66304 finish=[66303] cycles=66304 issued=969984 slots=1060632 mem=458 exec=88072 sync=0 other=2118 warp_cycles=8465638 sm_cycles=265158 max_warps=64 thread_insts=31039488 tx=256 class=[968704, 0, 0, 0, 0, 0, 256, 0, 0, 1024, 0]
Blake2B total=54358 finish=[54357] cycles=54358 issued=787456 slots=868984 mem=973 exec=78464 sync=0 other=2091 warp_cycles=6932652 sm_cycles=217246 max_warps=64 thread_insts=25198592 tx=512 class=[786176, 0, 0, 0, 0, 0, 256, 0, 0, 1024, 0]
Softmax total=15688 finish=[15687] cycles=15688 issued=142976 slots=250400 mem=57928 exec=20454 sync=28750 other=292 warp_cycles=3900432 sm_cycles=62600 max_warps=64 thread_insts=4315520 tx=5120 class=[93952, 8960, 1024, 5760, 2304, 0, 5120, 0, 0, 23296, 2560]
Transpose total=10184 finish=[10183] cycles=10184 issued=111104 slots=162072 mem=39544 exec=9302 sync=2098 other=24 warp_cycles=2524992 sm_cycles=40518 max_warps=64 thread_insts=3555328 tx=4096 class=[89088, 1536, 0, 0, 4096, 0, 4096, 0, 0, 11264, 1024]
Axpy total=2548 finish=[2547] cycles=2548 issued=16896 slots=39768 mem=19168 exec=350 sync=0 other=3354 warp_cycles=552872 sm_cycles=9942 max_warps=64 thread_insts=540672 tx=1536 class=[13312, 0, 0, 0, 0, 0, 1536, 0, 0, 2048, 0]
Dot total=10875 finish=[10874] cycles=10875 issued=128512 slots=172168 mem=18008 exec=1910 sync=21932 other=1806 warp_cycles=2691438 sm_cycles=43042 max_warps=64 thread_insts=3997440 tx=1088 class=[91264, 4608, 0, 0, 2880, 0, 1088, 0, 0, 24064, 4608]
Gemv total=76224 finish=[76223] cycles=76224 issued=29456 slots=614376 mem=576790 exec=4715 sync=0 other=3415 warp_cycles=1353244 sm_cycles=153594 max_warps=64 thread_insts=942592 tx=33808 class=[24272, 0, 0, 0, 0, 0, 2064, 0, 0, 3120, 0]
Blur total=6044 finish=[6043] cycles=6044 issued=24832 slots=96224 mem=63917 exec=5750 sync=0 other=1725 warp_cycles=866297 sm_cycles=24056 max_warps=64 thread_insts=794624 tx=1856 class=[22016, 256, 0, 0, 0, 0, 1280, 0, 0, 1280, 0]
Downsample total=2866 finish=[2865] cycles=2866 issued=18944 slots=44876 mem=22559 exec=1994 sync=0 other=1379 warp_cycles=472140 sm_cycles=11219 max_warps=64 thread_insts=606208 tx=1152 class=[15744, 1280, 0, 0, 0, 0, 640, 0, 0, 1280, 0]
Attention total=1239407 finish=[1239406] cycles=1239407 issued=838640 slots=9920876 mem=8431409 exec=599616 sync=37428 other=13783 warp_cycles=19966178 sm_cycles=2480219 max_warps=64 thread_insts=26836480 tx=299648 class=[681040, 256, 2048, 0, 32896, 0, 16768, 0, 33280, 72224, 128]
";

const BATCHNORM_HIST: &str = "
best=2 d0=1024
128+896 reg=None cycles=132580 pruned_at=None model=489839 util=0x4050bd131db2882b stall=0x40393c12d614fd64 occ=0x40449060b3303bef class=[288832, 15360, 0, 7680, 1216, 2048, 4224, 128, 0, 31744, 3840]
128+896 reg=Some(32) cycles=132580 pruned_at=None model=489839 util=0x4050bd131db2882b stall=0x40393c12d614fd64 occ=0x40449060b3303bef class=[288832, 15360, 0, 7680, 1216, 2048, 4224, 128, 0, 31744, 3840]
256+768 reg=None cycles=119841 pruned_at=None model=250993 util=0x40575821b79afc2f stall=0x403a7446e749d4c1 occ=0x404afafa79474fc2 class=[363840, 18432, 0, 15360, 1984, 2048, 4224, 128, 0, 38016, 3584]
256+768 reg=Some(32) cycles=119841 pruned_at=None model=250993 util=0x40575821b79afc2f stall=0x403a7446e749d4c1 occ=0x404afafa79474fc2 class=[363840, 18432, 0, 15360, 1984, 2048, 4224, 128, 0, 38016, 3584]
384+640 reg=None cycles=146455 pruned_at=None model=172996 util=0x40577772b18ac35f stall=0x401a2ab50b818b51 occ=0x404d07f913f87bd4 class=[447552, 21760, 0, 23040, 2752, 2048, 4480, 128, 0, 44800, 3328]
384+640 reg=Some(32) cycles=146455 pruned_at=None model=172996 util=0x40577772b18ac35f stall=0x401a2ab50b818b51 occ=0x404d07f913f87bd4 class=[447552, 21760, 0, 23040, 2752, 2048, 4480, 128, 0, 44800, 3328]
512+512 reg=None cycles=163089 pruned_at=None model=136124 util=0x40587b7a7e8a1609 stall=0x0 occ=0x4051893da7f3140a class=[520000, 24576, 0, 30720, 3520, 2048, 4224, 128, 0, 50560, 3072]
512+512 reg=Some(32) cycles=163089 pruned_at=None model=136124 util=0x40587b7a7e8a1609 stall=0x0 occ=0x4051893da7f3140a class=[520000, 24576, 0, 30720, 3520, 2048, 4224, 128, 0, 50560, 3072]
640+384 reg=None cycles=191566 pruned_at=None model=117401 util=0x405833565e5a18d4 stall=0x3fcdad997cff4d3c occ=0x4052688c985ae4ba class=[603840, 28032, 0, 38400, 4288, 2048, 4608, 128, 0, 57600, 2816]
640+384 reg=Some(32) cycles=191566 pruned_at=None model=117401 util=0x405833565e5a18d4 stall=0x3fcdad997cff4d3c occ=0x4052688c985ae4ba class=[603840, 28032, 0, 38400, 4288, 2048, 4608, 128, 0, 57600, 2816]
768+256 reg=None cycles=191567 pruned_at=Some(191567) model=112005 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
768+256 reg=Some(32) cycles=191567 pruned_at=Some(191567) model=112005 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
896+128 reg=None cycles=191567 pruned_at=Some(191567) model=139304 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
896+128 reg=Some(32) cycles=191567 pruned_at=Some(191567) model=139304 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
";

const HIST_UPSAMPLE_PASCAL: &str = "
best=4 d0=1024
128+896 reg=None cycles=89516 pruned_at=Some(89516) model=354529 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
128+896 reg=Some(32) cycles=89516 pruned_at=Some(89516) model=354529 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
256+768 reg=None cycles=88374 pruned_at=Some(88374) model=207070 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
256+768 reg=Some(32) cycles=88374 pruned_at=Some(88374) model=207070 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
384+640 reg=None cycles=87742 pruned_at=None model=170071 util=0x404be53e15cd135c stall=0x405199c9060cad8e occ=0x4057cbbdb11c8fb9 class=[636224, 31232, 0, 0, 256, 8192, 28672, 128, 0, 66496, 1536]
384+640 reg=Some(32) cycles=87742 pruned_at=None model=170071 util=0x404be53e15cd135c stall=0x405199c9060cad8e occ=0x4057cbbdb11c8fb9 class=[636224, 31232, 0, 0, 256, 8192, 28672, 128, 0, 66496, 1536]
512+512 reg=None cycles=87743 pruned_at=Some(87743) model=172685 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
512+512 reg=Some(32) cycles=87743 pruned_at=Some(87743) model=172685 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
640+384 reg=None cycles=88306 pruned_at=Some(88306) model=198323 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
640+384 reg=Some(32) cycles=88306 pruned_at=Some(88306) model=198323 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
768+256 reg=None cycles=90014 pruned_at=Some(90014) model=265562 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
768+256 reg=Some(32) cycles=90014 pruned_at=Some(90014) model=265562 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
896+128 reg=None cycles=89089 pruned_at=Some(89089) model=485520 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
896+128 reg=Some(32) cycles=89089 pruned_at=Some(89089) model=485520 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
";

const BLAKE256_BLAKE2B: &str = "
best=0 d0=512
256+256 reg=None cycles=443396 pruned_at=None model=0 util=0x4058fe183e9d1ef9 stall=0x0 occ=0x4047ba4d13551774 class=[1767936, 1024, 0, 0, 0, 0, 512, 0, 0, 3584, 0]
256+256 reg=Some(32) cycles=443397 pruned_at=Some(443397) model=0 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
";

const DOT_DOWNSAMPLE: &str = "
best=0 d0=1024
128+896 reg=None cycles=50582 pruned_at=None model=85487 util=0x40542e5c0d13ee3a stall=0x40418692ffde570b occ=0x4043e98a6689a431 class=[126464, 9984, 0, 0, 1856, 0, 1728, 0, 0, 21248, 2048]
128+896 reg=Some(32) cycles=50582 pruned_at=None model=85487 util=0x40542e5c0d13ee3a stall=0x40418692ffde570b occ=0x4043e98a6689a431 class=[126464, 9984, 0, 0, 1856, 0, 1728, 0, 0, 21248, 2048]
256+768 reg=None cycles=61133 pruned_at=None model=43711 util=0x40569ced003af617 stall=0x402e4eead92eeb34 occ=0x40477a758bb1a003 class=[166400, 12032, 0, 0, 2880, 0, 1728, 0, 0, 33536, 4608]
256+768 reg=Some(32) cycles=61133 pruned_at=None model=43711 util=0x40569ced003af617 stall=0x402e4eead92eeb34 occ=0x40477a758bb1a003 class=[166400, 12032, 0, 0, 2880, 0, 1728, 0, 0, 33536, 4608]
384+640 reg=None cycles=80181 pruned_at=None model=30043 util=0x40568c8a2521ca06 stall=0x40279bb5a713a522 occ=0x404c579302ea3dc1 class=[212992, 14592, 0, 0, 3904, 0, 1728, 0, 0, 48384, 7680]
384+640 reg=Some(32) cycles=80181 pruned_at=None model=30043 util=0x40568c8a2521ca06 stall=0x40279bb5a713a522 occ=0x404c579302ea3dc1 class=[212992, 14592, 0, 0, 3904, 0, 1728, 0, 0, 48384, 7680]
512+512 reg=None cycles=94089 pruned_at=None model=23548 util=0x4056df38e100692d stall=0x4026074bbf9fddab occ=0x404fba3389b59310 class=[250112, 16640, 0, 0, 4928, 0, 1728, 0, 0, 60672, 10240]
512+512 reg=Some(32) cycles=94089 pruned_at=None model=23548 util=0x4056df38e100692d stall=0x4026074bbf9fddab occ=0x404fba3389b59310 class=[250112, 16640, 0, 0, 4928, 0, 1728, 0, 0, 60672, 10240]
640+384 reg=None cycles=116387 pruned_at=None model=20192 util=0x405742a4f8a599b1 stall=0x401efedae53e09ec occ=0x4051b6df20aa6779 class=[312064, 19968, 0, 0, 5952, 0, 1728, 0, 0, 79360, 14080]
640+384 reg=Some(32) cycles=116387 pruned_at=None model=20192 util=0x405742a4f8a599b1 stall=0x401efedae53e09ec occ=0x4051b6df20aa6779 class=[312064, 19968, 0, 0, 5952, 0, 1728, 0, 0, 79360, 14080]
768+256 reg=None cycles=116388 pruned_at=Some(116388) model=19084 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
768+256 reg=Some(32) cycles=116388 pruned_at=Some(116388) model=19084 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
896+128 reg=None cycles=116388 pruned_at=Some(116388) model=23497 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
896+128 reg=Some(32) cycles=116388 pruned_at=Some(116388) model=23497 util=0x0 stall=0x0 occ=0x0 class=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
";

const HIST_MAXPOOL_UPSAMPLE: &str = "
best=0 d0=1024
[256, 256, 512] reg=None cycles=91691 pruned_at=None util=0x4058b34a494fdd61 occ=0x40538dd6d451c2b2
[256, 256, 512] reg=Some(32) cycles=91691 pruned_at=None util=0x4058b34a494fdd61 occ=0x40538dd6d451c2b2
[256, 512, 256] reg=None cycles=91692 pruned_at=Some(91692) util=0x0 occ=0x0
[256, 512, 256] reg=Some(32) cycles=91692 pruned_at=Some(91692) util=0x0 occ=0x0
[512, 256, 256] reg=None cycles=91692 pruned_at=Some(91692) util=0x0 occ=0x0
[512, 256, 256] reg=Some(32) cycles=91692 pruned_at=Some(91692) util=0x0 occ=0x0
";
