//! Calibrated analytic cost model for ranking fusion candidates.
//!
//! The branch-and-bound search orders candidates by a static estimate
//! before profiling; [`crate::cost_estimate`] ranks with a single scalar
//! instruction weight. This module refines that into a *per-latency-class*
//! model. Each original kernel is profiled natively **once** per search,
//! yielding its measured per-class issue histogram
//! (`RunMetrics::class_issues`); a fused candidate that gives `d1` threads
//! to kernel 1 and `d2` to kernel 2 then has the per-thread dynamic mix
//!
//! ```text
//! mix_c = I1[c] / d1  +  I2[c] / d2
//! ```
//!
//! because grid-stride kernels redistribute a fixed total amount of work
//! over however many threads the partition grants them ([`fused_dyn_mix`]).
//! The estimated cost is
//!
//! ```text
//! waves × threads_per_block × Σ_c  mix_c × class_latency_c × k_c
//! ```
//!
//! where `waves` is the occupancy-limited wave count (the same resource
//! arithmetic as [`crate::cost_estimate`]), `class_latency_c` comes from the
//! device's [`crate::config::Latencies`], and the dimensionless constants
//! `k_c` are **calibrated** once against fully simulated cycle counts on the
//! paper benchmark pairs ([`fit_constants`], regenerated with
//! `hfuse bench --calibrate`) and checked in as [`CALIBRATED_K`].
//!
//! The model never decides correctness: the search still profiles every
//! candidate it cannot prove worse, and the model-exempt top-k candidates
//! are profiled without a budget, so the reported winner is bit-identical
//! to the exhaustive search regardless of model quality (see
//! `search_fusion_config`).

use thread_ir::ir::{BinIr, Inst, KernelIr, UnIr};

use crate::config::GpuConfig;
use crate::exec::IssueKind;
use crate::occupancy::blocks_per_sm;

/// Number of fitted features: one per latency class, one for
/// spilled-register operand traffic (spill reloads have their own latency
/// constant in the config, distinct from the `LocalMem` class), and one for
/// inter-kernel load imbalance.
pub const NUM_FEATURES: usize = IssueKind::COUNT + 2;

/// Index of the spill feature in calibration vectors.
pub const SPILL_FEATURE: usize = IssueKind::COUNT;

/// Index of the load-imbalance feature. A fused block retires when its
/// *slowest* member interval finishes, so the cost is closer to
/// `max(t_1, t_2)` than to the per-class sum `Σ t_i`; since
/// `max(a, b) = (a + b)/2 + |a − b|/2`, an explicit `max_i t_i − mean_i t_i`
/// regressor lets the linear fit express the max exactly at the
/// total-latency level.
pub const IMBALANCE_FEATURE: usize = IssueKind::COUNT + 1;

/// Dimensionless per-class calibration constants, fitted by
/// [`fit_constants`] on the paper pairs (pascal_like / 1080Ti config at the
/// default workloads, the same device and scale the search benchmarks run
/// at) and checked in. Regenerate with `hfuse bench --calibrate`. Classes
/// that never appear in the calibration corpus keep the neutral constant
/// 1.0.
// Fitted on 152 candidate observations from the 16 paper pairs (1080Ti).
pub const CALIBRATED_K: [f64; NUM_FEATURES] = [
    0.0011288692397585546, // alu
    0.0,                   // div
    1.0,                   // special (absent from calibration corpus)
    0.008567288187936516,  // shuffle
    0.0028157213029884657, // shared_mem
    0.0033959280125160107, // shared_atomic
    0.0002914979311023525, // global_mem
    0.0008489820027517356, // global_atomic
    1.0,                   // local_mem (absent from calibration corpus)
    0.0,                   // control
    0.0007698938827140428, // barrier
    0.0017321662241208725, // spill operands
    0.0001710410255377661, // load imbalance
];

/// Static per-thread instruction mix of a kernel over the latency classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassMix {
    /// Instruction count per class, indexed by [`IssueKind::index`].
    pub counts: [u64; IssueKind::COUNT],
    /// Total spilled-register operand references (each one costs an extra
    /// spill access on issue).
    pub spills: u64,
}

impl ClassMix {
    /// Sum of both mixes (a fused kernel is approximately the union of its
    /// parts; useful for sanity checks).
    pub fn add(&self, other: &ClassMix) -> ClassMix {
        let mut counts = self.counts;
        for (c, o) in counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        ClassMix {
            counts,
            spills: self.spills + other.spills,
        }
    }

    /// Total classified instructions.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Memory-space provenance of a register value, for classifying `Ld`/`St`/
/// `Atom` without executing: `SharedAddr`/`LocalAddr` results (and pointer
/// arithmetic on them) are tagged, everything else defaults to global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpaceTag {
    Shared,
    Local,
    Other,
}

/// Computes the static per-thread [`ClassMix`] of a kernel in one linear
/// pass, mirroring the `IssueKind` classification the interpreter applies
/// at execution time. Memory instructions are classified by a simple
/// address-provenance dataflow (`SharedAddr`/`LocalAddr` tags propagate
/// through moves, casts, and add/sub pointer arithmetic; anything else is
/// global). Control flow is ignored — counts are static, not dynamic — so
/// the mix is a per-iteration fingerprint, which is exactly what the
/// calibrated ranking needs (loop trip counts scale all candidates of a
/// pair alike).
pub fn static_class_mix(kernel: &KernelIr) -> ClassMix {
    let mut mix = ClassMix::default();
    let mut tag = vec![SpaceTag::Other; kernel.num_regs as usize];
    let mut spilled = vec![false; kernel.num_regs as usize];
    for &r in &kernel.spilled_regs {
        spilled[r as usize] = true;
    }
    let mut srcs: Vec<u32> = Vec::with_capacity(3);
    for inst in &kernel.insts {
        // Spill traffic: one extra access per spilled operand (sources and
        // destination), matching the issue-time accounting.
        srcs.clear();
        inst.srcs_into(&mut srcs);
        if let Some(d) = inst.dst() {
            srcs.push(d);
        }
        mix.spills += srcs.iter().filter(|&&r| spilled[r as usize]).count() as u64;

        let kind = match inst {
            Inst::Imm { .. }
            | Inst::Mov { .. }
            | Inst::Cast { .. }
            | Inst::Special { .. }
            | Inst::LdParam { .. }
            | Inst::SharedAddr { .. }
            | Inst::LocalAddr { .. } => IssueKind::Alu,
            Inst::Bin { op, .. } => {
                if matches!(op, BinIr::Div | BinIr::Rem) {
                    IssueKind::Div
                } else {
                    IssueKind::Alu
                }
            }
            Inst::Un { op, .. } => match op {
                UnIr::Sqrt | UnIr::Rsqrt | UnIr::Exp | UnIr::Log => IssueKind::Special,
                _ => IssueKind::Alu,
            },
            Inst::Ld { addr, .. } | Inst::St { addr, .. } => match tag[*addr as usize] {
                SpaceTag::Shared => IssueKind::SharedMem,
                SpaceTag::Local => IssueKind::LocalMem,
                SpaceTag::Other => IssueKind::GlobalMem,
            },
            Inst::Atom { addr, .. } => match tag[*addr as usize] {
                SpaceTag::Shared => IssueKind::SharedAtomic,
                _ => IssueKind::GlobalAtomic,
            },
            Inst::Shfl { .. } | Inst::Vote { .. } => IssueKind::Shuffle,
            Inst::Bar { .. } => IssueKind::Barrier,
            Inst::Bra { .. } | Inst::Jmp { .. } | Inst::Ret => IssueKind::Control,
        };
        mix.counts[kind.index()] += 1;

        // Propagate address-space provenance to the written register.
        let new_tag = match inst {
            Inst::SharedAddr { .. } => Some(SpaceTag::Shared),
            Inst::LocalAddr { .. } => Some(SpaceTag::Local),
            Inst::Mov { src, .. } => Some(tag[*src as usize]),
            Inst::Cast { src, .. } => Some(tag[*src as usize]),
            Inst::Bin {
                op: BinIr::Add | BinIr::Sub,
                a,
                b,
                ..
            } => {
                // Pointer arithmetic: base ± offset keeps the base's space.
                let (ta, tb) = (tag[*a as usize], tag[*b as usize]);
                Some(if ta != SpaceTag::Other { ta } else { tb })
            }
            _ => None,
        };
        if let Some(d) = inst.dst() {
            tag[d as usize] = new_tag.unwrap_or(SpaceTag::Other);
        }
    }
    mix
}

/// Base issue latency of one class on `cfg` — the same constants the
/// timing engine charges in its post-issue accounting (without the dynamic
/// surcharges for conflicts, uncoalesced transactions, or queueing, which
/// the calibration constants absorb on average).
pub fn class_latency(cfg: &GpuConfig, kind: IssueKind) -> u64 {
    let lat = &cfg.latencies;
    u64::from(match kind {
        IssueKind::Alu => lat.alu,
        IssueKind::Div => lat.div,
        IssueKind::Special => lat.special,
        IssueKind::Shuffle => lat.shuffle,
        IssueKind::SharedMem => lat.shared_mem,
        IssueKind::SharedAtomic => lat.shared_atomic,
        IssueKind::GlobalMem => lat.global_mem,
        IssueKind::GlobalAtomic => lat.global_atomic,
        IssueKind::LocalMem => lat.local_mem,
        IssueKind::Control => lat.alu,
        IssueKind::Barrier => lat.alu,
    })
}

/// Per-thread *dynamic* instruction mix of one fused candidate, derived
/// from the original kernels' measured per-class issue histograms (see
/// [`fused_dyn_mix`]). Counts are fractional because they are per-thread
/// averages of whole-launch measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DynMix {
    /// Expected per-thread issues per class, indexed by
    /// [`IssueKind::index`].
    pub counts: [f64; IssueKind::COUNT],
    /// Expected per-thread spilled-operand accesses.
    pub spills: f64,
    /// Latency-weighted load imbalance between the fused members:
    /// `max_i t_i − mean_i t_i` where `t_i` is member *i*'s per-thread
    /// latency-weighted issue total (see [`IMBALANCE_FEATURE`]).
    pub imbalance: f64,
}

impl DynMix {
    /// Treats a static mix as the dynamic one (each static instruction
    /// executed exactly once per thread, perfectly balanced) — the
    /// degenerate straight-line case, and a convenience for tests.
    pub fn from_static(mix: &ClassMix) -> DynMix {
        let mut counts = [0.0; IssueKind::COUNT];
        for (d, &s) in counts.iter_mut().zip(&mix.counts) {
            *d = s as f64;
        }
        DynMix {
            counts,
            spills: mix.spills as f64,
            imbalance: 0.0,
        }
    }
}

/// Builds the per-thread dynamic mix of a fused candidate from its members'
/// measured histograms. `members` pairs each original kernel's whole-launch
/// per-class issue counts (`RunMetrics::class_issues` of a native run, or
/// the equal histogram of `Gpu::run_functional_classes`) with the thread
/// count `d_i` the candidate partition grants it: a
/// grid-stride kernel redistributes its fixed total work over `d_i` threads
/// per block, so its per-thread contribution scales as `I_i[c] / d_i`.
///
/// Spill traffic is candidate-specific (it appears when the register bound
/// is applied to the *fused* kernel), so it is estimated from the fused
/// kernel's static spill-operand count scaled by the average dynamic
/// executions per static instruction.
pub fn fused_dyn_mix(
    cfg: &GpuConfig,
    members: &[([u64; IssueKind::COUNT], u32)],
    static_spills: u64,
    static_insts: u64,
) -> DynMix {
    let mut counts = [0.0; IssueKind::COUNT];
    let mut totals = Vec::with_capacity(members.len());
    for (issues, d) in members {
        let d = f64::from((*d).max(1));
        let mut t = 0.0;
        for (kind, (acc, &n)) in IssueKind::ALL.iter().zip(counts.iter_mut().zip(issues)) {
            *acc += n as f64 / d;
            t += n as f64 / d * class_latency(cfg, *kind) as f64;
        }
        totals.push(t);
    }
    let dyn_total: f64 = counts.iter().sum();
    let avg_execs = dyn_total / static_insts.max(1) as f64;
    let max = totals.iter().fold(0.0f64, |m, &t| m.max(t));
    let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
    DynMix {
        counts,
        spills: static_spills as f64 * avg_execs,
        imbalance: max - mean,
    }
}

/// The per-thread feature vector of one candidate: `count_c × latency_c`
/// per class plus the spill term. The model estimate and the calibration
/// fit share this definition.
pub fn feature_vector(cfg: &GpuConfig, mix: &DynMix) -> [f64; NUM_FEATURES] {
    let mut x = [0.0; NUM_FEATURES];
    for k in IssueKind::ALL {
        x[k.index()] = mix.counts[k.index()] * class_latency(cfg, k) as f64;
    }
    x[SPILL_FEATURE] = mix.spills * f64::from(cfg.latencies.spill_access);
    x[IMBALANCE_FEATURE] = mix.imbalance;
    x
}

/// Calibrated analytic cycle estimate for one fusion candidate.
///
/// `waves × threads × Σ_c count_c × latency_c × k_c`, with `waves` from the
/// occupancy calculator. Unschedulable candidates (zero resident blocks)
/// return `u64::MAX`. Deterministic, pure, and cheap — the search evaluates
/// it for every candidate in every mode so reported scores are comparable
/// across arms.
pub fn model_estimate(
    cfg: &GpuConfig,
    regs_per_thread: u32,
    threads_per_block: u32,
    shared_bytes: u32,
    grid_dim: u32,
    mix: &DynMix,
) -> u64 {
    let blocks = blocks_per_sm(cfg, regs_per_thread, threads_per_block, shared_bytes);
    if blocks == 0 {
        return u64::MAX;
    }
    let concurrent = blocks.saturating_mul(cfg.num_sms).max(1);
    let waves = f64::from(grid_dim.div_ceil(concurrent));
    let x = feature_vector(cfg, mix);
    let per_thread: f64 = x
        .iter()
        .zip(&CALIBRATED_K)
        .map(|(xi, ki)| xi * ki)
        .sum::<f64>()
        .max(0.0);
    let est = waves * f64::from(threads_per_block.max(1)) * per_thread;
    if est >= u64::MAX as f64 {
        u64::MAX
    } else {
        est.round() as u64
    }
}

/// One calibration observation: a candidate's occupancy-scaled feature
/// vector and its fully simulated cycle count.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    /// `waves × threads × feature_vector` — the model's regressors.
    pub features: [f64; NUM_FEATURES],
    /// Simulated total cycles (the regression target).
    pub cycles: u64,
}

impl CalibrationRow {
    /// Builds the regressors for one candidate the same way
    /// [`model_estimate`] consumes them.
    pub fn new(
        cfg: &GpuConfig,
        regs_per_thread: u32,
        threads_per_block: u32,
        shared_bytes: u32,
        grid_dim: u32,
        mix: &DynMix,
        cycles: u64,
    ) -> Option<Self> {
        let blocks = blocks_per_sm(cfg, regs_per_thread, threads_per_block, shared_bytes);
        if blocks == 0 {
            return None;
        }
        let concurrent = blocks.saturating_mul(cfg.num_sms).max(1);
        let scale = f64::from(grid_dim.div_ceil(concurrent)) * f64::from(threads_per_block.max(1));
        let mut features = feature_vector(cfg, mix);
        for f in &mut features {
            *f *= scale;
        }
        Some(CalibrationRow { features, cycles })
    }
}

/// Fits the per-class constants by *relative* least squares over `rows`
/// (normal equations with a small ridge term, solved by Gaussian
/// elimination — no external dependencies). Each observation is weighted by
/// `1 / cycles`, i.e. the objective is `Σ ((pred − cycles) / cycles)²`:
/// the model ranks candidates *within* a pair, so a 10% miss on a small
/// crypto candidate must count the same as a 10% miss on a deep-learning
/// candidate a thousand times larger — unweighted least squares lets the
/// largest pairs dominate and degenerates the small-class constants to
/// zero. Features that never occur in the corpus keep the neutral constant
/// 1.0; fitted constants are clamped to non-negative (a negative per-class
/// cost is physically meaningless and would let the ranking invert on
/// extrapolation).
pub fn fit_constants(rows: &[CalibrationRow]) -> [f64; NUM_FEATURES] {
    const N: usize = NUM_FEATURES;
    const RIDGE: f64 = 1e-9;
    let mut ata = [[0.0f64; N]; N];
    let mut aty = [0.0f64; N];
    let mut seen = [false; N];
    // Relative weighting: divide each row (features and target) by its
    // cycle count, making every observation's target 1.0.
    let weighted: Vec<[f64; N]> = rows
        .iter()
        .map(|r| {
            let w = 1.0 / (r.cycles as f64).max(1.0);
            let mut f = r.features;
            for v in &mut f {
                *v *= w;
            }
            f
        })
        .collect();
    // Normalize the system so the ridge term is scale-free.
    let norm: f64 = weighted
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1e-300);
    for (row, wf) in rows.iter().zip(&weighted) {
        for i in 0..N {
            let xi = wf[i] / norm;
            if row.features[i] != 0.0 {
                seen[i] = true;
            }
            aty[i] += xi * (1.0 / norm);
            for j in 0..N {
                ata[i][j] += xi * wf[j] / norm;
            }
        }
    }
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += RIDGE;
    }

    // Gaussian elimination with partial pivoting on the N×N system.
    let mut m = [[0.0f64; N + 1]; N];
    for i in 0..N {
        m[i][..N].copy_from_slice(&ata[i]);
        m[i][N] = aty[i];
    }
    for col in 0..N {
        let pivot = (col..N)
            .max_by(|&a, &b| m[a][col].abs().partial_cmp(&m[b][col].abs()).unwrap())
            .unwrap();
        m.swap(col, pivot);
        let p = m[col][col];
        if p.abs() < 1e-30 {
            continue;
        }
        let pivot_row = m[col];
        for row in m.iter_mut().take(N).skip(col + 1) {
            let f = row[col] / p;
            for (x, pv) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * pv;
            }
        }
    }
    let mut k = [0.0f64; N];
    for col in (0..N).rev() {
        let mut v = m[col][N];
        for c in col + 1..N {
            v -= m[col][c] * k[c];
        }
        k[col] = if m[col][col].abs() < 1e-30 {
            0.0
        } else {
            v / m[col][col]
        };
    }
    for i in 0..N {
        if !seen[i] {
            k[i] = 1.0;
        } else if !k[i].is_finite() || k[i] < 0.0 {
            k[i] = 0.0;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use thread_ir::ir::{ParamKind, ScalarTy};

    fn mk_kernel(insts: Vec<Inst>, spilled: Vec<u32>) -> KernelIr {
        KernelIr {
            name: "t".into(),
            insts,
            num_regs: 16,
            params: vec![ParamKind::Pointer],
            shared_static_bytes: 64,
            uses_dynamic_shared: false,
            dynamic_shared_offset: 0,
            local_bytes: 0,
            spilled_regs: spilled,
            pressure: 16,
        }
    }

    #[test]
    fn class_mix_classifies_by_address_provenance() {
        let k = mk_kernel(
            vec![
                Inst::SharedAddr { dst: 0, offset: 0 },
                // Pointer arithmetic keeps the shared tag.
                Inst::Bin {
                    op: BinIr::Add,
                    ty: ScalarTy::U64,
                    dst: 1,
                    a: 0,
                    b: 2,
                },
                Inst::Ld {
                    ty: ScalarTy::U32,
                    dst: 3,
                    addr: 1,
                }, // shared
                Inst::Ld {
                    ty: ScalarTy::U32,
                    dst: 4,
                    addr: 5,
                }, // untagged → global
                Inst::Atom {
                    op: thread_ir::ir::AtomOp::Add,
                    ty: ScalarTy::U32,
                    dst: 6,
                    addr: 1,
                    val: 3,
                }, // shared atomic
                Inst::Bar {
                    id: 0,
                    count: thread_ir::ir::BarCount::All,
                },
                Inst::Ret,
            ],
            vec![],
        );
        let mix = static_class_mix(&k);
        assert_eq!(mix.counts[IssueKind::SharedMem.index()], 1);
        assert_eq!(mix.counts[IssueKind::GlobalMem.index()], 1);
        assert_eq!(mix.counts[IssueKind::SharedAtomic.index()], 1);
        assert_eq!(mix.counts[IssueKind::Barrier.index()], 1);
        assert_eq!(mix.counts[IssueKind::Control.index()], 1);
        // SharedAddr + Bin are plain ALU issues.
        assert_eq!(mix.counts[IssueKind::Alu.index()], 2);
        assert_eq!(mix.total(), 7);
    }

    #[test]
    fn class_mix_counts_spilled_operands() {
        let k = mk_kernel(
            vec![
                Inst::Bin {
                    op: BinIr::Add,
                    ty: ScalarTy::I32,
                    dst: 1,
                    a: 2,
                    b: 3,
                },
                Inst::Ret,
            ],
            vec![2, 1],
        );
        // Sources 2 (spilled) + 3, destination 1 (spilled) → 2 references.
        assert_eq!(static_class_mix(&k).spills, 2);
    }

    #[test]
    fn overwriting_a_tagged_register_clears_the_tag() {
        let k = mk_kernel(
            vec![
                Inst::SharedAddr { dst: 0, offset: 0 },
                Inst::Imm { dst: 0, value: 0 }, // clobbers the tag
                Inst::Ld {
                    ty: ScalarTy::U32,
                    dst: 1,
                    addr: 0,
                }, // now global
                Inst::Ret,
            ],
            vec![],
        );
        let mix = static_class_mix(&k);
        assert_eq!(mix.counts[IssueKind::GlobalMem.index()], 1);
        assert_eq!(mix.counts[IssueKind::SharedMem.index()], 0);
    }

    #[test]
    fn model_estimate_penalizes_lower_occupancy() {
        let cfg = GpuConfig::pascal_like();
        let mut mix = ClassMix::default();
        mix.counts[IssueKind::Alu.index()] = 100;
        mix.counts[IssueKind::GlobalMem.index()] = 10;
        let mix = DynMix::from_static(&mix);
        let cheap = model_estimate(&cfg, 32, 512, 24 * 1024, 64, &mix);
        let expensive = model_estimate(&cfg, 64, 512, 24 * 1024, 64, &mix);
        assert!(expensive > cheap, "{expensive} <= {cheap}");
    }

    #[test]
    fn model_estimate_unschedulable_is_max() {
        let cfg = GpuConfig::pascal_like();
        let mix = DynMix::default();
        assert_eq!(model_estimate(&cfg, 32, 256, 200 * 1024, 8, &mix), u64::MAX);
    }

    #[test]
    fn fused_dyn_mix_scales_member_work_by_thread_share() {
        let cfg = GpuConfig::pascal_like();
        let mut i1 = [0u64; IssueKind::COUNT];
        i1[IssueKind::Alu.index()] = 1000;
        let mut i2 = [0u64; IssueKind::COUNT];
        i2[IssueKind::GlobalMem.index()] = 400;
        // Kernel 1 gets 100 threads, kernel 2 gets 200: per-thread work is
        // 10 ALU issues and 2 global-memory issues.
        let mix = fused_dyn_mix(&cfg, &[(i1, 100), (i2, 200)], 6, 12);
        assert_eq!(mix.counts[IssueKind::Alu.index()], 10.0);
        assert_eq!(mix.counts[IssueKind::GlobalMem.index()], 2.0);
        // Spills: 6 static spill operands × (12 dynamic / 12 static) = 6.
        assert_eq!(mix.spills, 6.0);
        // Shrinking kernel 2's share raises its per-thread work — the
        // balance effect the static mix cannot see. Kernel 2 is the
        // latency-heavy (global-memory) side, so concentrating its work on
        // fewer threads also widens the gap between the member totals.
        let skewed = fused_dyn_mix(&cfg, &[(i1, 200), (i2, 100)], 0, 12);
        assert_eq!(skewed.counts[IssueKind::Alu.index()], 5.0);
        assert_eq!(skewed.counts[IssueKind::GlobalMem.index()], 4.0);
        // Imbalance = max(t_i) − mean(t_i) over latency-weighted member
        // totals, and it grows as the split skews.
        let (t1, t2) = (
            10.0 * class_latency(&cfg, IssueKind::Alu) as f64,
            2.0 * class_latency(&cfg, IssueKind::GlobalMem) as f64,
        );
        let expect = t1.max(t2) - (t1 + t2) / 2.0;
        assert!((mix.imbalance - expect).abs() < 1e-9, "{}", mix.imbalance);
        assert!(skewed.imbalance > mix.imbalance);
    }

    #[test]
    fn fit_recovers_exact_linear_model() {
        // Synthesize rows from known constants; the fit must recover them.
        let truth: [f64; NUM_FEATURES] = {
            let mut t = [0.0; NUM_FEATURES];
            t[IssueKind::Alu.index()] = 0.5;
            t[IssueKind::GlobalMem.index()] = 2.0;
            t[SPILL_FEATURE] = 1.5;
            t
        };
        let mut rows = Vec::new();
        for i in 1..12u64 {
            let mut features = [0.0; NUM_FEATURES];
            features[IssueKind::Alu.index()] = (i * 37) as f64;
            features[IssueKind::GlobalMem.index()] = (i * i * 11) as f64;
            features[SPILL_FEATURE] = (i % 3) as f64 * 100.0;
            let y: f64 = features.iter().zip(&truth).map(|(x, k)| x * k).sum();
            rows.push(CalibrationRow {
                features,
                cycles: y.round() as u64,
            });
        }
        let k = fit_constants(&rows);
        // Tolerances absorb the ridge term and the integer rounding of the
        // synthetic cycle targets.
        assert!((k[IssueKind::Alu.index()] - 0.5).abs() < 1e-2, "{k:?}");
        assert!(
            (k[IssueKind::GlobalMem.index()] - 2.0).abs() < 1e-2,
            "{k:?}"
        );
        assert!((k[SPILL_FEATURE] - 1.5).abs() < 1e-2, "{k:?}");
        // Unseen classes keep the neutral constant.
        assert_eq!(k[IssueKind::Div.index()], 1.0);
    }

    #[test]
    fn checked_in_constants_are_sane() {
        for (i, k) in CALIBRATED_K.iter().enumerate() {
            assert!(k.is_finite() && *k >= 0.0, "k[{i}] = {k}");
        }
    }
}
