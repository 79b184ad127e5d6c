//! Run metrics mirroring the `nvprof` counters the paper reports.

use crate::exec::IssueKind;

/// Aggregate counters for one [`crate::Gpu::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Total elapsed cycles (first launch start to last block completion).
    pub cycles: u64,
    /// Instructions issued (one per warp-group issue).
    pub issued_slots: u64,
    /// Scheduler issue slots while the owning SM had resident work.
    pub total_slots: u64,
    /// Stalled slots blocked on outstanding global/local memory results or
    /// memory-pipeline backpressure.
    pub stall_mem: u64,
    /// Stalled slots blocked on ALU/special results (execution dependency).
    pub stall_exec: u64,
    /// Stalled slots where all live warps were parked at barriers.
    pub stall_sync: u64,
    /// Slots with no issuable warp for other reasons (e.g. all warps done
    /// but the block not yet retired).
    pub stall_other: u64,
    /// Sum over active SM cycles of resident unfinished warps.
    pub active_warp_cycles: u64,
    /// Sum over SMs of cycles with at least one resident block.
    pub active_sm_cycles: u64,
    /// Hardware warp capacity per SM (for occupancy normalization).
    pub max_warps_per_sm: u32,
    /// Dynamic instruction count (thread-level, i.e. group size summed).
    pub thread_insts: u64,
    /// Global-memory transactions issued.
    pub mem_transactions: u64,
    /// Issued warp-group instructions per latency class, indexed by
    /// [`IssueKind::index`]. The per-class mix is what the calibrated
    /// analytic search model fits against, and lets reports explain *where*
    /// a candidate's cycles went.
    pub class_issues: [u64; IssueKind::COUNT],
}

impl RunMetrics {
    /// Fraction of issue slots that issued an instruction (the paper's
    /// *Issue Slot Utilization*), in percent.
    pub fn issue_slot_utilization(&self) -> f64 {
        if self.total_slots == 0 {
            return 0.0;
        }
        100.0 * self.issued_slots as f64 / self.total_slots as f64
    }

    /// Percentage of stall slots attributable to memory (the paper's
    /// *MemInst Stall*). Slots with no classifiable warp (`stall_other`,
    /// e.g. schedulers with no warps assigned) are excluded, matching how
    /// `nvprof` samples stall reasons from live warps.
    pub fn mem_stall_pct(&self) -> f64 {
        let stalls = self.stall_mem + self.stall_exec + self.stall_sync;
        // With (almost) no stalls the ratio is meaningless noise; report 0
        // like nvprof does for fully-issuing kernels.
        if stalls == 0 || stalls * 200 < self.total_slots {
            return 0.0;
        }
        100.0 * self.stall_mem as f64 / stalls as f64
    }

    /// Achieved occupancy: average resident warps per active cycle over the
    /// hardware maximum, in percent.
    pub fn occupancy_pct(&self) -> f64 {
        if self.active_sm_cycles == 0 || self.max_warps_per_sm == 0 {
            return 0.0;
        }
        100.0 * self.active_warp_cycles as f64
            / (self.active_sm_cycles as f64 * f64::from(self.max_warps_per_sm))
    }

    /// Issued warp-group instructions in one latency class.
    pub fn class_count(&self, kind: IssueKind) -> u64 {
        self.class_issues[kind.index()]
    }

    /// `(class, count)` rows of the issue histogram, densest first, zero
    /// classes omitted — display form for reports.
    pub fn class_histogram(&self) -> Vec<(IssueKind, u64)> {
        let mut rows: Vec<(IssueKind, u64)> = IssueKind::ALL
            .iter()
            .map(|&k| (k, self.class_issues[k.index()]))
            .filter(|&(_, n)| n > 0)
            .collect();
        rows.sort_by_key(|&(k, n)| (std::cmp::Reverse(n), k.index()));
        rows
    }
}

/// One sample of a utilization timeline (see `Gpu::run_traced`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Cycle at the *end* of the sampled window.
    pub cycle: u64,
    /// Issue-slot utilization within the window (%).
    pub issue_util: f64,
    /// Average resident unfinished warps per SM within the window.
    pub avg_warps: f64,
}

/// The outcome of one timed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Cycle at which the last block of the last-finishing launch completed.
    pub total_cycles: u64,
    /// Aggregate counters.
    pub metrics: RunMetrics,
    /// Per-launch completion cycle (last block of that launch).
    pub launch_finish: Vec<u64>,
}

impl RunResult {
    /// Elapsed cycles of one launch (all launches start at cycle 0, so this
    /// is its completion cycle).
    pub fn launch_cycles(&self, launch_idx: usize) -> u64 {
        self.launch_finish[launch_idx]
    }
}

/// The outcome of a budgeted run (see `Gpu::run_with_budget`): either the
/// run finished within the caller's cycle budget, or it was cut off once
/// it provably could not.
///
/// `cycles_so_far` is a *lower bound* on the run's true cycle count,
/// greater than the budget, and monotonically non-decreasing in the
/// budget. It is either the engine's clock at the abort point (the engine
/// walks the same deterministic clock sequence regardless of the budget
/// and aborts at the first clock value past it) or, for a run rejected
/// before simulating, the critical-path bound of `Gpu::cycle_lower_bound`
/// (its pass stops at the first point its running value passes the
/// budget). An
/// aborted run may leave device memory partially mutated; callers
/// profiling candidates on cloned devices can simply discard the clone.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // transient return value, one per profiled run
pub enum BudgetedRun {
    /// The run finished with total cycles ≤ budget (identical to an
    /// unbudgeted run).
    Completed(RunResult),
    /// The run cannot finish within the budget: the simulated clock
    /// strictly exceeded it with work still outstanding, or the
    /// critical-path bound did before the run was simulated.
    Aborted {
        /// The engine's clock at the abort point, or the proven lower
        /// bound of a run that was not simulated. Either way strictly
        /// greater than the budget, and at most the run's true total cycle
        /// count.
        cycles_so_far: u64,
    },
}

impl BudgetedRun {
    /// The completed result, if the run finished within budget.
    pub fn completed(self) -> Option<RunResult> {
        match self {
            BudgetedRun::Completed(r) => Some(r),
            BudgetedRun::Aborted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_and_stall_percentages() {
        let m = RunMetrics {
            cycles: 100,
            issued_slots: 30,
            total_slots: 100,
            stall_mem: 49,
            stall_exec: 14,
            stall_sync: 7,
            stall_other: 0,
            active_warp_cycles: 3200,
            active_sm_cycles: 100,
            max_warps_per_sm: 64,
            thread_insts: 0,
            mem_transactions: 0,
            class_issues: [0; IssueKind::COUNT],
        };
        assert!((m.issue_slot_utilization() - 30.0).abs() < 1e-9);
        assert!((m.mem_stall_pct() - 70.0).abs() < 1e-9);
        assert!((m.occupancy_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn class_histogram_sorts_densest_first_and_drops_zeros() {
        let mut m = RunMetrics::default();
        m.class_issues[IssueKind::Alu.index()] = 10;
        m.class_issues[IssueKind::GlobalMem.index()] = 40;
        m.class_issues[IssueKind::Barrier.index()] = 2;
        assert_eq!(m.class_count(IssueKind::GlobalMem), 40);
        assert_eq!(
            m.class_histogram(),
            vec![
                (IssueKind::GlobalMem, 40),
                (IssueKind::Alu, 10),
                (IssueKind::Barrier, 2),
            ]
        );
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.issue_slot_utilization(), 0.0);
        assert_eq!(m.mem_stall_pct(), 0.0);
        assert_eq!(m.occupancy_pct(), 0.0);
    }
}
