//! Racing timed runs to their first finisher ([`Gpu::race`]).
//!
//! A branch-and-bound search profiles its likeliest winners without a
//! budget, because no budget exists before one of them completes. Run one
//! after another, each of them runs to completion, though only the fewest
//! cycles among them, `m`, ever becomes a budget: every cycle a loser
//! simulates past `m` is wasted. A race runs them side by side instead and
//! gives each what [`Gpu::run_with_budget`] returns at `m`, which is what a
//! budgeted run of it would have reported had `m` been known up front.
//!
//! The programs advance in lockstep slices of simulated time: every
//! unfinished program advances to the same horizon (`k × slice`), and the
//! race ends after the first slice in which one completes. The horizons
//! need not be budget values: a timed run pauses where a budget would
//! abort it and resumes bit-identically ([`TimedRun`]), and the clocks the
//! budget check sees do not depend on the budget. So, once `m` is known:
//!
//! - a program whose recorded clocks all stay at or below `m` ended as a
//!   budget of `m` would end it (completed or failed), or paused at `m` at
//!   the latest and resumes to `m`;
//! - otherwise its first recorded clock past `m` is where a budget of `m`
//!   aborts it. `m` lies in the last slice, so only that slice's clocks are
//!   kept.
//!
//! [`Gpu::run_with_budget`] checks the critical-path bound before it
//! simulates, so a program that did not complete within `m` takes that
//! check too, and reports the bound when it exceeds `m`.

use std::sync::Mutex;

use crate::error::SimError;
use crate::launch::Launch;
use crate::metrics::BudgetedRun;
use crate::timing::{Gpu, TimedRun};

/// Simulated cycles the raced programs advance between two meetings.
const SLICE: u64 = 4096;

impl Gpu {
    /// Runs every program of `programs` on its own copy of this device and
    /// returns, per program, exactly what `self.clone().run_with_budget(p,
    /// m)` returns, where `m` is the fewest cycles any program completes in
    /// (`u64::MAX` when none completes): the first finishers complete, and
    /// every other program stops soon after the clock passes `m` instead
    /// of running to its end. Up to `threads` workers advance the programs
    /// concurrently; the results do not depend on their number.
    pub fn race(
        &self,
        programs: &[Vec<Launch>],
        threads: usize,
    ) -> Vec<Result<BudgetedRun, SimError>> {
        race(self, programs, threads, SLICE, crate::env::sim_no_skip())
    }
}

/// One raced program.
struct Racer<'a> {
    launches: &'a [Launch],
    /// The run; `None` when it could not start.
    run: Option<TimedRun<'a>>,
    /// What its last advance returned, or why it could not start; `None`
    /// before the first advance.
    last: Option<Result<BudgetedRun, SimError>>,
}

impl Racer<'_> {
    /// Whether the run completed or failed.
    fn finished(&self) -> bool {
        matches!(
            self.last,
            Some(Ok(BudgetedRun::Completed(_))) | Some(Err(_))
        )
    }

    /// The cycles it completed in, if it did.
    fn completed(&self) -> Option<u64> {
        match &self.last {
            Some(Ok(BudgetedRun::Completed(r))) => Some(r.total_cycles),
            _ => None,
        }
    }

    /// Advances an unfinished run to `horizon`, recording the clocks on
    /// the way.
    fn advance(&mut self, horizon: u64) {
        if self.finished() {
            return;
        }
        let run = self.run.as_mut().expect("an unfinished racer started");
        run.record_clocks();
        self.last = Some(run.advance(horizon));
    }

    /// Replaces the last result with what `run_with_budget(m)` returns for
    /// this program on `base`.
    fn settle(&mut self, base: &Gpu, m: u64) {
        let Some(run) = &mut self.run else { return };
        let last = self.last.take().expect("every started racer advanced");
        self.last = Some(at_budget(run, self.launches, last, base, m));
    }
}

/// What `run_with_budget(m)` returns on `base` for `launches`, whose
/// raced `run` last returned `last` on the slice that holds `m`.
fn at_budget(
    run: &mut TimedRun,
    launches: &[Launch],
    last: Result<BudgetedRun, SimError>,
    base: &Gpu,
    m: u64,
) -> Result<BudgetedRun, SimError> {
    let past = run.clocks().iter().copied().find(|&c| c > m);
    if let (None, Ok(BudgetedRun::Completed(r))) = (past, &last) {
        // Within `m`: the bound, at most the true cycles, cannot reject it.
        if r.total_cycles <= m {
            return last;
        }
    }
    if let Some(bound) = base.bound_past(launches, m)? {
        return Ok(BudgetedRun::Aborted {
            cycles_so_far: bound,
        });
    }
    match (past, last) {
        (Some(cycles_so_far), _) => Ok(BudgetedRun::Aborted { cycles_so_far }),
        // Paused at `m` at the latest: a budget of `m` stops at the next
        // clock past it.
        (None, Ok(BudgetedRun::Aborted { .. })) => run.advance(m),
        (None, last) => last,
    }
}

/// [`Gpu::race`] in slices of `slice` cycles, on the loop `no_skip` picks.
pub(crate) fn race(
    base: &Gpu,
    programs: &[Vec<Launch>],
    threads: usize,
    slice: u64,
    no_skip: bool,
) -> Vec<Result<BudgetedRun, SimError>> {
    let mut gpus: Vec<Gpu> = programs.iter().map(|_| base.clone()).collect();
    let mut racers: Vec<Racer> = gpus
        .iter_mut()
        .zip(programs)
        .map(|(gpu, launches)| match gpu.start(launches, no_skip) {
            Ok(run) => Racer {
                launches,
                run: Some(run),
                last: None,
            },
            Err(e) => Racer {
                launches,
                run: None,
                last: Some(Err(e)),
            },
        })
        .collect();
    let mut horizon = 0u64;
    let m = loop {
        horizon = horizon.saturating_add(slice.max(1));
        parallel_map(threads, &mut racers, |r| r.advance(horizon));
        let m = racers.iter().filter_map(Racer::completed).min();
        if m.is_some() || racers.iter().all(Racer::finished) {
            break m.unwrap_or(u64::MAX);
        }
    };
    parallel_map(threads, &mut racers, |r| r.settle(base, m));
    racers
        .into_iter()
        .map(|r| r.last.expect("every racer advanced or failed to start"))
        .collect()
}

/// Maps `f` over `items` on up to `threads` workers — the calling thread
/// plus scoped ones — that each take the next item nobody took, and
/// returns the results in `items` order whichever worker ran what. One
/// worker is the same loop on the calling thread. A panic in `f` is
/// re-raised on the calling thread.
///
/// The search profiles its candidates through it, and [`Gpu::race`]
/// advances its programs through it, so both share one work queue.
pub fn parallel_map<I, R>(threads: usize, items: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
{
    let items = items.into_iter();
    let workers = threads.min(items.len());
    let queue = Mutex::new(items.enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("no worker panics while it holds the queue")
                .next();
            let Some((k, item)) = next else { break };
            done.push((k, f(item)));
        }
        done
    };
    let mut done = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for h in helpers {
                done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            done
        })
    };
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::diff_tests::{compile, memory_bound_launch, multi_stream_launches};
    use crate::launch::ParamValue;

    /// `blocks` blocks of `threads` threads, each thread running `n`
    /// dependent multiply-adds.
    fn spin(gpu: &mut Gpu, blocks: u32, threads: u32, n: i32) -> Vec<Launch> {
        let ir = compile(
            "__global__ void spin(unsigned int* out, int n) {\
               unsigned int x = threadIdx.x + 1u;\
               for (int i = 0; i < n; i++) { x = x * 1664525u + 1013904223u; }\
               out[threadIdx.x + blockIdx.x * blockDim.x] = x;\
             }",
        );
        let out = gpu.memory_mut().alloc_u32((blocks * threads) as usize);
        vec![Launch::new(ir, blocks, (threads, 1, 1))
            .arg(ParamValue::Ptr(out))
            .arg(ParamValue::I32(n))]
    }

    /// The programs every case races: the first two tie for first, the
    /// third loses by the clock (its bound stays below the winner's
    /// cycles), the fourth by the bound; a memory-bound run (the
    /// fast-forward's case) and a two-launch run (no bound) follow, and
    /// the last cannot launch.
    fn programs(gpu: &mut Gpu) -> Vec<Vec<Launch>> {
        let winner = spin(gpu, 8, 64, 300);
        let mut oversized = spin(gpu, 1, 64, 1);
        oversized[0].block_dim = (4096, 1, 1);
        vec![
            winner.clone(),
            winner,
            spin(gpu, 32, 256, 60),
            spin(gpu, 256, 32, 300),
            memory_bound_launch(gpu),
            multi_stream_launches(gpu),
            oversized,
        ]
    }

    /// What `run_with_budget(m)` returns for each program on `no_skip`'s
    /// loop, with `m` the fewest cycles any of them completes in.
    fn budgeted_at_first_finish(
        gpu: &Gpu,
        programs: &[Vec<Launch>],
        no_skip: bool,
    ) -> (u64, Vec<Result<BudgetedRun, SimError>>) {
        let m = programs
            .iter()
            .filter_map(|p| gpu.clone().run_impl(p, no_skip, u64::MAX).ok())
            .filter_map(BudgetedRun::completed)
            .map(|r| r.total_cycles)
            .min()
            .expect("a program completes");
        let expected = programs
            .iter()
            .map(|p| gpu.clone().run_with_budget_impl(p, no_skip, m))
            .collect();
        (m, expected)
    }

    #[test]
    fn every_raced_program_reports_its_run_at_the_first_finish() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let programs = programs(&mut gpu);
        for no_skip in [false, true] {
            let (m, expected) = budgeted_at_first_finish(&gpu, &programs, no_skip);
            // The cases the programs are built to reach.
            let completed = |r: &Result<BudgetedRun, SimError>| match r {
                Ok(BudgetedRun::Completed(res)) => res.total_cycles == m,
                _ => false,
            };
            assert!(completed(&expected[0]) && completed(&expected[1]), "a tie");
            let by_bound = |p: &[Launch]| gpu.bound_past(p, m).expect("bound");
            assert_eq!(by_bound(&programs[2]), None, "a clock loser");
            assert!(matches!(expected[2], Ok(BudgetedRun::Aborted { .. })));
            let bound = by_bound(&programs[3]).expect("a bound loser");
            let by_bound = Ok(BudgetedRun::Aborted {
                cycles_so_far: bound,
            });
            assert_eq!(expected[3], by_bound);
            let by_clock = gpu.clone().run_impl(&programs[3], no_skip, m);
            assert_ne!(by_clock, by_bound, "the bound decides, not the clock");
            assert!(expected[6].is_err(), "a program that cannot launch");
            for slice in [1, SLICE, u64::MAX] {
                for threads in [1, 3] {
                    let raced = race(&gpu, &programs, threads, slice, no_skip);
                    assert_eq!(
                        raced, expected,
                        "slice {slice}, {threads} workers, naive loop {no_skip}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_race_nobody_finishes_reports_every_failure() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let mut oversized = spin(&mut gpu, 1, 64, 1);
        oversized[0].block_dim = (4096, 1, 1);
        let raced = gpu.race(&[oversized.clone(), oversized.clone()], 2);
        let alone = gpu.clone().run_with_budget(&oversized, u64::MAX);
        assert!(alone.is_err());
        assert_eq!(raced, vec![alone.clone(), alone]);
        assert!(gpu.race(&[], 2).is_empty());
    }

    #[test]
    fn parallel_map_keeps_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 2, 8, 64] {
            assert_eq!(parallel_map(threads, &items, |x| x * x), expected);
        }
        assert!(parallel_map(4, &[] as &[u64], |x| *x).is_empty());
    }
}
