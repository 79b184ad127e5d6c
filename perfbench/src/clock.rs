//! Timing against the machine's speed of the moment.
//!
//! On a shared host the speed a process gets moves by a quarter or more,
//! for seconds to minutes at a time, as other guests load the core, its
//! caches and the memory system. So the benchmark probes the machine
//! between every two timed calls with two fixed pieces of its own code —
//! a branchy integer loop and an allocation-heavy map build, the two kinds
//! of work the compile path and the simulator do — and scales each call's
//! wall time by how much slower than their reference times the probes
//! either side of it ran. The probes are the benchmark's own code, so no
//! change to the program can move them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// One probe: a fixed piece of work and the seconds it takes at the
/// reference speed.
struct Probe {
    run: fn() -> u64,
    reference_s: f64,
}

/// The reference times are quiet-machine medians on a 2-vCPU KVM guest of
/// a 2.0 GHz Sapphire Rapids Xeon, so scaled times read in seconds of that
/// machine.
const PROBES: [Probe; 2] = [
    Probe {
        run: branchy_walk,
        reference_s: 0.0045,
    },
    Probe {
        run: map_build,
        reference_s: 0.0050,
    },
];

/// Runs of each probe at one probe point; the point takes their median.
const RUNS_PER_POINT: usize = 3;

/// A 4 KiB table of pseudo-random words, built once.
fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        (0..1 << 10)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect()
    })
}

/// Data-dependent loads and branches over an L1-resident table, as an
/// interpreter's dispatch loop does.
fn branchy_walk() -> u64 {
    let table = black_box(table());
    let mask = table.len() - 1;
    let (mut i, mut acc) = (0usize, 0u32);
    for s in 0..1_000_000u32 {
        let v = table[i];
        acc = acc.wrapping_mul(31).wrapping_add(v ^ s);
        if acc & 4 == 0 {
            acc = acc.rotate_left(5);
        } else {
            acc ^= v >> 3;
        }
        i = (v ^ acc) as usize & mask;
    }
    acc.into()
}

/// Small allocations and pointer chasing: string keys and vectors in an
/// ordered map, as the frontend and the session caches build.
fn map_build() -> u64 {
    let mut map = BTreeMap::new();
    let mut x = 0x9e37_79b9_u64;
    for i in 0..15_000u32 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(format!("k{}", x >> 40), vec![i; (x % 16) as usize]);
    }
    map.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

/// How much slower than its reference the machine runs the probes now:
/// the geometric mean over the probes of median time over reference time.
fn slowdown() -> f64 {
    let log_sum: f64 = PROBES
        .iter()
        .map(|p| {
            let times: Vec<f64> = (0..RUNS_PER_POINT)
                .map(|_| {
                    let t = Instant::now();
                    black_box((p.run)());
                    t.elapsed().as_secs_f64()
                })
                .collect();
            let median = crate::stats::median(&times).expect("runs were timed");
            (median / p.reference_s).ln()
        })
        .sum();
    (log_sum / PROBES.len() as f64).exp()
}

/// The wall time of some work, and that time scaled to the reference
/// speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    pub wall_s: f64,
    pub scaled_s: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.wall_s += other.wall_s;
        self.scaled_s += other.scaled_s;
    }
}

/// Scales `wall_s` by the mean of the slowdowns probed before and after.
pub fn scaled(wall_s: f64, before: f64, after: f64) -> Timed {
    Timed {
        wall_s,
        scaled_s: wall_s / ((before + after) / 2.0),
    }
}

/// Times calls between probes of the machine's speed.
pub struct Meter {
    last: f64,
    slowdowns: Vec<f64>,
}

impl Meter {
    /// A meter, after its first probe.
    pub fn new() -> Meter {
        table();
        let last = slowdown();
        Meter {
            last,
            slowdowns: vec![last],
        }
    }

    /// Runs `f`, probes the machine, and returns `f`'s result with its
    /// time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let after = slowdown();
        let timed = scaled(wall_s, self.last, after);
        self.last = after;
        self.slowdowns.push(after);
        (out, timed)
    }

    /// The median slowdown over every probe so far.
    pub fn median_slowdown(&self) -> f64 {
        crate::stats::median(&self.slowdowns).expect("the meter probes on creation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_mean_slowdown_either_side() {
        let t = scaled(3.0, 1.0, 2.0);
        assert_eq!(t.wall_s, 3.0);
        assert!((t.scaled_s - 2.0).abs() < 1e-12, "{t:?}");
        assert_eq!(scaled(1.5, 1.0, 1.0).scaled_s, 1.5);
    }

    #[test]
    fn times_add_up_field_by_field() {
        let mut t = scaled(1.0, 1.0, 1.0);
        t += scaled(2.0, 2.0, 2.0);
        assert_eq!(
            t,
            Timed {
                wall_s: 3.0,
                scaled_s: 2.0
            }
        );
    }

    #[test]
    fn the_probes_are_deterministic_work() {
        for p in &PROBES {
            assert_eq!((p.run)(), (p.run)());
        }
    }

    #[test]
    fn a_meter_probes_around_each_call() {
        let mut m = Meter::new();
        let (x, t) = m.time(|| 6 * 7);
        assert_eq!(x, 42);
        assert!(t.wall_s >= 0.0 && t.scaled_s >= 0.0);
        assert_eq!(m.slowdowns.len(), 2);
        assert!(m.median_slowdown() > 0.0);
    }
}
