//! Pins the fusion gate's verdict on every ordered pair of the 17 bundled
//! kernels at three shapes: each kernel's default block size, 256+768 and
//! 512+512 (867 `horizontal_fuse` calls). For each call the table in
//! `gate_verdicts.txt` records acceptance with the number of barriers the
//! range analysis eliminated and whether the gate took its fast path, or
//! the rejection's full error text.
//!
//! The matrix takes tens of seconds even in release builds, so the test is
//! ignored by default; run it with
//! `cargo test --release -p hfuse-core --test gate_verdicts -- --include-ignored`.
//! On a mismatch the actual table is written next to the test binary's
//! scratch directory and its path is printed, so a deliberate change can be
//! reviewed with `diff` and copied over the expected file.

use hfuse_core::fuse::horizontal_fuse;
use hfuse_kernels::AnyBenchmark;

const EXPECTED: &str = include_str!("gate_verdicts.txt");

fn verdict_table() -> String {
    let kernels: Vec<AnyBenchmark> = AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
        .collect();
    let (mut accepted, mut rejected, mut eliminated, mut fast) = (0, 0, 0, 0);
    let mut rows = String::new();
    for a in &kernels {
        for b in &kernels {
            let (ba, bb) = (a.benchmark(), b.benchmark());
            let (ka, kb) = (ba.kernel(), bb.kernel());
            let shapes = [
                (ba.default_threads(), bb.default_threads()),
                (256, 768),
                (512, 512),
            ];
            for (d1, d2) in shapes {
                let dims1 = ba.shape().dims(d1).expect("shape");
                let dims2 = bb.shape().dims(d2).expect("shape");
                let verdict = match horizontal_fuse(&ka, dims1, &kb, dims2) {
                    Ok(f) => {
                        accepted += 1;
                        eliminated += f.barriers_eliminated;
                        fast += u32::from(f.gate_fast_path);
                        format!(
                            "ok eliminated={} fast={}",
                            f.barriers_eliminated, f.gate_fast_path
                        )
                    }
                    Err(e) => {
                        rejected += 1;
                        format!("err {}", e.to_string().replace('\n', "\\n"))
                    }
                };
                rows += &format!("{}+{} {d1}+{d2}: {verdict}\n", a.name(), b.name());
            }
        }
    }
    format!("accepted={accepted} rejected={rejected} eliminated={eliminated} fast={fast}\n{rows}")
}

#[test]
#[ignore = "fuses 867 kernel pairs; run with --include-ignored"]
fn gate_verdicts_match_the_pinned_table() {
    let actual = verdict_table();
    if actual != EXPECTED {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate_verdicts.txt");
        std::fs::write(&path, &actual).expect("write actual table");
        let diff: Vec<String> = EXPECTED
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .take(10)
            .map(|(e, a)| format!("-{e}\n+{a}"))
            .collect();
        panic!(
            "gate verdicts changed ({} expected lines, {} actual); first \
             differences:\n{}\nfull table written to {}",
            EXPECTED.lines().count(),
            actual.lines().count(),
            diff.join("\n"),
            path.display()
        );
    }
}
