//! Integration tests of the `hfuse` command-line tool, driving the real
//! binary end-to-end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hfuse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hfuse"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_tmp(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hfuse_cli_test_{name}"));
    std::fs::write(&path, content).expect("write temp file");
    path
}

const KERNEL_A: &str = r#"
__global__ void writer(float* out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = 2.0f * i; }
}
"#;

const KERNEL_B: &str = r#"
__global__ void adder(float* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { data[i] = data[i] + 1.0f; }
}
"#;

#[test]
fn help_lists_commands() {
    let out = hfuse(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["fuse", "vfuse", "compile", "run", "search", "bench", "list"] {
        assert!(text.contains(cmd), "help must mention `{cmd}`");
    }
}

#[test]
fn fuse_emits_parsable_cuda() {
    let a = write_tmp("a.cu", KERNEL_A);
    let b = write_tmp("b.cu", KERNEL_B);
    let out = hfuse(&[
        "fuse",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--threads",
        "128,128",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fused = String::from_utf8_lossy(&out.stdout);
    assert!(
        fused.contains("__global__ void writer_adder_fused"),
        "{fused}"
    );
    assert!(fused.contains("goto"), "{fused}");
    // Output is valid input.
    hfuse::frontend::parse_kernel(&fused).expect("fused output parses");
}

#[test]
fn fuse_three_way_from_files() {
    let a = write_tmp("3a.cu", KERNEL_A);
    let b = write_tmp("3b.cu", KERNEL_B);
    let c = write_tmp(
        "3c.cu",
        "__global__ void third(float* q) { q[threadIdx.x] = 1.0f; }",
    );
    let out = hfuse(&[
        "fuse",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
        "--threads",
        "128,64,32",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("partitions [128, 64, 32]"), "{err}");
}

#[test]
fn fuse_three_way_rejects_a_divergent_barrier() {
    // The N-way path runs the same static safety gate as pairwise fusion.
    let a = write_tmp("3da.cu", KERNEL_A);
    let b = write_tmp(
        "3db.cu",
        "__global__ void divb(int* out, int* in) {\
           int t = threadIdx.x;\
           if (in[t] > 0) { __syncthreads(); }\
           out[t] = t;\
         }",
    );
    let c = write_tmp("3dc.cu", KERNEL_B);
    let out = hfuse(&[
        "fuse",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
        "--threads",
        "64,64,64",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("static safety"), "{err}");
}

#[test]
fn vfuse_emits_concatenated_kernel() {
    let a = write_tmp("va.cu", KERNEL_A);
    let b = write_tmp("vb.cu", KERNEL_B);
    let out = hfuse(&["vfuse", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success());
    let fused = String::from_utf8_lossy(&out.stdout);
    assert!(fused.contains("_vfused"), "{fused}");
    assert!(!fused.contains("goto"), "{fused}");
}

#[test]
fn compile_reports_stats_and_ir() {
    let a = write_tmp("c.cu", KERNEL_A);
    let out = hfuse(&["compile", a.to_str().unwrap(), "--dump-ir"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("register pressure"), "{text}");
    assert!(text.contains("ld.param"), "{text}");
    assert!(text.contains("ret"), "{text}");
}

/// The value printed after `label:` in `hfuse compile`'s report.
fn stat(text: &str, label: &str) -> u32 {
    let line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix(label)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{text}"));
    let value = line.split_whitespace().next().expect("a value");
    value.parse().unwrap_or_else(|e| panic!("`{label}`: {e}"))
}

#[test]
fn compile_reports_simulator_rows_below_virtual_registers() {
    // Each round's temporaries die before the next round's, so the
    // simulator stores them in far fewer rows than there are virtual
    // registers.
    let src = r#"
__global__ void rounds(unsigned int* out, int n) {
    unsigned int x = blockIdx.x * blockDim.x + threadIdx.x;
    for (int r = 0; r < 4; r++) {
        unsigned int a = x * 2654435761u;
        unsigned int b = (a >> 13) ^ a;
        unsigned int c = b * 5u + 7u;
        x = c ^ (c >> 7);
    }
    out[threadIdx.x] = x;
}
"#;
    let k = write_tmp("rows.cu", src);
    for no_opt in [false, true] {
        let mut args = vec!["compile", k.to_str().unwrap()];
        if no_opt {
            args.push("--no-opt");
        }
        let out = hfuse(&args);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        let (virt, rows) = (
            stat(&text, "virtual registers"),
            stat(&text, "simulator rows"),
        );
        assert!(text.contains("register pressure"), "{text}");
        assert!(rows > 0 && rows < virt, "{text}");
    }
}

#[test]
fn run_executes_and_prints_buffers() {
    let a = write_tmp("r.cu", KERNEL_B);
    let out = hfuse(&[
        "run",
        a.to_str().unwrap(),
        "--grid",
        "2",
        "--block",
        "64",
        "--arg",
        "buf:128:5.0",
        "--arg",
        "i32:128",
        "--show",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles"), "{text}");
    assert!(text.contains("[6.0, 6.0]"), "5.0 + 1.0 expected: {text}");
}

#[test]
fn bad_source_produces_rendered_diagnostic() {
    let bad = write_tmp("bad.cu", "__global__ void k(int n) {\n  n = ;\n}\n");
    let out = hfuse(&["compile", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--> line 2"), "{err}");
    assert!(err.contains("n = ;"), "{err}");
}

#[test]
fn list_shows_benchmarks_and_pairs() {
    let out = hfuse(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "Batchnorm",
        "Ethash",
        "Softmax",
        "Transpose",
        "*Batchnorm*+Hist",
    ] {
        assert!(text.contains(name), "list must mention {name}: {text}");
    }
}

#[test]
fn lint_all_builtins_are_clean() {
    let out = hfuse(&["lint", "--all"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no diagnostics"), "{err}");
}

#[test]
fn lint_json_reports_extent_violation() {
    let oob = write_tmp(
        "oob.cu",
        "__global__ void k(int* out, int n) {\n  int t = threadIdx.x;\n  out[t + 1] = t;\n}\n",
    );
    let out = hfuse(&[
        "lint",
        oob.to_str().unwrap(),
        "--threads",
        "64",
        "--extent",
        "out=64",
        "--json",
    ]);
    assert!(!out.status.success(), "the overrun must fail the lint");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"total\": 1"), "{text}");
    assert!(
        text.contains("\"code\": \"global-out-of-bounds\""),
        "{text}"
    );
    assert!(text.contains("\"line\": 3"), "{text}");
    // Without the extent declaration the analyzer cannot claim anything.
    let out = hfuse(&["lint", oob.to_str().unwrap(), "--threads", "64", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"total\": 0"), "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = hfuse(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}
