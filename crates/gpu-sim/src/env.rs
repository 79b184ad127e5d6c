//! Central registry and parsing of the `HFUSE_*` environment switches.
//!
//! Every optimization layer in the stack ships an *escape hatch*: an
//! environment variable that forces the unoptimized reference path so the
//! two can be A/B-ed bit-for-bit. Historically each crate parsed its own
//! variables ad hoc; this module is the single place that knows the
//! convention (a boolean switch is *on* when set to anything but `"0"`) and
//! the complete list of documented hatches, so tests can enumerate them and
//! the parsing cannot drift between crates.
//!
//! The `HFUSE_NO_STATIC_CHECK` hatch is parsed in `hfuse-analysis`, which
//! does not depend on this crate; it is still listed in [`HATCHES`]
//! because the registry documents the whole workspace.

/// One documented `HFUSE_*` switch.
#[derive(Debug, Clone, Copy)]
pub struct Hatch {
    /// Environment variable name.
    pub name: &'static str,
    /// What setting it does (one line, mirrors README).
    pub what: &'static str,
}

/// Every documented `HFUSE_*` environment switch in the workspace.
pub const HATCHES: &[Hatch] = &[
    Hatch {
        name: "HFUSE_SIM_NO_SKIP",
        what: "force the naive single-step simulator loop (no idle-cycle fast-forward)",
    },
    Hatch {
        name: "HFUSE_SANITIZE",
        what: "enable the race/barrier sanitizer on every device the process creates",
    },
    Hatch {
        name: "HFUSE_SEARCH_THREADS",
        what: "profiling worker count (numeric, honored as-is; moves wall time, never the report)",
    },
    Hatch {
        name: "HFUSE_FUZZ_NO_SANITIZE",
        what: "skip the sanitizer replay stage of the differential fuzzer",
    },
    Hatch {
        name: "HFUSE_NO_STATIC_CHECK",
        what: "skip the static fusion-safety gate before fusing (parsed in hfuse-analysis)",
    },
    Hatch {
        name: "HFUSE_NO_BARRIER_ELIM",
        what: "keep every __syncthreads(): disable range-proven barrier elimination (AST and IR)",
    },
    Hatch {
        name: "HFUSE_FAST",
        what: "trim the benchmark sweep matrix for quick local runs",
    },
];

/// True when `name` is set to anything but `"0"` — the convention every
/// boolean `HFUSE_*` switch follows.
pub fn flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| v != "0")
}

/// Numeric `HFUSE_*` value, `None` when unset or unparseable.
pub fn parse_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

/// `HFUSE_SIM_NO_SKIP`: force the naive single-step cycle loop.
pub fn sim_no_skip() -> bool {
    flag("HFUSE_SIM_NO_SKIP")
}

/// `HFUSE_SANITIZE`: enable the sanitizer on every new device.
pub fn sanitize() -> bool {
    flag("HFUSE_SANITIZE")
}

/// `HFUSE_SEARCH_THREADS`: explicit profiling worker count.
pub fn search_threads() -> Option<usize> {
    parse_usize("HFUSE_SEARCH_THREADS")
}

/// `HFUSE_FUZZ_NO_SANITIZE`: skip the fuzzer's sanitizer replay stage.
pub fn fuzz_no_sanitize() -> bool {
    flag("HFUSE_FUZZ_NO_SANITIZE")
}

/// `HFUSE_NO_BARRIER_ELIM`: disable range-proven barrier elimination, both
/// the AST-level pass in `horizontal_fuse` and the IR-level safety net in
/// `thread-ir` (which parses the variable itself, as it cannot depend on
/// this crate — same situation as `HFUSE_NO_STATIC_CHECK`).
pub fn no_barrier_elim() -> bool {
    flag("HFUSE_NO_BARRIER_ELIM")
}

/// `HFUSE_FAST`: trim benchmark sweeps for quick local runs.
pub fn fast() -> bool {
    flag("HFUSE_FAST")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_convention_anything_but_zero() {
        // A variable name no other test (or the harness) touches.
        std::env::set_var("HFUSE_TEST_FLAG_CONVENTION", "1");
        assert!(flag("HFUSE_TEST_FLAG_CONVENTION"));
        std::env::set_var("HFUSE_TEST_FLAG_CONVENTION", "yes");
        assert!(flag("HFUSE_TEST_FLAG_CONVENTION"));
        std::env::set_var("HFUSE_TEST_FLAG_CONVENTION", "0");
        assert!(!flag("HFUSE_TEST_FLAG_CONVENTION"));
        std::env::remove_var("HFUSE_TEST_FLAG_CONVENTION");
        assert!(!flag("HFUSE_TEST_FLAG_CONVENTION"));
    }

    #[test]
    fn numeric_values_parse_or_fall_through() {
        std::env::set_var("HFUSE_TEST_NUMERIC", "12");
        assert_eq!(parse_usize("HFUSE_TEST_NUMERIC"), Some(12));
        std::env::set_var("HFUSE_TEST_NUMERIC", "lots");
        assert_eq!(parse_usize("HFUSE_TEST_NUMERIC"), None);
        std::env::remove_var("HFUSE_TEST_NUMERIC");
        assert_eq!(parse_usize("HFUSE_TEST_NUMERIC"), None);
    }

    #[test]
    fn registry_covers_every_documented_hatch() {
        let expected = [
            "HFUSE_SIM_NO_SKIP",
            "HFUSE_SANITIZE",
            "HFUSE_SEARCH_THREADS",
            "HFUSE_FUZZ_NO_SANITIZE",
            "HFUSE_NO_STATIC_CHECK",
            "HFUSE_NO_BARRIER_ELIM",
            "HFUSE_FAST",
        ];
        assert_eq!(HATCHES.len(), expected.len());
        for name in expected {
            assert!(
                HATCHES.iter().any(|h| h.name == name),
                "{name} missing from the hatch registry"
            );
        }
        // Names are unique and follow the prefix convention.
        for (i, h) in HATCHES.iter().enumerate() {
            assert!(h.name.starts_with("HFUSE_"), "{}", h.name);
            assert!(!h.what.is_empty());
            assert!(
                HATCHES[..i].iter().all(|p| p.name != h.name),
                "duplicate hatch {}",
                h.name
            );
        }
    }

    #[test]
    fn registry_matches_workspace_readme() {
        // Every hatch must be documented in the top-level README (the
        // registry and the docs cannot drift apart silently).
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        for h in HATCHES {
            assert!(
                readme.contains(h.name),
                "{} not documented in README.md",
                h.name
            );
        }
    }
}
