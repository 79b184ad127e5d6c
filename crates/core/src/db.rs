//! The incremental query-based pipeline: [`Session`].
//!
//! The compile pipeline used to be an ad-hoc chain of free functions —
//! `parse_kernel` → `lower_kernel` → `horizontal_fuse` →
//! `search_fusion_config` — with every caller re-running every stage from
//! scratch. A [`Session`] replaces that chain with a small salsa-style
//! query database: *inputs* (kernel source texts, the device, the search
//! options, per-kernel workloads) and memoized *derived queries* over them:
//!
//! | query | derived from | fingerprint |
//! |---|---|---|
//! | [`ast(k)`](Session::ast) | source text | FNV-1a of the source |
//! | [`ir(k)`](Session::ir) | `ast(k)` | hash of the *printed* AST |
//! | [`lints(k)`](Session::lints) | `ast(k)` + `block_threads` + extents | printed-AST hash × extents fingerprint |
//! | [`ranges(k)`](Session::ranges) | `ast(k)` + `block_threads` | printed-AST hash |
//! | [`fused(a,b)`](Session::fused) | both ASTs + the partition | both printed-AST hashes |
//! | [`single(k)`](Session::single) | AST + workload + device | AST, workload, config hashes |
//! | [`native(a,b)`](Session::native) | ASTs + workloads + device | ditto |
//! | [`search_winner(a,b)`](Session::search_winner) | everything above + options | ditto + options hash |
//!
//! Each memo stores the fingerprint of its inputs next to its value. A
//! lookup whose fingerprint matches is a **hit** and returns the cached
//! value (an `Arc`, so hits are allocation-free); a mismatch is a
//! **recompute**; a first-ever computation is a **miss**. There is no
//! eager invalidation: editing an input just changes what the fingerprints
//! hash to, and the next demand of each downstream query notices. This
//! gives early cutoff for free — a whitespace-only source edit recomputes
//! `ast(k)`, but the reprinted AST hashes identically, so `ir(k)`,
//! `fused(..)`, and `search_winner(..)` all still hit.
//!
//! [`Session::stats`] exposes per-query hit/miss/recompute counters, which
//! is how the invalidation tests (and a future daemon's cache telemetry)
//! observe exactly which stages re-ran.
//!
//! Two caveats the fingerprints are honest about:
//!
//! * Device **memory contents** are not hashed — only the [`GpuConfig`].
//!   Workload arguments (buffer ids, scalars) are hashed, so the common
//!   edit — reallocating inputs — is caught, but mutating a buffer's bytes
//!   in place between queries is not. Measurement queries are pure given
//!   the same initial memory image (the simulator clones the device per
//!   run), so this only matters if the caller rewrites inputs in place.
//! * [`KernelId`]s belong to the session that minted them. Indexing with a
//!   foreign id panics or returns another kernel's state.
//!
//! # Example
//!
//! ```
//! use gpu_sim::GpuConfig;
//! use hfuse_core::db::Session;
//!
//! let mut s = Session::new(GpuConfig::test_tiny());
//! let k = s.add_kernel("__global__ void a(float* x) { x[threadIdx.x] = 1.0f; }");
//! let ir1 = s.ir(k)?;
//! let ir2 = s.ir(k)?; // memoized: same Arc, no re-parse, no re-lower
//! assert!(std::sync::Arc::ptr_eq(&ir1, &ir2));
//! assert_eq!(s.stats().ir.hits, 1);
//! # Ok::<(), hfuse_core::HfuseError>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cuda_frontend::ast::Function;
use cuda_frontend::diag::{Diagnostic, SpanTable};
use cuda_frontend::hash::{fnv1a_64, Fnv64};
use cuda_frontend::parse_kernel_with_spans;
use cuda_frontend::printer::print_function;
use gpu_sim::{Gpu, GpuConfig, ParamValue, RunResult};
use thread_ir::ir::KernelIr;
use thread_ir::lower_kernel;

use crate::error::HfuseError;
use crate::fuse::{horizontal_fuse, FusedKernel};
use crate::search::{
    measure_native_impl, measure_single_impl, search_fusion_config_impl, BlockShape, FusionInput,
    SearchOptions, SearchReport,
};

/// Handle to a kernel registered in a [`Session`].
///
/// Ids are dense indices minted by [`Session::add_kernel`] /
/// [`Session::add_fusion_input`]; they are only meaningful within the
/// session that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(usize);

impl KernelId {
    /// The dense index of this kernel within its session.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The launch-time half of a fusion experiment: everything in a
/// [`FusionInput`] except the kernel itself (which the session derives from
/// the kernel's source text via the `ast` query).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Arguments (buffers already allocated in the session device's memory).
    pub args: Vec<ParamValue>,
    /// Grid dimension the kernel runs with.
    pub grid_dim: u32,
    /// Dynamic shared memory bytes.
    pub dynamic_shared: u32,
    /// Block threads used when the kernel runs natively.
    pub default_threads: u32,
    /// Whether the block dimension is tunable.
    pub tunable: bool,
    /// Thread-shape rule.
    pub shape: BlockShape,
}

impl Workload {
    /// Extracts the workload half of a [`FusionInput`].
    #[must_use]
    pub fn from_fusion_input(inp: &FusionInput) -> Self {
        Workload {
            args: inp.args.clone(),
            grid_dim: inp.grid_dim,
            dynamic_shared: inp.dynamic_shared,
            default_threads: inp.default_threads,
            tunable: inp.tunable,
            shape: inp.shape,
        }
    }

    /// Recombines this workload with a kernel into a [`FusionInput`].
    fn to_fusion_input(&self, kernel: Function) -> FusionInput {
        FusionInput {
            kernel,
            args: self.args.clone(),
            grid_dim: self.grid_dim,
            dynamic_shared: self.dynamic_shared,
            default_threads: self.default_threads,
            tunable: self.tunable,
            shape: self.shape,
        }
    }

    /// Content hash over the `Debug` rendering — every field is plain data
    /// with a deterministic `Debug` form, so this is stable within a build.
    fn content_hash(&self) -> u64 {
        fnv1a_64(format!("{self:?}").as_bytes())
    }
}

/// Hit/miss/recompute counters for one query kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Lookups whose fingerprint matched the memo: no work done.
    pub hits: u64,
    /// First-ever computations for a key.
    pub misses: u64,
    /// Re-computations because the fingerprint changed under an existing
    /// memo (an input the query depends on was edited).
    pub recomputes: u64,
}

impl QueryStats {
    /// Total times the query function actually ran.
    #[must_use]
    pub fn computes(&self) -> u64 {
        self.misses + self.recomputes
    }

    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.recomputes
    }
}

/// Per-query [`QueryStats`] for a whole [`Session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// `ast(k)`: parse a kernel's source text.
    pub ast: QueryStats,
    /// `ir(k)`: lower a kernel to thread IR.
    pub ir: QueryStats,
    /// `lints(k)`: static fusion-safety analysis.
    pub lints: QueryStats,
    /// `ranges(k)`: value-range summary (disjointness facts for the gate).
    pub ranges: QueryStats,
    /// `fused(a, b, ...)`: horizontal fusion of a pair at a partition.
    pub fused: QueryStats,
    /// `search_winner(a, b)`: the Fig. 6 configuration search.
    pub search: QueryStats,
    /// `single(k)`: native single-kernel measurement.
    pub single: QueryStats,
    /// `native(a, b)`: native co-execution measurement.
    pub native: QueryStats,
    /// Snapshot of the process-wide `hfuse-analysis` cache counters at the
    /// time [`Session::stats`] was called (lint and range-summary tables).
    /// These are process-global, shared with the CLI and the fuse gate —
    /// assert on deltas, not absolutes.
    pub analysis_cache: hfuse_analysis::AnalysisCacheStats,
}

impl SessionStats {
    /// Total query-function executions across all query kinds — the
    /// "how much real work happened" number.
    #[must_use]
    pub fn total_computes(&self) -> u64 {
        self.ast.computes()
            + self.ir.computes()
            + self.lints.computes()
            + self.ranges.computes()
            + self.fused.computes()
            + self.search.computes()
            + self.single.computes()
            + self.native.computes()
    }
}

/// A memoized value plus the fingerprint of the inputs it was computed from.
struct Memo<T> {
    fingerprint: u64,
    value: T,
}

/// The `ast` query's value: the parsed kernel, its statement span table
/// (absent for kernels seeded from an already-parsed [`FusionInput`]), and
/// the hash of its printed form — the fingerprint every downstream query
/// keys on, which is what makes whitespace-only edits cut off early.
#[derive(Clone)]
struct AstValue {
    func: Arc<Function>,
    spans: Option<Arc<SpanTable>>,
    ast_hash: u64,
}

type AstResult = Result<AstValue, HfuseError>;

/// A memo table: query key → fingerprinted shared result.
type MemoMap<K, V> = HashMap<K, Memo<Result<Arc<V>, HfuseError>>>;

/// The `fused` query's key: both kernel indices plus the explicit block
/// shapes the pair was fused at.
type FusedKey = (usize, usize, (u32, u32, u32), (u32, u32, u32));

/// Generic memo lookup: hit on fingerprint match, recompute on mismatch,
/// miss on absence. `compute` must not touch the memo map it is filling
/// (dependencies are resolved by the caller *before* this call).
fn lookup<K, V, F>(
    map: &mut HashMap<K, Memo<V>>,
    stats: &mut QueryStats,
    key: K,
    fingerprint: u64,
    compute: F,
) -> V
where
    K: std::hash::Hash + Eq,
    V: Clone,
    F: FnOnce() -> V,
{
    if let Some(memo) = map.get(&key) {
        if memo.fingerprint == fingerprint {
            stats.hits += 1;
            return memo.value.clone();
        }
        stats.recomputes += 1;
    } else {
        stats.misses += 1;
    }
    let value = compute();
    map.insert(
        key,
        Memo {
            fingerprint,
            value: value.clone(),
        },
    );
    value
}

/// The incremental compile pipeline: tracked inputs plus memoized queries.
///
/// See the [module docs](self) for the query graph and fingerprint scheme.
pub struct Session {
    gpu: Gpu,
    opts: SearchOptions,
    global_extents: Option<Arc<BTreeMap<String, i64>>>,
    sources: Vec<String>,
    workloads: Vec<Option<Workload>>,
    ast_memo: Vec<Option<Memo<AstResult>>>,
    ir_memo: MemoMap<usize, KernelIr>,
    lints_memo: MemoMap<(usize, Option<u32>), Vec<Diagnostic>>,
    ranges_memo: MemoMap<(usize, Option<u32>), hfuse_analysis::KernelRangeSummary>,
    fused_memo: MemoMap<FusedKey, FusedKernel>,
    search_memo: MemoMap<(usize, usize), SearchReport>,
    single_memo: MemoMap<usize, RunResult>,
    native_memo: MemoMap<(usize, usize), RunResult>,
    stats: SessionStats,
}

impl Session {
    /// A session over a fresh device with the given hardware configuration.
    #[must_use]
    pub fn new(config: GpuConfig) -> Self {
        Self::with_gpu(Gpu::new(config))
    }

    /// A session over an existing device (keeping its allocated memory, so
    /// workload buffer arguments stay valid).
    #[must_use]
    pub fn with_gpu(gpu: Gpu) -> Self {
        Session {
            gpu,
            opts: SearchOptions::default(),
            global_extents: None,
            sources: Vec::new(),
            workloads: Vec::new(),
            ast_memo: Vec::new(),
            ir_memo: HashMap::new(),
            lints_memo: HashMap::new(),
            ranges_memo: HashMap::new(),
            fused_memo: HashMap::new(),
            search_memo: HashMap::new(),
            single_memo: HashMap::new(),
            native_memo: HashMap::new(),
            stats: SessionStats::default(),
        }
    }

    // ---- inputs -----------------------------------------------------------

    /// The session's device.
    #[must_use]
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable device access, e.g. for allocating workload buffers.
    ///
    /// Config changes made through this handle are picked up by the next
    /// measurement-query lookup (their fingerprints hash the config);
    /// mutating buffer *contents* in place is invisible to fingerprints.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Replaces the device. Measurement queries re-run on next demand if
    /// the new device's configuration differs; parses and lowers are
    /// untouched.
    pub fn set_gpu(&mut self, gpu: Gpu) {
        self.gpu = gpu;
    }

    /// The options `search_winner` runs with.
    #[must_use]
    pub fn search_options(&self) -> SearchOptions {
        self.opts
    }

    /// Sets the options `search_winner` runs with. Changing them
    /// invalidates searches (on next demand) but nothing upstream.
    pub fn set_search_options(&mut self, opts: SearchOptions) {
        self.opts = opts;
    }

    /// The global buffer extents (in elements) the `lints` query feeds to
    /// the out-of-bounds lint.
    #[must_use]
    pub fn global_extents(&self) -> Option<&Arc<BTreeMap<String, i64>>> {
        self.global_extents.as_ref()
    }

    /// Sets the global buffer extents (in elements, by pointer-parameter
    /// name) for the out-of-bounds lint. Changing them invalidates `lints`
    /// memos on next demand; `None` disables the global-buffer half of the
    /// lint.
    pub fn set_global_extents(&mut self, extents: Option<BTreeMap<String, i64>>) {
        self.global_extents = extents.map(Arc::new);
    }

    /// Registers a kernel by source text.
    pub fn add_kernel(&mut self, source: impl Into<String>) -> KernelId {
        self.sources.push(source.into());
        self.workloads.push(None);
        self.ast_memo.push(None);
        KernelId(self.sources.len() - 1)
    }

    /// Registers a kernel by source text together with its workload.
    pub fn add_input(&mut self, source: impl Into<String>, workload: Workload) -> KernelId {
        let k = self.add_kernel(source);
        self.workloads[k.0] = Some(workload);
        k
    }

    /// Registers an already-parsed [`FusionInput`]: the kernel's printed
    /// form becomes the tracked source, the `ast` memo is pre-seeded with
    /// the exact [`Function`] (no re-parse ever happens, so results are
    /// structurally identical to calling the free functions on `inp.kernel`
    /// directly), and the workload half is recorded. Seeding touches no
    /// stats counters; the first `ast(k)` lookup afterwards counts as a
    /// hit.
    pub fn add_fusion_input(&mut self, inp: &FusionInput) -> KernelId {
        let source = print_function(&inp.kernel);
        let src_hash = fnv1a_64(source.as_bytes());
        let k = self.add_kernel(source);
        // The tracked source *is* the printed form, so the printed-AST hash
        // equals the source hash.
        self.ast_memo[k.0] = Some(Memo {
            fingerprint: src_hash,
            value: Ok(AstValue {
                func: Arc::new(inp.kernel.clone()),
                spans: None,
                ast_hash: src_hash,
            }),
        });
        self.workloads[k.0] = Some(Workload::from_fusion_input(inp));
        k
    }

    /// The current source text of a kernel.
    #[must_use]
    pub fn kernel_source(&self, k: KernelId) -> &str {
        &self.sources[k.0]
    }

    /// Edits a kernel's source text. Downstream queries notice on next
    /// demand; a change that prints to the same AST (whitespace, comments)
    /// re-runs only the parse.
    pub fn set_kernel_source(&mut self, k: KernelId, source: impl Into<String>) {
        self.sources[k.0] = source.into();
    }

    /// Sets or replaces a kernel's workload (required before measurement
    /// queries involving `k`).
    pub fn set_workload(&mut self, k: KernelId, workload: Workload) {
        self.workloads[k.0] = Some(workload);
    }

    /// Query counters since construction (or the last
    /// [`reset_stats`](Session::reset_stats)), with a live snapshot of the
    /// process-wide analysis-cache counters attached.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats;
        stats.analysis_cache = hfuse_analysis::analysis_cache_stats();
        stats
    }

    /// Zeroes the query counters (memoized values are kept).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    // ---- derived queries --------------------------------------------------

    /// The parsed kernel. Memoized on the source text.
    ///
    /// # Errors
    ///
    /// Propagates the parse error (also memoized, so re-demanding a broken
    /// kernel doesn't re-parse it).
    pub fn ast(&mut self, k: KernelId) -> Result<Arc<Function>, HfuseError> {
        self.ast_value(k).map(|v| v.func)
    }

    /// The hash of the kernel's *printed* AST — the fingerprint downstream
    /// queries key on.
    ///
    /// # Errors
    ///
    /// Propagates the parse error.
    pub fn ast_hash(&mut self, k: KernelId) -> Result<u64, HfuseError> {
        self.ast_value(k).map(|v| v.ast_hash)
    }

    fn ast_value(&mut self, k: KernelId) -> AstResult {
        let src_hash = fnv1a_64(self.sources[k.0].as_bytes());
        let slot = &mut self.ast_memo[k.0];
        if let Some(memo) = slot {
            if memo.fingerprint == src_hash {
                self.stats.ast.hits += 1;
                return memo.value.clone();
            }
            self.stats.ast.recomputes += 1;
        } else {
            self.stats.ast.misses += 1;
        }
        let value: AstResult = match parse_kernel_with_spans(&self.sources[k.0]) {
            Ok((func, spans)) => {
                let ast_hash = fnv1a_64(print_function(&func).as_bytes());
                Ok(AstValue {
                    func: Arc::new(func),
                    spans: Some(Arc::new(spans)),
                    ast_hash,
                })
            }
            Err(e) => Err(e.into()),
        };
        self.ast_memo[k.0] = Some(Memo {
            fingerprint: src_hash,
            value: value.clone(),
        });
        value
    }

    /// The kernel lowered to thread IR. Memoized on the printed AST, so
    /// source edits that don't change the AST are cut off here.
    ///
    /// # Errors
    ///
    /// Propagates parse and lowering errors.
    pub fn ir(&mut self, k: KernelId) -> Result<Arc<KernelIr>, HfuseError> {
        let ast = self.ast_value(k);
        let fingerprint = match &ast {
            Ok(v) => v.ast_hash,
            // Keep a broken kernel's IR memo keyed to the source hash so it
            // recomputes (and re-reports) only when the source changes.
            Err(_) => fnv1a_64(self.sources[k.0].as_bytes()),
        };
        lookup(
            &mut self.ir_memo,
            &mut self.stats.ir,
            k.0,
            fingerprint,
            || {
                let v = ast?;
                Ok(Arc::new(lower_kernel(&v.func)?))
            },
        )
    }

    /// Static fusion-safety diagnostics for the kernel, under an optional
    /// known `blockDim.x`. Memoized on the printed AST (per
    /// `block_threads`), and backed by the process-wide analysis cache that
    /// the fuse-time safety gate also uses — so linting a kernel here and
    /// fusing it later analyzes it exactly once.
    ///
    /// # Errors
    ///
    /// Propagates the parse error.
    pub fn lints(
        &mut self,
        k: KernelId,
        block_threads: Option<u32>,
    ) -> Result<Arc<Vec<Diagnostic>>, HfuseError> {
        let ast = self.ast_value(k);
        let mut fp = Fnv64::new();
        fp.write_u64(self.dep_hash(k, &ast));
        fp.write_u64(hfuse_analysis::ranges::extents_fingerprint(
            self.global_extents.as_deref(),
        ));
        let extents = self.global_extents.clone();
        lookup(
            &mut self.lints_memo,
            &mut self.stats.lints,
            (k.0, block_threads),
            fp.finish(),
            || {
                let v = ast?;
                let opts = hfuse_analysis::AnalysisOptions {
                    block_threads,
                    global_extents: extents,
                };
                Ok(hfuse_analysis::analyze_kernel_memoized(
                    &v.func,
                    v.spans.as_deref(),
                    &opts,
                ))
            },
        )
    }

    /// The kernel's value-range summary — per-array access facts,
    /// race-freedom and bounds certificates, and the
    /// [`fast_gate_clean`](hfuse_analysis::KernelRangeSummary::fast_gate_clean)
    /// bit the fuse gate's fast path keys on. Memoized on the printed AST
    /// (per `block_threads`), and backed by the process-wide summary cache
    /// (which the gate also uses on the paths that skip barrier
    /// elimination).
    ///
    /// # Errors
    ///
    /// Propagates the parse error.
    pub fn ranges(
        &mut self,
        k: KernelId,
        block_threads: Option<u32>,
    ) -> Result<Arc<hfuse_analysis::KernelRangeSummary>, HfuseError> {
        let ast = self.ast_value(k);
        let fingerprint = self.dep_hash(k, &ast);
        lookup(
            &mut self.ranges_memo,
            &mut self.stats.ranges,
            (k.0, block_threads),
            fingerprint,
            || {
                let v = ast?;
                Ok(hfuse_analysis::summarize_ranges_memoized(
                    &v.func,
                    block_threads,
                ))
            },
        )
    }

    /// The horizontal fusion of `a` and `b` at the given block shapes
    /// (including the static safety gate). Memoized on both printed ASTs.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and fusion rejections.
    pub fn fused(
        &mut self,
        a: KernelId,
        b: KernelId,
        dims1: (u32, u32, u32),
        dims2: (u32, u32, u32),
    ) -> Result<Arc<FusedKernel>, HfuseError> {
        let ast_a = self.ast_value(a);
        let ast_b = self.ast_value(b);
        let mut fp = Fnv64::new();
        fp.write_u64(self.dep_hash(a, &ast_a));
        fp.write_u64(self.dep_hash(b, &ast_b));
        lookup(
            &mut self.fused_memo,
            &mut self.stats.fused,
            (a.0, b.0, dims1, dims2),
            fp.finish(),
            || {
                let (va, vb) = (ast_a?, ast_b?);
                Ok(Arc::new(horizontal_fuse(&va.func, dims1, &vb.func, dims2)?))
            },
        )
    }

    /// The Fig. 6 configuration search for the pair, under the session's
    /// [`SearchOptions`]. Memoized on both ASTs, both workloads, the device
    /// configuration, and the options — so repeating the query on an
    /// unchanged pair performs **zero** new simulations, while editing
    /// either kernel, either workload, the config, or the options re-runs
    /// exactly the search.
    ///
    /// # Errors
    ///
    /// Propagates parse errors, missing workloads
    /// ([`HfuseError::Config`]), and search failures.
    pub fn search_winner(
        &mut self,
        a: KernelId,
        b: KernelId,
    ) -> Result<Arc<SearchReport>, HfuseError> {
        let ast_a = self.ast_value(a);
        let ast_b = self.ast_value(b);
        let mut fp = Fnv64::new();
        fp.write_u64(self.dep_hash(a, &ast_a));
        fp.write_u64(self.dep_hash(b, &ast_b));
        fp.write_u64(self.workload_hash(a));
        fp.write_u64(self.workload_hash(b));
        fp.write_u64(self.config_hash());
        fp.write_str(&format!("{:?}", self.opts));
        let inputs = self.pair_inputs(a, b, &ast_a, &ast_b);
        let (gpu, opts) = (&self.gpu, self.opts);
        lookup(
            &mut self.search_memo,
            &mut self.stats.search,
            (a.0, b.0),
            fp.finish(),
            || {
                let (in1, in2) = inputs?;
                Ok(Arc::new(search_fusion_config_impl(gpu, &in1, &in2, opts)?))
            },
        )
    }

    /// Native single-kernel measurement (the kernel alone at its default
    /// block size). Memoized on the AST, the workload, and the device
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates parse errors, a missing workload, and simulation faults.
    pub fn single(&mut self, k: KernelId) -> Result<Arc<RunResult>, HfuseError> {
        let ast = self.ast_value(k);
        let mut fp = Fnv64::new();
        fp.write_u64(self.dep_hash(k, &ast));
        fp.write_u64(self.workload_hash(k));
        fp.write_u64(self.config_hash());
        let input = self.one_input(k, &ast);
        let gpu = &self.gpu;
        lookup(
            &mut self.single_memo,
            &mut self.stats.single,
            k.0,
            fp.finish(),
            || Ok(Arc::new(measure_single_impl(gpu, &input?)?)),
        )
    }

    /// Native co-execution measurement of the pair (two launches on
    /// parallel streams). Memoized like [`single`](Session::single).
    ///
    /// # Errors
    ///
    /// Propagates parse errors, missing workloads, and simulation faults.
    pub fn native(&mut self, a: KernelId, b: KernelId) -> Result<Arc<RunResult>, HfuseError> {
        let ast_a = self.ast_value(a);
        let ast_b = self.ast_value(b);
        let mut fp = Fnv64::new();
        fp.write_u64(self.dep_hash(a, &ast_a));
        fp.write_u64(self.dep_hash(b, &ast_b));
        fp.write_u64(self.workload_hash(a));
        fp.write_u64(self.workload_hash(b));
        fp.write_u64(self.config_hash());
        let inputs = self.pair_inputs(a, b, &ast_a, &ast_b);
        let gpu = &self.gpu;
        lookup(
            &mut self.native_memo,
            &mut self.stats.native,
            (a.0, b.0),
            fp.finish(),
            || {
                let (in1, in2) = inputs?;
                Ok(Arc::new(measure_native_impl(gpu, &in1, &in2)?))
            },
        )
    }

    // ---- fingerprint helpers ---------------------------------------------

    /// The dependency fingerprint contributed by kernel `k`'s AST: its
    /// printed-form hash, or (for a kernel that doesn't parse) its source
    /// hash, so downstream memos re-run exactly when the broken source
    /// changes.
    fn dep_hash(&self, k: KernelId, ast: &AstResult) -> u64 {
        match ast {
            Ok(v) => v.ast_hash,
            Err(_) => fnv1a_64(self.sources[k.0].as_bytes()),
        }
    }

    /// The workload fingerprint for `k` (a fixed sentinel when no workload
    /// is set, so *setting* one later changes the fingerprint).
    fn workload_hash(&self, k: KernelId) -> u64 {
        self.workloads[k.0]
            .as_ref()
            .map_or(0, Workload::content_hash)
    }

    /// The device-configuration fingerprint, over the `Debug` rendering of
    /// [`GpuConfig`] (plain scalar fields; deterministic within a build).
    fn config_hash(&self) -> u64 {
        fnv1a_64(format!("{:?}", self.gpu.config()).as_bytes())
    }

    /// Builds the pair of [`FusionInput`]s for a measurement query, or the
    /// error to memoize.
    fn pair_inputs(
        &self,
        a: KernelId,
        b: KernelId,
        ast_a: &AstResult,
        ast_b: &AstResult,
    ) -> Result<(FusionInput, FusionInput), HfuseError> {
        Ok((self.one_input(a, ast_a)?, self.one_input(b, ast_b)?))
    }

    fn one_input(&self, k: KernelId, ast: &AstResult) -> Result<FusionInput, HfuseError> {
        let v = ast.clone()?;
        let workload = self.workloads[k.0]
            .as_ref()
            .ok_or_else(|| HfuseError::Config(format!("kernel #{} has no workload set", k.0)))?;
        Ok(workload.to_fusion_input((*v.func).clone()))
    }
}
