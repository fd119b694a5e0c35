//! The `CompilerBackend` seam: campaigns and report entry points are
//! generic over the backend, default to [`SimBackend`], and a single shared
//! backend persists its staged-compile cache across entry points (the first
//! step of cross-campaign cache persistence).

use std::sync::Arc;
use ubfuzz::backend::{CompilerBackend, SimBackend};
use ubfuzz::campaign::{CampaignConfig, CampaignStats, ParallelCampaign};
use ubfuzz::{report, run_campaign};
use ubfuzz_simcc::defects::DefectRegistry;
use ubfuzz_simcc::session::CompileSession;

const SEEDS: usize = 3;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ubfuzz-core-backend-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A default campaign of `seeds` seeds on `backend`, as `make_tables` runs
/// one per table entry point.
fn campaign_on(backend: &Arc<dyn CompilerBackend>, seeds: usize) -> CampaignStats {
    let cfg = CampaignConfig::builder().seeds(seeds).backend(Arc::clone(backend)).build();
    ParallelCampaign::new(cfg).run()
}

/// One backend across `make_tables`-style entry points: the second campaign
/// must be served entirely from the prefixes the first one computed, and
/// the figure replays must keep hitting the same cache.
#[test]
fn shared_backend_reuses_prefixes_across_table_entry_points() {
    // Reuse across campaigns is the store's job: the session keeps only a
    // byte-bounded prefix memo and no sanitized modules. Its key budget is
    // sized from the campaign it will serve, as `make_tables` does.
    let capacity = CampaignConfig::builder().seeds(6).build().prefix_key_bound();
    let dir = tmp_dir("shared-tables");
    let backend: Arc<dyn CompilerBackend> =
        Arc::new(SimBackend::with_store_capacity(&dir, capacity));

    // Table 3 path (6 seeds: enough for attributable bugs to replay below).
    let stats_t3 = campaign_on(&backend, 6);
    let after_t3 = backend.prefix_cache().expect("sim caches").stats();
    assert!(after_t3.misses > 0, "first campaign fills the cache: {after_t3:?}");
    assert!(after_t3.hits > 0, "sanitizer matrix already shares prefixes: {after_t3:?}");

    // Table 6 path recompiles the same campaign on the same backend: every
    // prefix lookup must now be served from the cache (cross-table
    // persistence), and every sanitizer cell reruns its sanitizer pass.
    let stats_t6 = campaign_on(&backend, 6);
    let after_t6 = backend.prefix_cache().expect("sim caches").stats();
    assert_eq!(stats_t3, stats_t6, "shared cache must not change results");
    assert_eq!(
        after_t6.misses, after_t3.misses,
        "second campaign re-misses prefixes the first cached"
    );
    assert_eq!(after_t6.san_misses, 2 * after_t3.san_misses, "{after_t6:?}");
    assert!(after_t6.hits > after_t3.hits, "cross-table lookups hit: {after_t6:?}");
    // Per-run telemetry stays a delta even on a shared backend.
    assert_eq!(stats_t6.cache.misses, 0, "{:?}", stats_t6.cache);
    assert_eq!(stats_t6.cache.hits, after_t6.hits - after_t3.hits);
    assert_eq!(stats_t6.cache.san_misses, after_t3.san_misses);

    // The Fig. 11 replay recompiles found-bug test cases; on the shared
    // backend its lookups keep hitting the campaign's cached stages.
    let registry = DefectRegistry::full();
    let fig11_shared = report::fig11(&stats_t3, &registry, backend.as_ref());
    let after_fig = backend.prefix_cache().expect("sim caches").stats();
    assert!(!stats_t3.bugs.is_empty(), "campaign found bugs to replay");
    assert!(
        after_fig.hits > after_t6.hits,
        "figure replays reuse the cache: {after_fig:?}"
    );
    // And rendering through the shared backend matches the standalone path.
    assert_eq!(fig11_shared, report::fig11(&stats_t3, &registry, &SimBackend::new()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run_campaign` over a config carrying an explicit cached backend matches
/// the default-resolved sequential reference, report text included.
#[test]
fn explicit_backend_sequential_run_matches_default() {
    let cfg = CampaignConfig::builder().seeds(SEEDS).build();
    let reference = run_campaign(&cfg);
    let cached = CampaignConfig { backend: Some(Arc::new(SimBackend::new())), ..cfg.clone() };
    let on_cached = run_campaign(&cached);
    assert_eq!(reference, on_cached);
    assert!(on_cached.cache.hits > 0, "explicit cached backend records telemetry");
    assert_eq!(reference.cache, ubfuzz::SessionStats::default(), "reference stays uncached");
    assert_eq!(report::table3(&reference), report::table3(&on_cached));
    assert_eq!(report::table6(&reference), report::table6(&on_cached));
}

/// A config-carried backend reaches the sequential loop too: `run_campaign`
/// resolves `cfg.backend` before falling back to the uncached default.
#[test]
fn config_carried_backend_is_used_by_run_campaign() {
    let dir = tmp_dir("config-carried");
    let shared: Arc<dyn CompilerBackend> = Arc::new(SimBackend::with_store(&dir));
    let cfg = CampaignConfig::builder().seeds(2).backend(Arc::clone(&shared)).build();
    let stats = run_campaign(&cfg);
    let cache = shared.prefix_cache().expect("sim caches").stats();
    assert!(cache.hits + cache.misses > 0, "sequential loop compiled on the shared backend");
    assert_eq!(stats.cache, cache, "first run's delta is the whole counter");

    // And the parallel runner over the same config shares the same cache.
    let parallel = ubfuzz::ParallelCampaign::new(cfg).with_shards(4).run();
    assert_eq!(stats, parallel);
    assert_eq!(parallel.cache.misses, 0, "warm backend serves every prefix: {:?}", parallel.cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A default campaign on an in-memory backend computes more prefixes than
/// the session's byte ceiling holds, ends with at most the ceiling
/// resident, and reports exactly what the uncached reference does.
#[test]
fn in_memory_session_stays_under_the_byte_ceiling() {
    let backend = Arc::new(SimBackend::new());
    let shared: Arc<dyn CompilerBackend> = backend.clone();
    let cfg = CampaignConfig::builder().seeds(2).backend(shared).build();
    let sink = Arc::new(ubfuzz::obs::MetricsSink::new());
    let _attached = ubfuzz::obs::attach(sink.clone());
    let stats = run_campaign(&cfg);
    assert_eq!(stats, run_campaign(&CampaignConfig::builder().seeds(2).build()));
    let resident = backend.session().resident_bytes();
    assert!(resident > 0, "the campaign cached prefixes");
    assert!(resident <= CompileSession::MAX_RESIDENT_BYTES, "{resident} bytes resident");
    // Each miss adds at most two keys, so the key budget was never
    // reached: the byte ceiling evicted.
    assert!(stats.cache.misses < CompileSession::DEFAULT_CAPACITY as u64 / 2, "{:?}", stats.cache);
    assert!(sink.snapshot().counter("prefix_evictions") > 0, "the ceiling was reached");
}

/// A backend advertising only a subset of toolchains (here: GCC only, so
/// every MSan matrix is empty) must still keep the parallel streaming merge
/// bit-identical to the sequential loop — empty matrices used to stall the
/// group-boundary consumer and silently drop every oracle result.
#[test]
fn partial_toolchain_backend_keeps_parallel_equal_to_sequential() {
    use ubfuzz::backend::{Artifact, CompileRequest, PrefixCache, RunOutcome, RunRequest, ToolchainDesc};
    use ubfuzz_simcc::lower::CompileError;
    use ubfuzz_simcc::session::ProgramFingerprint;

    /// `SimBackend` restricted to its first toolchain (GCC, which ships no
    /// MSan) — the shape a real-toolchain probe produces on a gcc-only box.
    #[derive(Debug, Default)]
    struct GccOnly(SimBackend);

    impl CompilerBackend for GccOnly {
        fn name(&self) -> &str {
            "gcc-only"
        }

        fn toolchains(&self) -> Vec<ToolchainDesc> {
            self.0.toolchains().into_iter().take(1).collect()
        }

        fn fingerprint(&self, program: &ubfuzz::minic::Program) -> ProgramFingerprint {
            self.0.fingerprint(program)
        }

        fn compile(
            &self,
            fp: &ProgramFingerprint,
            program: &ubfuzz::minic::Program,
            req: &CompileRequest<'_>,
        ) -> Result<Artifact, CompileError> {
            self.0.compile(fp, program, req)
        }

        fn execute(&self, artifact: &Artifact, req: &RunRequest) -> RunOutcome {
            self.0.execute(artifact, req)
        }

        fn prefix_cache(&self) -> Option<&dyn PrefixCache> {
            self.0.prefix_cache()
        }
    }

    let backend: Arc<dyn CompilerBackend> = Arc::new(GccOnly::default());
    let cfg = CampaignConfig::builder().seeds(SEEDS).backend(backend).build();
    let sequential = run_campaign(&cfg);
    // UninitUse programs exist and their MSan matrix is empty on GCC.
    assert!(
        sequential.ub_programs.contains_key(&ubfuzz::minic::UbKind::UninitUse),
        "campaign generates MSan-only programs: {:?}",
        sequential.ub_programs
    );
    for workers in [1usize, 4] {
        let parallel = ubfuzz::ParallelCampaign::new(cfg.clone()).with_shards(workers).run();
        assert_eq!(sequential, parallel, "{workers}-worker merge diverges on empty matrices");
        assert!(parallel.discrepancies > 0 || !parallel.bugs.is_empty() || parallel.selected > 0
            || parallel.total_programs() > 0,
            "campaign did real work");
    }
}

/// The coverage experiment renders identically through a shared backend
/// (coverage points never live in the cached prefix).
#[test]
fn coverage_experiment_is_backend_share_invariant() {
    let fresh = report::coverage_experiment(&SimBackend::new(), 2);
    let backend = Arc::new(SimBackend::new());
    // Warm the backend with an unrelated campaign first.
    let _ = run_campaign(&CampaignConfig::builder().seeds(1).backend(backend.clone()).build());
    let shared = report::coverage_experiment(backend.as_ref(), 2);
    assert_eq!(fresh, shared);
}
