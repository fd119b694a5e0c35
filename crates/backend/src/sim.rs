//! The default backend: the simulated multi-vendor toolchains of
//! [`ubfuzz_simcc`] executed on the [`ubfuzz_simvm`] VM.
//!
//! This is the defect-injected world the whole reproduction is measured in.
//! The backend is a thin adapter over [`CompileSession`] — campaign output
//! through it is bit-identical to calling the pipeline directly, cached or
//! not, because the session memoizes a deterministic prefix.

use crate::{
    vendor_sanitizers, Artifact, CompileRequest, CompilerBackend, PrefixCache, RunOutcome,
    RunRequest, ToolchainDesc,
};
use ubfuzz_minic::Program;
use ubfuzz_simcc::lower::CompileError;
use ubfuzz_simcc::session::{CompileSession, ProgramFingerprint};
use ubfuzz_simcc::target::{CompilerId, Vendor};
use ubfuzz_simvm::{run_with_config, RunResult, VmConfig};

/// The simulated-toolchain backend, wrapping a [`CompileSession`].
///
/// [`SimBackend::new`] enables staged-compile caching; [`SimBackend::uncached`]
/// degrades every compile to the single-shot pipeline (what cache-ablation
/// comparisons and the sequential reference loop use). Either way the
/// session is `Sync`, so one backend instance can serve every worker of a
/// parallel campaign. The session's memory holds at most a byte ceiling of
/// prefixes and no sanitized modules, so reuse across campaigns (e.g.
/// `make_tables` entry points sharing compiled cells) comes from a store
/// ([`SimBackend::with_store`]).
#[derive(Debug, Default)]
pub struct SimBackend {
    session: CompileSession,
    /// The on-disk prefix table when this backend persists across
    /// invocations ([`SimBackend::with_store`]).
    store: Option<std::sync::Arc<ubfuzz_store::PrefixStore>>,
}

impl SimBackend {
    /// A backend with the staged-compile cache enabled.
    pub fn new() -> SimBackend {
        SimBackend { session: CompileSession::new(), store: None }
    }

    /// A backend whose every compile runs the full pipeline (no cache, no
    /// telemetry).
    pub fn uncached() -> SimBackend {
        SimBackend { session: CompileSession::disabled(), store: None }
    }

    /// A backend over an explicitly configured session (e.g. a bounded
    /// capacity).
    pub fn with_session(session: CompileSession) -> SimBackend {
        SimBackend { session, store: None }
    }

    /// A backend whose prefix cache persists in the store directory `dir`
    /// (cross-invocation cache persistence, step 2): prefixes persisted by
    /// previous invocations are fetched on demand, and every fresh miss is
    /// flushed back. The default session capacity applies; campaign-scale
    /// callers should size it with [`SimBackend::with_store_capacity`].
    ///
    /// Opening never fails — a corrupt, version-skewed or unwritable store
    /// degrades to a cold in-memory session, observable through
    /// [`SimBackend::prefix_store`] telemetry.
    pub fn with_store(dir: impl AsRef<std::path::Path>) -> SimBackend {
        SimBackend::with_store_capacity(dir, CompileSession::DEFAULT_CAPACITY)
    }

    /// [`SimBackend::with_store`] with an explicit key budget for the
    /// session's in-memory prefix memo (use
    /// `CampaignConfig::prefix_key_bound()` for campaign-scale runs). The
    /// budget, like the session's byte ceiling, bounds only what this
    /// process computes: the prefix table opens as an index of every
    /// record, and a lookup that misses in memory fetches and decodes its
    /// one record, so a store of any size warm-starts with zero misses and
    /// open cost is one checksum scan.
    pub fn with_store_capacity(
        dir: impl AsRef<std::path::Path>,
        capacity: usize,
    ) -> SimBackend {
        let store = std::sync::Arc::new(ubfuzz_store::PrefixStore::open(dir));
        SimBackend {
            session: CompileSession::with_backing(capacity, store.clone()),
            store: Some(store),
        }
    }

    /// The underlying compile session.
    pub fn session(&self) -> &CompileSession {
        &self.session
    }

    /// The persistent prefix table, when this backend was opened over a
    /// store ([`SimBackend::with_store`]).
    pub fn prefix_store(&self) -> Option<&ubfuzz_store::PrefixStore> {
        self.store.as_deref()
    }

    /// The empty [`ubfuzz_store::SanitizedStore`] marker whenever a store
    /// is attached. Kept only because the benchmark harness (`ubbench`)
    /// still reads it; it goes with the next change to the benchmark.
    pub fn sanitized_store(&self) -> Option<&ubfuzz_store::SanitizedStore> {
        self.store.as_ref().map(|_| &ubfuzz_store::SanitizedStore)
    }
}

impl CompilerBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn toolchains(&self) -> Vec<ToolchainDesc> {
        Vendor::ALL
            .into_iter()
            .map(|vendor| {
                let id = CompilerId::dev(vendor);
                ToolchainDesc {
                    id,
                    label: format!("{id} (simulated)"),
                    sanitizers: vendor_sanitizers(vendor),
                }
            })
            .collect()
    }

    fn fingerprint(&self, program: &Program) -> ProgramFingerprint {
        self.session.fingerprint_for(program)
    }

    fn compile(
        &self,
        fp: &ProgramFingerprint,
        program: &Program,
        req: &CompileRequest<'_>,
    ) -> Result<Artifact, CompileError> {
        self.session.compile_fp(fp, program, &req.to_compile_config()).map(Artifact::Sim)
    }

    fn execute(&self, artifact: &Artifact, req: &RunRequest) -> RunOutcome {
        match artifact {
            Artifact::Sim(m) => {
                run_with_config(m, &VmConfig { step_limit: req.step_limit, trace: false }).0
            }
            Artifact::Native(n) => RunResult::Error(format!(
                "SimBackend cannot execute native artifact {}",
                n.binary.display()
            )),
            Artifact::Opaque(o) => RunResult::Error(format!(
                "SimBackend cannot execute foreign opaque artifact {}",
                o.token
            )),
        }
    }

    // `trace_capability`/`trace` are the trait defaults: exact `Site`
    // traces of module-carrying artifacts via the VM tracer — the same
    // `run_traced` the standalone oracle has always used, so trace-based
    // crash-site mapping over this backend is bit-identical to the
    // module-level path (pinned by `trace_matches_run_traced` below).

    fn prefix_cache(&self) -> Option<&dyn PrefixCache> {
        Some(&self.session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::Sanitizer;
    use ubfuzz_simcc::defects::DefectRegistry;
    use ubfuzz_simcc::pipeline::{compile, CompileConfig};
    use ubfuzz_simcc::SanPolicy;
    use ubfuzz_simcc::target::OptLevel;
    use ubfuzz_simvm::run_module;

    fn program() -> Program {
        parse("int g[4]; int main(void) { int i = 1; g[i] = 3; return g[i] + g[0]; }").unwrap()
    }

    #[test]
    fn toolchains_are_the_dev_heads_with_the_paper_support_matrix() {
        let backend = SimBackend::new();
        let tc = backend.toolchains();
        assert_eq!(tc.len(), 2);
        assert_eq!(tc[0].id, CompilerId::dev(Vendor::Gcc));
        assert_eq!(tc[1].id, CompilerId::dev(Vendor::Llvm));
        assert!(!tc[0].supports(Sanitizer::Msan), "GCC ships no MSan");
        assert!(tc[1].supports(Sanitizer::Msan));
        for t in &tc {
            assert!(t.supports(Sanitizer::Asan) && t.supports(Sanitizer::Ubsan));
        }
    }

    #[test]
    fn compile_and_execute_match_the_direct_pipeline() {
        let p = program();
        let registry = DefectRegistry::full();
        let backend = SimBackend::new();
        let fp = backend.fingerprint(&p);
        for vendor in Vendor::ALL {
            for opt in OptLevel::ALL {
                for sanitizer in [None, Some(Sanitizer::Asan), Some(Sanitizer::Msan)] {
                    let req = CompileRequest {
                        compiler: CompilerId::dev(vendor),
                        opt,
                        sanitizer,
                        registry: &registry,
                        san_policy: SanPolicy::Full,
                    };
                    let direct = compile(
                        &p,
                        &CompileConfig {
                            compiler: req.compiler,
                            opt,
                            sanitizer,
                            registry: &registry,
                            san_policy: SanPolicy::Full,
                        },
                    );
                    match (direct, backend.compile(&fp, &p, &req)) {
                        (Ok(m), Ok(a)) => {
                            assert_eq!(Some(&m), a.module(), "{vendor} {opt} {sanitizer:?}");
                            assert_eq!(
                                run_module(&m),
                                backend.execute(&a, &RunRequest::default()),
                                "{vendor} {opt} {sanitizer:?}"
                            );
                        }
                        (Err(_), Err(_)) => {}
                        (d, b) => panic!("outcome mismatch: {d:?} vs {b:?}"),
                    }
                }
            }
        }
        let stats = backend.prefix_cache().expect("sim caches").stats();
        assert!(stats.hits > 0, "matrix shares prefixes: {stats:?}");
    }

    #[test]
    fn uncached_backend_reports_a_disabled_cache() {
        let backend = SimBackend::uncached();
        let cache = backend.prefix_cache().expect("capability still exposed");
        assert!(!cache.enabled());
        let p = program();
        let registry = DefectRegistry::full();
        let req = CompileRequest {
            compiler: CompilerId::dev(Vendor::Llvm),
            opt: OptLevel::O2,
            sanitizer: Some(Sanitizer::Asan),
            registry: &registry,
            san_policy: SanPolicy::Full,
        };
        let a = backend.compile_program(&p, &req).unwrap();
        assert!(a.module().is_some());
        assert_eq!(cache.stats(), Default::default(), "pass-through records nothing");
    }

    #[test]
    fn store_backed_backend_is_warm_on_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "ubfuzz-simbackend-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let p = program();
        let registry = DefectRegistry::full();
        let req = CompileRequest {
            compiler: CompilerId::dev(Vendor::Llvm),
            opt: OptLevel::O2,
            sanitizer: Some(Sanitizer::Ubsan),
            registry: &registry,
            san_policy: SanPolicy::Full,
        };

        let cold = SimBackend::with_store(&dir);
        let out_cold = cold.compile_program(&p, &req).unwrap();
        assert_eq!(cold.session().stats().misses, 1);
        // The -O2 prefix and the Lowered entry it started from.
        assert_eq!(cold.prefix_store().expect("store attached").telemetry().persisted(), 2);
        drop(cold);
        assert!(!dir.join("sanitized.bin").exists(), "sanitized modules are not stored");

        let warm = SimBackend::with_store(&dir);
        let prefix = warm.prefix_store().expect("store attached");
        assert_eq!(prefix.telemetry().loaded(), 2, "reopen indexes the persisted prefixes");
        let marker = warm.sanitized_store().expect("marker while a store is attached");
        assert_eq!((marker.size_bytes(), marker.telemetry().loaded()), (0, 0));
        let out_warm = warm.compile_program(&p, &req).unwrap();
        assert_eq!(out_cold.module(), out_warm.module(), "store is invisible to outputs");
        // The prefix is fetched; the sanitizer pass runs over it.
        assert_eq!(warm.session().stats(), ubfuzz_simcc::session::SessionStats {
            hits: 1,
            misses: 0,
            san_hits: 0,
            san_misses: 1
        });
        assert!(SimBackend::new().sanitized_store().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_matches_run_traced() {
        let p = parse("int a[4]; int i = 9;\nint main(void) {\n    a[i] = 1;\n    return 0;\n}")
            .unwrap();
        let registry = DefectRegistry::pristine();
        let backend = SimBackend::new();
        assert_eq!(backend.trace_capability(), crate::TraceCapability::Site);
        let req = CompileRequest {
            compiler: CompilerId::dev(Vendor::Gcc),
            opt: OptLevel::O0,
            sanitizer: Some(Sanitizer::Asan),
            registry: &registry,
            san_policy: SanPolicy::Full,
        };
        let artifact = backend.compile_program(&p, &req).unwrap();
        let trace = backend.trace(&artifact, &RunRequest::default()).expect("sim traces");
        let (r, reference) = ubfuzz_simvm::run_traced(artifact.module().unwrap());
        assert!(r.is_report());
        assert_eq!(trace.last(), reference.last);
        assert!(!trace.line_granular());
        for loc in &reference.executed {
            assert!(trace.contains_site(*loc));
        }
    }

    #[test]
    fn execute_rejects_foreign_artifacts() {
        let backend = SimBackend::new();
        let native = Artifact::Native(crate::NativeArtifact {
            binary: std::path::PathBuf::from("/nonexistent/ubfuzz-test-bin"),
            compiler: CompilerId::dev(Vendor::Gcc),
            sanitizer: None,
        });
        assert!(matches!(
            backend.execute(&native, &RunRequest::default()),
            RunResult::Error(_)
        ));
    }
}
