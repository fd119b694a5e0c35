//! The pluggable-oracle seam: trace-based arbitration of module-less
//! artifacts, drop-reason telemetry, and ablation-by-stack-selection.
//!
//! The headline regression here is the one the API redesign exists for: a
//! backend whose artifacts expose no module (the shape of every real
//! toolchain) used to have its discrepancies *silently dropped* — counted,
//! never arbitrated. With `CompilerBackend::trace` the oracle arbitrates
//! them and files `SanitizerBug` verdicts under the "unknown" attribution
//! key. `campaign_over_opaque_artifacts_files_trace_derived_bugs` fails on
//! the old API (selected was always 0 there).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use ubfuzz::backend::{
    Artifact, CompileRequest, CompilerBackend, OpaqueArtifact, PrefixCache, RunOutcome,
    RunRequest, SimBackend, SiteTrace, ToolchainDesc, TraceCapability,
};
use ubfuzz::campaign::CampaignConfig;
use ubfuzz::oracle::DropReason;
use ubfuzz::{report, run_campaign, OracleStack, ParallelCampaign};
use ubfuzz_simcc::lower::CompileError;
use ubfuzz_simcc::session::ProgramFingerprint;
use ubfuzz_simcc::Module;
use ubfuzz_simvm::{run_module, run_traced, RunResult};

/// How much of the trace seam a test double exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DoubleTrace {
    /// Full simulated-VM tracing (the trace-capable native backend shape).
    Site,
    /// Claims line capability but every trace attempt fails (a probed
    /// debugger that cannot actually step — the `no-trace` drop path).
    Broken,
    /// No tracing at all (the pre-redesign `CcBackend` shape — the
    /// `no-module` drop path).
    None,
}

/// `SimBackend` behind opaque artifacts: compiles via the simulated
/// pipeline but hands out tokens instead of modules, so the oracle can see
/// exactly what a real-toolchain campaign sees — plus a trace capability
/// knob to exercise every arbitration path.
#[derive(Debug)]
struct OpaqueSim {
    inner: SimBackend,
    trace: DoubleTrace,
    tokens: AtomicU64,
    modules: Mutex<BTreeMap<u64, Module>>,
}

impl OpaqueSim {
    fn new(trace: DoubleTrace) -> OpaqueSim {
        OpaqueSim {
            inner: SimBackend::new(),
            trace,
            tokens: AtomicU64::new(0),
            modules: Mutex::new(BTreeMap::new()),
        }
    }

    fn module_of(&self, artifact: &Artifact) -> Option<Module> {
        let Artifact::Opaque(o) = artifact else { return None };
        self.modules.lock().unwrap().get(&o.token).cloned()
    }
}

impl CompilerBackend for OpaqueSim {
    fn name(&self) -> &str {
        "opaque-sim"
    }

    fn toolchains(&self) -> Vec<ToolchainDesc> {
        self.inner.toolchains()
    }

    fn fingerprint(&self, program: &ubfuzz::minic::Program) -> ProgramFingerprint {
        self.inner.fingerprint(program)
    }

    fn compile(
        &self,
        fp: &ProgramFingerprint,
        program: &ubfuzz::minic::Program,
        req: &CompileRequest<'_>,
    ) -> Result<Artifact, CompileError> {
        let artifact = self.inner.compile(fp, program, req)?;
        let Artifact::Sim(module) = artifact else { unreachable!("sim compiles to modules") };
        let token = self.tokens.fetch_add(1, Ordering::Relaxed);
        let opaque = OpaqueArtifact { token, compiler: req.compiler, sanitizer: req.sanitizer };
        self.modules.lock().unwrap().insert(token, module);
        Ok(Artifact::Opaque(opaque))
    }

    fn execute(&self, artifact: &Artifact, _req: &RunRequest) -> RunOutcome {
        match self.module_of(artifact) {
            Some(m) => run_module(&m),
            None => RunResult::Error("unknown opaque token".into()),
        }
    }

    fn trace_capability(&self) -> TraceCapability {
        match self.trace {
            DoubleTrace::Site => TraceCapability::Site,
            DoubleTrace::Broken => TraceCapability::Line,
            DoubleTrace::None => TraceCapability::None,
        }
    }

    fn trace(&self, artifact: &Artifact, _req: &RunRequest) -> Option<SiteTrace> {
        match self.trace {
            DoubleTrace::Site => {
                let m = self.module_of(artifact)?;
                let (_, trace) = run_traced(&m);
                Some(SiteTrace::from_vm(trace))
            }
            DoubleTrace::Broken | DoubleTrace::None => None,
        }
    }

    fn prefix_cache(&self) -> Option<&dyn PrefixCache> {
        self.inner.prefix_cache()
    }
}

const SEEDS: usize = 3;

fn campaign_config(backend: Arc<dyn CompilerBackend>) -> CampaignConfig {
    CampaignConfig::builder().seeds(SEEDS).backend(backend).build()
}

/// The acceptance regression: module-less discrepancies are arbitrated via
/// the trace path — verdicts filed (or rejected) exactly as over modules —
/// and the result is bit-identical between the sequential loop and the
/// parallel executor at 1 and 4 workers.
#[test]
fn campaign_over_opaque_artifacts_files_trace_derived_bugs() {
    // Reference: the same campaign over module-carrying artifacts.
    let sim = run_campaign(&campaign_config(Arc::new(SimBackend::new())));
    assert!(sim.selected > 0, "reference campaign selects bugs: {sim:?}");

    let cfg = campaign_config(Arc::new(OpaqueSim::new(DoubleTrace::Site)));
    let opaque = run_campaign(&cfg);
    // Trace-based arbitration reproduces the module path's triage exactly…
    assert_eq!(opaque.discrepancies, sim.discrepancies);
    assert_eq!(
        opaque.selected, sim.selected,
        "module-less discrepancies used to be dropped (selected == 0); the trace path \
         must arbitrate them identically to the module path"
    );
    assert_eq!(opaque.dropped, sim.dropped);
    // …and the verdicts file as bugs under the "unknown" attribution key
    // (no module ⇒ nothing to attribute to), not as silence.
    assert!(!opaque.bugs.is_empty());
    assert!(
        opaque.bugs.iter().all(|b| b.defect_id.is_none()),
        "opaque artifacts cannot attribute to injected defects"
    );
    assert!(
        opaque.bugs.iter().any(|b| !b.invalid && !b.wrong_report),
        "trace-derived FN verdicts are filed: {:?}",
        opaque.bugs.iter().map(|b| (b.vendor, b.sanitizer, b.kind)).collect::<Vec<_>>()
    );
    for bug in &opaque.bugs {
        assert!(bug.corpus_key().starts_with("unknown:") || bug.wrong_report || bug.invalid);
    }
    // Every drop that did happen was arbitrated, not a trace failure.
    assert_eq!(opaque.oracle.unarbitrated(), 0, "{:?}", opaque.oracle);

    // Sequential ≡ parallel at 1 and 4 workers over the same shared double.
    for workers in [1usize, 4] {
        let parallel = ParallelCampaign::new(cfg.clone()).with_shards(workers).run();
        assert_eq!(opaque, parallel, "{workers}-worker run diverges on opaque artifacts");
    }
}

/// Drop accounting separates "arbitrated away" from "could not arbitrate",
/// per sanitizer, and `oracle_stats` renders the breakdown only when
/// something was unarbitrated.
#[test]
fn drop_reasons_distinguish_no_module_from_no_trace() {
    // Trace-capable double: all drops are arbitrated optimization
    // artifacts; the stats line keeps its pre-redesign byte format.
    let arbitrated = run_campaign(&campaign_config(Arc::new(OpaqueSim::new(DoubleTrace::Site))));
    assert_eq!(arbitrated.oracle.unarbitrated(), 0);
    let text = report::oracle_stats(&arbitrated);
    assert!(!text.contains("dropped["), "no breakdown without unarbitrated drops: {text}");

    // No trace capability at all: the pre-redesign conservative drop,
    // now accounted as `no-module` instead of silently folded in.
    let no_module = run_campaign(&campaign_config(Arc::new(OpaqueSim::new(DoubleTrace::None))));
    assert_eq!(no_module.selected, 0, "nothing can be arbitrated");
    assert_eq!(no_module.dropped, no_module.discrepancies);
    assert!(no_module.discrepancies > 0);
    assert_eq!(no_module.oracle.dropped_for(DropReason::NoModule), no_module.dropped);
    assert_eq!(no_module.oracle.dropped_for(DropReason::NoTrace), 0);
    let text = report::oracle_stats(&no_module);
    assert!(text.contains("no-module="), "breakdown renders: {text}");

    // Claimed-but-broken tracing: same outcomes, but accounted as
    // `no-trace` so a real-toolchain operator can tell a missing debugger
    // from a missing module.
    let no_trace = run_campaign(&campaign_config(Arc::new(OpaqueSim::new(DoubleTrace::Broken))));
    assert_eq!(no_trace.selected, 0);
    assert_eq!(no_trace.oracle.dropped_for(DropReason::NoTrace), no_trace.dropped);
    assert_eq!(no_trace.oracle.dropped_for(DropReason::NoModule), 0);
    // Reason buckets are execution metadata: results still compare equal.
    assert_eq!(no_module, no_trace);
}

/// The ablation is stack selection: the naive stack files every
/// discrepancy the standard stack triages.
#[test]
fn naive_stack_selection_matches_discrepancies() {
    let backend: Arc<dyn CompilerBackend> = Arc::new(SimBackend::new());
    let standard = run_campaign(&campaign_config(Arc::clone(&backend)));
    let naive = run_campaign(
        &CampaignConfig::builder()
            .seeds(SEEDS)
            .backend(Arc::clone(&backend))
            .oracle(Arc::new(OracleStack::naive()))
            .build(),
    );
    assert_eq!(naive.discrepancies, standard.discrepancies, "discrepancy counting is stack-independent");
    assert_eq!(naive.selected, naive.discrepancies, "naive files everything");
    assert_eq!(naive.dropped, 0);
    assert!(
        standard.selected <= naive.selected,
        "mapping can only triage down: {} vs {}",
        standard.selected,
        naive.selected
    );

    // An explicitly configured standard stack is the default.
    let explicit = run_campaign(
        &CampaignConfig::builder()
            .seeds(SEEDS)
            .backend(Arc::clone(&backend))
            .oracle(Arc::new(OracleStack::standard()))
            .build(),
    );
    assert_eq!(explicit, standard, "explicit standard stack ≡ default");
    assert_eq!(report::table3(&explicit), report::table3(&standard));
}

/// A checkpoint holds group verdicts, not compiled modules, so a campaign
/// over a module-less backend is resumable: its rerun over the same store
/// compiles nothing and renders the same report.
#[test]
fn checkpointed_opaque_campaign_reruns_with_zero_compiles() {
    let dir = std::env::temp_dir().join(format!("ubfuzz-opaque-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpointed = |backend: &Arc<OpaqueSim>| {
        ParallelCampaign::new(campaign_config(backend.clone()))
            .with_shards(2)
            .with_checkpoint(&dir)
            .run()
    };
    let first_backend = Arc::new(OpaqueSim::new(DoubleTrace::Site));
    let first = checkpointed(&first_backend);
    assert!(first_backend.tokens.load(Ordering::Relaxed) > 0, "the first run compiles");
    assert!(first.selected > 0, "trace-arbitrated verdicts are checkpointed: {first:?}");
    assert_eq!(first, run_campaign(&campaign_config(Arc::new(OpaqueSim::new(DoubleTrace::Site)))));

    let rerun_backend = Arc::new(OpaqueSim::new(DoubleTrace::Site));
    let rerun = checkpointed(&rerun_backend);
    assert_eq!(rerun_backend.tokens.load(Ordering::Relaxed), 0, "the rerun compiles nothing");
    assert_eq!(rerun, first);
    assert_eq!(rerun.oracle, first.oracle);
    assert_eq!(
        format!("{}{}", report::table3(&rerun), report::oracle_stats(&rerun)),
        format!("{}{}", report::table3(&first), report::oracle_stats(&first))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
