//! Criterion benchmarks: one group per pipeline stage and per paper
//! table/figure regeneration, at reduced sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use ubfuzz::campaign::{run_campaign, CampaignConfig, GeneratorChoice, ParallelCampaign};
use ubfuzz::report;
use ubfuzz_detectors::campaign::{
    run_memcheck_campaign, run_static_campaign, DetectorCampaignConfig,
};
use ubfuzz_detectors::memcheck::{self, MemcheckConfig};
use ubfuzz_detectors::staticcheck::{analyze, StaticConfig};
use ubfuzz_backend::{Artifact, RunRequest, SimBackend};
use ubfuzz_minic::{pretty, UbKind};
use ubfuzz_oracle::{
    arbitrate, trace_artifact, CompiledCell, CrashOracle, OracleInput, OracleStack,
};
use ubfuzz_seedgen::{generate_seed, SeedOptions};
use ubfuzz_simcc::defects::DefectRegistry;
use ubfuzz_simcc::pipeline::{compile, CompileConfig};
use ubfuzz_simcc::target::{OptLevel, Vendor};
use ubfuzz_simcc::Sanitizer;
use ubfuzz_simvm::run_module;
use ubfuzz_ubgen::{generate, generate_all, GenOptions};

fn bench_pipeline(c: &mut Criterion) {
    let opts = SeedOptions::default();
    let registry = DefectRegistry::full();
    let seed = generate_seed(3, &opts);
    c.bench_function("seedgen/generate_seed", |b| {
        b.iter(|| generate_seed(criterion::black_box(3), &opts))
    });
    c.bench_function("ubgen/generate_all", |b| {
        b.iter(|| generate_all(&seed, &GenOptions::default()))
    });
    c.bench_function("minic/print_parse_roundtrip", |b| {
        b.iter(|| ubfuzz_minic::parse(&pretty::print(&seed)).unwrap())
    });
    for opt in [OptLevel::O0, OptLevel::O2] {
        c.bench_function(&format!("simcc/compile_asan_{}", opt.name().trim_start_matches('-')), |b| {
            let cfg = CompileConfig::dev(Vendor::Gcc, opt, Some(Sanitizer::Asan), &registry);
            b.iter(|| compile(&seed, &cfg).unwrap())
        });
    }
    let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &registry);
    let module = compile(&seed, &cfg).unwrap();
    c.bench_function("simvm/run_module", |b| b.iter(|| run_module(&module)));
    // Crash-site mapping on a Fig. 1-shaped discrepancy: once through the
    // pair-level primitives (trace + arbitrate), once through the full
    // trait-dispatched oracle stack over assembled cells — the delta is
    // the cost of the pluggable-oracle seam itself.
    let ub = generate_all(&seed, &GenOptions::default());
    if let Some(u) = ub.first() {
        let bc = compile(
            &u.program,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Asan), &registry),
        )
        .unwrap();
        let bn = compile(
            &u.program,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &registry),
        )
        .unwrap();
        let backend = SimBackend::uncached();
        let req = RunRequest::default();
        let cells = [
            CompiledCell {
                compiler: ubfuzz_simcc::target::CompilerId::dev(Vendor::Gcc),
                opt: OptLevel::O0,
                outcome: run_module(&bc),
                artifact: Artifact::Sim(bc),
            },
            CompiledCell {
                compiler: ubfuzz_simcc::target::CompilerId::dev(Vendor::Gcc),
                opt: OptLevel::O2,
                outcome: run_module(&bn),
                artifact: Artifact::Sim(bn),
            },
        ];
        c.bench_function("oracle/crash_site_mapping", |b| {
            b.iter(|| {
                let tc = trace_artifact(&backend, &cells[0].artifact, &req).unwrap();
                let tn = trace_artifact(&backend, &cells[1].artifact, &req).unwrap();
                arbitrate(&tc, tc.last(), &tn)
            })
        });
        let stack = OracleStack::standard();
        let input =
            OracleInput { sanitizer: Sanitizer::Asan, ub_kind: u.kind, ub_loc: u.ub_loc };
        let stack_dyn: &dyn CrashOracle = &stack;
        c.bench_function("oracle/trait_dispatch", |b| {
            b.iter(|| stack_dyn.judge(&backend, input, criterion::black_box(&cells)))
        });
    }
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    // Table 1: one shadow-statement synthesizer per UB kind (matching +
    // profiling + synthesis + interpreter validation on one seed).
    let seed = generate_seed(7, &SeedOptions::default());
    for kind in UbKind::GENERATABLE {
        g.bench_function(format!("table1_synthesis/{kind}"), |b| {
            b.iter(|| generate(&seed, kind, &GenOptions::default()))
        });
    }
    g.bench_function("table2_support_matrix", |b| b.iter(report::table2));
    g.bench_function("table3_campaign_2seeds", |b| {
        b.iter(|| {
            let stats = run_campaign(&CampaignConfig::builder().seeds(2).build());
            report::table3(&stats)
        })
    });
    g.bench_function("table4_generators_2seeds", |b| {
        b.iter(|| report::table4(&report::generator_comparison(2)))
    });
    g.bench_function("table5_coverage_2seeds", |b| {
        b.iter(|| report::coverage_experiment(&SimBackend::new(), 2))
    });
    g.bench_function("table6_categories_2seeds", |b| {
        b.iter(|| {
            let stats = run_campaign(&CampaignConfig::builder().seeds(2).build());
            report::table6(&stats)
        })
    });
    // §4.3: the baseline generators driving the same campaign.
    for (name, generator) in
        [("music", GeneratorChoice::Music), ("csmith_nosafe", GeneratorChoice::CsmithNoSafe)]
    {
        g.bench_function(format!("generator_campaign_2seeds/{name}"), |b| {
            b.iter(|| {
                let cfg = CampaignConfig::builder().seeds(2).generator(generator).build();
                ParallelCampaign::new(cfg).run()
            })
        });
    }
    // §4.4: discrepancy triage statistics (selected vs. dropped).
    g.bench_function("oracle_precision_2seeds", |b| {
        b.iter(|| {
            let stats = run_campaign(&CampaignConfig::builder().seeds(2).build());
            report::oracle_stats(&stats)
        })
    });
    g.finish();
}

// The Fig. 1 / Fig. 3 / Fig. 8 programs (see the correspondingly named
// examples for the annotated walkthroughs).
const FIG1: &str = "
struct a { int x; };
struct a b[2];
struct a *c = b;
struct a *d = b;
int k = 0;
int main(void) {
    c->x = b[0].x;
    k = 2;
    c->x = (d + k)->x;
    return c->x;
}";

const FIG3: &str = "
int g;
int main(void) {
    int d[2];
    int i = 2;
    d[i] = 1;
    g = 7;
    print_value(g);
    return 0;
}";

const FIG8: &str = "
int a;
int b;
int main(void) {
    int *s = &a;
    for (b = 0; b <= 3; b = b + 1) {
        int i = *s;
        s = &i;
    }
    *s = b;
    return 0;
}";

/// Compile + run + judge one two-level ASan discrepancy end to end through
/// the standard oracle stack.
fn triage(src: &str, bn_level: OptLevel, registry: &DefectRegistry) {
    let p = ubfuzz_minic::parse(src).expect("parses");
    let dev = ubfuzz_simcc::target::CompilerId::dev(Vendor::Gcc);
    let cells: Vec<CompiledCell> = [(OptLevel::O0, dev), (bn_level, dev)]
        .into_iter()
        .map(|(opt, compiler)| {
            let m = compile(
                &p,
                &CompileConfig::dev(Vendor::Gcc, opt, Some(Sanitizer::Asan), registry),
            )
            .unwrap();
            CompiledCell { compiler, opt, outcome: run_module(&m), artifact: Artifact::Sim(m) }
        })
        .collect();
    let ub = ubfuzz_interp::run_program(&p).ub().map(|e| e.loc).unwrap_or_default();
    let backend = SimBackend::uncached();
    let input = OracleInput {
        sanitizer: Sanitizer::Asan,
        ub_kind: UbKind::BufOverflowArray,
        ub_loc: ub,
    };
    criterion::black_box(OracleStack::standard().judge(&backend, input, &cells));
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    let registry = DefectRegistry::full();
    let stats = run_campaign(&CampaignConfig::builder().seeds(3).build());
    g.bench_function("fig1_headline_bug_triage", |b| {
        b.iter(|| triage(FIG1, OptLevel::O2, &registry))
    });
    g.bench_function("fig3_optimization_artifact_triage", |b| {
        b.iter(|| triage(FIG3, OptLevel::O2, &registry))
    });
    g.bench_function("fig8_invalid_report_triage", |b| {
        b.iter(|| triage(FIG8, OptLevel::O3, &registry))
    });
    g.bench_function("fig7_bugs_per_kind", |b| b.iter(|| report::fig7(&stats)));
    g.bench_function("fig9_tracker_history", |b| b.iter(report::fig9));
    g.bench_function("fig10_affected_versions", |b| {
        b.iter(|| report::fig10(&stats, &registry, &SimBackend::new()))
    });
    g.bench_function("fig11_affected_levels", |b| {
        b.iter(|| report::fig11(&stats, &registry, &SimBackend::new()))
    });
    g.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let mut g = c.benchmark_group("detectors");
    // One Memcheck run over an uninstrumented use-after-free binary.
    let p = ubfuzz_minic::parse(
        "int main(void) { int *p = (int*)malloc(8); *p = 1; free(p); return *p; }",
    )
    .expect("parses");
    let reg = DefectRegistry::pristine();
    let module =
        compile(&p, &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, None, &reg)).unwrap();
    let mc_cfg = MemcheckConfig::default();
    g.bench_function("memcheck_run_uaf", |b| b.iter(|| memcheck::run(&module, &mc_cfg)));
    // One static analysis of a seed program.
    let seed = generate_seed(7, &SeedOptions::default());
    let st_cfg = StaticConfig::default();
    g.bench_function("static_analyze_seed", |b| b.iter(|| analyze(&seed, &st_cfg)));
    // The §4.7 campaigns at 2 seeds.
    let cfg = DetectorCampaignConfig { seeds: 2, ..Default::default() };
    g.bench_function("memcheck_campaign_2seeds", |b| b.iter(|| run_memcheck_campaign(&cfg)));
    g.bench_function("static_campaign_2seeds", |b| b.iter(|| run_static_campaign(&cfg)));
    g.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! { name = pipeline; config = fast(); targets = bench_pipeline }
criterion_group! { name = tables; config = fast(); targets = bench_tables }
criterion_group! { name = figures; config = fast(); targets = bench_figures }
criterion_group! { name = detectors; config = fast(); targets = bench_detectors }
criterion_main!(pipeline, tables, figures, detectors);
