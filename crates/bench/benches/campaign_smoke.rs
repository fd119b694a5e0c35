//! Smoke benchmark: sequential vs. unit-executor campaign throughput, with
//! the staged-compile cache on and off, plus a cold-vs-warm persistent-store
//! comparison.
//!
//! Run with `cargo bench --bench campaign_smoke` to measure, or with
//! `-- --test` (as CI does) to execute each variant once without timing.
//! The parallel variants stream fine-grained `(seed, program, compiler,
//! opt, sanitizer)` units to the in-order oracle consumer, so even
//! campaigns with fewer seeds than workers parallelize; on a 1-core CI box
//! they serialize, which is why the cache variants assert *hit counters*,
//! never wall-clock.
//!
//! After the Criterion pass the bench emits `BENCH_campaign.json` (working
//! directory): units/sec, cache reuse ratio, and cold-store vs warm-store
//! wall time, machine-readable so future PRs can track the trajectory (CI
//! uploads it as an artifact).

use criterion::{criterion_group, Criterion};
use std::fmt::Write as _;
use std::time::Instant;
use ubfuzz::campaign::{run_campaign, CampaignConfig};
use ubfuzz::SimBackend;

const SEEDS: usize = 8;

fn config() -> CampaignConfig {
    CampaignConfig::builder().seeds(SEEDS).build()
}

fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.bench_function(format!("sequential_{SEEDS}seeds"), |b| {
        b.iter(|| run_campaign(&config()))
    });
    for shards in [2usize, 4] {
        g.bench_function(format!("sharded{shards}_{SEEDS}seeds"), |b| {
            b.iter(|| {
                let stats = CampaignConfig::builder()
                    .seeds(SEEDS)
                    .workers(shards)
                    .build_runner()
                    .run();
                assert!(
                    stats.cache.hits > 0,
                    "default campaign must reuse compile prefixes: {:?}",
                    stats.cache
                );
                stats
            })
        });
    }
    // Cache ablation at a fixed worker count: identical results, hit
    // counters prove which side actually cached.
    g.bench_function(format!("sharded4_nocache_{SEEDS}seeds"), |b| {
        b.iter(|| {
            let stats = CampaignConfig::builder()
                .seeds(SEEDS)
                .workers(4)
                .cache(false)
                .build_runner()
                .run();
            assert_eq!(stats.cache.hits, 0, "disabled cache must stay cold");
            assert_eq!(stats.cache.misses, 0, "disabled cache records nothing");
            stats
        })
    });
    g.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5))
}

criterion_group! { name = campaign; config = fast(); targets = bench_campaign }

/// One timed campaign over an optional store directory; returns
/// (wall seconds, stats). `explicit_oracle` threads the default stack
/// through `CampaignConfig.oracle` so the dyn-dispatch seam itself is on
/// the measured path.
fn timed_run_with(
    store: Option<&std::path::Path>,
    explicit_oracle: bool,
) -> (f64, ubfuzz::CampaignStats) {
    let mut builder = CampaignConfig::builder().seeds(SEEDS);
    if explicit_oracle {
        builder = builder.oracle(std::sync::Arc::new(ubfuzz::OracleStack::standard()));
    }
    let cfg = builder.build();
    let runner = match store {
        Some(dir) => {
            let backend = std::sync::Arc::new(SimBackend::with_store_capacity(
                dir,
                cfg.prefix_key_bound(),
            ));
            ubfuzz::ParallelCampaign::new(cfg).with_backend(backend).with_shards(4)
        }
        None => ubfuzz::ParallelCampaign::new(cfg).with_shards(4),
    };
    let start = Instant::now();
    let stats = runner.run();
    (start.elapsed().as_secs_f64(), stats)
}

fn timed_run(store: Option<&std::path::Path>) -> (f64, ubfuzz::CampaignStats) {
    timed_run_with(store, false)
}

/// The machine-readable trajectory record: BENCH_campaign.json.
fn emit_bench_json() {
    let dir = std::env::temp_dir().join(format!("ubfuzz-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold_secs, cold) = timed_run(Some(&dir));
    let (warm_secs, warm) = timed_run(Some(&dir));
    // Compact the store down to half its size, then rerun: evicted entries
    // recompile, resident ones still hit, and the results stay identical
    // either way (the budget only trades disk for recompilation).
    let (store_before, store_after) = {
        let prefix = ubfuzz::store::PrefixStore::open(&dir);
        let sanitized = ubfuzz::store::SanitizedStore::open(&dir);
        let before = prefix.size_bytes() + sanitized.size_bytes();
        let frontier = ubfuzz::store::FrontierStore::open(&dir).size_bytes();
        let (ps, ss) = ubfuzz_bench::compact_stores(&prefix, &sanitized, frontier, before / 2);
        (before, ps.after_bytes + ss.after_bytes)
    };
    let (_, compacted) = timed_run(Some(&dir));
    let (nostore_secs, nostore) = timed_run(None);
    let (stacked_secs, stacked) = timed_run_with(None, true);
    let _ = std::fs::remove_dir_all(&dir);
    // Guided leg: a uniform warm-up persists the coverage frontier, then
    // the same evaluation seeds run under both strategies (see
    // `ubfuzz_bench::compare_strategies`). A second comparison over a fresh
    // store must reproduce the guided leg bit-for-bit — guided planning is
    // a pure function of (seed, frontier snapshot).
    let guided_dir =
        std::env::temp_dir().join(format!("ubfuzz-bench-guided-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&guided_dir);
    let cmp = ubfuzz_bench::compare_strategies(SEEDS, SEEDS / 2, &guided_dir);
    let _ = std::fs::remove_dir_all(&guided_dir);
    let cmp2 = ubfuzz_bench::compare_strategies(SEEDS, SEEDS / 2, &guided_dir);
    let _ = std::fs::remove_dir_all(&guided_dir);
    assert_eq!(cmp.guided, cmp2.guided, "guided campaign must be deterministic");
    assert_eq!(
        cmp.guided.frontier_fingerprint, cmp2.guided.frontier_fingerprint,
        "guided frontier must be deterministic"
    );
    let bugs_per_unit_uniform = ubfuzz_bench::StrategyComparison::bugs_per_unit(&cmp.uniform);
    let bugs_per_unit_guided = ubfuzz_bench::StrategyComparison::bugs_per_unit(&cmp.guided);
    // Partial-sanitization legs: the same seeds under full / partial:500 /
    // none over ONE store directory, run twice. The second pass replays the
    // first from the warm store — the sanitized table keys by site-subset
    // fingerprint, so the three policies must never alias each other's
    // cached sanitize results.
    let san_dir = std::env::temp_dir().join(format!("ubfuzz-bench-san-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&san_dir);
    let pol = ubfuzz_bench::compare_policies(SEEDS, &san_dir);
    let pol2 = ubfuzz_bench::compare_policies(SEEDS, &san_dir);
    let _ = std::fs::remove_dir_all(&san_dir);
    assert_eq!(pol.full, pol2.full, "warm store must replay the full-policy leg");
    assert_eq!(
        pol.partial, pol2.partial,
        "warm store must replay partial-policy lookups without cross-subset aliasing"
    );
    assert_eq!(pol.none, pol2.none, "warm store must replay the none-policy leg");
    assert!(
        pol.partial.bugs.len() <= pol.full.bugs.len(),
        "a partial subset's reports are a subset of full instrumentation's"
    );
    assert!(pol.none.bugs.is_empty(), "uninstrumented campaigns cannot report anything");
    assert!(
        pol.none.oracle.expected_miss_total() > 0,
        "every skipped UB site must be accounted as an expected miss"
    );
    assert_eq!(
        pol.full.oracle.expected_miss_total(),
        0,
        "full instrumentation skips nothing"
    );
    assert_eq!(pol.full, nostore, "the full policy default must be result-invisible");
    let bugs_per_unit_partial_full = ubfuzz_bench::StrategyComparison::bugs_per_unit(&pol.full);
    let bugs_per_unit_partial_half =
        ubfuzz_bench::StrategyComparison::bugs_per_unit(&pol.partial);
    let bugs_per_unit_partial_none = ubfuzz_bench::StrategyComparison::bugs_per_unit(&pol.none);
    assert!(
        bugs_per_unit_guided >= bugs_per_unit_uniform,
        "guided must not lower per-unit bug yield: \
         {bugs_per_unit_guided:.4} guided vs {bugs_per_unit_uniform:.4} uniform"
    );
    assert_eq!(cold, warm, "store must be invisible to results");
    assert_eq!(warm.cache.misses, 0, "warm store misses nothing: {:?}", warm.cache);
    assert!(
        warm.cache.san_reuse_ratio() >= 0.9,
        "warm store must replay the sanitize stage: {:?}",
        warm.cache
    );
    assert!(store_after <= store_before / 2, "compaction must respect the byte budget");
    assert_eq!(cold, compacted, "compaction must be invisible to results");
    // The pluggable-oracle seam must be identity-preserving and free:
    // an explicitly configured standard stack (dyn-dispatched per oracle
    // group) matches the implicit default in results, and its units/sec
    // must not regress beyond measurement noise (generous 2× + constant
    // bound — this box may be 1-core and noisy; the json records both
    // numbers for trajectory tracking).
    assert_eq!(nostore, stacked, "explicit oracle stack must not change results");
    assert!(
        stacked_secs <= nostore_secs * 2.0 + 0.5,
        "oracle trait dispatch regressed units/sec beyond noise: \
         {stacked_secs:.3}s stacked vs {nostore_secs:.3}s default"
    );
    // Stage-time profile: the same campaign once more under a metrics
    // sink. Telemetry is an observer — the profiled run must equal the
    // unprofiled one (CampaignStats equality ignores telemetry fields).
    let sink = std::sync::Arc::new(ubfuzz::obs::MetricsSink::new());
    let profiled = CampaignConfig::builder()
        .seeds(SEEDS)
        .workers(4)
        .recorder(sink.clone())
        .build_runner()
        .run();
    assert_eq!(profiled, nostore, "metrics recorder must not change results");
    let profile = sink.snapshot();
    for stage in [
        ubfuzz::obs::Stage::PrefixCompile,
        ubfuzz::obs::Stage::Sanitize,
        ubfuzz::obs::Stage::Run,
        ubfuzz::obs::Stage::Oracle,
    ] {
        assert!(
            profile.stages.contains_key(&stage),
            "profiled campaign must sample the {} stage",
            stage.name()
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seeds\": {},", SEEDS);
    let _ = writeln!(json, "  \"units\": {},", cold.units);
    let _ = writeln!(json, "  \"cold_store_secs\": {cold_secs:.4},");
    let _ = writeln!(json, "  \"warm_store_secs\": {warm_secs:.4},");
    let _ = writeln!(json, "  \"no_store_secs\": {nostore_secs:.4},");
    let _ = writeln!(json, "  \"explicit_oracle_secs\": {stacked_secs:.4},");
    let _ = writeln!(
        json,
        "  \"units_per_sec_explicit_oracle\": {:.2},",
        stacked.units as f64 / stacked_secs.max(1e-9)
    );
    let _ = writeln!(
        json,
        "  \"units_per_sec_cold\": {:.2},",
        cold.units as f64 / cold_secs.max(1e-9)
    );
    let _ = writeln!(
        json,
        "  \"units_per_sec_warm\": {:.2},",
        warm.units as f64 / warm_secs.max(1e-9)
    );
    let _ = writeln!(json, "  \"cache_hits_cold\": {},", cold.cache.hits);
    let _ = writeln!(json, "  \"cache_misses_cold\": {},", cold.cache.misses);
    let _ = writeln!(json, "  \"cache_reuse_ratio_cold\": {:.4},", cold.cache.reuse_ratio());
    let _ = writeln!(json, "  \"cache_reuse_ratio_warm\": {:.4},", warm.cache.reuse_ratio());
    let _ = writeln!(json, "  \"san_reuse_ratio_warm\": {:.4},", warm.cache.san_reuse_ratio());
    let _ = writeln!(json, "  \"store_bytes_before_compaction\": {store_before},");
    let _ = writeln!(json, "  \"store_bytes_after_compaction\": {store_after},");
    let _ = writeln!(json, "  \"bugs_per_unit_uniform\": {bugs_per_unit_uniform:.4},");
    let _ = writeln!(json, "  \"bugs_per_unit_guided\": {bugs_per_unit_guided:.4},");
    let _ = writeln!(json, "  \"bugs_per_unit_partial_full\": {bugs_per_unit_partial_full:.4},");
    let _ = writeln!(json, "  \"bugs_per_unit_partial_half\": {bugs_per_unit_partial_half:.4},");
    let _ = writeln!(json, "  \"bugs_per_unit_partial_none\": {bugs_per_unit_partial_none:.4},");
    let _ = writeln!(
        json,
        "  \"expected_misses_partial_half\": {},",
        pol.partial.oracle.expected_miss_total()
    );
    let _ = writeln!(
        json,
        "  \"expected_misses_partial_none\": {},",
        pol.none.oracle.expected_miss_total()
    );
    let _ = writeln!(json, "  \"frontier_points_covered\": {},", cmp.guided.frontier_points);
    let _ = writeln!(
        json,
        "  \"stage_secs_compile\": {:.6},",
        profile.stage_secs(ubfuzz::obs::Stage::PrefixCompile)
    );
    let _ = writeln!(
        json,
        "  \"stage_secs_sanitize\": {:.6},",
        profile.stage_secs(ubfuzz::obs::Stage::Sanitize)
    );
    let _ =
        writeln!(json, "  \"stage_secs_run\": {:.6},", profile.stage_secs(ubfuzz::obs::Stage::Run));
    let _ = writeln!(
        json,
        "  \"stage_secs_oracle\": {:.6}",
        profile.stage_secs(ubfuzz::obs::Stage::Oracle)
    );
    json.push_str("}\n");
    // cargo runs bench binaries with cwd = the package dir; anchor the
    // artifact at the workspace root where CI picks it up.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    std::fs::write(&out, &json).expect("write BENCH_campaign.json");
    eprintln!("[campaign_smoke] wrote {}:\n{json}", out.display());
}

fn main() {
    campaign();
    emit_bench_json();
}
