//! Observability contract: telemetry is an observer.
//!
//! Two properties pin the `ubfuzz-obs` integration to the determinism
//! story the rest of the suite relies on:
//!
//! 1. **Byte identity** — a campaign run under a JSONL trace recorder (or
//!    a metrics sink) produces the same results and the same rendered
//!    report bytes as an uninstrumented run, at worker counts 1/2/8/16
//!    on a cached and an uncached backend (the same grid as
//!    `parallel.rs`).
//! 2. **Merge algebra** — per-worker latency histograms folded in any
//!    order equal the histogram of all samples recorded in one place, so
//!    the daemon's receipt merge and the sharded sink's snapshot fold are
//!    schedule-independent.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use ubfuzz::campaign::{CampaignConfig, CampaignConfigBuilder, GeneratorChoice, ParallelCampaign};
use ubfuzz::obs::{Event, Histogram, MetricsSink, Recorder, Stage, TraceRecorder};
use ubfuzz::{run_campaign, SimBackend};

fn small_config(first_seed: u64, generator: GeneratorChoice) -> CampaignConfig {
    small_builder(first_seed, generator).build()
}

fn small_builder(first_seed: u64, generator: GeneratorChoice) -> CampaignConfigBuilder {
    // Mirrors `parallel.rs`: small programs keep each full campaign fast;
    // the observer property is size-independent.
    CampaignConfig::builder()
        .first_seed(first_seed)
        .seeds(3)
        .generator(generator)
        .seed_options(ubfuzz::seedgen::SeedOptions {
            max_helpers: 1,
            max_globals: 5,
            max_stmts: 4,
            max_depth: 2,
            ..ubfuzz::seedgen::SeedOptions::default()
        })
        .gen_options(ubfuzz::ubgen::GenOptions {
            max_per_kind: 2,
            ..ubfuzz::ubgen::GenOptions::default()
        })
}

/// A runner over `cfg` at `workers`: on the default cached backend, or on
/// an explicitly uncached one.
fn runner(cfg: &CampaignConfig, workers: usize, cache: bool) -> ParallelCampaign {
    let runner = ParallelCampaign::new(cfg.clone()).with_shards(workers);
    if cache {
        runner
    } else {
        runner.with_backend(Arc::new(SimBackend::uncached()))
    }
}

/// A `Write` target the test can read back after the recorder flushed.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Enabling tracing changes no campaign output byte: same results, same
/// rendered report, at every tested worker count × cache setting — while
/// the trace itself demonstrably observed the pipeline.
#[test]
fn traced_campaign_output_is_byte_identical() {
    let sequential = run_campaign(&small_config(11, GeneratorChoice::Ubfuzz));
    for workers in [1usize, 2, 8, 16] {
        for cache in [true, false] {
            let buf = SharedBuf::default();
            let trace = Arc::new(TraceRecorder::new(Box::new(buf.clone())));
            let cfg = small_builder(11, GeneratorChoice::Ubfuzz).recorder(trace.clone()).build();
            let traced = runner(&cfg, workers, cache).run();
            assert_eq!(
                sequential, traced,
                "trace changed results at {workers} workers (cache {cache})"
            );
            assert_eq!(
                ubfuzz::report::table3(&sequential),
                ubfuzz::report::table3(&traced),
                "trace changed report bytes at {workers} workers (cache {cache})"
            );
            trace.flush();
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            assert!(
                text.lines().any(|l| l.contains("\"type\":\"span\"")),
                "trace observed no spans at {workers} workers (cache {cache})"
            );
            assert!(
                text.contains("\"stage\":\"generate\""),
                "trace missed the generate stage at {workers} workers (cache {cache})"
            );
        }
    }
}

/// Per-stage span counts driven by campaign structure (one generate per
/// seed, one run and one oracle pass per unit) are schedule-independent:
/// sequential and every parallel width count the same events.
#[test]
fn structural_span_counts_are_schedule_independent() {
    let counts = |stats: &ubfuzz::CampaignStats, sink: &MetricsSink| {
        let snap = sink.snapshot();
        let of = |stage: Stage| snap.stages.get(&stage).map(|h| h.count).unwrap_or(0);
        (
            stats.clone(),
            of(Stage::Generate),
            of(Stage::Run),
            of(Stage::Oracle),
        )
    };
    let seq_sink = Arc::new(MetricsSink::new());
    let seq_cfg = small_builder(5, GeneratorChoice::Ubfuzz).recorder(seq_sink.clone()).build();
    let (seq_stats, seq_gen, seq_run, seq_oracle) = counts(&run_campaign(&seq_cfg), &seq_sink);
    assert_eq!(seq_gen, 3, "one generate span per seed");
    assert!(seq_oracle > 0, "oracle spans observed");
    // Each unit runs one oracle pass but executes one artifact per matrix
    // cell, so run spans dominate oracle spans.
    assert!(seq_run >= seq_oracle, "run spans at least cover the oracled units");
    // workers=1 exercises the executor's single-shard path, which must
    // match the plain sequential loop span-for-span.
    for workers in [1usize, 2, 8, 16] {
        let sink = Arc::new(MetricsSink::new());
        let par_cfg = small_builder(5, GeneratorChoice::Ubfuzz).recorder(sink.clone()).build();
        let par = ParallelCampaign::new(par_cfg).with_shards(workers).run();
        let (par_stats, par_gen, par_run, par_oracle) = counts(&par, &sink);
        assert_eq!(seq_stats, par_stats, "{workers} workers diverge");
        assert_eq!(
            (seq_gen, seq_run, seq_oracle),
            (par_gen, par_run, par_oracle),
            "structural span counts diverge at {workers} workers"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Histogram merging is partition- and order-invariant: round-robin
    /// the same samples over 1/2/8/16 workers, fold in canonical order or
    /// reversed, thread them through the sharded sink — every road yields
    /// the identical histogram, and its quantiles stay monotone. This is
    /// the algebra that lets the daemon fold worker receipts in completion
    /// order and still answer `METRICS` deterministically.
    #[test]
    fn histogram_merge_is_partition_invariant(seed in 0u64..1_000_000) {
        // The vendored proptest subset has integer strategies only; derive
        // the sample vector from the case seed (splitmix64) so every case
        // is reproducible from the reported input.
        let mut state: u64 = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Span durations are bounded by reality (2^40 ns ≈ 18 minutes);
        // staying there keeps the sums clear of u64 saturation, where the
        // sink's wrapping atomics and Histogram's saturating adds would
        // legitimately disagree.
        let len = 1 + (next() % 199) as usize;
        let samples: Vec<u64> = (0..len).map(|_| next() % (1u64 << 40)).collect();
        let mut reference = Histogram::new();
        for &s in &samples {
            reference.record(s);
        }
        for workers in [1usize, 2, 8, 16] {
            let mut parts = vec![Histogram::new(); workers];
            for (i, &s) in samples.iter().enumerate() {
                parts[i % workers].record(s);
            }
            let mut forward = Histogram::new();
            let mut reverse = Histogram::new();
            for p in &parts {
                forward.merge(p);
            }
            for p in parts.iter().rev() {
                reverse.merge(p);
            }
            prop_assert_eq!(&forward, &reference, "forward fold diverges at {} workers", workers);
            prop_assert_eq!(&reverse, &reference, "reverse fold diverges at {} workers", workers);
            prop_assert!(forward.p95() >= forward.p50(), "quantiles must be monotone");
            prop_assert!(forward.max_ns >= forward.p95(), "max bounds the quantiles");
        }
        // The receipt wire format round-trips the merged histogram.
        let parsed = Histogram::parse(&reference.encode());
        prop_assert_eq!(parsed.as_ref(), Some(&reference), "encode/parse must round-trip");
        // The sharded sink's snapshot fold equals the same algebra under
        // real thread interleaving.
        let sink = MetricsSink::new();
        let sink = &sink;
        std::thread::scope(|scope| {
            for chunk in samples.chunks(samples.len().div_ceil(4)) {
                scope.spawn(move || {
                    for &s in chunk {
                        sink.record(&Event::Span { stage: Stage::Run, unit: 0, nanos: s });
                    }
                });
            }
        });
        let snap = sink.snapshot();
        prop_assert_eq!(
            snap.stages.get(&Stage::Run),
            Some(&reference),
            "sharded sink fold diverges from the reference histogram"
        );
    }
}
