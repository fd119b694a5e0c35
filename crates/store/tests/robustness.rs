//! Store robustness: the wire format round-trips arbitrary pipeline
//! modules identically (proptest over generated programs × the compile
//! matrix), and truncated / corrupted / version-skewed store files degrade
//! to a graceful cold start with telemetry — never an `Err` or a panic on
//! open.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use ubfuzz_seedgen::{generate_seed, SeedOptions};
use ubfuzz_simcc::defects::DefectRegistry;
use ubfuzz_simcc::pipeline::{compile, CompileConfig};
use ubfuzz_simcc::session::{Backing, CompileSession, PrefixCell};
use ubfuzz_simcc::target::{OptLevel, Vendor};
use ubfuzz_simcc::{CovDelta, Sanitizer};
use ubfuzz_store::{
    modser, wire, BugCorpus, CampaignLog, FrontierStore, LeaseState, LeaseTable, PrefixStore,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ubfuzz-robust-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Arbitrary generated programs, compiled across a vendor × level ×
    /// sanitizer slice of the matrix, serialize and deserialize to the
    /// identical module — and re-encode to the identical bytes.
    #[test]
    fn arbitrary_modules_round_trip(seed in 0u64..5000) {
        let opts = SeedOptions { max_helpers: 1, max_stmts: 4, ..SeedOptions::default() };
        let program = generate_seed(seed, &opts);
        let registry = DefectRegistry::full();
        let mut checked = 0;
        for vendor in Vendor::ALL {
            for opt in [OptLevel::O0, OptLevel::O2, OptLevel::O3] {
                for sanitizer in
                    [None, Some(Sanitizer::Asan), Some(Sanitizer::Ubsan), Some(Sanitizer::Msan)]
                {
                    let cfg = CompileConfig::dev(vendor, opt, sanitizer, &registry);
                    let Ok(module) = compile(&program, &cfg) else { continue };
                    let bytes = modser::module_to_bytes(&module);
                    let back = modser::module_from_bytes(&bytes).expect("round trip decodes");
                    prop_assert_eq!(&module, &back, "seed {} {} {} {:?}", seed, vendor, opt, sanitizer);
                    prop_assert_eq!(&bytes, &modser::module_to_bytes(&back), "byte-stable");
                    checked += 1;
                }
            }
        }
        prop_assert!(checked > 0, "matrix slice compiled something");
    }

}

// Split across blocks: the `proptest!` macro recurses per property, and
// too many in one block overflow the default macro recursion limit.
proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// LEB128 varints round-trip values of every magnitude, and every
    /// strict prefix of an encoding decodes to an error — never a wrong
    /// value or a panic (the property the interned v2 module encoding
    /// leans on everywhere).
    #[test]
    fn varints_round_trip_and_reject_prefixes(seed in 0u64..u64::MAX) {
        // (The vendored proptest macro binds `seed` via an untyped closure
        // parameter; pin it before the first method call.)
        let seed: u64 = seed;
        // Derive a spread of magnitudes from the one sampled seed: small
        // (1-byte encodings), the seed itself, and a full-width mix.
        for u in [seed % 128, seed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)] {
            for s in [u as i64, (u as i64).wrapping_neg()] {
                let mut e = wire::Enc::new();
                e.vu64(u);
                e.vi64(s);
                let bytes = e.into_bytes();
                let mut d = wire::Dec::new(&bytes);
                prop_assert_eq!(d.vu64().unwrap(), u);
                prop_assert_eq!(d.vi64().unwrap(), s);
                d.finish().unwrap();
                for cut in 0..bytes.len() {
                    let mut d = wire::Dec::new(&bytes[..cut]);
                    prop_assert!(
                        d.vu64().is_err() || d.vi64().is_err(),
                        "prefix of len {} must not decode both values", cut
                    );
                }
            }
        }
    }

    /// A module encoding truncated at an arbitrary offset never decodes
    /// successfully and never panics — the interned string/Loc tables and
    /// the varint body fail closed.
    #[test]
    fn truncated_module_bytes_fail_closed(seed in 0u64..5000) {
        let opts = SeedOptions { max_helpers: 1, max_stmts: 4, ..SeedOptions::default() };
        let program = generate_seed(seed, &opts);
        let registry = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O2, Some(Sanitizer::Ubsan), &registry);
        let module = compile(&program, &cfg).expect("matrix cell compiles");
        let bytes = modser::module_to_bytes(&module);
        let cut_back = 1 + (seed as usize % 48);
        let cut = bytes.len().saturating_sub(cut_back);
        prop_assert!(
            modser::module_from_bytes(&bytes[..cut]).is_err(),
            "truncation to {} of {} bytes must be an error", cut, bytes.len()
        );
    }

    /// A prefix store truncated at an arbitrary byte offset opens to a
    /// valid (possibly shorter) store — never an error — and what it still
    /// loads is a prefix of what was persisted.
    #[test]
    fn truncated_prefix_store_cold_starts_gracefully(cut_back in 1usize..64) {
        let dir = tmp_dir("trunc");
        let registry = DefectRegistry::full();
        let store = Arc::new(PrefixStore::open(&dir));
        let session = CompileSession::with_backing(64, store.clone());
        let opts = SeedOptions { max_helpers: 0, max_stmts: 3, ..SeedOptions::default() };
        for seed in 0..3u64 {
            let p = generate_seed(seed, &opts);
            let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &registry);
            session.compile(&p, &cfg).unwrap();
        }
        let persisted = store.telemetry().persisted() as usize;
        drop((session, store));

        let path = dir.join("prefix.bin");
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len().saturating_sub(cut_back).max(1);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let store = PrefixStore::open(&dir);
        let loaded = store.telemetry().loaded();
        prop_assert!(loaded <= persisted, "loaded {} of {}", loaded, persisted);
        if cut < bytes.len() {
            prop_assert!(
                store.telemetry().tail_truncated() || store.telemetry().recovered_cold(),
                "a shortened file must be flagged"
            );
        }
        // The recovered store still works end to end.
        let session = CompileSession::with_backing(64, Arc::new(store));
        let p = generate_seed(0, &opts);
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &registry);
        prop_assert_eq!(session.compile(&p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn version_skewed_store_files_cold_start_with_telemetry() {
    let dir = tmp_dir("skew");
    // Persist one real entry, then bump the format version byte.
    let store = PrefixStore::open(&dir);
    let registry = DefectRegistry::full();
    let p = generate_seed(1, &SeedOptions::default());
    let session = CompileSession::with_backing(16, Arc::new(store));
    session
        .compile(&p, &CompileConfig::dev(Vendor::Llvm, OptLevel::O2, None, &registry))
        .unwrap();
    drop(session);
    let path = dir.join("prefix.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = wire::FORMAT_VERSION + 1;
    std::fs::write(&path, &bytes).unwrap();

    let store = PrefixStore::open(&dir);
    assert_eq!(store.telemetry().loaded(), 0, "skewed format loads nothing");
    assert!(store.telemetry().recovered_cold());
    assert!(
        store.telemetry().events().iter().any(|e| e.contains("format version")),
        "telemetry names the cause: {:?}",
        store.telemetry().events()
    );
    // And the store was rewritten to the current version: a re-open is
    // clean and persisting works again.
    let cell = PrefixCell {
        hash: 9,
        compiler: ubfuzz_simcc::target::CompilerId::dev(Vendor::Gcc),
        opt: OptLevel::O0,
    };
    let module = modser::module_from_bytes(&modser::module_to_bytes(
        &compile(&p, &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, None, &registry)).unwrap(),
    ))
    .unwrap();
    store.persist(cell, "int main(void) { return 0; }", &module);
    let reopened = PrefixStore::open(&dir);
    assert_eq!(reopened.telemetry().loaded(), 1);
    assert!(!reopened.telemetry().recovered_cold());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/fixtures/v3-store` holds `prefix.bin` and `sanitized.bin` as the
/// store code wrote them when open still decoded every module (format v3):
/// the program below compiled for both vendors at -O0 and -O2, without a
/// sanitizer and with ASan. Record bytes did not change when the prefix
/// table started opening as an index, so that store must warm-serve every
/// cell with zero prefix misses, identical modules, and nothing re-appended.
/// The post-sanitize table is no longer read: open removes the leftover
/// `sanitized.bin` with one event naming its size, and every sanitizer cell
/// reruns the pass over its stored prefix.
#[test]
fn store_written_by_the_decoding_open_warm_serves_with_zero_misses() {
    let dir = tmp_dir("v3-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3-store");
    for name in ["prefix.bin", "sanitized.bin"] {
        std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
    }
    let leftover = std::fs::metadata(dir.join("sanitized.bin")).unwrap().len();
    let prefix = Arc::new(PrefixStore::open(&dir));
    assert!(!dir.join("sanitized.bin").exists(), "the leftover table is removed");
    assert_eq!(
        prefix.telemetry().events(),
        [format!("sanitized.bin: removed the unused sanitize-stage table ({leftover} bytes)")]
    );
    // Lowered + one -O2 class per vendor.
    assert_eq!(prefix.telemetry().loaded(), 3);
    assert!(!prefix.telemetry().recovered_cold() && !prefix.telemetry().tail_truncated());
    let session = CompileSession::with_backing(64, prefix.clone());
    let p = ubfuzz_minic::parse(
        "int g[4]; int main(void) { int i = 1; g[i] = 3; return g[i] + g[0] / (i + 1); }",
    )
    .unwrap();
    let registry = DefectRegistry::full();
    for vendor in Vendor::ALL {
        for opt in [OptLevel::O0, OptLevel::O2] {
            for sanitizer in [None, Some(Sanitizer::Asan)] {
                let cfg = CompileConfig::dev(vendor, opt, sanitizer, &registry);
                assert_eq!(session.compile(&p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
            }
        }
    }
    let stats = session.stats();
    assert_eq!((stats.hits, stats.misses, stats.san_hits, stats.san_misses), (8, 0, 0, 4));
    assert_eq!(prefix.telemetry().persisted(), 0);
    assert_eq!(prefix.telemetry().events().len(), 1, "{:?}", prefix.telemetry().events());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The writer side of the same fixture: a fresh store, fed the fixture's
/// program in the fixture's cell order, writes `prefix.bin` byte for byte
/// as the fixture holds it — the prefix record format is pinned, not only
/// what it can read — and writes no `sanitized.bin`.
#[test]
fn fresh_store_writes_the_v3_fixture_byte_for_byte() {
    let dir = tmp_dir("v3-writer");
    let session = CompileSession::with_backing(64, Arc::new(PrefixStore::open(&dir)));
    let p = ubfuzz_minic::parse(
        "int g[4]; int main(void) { int i = 1; g[i] = 3; return g[i] + g[0] / (i + 1); }",
    )
    .unwrap();
    let registry = DefectRegistry::full();
    for vendor in Vendor::ALL {
        for opt in [OptLevel::O0, OptLevel::O2] {
            for sanitizer in [None, Some(Sanitizer::Asan)] {
                let cfg = CompileConfig::dev(vendor, opt, sanitizer, &registry);
                session.compile(&p, &cfg).unwrap();
            }
        }
    }
    drop(session);
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3-store");
    let written = std::fs::read(dir.join("prefix.bin")).unwrap();
    let pinned = std::fs::read(fixture.join("prefix.bin")).unwrap();
    let (w, n) = (written.len(), pinned.len());
    assert!(written == pinned, "prefix.bin: {w} B written, {n} B pinned");
    assert!(!dir.join("sanitized.bin").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixed delta behind `fixtures/v3-store/frontier.bin`: points of
/// every kind, both vendors, and the sanitizers' `policy_skip` points.
fn fixture_delta() -> CovDelta {
    [
        (Vendor::Gcc, "asan.rs", "policy_skip"),
        (Vendor::Gcc, "asan.rs", "run"),
        (Vendor::Gcc, "rt_report.rs", "report_overflow"),
        (Vendor::Gcc, "ubsan.rs", "bound_check"),
        (Vendor::Llvm, "msan.rs", "policy_skip"),
        (Vendor::Llvm, "msan.rs", "run"),
        (Vendor::Llvm, "rt_shadow.rs", "shadow_clean"),
        (Vendor::Llvm, "ubsan.rs", "check_emitted"),
        (Vendor::Llvm, "ubsan.rs", "policy_skip"),
    ]
    .into_iter()
    .collect()
}

/// A frontier holding the sanitizers' `policy_skip` points (hit under a
/// partial sanitization policy) saves and reopens whole: every point is a
/// registered one, so none of them reads as corruption.
#[test]
fn frontier_with_policy_skip_points_round_trips() {
    let dir = tmp_dir("frontier-policy");
    let delta: CovDelta = [
        (Vendor::Gcc, "asan.rs", "policy_skip"),
        (Vendor::Gcc, "asan.rs", "run"),
        (Vendor::Llvm, "msan.rs", "policy_skip"),
        (Vendor::Llvm, "ubsan.rs", "policy_skip"),
    ]
    .into_iter()
    .collect();
    FrontierStore::open(&dir).save(&delta);
    let reopened = FrontierStore::open(&dir);
    let t = reopened.telemetry();
    assert_eq!((delta.len(), t.loaded()), (4, 4), "points saved vs loaded");
    assert!(!t.tail_truncated() && !t.recovered_cold(), "{:?}", t.events());
    assert_eq!(reopened.covered(), &delta);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fixtures/v3-store/frontier.bin` is [`fixture_delta`] as the store
/// wrote it before coverage deltas became bitsets: a fresh save writes
/// the same bytes, and an open of the fixture reads the same delta back.
#[test]
fn frontier_fixture_is_written_and_read_byte_for_byte() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3-store");
    let dir = tmp_dir("frontier-writer");
    FrontierStore::open(&dir).save(&fixture_delta());
    let written = std::fs::read(dir.join("frontier.bin")).unwrap();
    let pinned = std::fs::read(fixture.join("frontier.bin")).unwrap();
    let (w, n) = (written.len(), pinned.len());
    assert!(written == pinned, "frontier.bin: {w} B written, {n} B pinned");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("frontier-reader");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture.join("frontier.bin"), dir.join("frontier.bin")).unwrap();
    let reopened = FrontierStore::open(&dir);
    assert_eq!(reopened.covered(), &fixture_delta());
    assert!(reopened.telemetry().events().is_empty(), "{:?}", reopened.telemetry().events());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fixtures/v3-store/leases.bin` is the lease table as the store wrote it
/// when the daemon's scheduling ledger was a separate in-memory copy:
/// campaign `0x5eed_f00d`, 10 units over 2 leases of 60 s — lease 1 granted
/// to pid 101 at t=1000 then done, lease 2 to pid 102 at t=1010 then
/// reclaimed, its re-issue 3 to pid 103 at t=1020 then done. Replaying
/// those transitions through the table's own ledger writes the same bytes
/// with one rewrite per transition, and an open reads the records back.
#[test]
fn lease_ledger_writes_the_v3_fixture_byte_for_byte() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3-store");
    let dir = tmp_dir("lease-writer");
    let mut table = LeaseTable::open(&dir);
    table.carve(0x5eed_f00d, 10, 2, 60);
    assert!(table.claim(1, 101, 1000));
    assert!(table.complete(1));
    assert!(table.claim(2, 102, 1010));
    assert_eq!(table.reclaim(2), Some(3));
    assert!(table.claim(3, 103, 1020));
    assert!(table.complete(3));
    assert!(table.all_done());
    assert_eq!(table.telemetry().persisted(), 6, "one rewrite per transition");
    let written = std::fs::read(dir.join("leases.bin")).unwrap();
    let pinned = std::fs::read(fixture.join("leases.bin")).unwrap();
    let (w, n) = (written.len(), pinned.len());
    assert!(written == pinned, "leases.bin: {w} B written, {n} B pinned");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("lease-reader");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture.join("leases.bin"), dir.join("leases.bin")).unwrap();
    let reopened = LeaseTable::open(&dir);
    assert!(reopened.telemetry().events().is_empty(), "{:?}", reopened.telemetry().events());
    let rows: Vec<_> = reopened
        .leases()
        .values()
        .map(|l| (l.id, l.campaign_fp, l.start, l.end, l.pid, l.granted, l.ttl_secs, l.state))
        .collect();
    assert_eq!(
        rows,
        vec![
            (1, 0x5eed_f00d, 0, 5, 101, 1000, 60, LeaseState::Done),
            (2, 0x5eed_f00d, 5, 10, 102, 1010, 60, LeaseState::Reclaimed),
            (3, 0x5eed_f00d, 5, 10, 103, 1020, 60, LeaseState::Done),
        ]
    );
    assert_eq!(reopened.next_id(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_flipped_records_are_dropped_not_fatal() {
    let dir = tmp_dir("flip");
    let log = CampaignLog::open(&dir, 77, 3);
    log.record(0, b"v");
    log.record(1, b"v");
    log.record(2, b"v");
    let path = log.path().to_path_buf();
    drop(log);

    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte inside the last group record's head: records 0 and 1 are
    // intact, 2 fails its checksum.
    let target = bytes.len() - 25;
    bytes[target] ^= 0x55;
    std::fs::write(&path, &bytes).unwrap();

    let log = CampaignLog::open(&dir, 77, 3);
    assert!(log.replayed() < 3, "flipped record must not replay fully");
    assert!(log.telemetry().tail_truncated() || log.telemetry().recovered_cold());
    // The log remains appendable and consistent.
    log.record(2, b"v");
    drop(log);
    let log = CampaignLog::open(&dir, 77, 3);
    assert!(log.has_replay(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_open_never_errors_on_garbage() {
    let dir = tmp_dir("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["prefix.bin", "campaign.bin", "corpus.bin"] {
        std::fs::write(dir.join(name), b"\xFF\x00garbage everywhere").unwrap();
    }
    let prefix = PrefixStore::open(&dir);
    assert_eq!(prefix.telemetry().loaded(), 0);
    assert!(prefix.telemetry().recovered_cold());
    let log = CampaignLog::open(&dir, 1, 4);
    assert_eq!(log.replayed(), 0);
    assert!(log.telemetry().recovered_cold());
    let corpus = BugCorpus::open(&dir);
    assert!(corpus.is_empty());
    assert!(corpus.telemetry().recovered_cold());
    let _ = std::fs::remove_dir_all(&dir);
}
