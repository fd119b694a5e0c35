//! The persistent sanitize-stage cache: `(program fingerprint, vendor,
//! version, opt, sanitizer, defect-registry epoch, site-subset
//! fingerprint) → serialized post-sanitize Module`, amortizing the
//! sanitizer pass across
//! *invocations* — the second cache layer behind
//! [`CompileSession::with_backings`](ubfuzz_simcc::session::CompileSession).
//!
//! Same log discipline as [`crate::prefix`]: an append-only checksummed
//! record file (torn tails truncated, version skew and corruption degrade
//! to a cold start, never an error), opened as an index and decoded one
//! record per fetch, and byte-budgeted least-recently-hit compaction
//! through the shared temp-file + rename rewrite.
//!
//! **Memory discipline.** The key head is fixed-width, so open and
//! compaction index a record without decoding its module; a warm run
//! decodes each module when its unit asks for it and keeps none, so the
//! table costs O(keys) memory however large the file grows.

use crate::modser::{
    dec_compiler, dec_module, dec_opt, dec_sanitizer, enc_compiler, enc_module, enc_opt,
    enc_sanitizer,
};
use crate::wire::{self, Dec, Enc, TableKind};
use crate::{relock_noting, CompactStats, LogState, StoreTelemetry};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use ubfuzz_simcc::session::{PersistedSanitized, SanKey, SanitizedBacking, SanitizedEntryRef};

/// File name of the sanitized table inside a store directory.
pub const SANITIZED_FILE: &str = "sanitized.bin";

/// The on-disk sanitize-stage cache. Open never fails: unreadable,
/// version-skewed or corrupt files degrade to a cold start recorded in
/// [`StoreTelemetry`].
#[derive(Debug)]
pub struct SanitizedStore {
    path: PathBuf,
    /// The append log: file handles, key index, recency, size.
    log: Mutex<LogState<SanKey>>,
    telemetry: StoreTelemetry,
}

fn enc_entry(entry: SanitizedEntryRef<'_>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(entry.hash);
    enc_compiler(&mut e, entry.compiler);
    enc_opt(&mut e, entry.opt);
    enc_sanitizer(&mut e, entry.sanitizer);
    e.u64(entry.registry_fp);
    e.u64(entry.subset_fp);
    e.str(entry.source);
    enc_module(&mut e, entry.module);
    e.into_bytes()
}

fn dec_entry(payload: &[u8]) -> Result<PersistedSanitized, wire::WireError> {
    let mut d = Dec::new(payload);
    let entry = PersistedSanitized {
        hash: d.u64()?,
        compiler: dec_compiler(&mut d)?,
        opt: dec_opt(&mut d)?,
        sanitizer: dec_sanitizer(&mut d)?,
        registry_fp: d.u64()?,
        subset_fp: d.u64()?,
        source: d.str()?,
        module: dec_module(&mut d)?,
    };
    d.finish()?;
    Ok(entry)
}

/// Decodes only the dedup key (the payload's fixed-position head), skipping
/// the expensive module decode — what open and compaction pay per record.
fn dec_key(payload: &[u8]) -> Result<SanKey, wire::WireError> {
    let mut d = Dec::new(payload);
    Ok(SanKey {
        hash: d.u64()?,
        compiler: dec_compiler(&mut d)?,
        opt: dec_opt(&mut d)?,
        sanitizer: dec_sanitizer(&mut d)?,
        registry_fp: d.u64()?,
        subset_fp: d.u64()?,
    })
}

impl SanitizedStore {
    /// Opens (or creates) the sanitized table under `dir`, indexing every
    /// record without decoding its module.
    pub fn open(dir: impl AsRef<Path>) -> SanitizedStore {
        let path = dir.as_ref().join(SANITIZED_FILE);
        let telemetry = StoreTelemetry::default();
        let log = LogState::open(&path, TableKind::Sanitized, "sanitized", dec_key, &telemetry);
        SanitizedStore { path, log: Mutex::new(log), telemetry }
    }

    /// The same as [`SanitizedStore::open`]; the budget is ignored. Kept
    /// only because the benchmark harness (`ubbench`) still calls it.
    pub fn open_budgeted(dir: impl AsRef<Path>, _budget: usize) -> SanitizedStore {
        SanitizedStore::open(dir)
    }

    /// The log, recovering (and recording) a poisoned lock.
    fn log(&self) -> MutexGuard<'_, LogState<SanKey>> {
        relock_noting(&self.log, &self.telemetry, "sanitized store lock")
    }

    /// The file backing this table.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Open/flush telemetry for this table.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.telemetry
    }

    /// Current on-disk size of this table in bytes, header included.
    pub fn size_bytes(&self) -> u64 {
        self.log().bytes
    }

    /// Compacts the table to at most `budget` bytes, evicting the
    /// least-recently-hit entries through the shared temp-file + rename
    /// rewrite. Evicted keys leave the index, so they miss and a later
    /// recompute re-persists them.
    pub fn compact(&self, budget: u64) -> CompactStats {
        crate::compact_log(
            &self.path,
            TableKind::Sanitized,
            &mut self.log(),
            budget,
            dec_key,
            &self.telemetry,
        )
    }
}

impl SanitizedBacking for SanitizedStore {
    fn fetch(&self, key: &SanKey) -> Option<PersistedSanitized> {
        LogState::fetch(&self.log, *key, &self.telemetry, "sanitized", dec_entry)
    }

    fn persist(&self, entry: SanitizedEntryRef<'_>) {
        let key = entry.key();
        let mut log = self.log();
        if log.index.contains_key(&key) {
            return; // already on disk (epoch-evicted recomputation)
        }
        log.append(key, &enc_entry(entry), &self.telemetry, "sanitized");
    }

    fn note_hit(&self, key: &SanKey) {
        self.log().note_hit(*key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::defects::DefectRegistry;
    use ubfuzz_simcc::pipeline::CompileConfig;
    use ubfuzz_simcc::session::CompileSession;
    use ubfuzz_simcc::ir::Sanitizer;
    use ubfuzz_simcc::target::{OptLevel, Vendor};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ubfuzz-sanstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sessions(dir: &Path) -> CompileSession {
        CompileSession::with_backings(
            64,
            Arc::new(crate::PrefixStore::open(dir)),
            Some(Arc::new(SanitizedStore::open(dir))),
        )
    }

    #[test]
    fn second_invocation_skips_the_sanitize_stage() {
        let dir = tmp_dir("warm");
        let reg = DefectRegistry::full();
        let p = parse("int main(void) { return 3 + 4; }").unwrap();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Ubsan), &reg);

        let first = sessions(&dir);
        let out = first.compile(&p, &cfg).unwrap();
        assert_eq!(first.stats().san_misses, 1);
        drop(first);

        assert_eq!(SanitizedStore::open(&dir).telemetry().loaded(), 1);
        let second = sessions(&dir);
        assert_eq!(second.compile(&p, &cfg).unwrap(), out);
        let stats = second.stats();
        assert_eq!(stats.san_hits, 1, "warm store serves the sanitize stage");
        assert_eq!(stats.san_misses, 0);
        assert_eq!((stats.hits, stats.misses), (0, 0), "prefix layer untouched on san hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_epoch_partitions_the_table() {
        let dir = tmp_dir("epoch");
        let full = DefectRegistry::full();
        let pristine = DefectRegistry::pristine();
        let p = parse("int main(void) { return 6 / 2; }").unwrap();

        let first = sessions(&dir);
        let cfg_full = CompileConfig::dev(Vendor::Llvm, OptLevel::O2, Some(Sanitizer::Asan), &full);
        let cfg_pristine =
            CompileConfig::dev(Vendor::Llvm, OptLevel::O2, Some(Sanitizer::Asan), &pristine);
        let a = first.compile(&p, &cfg_full).unwrap();
        let b = first.compile(&p, &cfg_pristine).unwrap();
        assert_eq!(first.stats().san_misses, 2, "distinct epochs, distinct records");
        drop(first);

        assert_eq!(SanitizedStore::open(&dir).telemetry().loaded(), 2);
        let second = sessions(&dir);
        assert_eq!(second.compile(&p, &cfg_full).unwrap(), a);
        assert_eq!(second.compile(&p, &cfg_pristine).unwrap(), b);
        assert_eq!(second.stats().san_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Asan), &reg);
        let session = sessions(&dir);
        session.compile(&parse("int main(void) { return 1; }").unwrap(), &cfg).unwrap();
        session.compile(&parse("int main(void) { return 2; }").unwrap(), &cfg).unwrap();
        drop(session);
        let path = dir.join(SANITIZED_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let store = SanitizedStore::open(&dir);
        assert_eq!(store.telemetry().loaded(), 1, "torn record dropped");
        assert!(store.telemetry().tail_truncated());
        let session = CompileSession::with_backings(
            64,
            Arc::new(crate::PrefixStore::open(&dir)),
            Some(Arc::new(store)),
        );
        session.compile(&parse("int main(void) { return 3; }").unwrap(), &cfg).unwrap();
        drop(session);
        assert_eq!(SanitizedStore::open(&dir).telemetry().loaded(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subset_fingerprint_partitions_the_table() {
        use ubfuzz_simcc::partition::SanPolicy;
        let dir = tmp_dir("subset");
        let reg = DefectRegistry::full();
        let p = parse("int g[4]; int main(void) { g[1] = 2; return g[1]; }").unwrap();
        let cfg_full = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &reg);
        let cfg_partial =
            cfg_full.clone().with_policy(SanPolicy::Partial { ratio_pm: 300, salt: 11 });

        let first = sessions(&dir);
        let a = first.compile(&p, &cfg_full).unwrap();
        let b = first.compile(&p, &cfg_partial).unwrap();
        assert_eq!(first.stats().san_misses, 2, "distinct subsets, distinct records");
        drop(first);

        // Warm replay: each policy hits its own record at reuse 1.0 — no
        // cross-subset aliasing through the store.
        assert_eq!(SanitizedStore::open(&dir).telemetry().loaded(), 2);
        let second = sessions(&dir);
        assert_eq!(second.compile(&p, &cfg_full).unwrap(), a);
        assert_eq!(second.compile(&p, &cfg_partial).unwrap(), b);
        let stats = second.stats();
        assert_eq!(stats.san_hits, 2);
        assert_eq!(stats.san_misses, 0);
        assert_eq!(stats.san_reuse_ratio(), 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_file_cold_starts_with_telemetry_never_errors() {
        // A pre-partition (format v2) sanitized.bin has neither the
        // subset-fingerprint key column nor the skipped-site set; the
        // extended codec must treat it as version skew: cold start plus a
        // telemetry event, never an error.
        let dir = tmp_dir("v2");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(SANITIZED_FILE);
        let mut bytes = wire::header(TableKind::Sanitized);
        bytes[8] = 2; // the pre-partition format version
        // A plausible v2-shaped record body (shorter key head) — the header
        // check must reject the file before any record is interpreted.
        let mut e = Enc::new();
        e.u64(0xDEAD_BEEF);
        bytes.extend_from_slice(&wire::frame(&e.into_bytes()));
        std::fs::write(&path, &bytes).unwrap();

        let store = SanitizedStore::open(&dir);
        assert_eq!(store.telemetry().loaded(), 0);
        assert!(store.telemetry().recovered_cold());
        assert!(store
            .telemetry()
            .events()
            .iter()
            .any(|e| e.contains("format version")), "{:?}", store.telemetry().events());
        // And the recovered file is immediately usable for persistence.
        let session = CompileSession::with_backings(
            64,
            Arc::new(crate::PrefixStore::open(&dir)),
            Some(Arc::new(store)),
        );
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, Some(Sanitizer::Ubsan), &reg);
        session.compile(&parse("int main(void) { return 9; }").unwrap(), &cfg).unwrap();
        drop(session);
        assert_eq!(SanitizedStore::open(&dir).telemetry().loaded(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skewed_file_cold_starts_never_errors() {
        let dir = tmp_dir("skew");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(SANITIZED_FILE);
        let mut header = wire::header(TableKind::Sanitized);
        header[8] = wire::FORMAT_VERSION + 1;
        std::fs::write(&path, &header).unwrap();

        let store = SanitizedStore::open(&dir);
        assert_eq!(store.telemetry().loaded(), 0);
        assert!(store.telemetry().recovered_cold());
        assert!(store
            .telemetry()
            .events()
            .iter()
            .any(|e| e.contains("format version")), "{:?}", store.telemetry().events());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_evicted_keys_remiss_and_resident_keys_rehit() {
        let dir = tmp_dir("compact");
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Ubsan), &reg);
        let programs: Vec<_> = (0..4)
            .map(|i| parse(&format!("int main(void) {{ return {i}; }}")).unwrap())
            .collect();
        let store = Arc::new(SanitizedStore::open(&dir));
        let session = CompileSession::with_backings(
            64,
            Arc::new(crate::PrefixStore::open(&dir)),
            Some(store.clone()),
        );
        let outs: Vec<_> = programs.iter().map(|p| session.compile(p, &cfg).unwrap()).collect();
        // Hit the oldest entry so recency, not file order, decides survival.
        session.compile(&programs[0], &cfg).unwrap();
        let full = store.size_bytes();
        let header = wire::HEADER_LEN as u64;
        let stats = store.compact((full - header) / 2 + header);
        assert_eq!((stats.kept, stats.evicted), (2, 2), "{stats:?}");
        drop(session);
        drop(store);

        assert_eq!(SanitizedStore::open(&dir).telemetry().loaded(), 2);
        let second = sessions(&dir);
        for (p, out) in programs.iter().zip(&outs) {
            assert_eq!(&second.compile(p, &cfg).unwrap(), out, "identical after compaction");
        }
        let stats = second.stats();
        assert_eq!(stats.san_hits, 2, "resident keys re-hit");
        assert_eq!(stats.san_misses, 2, "evicted keys re-miss");
        drop(second);
        assert_eq!(
            SanitizedStore::open(&dir).telemetry().loaded(),
            4,
            "evicted keys re-persisted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
