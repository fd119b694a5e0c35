//! The persistent sanitize-stage cache: `(program fingerprint, vendor,
//! version, opt, sanitizer, defect-registry epoch, site-subset
//! fingerprint) → serialized post-sanitize Module`, amortizing the
//! sanitizer pass across *invocations* — a [`ModuleTable`] keyed by
//! [`SanKey`], the second cache layer behind
//! [`CompileSession::with_backings`](ubfuzz_simcc::session::CompileSession).
//! Every field of the key is fixed-width, so the record's key head is too.

use crate::modser::{dec_compiler, dec_opt, dec_sanitizer, enc_compiler, enc_opt, enc_sanitizer};
use crate::table::{ModuleTable, TableKey};
use crate::wire::{Dec, Enc, TableKind, WireError};
use ubfuzz_simcc::session::SanKey;

/// The on-disk sanitize-stage cache.
pub type SanitizedStore = ModuleTable<SanKey>;

impl TableKey for SanKey {
    type Index = SanKey;
    const KIND: TableKind = TableKind::Sanitized;
    const FILE: &'static str = "sanitized.bin";
    const WHAT: &'static str = "sanitized";

    fn index(&self) -> SanKey {
        *self
    }

    fn enc(&self, e: &mut Enc) {
        e.u64(self.hash);
        enc_compiler(e, self.compiler);
        enc_opt(e, self.opt);
        enc_sanitizer(e, self.sanitizer);
        e.u64(self.registry_fp);
        e.u64(self.subset_fp);
    }

    fn dec(d: &mut Dec<'_>) -> Result<SanKey, WireError> {
        Ok(SanKey {
            hash: d.u64()?,
            compiler: dec_compiler(d)?,
            opt: dec_opt(d)?,
            sanitizer: dec_sanitizer(d)?,
            registry_fp: d.u64()?,
            subset_fp: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::{
        poisoned_lock_recovers_and_is_recorded as poisoned_lock_suite,
        undecodable_module_is_a_fetch_miss, Layer,
    };
    use crate::wire;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::defects::DefectRegistry;
    use ubfuzz_simcc::ir::Sanitizer;
    use ubfuzz_simcc::pipeline::CompileConfig;
    use ubfuzz_simcc::session::{CompileSession, SessionStats};
    use ubfuzz_simcc::target::{OptLevel, Vendor};

    impl Layer for SanKey {
        const SANITIZER: Option<Sanitizer> = Some(Sanitizer::Asan);

        fn session(dir: &Path, table: Arc<SanitizedStore>) -> CompileSession {
            CompileSession::with_backings(64, Arc::new(crate::PrefixStore::open(dir)), Some(table))
        }

        fn counts(stats: SessionStats) -> (u64, u64) {
            (stats.san_hits, stats.san_misses)
        }
    }

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
        let path = dir.join(SanKey::FILE);
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
        let path = dir.join(SanKey::FILE);
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
        let path = dir.join(SanKey::FILE);
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

    #[test]
    fn undecodable_module_is_a_fetch_miss_not_a_truncation() {
        let dir = tmp_dir("bad-module");
        undecodable_module_is_a_fetch_miss::<SanKey>(&dir, "sanitized fetch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_lock_recovers_and_is_recorded() {
        let dir = tmp_dir("poison");
        // The one sanitized module of the compile.
        poisoned_lock_suite::<SanKey>(&dir, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
