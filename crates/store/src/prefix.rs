//! The persistent prefix cache: `(program fingerprint, PrefixClass) →
//! serialized post-early-opts Module`, amortizing staged compilation across
//! *invocations* — a [`ModuleTable`] keyed by [`PrefixCell`].
//!
//! Each record still carries the `(compiler, opt)` cell that computed it
//! (the module's build stamp), but dedup, indexing and recency are keyed
//! by the cell's [`PrefixClass`] — what the early-opt stage actually reads
//! — so one class is persisted and refreshed once. Per-cell records of one
//! class, written by stores from before the prefix key was a class, index
//! as a single entry; the session re-stamps it for every cell it serves.

use crate::modser::{dec_compiler, dec_opt, enc_compiler, enc_opt};
use crate::table::{ModuleTable, TableKey};
use crate::wire::{Dec, Enc, TableKind, WireError};
use ubfuzz_simcc::pipeline::PrefixClass;
use ubfuzz_simcc::session::PrefixCell;

/// The on-disk prefix cache.
pub type PrefixStore = ModuleTable<PrefixCell>;

impl TableKey for PrefixCell {
    type Index = (u64, PrefixClass);
    const KIND: TableKind = TableKind::Prefix;
    const FILE: &'static str = "prefix.bin";
    const WHAT: &'static str = "prefix";

    fn index(&self) -> (u64, PrefixClass) {
        (self.hash, self.class())
    }

    fn enc(&self, e: &mut Enc) {
        e.u64(self.hash);
        enc_compiler(e, self.compiler);
        enc_opt(e, self.opt);
    }

    fn dec(d: &mut Dec<'_>) -> Result<PrefixCell, WireError> {
        Ok(PrefixCell { hash: d.u64()?, compiler: dec_compiler(d)?, opt: dec_opt(d)? })
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

    impl Layer for PrefixCell {
        const SANITIZER: Option<Sanitizer> = None;

        fn session(_dir: &Path, table: Arc<PrefixStore>) -> CompileSession {
            CompileSession::with_backing(64, table)
        }

        fn counts(stats: SessionStats) -> (u64, u64) {
            (stats.hits, stats.misses)
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ubfuzz-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_invocation_is_fully_warm() {
        let dir = tmp_dir("warm");
        let reg = DefectRegistry::full();
        let p = parse("int main(void) { return 3; }").unwrap();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &reg);

        let first = CompileSession::with_backing(64, Arc::new(PrefixStore::open(&dir)));
        let out = first.compile(&p, &cfg).unwrap();
        assert_eq!(first.stats().misses, 1);
        drop(first);

        // The -O1 prefix and the Lowered entry it started from.
        let store = Arc::new(PrefixStore::open(&dir));
        assert_eq!(store.telemetry().loaded(), 2);
        let second = CompileSession::with_backing(64, store);
        assert_eq!(second.compile(&p, &cfg).unwrap(), out);
        assert_eq!(second.stats().misses, 0, "warm store serves the prefix");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_open_skips_module_decode_but_keeps_dedup_keys() {
        let dir = tmp_dir("budget");
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O2, None, &reg);
        let programs: Vec<_> = (0..4)
            .map(|i| parse(&format!("int main(void) {{ return {i}; }}")).unwrap())
            .collect();
        let warm = CompileSession::with_backing(64, Arc::new(PrefixStore::open(&dir)));
        for p in &programs {
            warm.compile(p, &cfg).unwrap();
        }
        drop(warm);

        // Open indexes every record without decoding a module; each lookup
        // then fetches its record, so nothing misses or re-appends.
        let store = Arc::new(PrefixStore::open_budgeted(&dir, 2));
        assert_eq!(store.telemetry().loaded(), 8, "every record is indexed");
        let persisted_before = store.telemetry().persisted();
        let session = CompileSession::with_backing(64, store.clone());
        for p in &programs {
            assert_eq!(session.compile(p, &cfg).unwrap(), ubfuzz_simcc::compile(p, &cfg).unwrap());
        }
        assert_eq!((session.stats().hits, session.stats().misses), (4, 0));
        assert_eq!(
            store.telemetry().persisted(),
            persisted_before,
            "indexed keys dedup appends"
        );
        // And the file still holds exactly the 8 original entries (each
        // program's -O2 prefix and the Lowered entry it started from).
        drop(session);
        assert_eq!(PrefixStore::open(&dir).telemetry().loaded(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O0, None, &reg);
        let session = CompileSession::with_backing(16, Arc::new(PrefixStore::open(&dir)));
        session.compile(&parse("int main(void) { return 1; }").unwrap(), &cfg).unwrap();
        session.compile(&parse("int main(void) { return 2; }").unwrap(), &cfg).unwrap();
        drop(session);
        let path = dir.join(PrefixCell::FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let store = PrefixStore::open(&dir);
        assert_eq!(store.telemetry().loaded(), 1, "torn record dropped");
        assert!(store.telemetry().tail_truncated());
        // The truncated file is appendable and consistent on reopen.
        let session = CompileSession::with_backing(16, Arc::new(store));
        session.compile(&parse("int main(void) { return 3; }").unwrap(), &cfg).unwrap();
        drop(session);
        assert_eq!(PrefixStore::open(&dir).telemetry().loaded(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_recently_hit_entries_and_evicted_keys_remiss() {
        let dir = tmp_dir("compact");
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, None, &reg);
        let programs: Vec<_> = (0..4)
            .map(|i| parse(&format!("int main(void) {{ return {i}; }}")).unwrap())
            .collect();
        let store = Arc::new(PrefixStore::open(&dir));
        let session = CompileSession::with_backing(64, store.clone());
        let outs: Vec<_> = programs.iter().map(|p| session.compile(p, &cfg).unwrap()).collect();
        // Hit the oldest prefix so recency, not file order, decides
        // survival. Each program wrote two records: its Lowered entry, then
        // its -O2 prefix.
        session.compile(&programs[0], &cfg).unwrap();
        let full = store.size_bytes();
        let header = wire::HEADER_LEN as u64;
        let budget = (full - header) / 2 + header;
        let stats = store.compact(budget);
        assert_eq!(stats.before_bytes, full);
        assert!(stats.after_bytes <= budget, "{stats:?} vs budget {budget}");
        assert_eq!((stats.kept, stats.evicted), (4, 4), "{stats:?}");
        assert_eq!(store.size_bytes(), stats.after_bytes);
        drop(session);
        drop(store);

        // Reopen: the hit prefix (0) and the newest unhit records (3's
        // pair, 2's prefix) survive and re-hit; program 1's evicted prefix
        // re-misses, byte-identically, and re-persists together with its
        // evicted Lowered entry (both left the resident set). Programs 0
        // and 2 hit, so their evicted Lowered entries stay evicted.
        let store = Arc::new(PrefixStore::open(&dir));
        assert_eq!(store.telemetry().loaded(), 4);
        let session = CompileSession::with_backing(64, store.clone());
        for (p, out) in programs.iter().zip(&outs) {
            assert_eq!(&session.compile(p, &cfg).unwrap(), out, "identical after compaction");
        }
        assert_eq!(session.stats().hits, 3, "resident keys re-hit");
        assert_eq!(session.stats().misses, 1, "evicted keys re-miss");
        drop(session);
        assert_eq!(PrefixStore::open(&dir).telemetry().loaded(), 6, "evicted keys re-persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn standalone_compaction_without_hits_keeps_the_newest_tail() {
        let dir = tmp_dir("compact-tail");
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O1, None, &reg);
        let programs: Vec<_> = (0..3)
            .map(|i| parse(&format!("int main(void) {{ return {i}; }}")).unwrap())
            .collect();
        let warm = CompileSession::with_backing(64, Arc::new(PrefixStore::open(&dir)));
        for p in &programs {
            warm.compile(p, &cfg).unwrap();
        }
        drop(warm);

        // A fresh open with no hits: file order is the only recency signal,
        // so compaction keeps the newest records — deterministically. Each
        // program wrote two (its Lowered entry, then its -O1 prefix), so a
        // third of the file keeps the newest program's pair.
        let store = PrefixStore::open(&dir);
        let full = store.size_bytes();
        let header = wire::HEADER_LEN as u64;
        let stats = store.compact((full - header) / 3 + header);
        assert_eq!((stats.kept, stats.evicted), (2, 4), "{stats:?}");
        drop(store);
        let survivors = Arc::new(PrefixStore::open(&dir));
        assert_eq!(survivors.telemetry().loaded(), 2);
        let session = CompileSession::with_backing(64, survivors);
        session.compile(&programs[2], &cfg).unwrap();
        assert_eq!(session.stats().hits, 1, "newest record survives");
        session.compile(&programs[0], &cfg).unwrap();
        assert_eq!(session.stats().misses, 1, "older records evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_lock_recovers_and_is_recorded() {
        let dir = tmp_dir("poison");
        // The -O1 prefix and the Lowered entry it started from.
        poisoned_lock_suite::<PrefixCell>(&dir, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_cell_records_of_one_class_load_as_one_entry_and_serve_both_cells() {
        // Stores written before the prefix key was a class hold one record
        // per (compiler, opt) cell. Build such a file for one program: a
        // GCC and an LLVM -O1 record (both class Basic), each preceded by
        // its own cell's Lowered record (both class Lowered).
        let (dir, other) = (tmp_dir("class"), tmp_dir("class-llvm"));
        let reg = DefectRegistry::full();
        let p = parse("int g; int main(void) { int a = 3; g = a * 2 + 1; return g; }").unwrap();
        let gcc = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &reg);
        let llvm = CompileConfig::dev(Vendor::Llvm, OptLevel::O1, None, &reg);
        for (dir, cfg) in [(&dir, &gcc), (&other, &llvm)] {
            let session = CompileSession::with_backing(64, Arc::new(PrefixStore::open(dir)));
            session.compile(&p, cfg).unwrap();
            assert_eq!(session.stats().misses, 1);
        }
        let mut bytes = std::fs::read(dir.join(PrefixCell::FILE)).unwrap();
        let llvm_bytes = std::fs::read(other.join(PrefixCell::FILE)).unwrap();
        bytes.extend_from_slice(&llvm_bytes[wire::HEADER_LEN..]);
        std::fs::write(dir.join(PrefixCell::FILE), &bytes).unwrap();

        let store = Arc::new(PrefixStore::open(&dir));
        assert_eq!(store.telemetry().loaded(), 2, "four per-cell records, two classes");
        assert!(store.telemetry().events().is_empty(), "{:?}", store.telemetry().events());
        let session = CompileSession::with_backing(64, store.clone());
        let (gcc_o0, llvm_o0) = (
            CompileConfig { opt: OptLevel::O0, ..gcc },
            CompileConfig { opt: OptLevel::O0, ..llvm },
        );
        for cfg in [&gcc, &llvm, &gcc_o0, &llvm_o0] {
            let m = session.compile(&p, cfg).unwrap();
            assert_eq!(m, ubfuzz_simcc::compile(&p, cfg).unwrap(), "{} {}", cfg.compiler, cfg.opt);
            assert_eq!(m.build.map(|b| b.compiler), Some(cfg.compiler), "own BuildInfo");
        }
        assert_eq!(session.stats().hits, 4);
        assert_eq!(session.stats().misses, 0);
        assert_eq!(store.telemetry().persisted(), 0, "nothing re-appended");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
    }

    #[test]
    fn lowered_entry_persists_when_a_higher_level_compiles_first() {
        // -O1 before -O0: the -O1 miss lowers the program, so the -O0
        // lookup that follows is a hit. The store must still hold the
        // Lowered entry, or the next invocation would miss it.
        let dir = tmp_dir("lowered-first");
        let reg = DefectRegistry::full();
        let p = parse("int g; int main(void) { int a = 3; g = a * 2 + 1; return g; }").unwrap();
        let o1 = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &reg);
        let o0 = CompileConfig::dev(Vendor::Llvm, OptLevel::O0, None, &reg);
        let first = CompileSession::with_backing(64, Arc::new(PrefixStore::open(&dir)));
        for cfg in [&o1, &o0] {
            first.compile(&p, cfg).unwrap();
        }
        assert_eq!((first.stats().hits, first.stats().misses), (1, 1));
        drop(first);

        let store = Arc::new(PrefixStore::open(&dir));
        assert_eq!(store.telemetry().loaded(), 2);
        let second = CompileSession::with_backing(64, store);
        for cfg in [&o0, &o1] {
            let m = second.compile(&p, cfg).unwrap();
            assert_eq!(m, ubfuzz_simcc::compile(&p, cfg).unwrap(), "{}", cfg.opt);
        }
        assert_eq!((second.stats().hits, second.stats().misses), (2, 0), "fully warm");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_in_process_rebuilds_the_index() {
        // Compact while the store stays open: the rewritten file has a new
        // layout, so the index must point kept keys at their new offsets
        // (a fresh session fetches them byte-identically) and drop evicted
        // keys (which miss and recompute).
        let dir = tmp_dir("compact-live");
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O2, None, &reg);
        let programs: Vec<_> = (0..4)
            .map(|i| parse(&format!("int g; int main(void) {{ g = {i}; return g + 1; }}")).unwrap())
            .collect();
        let store = Arc::new(PrefixStore::open(&dir));
        let first = CompileSession::with_backing(64, store.clone());
        let outs: Vec<_> = programs.iter().map(|p| first.compile(p, &cfg).unwrap()).collect();
        drop(first);
        let full = store.size_bytes();
        let header = wire::HEADER_LEN as u64;
        let stats = store.compact((full - header) / 2 + header);
        assert_eq!((stats.kept, stats.evicted), (4, 4), "{stats:?}");

        // File order is Lowered, -O2 per program, so the newest half is
        // programs 2 and 3: their -O2 records fetch, 0 and 1 recompute.
        let second = CompileSession::with_backing(64, store.clone());
        for (p, out) in programs.iter().zip(&outs) {
            let m = second.compile(p, &cfg).unwrap();
            assert_eq!(crate::modser::module_to_bytes(&m), crate::modser::module_to_bytes(out));
        }
        assert_eq!((second.stats().hits, second.stats().misses), (2, 2));
        assert!(store.telemetry().events().is_empty(), "{:?}", store.telemetry().events());
        // The recomputed keys were re-appended behind the rewritten records.
        assert_eq!(store.telemetry().persisted(), 8 + 4);
        drop(second);
        assert_eq!(PrefixStore::open(&dir).telemetry().loaded(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_module_is_a_fetch_miss_not_a_truncation() {
        let dir = tmp_dir("bad-module");
        undecodable_module_is_a_fetch_miss::<PrefixCell>(&dir, "prefix fetch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_a_cold_start_not_an_error() {
        let dir = tmp_dir("fresh");
        let store = PrefixStore::open(&dir);
        assert_eq!(store.telemetry().loaded(), 0);
        assert!(!store.telemetry().recovered_cold());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
