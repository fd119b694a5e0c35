//! The persistent prefix cache: `(program fingerprint, PrefixClass) →
//! serialized post-early-opts Module`, amortizing staged compilation across
//! *invocations* — the compile session's [`Backing`].
//!
//! The file is an append log, one record per key: `cell · source ·
//! module`. Its scan, recovery and append are the store's shared
//! record-file layer (`recfile`): open indexes each record's key as the
//! scan hands it over, and a torn tail is cut back to the longest valid
//! prefix. Every lookup the session cannot answer from memory asks
//! [`Backing::fetch`] first and appends what it then computes, flushed
//! immediately, so a kill at any instant loses at most the record being
//! written — which the next open truncates away.
//!
//! Each record still carries the `(compiler, opt)` cell that computed it
//! (the module's build stamp), but dedup, indexing and recency are keyed
//! by the cell's [`PrefixClass`] — what the early-opt stage actually reads
//! — so one class is persisted and refreshed once. Per-cell records of one
//! class, written by stores from before the prefix key was a class, index
//! as a single entry; the session re-stamps it for every cell it serves.
//!
//! **Memory discipline.** A store grows without bound across invocations,
//! so open decodes no module: it keeps `key → (offset, length)` per record
//! (the fixed-position key head is decoded, the module skipped). A fetch
//! reads and decodes one record, and the session does not keep it —
//! open-time memory is O(keys + largest record), and a warm run holds no
//! decoded modules.

use crate::modser::{dec_compiler, dec_module, dec_opt, enc_compiler, enc_module, enc_opt};
use crate::recfile;
use crate::wire::{self, Dec, Enc, TableKind, WireError};
use crate::{relock_noting, CompactStats, StoreTelemetry};
use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use ubfuzz_obs::{self as obs, Stage};
use ubfuzz_simcc::ir::Module;
use ubfuzz_simcc::pipeline::PrefixClass;
use ubfuzz_simcc::session::{Backing, Persisted, PrefixCell};

/// The table's file name inside a store directory.
const FILE: &str = "prefix.bin";

/// The post-sanitize module table a v3 store may still hold. Nothing reads
/// it any more, so [`PrefixStore::open`] removes it.
const LEFTOVER: &str = "sanitized.bin";

/// What the table dedups, fetches and ranks recency by: a cell's class.
type Index = (u64, PrefixClass);

fn index_of(cell: &PrefixCell) -> Index {
    (cell.hash, cell.class())
}

/// The record payload of `cell`'s entry.
fn enc_entry(cell: &PrefixCell, source: &str, module: &Module) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(cell.hash);
    enc_compiler(&mut e, cell.compiler);
    enc_opt(&mut e, cell.opt);
    e.str(source);
    enc_module(&mut e, module);
    e.into_bytes()
}

/// Decodes a record's key head.
fn dec_cell(d: &mut Dec<'_>) -> Result<PrefixCell, WireError> {
    Ok(PrefixCell { hash: d.u64()?, compiler: dec_compiler(d)?, opt: dec_opt(d)? })
}

/// Decodes a whole record payload.
fn dec_entry(payload: &[u8]) -> Result<(PrefixCell, Persisted), WireError> {
    let mut d = Dec::new(payload);
    let cell = dec_cell(&mut d)?;
    let entry = Persisted { source: d.str()?, module: dec_module(&mut d)? };
    d.finish()?;
    Ok((cell, entry))
}

/// Decodes only a record's index key (the payload's fixed-position head),
/// skipping the expensive module decode — what open and compaction pay per
/// record.
fn dec_index(payload: &[u8]) -> Result<Index, WireError> {
    dec_cell(&mut Dec::new(payload)).map(|cell| index_of(&cell))
}

/// Removes a v3 store's leftover post-sanitize table from `dir`, recording
/// one event with its size. A failed removal is an event too, never an
/// error: the file is only dead weight.
fn remove_leftover(dir: &Path, telemetry: &StoreTelemetry) {
    let path = dir.join(LEFTOVER);
    let Ok(meta) = std::fs::metadata(&path) else { return };
    let bytes = meta.len();
    telemetry.record_corruption(match std::fs::remove_file(&path) {
        Ok(()) => format!("{LEFTOVER}: removed the unused sanitize-stage table ({bytes} bytes)"),
        Err(e) => format!("{LEFTOVER}: unused sanitize-stage table ({bytes} bytes) kept: {e}"),
    });
}

/// The on-disk prefix cache. Open never fails: unreadable, version-skewed or
/// corrupt files degrade to a cold start recorded in [`StoreTelemetry`].
/// Tracks per-key hit recency for byte-budgeted compaction
/// ([`PrefixStore::compact`]).
#[derive(Debug)]
pub struct PrefixStore {
    path: PathBuf,
    /// The append log: file handles, key index, recency, size.
    log: Mutex<LogState>,
    telemetry: StoreTelemetry,
}

/// Shared mutable state of the table's record log: the file handles, the
/// on-disk key index, and the per-key last-hit sequence that byte-budgeted
/// compaction ranks by.
///
/// At open, keys are assigned sequence numbers in file order, so a store
/// compacted without any hit information (the standalone compactor path)
/// deterministically keeps the newest tail.
#[derive(Debug)]
struct LogState {
    /// Read+append handle; `None` when the directory is unwritable (the
    /// table then serves what is on disk but persists nothing).
    file: Option<File>,
    /// Shared read handle fetches read payloads through without holding
    /// the table lock.
    reader: Option<Arc<File>>,
    /// Every on-disk key and its record's payload `(offset, length)`: what
    /// fetches read, and the dedup set that keeps recomputations from
    /// bloating the file with duplicates.
    index: HashMap<Index, (u64, u32)>,
    /// Last hit (or append/open) sequence per indexed key.
    recency: HashMap<Index, u64>,
    /// Monotonic hit/append counter feeding `recency`.
    clock: u64,
    /// Current on-disk size in bytes, header included.
    bytes: u64,
}

impl PrefixStore {
    /// Opens (or creates) the table under `dir`: validates the header and
    /// every record's frame checksum and decodes each record's key head
    /// into the index (the last record of a key wins). Modules are never
    /// decoded here — [`Backing::fetch`] decodes one on demand. A torn
    /// tail, or a record whose key head does not decode, ends the scan and
    /// is truncated away; an unusable header is a cold start. A leftover
    /// `sanitized.bin` in `dir` is removed, with one telemetry event.
    pub fn open(dir: impl AsRef<Path>) -> PrefixStore {
        let path = dir.as_ref().join(FILE);
        let telemetry = StoreTelemetry::default();
        let log = LogState::open(&path, &telemetry);
        remove_leftover(dir.as_ref(), &telemetry);
        PrefixStore { path, log: Mutex::new(log), telemetry }
    }

    /// The same as [`PrefixStore::open`]; the budget is ignored. Kept only
    /// because the benchmark harness (`ubbench`) still calls it.
    pub fn open_budgeted(dir: impl AsRef<Path>, _budget: usize) -> PrefixStore {
        PrefixStore::open(dir)
    }

    /// The log, recovering (and recording) a poisoned lock: a worker that
    /// panicked mid-compile must not cascade into every later compile.
    fn log(&self) -> MutexGuard<'_, LogState> {
        relock_noting(&self.log, &self.telemetry, "prefix store lock")
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
        self.log().compact(&self.path, budget, &self.telemetry)
    }

    /// The file backing this table.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Open/flush telemetry for this table.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.telemetry
    }
}

impl Backing for PrefixStore {
    /// Reads and decodes `key`'s record. The span is copied under the table
    /// lock; the read (`pread` on the shared handle), checksum and decode
    /// run outside it, so concurrent fetches never serialize on decode. A
    /// read, checksum or decode failure records a corruption event and is a
    /// miss: the key leaves the index, so the caller's recomputation is
    /// appended again and supersedes the bad record.
    fn fetch(&self, key: &PrefixCell) -> Option<Persisted> {
        let key = index_of(key);
        let (reader, (off, len)) = {
            let log = self.log();
            (log.reader.clone()?, *log.index.get(&key)?)
        };
        let _span = obs::Span::enter(Stage::StoreReplay, 0);
        let mut buf = vec![0u8; len as usize + 8];
        let entry = match reader.read_exact_at(&mut buf, off) {
            Err(e) => Err(e.to_string()),
            Ok(()) => {
                let (payload, sum) = buf.split_at(len as usize);
                if wire::fnv1a(payload).to_le_bytes() != sum {
                    Err("checksum mismatch".into())
                } else {
                    dec_entry(payload).map(|(_, entry)| entry).map_err(|e| e.to_string())
                }
            }
        };
        match entry {
            Ok(entry) => Some(entry),
            Err(e) => {
                self.telemetry.record_corruption(format!("prefix fetch: {e}"));
                self.log().index.remove(&key);
                None
            }
        }
    }

    fn persist(&self, key: PrefixCell, source: &str, module: &Module) {
        let mut log = self.log();
        let index = index_of(&key);
        if !log.index.contains_key(&index) {
            // Not on disk yet (an epoch-evicted recomputation already is).
            log.append(index, &enc_entry(&key, source, module), &self.telemetry);
        }
    }

    fn note_hit(&self, key: &PrefixCell) {
        self.log().note_hit(index_of(key));
    }
}

impl LogState {
    /// Opens (or creates) the record log at `path`; see
    /// [`PrefixStore::open`]. Never fails.
    fn open(path: &Path, telemetry: &StoreTelemetry) -> LogState {
        let _span = obs::Span::enter(Stage::StoreOpen, 0);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut index = HashMap::new();
        let mut recency = HashMap::new();
        let mut clock = 0u64;
        let scan = recfile::scan(path, TableKind::Prefix, |payload, payload_off| {
            // A checksum-valid record whose key head fails to decode means
            // the *writer* disagreed with us — stop trusting the rest. A
            // module that fails to decode is only found at fetch, and is a
            // miss there.
            match dec_index(payload) {
                Ok(key) => {
                    index.insert(key, (payload_off, payload.len() as u32));
                    clock += 1;
                    recency.insert(key, clock);
                    true
                }
                Err(e) => {
                    telemetry.record_corruption(format!("prefix record: {e}"));
                    false
                }
            }
        });
        scan.report(telemetry, "prefix");
        let file = scan.recover(&[], telemetry, "prefix store");
        telemetry.set_loaded(index.len());
        let bytes = if file.is_some() { scan.trusted } else { 0 };
        let reader = File::open(path).ok().map(Arc::new);
        LogState { file, reader, index, recency, clock, bytes }
    }

    /// Appends one framed record, indexing and accounting it. No-op when
    /// persistence is disabled; an append failure disables persistence
    /// (the campaign keeps computing).
    fn append(&mut self, key: Index, payload: &[u8], telemetry: &StoreTelemetry) {
        if self.file.is_none() {
            return;
        }
        let _span = obs::Span::enter(Stage::StorePersist, 0);
        if let Some(payload_off) = recfile::append(&mut self.file, payload, telemetry, "prefix") {
            self.index.insert(key, (payload_off, payload.len() as u32));
            self.bytes += wire::record_span(payload.len()) as u64;
            self.clock += 1;
            self.recency.insert(key, self.clock);
        }
    }

    /// Bumps an indexed key's recency — a cache hit served from this table.
    fn note_hit(&mut self, key: Index) {
        if self.index.contains_key(&key) {
            self.clock += 1;
            self.recency.insert(key, self.clock);
        }
    }

    /// Compacts the log to `budget` bytes: streams the file, ranks records
    /// most-recently-hit first (open assigns file-order sequence, so
    /// never-hit stores keep their newest tail), keeps the top-ranked
    /// records that fit, and rewrites the file — original record order
    /// preserved among the kept — through the shared temp-file + rename
    /// protocol. The index is rebuilt over the rewritten layout and both
    /// handles are reopened (the rename replaced the inode).
    fn compact(&mut self, path: &Path, budget: u64, telemetry: &StoreTelemetry) -> CompactStats {
        let _span = obs::Span::enter(Stage::StoreCompact, 0);
        let before = self.bytes;
        let noop = CompactStats {
            before_bytes: before,
            after_bytes: before,
            kept: self.index.len(),
            evicted: 0,
        };
        if self.file.is_none() {
            return noop;
        }
        let mut records: Vec<(Vec<u8>, Index)> = Vec::new();
        recfile::scan(path, TableKind::Prefix, |payload, _| match dec_index(payload) {
            Ok(key) => {
                records.push((payload.to_vec(), key));
                true
            }
            Err(e) => {
                telemetry.record_corruption(format!("compaction record: {e}"));
                false
            }
        });
        // Rank most-recently-hit first; open-time sequences make ties
        // impossible, but fall back to later-file-order-wins for safety.
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by_key(|&i| {
            std::cmp::Reverse((self.recency.get(&records[i].1).copied().unwrap_or(0), i))
        });
        let mut keep = vec![false; records.len()];
        let mut after = wire::HEADER_LEN as u64;
        for &i in &order {
            let span = wire::record_span(records[i].0.len()) as u64;
            if after + span > budget {
                break;
            }
            after += span;
            keep[i] = true;
        }
        // Move the kept payloads out in file order; evicted ones drop here.
        let total = records.len();
        let (payloads, keys): (Vec<Vec<u8>>, Vec<Index>) = records
            .into_iter()
            .zip(keep)
            .filter_map(|(record, kept)| kept.then_some(record))
            .unzip();
        if !wire::rewrite_file(path, TableKind::Prefix, &payloads) {
            telemetry.record_corruption("compaction rewrite failed".into());
            return noop;
        }
        // Reopen: both handles still point at the pre-rename inode.
        self.file = recfile::open_append(path);
        self.reader = File::open(path).ok().map(Arc::new);
        let mut pos = wire::HEADER_LEN as u64;
        self.index.clear();
        for (payload, key) in payloads.iter().zip(keys) {
            self.index.insert(key, (pos + 4, payload.len() as u32));
            pos += wire::record_span(payload.len()) as u64;
        }
        let LogState { index, recency, .. } = self;
        recency.retain(|k, _| index.contains_key(k));
        self.bytes = after;
        CompactStats {
            before_bytes: before,
            after_bytes: after,
            kept: self.index.len(),
            evicted: total - payloads.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::defects::DefectRegistry;
    use ubfuzz_simcc::pipeline::CompileConfig;
    use ubfuzz_simcc::session::CompileSession;
    use ubfuzz_simcc::target::{OptLevel, Vendor};

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
        let path = dir.join(FILE);
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

    /// A worker that panicked while holding the table lock does not take
    /// the table down: a later compile through it still persists, and the
    /// recovery is recorded once.
    #[test]
    fn poisoned_lock_recovers_and_is_recorded() {
        let dir = tmp_dir("poison");
        let store = Arc::new(PrefixStore::open(&dir));
        let poisoner = store.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.log.lock().unwrap();
            panic!("worker panicked while holding the store lock");
        })
        .join()
        .unwrap_err();
        // The store must keep serving (degrade, never cascade the panic)...
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &reg);
        let session = CompileSession::with_backing(64, store.clone());
        session.compile(&parse("int main(void) { return 7; }").unwrap(), &cfg).unwrap();
        // The -O1 prefix and the Lowered entry it started from.
        assert_eq!(store.telemetry().persisted(), 2);
        // ...and the recovery must be observable, once per poisoning.
        for _ in 0..5 {
            store.size_bytes();
        }
        let events = store.telemetry().events();
        let recovered = events.iter().filter(|e| e.contains("poisoned lock recovered")).count();
        assert_eq!(recovered, 1, "{events:?}");
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
        let mut bytes = std::fs::read(dir.join(FILE)).unwrap();
        let llvm_bytes = std::fs::read(other.join(FILE)).unwrap();
        bytes.extend_from_slice(&llvm_bytes[wire::HEADER_LEN..]);
        std::fs::write(dir.join(FILE), &bytes).unwrap();

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

    /// A checksum-valid record whose module fails to decode (a defect id
    /// this build does not know): open indexes it without a cold start or
    /// truncation, and the lookup that fetches it misses, records an event
    /// and recomputes the identical module.
    #[test]
    fn undecodable_module_is_a_fetch_miss_not_a_truncation() {
        let dir = tmp_dir("bad-module");
        let reg = DefectRegistry::full();
        let p = parse("int main(void) { return 5; }").unwrap();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O0, None, &reg);
        CompileSession::with_backing(64, Arc::new(PrefixStore::open(&dir)))
            .compile(&p, &cfg)
            .unwrap();
        let path = dir.join(FILE);
        let bytes = std::fs::read(&path).unwrap();
        let payload = &bytes[wire::HEADER_LEN + 4..bytes.len() - 8];
        let (cell, mut entry) = dec_entry(payload).unwrap();
        entry.module.san.applied_defects = vec![("gcc-asan-d01", ubfuzz_minic::Loc::new(1, 0))];
        let mut payload = enc_entry(&cell, &entry.source, &entry.module);
        let at = payload.windows(12).position(|w| w == b"gcc-asan-d01").expect("id present");
        payload[at] = b'x';
        let mut file = wire::header(TableKind::Prefix);
        file.extend_from_slice(&wire::frame(&payload));
        std::fs::write(&path, &file).unwrap();

        let store = Arc::new(PrefixStore::open(&dir));
        assert!(!store.telemetry().recovered_cold());
        assert!(!store.telemetry().tail_truncated());
        assert_eq!(store.telemetry().loaded(), 1);
        let session = CompileSession::with_backing(64, store.clone());
        assert_eq!(session.compile(&p, &cfg).unwrap(), ubfuzz_simcc::compile(&p, &cfg).unwrap());
        assert_eq!((session.stats().hits, session.stats().misses), (0, 1));
        let events = store.telemetry().events();
        assert!(events.iter().any(|e| e.contains("prefix fetch")), "{events:?}");
        // The bad record stays on disk; the recomputation supersedes it.
        assert_eq!(store.telemetry().persisted(), 1);
        drop(session);
        let store = Arc::new(PrefixStore::open(&dir));
        let session = CompileSession::with_backing(64, store.clone());
        session.compile(&p, &cfg).unwrap();
        assert_eq!((session.stats().hits, session.stats().misses), (1, 0));
        assert!(store.telemetry().events().is_empty(), "{:?}", store.telemetry().events());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `sanitized.bin` left by a v3 store is removed at open with one
    /// event naming its size; the prefix table opens as if it were absent.
    #[test]
    fn leftover_sanitized_table_is_removed_with_one_event() {
        let dir = tmp_dir("leftover");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LEFTOVER), [0u8; 37]).unwrap();
        let store = PrefixStore::open(&dir);
        assert!(!dir.join(LEFTOVER).exists());
        assert!(!store.telemetry().recovered_cold());
        assert_eq!(
            store.telemetry().events(),
            ["sanitized.bin: removed the unused sanitize-stage table (37 bytes)"]
        );
        // Nothing left to remove on the next open.
        assert!(PrefixStore::open(&dir).telemetry().events().is_empty());
        // A leftover that cannot be removed (here a non-empty directory of
        // that name) is an event, never an error.
        std::fs::create_dir_all(dir.join(LEFTOVER).join("x")).unwrap();
        let store = PrefixStore::open(&dir);
        let events = store.telemetry().events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(events[0].starts_with("sanitized.bin: unused sanitize-stage table"), "{events:?}");
        assert!(events[0].contains(" kept: "), "{events:?}");
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
