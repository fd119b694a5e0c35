//! The module tables: the on-disk side of the compile session's two cache
//! layers. A [`ModuleTable`] maps a key to its canonical source and one
//! serialized module, and is the session's [`Backing`] for that key:
//! [`PrefixStore`](crate::PrefixStore) holds `lower → early-opts` prefixes
//! under a [`PrefixCell`](ubfuzz_simcc::session::PrefixCell),
//! [`SanitizedStore`](crate::SanitizedStore) post-sanitize modules under a
//! [`SanKey`](ubfuzz_simcc::session::SanKey). The tables differ only in
//! their [`TableKey`].
//!
//! The file is an append log, one record per key: `key head · source ·
//! module`. Its scan, recovery and append are the store's shared
//! record-file layer (`recfile`): open indexes each record's key as the
//! scan hands it over, and a torn tail is cut back to the longest valid
//! prefix. Every lookup the session cannot answer from memory asks
//! [`Backing::fetch`] first and appends what it then computes, flushed
//! immediately, so a kill at any instant loses at most the record being
//! written — which the next open truncates away.
//!
//! **Memory discipline.** A store grows without bound across invocations,
//! so open decodes no module: it keeps `key → (offset, length)` per record
//! (the fixed-position key head is decoded, the module skipped). A fetch
//! reads and decodes one record, and the session does not keep it —
//! open-time memory is O(keys + largest record), and a warm run holds no
//! decoded modules.

use crate::modser::{dec_module, enc_module};
use crate::recfile;
use crate::wire::{self, Dec, Enc, TableKind, WireError};
use crate::{relock_noting, CompactStats, StoreTelemetry};
use std::collections::HashMap;
use std::fs::File;
use std::hash::Hash;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use ubfuzz_obs::{self as obs, Stage};
use ubfuzz_simcc::ir::Module;
use ubfuzz_simcc::session::{Backing, Persisted};

/// A key a [`ModuleTable`] stores modules under: the table's file identity
/// and the key's wire codec, the fixed-position head of every record.
pub trait TableKey: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// What the table dedups, fetches and ranks recency by.
    type Index: Copy + Eq + Hash + Send + Sync + std::fmt::Debug;
    /// The table kind in the file header.
    const KIND: TableKind;
    /// The table's file name inside a store directory.
    const FILE: &'static str;
    /// The table's name in telemetry events.
    const WHAT: &'static str;
    /// The key's index entry.
    fn index(&self) -> Self::Index;
    /// Encodes the key head.
    fn enc(&self, e: &mut Enc);
    /// Decodes the key head.
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError>;
}

/// The record payload of `key`'s entry.
fn enc_entry<K: TableKey>(key: &K, source: &str, module: &Module) -> Vec<u8> {
    let mut e = Enc::new();
    key.enc(&mut e);
    e.str(source);
    enc_module(&mut e, module);
    e.into_bytes()
}

/// Decodes a whole record payload.
fn dec_entry<K: TableKey>(payload: &[u8]) -> Result<(K, Persisted), WireError> {
    let mut d = Dec::new(payload);
    let key = K::dec(&mut d)?;
    let entry = Persisted { source: d.str()?, module: dec_module(&mut d)? };
    d.finish()?;
    Ok((key, entry))
}

/// Decodes only a record's index key (the payload's fixed-position head),
/// skipping the expensive module decode — what open and compaction pay per
/// record.
fn dec_index<K: TableKey>(payload: &[u8]) -> Result<K::Index, WireError> {
    K::dec(&mut Dec::new(payload)).map(|key| key.index())
}

/// An on-disk module table. Open never fails: unreadable, version-skewed or
/// corrupt files degrade to a cold start recorded in [`StoreTelemetry`].
/// Tracks per-key hit recency for byte-budgeted compaction
/// ([`ModuleTable::compact`]).
#[derive(Debug)]
pub struct ModuleTable<K: TableKey> {
    path: PathBuf,
    /// The append log: file handles, key index, recency, size.
    log: Mutex<LogState<K>>,
    telemetry: StoreTelemetry,
}

/// Shared mutable state of one table's record log: the file handles, the
/// on-disk key index, and the per-key last-hit sequence that byte-budgeted
/// compaction ranks by.
///
/// At open, keys are assigned sequence numbers in file order, so a store
/// compacted without any hit information (the standalone compactor path)
/// deterministically keeps the newest tail.
#[derive(Debug)]
struct LogState<K: TableKey> {
    /// Read+append handle; `None` when the directory is unwritable (the
    /// table then serves what is on disk but persists nothing).
    file: Option<File>,
    /// Shared read handle fetches read payloads through without holding
    /// the table lock.
    reader: Option<Arc<File>>,
    /// Every on-disk key and its record's payload `(offset, length)`: what
    /// fetches read, and the dedup set that keeps recomputations from
    /// bloating the file with duplicates.
    index: HashMap<K::Index, (u64, u32)>,
    /// Last hit (or append/open) sequence per indexed key.
    recency: HashMap<K::Index, u64>,
    /// Monotonic hit/append counter feeding `recency`.
    clock: u64,
    /// Current on-disk size in bytes, header included.
    bytes: u64,
}

impl<K: TableKey> ModuleTable<K> {
    /// Opens (or creates) the table under `dir`: validates the header and
    /// every record's frame checksum and decodes each record's key head
    /// into the index (the last record of a key wins). Modules are never
    /// decoded here — [`Backing::fetch`] decodes one on demand. A torn
    /// tail, or a record whose key head does not decode, ends the scan and
    /// is truncated away; an unusable header is a cold start.
    pub fn open(dir: impl AsRef<Path>) -> ModuleTable<K> {
        let path = dir.as_ref().join(K::FILE);
        let telemetry = StoreTelemetry::default();
        let log = LogState::open(&path, &telemetry);
        ModuleTable { path, log: Mutex::new(log), telemetry }
    }

    /// The same as [`ModuleTable::open`]; the budget is ignored. Kept only
    /// because the benchmark harness (`ubbench`) still calls it.
    pub fn open_budgeted(dir: impl AsRef<Path>, _budget: usize) -> ModuleTable<K> {
        ModuleTable::open(dir)
    }

    /// The log, recovering (and recording) a poisoned lock: a worker that
    /// panicked mid-compile must not cascade into every later compile.
    fn log(&self) -> MutexGuard<'_, LogState<K>> {
        relock_noting(&self.log, &self.telemetry, format_args!("{} store lock", K::WHAT))
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

impl<K: TableKey> Backing<K> for ModuleTable<K> {
    /// Reads and decodes `key`'s record. The span is copied under the table
    /// lock; the read (`pread` on the shared handle), checksum and decode
    /// run outside it, so concurrent fetches never serialize on decode. A
    /// read, checksum or decode failure records a corruption event and is a
    /// miss: the key leaves the index, so the caller's recomputation is
    /// appended again and supersedes the bad record.
    fn fetch(&self, key: &K) -> Option<Persisted> {
        let key = key.index();
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
                    dec_entry::<K>(payload).map(|(_, entry)| entry).map_err(|e| e.to_string())
                }
            }
        };
        match entry {
            Ok(entry) => Some(entry),
            Err(e) => {
                self.telemetry.record_corruption(format!("{} fetch: {e}", K::WHAT));
                self.log().index.remove(&key);
                None
            }
        }
    }

    fn persist(&self, key: K, source: &str, module: &Module) {
        let mut log = self.log();
        let index = key.index();
        if !log.index.contains_key(&index) {
            // Not on disk yet (an epoch-evicted recomputation already is).
            log.append(index, &enc_entry(&key, source, module), &self.telemetry);
        }
    }

    fn note_hit(&self, key: &K) {
        self.log().note_hit(key.index());
    }
}

impl<K: TableKey> LogState<K> {
    /// Opens (or creates) the record log at `path`; see
    /// [`ModuleTable::open`]. Never fails.
    fn open(path: &Path, telemetry: &StoreTelemetry) -> LogState<K> {
        let _span = obs::Span::enter(Stage::StoreOpen, 0);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut index = HashMap::new();
        let mut recency = HashMap::new();
        let mut clock = 0u64;
        let scan = recfile::scan(path, K::KIND, |payload, payload_off| {
            // A checksum-valid record whose key head fails to decode means
            // the *writer* disagreed with us — stop trusting the rest. A
            // module that fails to decode is only found at fetch, and is a
            // miss there.
            match dec_index::<K>(payload) {
                Ok(key) => {
                    index.insert(key, (payload_off, payload.len() as u32));
                    clock += 1;
                    recency.insert(key, clock);
                    true
                }
                Err(e) => {
                    telemetry.record_corruption(format!("{} record: {e}", K::WHAT));
                    false
                }
            }
        });
        scan.report(telemetry, K::WHAT);
        let file = scan.recover(&[], telemetry, &format!("{} store", K::WHAT));
        telemetry.set_loaded(index.len());
        let bytes = if file.is_some() { scan.trusted } else { 0 };
        let reader = File::open(path).ok().map(Arc::new);
        LogState { file, reader, index, recency, clock, bytes }
    }

    /// Appends one framed record, indexing and accounting it. No-op when
    /// persistence is disabled; an append failure disables persistence
    /// (the campaign keeps computing).
    fn append(&mut self, key: K::Index, payload: &[u8], telemetry: &StoreTelemetry) {
        if self.file.is_none() {
            return;
        }
        let _span = obs::Span::enter(Stage::StorePersist, 0);
        if let Some(payload_off) = recfile::append(&mut self.file, payload, telemetry, K::WHAT) {
            self.index.insert(key, (payload_off, payload.len() as u32));
            self.bytes += wire::record_span(payload.len()) as u64;
            self.clock += 1;
            self.recency.insert(key, self.clock);
        }
    }

    /// Bumps an indexed key's recency — a cache hit served from this table.
    fn note_hit(&mut self, key: K::Index) {
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
        let mut records: Vec<(Vec<u8>, K::Index)> = Vec::new();
        recfile::scan(path, K::KIND, |payload, _| match dec_index::<K>(payload) {
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
        let (payloads, keys): (Vec<Vec<u8>>, Vec<K::Index>) = records
            .into_iter()
            .zip(keep)
            .filter_map(|(record, kept)| kept.then_some(record))
            .unzip();
        if !wire::rewrite_file(path, K::KIND, &payloads) {
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

/// Suites both tables run, each driving its table through a session as its
/// [`tests::Layer`] says.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::defects::DefectRegistry;
    use ubfuzz_simcc::ir::Sanitizer;
    use ubfuzz_simcc::pipeline::CompileConfig;
    use ubfuzz_simcc::session::{CompileSession, SessionStats};
    use ubfuzz_simcc::target::{OptLevel, Vendor};

    /// How a table's suite reaches it through a session.
    pub(crate) trait Layer: TableKey {
        /// The sanitizer of the compiles whose lookups reach the table.
        const SANITIZER: Option<Sanitizer>;
        /// A session backed by `table` (and by whatever else the layer
        /// needs, opened from `dir`).
        fn session(dir: &Path, table: Arc<ModuleTable<Self>>) -> CompileSession;
        /// The layer's `(hits, misses)`.
        fn counts(stats: SessionStats) -> (u64, u64);
    }

    /// A checksum-valid record whose module fails to decode (a defect id
    /// this build does not know): open indexes it without a cold start or
    /// truncation, and the lookup that fetches it misses, records an
    /// `event` and recomputes the identical module.
    pub(crate) fn undecodable_module_is_a_fetch_miss<K: Layer>(dir: &Path, event: &str) {
        let reg = DefectRegistry::full();
        let p = parse("int main(void) { return 5; }").unwrap();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O0, K::SANITIZER, &reg);
        K::session(dir, Arc::new(ModuleTable::open(dir))).compile(&p, &cfg).unwrap();
        let path = dir.join(K::FILE);
        let bytes = std::fs::read(&path).unwrap();
        let payload = &bytes[wire::HEADER_LEN + 4..bytes.len() - 8];
        let (key, mut entry) = dec_entry::<K>(payload).unwrap();
        entry.module.san.applied_defects = vec![("gcc-asan-d01", ubfuzz_minic::Loc::new(1, 0))];
        let mut payload = enc_entry(&key, &entry.source, &entry.module);
        let at = payload.windows(12).position(|w| w == b"gcc-asan-d01").expect("id present");
        payload[at] = b'x';
        let mut file = wire::header(K::KIND);
        file.extend_from_slice(&wire::frame(&payload));
        std::fs::write(&path, &file).unwrap();

        let store = Arc::new(ModuleTable::<K>::open(dir));
        assert!(!store.telemetry().recovered_cold());
        assert!(!store.telemetry().tail_truncated());
        assert_eq!(store.telemetry().loaded(), 1);
        let session = K::session(dir, store.clone());
        assert_eq!(session.compile(&p, &cfg).unwrap(), ubfuzz_simcc::compile(&p, &cfg).unwrap());
        assert_eq!(K::counts(session.stats()), (0, 1));
        let events = store.telemetry().events();
        assert!(events.iter().any(|e| e.contains(event)), "{events:?}");
        // The bad record stays on disk; the recomputation supersedes it.
        assert_eq!(store.telemetry().persisted(), 1);
        drop(session);
        let store = Arc::new(ModuleTable::<K>::open(dir));
        let session = K::session(dir, store.clone());
        session.compile(&p, &cfg).unwrap();
        assert_eq!(K::counts(session.stats()), (1, 0));
        assert!(store.telemetry().events().is_empty(), "{:?}", store.telemetry().events());
    }

    /// A worker that panicked while holding the table lock does not take
    /// the table down: a later compile through it still persists
    /// `persisted` records, and the recovery is recorded.
    pub(crate) fn poisoned_lock_recovers_and_is_recorded<K: Layer>(dir: &Path, persisted: u64) {
        let store = Arc::new(ModuleTable::<K>::open(dir));
        let poisoner = store.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.log.lock().unwrap();
            panic!("worker panicked while holding the store lock");
        })
        .join()
        .unwrap_err();
        // The store must keep serving (degrade, never cascade the panic)...
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, K::SANITIZER, &reg);
        let session = K::session(dir, store.clone());
        session.compile(&parse("int main(void) { return 7; }").unwrap(), &cfg).unwrap();
        assert_eq!(store.telemetry().persisted(), persisted);
        // ...and the recovery must be observable, once per poisoning.
        assert!(
            store.telemetry().events().iter().any(|e| e.contains("poisoned lock recovered")),
            "{:?}",
            store.telemetry().events()
        );
        for _ in 0..5 {
            store.size_bytes();
        }
        let events = store.telemetry().events();
        let recovered = events.iter().filter(|e| e.contains("poisoned lock recovered")).count();
        assert_eq!(recovered, 1, "{events:?}");
    }
}
