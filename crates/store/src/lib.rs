//! `ubfuzz-store` — the persistent campaign store.
//!
//! A UBFuzz-style campaign is only production-viable if it survives process
//! restarts: the paper's campaigns ran for months, and everything the loop
//! computes — staged-compile prefixes, per-unit compile/run outcomes,
//! deduplicated bugs — is a deterministic function of inputs that one
//! invocation pays for and the next can reuse. This crate is the on-disk
//! side of that bargain: a versioned, content-checksummed store directory
//! with these tables.
//!
//! | table | file | granularity | consumer |
//! |---|---|---|---|
//! | [`PrefixStore`] | `prefix.bin` | `(fingerprint, PrefixClass) → Module` | on-demand `PrefixBacking::fetch` |
//! | [`SanitizedStore`] | `sanitized.bin` | `(fingerprint, vendor, version, opt)` + `(sanitizer, registry epoch, site-subset fingerprint) → Module` | on-demand `SanitizedBacking::fetch` |
//! | [`CampaignLog`] | `campaign.bin` | `(campaign fingerprint, unit index) → outcome` | `ParallelCampaign` resume |
//! | [`BugCorpus`] | `corpus.bin` | attribution key → bug + provenance | campaign reporting |
//! | [`FrontierStore`] | `frontier.bin` | covered `(vendor, file, point)` set | guided-generation steering |
//!
//! The prefix/sanitized module caches open as an index — `key → record
//! span`, with every frame checksum verified but no module decoded — and
//! decode one record when the session asks for it. They also track per-key
//! hit recency and expose byte-budgeted compaction ([`CompactStats`]): the
//! least-recently-hit records are evicted through the shared temp-file +
//! rename rewrite, so a long-lived store directory can be pinned under a
//! size budget without losing its hottest entries.
//!
//! **Crash consistency.** Append-only tables flush every record and frame
//! it with a length prefix and an FNV-1a checksum; a kill mid-append tears
//! at most the final record, which the next open truncates away. The
//! corpus rewrites wholesale through a temp-file rename. **No store
//! failure is an error**: corrupt, truncated, version-skewed, unwritable —
//! every degraded path is a cold start recorded in [`StoreTelemetry`],
//! because a fuzzing campaign must never refuse to run over a bad cache.
//!
//! The wire format is hand-rolled ([`wire`], [`modser`]) — the workspace is
//! offline by policy, so no serde; the discipline mirrors the vendor shims:
//! small, explicit, and replaceable.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{Read as _, Seek as _, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use ubfuzz_obs::{self as obs, Stage};

pub mod checkpoint;
pub mod corpus;
pub mod frontier;
pub mod lease;
pub mod modser;
pub mod prefix;
pub mod sanitized;
pub mod wire;

pub use checkpoint::{CampaignLog, UnitOutcome};
pub use corpus::{BugCorpus, BugRecord, CorpusEntry, MergeSummary};
pub use frontier::FrontierStore;
pub use lease::{LeaseRecord, LeaseState, LeaseTable};
pub use prefix::PrefixStore;
pub use sanitized::SanitizedStore;
pub use wire::{WireError, FORMAT_VERSION};

/// Locks a mutex, recovering the inner guard when a panicking holder
/// poisoned it. The store's contract is "degrade, never abort": a worker
/// that panicked mid-compile must not take every later compile down with a
/// poisoned-lock panic. Callers with telemetry at hand should prefer
/// [`relock_noting`] so the recovery is observable.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`relock`], recording a [`StoreTelemetry`] corruption event when the
/// lock was actually poisoned.
pub(crate) fn relock_noting<'a, T>(
    m: &'a Mutex<T>,
    telemetry: &StoreTelemetry,
    what: &str,
) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| {
        telemetry.record_corruption(format!("{what}: poisoned lock recovered"));
        e.into_inner()
    })
}

/// Open/recovery/flush telemetry for one store table.
///
/// Shared-reference friendly (atomics + a mutexed event list) because the
/// prefix table is written from every campaign worker.
#[derive(Debug, Default)]
pub struct StoreTelemetry {
    loaded: AtomicUsize,
    persisted: AtomicU64,
    cold_start: AtomicUsize,
    tail_truncated: AtomicUsize,
    corruption: Mutex<Vec<String>>,
}

impl StoreTelemetry {
    /// Entries loaded at open. For the prefix and sanitized module tables,
    /// the distinct keys indexed: what a fetch can serve, with no module
    /// decoded until it is fetched.
    pub fn loaded(&self) -> usize {
        self.loaded.load(Ordering::Relaxed)
    }

    /// Records appended/flushed since open.
    pub fn persisted(&self) -> u64 {
        self.persisted.load(Ordering::Relaxed)
    }

    /// True when the file was unusable and the table cold-started.
    pub fn recovered_cold(&self) -> bool {
        self.cold_start.load(Ordering::Relaxed) > 0
    }

    /// True when a torn/corrupt tail was truncated (valid prefix kept).
    pub fn tail_truncated(&self) -> bool {
        self.tail_truncated.load(Ordering::Relaxed) > 0
    }

    /// Human-readable corruption/degradation events, in occurrence order.
    pub fn events(&self) -> Vec<String> {
        relock(&self.corruption).clone()
    }

    pub(crate) fn set_loaded(&self, n: usize) {
        self.loaded.store(n, Ordering::Relaxed);
    }

    pub(crate) fn record_persisted(&self) {
        self.persisted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cold_start(&self) {
        self.cold_start.fetch_add(1, Ordering::Relaxed);
        obs::count("store_cold_starts", 1);
    }

    pub(crate) fn record_tail_truncated(&self) {
        self.tail_truncated.fetch_add(1, Ordering::Relaxed);
        obs::count("store_tails_truncated", 1);
    }

    pub(crate) fn record_corruption(&self, event: String) {
        // Mirror the event to any attached recorder: read-only consumers
        // (the offline compactor) report corruption through the recorder
        // even when nothing later prints `events()`.
        obs::note("store", &event);
        // The event list is the one lock that cannot self-report poisoning;
        // recover silently rather than lose the event being recorded.
        relock(&self.corruption).push(event);
    }
}

/// Before/after accounting of one table compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// On-disk bytes (header + records) before the compaction.
    pub before_bytes: u64,
    /// On-disk bytes after the compaction.
    pub after_bytes: u64,
    /// Records kept (the most-recently-hit that fit the budget).
    pub kept: usize,
    /// Records evicted.
    pub evicted: usize,
}

/// Shared mutable state of one append-only record log with recency-tracked
/// keys: the file handles, the on-disk key index, and the per-key last-hit
/// sequence that byte-budgeted compaction ranks by.
///
/// At open, keys are assigned sequence numbers in file order, so a store
/// compacted without any hit information (the standalone compactor path)
/// deterministically keeps the newest tail.
#[derive(Debug)]
pub(crate) struct LogState<K> {
    /// Read+append handle; `None` when the directory is unwritable (the
    /// table then serves what is on disk but persists nothing).
    pub(crate) file: Option<File>,
    /// Shared read handle [`LogState::fetch`] reads payloads through
    /// without holding the table lock.
    reader: Option<Arc<File>>,
    /// Every on-disk key and its record's payload `(offset, length)`: what
    /// fetches read, and the dedup set that keeps recomputations from
    /// bloating the file with duplicates.
    pub(crate) index: HashMap<K, (u64, u32)>,
    /// Last hit (or append/open) sequence per indexed key.
    pub(crate) recency: HashMap<K, u64>,
    /// Monotonic hit/append counter feeding `recency`.
    pub(crate) clock: u64,
    /// Current on-disk size in bytes, header included.
    pub(crate) bytes: u64,
}

impl<K: Eq + Hash + Copy> LogState<K> {
    /// Opens (or creates) the record log at `path`: validates the header
    /// and every record's frame checksum and decodes each record's key head
    /// into the index (the last record of a key wins). Modules are never
    /// decoded here — [`LogState::fetch`] decodes one on demand, so open
    /// memory is O(keys + largest record), not O(store). A torn tail, or a
    /// record whose key head does not decode, ends the scan and is
    /// truncated away (`set_len`, no rewriting); an unusable header is a
    /// cold start. Never fails.
    pub(crate) fn open(
        path: &Path,
        kind: wire::TableKind,
        what: &str,
        dec_key: impl Fn(&[u8]) -> Result<K, WireError>,
        telemetry: &StoreTelemetry,
    ) -> LogState<K> {
        let _span = obs::Span::enter(Stage::StoreOpen, 0);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut index = HashMap::new();
        let mut recency = HashMap::new();
        let mut clock = 0u64;
        let mut fresh = true;
        let mut trusted = wire::HEADER_LEN as u64;
        let mut file_len = 0u64;
        if let Ok(mut file) = File::open(path) {
            file_len = file.metadata().map(|m| m.len()).unwrap_or(0);
            let mut header = [0u8; wire::HEADER_LEN];
            if file.read_exact(&mut header).is_err() {
                if file_len > 0 {
                    telemetry.record_corruption(format!("{what} header: truncated"));
                    telemetry.record_cold_start();
                }
            } else if let Err(e) = wire::check_header(&header, kind) {
                telemetry.record_corruption(format!("{what} header: {e}"));
                telemetry.record_cold_start();
            } else {
                fresh = false;
                let mut buf = Vec::new();
                while let Some((payload_off, payload_len)) =
                    wire::read_record_at(&mut file, file_len, trusted, &mut buf)
                {
                    // A checksum-valid record whose key head fails to decode
                    // means the *writer* disagreed with us — stop trusting
                    // the rest. A module that fails to decode is only found
                    // at fetch, and is a miss there.
                    let key = match dec_key(&buf) {
                        Ok(key) => key,
                        Err(e) => {
                            telemetry.record_corruption(format!("{what} record: {e}"));
                            break;
                        }
                    };
                    index.insert(key, (payload_off, payload_len));
                    clock += 1;
                    recency.insert(key, clock);
                    trusted = payload_off + payload_len as u64 + 8;
                }
                if trusted < file_len {
                    telemetry.record_tail_truncated();
                }
            }
        }
        let file = recover(path, kind, what, fresh, trusted, file_len, telemetry);
        telemetry.set_loaded(index.len());
        let bytes = match &file {
            Some(_) => trusted,
            None => 0,
        };
        let reader = File::open(path).ok().map(Arc::new);
        LogState { file, reader, index, recency, clock, bytes }
    }

    /// Reads and decodes `key`'s record. The span is copied under the
    /// table lock; the read (`pread` on the shared handle), checksum and
    /// decode run outside it, so concurrent fetches never serialize on
    /// decode. A read, checksum or decode failure records a corruption
    /// event and is a miss: the key leaves the index, so the caller's
    /// recomputation is appended again and supersedes the bad record.
    pub(crate) fn fetch<E>(
        log: &Mutex<LogState<K>>,
        key: K,
        telemetry: &StoreTelemetry,
        what: &str,
        dec_entry: impl FnOnce(&[u8]) -> Result<E, WireError>,
    ) -> Option<E> {
        let (reader, (off, len)) = {
            let state = relock_noting(log, telemetry, what);
            (state.reader.clone()?, *state.index.get(&key)?)
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
                    dec_entry(payload).map_err(|e| e.to_string())
                }
            }
        };
        match entry {
            Ok(entry) => Some(entry),
            Err(e) => {
                telemetry.record_corruption(format!("{what} fetch: {e}"));
                relock_noting(log, telemetry, what).index.remove(&key);
                None
            }
        }
    }

    /// Appends one framed record, indexing and accounting it. No-op for
    /// keys already on disk or when persistence is disabled; an append
    /// failure disables persistence (the campaign keeps computing).
    pub(crate) fn append(
        &mut self,
        key: K,
        payload: &[u8],
        telemetry: &StoreTelemetry,
        what: &'static str,
    ) {
        if self.index.contains_key(&key) {
            return;
        }
        let Some(file) = self.file.as_mut() else { return };
        let _span = obs::Span::enter(Stage::StorePersist, 0);
        let record = wire::frame(payload);
        // The handle is O_APPEND: one write_all lands the whole record at
        // the end of file regardless of concurrent appenders, and the
        // handle's position afterwards is where this record ended.
        let end = file
            .write_all(&record)
            .and_then(|()| file.flush())
            .and_then(|()| file.stream_position());
        match end {
            Err(_) => {
                telemetry.record_corruption(format!("{what} append failed"));
                self.file = None;
            }
            Ok(end) => {
                let payload_off = end - record.len() as u64 + 4;
                self.index.insert(key, (payload_off, payload.len() as u32));
                self.bytes += record.len() as u64;
                self.clock += 1;
                self.recency.insert(key, self.clock);
                telemetry.record_persisted();
            }
        }
    }

    /// Bumps an indexed key's recency — a cache hit served from this table.
    pub(crate) fn note_hit(&mut self, key: K) {
        if self.index.contains_key(&key) {
            self.clock += 1;
            self.recency.insert(key, self.clock);
        }
    }
}

/// Puts a log file into an appendable state: a fresh header for missing or
/// unusable files, or a `set_len` truncation of any untrusted tail.
fn recover(
    path: &Path,
    kind: wire::TableKind,
    what: &str,
    fresh: bool,
    trusted: u64,
    file_len: u64,
    telemetry: &StoreTelemetry,
) -> Option<File> {
    if fresh && !wire::rewrite_file(path, kind, &[]) {
        telemetry.record_corruption(format!("{what} store directory unwritable"));
        telemetry.record_cold_start();
        return None;
    }
    // O_APPEND, not seek-to-end: with concurrent opens of one store
    // directory (daemon workers), every append lands atomically at the
    // current end of file instead of at a position another process may
    // have advanced past.
    match OpenOptions::new().read(true).append(true).open(path) {
        Ok(file) => {
            if !fresh && trusted < file_len {
                let _ = file.set_len(trusted);
            }
            Some(file)
        }
        Err(_) => {
            // Read-only store: indexed entries still fetch, but nothing new
            // persists — flag it so `cold=...` telemetry consumers see the
            // degradation instead of a silent no-op.
            telemetry
                .record_corruption(format!("{what} store not writable; persistence disabled"));
            telemetry.record_cold_start();
            None
        }
    }
}

/// Compacts one record log to `budget` bytes: streams the file, ranks
/// records most-recently-hit first (open assigns file-order sequence, so
/// never-hit stores keep their newest tail), keeps the top-ranked records
/// that fit, and rewrites the file — original record order preserved among
/// the kept — through the shared temp-file + rename protocol. The index is
/// rebuilt over the rewritten layout and both handles are reopened (the
/// rename replaced the inode).
pub(crate) fn compact_log<K: Eq + Hash + Copy>(
    path: &Path,
    kind: wire::TableKind,
    state: &mut LogState<K>,
    budget: u64,
    dec_key: impl Fn(&[u8]) -> Result<K, WireError>,
    telemetry: &StoreTelemetry,
) -> CompactStats {
    let _span = obs::Span::enter(Stage::StoreCompact, 0);
    let before = state.bytes;
    let noop = CompactStats {
        before_bytes: before,
        after_bytes: before,
        kept: state.index.len(),
        evicted: 0,
    };
    let Some(file) = state.file.as_mut() else { return noop };
    let file_len = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut records: Vec<(Vec<u8>, K)> = Vec::new();
    let mut pos = wire::HEADER_LEN as u64;
    let mut buf = Vec::new();
    while let Some((payload_off, payload_len)) = wire::read_record_at(file, file_len, pos, &mut buf)
    {
        match dec_key(&buf) {
            Ok(key) => records.push((std::mem::take(&mut buf), key)),
            Err(e) => {
                telemetry.record_corruption(format!("compaction record: {e}"));
                break;
            }
        }
        pos = payload_off + payload_len as u64 + 8;
    }
    // Rank most-recently-hit first; open-time sequences make ties
    // impossible, but fall back to later-file-order-wins for safety.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| {
        std::cmp::Reverse((state.recency.get(&records[i].1).copied().unwrap_or(0), i))
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
    let kept: Vec<&(Vec<u8>, K)> =
        records.iter().zip(&keep).filter(|(_, &k)| k).map(|(r, _)| r).collect();
    let payloads: Vec<Vec<u8>> = kept.iter().map(|r| r.0.clone()).collect();
    if !wire::rewrite_file(path, kind, &payloads) {
        telemetry.record_corruption("compaction rewrite failed".into());
        return noop;
    }
    // Reopen: both handles still point at the pre-rename inode.
    state.file = OpenOptions::new().read(true).append(true).open(path).ok();
    state.reader = File::open(path).ok().map(Arc::new);
    let mut pos = wire::HEADER_LEN as u64;
    state.index.clear();
    for (payload, key) in &kept {
        state.index.insert(*key, (pos + 4, payload.len() as u32));
        pos += wire::record_span(payload.len()) as u64;
    }
    let LogState { index, recency, .. } = state;
    recency.retain(|k, _| index.contains_key(k));
    state.bytes = after;
    CompactStats {
        before_bytes: before,
        after_bytes: after,
        kept: state.index.len(),
        evicted: records.len() - kept.len(),
    }
}

/// A store directory: the root handle the binaries hold.
///
/// Thin by design — each table owns its own file, recovery and telemetry;
/// `Store` just fixes the layout so every consumer agrees on paths.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `dir`. Never fails;
    /// an uncreatable directory degrades each table to its in-memory
    /// behavior.
    pub fn open(dir: impl AsRef<Path>) -> Store {
        let dir = dir.as_ref().to_path_buf();
        let _ = std::fs::create_dir_all(&dir);
        Store { dir }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens the persistent prefix cache table.
    pub fn prefix(&self) -> PrefixStore {
        PrefixStore::open(&self.dir)
    }

    /// Opens the persistent post-sanitize module cache table.
    pub fn sanitized(&self) -> SanitizedStore {
        SanitizedStore::open(&self.dir)
    }

    /// Opens the campaign checkpoint log for a campaign plan.
    pub fn campaign_log(&self, config_fp: u64, units: usize) -> CampaignLog {
        CampaignLog::open(&self.dir, config_fp, units)
    }

    /// Opens the bug corpus table.
    pub fn corpus(&self) -> BugCorpus {
        BugCorpus::open(&self.dir)
    }

    /// Opens the campaign lease table (daemon-mode bookkeeping).
    pub fn leases(&self) -> LeaseTable {
        LeaseTable::open(&self.dir)
    }

    /// Opens the coverage frontier table (guided-generation steering).
    pub fn frontier(&self) -> FrontierStore {
        FrontierStore::open(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_layout_is_stable() {
        let dir = std::env::temp_dir().join(format!("ubfuzz-store-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir);
        assert_eq!(store.prefix().path(), dir.join("prefix.bin"));
        assert_eq!(store.sanitized().path(), dir.join("sanitized.bin"));
        assert_eq!(store.campaign_log(0, 0).path(), dir.join("campaign.bin"));
        assert_eq!(store.corpus().path(), dir.join("corpus.bin"));
        assert_eq!(store.leases().path(), dir.join("leases.bin"));
        assert_eq!(store.frontier().path(), dir.join("frontier.bin"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
