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
//! | [`PrefixStore`] | `prefix.bin` | `(fingerprint, PrefixClass) → Module` | on-demand `Backing<PrefixCell>::fetch` |
//! | [`SanitizedStore`] | `sanitized.bin` | `(fingerprint, vendor, version, opt)` + `(sanitizer, registry epoch, site-subset fingerprint) → Module` | on-demand `Backing<SanKey>::fetch` |
//! | [`CampaignLog`] | `campaign.bin` | `(campaign fingerprint, unit index) → outcome` | `ParallelCampaign` resume |
//! | [`BugCorpus`] | `corpus.bin` | attribution key → bug + provenance | campaign reporting |
//! | [`FrontierStore`] | `frontier.bin` | covered `(vendor, file, point)` set | guided-generation steering |
//!
//! The prefix/sanitized module caches are one implementation,
//! [`ModuleTable`], told apart by their [`TableKey`]. They open as an index
//! — `key → record span`, with every frame checksum verified but no module
//! decoded — and decode one record when the session asks for it. They also
//! track per-key hit recency and expose byte-budgeted compaction
//! ([`CompactStats`]): the least-recently-hit records are evicted through
//! the shared temp-file + rename rewrite, so a long-lived store directory
//! can be pinned under a size budget without losing its hottest entries.
//!
//! **Crash consistency.** Every table file is a header plus records framed
//! with a length prefix and an FNV-1a checksum, in one of two shapes. The
//! append logs (module tables, checkpoint log) flush every record; a kill
//! mid-append tears at most the final record, which the next open
//! truncates away. The snapshots (corpus, frontier, leases) rewrite
//! wholesale through a temp-file rename, so a kill mid-save leaves the
//! previous file intact. One module, `recfile`, implements both shapes —
//! the scan, the recovery, the append and the snapshot load/save — and
//! each table supplies only its record codec. **No store failure is an
//! error**: corrupt, truncated, version-skewed, unwritable — every degraded
//! path is a cold start recorded in [`StoreTelemetry`], because a fuzzing
//! campaign must never refuse to run over a bad cache.
//!
//! The wire format is hand-rolled ([`wire`], [`modser`]) — the workspace is
//! offline by policy, so no serde; the discipline mirrors the vendor shims:
//! small, explicit, and replaceable.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use ubfuzz_obs as obs;

pub mod checkpoint;
pub mod corpus;
pub mod frontier;
pub mod lease;
pub mod modser;
pub mod prefix;
mod recfile;
pub mod sanitized;
pub mod table;
pub mod wire;

pub use checkpoint::{CampaignLog, UnitOutcome};
pub use corpus::{BugCorpus, BugRecord, CorpusEntry, MergeSummary};
pub use frontier::FrontierStore;
pub use lease::{LeaseRecord, LeaseState, LeaseTable};
pub use prefix::PrefixStore;
pub use sanitized::SanitizedStore;
pub use table::{ModuleTable, TableKey};
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
/// lock was actually poisoned. The recovery clears the poison, so each
/// poisoning is recorded once, not on every later lock.
pub(crate) fn relock_noting<'a, T>(
    m: &'a Mutex<T>,
    telemetry: &StoreTelemetry,
    what: impl std::fmt::Display,
) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| {
        telemetry.record_corruption(format!("{what}: poisoned lock recovered"));
        m.clear_poison();
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
