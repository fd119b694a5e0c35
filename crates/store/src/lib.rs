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
//! | [`PrefixStore`] | `prefix.bin` | `(fingerprint, PrefixClass) → Module` | on-demand `Backing::fetch` |
//! | [`CampaignLog`] | `campaign.bin` | `(campaign fingerprint, unit index) → outcome` | `ParallelCampaign` resume |
//! | [`BugCorpus`] | `corpus.bin` | attribution key → bug + provenance | campaign reporting |
//! | [`FrontierStore`] | `frontier.bin` | covered `(vendor, file, point)` set | guided-generation steering |
//! | [`LeaseTable`] | `leases.bin` | lease id → unit range + state | the campaign daemon |
//!
//! The prefix table is the one compile cache. It opens as an index — `key
//! → record span`, with every frame checksum verified but no module decoded
//! — and decodes one record when the session asks for it. It also tracks
//! per-key hit recency and exposes byte-budgeted compaction
//! ([`CompactStats`]): the least-recently-hit records are evicted through
//! the shared temp-file + rename rewrite, so a long-lived store directory
//! can be pinned under a size budget without losing its hottest entries.
//! Post-sanitize modules are not stored: the sanitizer pass reruns over the
//! stored prefix, which costs no more than fetching its output would and
//! records the pass's coverage hits every time. A `sanitized.bin` left by a
//! v3 store is removed when the prefix table opens.
//!
//! **Crash consistency.** Every table file is a header plus records framed
//! with a length prefix and an FNV-1a checksum, in one of two shapes. The
//! append logs (prefix table, checkpoint log) flush every record; a kill
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
    /// Entries loaded at open. For the prefix table, the distinct keys
    /// indexed: what a fetch can serve, with no module decoded until it is
    /// fetched.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_layout_is_stable() {
        let dir = std::env::temp_dir().join(format!("ubfuzz-store-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(PrefixStore::open(&dir).path(), dir.join("prefix.bin"));
        assert_eq!(CampaignLog::open(&dir, 0, 0).path(), dir.join("campaign.bin"));
        assert_eq!(BugCorpus::open(&dir).path(), dir.join("corpus.bin"));
        assert_eq!(LeaseTable::open(&dir).path(), dir.join("leases.bin"));
        assert_eq!(FrontierStore::open(&dir).path(), dir.join("frontier.bin"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
