//! The campaign lease table: daemon-mode bookkeeping for which worker
//! process owns which contiguous unit range of a campaign plan.
//!
//! The table is *observability and durability*, not the scheduler — the
//! live scheduling truth is the daemon's in-memory ledger
//! (`ubfuzz_exec::lease::LeaseLedger`). The daemon mirrors every lease
//! transition here so that status queries, CI artifacts, and post-mortems
//! of a killed daemon can see who held what; the checkpoint shards
//! (`campaign.s<id>.bin`) remain the source of truth for completed work.
//!
//! A small snapshot like the bug corpus, loaded and rewritten whole by the
//! store's shared record-file layer (`recfile`) through a temp-file rename:
//! a kill mid-flush leaves the previous table intact.

use crate::recfile::Snapshot;
use crate::wire::{self, Dec, Enc, TableKind};
use crate::StoreTelemetry;
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the lease table inside a store directory.
pub const LEASE_FILE: &str = "leases.bin";

/// Lifecycle of one lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Granted to a live worker.
    Active,
    /// The worker finished its range.
    Done,
    /// The worker died or its deadline passed; the range was re-issued
    /// under a fresh lease id.
    Reclaimed,
}

impl LeaseState {
    fn tag(self) -> u8 {
        match self {
            LeaseState::Active => 0,
            LeaseState::Done => 1,
            LeaseState::Reclaimed => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<LeaseState, wire::WireError> {
        match tag {
            0 => Ok(LeaseState::Active),
            1 => Ok(LeaseState::Done),
            2 => Ok(LeaseState::Reclaimed),
            _ => Err(wire::WireError::Corrupt("lease state")),
        }
    }

    /// Display form used by the daemon's status endpoint.
    pub fn name(self) -> &'static str {
        match self {
            LeaseState::Active => "active",
            LeaseState::Done => "done",
            LeaseState::Reclaimed => "reclaimed",
        }
    }
}

/// One lease: a contiguous unit range granted to one worker process. The
/// lease id doubles as the worker's checkpoint shard id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// Lease id (== checkpoint shard id; unique per store directory).
    pub id: u64,
    /// Campaign fingerprint the range indexes into.
    pub campaign_fp: u64,
    /// First unit index (inclusive).
    pub start: u64,
    /// One past the last unit index (exclusive).
    pub end: u64,
    /// Worker process id, 0 when not yet spawned.
    pub pid: u64,
    /// Unix seconds when granted.
    pub granted: u64,
    /// Seconds the worker has to renew/finish before reclaim.
    pub ttl_secs: u64,
    /// Current lifecycle state.
    pub state: LeaseState,
}

fn enc_lease(lease: &LeaseRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(lease.id);
    e.u64(lease.campaign_fp);
    e.u64(lease.start);
    e.u64(lease.end);
    e.u64(lease.pid);
    e.u64(lease.granted);
    e.u64(lease.ttl_secs);
    e.u8(lease.state.tag());
    e.into_bytes()
}

fn dec_lease(payload: &[u8]) -> Result<LeaseRecord, wire::WireError> {
    let mut d = Dec::new(payload);
    let lease = LeaseRecord {
        id: d.u64()?,
        campaign_fp: d.u64()?,
        start: d.u64()?,
        end: d.u64()?,
        pid: d.u64()?,
        granted: d.u64()?,
        ttl_secs: d.u64()?,
        state: LeaseState::from_tag(d.u8()?)?,
    };
    d.finish()?;
    Ok(lease)
}

/// The on-disk lease table. Open never fails; corrupt or version-skewed
/// files degrade to an empty table with telemetry.
#[derive(Debug)]
pub struct LeaseTable {
    file: Snapshot,
    leases: BTreeMap<u64, LeaseRecord>,
}

impl LeaseTable {
    /// Opens (or creates) the lease table under `dir`.
    pub fn open(dir: impl AsRef<Path>) -> LeaseTable {
        let mut leases = BTreeMap::new();
        let file = Snapshot::open(dir, LEASE_FILE, TableKind::Lease, "lease", |payload| {
            let lease = dec_lease(payload)?;
            leases.insert(lease.id, lease);
            Ok(())
        });
        file.telemetry.set_loaded(leases.len());
        LeaseTable { file, leases }
    }

    /// Inserts or replaces one lease and rewrites the file.
    pub fn upsert(&mut self, lease: LeaseRecord) {
        self.leases.insert(lease.id, lease);
        self.flush();
    }

    /// Updates lease `id`'s state (no-op for unknown ids) and rewrites.
    pub fn set_state(&mut self, id: u64, state: LeaseState) {
        if let Some(lease) = self.leases.get_mut(&id) {
            lease.state = state;
            self.flush();
        }
    }

    /// Drops every lease of a foreign campaign (the daemon starting a new
    /// campaign in a reused store directory).
    pub fn retain_campaign(&mut self, campaign_fp: u64) {
        let before = self.leases.len();
        self.leases.retain(|_, l| l.campaign_fp == campaign_fp);
        if self.leases.len() != before {
            self.flush();
        }
    }

    /// The next unused lease id (ids are never reused, so a re-issued
    /// range always lands in a fresh checkpoint shard).
    pub fn next_id(&self) -> u64 {
        self.leases.keys().next_back().map_or(1, |id| id + 1)
    }

    fn flush(&self) {
        self.file.save(self.leases.values().map(enc_lease));
    }

    /// All leases, in id order.
    pub fn leases(&self) -> &BTreeMap<u64, LeaseRecord> {
        &self.leases
    }

    /// The file backing this table.
    pub fn path(&self) -> &Path {
        &self.file.path
    }

    /// Open/flush telemetry for this table.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.file.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recfile::tests::{snapshot_recovery, SnapshotTable};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ubfuzz-lease-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn lease(id: u64, fp: u64, range: std::ops::Range<u64>) -> LeaseRecord {
        LeaseRecord {
            id,
            campaign_fp: fp,
            start: range.start,
            end: range.end,
            pid: 4242,
            granted: 1000,
            ttl_secs: 60,
            state: LeaseState::Active,
        }
    }

    impl SnapshotTable for LeaseTable {
        const FILE: &'static str = LEASE_FILE;

        fn open(dir: &Path) -> LeaseTable {
            LeaseTable::open(dir)
        }

        fn fill(&mut self) {
            self.upsert(lease(1, 7, 0..10));
            self.upsert(lease(2, 7, 10..20));
        }

        fn len(&self) -> usize {
            self.leases().len()
        }

        fn telemetry(&self) -> &StoreTelemetry {
            self.telemetry()
        }
    }

    #[test]
    fn snapshot_recovery_suite() {
        snapshot_recovery::<LeaseTable>(&tmp_dir("suite"));
    }

    #[test]
    fn leases_survive_reopen_and_ids_never_reuse() {
        let dir = tmp_dir("roundtrip");
        let mut table = LeaseTable::open(&dir);
        assert_eq!(table.next_id(), 1);
        table.upsert(lease(1, 7, 0..10));
        table.upsert(lease(2, 7, 10..20));
        table.set_state(1, LeaseState::Done);
        drop(table);

        let table = LeaseTable::open(&dir);
        assert_eq!(table.leases().len(), 2);
        assert_eq!(table.leases()[&1].state, LeaseState::Done);
        assert_eq!(table.leases()[&2].state, LeaseState::Active);
        assert_eq!(table.next_id(), 3, "ids advance past everything on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_campaign_leases_are_dropped() {
        let dir = tmp_dir("foreign");
        let mut table = LeaseTable::open(&dir);
        table.upsert(lease(1, 7, 0..10));
        table.upsert(lease(2, 9, 0..10));
        table.retain_campaign(9);
        drop(table);
        let table = LeaseTable::open(&dir);
        assert_eq!(table.leases().len(), 1);
        assert_eq!(table.leases()[&2].campaign_fp, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_table_cold_starts() {
        let dir = tmp_dir("corrupt");
        let mut table = LeaseTable::open(&dir);
        table.upsert(lease(1, 7, 0..10));
        let path = table.path().to_path_buf();
        drop(table);
        std::fs::write(&path, b"garbage").unwrap();
        let table = LeaseTable::open(&dir);
        assert!(table.leases().is_empty());
        assert!(table.telemetry().recovered_cold());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
