//! The campaign lease table: which worker process owns which contiguous
//! group range of a campaign plan, and the daemon's only lease ledger.
//!
//! The daemon carves a campaign's `(program, sanitizer)` group index space
//! `0..groups` into contiguous **leases** ([`LeaseTable::carve`]) and hands
//! each one to a worker *process*: an id, the range, a holder pid, and a
//! deadline of `granted + ttl_secs`. The same records that schedule the
//! campaign are the ones `leases.bin` holds, so status queries, CI
//! artifacts, and post-mortems of a killed daemon see who held what; the
//! checkpoint shards (`campaign.s<id>.bin`) remain the source of truth for
//! completed work, so a daemon restart simply re-carves and replays.
//!
//! Lease ids are never reused. A failed or expired lease is *re-issued* as
//! a fresh lease over the same range ([`LeaseTable::reclaim`]), so the
//! replacement worker writes a fresh checkpoint shard
//! (single-writer-per-file) and its open-time replay scan skips whatever
//! the dead worker already completed.
//!
//! A small snapshot like the bug corpus, loaded and rewritten whole by the
//! store's shared record-file layer (`recfile`) through a temp-file rename:
//! a kill mid-flush leaves the previous table intact. Carved-but-unclaimed
//! leases are [`LeaseState::Pending`] and live in memory only: carving,
//! cancelling, or reclaiming a lease that was never granted leaves the file
//! alone, and every other transition rewrites it once.

use crate::recfile::Snapshot;
use crate::wire::{self, Dec, Enc, TableKind};
use crate::StoreTelemetry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

/// File name of the lease table inside a store directory.
pub const LEASE_FILE: &str = "leases.bin";

/// Lifecycle of one lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Carved but not yet granted to a worker (in memory only: never
    /// written to the file).
    Pending,
    /// Granted to a live worker.
    Active,
    /// The worker finished its range.
    Done,
    /// The worker died, could not be spawned, or its deadline passed; the
    /// range was re-issued under a fresh lease id.
    Reclaimed,
}

impl LeaseState {
    /// The on-disk tag; `None` for the memory-only pending state.
    fn tag(self) -> Option<u8> {
        match self {
            LeaseState::Pending => None,
            LeaseState::Active => Some(0),
            LeaseState::Done => Some(1),
            LeaseState::Reclaimed => Some(2),
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
            LeaseState::Pending => "pending",
            LeaseState::Active => "active",
            LeaseState::Done => "done",
            LeaseState::Reclaimed => "reclaimed",
        }
    }
}

/// One lease: a contiguous group range granted to one worker process. The
/// lease id doubles as the worker's checkpoint shard id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// Lease id (== checkpoint shard id; unique per store directory).
    pub id: u64,
    /// Campaign fingerprint the range indexes into.
    pub campaign_fp: u64,
    /// First group index (inclusive).
    pub start: u64,
    /// One past the last group index (exclusive).
    pub end: u64,
    /// Worker process id, 0 when not yet spawned.
    pub pid: u64,
    /// Unix seconds when granted (0 while pending).
    pub granted: u64,
    /// Seconds the worker has to finish before reclaim.
    pub ttl_secs: u64,
    /// Current lifecycle state.
    pub state: LeaseState,
}

/// The record's on-disk bytes; `None` for a pending lease.
fn enc_lease(lease: &LeaseRecord) -> Option<Vec<u8>> {
    let tag = lease.state.tag()?;
    let mut e = Enc::new();
    e.u64(lease.id);
    e.u64(lease.campaign_fp);
    e.u64(lease.start);
    e.u64(lease.end);
    e.u64(lease.pid);
    e.u64(lease.granted);
    e.u64(lease.ttl_secs);
    e.u8(tag);
    Some(e.into_bytes())
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

/// Splits `0..n` into at most `parts` contiguous, near-equal, non-empty
/// ranges (earlier ranges take the remainder).
fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.min(n.max(1)).max(1);
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The lease table and ledger. Open never fails; corrupt or version-skewed
/// files degrade to an empty table with telemetry.
///
/// The ledger operations ([`carve`](LeaseTable::carve) through
/// [`all_done`](LeaseTable::all_done)) act on this run's leases only:
/// those numbered from the last carve's first id on. Older leases (earlier
/// campaigns, or a killed daemon's) stay in the file for post-mortems but
/// are never granted, expired, or waited on.
#[derive(Debug)]
pub struct LeaseTable {
    file: Snapshot,
    leases: BTreeMap<u64, LeaseRecord>,
    /// First id of this run's carve.
    first: u64,
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
        let mut table = LeaseTable { file, leases, first: 0 };
        table.first = table.next_id();
        table
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

    /// Starts a run: carves groups `0..groups` of campaign `campaign_fp` into at
    /// most `parts` contiguous pending leases of `ttl_secs` each, numbered
    /// past every lease in the table so shard files never collide.
    pub fn carve(&mut self, campaign_fp: u64, groups: usize, parts: usize, ttl_secs: u64) {
        self.first = self.next_id();
        for (id, range) in (self.first..).zip(chunk_ranges(groups, parts)) {
            self.leases.insert(
                id,
                LeaseRecord {
                    id,
                    campaign_fp,
                    start: range.start as u64,
                    end: range.end as u64,
                    pid: 0,
                    granted: 0,
                    ttl_secs,
                    state: LeaseState::Pending,
                },
            );
        }
    }

    /// This run's leases, in id (= issue) order.
    pub fn run(&self) -> impl Iterator<Item = &LeaseRecord> {
        self.leases.range(self.first..).map(|(_, l)| l)
    }

    /// The first pending lease of this run: the next one to grant.
    pub fn next_pending(&self) -> Option<&LeaseRecord> {
        self.run().find(|l| l.state == LeaseState::Pending)
    }

    /// Grants pending lease `id` to worker `pid` at `now` (its deadline is
    /// `now + ttl_secs`) and rewrites. `false` for unknown or non-pending
    /// ids.
    pub fn claim(&mut self, id: u64, pid: u64, now: u64) -> bool {
        match self.run_lease_mut(id) {
            Some(l) if l.state == LeaseState::Pending => {
                l.pid = pid;
                l.granted = now;
                l.state = LeaseState::Active;
                self.flush();
                true
            }
            _ => false,
        }
    }

    /// Marks an active lease done and rewrites. Returns `false` for unknown
    /// or non-active ids (a late completion from an already-reclaimed
    /// worker is ignored — its replacement owns the range now).
    pub fn complete(&mut self, id: u64) -> bool {
        match self.run_lease_mut(id) {
            Some(l) if l.state == LeaseState::Active => {
                l.state = LeaseState::Done;
                self.flush();
                true
            }
            _ => false,
        }
    }

    /// Reclaims an active or pending lease and re-issues its range as a
    /// fresh pending lease with a new id. Returns the replacement id. Only
    /// a granted lease is in the file, so only its reclaim rewrites it.
    pub fn reclaim(&mut self, id: u64) -> Option<u64> {
        let new_id = self.next_id();
        let lease = self.run_lease_mut(id)?;
        let granted = match lease.state {
            LeaseState::Active => true,
            LeaseState::Pending => false,
            LeaseState::Done | LeaseState::Reclaimed => return None,
        };
        lease.state = LeaseState::Reclaimed;
        let reissue = LeaseRecord {
            id: new_id,
            pid: 0,
            granted: 0,
            state: LeaseState::Pending,
            ..lease.clone()
        };
        self.leases.insert(new_id, reissue);
        if granted {
            self.flush();
        }
        Some(new_id)
    }

    /// Drops this run's pending leases: a failed campaign grants nothing
    /// more (they were never in the file, so nothing is rewritten).
    pub fn cancel_pending(&mut self) {
        let first = self.first;
        self.leases.retain(|id, l| *id < first || l.state != LeaseState::Pending);
    }

    /// Ids of this run's active leases whose deadline
    /// (`granted + ttl_secs`) has passed at `now`.
    pub fn expired(&self, now: u64) -> Vec<u64> {
        self.run()
            .filter(|l| l.state == LeaseState::Active && l.granted.saturating_add(l.ttl_secs) < now)
            .map(|l| l.id)
            .collect()
    }

    /// True once every range chain of this run has terminated in a done
    /// lease (nothing pending or active remains).
    pub fn all_done(&self) -> bool {
        self.run().all(|l| matches!(l.state, LeaseState::Done | LeaseState::Reclaimed))
    }

    fn run_lease_mut(&mut self, id: u64) -> Option<&mut LeaseRecord> {
        let first = self.first;
        self.leases.get_mut(&id).filter(|l| l.id >= first)
    }

    fn flush(&self) {
        self.file.save(self.leases.values().filter_map(enc_lease));
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

    /// Grants every pending lease of the run to `pid`, in issue order.
    fn claim_all(table: &mut LeaseTable, pid: u64, now: u64) -> Vec<u64> {
        let mut ids = Vec::new();
        while let Some(id) = table.next_pending().map(|l| l.id) {
            assert!(table.claim(id, pid, now));
            ids.push(id);
        }
        ids
    }

    impl SnapshotTable for LeaseTable {
        const FILE: &'static str = LEASE_FILE;

        fn open(dir: &Path) -> LeaseTable {
            LeaseTable::open(dir)
        }

        fn fill(&mut self) {
            self.carve(7, 20, 2, 60);
            claim_all(self, 4242, 1000);
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
    fn chunk_ranges_are_contiguous_and_balanced() {
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_ranges(4, 8), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        let ranges = chunk_ranges(17, 4);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 17);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn carve_covers_the_unit_space_contiguously() {
        let dir = tmp_dir("carve");
        let mut table = LeaseTable::open(&dir);
        table.carve(7, 17, 4, 60);
        let leases: Vec<_> = table.run().collect();
        assert_eq!(leases.len(), 4);
        assert_eq!(leases[0].start, 0);
        assert_eq!(leases.last().unwrap().end, 17);
        for pair in leases.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(leases.iter().all(|l| l.state == LeaseState::Pending));
        assert!(!table.path().exists(), "pending leases are never written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_complete_drains_to_all_done() {
        let dir = tmp_dir("drain");
        let mut table = LeaseTable::open(&dir);
        table.carve(7, 10, 2, 30);
        let a = table.next_pending().unwrap().id;
        assert!(table.claim(a, 100, 50));
        let b = table.next_pending().unwrap().id;
        assert!(table.claim(b, 101, 50));
        let la = &table.leases()[&a];
        assert_eq!((la.pid, la.granted + la.ttl_secs), (100, 80));
        assert!(table.next_pending().is_none(), "nothing left to carve");
        assert!(!table.all_done());
        assert!(table.complete(a));
        assert!(table.complete(b));
        assert!(table.all_done());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_lease_reissues_same_range_under_fresh_id() {
        let dir = tmp_dir("reissue");
        let mut table = LeaseTable::open(&dir);
        table.carve(7, 10, 2, 30);
        let a = table.next_pending().unwrap().clone();
        assert!(table.claim(a.id, 100, 0));
        let replacement = table.reclaim(a.id).unwrap();
        assert!(replacement > a.id, "ids are never reused");
        // The next claims get the untouched second carve and the re-issue;
        // drain both and check the re-issued range survives.
        let claimed = claim_all(&mut table, 200, 10);
        assert_eq!(claimed.len(), 2);
        let ranges: Vec<_> =
            claimed.iter().map(|id| table.leases()[id].start..table.leases()[id].end).collect();
        assert!(ranges.contains(&(a.start..a.end)), "failed range re-enters the pool");
        // A late completion from the dead worker is ignored.
        assert!(!table.complete(a.id));
        for id in claimed {
            assert!(table.complete(id));
        }
        assert!(table.all_done());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expiry_is_deadline_based() {
        let dir = tmp_dir("expiry");
        let mut table = LeaseTable::open(&dir);
        table.carve(7, 4, 1, 60);
        let a = claim_all(&mut table, 100, 1000)[0];
        assert!(table.expired(1059).is_empty());
        assert_eq!(table.expired(1061), vec![a]);
        table.reclaim(a).unwrap();
        assert!(table.expired(2000).is_empty(), "failed leases stop expiring");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_campaign_is_immediately_done() {
        let dir = tmp_dir("empty");
        let mut table = LeaseTable::open(&dir);
        table.carve(7, 0, 4, 60);
        assert!(table.run().next().is_none());
        assert!(table.all_done());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leases_survive_reopen_and_ids_never_reuse() {
        let dir = tmp_dir("roundtrip");
        let mut table = LeaseTable::open(&dir);
        assert_eq!(table.next_id(), 1);
        table.carve(7, 20, 2, 60);
        claim_all(&mut table, 4242, 1000);
        assert!(table.complete(1));
        drop(table);

        let mut table = LeaseTable::open(&dir);
        assert_eq!(table.leases().len(), 2);
        assert_eq!(table.leases()[&1].state, LeaseState::Done);
        assert_eq!(table.leases()[&2].state, LeaseState::Active);
        assert_eq!(table.next_id(), 3, "ids advance past everything on disk");
        // A new run neither grants nor waits on the previous run's leases.
        table.carve(7, 20, 1, 60);
        assert_eq!(table.run().map(|l| l.id).collect::<Vec<_>>(), vec![3]);
        assert!(table.expired(u64::MAX).is_empty());
        assert!(!table.complete(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_campaign_leases_are_dropped() {
        let dir = tmp_dir("foreign");
        let mut table = LeaseTable::open(&dir);
        table.carve(7, 10, 1, 60);
        claim_all(&mut table, 4242, 1000);
        table.carve(9, 10, 1, 60);
        claim_all(&mut table, 4242, 1000);
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
        table.carve(7, 10, 1, 60);
        claim_all(&mut table, 4242, 1000);
        let path = table.path().to_path_buf();
        drop(table);
        std::fs::write(&path, b"garbage").unwrap();
        let table = LeaseTable::open(&dir);
        assert!(table.leases().is_empty());
        assert!(table.telemetry().recovered_cold());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
