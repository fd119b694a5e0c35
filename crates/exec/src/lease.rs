//! Lease-based range scheduling for multi-process campaigns.
//!
//! The daemon carves a campaign's unit index space `0..units` into
//! contiguous ranges (via [`crate::chunk_ranges`], the same split
//! [`crate::Executor::map`] seeds its workers with) and hands each range to
//! a worker *process* under a **lease**: an id, the range, a holder pid and
//! a deadline. The ledger is purely in-memory scheduling state — durability
//! lives in the store's checkpoint shards (the work itself) and lease table
//! (observability); a daemon restart re-carves from scratch and the shard
//! replay makes re-execution free.
//!
//! Lease ids are never reused. A failed or expired lease is *re-issued* as
//! a fresh lease over the same range, so the replacement worker writes a
//! fresh checkpoint shard (single-writer-per-file) and its open-time replay
//! scan skips whatever the dead worker already completed.

use std::ops::Range;

/// Lifecycle of one lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseStatus {
    /// Carved but not yet claimed by a worker.
    Pending,
    /// Held by a live worker, with a deadline.
    Active,
    /// The worker reported completion.
    Done,
    /// The worker died or overran its deadline; the range was re-issued.
    Failed,
}

/// One lease over a contiguous unit range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Unique id (doubles as the worker's checkpoint shard id).
    pub id: u64,
    /// Unit index range `[start, end)`.
    pub range: Range<usize>,
    /// Holder pid (0 while pending).
    pub holder: u64,
    /// Unix-seconds deadline (0 while pending).
    pub deadline: u64,
    /// Current status.
    pub status: LeaseStatus,
}

/// The daemon's in-memory lease ledger for one campaign.
#[derive(Debug)]
pub struct LeaseLedger {
    leases: Vec<Lease>,
    next_id: u64,
}

impl LeaseLedger {
    /// Carves `0..units` into at most `parts` contiguous pending leases,
    /// numbering them from `first_id` (take it past any ids already in the
    /// store's lease table so shard files never collide).
    pub fn carve(units: usize, parts: usize, first_id: u64) -> LeaseLedger {
        let mut next_id = first_id.max(1);
        let leases = crate::chunk_ranges(units, parts)
            .into_iter()
            .map(|range| {
                let id = next_id;
                next_id += 1;
                Lease { id, range, holder: 0, deadline: 0, status: LeaseStatus::Pending }
            })
            .collect();
        LeaseLedger { leases, next_id }
    }

    /// Claims the first pending lease for `holder`, arming a deadline of
    /// `now + ttl_secs`. Returns the claimed lease, or `None` when nothing
    /// is pending.
    pub fn claim(&mut self, holder: u64, now: u64, ttl_secs: u64) -> Option<Lease> {
        let lease =
            self.leases.iter_mut().find(|l| l.status == LeaseStatus::Pending)?;
        lease.holder = holder;
        lease.deadline = now.saturating_add(ttl_secs);
        lease.status = LeaseStatus::Active;
        Some(lease.clone())
    }

    /// Marks an active lease done. Returns `false` for unknown or
    /// non-active ids (a late completion from an already-reclaimed worker
    /// is ignored — its replacement owns the range now).
    pub fn complete(&mut self, id: u64) -> bool {
        match self.lease_mut(id) {
            Some(l) if l.status == LeaseStatus::Active => {
                l.status = LeaseStatus::Done;
                true
            }
            _ => false,
        }
    }

    /// Fails an active or pending lease and re-issues its range as a fresh
    /// pending lease with a new id. Returns the replacement id.
    pub fn fail(&mut self, id: u64) -> Option<u64> {
        let range = match self.lease_mut(id) {
            Some(l) if matches!(l.status, LeaseStatus::Active | LeaseStatus::Pending) => {
                l.status = LeaseStatus::Failed;
                l.range.clone()
            }
            _ => return None,
        };
        let new_id = self.next_id;
        self.next_id += 1;
        self.leases.push(Lease {
            id: new_id,
            range,
            holder: 0,
            deadline: 0,
            status: LeaseStatus::Pending,
        });
        Some(new_id)
    }

    /// Ids of active leases whose deadline has passed at `now`.
    pub fn expired(&self, now: u64) -> Vec<u64> {
        self.leases
            .iter()
            .filter(|l| l.status == LeaseStatus::Active && l.deadline < now)
            .map(|l| l.id)
            .collect()
    }

    /// True once every range chain has terminated in a done lease (nothing
    /// pending or active remains).
    pub fn all_done(&self) -> bool {
        self.leases
            .iter()
            .all(|l| matches!(l.status, LeaseStatus::Done | LeaseStatus::Failed))
    }

    /// All leases, in issue order.
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// One lease by id.
    pub fn lease(&self, id: u64) -> Option<&Lease> {
        self.leases.iter().find(|l| l.id == id)
    }

    fn lease_mut(&mut self, id: u64) -> Option<&mut Lease> {
        self.leases.iter_mut().find(|l| l.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_covers_the_unit_space_contiguously() {
        let ledger = LeaseLedger::carve(17, 4, 1);
        let leases = ledger.leases();
        assert_eq!(leases.len(), 4);
        assert_eq!(leases[0].range.start, 0);
        assert_eq!(leases.last().unwrap().range.end, 17);
        for pair in leases.windows(2) {
            assert_eq!(pair[0].range.end, pair[1].range.start);
        }
        assert!(leases.iter().all(|l| l.status == LeaseStatus::Pending));
    }

    #[test]
    fn claim_complete_drains_to_all_done() {
        let mut ledger = LeaseLedger::carve(10, 2, 1);
        let a = ledger.claim(100, 50, 30).unwrap();
        let b = ledger.claim(101, 50, 30).unwrap();
        assert_eq!((a.holder, a.deadline), (100, 80));
        assert!(ledger.claim(102, 50, 30).is_none(), "nothing left to carve");
        assert!(!ledger.all_done());
        assert!(ledger.complete(a.id));
        assert!(ledger.complete(b.id));
        assert!(ledger.all_done());
    }

    #[test]
    fn failed_lease_reissues_same_range_under_fresh_id() {
        let mut ledger = LeaseLedger::carve(10, 2, 5);
        let a = ledger.claim(100, 0, 30).unwrap();
        let replacement = ledger.fail(a.id).unwrap();
        assert!(replacement > a.id, "ids are never reused");
        let again = ledger.claim(200, 10, 30).unwrap();
        // The next claim may get the untouched second carve or the
        // re-issue; drain both and check the re-issued range survives.
        let other = ledger.claim(201, 10, 30).unwrap();
        let ranges: Vec<_> = [&again, &other].iter().map(|l| l.range.clone()).collect();
        assert!(ranges.contains(&a.range), "failed range re-enters the pool");
        // A late completion from the dead worker is ignored.
        assert!(!ledger.complete(a.id));
        assert!(ledger.complete(again.id));
        assert!(ledger.complete(other.id));
        assert!(ledger.all_done());
    }

    #[test]
    fn expiry_is_deadline_based() {
        let mut ledger = LeaseLedger::carve(4, 1, 1);
        let a = ledger.claim(100, 1000, 60).unwrap();
        assert!(ledger.expired(1059).is_empty());
        assert_eq!(ledger.expired(1061), vec![a.id]);
        ledger.fail(a.id).unwrap();
        assert!(ledger.expired(2000).is_empty(), "failed leases stop expiring");
    }

    #[test]
    fn empty_campaign_is_immediately_done() {
        let ledger = LeaseLedger::carve(0, 4, 1);
        assert!(ledger.leases().is_empty());
        assert!(ledger.all_done());
    }
}
