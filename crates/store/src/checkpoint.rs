//! The campaign checkpoint log: group-granular persistence that makes a
//! killed campaign resumable with a bit-identical final report.
//!
//! A campaign's work decomposes into deterministically planned `(program,
//! sanitizer)` groups (see `ubfuzz::executor`), so a group is fully
//! identified by its **index** in that plan — provided both invocations
//! planned the same campaign. The log header therefore records the
//! campaign's fingerprint plus the planned group count; a mismatch on open
//! means "different campaign" and degrades to a fresh log (with an event),
//! never to mixing two campaigns' results.
//!
//! Each completed group is appended as one flushed record: `(index, writer,
//! payload)`, where the payload is the caller's encoded group result (the
//! campaign's verdict codec lives in `ubfuzz::persist`; this log never
//! interprets it) and `writer` stamps which log wrote it (0 = the primary,
//! otherwise a lease/shard id). Replayed payloads are byte-faithful, and
//! the campaign's canonical-order merge is a pure function of them — which
//! is exactly why replay-from-log reproduces the uninterrupted report
//! bit-for-bit.
//!
//! **Sharding.** Daemon mode leases contiguous group ranges to worker
//! *processes*. Giving every writer its own file keeps the single-writer
//! torn-tail recovery story intact: a worker opened via
//! [`CampaignLog::open_shard`] appends only to `campaign.s<id>.bin`, but
//! every open — primary or shard — *scans* the primary plus all shard
//! files, so each worker (and the daemon's final merge) sees the union of
//! completed groups. A SIGKILLed worker's partially written shard file is
//! recovered like any other log: valid records replay, the torn tail is
//! ignored (and truncated once that shard id's file is reopened for
//! writing). Re-issued leases get fresh shard ids, so two writers never
//! share a file.
//!
//! **Memory discipline.** Opening *validates* every record with a single
//! reusable buffer — the file header, the campaign-identity record, every
//! frame checksum and each record's group-index head — but decodes no
//! payload, and retains only each group's `(file, offset, length)` span.
//! [`CampaignLog::take_replay`] is the single decode: it reads one record
//! at its offset on demand, hands the payload to the caller's decoder and
//! clears its slot. A checksum-valid record whose payload does not decode
//! (a foreign defect id, version drift) is indexed like any other; its
//! `take_replay` answers `None`, records a `checkpoint replay decode
//! failed` event, and the campaign recomputes the group. The scan, the
//! tail recovery (a `set_len` truncation to the trusted byte count, no
//! record rewriting) and the append are the store's shared record-file
//! layer (`recfile`), so open cost is one sequential scan per file.

use crate::recfile::{self, Found};
use crate::wire::{Dec, Enc, TableKind, WireError};
use crate::{relock_noting, StoreTelemetry};
use std::fs::File;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the primary checkpoint log inside a store directory.
pub const CHECKPOINT_FILE: &str = "campaign.bin";

/// File name of one shard of the checkpoint log (daemon-mode lease).
pub fn shard_file(shard: u64) -> String {
    format!("campaign.s{shard}.bin")
}

/// Byte span of one validated record's payload: (scanned file index,
/// payload offset, payload length).
type PayloadSpan = (usize, u64, u32);

/// Record head: the group index and the writer stamp, both fixed-width, so
/// the caller's payload is the rest of the record.
const HEAD_LEN: usize = 16;

/// An open checkpoint log for one campaign plan.
#[derive(Debug)]
pub struct CampaignLog {
    /// The file this log *writes* (the primary, or one shard).
    path: PathBuf,
    /// Writer stamp appended to every record (0 = primary).
    writer_id: u64,
    /// Validated payload spans from previous invocations, indexed by group.
    /// Each slot is taken (and its record decoded) exactly once by
    /// [`CampaignLog::take_replay`].
    prior: Vec<Mutex<Option<PayloadSpan>>>,
    replayed: usize,
    /// Read handles for every scanned file, aligned with span file indices;
    /// replay reads at an offset, so concurrent takes share them unlocked.
    readers: Vec<Option<File>>,
    /// Append handle on `path`; `None` when the directory is unwritable
    /// (the campaign then runs uncheckpointed).
    file: Mutex<Option<File>>,
    telemetry: StoreTelemetry,
}

fn enc_header(campaign_fp: u64, groups: usize) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(campaign_fp);
    e.u64(groups as u64);
    e.into_bytes()
}

fn enc_record(index: usize, writer: u64, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(index as u64);
    e.u64(writer);
    e.raw(payload);
    e.into_bytes()
}

impl CampaignLog {
    /// Opens (or creates) the primary checkpoint log under `dir` for the
    /// campaign identified by `campaign_fp` with `groups` planned groups.
    /// Scans all shard files too, so a daemon merge replays every worker's
    /// completed groups.
    ///
    /// Never fails: a missing, corrupt, version-skewed or *mismatched*
    /// (different campaign) file degrades to an empty log, with the reason
    /// recorded in telemetry. A torn tail (kill mid-append) is truncated
    /// back to the last fully flushed record. Opening the primary removes
    /// shard files that fail their own header check (foreign campaign
    /// leftovers); shard opens never delete anything.
    pub fn open(dir: impl AsRef<Path>, campaign_fp: u64, groups: usize) -> CampaignLog {
        Self::open_as(dir.as_ref(), campaign_fp, groups, None)
    }

    /// Opens the checkpoint log as lease shard `shard`: scans the primary
    /// and every shard file (so completed groups replay instead of
    /// recomputing), but appends only to `campaign.s<shard>.bin`. Each
    /// lease must use a distinct shard id — single-writer-per-file is what
    /// keeps torn-tail recovery sound across SIGKILLed workers.
    pub fn open_shard(
        dir: impl AsRef<Path>,
        campaign_fp: u64,
        groups: usize,
        shard: u64,
    ) -> CampaignLog {
        Self::open_as(dir.as_ref(), campaign_fp, groups, Some(shard))
    }

    fn open_as(dir: &Path, campaign_fp: u64, groups: usize, shard: Option<u64>) -> CampaignLog {
        let _span = ubfuzz_obs::Span::enter(ubfuzz_obs::Stage::StoreOpen, 0);
        let telemetry = StoreTelemetry::default();
        let _ = std::fs::create_dir_all(dir);
        let primary = dir.join(CHECKPOINT_FILE);
        let target = match shard {
            None => primary.clone(),
            Some(id) => dir.join(shard_file(id)),
        };
        // Scan order: primary first, then shards by id — deterministic, so
        // identical opens build identical span tables.
        let mut files = vec![primary];
        files.extend(Self::shard_paths(dir));
        if !files.contains(&target) {
            files.push(target.clone());
        }
        let identity = enc_header(campaign_fp, groups);
        let mut spans: Vec<Option<PayloadSpan>> = (0..groups).map(|_| None).collect();
        let mut replayed = 0usize;
        let mut readers = Vec::with_capacity(files.len());
        let mut own = None;
        for (fi, path) in files.iter().enumerate() {
            let own_file = *path == target;
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("checkpoint");
            let mut ours = false;
            let mut scan = recfile::scan(path, TableKind::Checkpoint, |payload, payload_off| {
                if !ours {
                    // The first record pins the campaign identity.
                    ours = payload == identity;
                    return ours;
                }
                // Only the group-index head: the checksum already vouches
                // for the bytes, and `take_replay` decodes the payload once.
                match Dec::new(payload).usize() {
                    Ok(index) if index < groups => {
                        replayed += usize::from(spans[index].is_none());
                        spans[index] = Some((fi, payload_off, payload.len() as u32));
                        true
                    }
                    Ok(_) => {
                        telemetry.record_corruption(format!("{name}: group index out of plan"));
                        false
                    }
                    Err(e) => {
                        telemetry.record_corruption(format!("{name} record: {e}"));
                        false
                    }
                }
            });
            if scan.found == Found::Valid && !ours {
                // No identity record, or another campaign's: contributes
                // nothing.
                scan.found = Found::Foreign;
            }
            let valid = scan.found == Found::Valid;
            readers.push(scan.reader.take().filter(|_| valid));
            if own_file {
                // Only the file this open writes is recovered (its torn tail
                // truncated); foreign tails are merely distrusted.
                scan.report(&telemetry, name);
                own = Some(scan);
            } else if !valid && fi > 0 && shard.is_none() {
                // Primary open: a shard file that fails its own header
                // check belongs to a foreign campaign — sweep it.
                let _ = std::fs::remove_file(path);
            } else if scan.torn() {
                telemetry.record_corruption(format!("{name}: untrusted tail ignored"));
            }
        }
        let own = own.expect("write target is always scanned");
        let file = own.recover(&[identity], &telemetry, "checkpoint");
        telemetry.set_loaded(replayed);
        CampaignLog {
            path: target,
            writer_id: shard.unwrap_or(0),
            prior: spans.into_iter().map(Mutex::new).collect(),
            replayed,
            readers,
            file: Mutex::new(file),
            telemetry,
        }
    }

    /// Existing shard files under `dir`, sorted by shard id.
    fn shard_paths(dir: &Path) -> Vec<PathBuf> {
        let mut ids: Vec<u64> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(id) = name
                    .strip_prefix("campaign.s")
                    .and_then(|rest| rest.strip_suffix(".bin"))
                    .and_then(|id| id.parse::<u64>().ok())
                {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|id| dir.join(shard_file(id))).collect()
    }

    /// Takes group `index`'s replayed payload, reading its record on
    /// demand and handing the payload to `decode`. Consuming rather than
    /// preloading keeps resumed campaigns' memory proportional to the
    /// in-flight streaming window. `None` when nothing is logged for the
    /// group, or when its record cannot be read or decoded (recorded as an
    /// event; the caller recomputes the group).
    pub fn take_replay<T>(
        &self,
        index: usize,
        decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
    ) -> Option<T> {
        let _span = ubfuzz_obs::Span::enter(ubfuzz_obs::Stage::StoreReplay, index as u64);
        let (fi, offset, len) =
            relock_noting(self.prior.get(index)?, &self.telemetry, "replay slot lock")
                .take()?;
        let file = self.readers.get(fi)?.as_ref()?;
        let mut buf = vec![0u8; len as usize];
        if file.read_exact_at(&mut buf, offset).is_err() {
            // Disk trouble after a clean open: recompute instead.
            self.telemetry.record_corruption("checkpoint replay read failed".into());
            return None;
        }
        // The single decode of this record: open only checked its checksum
        // and index head, so an undecodable payload surfaces here and the
        // caller recomputes the group.
        let decoded = match (Dec::new(&buf).usize(), buf.get(HEAD_LEN..)) {
            (Ok(i), Some(payload)) if i == index => decode(payload).ok(),
            _ => None,
        };
        if decoded.is_none() {
            self.telemetry.record_corruption("checkpoint replay decode failed".into());
        }
        decoded
    }

    /// Whether group `index` has a not-yet-taken replayed record.
    pub fn has_replay(&self, index: usize) -> bool {
        self.prior.get(index).is_some_and(|slot| {
            relock_noting(slot, &self.telemetry, "replay slot lock").is_some()
        })
    }

    /// How many groups this log replays.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The writer stamp this log appends (0 = primary, else the shard id).
    pub fn writer_id(&self) -> u64 {
        self.writer_id
    }

    /// Appends (and flushes) one completed group's encoded result.
    pub fn record(&self, index: usize, payload: &[u8]) {
        let mut file = relock_noting(&self.file, &self.telemetry, "checkpoint file lock");
        let record = enc_record(index, self.writer_id, payload);
        recfile::append(&mut file, &record, &self.telemetry, "checkpoint");
    }

    /// On-disk bytes of the checkpoint log under `dir`: the primary plus
    /// every shard file.
    pub fn size_bytes(dir: &Path) -> u64 {
        std::iter::once(dir.join(CHECKPOINT_FILE))
            .chain(Self::shard_paths(dir))
            .filter_map(|path| std::fs::metadata(path).ok())
            .map(|m| m.len())
            .sum()
    }

    /// The file this log writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Open/append telemetry for this log.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ubfuzz-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Takes group `index`'s payload as raw bytes.
    fn take(log: &CampaignLog, index: usize) -> Option<Vec<u8>> {
        log.take_replay(index, |p| Ok(p.to_vec()))
    }

    #[test]
    fn records_replay_across_opens() {
        let dir = tmp_dir("replay");
        let log = CampaignLog::open(&dir, 42, 5);
        assert_eq!(log.replayed(), 0);
        log.record(0, b"");
        log.record(3, b"verdict");
        drop(log);

        let log = CampaignLog::open(&dir, 42, 5);
        assert_eq!(log.replayed(), 2);
        assert_eq!(take(&log, 0), Some(Vec::new()));
        let payload = take(&log, 3);
        assert_eq!(payload.as_deref(), Some(&b"verdict"[..]), "payloads replay byte-faithfully");
        assert_eq!(take(&log, 1), None);
        // Taking consumes the slot (the resume memory bound).
        assert_eq!(take(&log, 0), None);
        assert!(!log.has_replay(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_campaign_fingerprint_cold_starts() {
        let dir = tmp_dir("fp");
        let log = CampaignLog::open(&dir, 1, 3);
        log.record(0, b"x");
        drop(log);
        let other = CampaignLog::open(&dir, 2, 3);
        assert_eq!(other.replayed(), 0, "a different campaign must not replay");
        assert!(other.telemetry().recovered_cold());
        let events = other.telemetry().events();
        assert_eq!(events, ["campaign.bin: written by another campaign"], "{events:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        let log = CampaignLog::open(&dir, 7, 4);
        log.record(0, b"a");
        log.record(1, b"b");
        let path = log.path().to_path_buf();
        drop(log);
        // Tear the file mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let log = CampaignLog::open(&dir, 7, 4);
        assert_eq!(log.replayed(), 1, "only the fully flushed record survives");
        assert!(log.telemetry().tail_truncated());
        log.record(1, b"b");
        log.record(2, b"c");
        drop(log);
        let log = CampaignLog::open(&dir, 7, 4);
        assert_eq!(log.replayed(), 3);
        assert_eq!(take(&log, 1).as_deref(), Some(&b"b"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_take_and_record_share_the_handle() {
        // take_replay seeks into the middle of the file while record
        // appends at the end; the shared handle must keep both correct.
        let dir = tmp_dir("interleave");
        let log = CampaignLog::open(&dir, 9, 6);
        for i in 0..3u8 {
            log.record(i as usize, &[i]);
        }
        drop(log);
        let log = CampaignLog::open(&dir, 9, 6);
        assert_eq!(take(&log, 1), Some(vec![1]));
        log.record(4, &[4]);
        assert_eq!(take(&log, 0), Some(vec![0]));
        log.record(5, &[5]);
        assert_eq!(take(&log, 2), Some(vec![2]));
        drop(log);
        assert_eq!(CampaignLog::open(&dir, 9, 6).replayed(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_record_is_indexed_and_fails_only_its_replay() {
        // A checksum-valid record whose payload the caller's decoder
        // rejects (a defect id this build does not know), followed by a
        // valid record: open indexes both without truncating anything, and
        // only the bad record's replay fails — so the campaign recomputes
        // that group.
        let dir = tmp_dir("bad-payload");
        let log = CampaignLog::open(&dir, 21, 4);
        log.record(0, b"ok");
        log.record(1, b"bad");
        log.record(2, b"ok");
        let path = log.path().to_path_buf();
        drop(log);
        let on_disk = std::fs::metadata(&path).unwrap().len();

        let log = CampaignLog::open(&dir, 21, 4);
        assert!(!log.telemetry().recovered_cold());
        assert!(!log.telemetry().tail_truncated());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), on_disk, "nothing truncated");
        assert_eq!(log.replayed(), 3, "the undecodable record is indexed");
        assert!(log.telemetry().events().is_empty(), "{:?}", log.telemetry().events());
        let decode = |p: &[u8]| match p {
            b"ok" => Ok(()),
            _ => Err(WireError::Corrupt("unknown defect id")),
        };
        assert!(log.has_replay(1));
        assert_eq!(log.take_replay(1, decode), None);
        let events = log.telemetry().events();
        assert!(events.iter().any(|e| e == "checkpoint replay decode failed"), "{events:?}");
        assert!(!log.has_replay(1), "a failed replay consumes its slot");
        assert_eq!(log.take_replay(2, decode), Some(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_records_union_into_every_open() {
        let dir = tmp_dir("shards");
        // The daemon creates the primary (plan addressing), workers write
        // disjoint ranges to their own shards.
        let primary = CampaignLog::open(&dir, 11, 6);
        drop(primary);
        let a = CampaignLog::open_shard(&dir, 11, 6, 1);
        assert_eq!(a.writer_id(), 1);
        a.record(0, b"a0");
        a.record(1, b"a1");
        drop(a);
        let b = CampaignLog::open_shard(&dir, 11, 6, 2);
        // A later-opened shard replays earlier shards' completed groups.
        assert_eq!(b.replayed(), 2);
        assert!(b.has_replay(0) && b.has_replay(1));
        b.record(4, b"b4");
        drop(b);
        // The primary merge sees the union of all shards.
        let merged = CampaignLog::open(&dir, 11, 6);
        assert_eq!(merged.replayed(), 3);
        assert_eq!(take(&merged, 0).as_deref(), Some(&b"a0"[..]));
        assert_eq!(take(&merged, 4).as_deref(), Some(&b"b4"[..]));
        assert_eq!(take(&merged, 2), None);
        assert_eq!(
            CampaignLog::size_bytes(&dir),
            ["campaign.bin", "campaign.s1.bin", "campaign.s2.bin"]
                .iter()
                .map(|f| std::fs::metadata(dir.join(f)).unwrap().len())
                .sum::<u64>(),
            "the log's size counts the primary and every shard"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_shard_recovers_and_reissued_lease_skips_done_units() {
        let dir = tmp_dir("reissue");
        drop(CampaignLog::open(&dir, 13, 4));
        let w = CampaignLog::open_shard(&dir, 13, 4, 1);
        w.record(0, b"0");
        w.record(1, b"1");
        let shard_path = w.path().to_path_buf();
        drop(w);
        // SIGKILL mid-append: tear the shard file inside the last record.
        let bytes = std::fs::read(&shard_path).unwrap();
        std::fs::write(&shard_path, &bytes[..bytes.len() - 3]).unwrap();
        // The re-issued lease (fresh shard id) replays the intact record
        // and recomputes the torn one; the dead shard's file is untouched.
        let w2 = CampaignLog::open_shard(&dir, 13, 4, 2);
        assert_eq!(w2.replayed(), 1);
        assert!(w2.has_replay(0));
        assert!(!w2.has_replay(1), "torn record is recomputed, not trusted");
        w2.record(1, b"1");
        drop(w2);
        assert_eq!(CampaignLog::open(&dir, 13, 4).replayed(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn primary_cold_start_sweeps_foreign_shards() {
        let dir = tmp_dir("sweep");
        drop(CampaignLog::open(&dir, 1, 3));
        let s = CampaignLog::open_shard(&dir, 1, 3, 7);
        s.record(0, b"x");
        let shard_path = s.path().to_path_buf();
        drop(s);
        // A different campaign cold-starts the primary and removes the
        // now-foreign shard file.
        let other = CampaignLog::open(&dir, 2, 3);
        assert_eq!(other.replayed(), 0);
        assert!(!shard_path.exists(), "foreign shard swept on primary cold start");
        drop(other);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
