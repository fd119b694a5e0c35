//! The cross-invocation bug corpus: every deduplicated bug a campaign has
//! ever found, keyed by its stable attribution key, with first-seen /
//! last-seen provenance.
//!
//! The paper's months-long campaigns live or die on triage: a finding is
//! only actionable against a stable, deduplicated history (SoK: Sanitizing
//! for Security makes the same point for FP/FN findings generally). The
//! corpus is that history — campaigns merge their `FoundBug`s in, and the
//! merge is idempotent per key: re-finding a known bug updates provenance
//! (`last_seen`, campaign count, duplicate totals) instead of duplicating
//! the entry.
//!
//! Unlike the append logs, the corpus is small (tens of entries): a
//! snapshot in the store's shared record-file layer (`recfile`), loaded
//! whole at open and rewritten whole on every merge through a temp-file
//! rename, which is atomic on POSIX — a kill mid-merge leaves the previous
//! corpus intact.

use crate::recfile::Snapshot;
use crate::wire::{self, Dec, Enc, TableKind};
use crate::StoreTelemetry;
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the corpus table inside a store directory.
pub const CORPUS_FILE: &str = "corpus.bin";

/// One bug as a campaign reports it (the store-side mirror of
/// `ubfuzz::FoundBug`, by value so the store crate stays below the campaign
/// crate in the dependency order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugRecord {
    /// The campaign's stable dedup/attribution key.
    pub key: String,
    /// Vendor name (display form).
    pub vendor: String,
    /// Sanitizer name (display form).
    pub sanitizer: String,
    /// Ground-truth UB kind name.
    pub kind: String,
    /// Attributed defect id, when attribution succeeded.
    pub defect_id: Option<String>,
    /// True for the invalid-report shape.
    pub invalid: bool,
    /// True for wrong-report bugs.
    pub wrong_report: bool,
    /// A triggering test case.
    pub test_case: String,
    /// Triggering programs deduplicated into this bug by the reporting
    /// campaign.
    pub duplicates: u64,
}

/// A corpus entry: the bug plus cross-invocation provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The bug (test case and duplicate count are from the *first* finding
    /// campaign; later campaigns only grow the provenance).
    pub bug: BugRecord,
    /// Unix seconds when a campaign first merged this bug.
    pub first_seen: u64,
    /// Unix seconds when a campaign most recently merged this bug.
    pub last_seen: u64,
    /// How many campaign merges contained this bug.
    pub campaigns: u64,
    /// Total duplicates across all merges.
    pub total_duplicates: u64,
}

/// Summary of one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeSummary {
    /// Bugs not previously in the corpus.
    pub new: usize,
    /// Bugs already known (provenance updated).
    pub known: usize,
}

/// The on-disk corpus. Open never fails; corrupt or version-skewed files
/// degrade to an empty corpus with telemetry.
#[derive(Debug)]
pub struct BugCorpus {
    file: Snapshot,
    entries: BTreeMap<String, CorpusEntry>,
}

fn enc_entry(entry: &CorpusEntry) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&entry.bug.key);
    e.str(&entry.bug.vendor);
    e.str(&entry.bug.sanitizer);
    e.str(&entry.bug.kind);
    match &entry.bug.defect_id {
        Some(id) => {
            e.u8(1);
            e.str(id);
        }
        None => e.u8(0),
    }
    e.bool(entry.bug.invalid);
    e.bool(entry.bug.wrong_report);
    e.str(&entry.bug.test_case);
    e.u64(entry.bug.duplicates);
    e.u64(entry.first_seen);
    e.u64(entry.last_seen);
    e.u64(entry.campaigns);
    e.u64(entry.total_duplicates);
    e.into_bytes()
}

fn dec_entry(payload: &[u8]) -> Result<CorpusEntry, wire::WireError> {
    let mut d = Dec::new(payload);
    let key = d.str()?;
    let vendor = d.str()?;
    let sanitizer = d.str()?;
    let kind = d.str()?;
    let defect_id = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        _ => return Err(wire::WireError::Corrupt("defect id")),
    };
    let entry = CorpusEntry {
        bug: BugRecord {
            key,
            vendor,
            sanitizer,
            kind,
            defect_id,
            invalid: d.bool()?,
            wrong_report: d.bool()?,
            test_case: d.str()?,
            duplicates: d.u64()?,
        },
        first_seen: d.u64()?,
        last_seen: d.u64()?,
        campaigns: d.u64()?,
        total_duplicates: d.u64()?,
    };
    d.finish()?;
    Ok(entry)
}

impl BugCorpus {
    /// Opens (or creates) the corpus under `dir`.
    pub fn open(dir: impl AsRef<Path>) -> BugCorpus {
        let mut entries = BTreeMap::new();
        let file = Snapshot::open(dir, CORPUS_FILE, TableKind::Corpus, "corpus", |payload| {
            let entry = dec_entry(payload)?;
            entries.insert(entry.bug.key.clone(), entry);
            Ok(())
        });
        file.telemetry.set_loaded(entries.len());
        BugCorpus { file, entries }
    }

    /// Merges one campaign's bugs, stamped `now` (unix seconds), and
    /// rewrites the file. Idempotent per key: a bug already present only
    /// updates provenance.
    pub fn merge(&mut self, bugs: &[BugRecord], now: u64) -> MergeSummary {
        let mut summary = MergeSummary::default();
        for bug in bugs {
            match self.entries.get_mut(&bug.key) {
                Some(entry) => {
                    summary.known += 1;
                    entry.last_seen = now.max(entry.last_seen);
                    entry.campaigns += 1;
                    entry.total_duplicates += bug.duplicates;
                }
                None => {
                    summary.new += 1;
                    self.entries.insert(
                        bug.key.clone(),
                        CorpusEntry {
                            bug: bug.clone(),
                            first_seen: now,
                            last_seen: now,
                            campaigns: 1,
                            total_duplicates: bug.duplicates,
                        },
                    );
                }
            }
        }
        self.file.save(self.entries.values().map(enc_entry));
        summary
    }

    /// All entries, in stable key order.
    pub fn entries(&self) -> &BTreeMap<String, CorpusEntry> {
        &self.entries
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The file backing this corpus.
    pub fn path(&self) -> &Path {
        &self.file.path
    }

    /// Open/flush telemetry for this corpus.
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
            "ubfuzz-corpus-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bug(key: &str, duplicates: u64) -> BugRecord {
        BugRecord {
            key: key.into(),
            vendor: "GCC".into(),
            sanitizer: "ASan".into(),
            kind: "UseAfterFree".into(),
            defect_id: Some("gcc-asan-d02".into()),
            invalid: false,
            wrong_report: false,
            test_case: "int main(void) { return 0; }".into(),
            duplicates,
        }
    }

    impl SnapshotTable for BugCorpus {
        const FILE: &'static str = CORPUS_FILE;

        fn open(dir: &Path) -> BugCorpus {
            BugCorpus::open(dir)
        }

        fn fill(&mut self) {
            self.merge(&[bug("a", 1), bug("b", 1), bug("c", 2)], 1);
        }

        fn len(&self) -> usize {
            self.len()
        }

        fn telemetry(&self) -> &StoreTelemetry {
            self.telemetry()
        }
    }

    #[test]
    fn snapshot_recovery_suite() {
        snapshot_recovery::<BugCorpus>(&tmp_dir("suite"));
    }

    #[test]
    fn merge_is_idempotent_per_key_with_provenance() {
        let dir = tmp_dir("merge");
        let mut corpus = BugCorpus::open(&dir);
        let s = corpus.merge(&[bug("defect:gcc-asan-d02", 3)], 100);
        assert_eq!(s, MergeSummary { new: 1, known: 0 });
        drop(corpus);

        // Second invocation re-finds the same bug.
        let mut corpus = BugCorpus::open(&dir);
        assert_eq!(corpus.len(), 1);
        let s = corpus.merge(&[bug("defect:gcc-asan-d02", 2), bug("defect:other", 1)], 200);
        assert_eq!(s, MergeSummary { new: 1, known: 1 });
        let entry = &corpus.entries()["defect:gcc-asan-d02"];
        assert_eq!((entry.first_seen, entry.last_seen), (100, 200));
        assert_eq!(entry.campaigns, 2);
        assert_eq!(entry.total_duplicates, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_torn_tail_is_flagged_not_silent() {
        let dir = tmp_dir("torn");
        let mut corpus = BugCorpus::open(&dir);
        corpus.merge(&[bug("a", 1), bug("b", 1)], 1);
        let path = corpus.path().to_path_buf();
        drop(corpus);
        // Flip a byte inside the LAST record's payload: entry "a" survives,
        // "b" fails its checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 20] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();

        let corpus = BugCorpus::open(&dir);
        assert_eq!(corpus.len(), 1, "valid prefix loads");
        assert!(corpus.telemetry().tail_truncated(), "loss must be flagged");
        assert!(
            corpus.telemetry().events().iter().any(|e| e.contains("tail dropped")),
            "{:?}",
            corpus.telemetry().events()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_corpus_cold_starts() {
        let dir = tmp_dir("corrupt");
        let mut corpus = BugCorpus::open(&dir);
        corpus.merge(&[bug("k", 1)], 1);
        let path = corpus.path().to_path_buf();
        drop(corpus);
        std::fs::write(&path, b"not a corpus at all").unwrap();
        let corpus = BugCorpus::open(&dir);
        assert!(corpus.is_empty());
        assert!(corpus.telemetry().recovered_cold());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
