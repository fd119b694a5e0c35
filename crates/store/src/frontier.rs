//! The campaign coverage frontier: which `(vendor, file, point)` sanitizer
//! coverage points any prior unit has hit, persisted so a warm campaign
//! resumes steering where the last one left off.
//!
//! The frontier is the feedback substrate of guided generation
//! (`ubfuzz-guide`): a campaign loads it at start, derives its generation
//! plan from `(campaign seed, frontier state)`, absorbs every unit's
//! [`CovDelta`] in canonical consumer order, and rewrites the file on
//! successful completion. Like the corpus, the table is a small snapshot
//! (bounded by the static `cov::POINTS` registry times two vendors), loaded
//! and rewritten whole by the store's shared record-file layer (`recfile`)
//! through the temp-file + rename protocol — a kill mid-save leaves the
//! previous frontier intact.
//!
//! Decoded points are re-interned against `cov::POINTS` via
//! [`ubfuzz_simcc::cov::lookup`]; a pair the registry does not know is
//! corruption (the scan stops there, trusting the valid prefix), and a
//! missing/corrupt/version-skewed file is a cold start with telemetry —
//! never an error, same contract as every other table.

use crate::recfile::Snapshot;
use crate::wire::{self, Dec, Enc, TableKind};
use crate::StoreTelemetry;
use std::path::Path;
use ubfuzz_simcc::cov::{self, CovDelta, CovPoint};
#[cfg(test)]
use ubfuzz_simcc::Vendor;

/// File name of the frontier table inside a store directory.
pub const FRONTIER_FILE: &str = "frontier.bin";

/// Encodes one coverage point.
fn enc_cov_point(e: &mut Enc, (vendor, file, point): CovPoint) {
    crate::modser::enc_vendor(e, vendor);
    e.vstr(file);
    e.vstr(point);
}

/// Decodes one coverage point, re-interning `(file, point)` against the
/// static registry — an unknown pair is corruption, not a new point.
fn dec_cov_point(d: &mut Dec<'_>) -> Result<CovPoint, wire::WireError> {
    let vendor = crate::modser::dec_vendor(d)?;
    let file = d.vstr()?;
    let point = d.vstr()?;
    let (file, point) =
        cov::lookup(&file, &point).ok_or(wire::WireError::Corrupt("unknown coverage point"))?;
    Ok((vendor, file, point))
}

/// The on-disk coverage frontier. Open never fails; corrupt or
/// version-skewed files degrade to an empty frontier with telemetry.
#[derive(Debug)]
pub struct FrontierStore {
    file: Snapshot,
    covered: CovDelta,
}

impl FrontierStore {
    /// Opens (or creates) the frontier under `dir`.
    pub fn open(dir: impl AsRef<Path>) -> FrontierStore {
        let mut covered = CovDelta::new();
        let file = Snapshot::open(dir, FRONTIER_FILE, TableKind::Frontier, "frontier", |payload| {
            let mut d = Dec::new(payload);
            covered.insert(dec_cov_point(&mut d)?);
            d.finish()
        });
        file.telemetry.set_loaded(covered.len());
        FrontierStore { file, covered }
    }

    /// Replaces the persisted frontier with `covered` (the campaign's final
    /// union of loaded state and per-unit deltas) and rewrites the file.
    pub fn save(&mut self, covered: &CovDelta) {
        self.covered = covered.clone();
        self.file.save(self.covered.iter().map(|point| {
            let mut e = Enc::new();
            enc_cov_point(&mut e, point);
            e.into_bytes()
        }));
    }

    /// The loaded (or last-saved) covered point set, in canonical order.
    pub fn covered(&self) -> &CovDelta {
        &self.covered
    }

    /// Number of covered points.
    pub fn len(&self) -> usize {
        self.covered.len()
    }

    /// Whether the frontier is empty (cold).
    pub fn is_empty(&self) -> bool {
        self.covered.is_empty()
    }

    /// On-disk size of `frontier.bin` in bytes (0 when no file exists
    /// yet). The frontier is rewritten wholesale rather than appended, so
    /// the file length IS the table size — no log accounting to consult.
    /// Feeds the `[store] size:` line and the compaction budget split,
    /// which must account every table in the directory.
    pub fn size_bytes(&self) -> u64 {
        std::fs::metadata(&self.file.path).map(|m| m.len()).unwrap_or(0)
    }

    /// The file backing this frontier.
    pub fn path(&self) -> &Path {
        &self.file.path
    }

    /// Open/save telemetry for this frontier.
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
            "ubfuzz-frontier-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> CovDelta {
        let mut d = CovDelta::new();
        d.insert((Vendor::Gcc, "asan.rs", "run"));
        d.insert((Vendor::Gcc, "ubsan.rs", "arith_check"));
        d.insert((Vendor::Llvm, "msan.rs", "run"));
        d
    }

    impl SnapshotTable for FrontierStore {
        const FILE: &'static str = FRONTIER_FILE;

        fn open(dir: &Path) -> FrontierStore {
            FrontierStore::open(dir)
        }

        fn fill(&mut self) {
            self.save(&sample());
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
        snapshot_recovery::<FrontierStore>(&tmp_dir("suite"));
    }

    #[test]
    fn frontier_round_trips_across_opens() {
        let dir = tmp_dir("roundtrip");
        let mut store = FrontierStore::open(&dir);
        assert!(store.is_empty());
        assert_eq!(store.size_bytes(), 0, "no file yet");
        store.save(&sample());
        drop(store);
        let store = FrontierStore::open(&dir);
        assert_eq!(store.covered(), &sample());
        assert_eq!(store.telemetry().loaded(), 3);
        assert!(store.size_bytes() > 0, "size reads the on-disk file length");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let dir = tmp_dir("torn");
        let mut store = FrontierStore::open(&dir);
        store.save(&sample());
        let path = store.path().to_path_buf();
        drop(store);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let store = FrontierStore::open(&dir);
        assert_eq!(store.len(), 2, "valid prefix loads, torn record dropped");
        assert!(store.telemetry().tail_truncated());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_and_garbage_cold_start() {
        let dir = tmp_dir("skew");
        let mut store = FrontierStore::open(&dir);
        store.save(&sample());
        let path = store.path().to_path_buf();
        drop(store);
        // Future format version: degrade to cold, never error.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = wire::FORMAT_VERSION + 1;
        std::fs::write(&path, &bytes).unwrap();
        let store = FrontierStore::open(&dir);
        assert!(store.is_empty());
        assert!(store.telemetry().recovered_cold());
        drop(store);
        std::fs::write(&path, b"garbage").unwrap();
        let store = FrontierStore::open(&dir);
        assert!(store.is_empty());
        assert!(store.telemetry().recovered_cold());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_points_are_corruption_not_new_points() {
        let dir = tmp_dir("unknown");
        let mut e = Enc::new();
        crate::modser::enc_vendor(&mut e, Vendor::Gcc);
        e.vstr("asan.rs");
        e.vstr("no_such_point");
        let mut file = wire::header(TableKind::Frontier);
        file.extend_from_slice(&wire::frame(&e.into_bytes()));
        let _ = std::fs::create_dir_all(&dir);
        std::fs::write(dir.join(FRONTIER_FILE), &file).unwrap();
        let store = FrontierStore::open(&dir);
        assert!(store.is_empty());
        assert!(store
            .telemetry()
            .events()
            .iter()
            .any(|e| e.contains("unknown coverage point")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_codec_round_trips() {
        // The frontier stores a delta as one record per point.
        let mut e = Enc::new();
        for point in sample().iter() {
            enc_cov_point(&mut e, point);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back: CovDelta = (0..sample().len()).map(|_| dec_cov_point(&mut d).unwrap()).collect();
        d.finish().unwrap();
        assert_eq!(back, sample());
    }
}
