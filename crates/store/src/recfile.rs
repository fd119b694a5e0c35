//! The record-file layer: the one place a store table meets its file. Every
//! table file is a [`wire`] header followed by framed records, in one of two
//! shapes:
//!
//! * **Append logs** (the prefix table and the checkpoint log) [`scan`]
//!   the file at open, [`Scan::recover`] it to an appendable state — a torn
//!   tail truncated, an unusable header rewritten fresh — and [`append`]
//!   one flushed record per result.
//! * **Snapshots** (the bug corpus, the coverage frontier and the lease
//!   table) are small: [`Snapshot::open`] loads every record and
//!   [`Snapshot::save`] rewrites the whole file through the temp-file +
//!   rename protocol.
//!
//! A table supplies only its record codec and what it keeps per record; the
//! header check, the record walk, the trusted-prefix arithmetic and the
//! recovery are written here once.

use crate::wire::{self, TableKind, WireError};
use crate::StoreTelemetry;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};

/// What a [`scan`] found at a table's path.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Found {
    /// No file, or an empty one: a fresh start, nothing to report.
    Missing,
    /// A header that is not this table's current format: a cold start.
    Unusable(WireError),
    /// A valid header over another campaign's records (the checkpoint's
    /// identity record): a cold start.
    Foreign,
    /// A valid header; the records were scanned.
    Valid,
}

/// The outcome of one [`scan`].
#[derive(Debug)]
pub(crate) struct Scan {
    path: PathBuf,
    kind: TableKind,
    pub(crate) found: Found,
    /// End of the last record `keep` accepted (the header length when none):
    /// the prefix recovery keeps.
    pub(crate) trusted: u64,
    pub(crate) file_len: u64,
    /// The scan's read handle, kept when the header was valid.
    pub(crate) reader: Option<File>,
}

/// Streams the table file at `path`: checks its header for `kind`, then
/// hands each checksum-valid record's payload and payload offset to `keep`
/// in file order, through one reused buffer — memory stays O(largest
/// record) however large the file. The walk stops at the first torn or
/// corrupt record, or at the first record `keep` rejects by returning
/// `false`; that record and everything after it are untrusted.
pub(crate) fn scan(path: &Path, kind: TableKind, mut keep: impl FnMut(&[u8], u64) -> bool) -> Scan {
    let trusted = wire::HEADER_LEN as u64;
    let mut scan =
        Scan { path: path.into(), kind, found: Found::Missing, trusted, file_len: 0, reader: None };
    let Ok(mut file) = File::open(path) else { return scan };
    scan.file_len = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut header = [0u8; wire::HEADER_LEN];
    let read = file.read_exact(&mut header).map_err(|_| WireError::Truncated);
    if let Err(e) = read.and_then(|()| wire::check_header(&header, kind)) {
        if scan.file_len > 0 {
            scan.found = Found::Unusable(e);
        }
        return scan;
    }
    scan.found = Found::Valid;
    let mut buf = Vec::new();
    while let Some((payload_off, payload_len)) =
        wire::read_record_at(&mut file, scan.file_len, scan.trusted, &mut buf)
    {
        if !keep(&buf, payload_off) {
            break;
        }
        scan.trusted = payload_off + payload_len as u64 + 8;
    }
    scan.reader = Some(file);
    scan
}

impl Scan {
    /// Whether a valid file holds bytes past its trusted prefix: a torn or
    /// corrupt tail.
    pub(crate) fn torn(&self) -> bool {
        self.found == Found::Valid && self.trusted < self.file_len
    }

    /// Records what the scan found in the telemetry of the table that owns
    /// the file: an unusable header is a cold start with a `"{name} header:
    /// …"` event, a foreign file a cold start with a `"{name}: written by
    /// another campaign"` event, a torn tail a truncation.
    pub(crate) fn report(&self, telemetry: &StoreTelemetry, name: &str) {
        match &self.found {
            Found::Unusable(e) => {
                telemetry.record_corruption(format!("{name} header: {e}"));
                telemetry.record_cold_start();
            }
            Found::Foreign => {
                telemetry.record_corruption(format!("{name}: written by another campaign"));
                telemetry.record_cold_start();
            }
            _ if self.torn() => telemetry.record_tail_truncated(),
            _ => {}
        }
    }

    /// Puts the scanned append log into an appendable state and returns its
    /// append handle: a valid file keeps its trusted prefix (a torn tail is
    /// cut with `set_len`, no rewriting); anything else is rewritten as a
    /// fresh header plus the `initial` records. `None` when the file cannot
    /// be written — the table then persists nothing, and says so with a
    /// `"{what} …"` event and a cold start.
    pub(crate) fn recover(
        &self,
        initial: &[Vec<u8>],
        telemetry: &StoreTelemetry,
        what: &str,
    ) -> Option<File> {
        if self.found != Found::Valid && !wire::rewrite_file(&self.path, self.kind, initial) {
            telemetry.record_corruption(format!("{what} directory unwritable"));
            telemetry.record_cold_start();
            return None;
        }
        let Some(file) = open_append(&self.path) else {
            telemetry.record_corruption(format!("{what} not writable; persistence disabled"));
            telemetry.record_cold_start();
            return None;
        };
        if self.torn() {
            let _ = file.set_len(self.trusted);
        }
        Some(file)
    }
}

/// Opens a log's read + append handle. O_APPEND, not seek-to-end: with
/// concurrent opens of one store directory (daemon workers, or a
/// mis-deployed second writer), every append lands whole at the current end
/// of file instead of interleaving bytes mid-record.
pub(crate) fn open_append(path: &Path) -> Option<File> {
    OpenOptions::new().read(true).append(true).open(path).ok()
}

/// Appends `payload` as one framed record through the append handle in
/// `slot` and flushes it; returns the record's payload offset. One
/// `write_all` on the O_APPEND handle, so the handle's position afterwards
/// is where this record ended. A failed write records a `"{what} append
/// failed"` event and empties `slot` — persistence is disabled, the
/// campaign keeps computing. No-op (`None`) when `slot` is empty.
pub(crate) fn append(
    slot: &mut Option<File>,
    payload: &[u8],
    telemetry: &StoreTelemetry,
    what: &str,
) -> Option<u64> {
    let file = slot.as_mut()?;
    let record = wire::frame(payload);
    let written = file.write_all(&record).and_then(|()| file.flush());
    match written.and_then(|()| file.stream_position()) {
        Ok(end) => {
            telemetry.record_persisted();
            Some(end - record.len() as u64 + 4)
        }
        Err(_) => {
            telemetry.record_corruption(format!("{what} append failed"));
            *slot = None;
            None
        }
    }
}

/// A snapshot table's file: loaded whole at open, rewritten whole on save.
#[derive(Debug)]
pub(crate) struct Snapshot {
    pub(crate) path: PathBuf,
    kind: TableKind,
    what: &'static str,
    pub(crate) telemetry: StoreTelemetry,
}

impl Snapshot {
    /// Opens (or creates the directory for) the snapshot `file` under `dir`
    /// and hands every record's payload to `decode`, which keeps what it
    /// needs. Never fails: the load stops at the first torn record or the
    /// first that fails to decode (a `"{what} record: …"` event), keeps the
    /// valid prefix and flags the rest as a dropped tail — the next save
    /// rewrites the file from what loaded. An unusable header is a cold
    /// start.
    pub(crate) fn open(
        dir: impl AsRef<Path>,
        file: &str,
        kind: TableKind,
        what: &'static str,
        mut decode: impl FnMut(&[u8]) -> Result<(), WireError>,
    ) -> Snapshot {
        let _span = ubfuzz_obs::Span::enter(ubfuzz_obs::Stage::StoreOpen, 0);
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.as_ref().join(file);
        let telemetry = StoreTelemetry::default();
        let scan = scan(&path, kind, |payload, _| match decode(payload) {
            Ok(()) => true,
            Err(e) => {
                telemetry.record_corruption(format!("{what} record: {e}"));
                false
            }
        });
        scan.report(&telemetry, what);
        if scan.torn() {
            telemetry.record_corruption(format!(
                "{what} tail dropped ({} of {} bytes trusted)",
                scan.trusted, scan.file_len
            ));
        }
        Snapshot { path, kind, what, telemetry }
    }

    /// Rewrites the file as exactly `payloads` through the temp-file +
    /// rename protocol: a kill mid-save leaves the previous snapshot intact.
    pub(crate) fn save(&self, payloads: impl IntoIterator<Item = Vec<u8>>) {
        let payloads: Vec<Vec<u8>> = payloads.into_iter().collect();
        if wire::rewrite_file(&self.path, self.kind, &payloads) {
            self.telemetry.record_persisted();
        } else {
            self.telemetry.record_corruption(format!("{} directory unwritable", self.what));
        }
    }
}

/// The recovery suite every snapshot table runs.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A snapshot table as the suite drives it.
    pub(crate) trait SnapshotTable: Sized {
        /// The table's file name inside a store directory.
        const FILE: &'static str;
        /// Opens the table under `dir`.
        fn open(dir: &Path) -> Self;
        /// Saves a table of at least two records.
        fn fill(&mut self);
        /// Entries loaded.
        fn len(&self) -> usize;
        fn telemetry(&self) -> &StoreTelemetry;
    }

    /// A torn last record keeps the valid prefix and says so; a skewed
    /// format version, garbage and an empty file each open an empty table —
    /// the first two as a recorded cold start, the last with no event.
    pub(crate) fn snapshot_recovery<T: SnapshotTable>(dir: &Path) {
        let path = dir.join(T::FILE);
        let mut table = T::open(dir);
        table.fill();
        let full = T::open(dir).len();
        drop(table);
        let bytes = std::fs::read(&path).unwrap();

        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let table = T::open(dir);
        assert_eq!(table.len(), full - 1, "the valid prefix loads");
        assert!(table.telemetry().tail_truncated());
        let events = table.telemetry().events();
        assert!(events.iter().any(|e| e.contains("tail dropped")), "{events:?}");

        let mut skew = bytes.clone();
        skew[8] = wire::FORMAT_VERSION + 1;
        std::fs::write(&path, &skew).unwrap();
        let table = T::open(dir);
        assert_eq!(table.len(), 0);
        assert!(table.telemetry().recovered_cold());
        let events = table.telemetry().events();
        assert!(events.iter().any(|e| e.contains("format version")), "{events:?}");

        std::fs::write(&path, b"garbage").unwrap();
        let table = T::open(dir);
        assert_eq!(table.len(), 0);
        assert!(table.telemetry().recovered_cold());

        std::fs::write(&path, b"").unwrap();
        let table = T::open(dir);
        assert_eq!(table.len(), 0);
        assert!(!table.telemetry().recovered_cold());
        assert!(table.telemetry().events().is_empty(), "{:?}", table.telemetry().events());
        let _ = std::fs::remove_dir_all(dir);
    }
}
