//! The on-disk wire format: little-endian primitives, length-prefixed
//! strings, and checksummed record framing.
//!
//! Every store table is one file with the same outer shape:
//!
//! ```text
//! [8-byte magic][1-byte format version][1-byte table kind]
//! [record]*
//! record = [u32 payload length][payload bytes][u64 FNV-1a of payload]
//! ```
//!
//! The framing is what makes crash recovery trivial: a process killed
//! mid-append leaves at most one torn record at the end of the file, and a
//! reader that validates length bounds and checksums can always find the
//! longest valid prefix. Nothing in this module returns a panic path on
//! malformed input — corruption is an [`Err`], and the store layers above
//! translate it into a cold start plus telemetry, never a failed open.

/// Current format version. Bump on any incompatible change to the payload
/// encodings; readers seeing another version degrade to a cold start.
///
/// v2: module payloads switched to varint ints + interned `Loc`/string side
/// tables (see `modser`), and a post-sanitize module table (tag 5) was
/// added.
///
/// v3: `SanMeta` gained the partial-sanitization skipped-site set and the
/// post-sanitize table's key gained the site-subset fingerprint — v2 stores
/// cold-start with telemetry, never error. That table is gone; its tag stays
/// retired, and the prefix table's open removes a leftover `sanitized.bin`.
pub const FORMAT_VERSION: u8 = 3;

/// File magic common to every store table.
pub const MAGIC: [u8; 8] = *b"UBFZSTOR";

/// Which table a store file holds (byte 9 of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// The persistent compile-prefix cache.
    Prefix,
    /// The campaign checkpoint log.
    Checkpoint,
    /// The deduplicated bug corpus.
    Corpus,
    /// The campaign lease table (daemon-mode bookkeeping).
    Lease,
    /// The campaign coverage frontier (guided-generation feedback).
    Frontier,
}

impl TableKind {
    fn tag(self) -> u8 {
        match self {
            TableKind::Prefix => 1,
            TableKind::Checkpoint => 2,
            TableKind::Corpus => 3,
            TableKind::Lease => 4,
            // 5 was the post-sanitize table's; it is never reused.
            TableKind::Frontier => 6,
        }
    }
}

/// A decode failure. Deliberately coarse: the recovery action is the same
/// (stop trusting the file from here on) whatever the cause, and the label
/// only feeds telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// A structurally invalid value (bad tag, oversized length, unknown
    /// reference); the label names the decode site.
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt {what}"),
        }
    }
}

/// 64-bit FNV-1a — the record checksum. Dependency-free and stable by
/// construction (unlike `DefaultHasher`, which std does not pin across
/// releases).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only payload encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (the store never round-trips between
    /// machines with different pointer widths *and* live indices that
    /// large; decode re-checks the fit).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a LEB128 varint `u64`: 7 value bits per byte, high bit set on
    /// every byte but the last. Small values (the common case for counts,
    /// indices and line numbers) take one byte instead of eight.
    pub fn vu64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `u32` as a varint.
    pub fn vu32(&mut self, v: u32) {
        self.vu64(v as u64);
    }

    /// Appends an `i64` as a zigzag varint, so small-magnitude negatives
    /// stay short.
    pub fn vi64(&mut self, v: i64) {
        self.vu64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a `usize` as a varint `u64`.
    pub fn vusize(&mut self, v: usize) {
        self.vu64(v as u64);
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    pub fn vstr(&mut self, v: &str) {
        self.vusize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a varint-length-prefixed byte blob.
    pub fn vbytes(&mut self, v: &[u8]) {
        self.vusize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends already-encoded bytes verbatim (splicing a scratch encoder's
    /// output, e.g. a module body after its interning tables).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A bounds-checked payload decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte; values other than 0/1 are corruption.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Corrupt("usize"))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let bytes = self.blob()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("utf8"))
    }

    /// Reads a length-prefixed byte blob. The length is validated against
    /// the remaining buffer before any allocation, so corrupt lengths can
    /// never trigger a huge `Vec` reservation.
    pub fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::Corrupt("blob length"));
        }
        self.take(len)
    }

    /// Reads a collection count, sanity-bounded by the remaining bytes
    /// (`min_elem_size` per element) so corrupt counts cannot drive an
    /// allocation or a long loop.
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(WireError::Corrupt("count"));
        }
        Ok(n)
    }

    /// Reads a LEB128 varint `u64`. Overlong encodings (more than 10 bytes,
    /// or a 10th byte carrying bits beyond the 64th) are corruption, not a
    /// silent wrap.
    pub fn vu64(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7F) as u64;
            // The 10th byte (shift 63) has room for one value bit only.
            if shift == 63 && bits > 1 {
                return Err(WireError::Corrupt("varint"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Corrupt("varint"))
    }

    /// Reads a varint `u32`; values beyond `u32::MAX` are corruption.
    pub fn vu32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.vu64()?).map_err(|_| WireError::Corrupt("varint u32"))
    }

    /// Reads a zigzag varint `i64`.
    pub fn vi64(&mut self) -> Result<i64, WireError> {
        let v = self.vu64()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Reads a varint `usize`.
    pub fn vusize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.vu64()?).map_err(|_| WireError::Corrupt("varint usize"))
    }

    /// Reads a varint-length-prefixed UTF-8 string, length validated against
    /// the remaining buffer before any allocation.
    pub fn vstr(&mut self) -> Result<String, WireError> {
        let len = self.vusize()?;
        if len > self.remaining() {
            return Err(WireError::Corrupt("vstr length"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("utf8"))
    }

    /// Reads a varint-length-prefixed byte blob, length validated against
    /// the remaining buffer before any allocation.
    pub fn vblob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.vusize()?;
        if len > self.remaining() {
            return Err(WireError::Corrupt("vblob length"));
        }
        self.take(len)
    }

    /// Reads a varint collection count with the same remaining-bytes sanity
    /// bound as [`Dec::count`].
    pub fn vcount(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let n = self.vusize()?;
        if n.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(WireError::Corrupt("count"));
        }
        Ok(n)
    }

    /// Asserts the payload was fully consumed (trailing garbage is
    /// corruption — it means the checksummed payload disagrees with the
    /// decoder about its own shape).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Corrupt("trailing bytes"))
        }
    }
}

/// Builds a file header for `kind`.
pub fn header(kind: TableKind) -> Vec<u8> {
    let mut h = Vec::with_capacity(10);
    h.extend_from_slice(&MAGIC);
    h.push(FORMAT_VERSION);
    h.push(kind.tag());
    h
}

/// Header length in bytes.
pub const HEADER_LEN: usize = 10;

/// Validates a file header for `kind`. Version skew is reported distinctly
/// so telemetry can tell "old format" from "garbage".
pub fn check_header(bytes: &[u8], kind: TableKind) -> Result<(), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(WireError::Corrupt("magic"));
    }
    if bytes[8] != FORMAT_VERSION {
        return Err(WireError::Corrupt("format version"));
    }
    if bytes[9] != kind.tag() {
        return Err(WireError::Corrupt("table kind"));
    }
    Ok(())
}

/// Frames a payload as one record: length prefix + payload + checksum.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Total on-disk bytes of one framed record: length prefix + payload +
/// checksum. The single place the framing overhead is defined for byte
/// accounting — every table's trusted-prefix arithmetic goes through it.
pub fn record_span(payload_len: usize) -> usize {
    4 + payload_len + 8
}

/// (Re)materializes a table file as header + the given framed records,
/// through a temp file + rename so a kill mid-recovery cannot corrupt
/// further — the one rewrite protocol every table shares. Returns `false`
/// when the directory is unwritable (tables then degrade to in-memory
/// behavior).
pub fn rewrite_file(path: &std::path::Path, kind: TableKind, payloads: &[Vec<u8>]) -> bool {
    let tmp = path.with_extension("bin.tmp");
    let mut out = header(kind);
    for payload in payloads {
        out.extend_from_slice(&frame(payload));
    }
    std::fs::write(&tmp, &out).is_ok() && std::fs::rename(&tmp, path).is_ok()
}

/// Reads the framed record whose length prefix starts at byte `pos` of
/// `file` into `buf` (reused across calls), verifying bounds and checksum.
/// Returns the payload's `(offset, length)`; `None` on a torn or corrupt
/// record — the primitive behind [`crate::recfile::scan`], every table's
/// one record walk.
pub fn read_record_at(
    file: &mut std::fs::File,
    file_len: u64,
    pos: u64,
    buf: &mut Vec<u8>,
) -> Option<(u64, u32)> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    if file_len.checked_sub(pos)? < 4 {
        return None;
    }
    let mut len_bytes = [0u8; 4];
    file.seek(SeekFrom::Start(pos)).ok()?;
    file.read_exact(&mut len_bytes).ok()?;
    let len = u32::from_le_bytes(len_bytes);
    let payload_off = pos + 4;
    let end = payload_off.checked_add(len as u64)?.checked_add(8)?;
    if end > file_len {
        return None;
    }
    buf.resize(len as usize, 0);
    file.read_exact(buf).ok()?;
    let mut sum_bytes = [0u8; 8];
    file.read_exact(&mut sum_bytes).ok()?;
    if fnv1a(buf) != u64::from_le_bytes(sum_bytes) {
        return None;
    }
    Some((payload_off, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.usize(12345);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.blob().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn decode_is_bounds_checked() {
        let mut d = Dec::new(&[1, 2]);
        assert_eq!(d.u32(), Err(WireError::Truncated));
        // A blob length pointing past the end is corruption, not an alloc.
        let mut e = Enc::new();
        e.u32(1_000_000);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).blob(), Err(WireError::Corrupt("blob length")));
        // Bad bool byte.
        assert_eq!(Dec::new(&[9]).bool(), Err(WireError::Corrupt("bool")));
        // Trailing garbage is caught by finish().
        assert!(Dec::new(&[0]).finish().is_err());
    }

    #[test]
    fn varints_round_trip_and_stay_compact() {
        let values = [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut e = Enc::new();
        for &v in &values {
            e.vu64(v);
        }
        e.vi64(0);
        e.vi64(-1);
        e.vi64(i64::MIN);
        e.vi64(i64::MAX);
        e.vstr("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for &v in &values {
            assert_eq!(d.vu64().unwrap(), v);
        }
        assert_eq!(d.vi64().unwrap(), 0);
        assert_eq!(d.vi64().unwrap(), -1);
        assert_eq!(d.vi64().unwrap(), i64::MIN);
        assert_eq!(d.vi64().unwrap(), i64::MAX);
        assert_eq!(d.vstr().unwrap(), "héllo");
        d.finish().unwrap();
        // Compactness: one byte up to 0x7F, two up to 0x3FFF.
        let mut small = Enc::new();
        small.vu64(0x7F);
        assert_eq!(small.into_bytes().len(), 1);
        let mut two = Enc::new();
        two.vu64(0x3FFF);
        assert_eq!(two.into_bytes().len(), 2);
        let mut max = Enc::new();
        max.vu64(u64::MAX);
        assert_eq!(max.into_bytes().len(), 10);
    }

    #[test]
    fn varint_rejects_overlong_and_truncated() {
        // Unterminated: every byte has the continuation bit.
        assert_eq!(Dec::new(&[0x80, 0x80]).vu64(), Err(WireError::Truncated));
        // 11-byte encoding can never be valid.
        let overlong = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(Dec::new(&overlong).vu64(), Err(WireError::Corrupt("varint")));
        // 10th byte with bits beyond the 64th is an overflow, not a wrap.
        let overflow = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert_eq!(Dec::new(&overflow).vu64(), Err(WireError::Corrupt("varint")));
        // A vstr length past the end is corruption, not an allocation.
        let mut e = Enc::new();
        e.vusize(1_000_000);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).vstr(), Err(WireError::Corrupt("vstr length")));
        // vu32 range check.
        let mut e = Enc::new();
        e.vu64(u64::from(u32::MAX) + 1);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).vu32(), Err(WireError::Corrupt("varint u32")));
    }

    #[test]
    fn vcount_rejects_absurd_lengths() {
        let mut e = Enc::new();
        e.vu64(u64::from(u32::MAX));
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).vcount(1), Err(WireError::Corrupt("count")));
    }

    #[test]
    fn count_rejects_absurd_lengths() {
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).count(1), Err(WireError::Corrupt("count")));
    }

    /// Runs the shared record scan over a file holding a valid header and
    /// `body`: the payloads it yields, and where its trusted prefix ends
    /// (relative to the body).
    fn scan_body(tag: &str, body: &[u8]) -> (Vec<Vec<u8>>, usize) {
        let (pid, thread) = (std::process::id(), std::thread::current().id());
        let path = std::env::temp_dir().join(format!("ubfuzz-wire-{tag}-{pid}-{thread:?}.bin"));
        let mut file = header(TableKind::Corpus);
        file.extend_from_slice(body);
        std::fs::write(&path, &file).unwrap();
        let mut records = Vec::new();
        let scan = crate::recfile::scan(&path, TableKind::Corpus, |payload, _| {
            records.push(payload.to_vec());
            true
        });
        let _ = std::fs::remove_file(&path);
        (records, scan.trusted as usize - HEADER_LEN)
    }

    #[test]
    fn records_survive_torn_tails() {
        let mut body = Vec::new();
        body.extend_from_slice(&frame(b"first"));
        body.extend_from_slice(&frame(b"second"));
        let valid_len = body.len();
        // Torn third record: length says 100 bytes, only 3 present.
        body.extend_from_slice(&100u32.to_le_bytes());
        body.extend_from_slice(b"abc");
        let (records, end) = scan_body("torn", &body);
        assert_eq!(records, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(end, valid_len);
    }

    #[test]
    fn records_stop_at_checksum_mismatch() {
        let mut body = frame(b"ok");
        let mut bad = frame(b"tampered");
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        body.extend_from_slice(&bad);
        body.extend_from_slice(&frame(b"unreachable"));
        let (records, _) = scan_body("checksum", &body);
        assert_eq!(records, vec![b"ok".to_vec()]);
    }

    #[test]
    fn header_checks() {
        let h = header(TableKind::Prefix);
        assert_eq!(h.len(), HEADER_LEN);
        check_header(&h, TableKind::Prefix).unwrap();
        assert_eq!(
            check_header(&h, TableKind::Corpus),
            Err(WireError::Corrupt("table kind"))
        );
        let mut skew = h.clone();
        skew[8] = FORMAT_VERSION + 1;
        assert_eq!(
            check_header(&skew, TableKind::Prefix),
            Err(WireError::Corrupt("format version"))
        );
        assert_eq!(check_header(&h[..4], TableKind::Prefix), Err(WireError::Truncated));
        let mut garbage = h;
        garbage[0] = b'X';
        assert_eq!(
            check_header(&garbage, TableKind::Prefix),
            Err(WireError::Corrupt("magic"))
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the checksum must never drift between builds, or
        // every store on disk silently cold-starts.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"ubfuzz"), fnv1a(b"ubfuzz"));
        assert_ne!(fnv1a(b"ubfuzz"), fnv1a(b"ubfuzy"));
    }
}
