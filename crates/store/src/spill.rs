//! Memory-governed spill-to-disk for pipeline breakers.
//!
//! The join-graph isolation of the paper exists precisely so that mature
//! relational machinery — *including external-memory algorithms* — can
//! carry XQuery evaluation; this module supplies that machinery for the
//! two genuine pipeline breakers of the executor: the duplicate-eliminating
//! SORT plan tail and the hash-join build side.
//!
//! Three pieces compose:
//!
//! * [`MemBudget`] — a lock-free accountant shared by every operator of
//!   one execution.  Operators `try_reserve` before
//!   they grow a buffer; a failed reservation is the signal to spill.  A
//!   budget of `None` never fails (the in-memory fast paths stay
//!   byte-identical to the pre-spill executor).
//! * Run files — temp files holding length-prefixed records of a compact
//!   row codec for [`Value`] rows ([`encode_row`] / [`decode_row`]) or
//!   fixed-width `(hash, rid)` pairs for hash partitions.  Every file is
//!   deleted when its handle drops, so aborted executions leave no litter.
//! * [`ExternalSorter`] — bounded in-memory run generation plus a
//!   [`LoserTree`] k-way merge that reproduces the exact row order of the
//!   in-memory stable sort (records carry their input sequence number, so
//!   `(key, seq)` ordering *is* stable sort order), and
//!   [`GraceBuilder`] / [`SpilledPartitions`] — hash partitioning of a
//!   build side to disk with recursive repartitioning of skewed
//!   partitions.
//!
//! Spill decisions (build sides, the SORT tail) depend only on the row
//! stream and the budget, which keeps the `spill_runs` / `spill_bytes` /
//! `partitions` EXPLAIN actuals deterministic, exactly like the other
//! counters.
//!
//! Every disk interaction in this module is *fallible and checksummed*:
//! I/O errors, short writes and corrupt records surface as
//! [`ExecError`]s instead of panics, transient write failures retry with
//! bounded backoff ([`DEFAULT_SPILL_RETRIES`]), and the named
//! [`crate::fault`] sites let tests inject each failure deterministically.
//! Sort-run records carry a per-record XXH32 checksum, partition files a
//! streaming footer checksum, so bit rot is detected — with file and
//! offset — the moment a record is read back.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::{ExecError, Interrupt};
use crate::fault::{self, FaultKind};
use crate::table::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::Arc;

/// Default number of retry attempts for a transient spill-write failure
/// (`XQJG_SPILL_RETRIES` overrides per execution).
pub const DEFAULT_SPILL_RETRIES: usize = 2;

/// Bounded exponential backoff between spill-write retry attempts
/// (1 ms, 2 ms, 4 ms, … capped at 20 ms — long enough to ride out a
/// transient hiccup, short enough to stay invisible in tests).
fn backoff(attempt: usize) {
    let ms = (1u64 << (attempt.min(5) as u32 - 1)).min(20);
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

// ---------------------------------------------------------------------
// Memory budget.
// ---------------------------------------------------------------------

/// A memory accountant shared by the operators of one execution.
///
/// Reservations are approximate footprints (see [`row_footprint`]) — the
/// governor bounds the dominant buffers (sort runs, hash builds, loaded
/// probe partitions), not every allocation of the process.  `try_reserve`
/// either books the whole request or nothing; [`MemBudget::reserve_force`]
/// books unconditionally (used when an operator must make progress, e.g. a
/// single probe partition larger than what is left) and the overshoot is
/// visible in [`MemBudget::peak`].
///
/// Reservations come in two classes.  *Durable* reservations
/// ([`MemBudget::try_reserve`] / [`MemBudget::reserve_force`]) are made in
/// a deterministic order — build sides, sorter buffers — and are the only
/// ones a pipeline breaker's spill decision may observe: spill counters
/// are EXPLAIN actuals.  *Transient* reservations
/// ([`MemBudget::try_reserve_transient`]) are probe-side caches (loaded
/// probe partitions) that come and go while rows stream; they count
/// toward the limit for their own admission/eviction checks and toward
/// [`MemBudget::peak`], but stay invisible to durable admission.
#[derive(Debug)]
pub struct MemBudget {
    limit: Option<usize>,
    used: AtomicUsize,
    transient: AtomicUsize,
    peak: AtomicUsize,
}

impl MemBudget {
    /// An accountant with the given byte limit (`None` = unlimited).
    pub fn new(limit: Option<usize>) -> Arc<MemBudget> {
        Arc::new(MemBudget {
            limit,
            used: AtomicUsize::new(0),
            transient: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }

    /// The configured limit in bytes, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Bytes currently reserved (durable and transient).
    pub fn used(&self) -> usize {
        self.used.load(AtOrd::Relaxed) + self.transient.load(AtOrd::Relaxed)
    }

    /// High-water mark of reserved bytes (including forced overshoot).
    pub fn peak(&self) -> usize {
        self.peak.load(AtOrd::Relaxed)
    }

    /// Try to reserve `bytes`; returns whether the reservation was booked.
    /// Unlimited budgets always succeed.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        let Some(limit) = self.limit else {
            self.bump(bytes);
            return true;
        };
        let mut cur = self.used.load(AtOrd::Relaxed);
        loop {
            if cur.saturating_add(bytes) > limit {
                return false;
            }
            match self
                .used
                .compare_exchange_weak(cur, cur + bytes, AtOrd::Relaxed, AtOrd::Relaxed)
            {
                Ok(_) => {
                    self.track_peak(cur + bytes);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Reserve `bytes` unconditionally (progress guarantee): the booking
    /// may push `used` past the limit, which shows up in [`MemBudget::peak`].
    pub fn reserve_force(&self, bytes: usize) {
        self.bump(bytes);
    }

    /// Return a previous reservation.
    pub fn release(&self, bytes: usize) {
        let prev = self.used.fetch_sub(bytes, AtOrd::Relaxed);
        debug_assert!(prev >= bytes, "releasing more than was reserved");
    }

    /// Try to book `bytes` as a transient (probe-side) reservation.  The
    /// admission check sees the whole occupancy — durable plus transient —
    /// so probe caches still compete for the same allowance, but the
    /// booking itself never influences a durable [`Self::try_reserve`].
    pub fn try_reserve_transient(&self, bytes: usize) -> bool {
        let Some(limit) = self.limit else {
            self.bump_transient(bytes);
            return true;
        };
        let durable = self.used.load(AtOrd::Relaxed);
        let mut cur = self.transient.load(AtOrd::Relaxed);
        loop {
            if durable.saturating_add(cur).saturating_add(bytes) > limit {
                return false;
            }
            match self.transient.compare_exchange_weak(
                cur,
                cur + bytes,
                AtOrd::Relaxed,
                AtOrd::Relaxed,
            ) {
                Ok(_) => {
                    self.track_peak(durable + cur + bytes);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Book `bytes` transiently and unconditionally (progress guarantee
    /// for a single cache entry larger than what is left).
    pub fn reserve_transient_force(&self, bytes: usize) {
        self.bump_transient(bytes);
    }

    /// Return a previous transient reservation.
    pub fn release_transient(&self, bytes: usize) {
        let prev = self.transient.fetch_sub(bytes, AtOrd::Relaxed);
        debug_assert!(prev >= bytes, "releasing more than was reserved");
    }

    fn bump(&self, bytes: usize) {
        let now = self.used.fetch_add(bytes, AtOrd::Relaxed) + bytes;
        self.track_peak(now + self.transient.load(AtOrd::Relaxed));
    }

    fn bump_transient(&self, bytes: usize) {
        let now = self.transient.fetch_add(bytes, AtOrd::Relaxed) + bytes;
        self.track_peak(now + self.used.load(AtOrd::Relaxed));
    }

    fn track_peak(&self, now: usize) {
        let mut peak = self.peak.load(AtOrd::Relaxed);
        while now > peak {
            match self
                .peak
                .compare_exchange_weak(peak, now, AtOrd::Relaxed, AtOrd::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => peak = seen,
            }
        }
    }
}

/// Approximate in-memory footprint of one owned [`Row`]: vector header,
/// one [`Value`] slot per column, plus string heap payloads.  Deliberately
/// deterministic (no allocator introspection) so spill decisions — and with
/// them the spill counters — are reproducible across runs.
pub fn row_footprint(row: &[Value]) -> usize {
    const VEC_HEADER: usize = 24;
    let heap: usize = row
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    VEC_HEADER + std::mem::size_of_val(row) + heap
}

// ---------------------------------------------------------------------
// Temp files.
// ---------------------------------------------------------------------

/// Monotonic discriminator for spill file names within the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A spill file that unlinks itself when dropped.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
}

impl SpillFile {
    /// Create a fresh, uniquely named spill file under `dir` (the
    /// directory is created if missing).
    pub fn create(dir: &Path, tag: &str) -> io::Result<(SpillFile, File)> {
        std::fs::create_dir_all(dir)?;
        let n = SPILL_SEQ.fetch_add(1, AtOrd::Relaxed);
        let path = dir.join(format!("xqjg-spill-{}-{tag}-{n}.run", std::process::id()));
        let file = File::create(&path)?;
        Ok((SpillFile { path }, file))
    }

    /// The file's path (for re-opening readers).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Open the file for reading.
    pub fn open(&self) -> io::Result<File> {
        File::open(&self.path)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The directory spill files go to: the configured override or the
/// system temp directory.
pub fn spill_dir(configured: Option<&Path>) -> PathBuf {
    configured
        .map(Path::to_path_buf)
        .unwrap_or_else(std::env::temp_dir)
}

// ---------------------------------------------------------------------
// Checksums (XXH32, seed 0).
// ---------------------------------------------------------------------

const XXH_P1: u32 = 0x9E37_79B1;
const XXH_P2: u32 = 0x85EB_CA77;
const XXH_P3: u32 = 0xC2B2_AE3D;
const XXH_P4: u32 = 0x27D4_EB2F;
const XXH_P5: u32 = 0x1656_67B1;

#[inline]
fn xxh_round(acc: u32, input: u32) -> u32 {
    acc.wrapping_add(input.wrapping_mul(XXH_P2))
        .rotate_left(13)
        .wrapping_mul(XXH_P1)
}

#[inline]
fn xxh_read_u32(b: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes([b[pos], b[pos + 1], b[pos + 2], b[pos + 3]])
}

#[inline]
fn xxh_avalanche(mut h: u32) -> u32 {
    h ^= h >> 15;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 13;
    h = h.wrapping_mul(XXH_P3);
    h ^= h >> 16;
    h
}

/// One-shot XXH32 (seed 0) over a byte slice — the per-record checksum of
/// the sort-run format.  Self-contained (no new dependency) and
/// bit-compatible with the reference xxHash32, so run files stay
/// inspectable with standard tooling.
pub fn record_checksum(data: &[u8]) -> u32 {
    let len = data.len();
    let mut pos = 0usize;
    let mut h: u32 = if len >= 16 {
        let mut v1 = XXH_P1.wrapping_add(XXH_P2);
        let mut v2 = XXH_P2;
        let mut v3 = 0u32;
        let mut v4 = 0u32.wrapping_sub(XXH_P1);
        while pos + 16 <= len {
            v1 = xxh_round(v1, xxh_read_u32(data, pos));
            v2 = xxh_round(v2, xxh_read_u32(data, pos + 4));
            v3 = xxh_round(v3, xxh_read_u32(data, pos + 8));
            v4 = xxh_round(v4, xxh_read_u32(data, pos + 12));
            pos += 16;
        }
        v1.rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18))
    } else {
        XXH_P5
    };
    h = h.wrapping_add(len as u32);
    while pos + 4 <= len {
        h = h.wrapping_add(xxh_read_u32(data, pos).wrapping_mul(XXH_P3));
        h = h.rotate_left(17).wrapping_mul(XXH_P4);
        pos += 4;
    }
    while pos < len {
        h = h.wrapping_add(u32::from(data[pos]).wrapping_mul(XXH_P5));
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
        pos += 1;
    }
    xxh_avalanche(h)
}

/// Streaming XXH32 over whole 16-byte stripes — partition files append
/// fixed 16-byte `(hash, rid)` entries, so the writer folds each entry
/// into this state as it goes and [`Xxh32Stripes::finish`] matches
/// [`record_checksum`] over the concatenated entries exactly.
#[derive(Debug, Clone)]
struct Xxh32Stripes {
    v1: u32,
    v2: u32,
    v3: u32,
    v4: u32,
    len: u64,
}

impl Xxh32Stripes {
    fn new() -> Xxh32Stripes {
        Xxh32Stripes {
            v1: XXH_P1.wrapping_add(XXH_P2),
            v2: XXH_P2,
            v3: 0,
            v4: 0u32.wrapping_sub(XXH_P1),
            len: 0,
        }
    }

    fn update16(&mut self, b: &[u8; 16]) {
        self.v1 = xxh_round(self.v1, xxh_read_u32(b, 0));
        self.v2 = xxh_round(self.v2, xxh_read_u32(b, 4));
        self.v3 = xxh_round(self.v3, xxh_read_u32(b, 8));
        self.v4 = xxh_round(self.v4, xxh_read_u32(b, 12));
        self.len += 16;
    }

    fn finish(&self) -> u32 {
        let mut h: u32 = if self.len >= 16 {
            self.v1
                .rotate_left(1)
                .wrapping_add(self.v2.rotate_left(7))
                .wrapping_add(self.v3.rotate_left(12))
                .wrapping_add(self.v4.rotate_left(18))
        } else {
            XXH_P5
        };
        h = h.wrapping_add(self.len as u32);
        xxh_avalanche(h)
    }
}

// ---------------------------------------------------------------------
// Row codec.
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DEC: u8 = 4;
const TAG_STR: u8 = 5;

/// Append the compact encoding of one value to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Dec(d) => {
            out.push(TAG_DEC);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Append the compact encoding of one row (column count + values).
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        encode_value(v, out);
    }
}

/// A corruption error anchored at a record-relative offset; callers with
/// file context localize it via [`ExecError::located`].
fn corrupt_at(offset: u64, detail: impl Into<String>) -> ExecError {
    ExecError::Corrupt {
        file: String::new(),
        offset,
        detail: detail.into(),
    }
}

/// Bounds-checked cursor advance: a truncated or bit-flipped length field
/// becomes a reported corruption, never an out-of-bounds panic.
fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], ExecError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| corrupt_at(*pos as u64, format!("record truncated ({n} bytes missing)")))?;
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

/// Fixed-width cursor advance into an owned array.
fn take_n<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], ExecError> {
    let s = take(buf, pos, N)?;
    let mut out = [0u8; N];
    out.copy_from_slice(s);
    Ok(out)
}

/// Decode one value at `pos`, advancing the cursor.  Malformed bytes —
/// unknown tags, truncated payloads, invalid UTF-8 — are reported as
/// [`ExecError::Corrupt`] with the offending offset, not panicked on.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, ExecError> {
    let tag_pos = *pos;
    let Some(&tag) = buf.get(*pos) else {
        return Err(corrupt_at(tag_pos as u64, "missing value tag"));
    };
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(take_n::<8>(buf, pos)?))),
        TAG_DEC => Ok(Value::Dec(f64::from_le_bytes(take_n::<8>(buf, pos)?))),
        TAG_STR => {
            let len = u32::from_le_bytes(take_n::<4>(buf, pos)?) as usize;
            let bytes = take(buf, pos, len)?;
            String::from_utf8(bytes.to_vec())
                .map(Value::Str)
                .map_err(|_| corrupt_at(tag_pos as u64, "invalid utf-8 in string value"))
        }
        other => Err(corrupt_at(
            tag_pos as u64,
            format!("unknown value tag {other}"),
        )),
    }
}

/// Decode one row at `pos`, advancing the cursor.  The arity is untrusted:
/// the row grows value by value (capacity capped), so a bit-flipped count
/// fails on a missing tag instead of attempting a giant allocation.
pub fn decode_row(buf: &[u8], pos: &mut usize) -> Result<Row, ExecError> {
    let n = u32::from_le_bytes(take_n::<4>(buf, pos)?) as usize;
    let mut row = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        row.push(decode_value(buf, pos)?);
    }
    Ok(row)
}

// ---------------------------------------------------------------------
// Sort runs.
// ---------------------------------------------------------------------

/// One record of the SORT tail: the select-list row, its order key, and
/// the global input sequence number that makes `(key, seq)` ordering
/// reproduce the stable in-memory sort exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortRec {
    /// Global input position (assigned by [`ExternalSorter::push`]).
    pub seq: u64,
    /// The `ORDER BY` key row.
    pub key: Row,
    /// The select-list payload row.
    pub payload: Row,
}

impl SortRec {
    fn cmp_order(&self, other: &SortRec) -> Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// Which kind of run a writer produces: fresh sort runs (flushed from the
/// in-memory buffer) and cascade merge runs fail at distinct fault sites,
/// because only the former can be retried — their source data is still in
/// memory, while a merge consumes its input streams as it goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunFamily {
    Sort,
    Merge,
}

impl RunFamily {
    fn tag(self) -> &'static str {
        match self {
            RunFamily::Sort => "sort",
            RunFamily::Merge => "merge",
        }
    }

    fn create_site(self) -> &'static str {
        match self {
            RunFamily::Sort => fault::SITE_RUN_CREATE,
            RunFamily::Merge => fault::SITE_MERGE_CREATE,
        }
    }

    fn write_site(self) -> &'static str {
        match self {
            RunFamily::Sort => fault::SITE_RUN_WRITE,
            RunFamily::Merge => fault::SITE_MERGE_WRITE,
        }
    }
}

/// Sequential writer of length-prefixed, checksummed [`SortRec`]s into one
/// run file.  Record layout: `[len u32][seq u64 | key | payload][crc u32]`
/// where `crc` is [`record_checksum`] over the middle part.
struct RunWriter {
    file: SpillFile,
    out: BufWriter<File>,
    bytes: usize,
    scratch: Vec<u8>,
    family: RunFamily,
}

impl RunWriter {
    fn create(dir: &Path, family: RunFamily) -> Result<RunWriter, ExecError> {
        let site = family.create_site();
        if let Some(kind) = fault::check(site) {
            return Err(ExecError::io(site, &fault::injected_io_error(site, kind)));
        }
        let (file, handle) =
            SpillFile::create(dir, family.tag()).map_err(|e| ExecError::io(site, &e))?;
        Ok(RunWriter {
            file,
            out: BufWriter::new(handle),
            bytes: 0,
            scratch: Vec::new(),
            family,
        })
    }

    fn write(&mut self, rec: &SortRec) -> Result<(), ExecError> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&rec.seq.to_le_bytes());
        encode_row(&rec.key, &mut self.scratch);
        encode_row(&rec.payload, &mut self.scratch);
        let mut crc = record_checksum(&self.scratch);
        let site = self.family.write_site();
        match fault::check(site) {
            Some(FaultKind::IoError) => {
                return Err(ExecError::io(
                    site,
                    &fault::injected_io_error(site, FaultKind::IoError),
                ));
            }
            Some(FaultKind::ShortWrite) => {
                // Half a record reaches the disk before the failure — the
                // file is now garbage and the caller must start a new one.
                let _ = self
                    .out
                    .write_all(&(self.scratch.len() as u32).to_le_bytes());
                let _ = self.out.write_all(&self.scratch[..self.scratch.len() / 2]);
                return Err(ExecError::io(
                    site,
                    &fault::injected_io_error(site, FaultKind::ShortWrite),
                ));
            }
            // Bit rot: the record lands intact but its checksum lies, so
            // the damage is only discovered on read-back.
            Some(FaultKind::Corrupt) => crc ^= 0xDEAD_BEEF,
            None => {}
        }
        self.out
            .write_all(&(self.scratch.len() as u32).to_le_bytes())
            .map_err(|e| ExecError::io(site, &e))?;
        self.out
            .write_all(&self.scratch)
            .map_err(|e| ExecError::io(site, &e))?;
        self.out
            .write_all(&crc.to_le_bytes())
            .map_err(|e| ExecError::io(site, &e))?;
        self.bytes += 4 + self.scratch.len() + 4;
        Ok(())
    }

    fn finish(mut self) -> Result<(SpillFile, usize), ExecError> {
        self.out
            .flush()
            .map_err(|e| ExecError::io(self.family.write_site(), &e))?;
        Ok((self.file, self.bytes))
    }
}

/// Streaming reader over one sorted run file: every record is re-validated
/// against its checksum, and any structural damage is reported with the
/// file path and byte offset of the record it was found in.
struct RunReader {
    file: SpillFile,
    input: BufReader<File>,
    head: Option<SortRec>,
    offset: u64,
    file_len: u64,
}

impl RunReader {
    fn open(file: SpillFile) -> Result<RunReader, ExecError> {
        let handle = file
            .open()
            .map_err(|e| ExecError::io(fault::SITE_RUN_READ, &e))?;
        let file_len = handle
            .metadata()
            .map_err(|e| ExecError::io(fault::SITE_RUN_READ, &e))?
            .len();
        let mut r = RunReader {
            file,
            input: BufReader::new(handle),
            head: None,
            offset: 0,
            file_len,
        };
        r.advance()?;
        Ok(r)
    }

    fn corrupt(&self, offset: u64, detail: &str) -> ExecError {
        ExecError::Corrupt {
            file: self.file.path().display().to_string(),
            offset,
            detail: detail.into(),
        }
    }

    fn advance(&mut self) -> Result<(), ExecError> {
        let rec_start = self.offset;
        let mut len_buf = [0u8; 4];
        match self.input.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.head = None;
                return Ok(());
            }
            Err(e) => return Err(ExecError::io(fault::SITE_RUN_READ, &e)),
        }
        let len = u32::from_le_bytes(len_buf) as u64;
        // Validate the untrusted length against the file before allocating
        // or reading: a flipped length bit must not turn into a huge
        // allocation or a confusing short read.
        if rec_start + 4 + len + 4 > self.file_len {
            return Err(self.corrupt(rec_start, "truncated record"));
        }
        let mut buf = vec![0u8; len as usize];
        self.input
            .read_exact(&mut buf)
            .map_err(|e| ExecError::io(fault::SITE_RUN_READ, &e))?;
        let mut crc_buf = [0u8; 4];
        self.input
            .read_exact(&mut crc_buf)
            .map_err(|e| ExecError::io(fault::SITE_RUN_READ, &e))?;
        self.offset += 4 + len + 4;
        match fault::check(fault::SITE_RUN_READ) {
            Some(FaultKind::Corrupt) => {
                if let Some(b) = buf.first_mut() {
                    *b ^= 0x40;
                }
            }
            Some(kind) => {
                return Err(ExecError::io(
                    fault::SITE_RUN_READ,
                    &fault::injected_io_error(fault::SITE_RUN_READ, kind),
                ));
            }
            None => {}
        }
        if record_checksum(&buf) != u32::from_le_bytes(crc_buf) {
            return Err(self.corrupt(rec_start, "checksum mismatch"));
        }
        let base = rec_start + 4;
        let mut pos = 0usize;
        let seq = u64::from_le_bytes(
            take_n::<8>(&buf, &mut pos).map_err(|e| e.located(self.file.path(), base))?,
        );
        let key = decode_row(&buf, &mut pos).map_err(|e| e.located(self.file.path(), base))?;
        let payload = decode_row(&buf, &mut pos).map_err(|e| e.located(self.file.path(), base))?;
        self.head = Some(SortRec { seq, key, payload });
        Ok(())
    }
}

/// A merge input: a disk run or the final (still in-memory) run.
enum RunCursor {
    Disk(RunReader),
    Mem(std::vec::IntoIter<SortRec>, Option<SortRec>),
}

impl RunCursor {
    fn head(&self) -> Option<&SortRec> {
        match self {
            RunCursor::Disk(r) => r.head.as_ref(),
            RunCursor::Mem(_, head) => head.as_ref(),
        }
    }

    fn pop(&mut self) -> Result<Option<SortRec>, ExecError> {
        match self {
            RunCursor::Disk(r) => {
                let head = r.head.take();
                r.advance()?;
                Ok(head)
            }
            RunCursor::Mem(iter, head) => {
                let out = head.take();
                *head = iter.next();
                Ok(out)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Loser tree.
// ---------------------------------------------------------------------

/// A tournament (loser) tree over `k` ordered runs: each `pop` yields the
/// globally smallest head record and replays exactly one leaf-to-root path
/// — `O(log k)` comparisons per record instead of the `O(k)` of a naive
/// scan.  Internal node `i` stores the *loser* of the match played there;
/// the overall winner sits at the root.
pub struct LoserTree {
    /// `tree[0]` = overall winner; `tree[1..k]` = match losers.
    tree: Vec<usize>,
    k: usize,
    runs: Vec<RunCursor>,
}

impl LoserTree {
    fn new(runs: Vec<RunCursor>) -> LoserTree {
        let k = runs.len().max(1);
        let mut lt = LoserTree {
            tree: vec![usize::MAX; k.max(1)],
            k,
            runs,
        };
        if !lt.runs.is_empty() {
            let winner = lt.build(1);
            lt.tree[0] = winner;
        }
        lt
    }

    /// `a` beats `b` when its head record sorts first (exhausted runs
    /// always lose; ties — impossible for unique `seq`s — break on the
    /// run index for determinism).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.runs[a].head(), self.runs[b].head()) {
            (Some(ra), Some(rb)) => match ra.cmp_order(rb) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Play the initial tournament below `node`, storing losers; returns
    /// the subtree winner.  Leaves live at positions `k..2k` (run `j` at
    /// `k + j`), so the shape works for any `k`, not just powers of two.
    fn build(&mut self, node: usize) -> usize {
        if node >= self.k {
            return node - self.k;
        }
        let a = self.build(2 * node);
        let b = self.build(2 * node + 1);
        let (win, lose) = if self.beats(a, b) { (a, b) } else { (b, a) };
        self.tree[node] = lose;
        win
    }

    /// Pop the smallest head record across all runs (an `Err` means a
    /// disk run failed to advance — the merge cannot continue).
    fn pop(&mut self) -> Result<Option<SortRec>, ExecError> {
        if self.runs.is_empty() {
            return Ok(None);
        }
        let winner = self.tree[0];
        let Some(rec) = self.runs[winner].pop()? else {
            return Ok(None);
        };
        // Replay the winner's path: at each node the advanced run plays
        // the stored loser; the loser stays, the winner moves up.
        let mut cur = winner;
        let mut node = (self.k + winner) / 2;
        while node >= 1 {
            let other = self.tree[node];
            if self.beats(other, cur) {
                self.tree[node] = cur;
                cur = other;
            }
            node /= 2;
        }
        self.tree[0] = cur;
        Ok(Some(rec))
    }
}

// ---------------------------------------------------------------------
// External sorter.
// ---------------------------------------------------------------------

/// Smallest buffered footprint [`ExternalSorter`] flushes as one run.
pub const MIN_RUN_BYTES: usize = 4096;

/// Upper bound on simultaneously open run files in one merge pass.  With
/// more runs than this the sorter cascades — batches of runs merge into
/// longer intermediate runs first — so file-descriptor usage stays bounded
/// no matter how far the input outgrows the budget.
pub const MAX_MERGE_FANIN: usize = 64;

/// The SORT pipeline breaker: buffers `(key, payload)` rows in memory,
/// flushes a sorted run to disk whenever the [`MemBudget`] refuses to grow
/// the buffer, and merges all runs with a [`LoserTree`] at the end.  With
/// an unlimited budget no file is ever touched and the output equals the
/// in-memory stable sort bit for bit; with any budget the output is *still*
/// identical, because records carry their input sequence number.
pub struct ExternalSorter {
    buf: Vec<SortRec>,
    reserved: usize,
    seq: u64,
    count: usize,
    last_seq: Option<u64>,
    monotonic: bool,
    budget: Arc<MemBudget>,
    dir: PathBuf,
    runs: Vec<(SpillFile, usize)>,
    retry_limit: usize,
    interrupt: Interrupt,
    /// Transient write failures that were retried (and succeeded or not).
    pub retries: usize,
    /// Sorted runs written to disk.
    pub spill_runs: usize,
    /// Bytes written to disk across all runs.
    pub spill_bytes: usize,
}

impl ExternalSorter {
    /// A sorter spilling to `dir` under `budget`.
    pub fn new(budget: Arc<MemBudget>, dir: PathBuf) -> ExternalSorter {
        ExternalSorter {
            buf: Vec::new(),
            reserved: 0,
            seq: 0,
            count: 0,
            last_seq: None,
            monotonic: true,
            budget,
            dir,
            runs: Vec::new(),
            retry_limit: DEFAULT_SPILL_RETRIES,
            interrupt: Interrupt::default(),
            retries: 0,
            spill_runs: 0,
            spill_bytes: 0,
        }
    }

    /// Bound the retry attempts for a transient run-write failure
    /// (`XQJG_SPILL_RETRIES`; 0 disables retrying).
    pub fn set_retries(&mut self, limit: usize) {
        self.retry_limit = limit;
    }

    /// Attach the execution's cancellation/deadline context; it is checked
    /// once per spill run (and once at finish), keeping a cancelled query
    /// from writing gigabytes more.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// Buffer one row; may flush a run when the budget trips.
    pub fn push(&mut self, key: Row, payload: Row) -> Result<(), ExecError> {
        let s = self.seq;
        self.seq += 1;
        self.push_with_seq(s, key, payload)
    }

    /// Buffer one row under a caller-chosen sequence number (the tie-break
    /// after the key).  The two-pass DISTINCT uses this to re-sort rows
    /// under their *original* arrival seqs.  When the supplied seqs are not
    /// non-decreasing the in-memory finish falls back to a full
    /// `(key, seq)` sort (a key-only stable sort would no longer encode
    /// seq order).
    pub fn push_with_seq(&mut self, seq: u64, key: Row, payload: Row) -> Result<(), ExecError> {
        if self.last_seq.is_some_and(|p| seq < p) {
            self.monotonic = false;
        }
        self.last_seq = Some(seq);
        self.count += 1;
        let est = row_footprint(&key) + row_footprint(&payload) + std::mem::size_of::<SortRec>();
        if !self.budget.try_reserve(est) {
            // The budget is full.  Flush a run once the buffer has reached
            // a useful size; below the floor, force the booking and keep
            // buffering — otherwise a budget saturated by unspillable
            // state (a huge DISTINCT dedup set, another operator's
            // reservations, or a single oversized row) would degrade run
            // generation to one-record run files.
            if self.reserved >= self.min_run_bytes() {
                self.flush_run()?;
            }
            self.budget.reserve_force(est);
        }
        self.reserved += est;
        self.buf.push(SortRec { seq, key, payload });
        Ok(())
    }

    /// Smallest buffered footprint worth writing as a run: a quarter of
    /// the budget, floored at [`MIN_RUN_BYTES`] (the floor is what keeps
    /// run counts sane when something else saturates the budget).
    fn min_run_bytes(&self) -> usize {
        self.budget
            .limit()
            .map(|l| (l / 4).max(MIN_RUN_BYTES))
            .unwrap_or(usize::MAX)
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn flush_run(&mut self) -> Result<(), ExecError> {
        self.interrupt.check()?;
        self.buf.sort_unstable_by(SortRec::cmp_order);
        let (file, bytes) = self.write_buf_run()?;
        self.spill_runs += 1;
        self.spill_bytes += bytes;
        self.runs.push((file, bytes));
        self.buf.clear();
        self.budget.release(self.reserved);
        self.reserved = 0;
        Ok(())
    }

    /// Write the sorted buffer as one run, retrying transient failures
    /// with bounded backoff.  Retrying is safe here — and only here —
    /// because the source rows are still in memory: each attempt starts a
    /// fresh file (a failed attempt's partial file unlinks on drop).
    fn write_buf_run(&mut self) -> Result<(SpillFile, usize), ExecError> {
        let mut attempt = 0usize;
        loop {
            match Self::try_write_buf(&self.dir, &self.buf) {
                Ok(run) => return Ok(run),
                Err(e) if e.is_transient() && attempt < self.retry_limit => {
                    attempt += 1;
                    self.retries += 1;
                    backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_write_buf(dir: &Path, buf: &[SortRec]) -> Result<(SpillFile, usize), ExecError> {
        let mut w = RunWriter::create(dir, RunFamily::Sort)?;
        for rec in buf {
            w.write(rec)?;
        }
        w.finish()
    }

    /// Finish: sort what is buffered and merge it with any on-disk runs.
    /// The returned stream yields payload rows in `(key, seq)` order and
    /// carries the final spill counters.  A sort that never spilled, with
    /// monotonic seqs and all-`Int`-or-NULL keys, orders a permutation over
    /// flat key columns instead of comparing `Row`s (same order;
    /// [`SortedRows::typed_rows`] reports it).  An error leaves no litter: the
    /// sorter's drop releases its reservations and every run file unlinks
    /// itself.
    pub fn finish(mut self) -> Result<SortedRows, ExecError> {
        self.interrupt.check()?;
        if self.runs.is_empty() {
            if self.monotonic {
                if let Some(rows) = self.finish_typed() {
                    return Ok(rows);
                }
            }
            if self.monotonic {
                // Pure in-memory path: seq is non-decreasing in push order,
                // so a stable sort by key alone reproduces `(key, seq)`
                // order.
                self.buf.sort_by(|a, b| a.key.cmp(&b.key));
            } else {
                self.buf.sort_by(SortRec::cmp_order);
            }
            let buf = std::mem::take(&mut self.buf);
            return Ok(SortedRows {
                spill_runs: 0,
                spill_bytes: 0,
                typed_rows: 0,
                retries: self.retries,
                source: SortedSource::Mem(buf.into_iter()),
            });
        }
        // Cascade: bound the merge fan-in (and with it the open file
        // descriptors) by pre-merging the oldest runs into longer ones.
        // The pass structure depends only on the run count, so the spill
        // counters stay deterministic.  Merge runs are NOT retried on
        // write failure: their input streams are consumed as they merge,
        // so there is nothing left to re-read for a second attempt.
        while self.runs.len() > MAX_MERGE_FANIN {
            self.interrupt.check()?;
            let batch: Vec<(SpillFile, usize)> = self.runs.drain(..MAX_MERGE_FANIN).collect();
            let cursors: Vec<RunCursor> = batch
                .into_iter()
                .map(|(file, _)| RunReader::open(file).map(RunCursor::Disk))
                .collect::<Result<_, _>>()?;
            let mut tree = LoserTree::new(cursors);
            let mut w = RunWriter::create(&self.dir, RunFamily::Merge)?;
            while let Some(rec) = tree.pop()? {
                w.write(&rec)?;
            }
            let (file, bytes) = w.finish()?;
            self.spill_runs += 1;
            self.spill_bytes += bytes;
            self.runs.push((file, bytes));
        }
        self.buf.sort_unstable_by(SortRec::cmp_order);
        let buf = std::mem::take(&mut self.buf);
        let mut cursors: Vec<RunCursor> = Vec::with_capacity(self.runs.len() + 1);
        for (file, _) in self.runs.drain(..) {
            cursors.push(RunCursor::Disk(RunReader::open(file)?));
        }
        if !buf.is_empty() {
            let mut iter = buf.into_iter();
            let head = iter.next();
            cursors.push(RunCursor::Mem(iter, head));
        }
        Ok(SortedRows {
            spill_runs: self.spill_runs,
            spill_bytes: self.spill_bytes,
            typed_rows: 0,
            retries: self.retries,
            source: SortedSource::Merge(Box::new(LoserTree::new(cursors))),
        })
    }

    /// The columnar in-memory finish: extract every key column into a flat
    /// `i64` image (NULL keys get a sentinel plus a cleared validity bit —
    /// the nullable permutation sort puts them first, exactly like
    /// `Value::cmp`), sort a permutation, gather payloads.  Bails (`None`)
    /// when the keys are empty, ragged or not `Int`/NULL — the caller
    /// falls back to the row comparator.  Only valid on the never-spilled,
    /// monotonic-seq path: the permutation sort is stable, so ties stay in
    /// buffer order, which there equals seq order.
    fn finish_typed(&mut self) -> Option<SortedRows> {
        let n = self.buf.len();
        let kw = self.buf.first().map(|r| r.key.len()).unwrap_or(0);
        if kw == 0 {
            return None;
        }
        let mut cols: Vec<Vec<i64>> = (0..kw).map(|_| Vec::with_capacity(n)).collect();
        let mut validity: Vec<Option<crate::mask::BitMask>> = (0..kw).map(|_| None).collect();
        for (i, rec) in self.buf.iter().enumerate() {
            if rec.key.len() != kw {
                return None;
            }
            for (k, v) in rec.key.iter().enumerate() {
                match v {
                    Value::Int(x) => {
                        cols[k].push(*x);
                        if let Some(m) = &mut validity[k] {
                            m.push(true);
                        }
                    }
                    Value::Null => {
                        cols[k].push(0);
                        validity[k]
                            .get_or_insert_with(|| crate::mask::BitMask::filled(i, true))
                            .push(false);
                    }
                    _ => return None,
                }
            }
        }
        let perm = if validity.iter().all(Option::is_none) {
            crate::kernel::sort_permutation_i64(&cols, n)
        } else {
            let keys: Vec<crate::kernel::SortKey<'_>> = cols
                .iter()
                .zip(&validity)
                .map(|(c, v)| crate::kernel::SortKey {
                    vals: crate::kernel::SortVals::I64(c),
                    validity: v.as_ref(),
                })
                .collect();
            crate::kernel::sort_permutation_typed(&keys, n)
        };
        let mut old: Vec<Option<SortRec>> = std::mem::take(&mut self.buf)
            .into_iter()
            .map(Some)
            .collect();
        let rows: Vec<Row> = perm
            .iter()
            .map(|&i| {
                let Some(rec) = old[i as usize].take() else {
                    unreachable!("permutation is a bijection")
                };
                rec.payload
            })
            .collect();
        Some(SortedRows {
            spill_runs: 0,
            spill_bytes: 0,
            typed_rows: n,
            retries: self.retries,
            source: SortedSource::Rows(rows.into_iter()),
        })
    }
}

impl Drop for ExternalSorter {
    fn drop(&mut self) {
        self.budget.release(self.reserved);
        self.reserved = 0;
    }
}

enum SortedSource {
    Mem(std::vec::IntoIter<SortRec>),
    Rows(std::vec::IntoIter<Row>),
    Merge(Box<LoserTree>),
}

/// The ordered output of an [`ExternalSorter`].  Iteration is fallible:
/// the merge path reads run files back, and a damaged or unreadable
/// record surfaces as an `Err` item (callers stop at the first error).
pub struct SortedRows {
    /// Runs the sorter wrote (0 on the in-memory path).
    pub spill_runs: usize,
    /// Bytes the sorter wrote.
    pub spill_bytes: usize,
    /// Rows ordered by the typed permutation-sort kernel (0 when the sort
    /// went external or the keys were not all `Int`-or-NULL).
    pub typed_rows: usize,
    /// Transient write failures the sorter retried while producing this
    /// output (the `retries=` EXPLAIN actual).
    pub retries: usize,
    source: SortedSource,
}

impl Iterator for SortedRows {
    type Item = Result<Row, ExecError>;

    fn next(&mut self) -> Option<Result<Row, ExecError>> {
        match &mut self.source {
            SortedSource::Mem(iter) => iter.next().map(|r| Ok(r.payload)),
            SortedSource::Rows(iter) => iter.next().map(Ok),
            SortedSource::Merge(tree) => match tree.pop() {
                Ok(Some(rec)) => Some(Ok(rec.payload)),
                Ok(None) => None,
                Err(e) => Some(Err(e)),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Grace hash partitions.
// ---------------------------------------------------------------------

/// Fan-out of one partitioning pass (16 keeps the file count civil and one
/// nibble of the hash per recursion level).
pub const GRACE_FANOUT: usize = 16;

/// Recursion bound for repartitioning skewed partitions.  Four levels ×
/// four hash bits cover 16 bits of fan-out (65 536 leaves) — beyond that a
/// partition only stays fat when one key value dominates, which no amount
/// of hash splitting can fix, so the partition is loaded whole (the
/// overshoot shows in [`MemBudget::peak`]).
pub const GRACE_MAX_DEPTH: usize = 4;

/// Approximate in-memory footprint of one loaded build entry: the
/// `(hash → Vec<rid>)` bucket share (hash-map slot, bucket header
/// amortized, one `usize` rid).
pub const BUILD_ENTRY_FOOTPRINT: usize = 48;

/// Fixed on-disk width of one `(hash, rid)` partition entry.
const PART_ENTRY_BYTES: usize = 16;

/// Writer side of one partition file: fixed 16-byte `(hash, rid)` entries
/// followed by a 4-byte streaming-XXH32 footer over all entries.
///
/// Transient write failures retry in place (nothing of the failed entry
/// reached the file); a short write *poisons* the writer — bytes of
/// unknown extent are on disk, so no further entry can be appended and the
/// whole build must fail.
struct PartWriter {
    file: SpillFile,
    out: BufWriter<File>,
    entries: usize,
    crc: Xxh32Stripes,
    poisoned: bool,
    retry_limit: usize,
    retries: usize,
}

impl PartWriter {
    fn create(dir: &Path, retry_limit: usize) -> Result<PartWriter, ExecError> {
        let site = fault::SITE_PART_CREATE;
        if let Some(kind) = fault::check(site) {
            return Err(ExecError::io(site, &fault::injected_io_error(site, kind)));
        }
        let (file, handle) = SpillFile::create(dir, "part").map_err(|e| ExecError::io(site, &e))?;
        Ok(PartWriter {
            file,
            out: BufWriter::new(handle),
            entries: 0,
            crc: Xxh32Stripes::new(),
            poisoned: false,
            retry_limit,
            retries: 0,
        })
    }

    fn write(&mut self, hash: u64, rid: u64) -> Result<(), ExecError> {
        let mut rec = [0u8; PART_ENTRY_BYTES];
        rec[..8].copy_from_slice(&hash.to_le_bytes());
        rec[8..].copy_from_slice(&rid.to_le_bytes());
        let mut attempt = 0usize;
        loop {
            match self.write_attempt(&rec) {
                Ok(()) => {
                    // The checksum always covers the *intended* bytes: an
                    // injected corrupt write keeps the honest checksum, so
                    // the damage is detected on read-back.
                    self.crc.update16(&rec);
                    self.entries += 1;
                    return Ok(());
                }
                Err(e) if e.is_transient() && !self.poisoned && attempt < self.retry_limit => {
                    attempt += 1;
                    self.retries += 1;
                    backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn write_attempt(&mut self, rec: &[u8; PART_ENTRY_BYTES]) -> Result<(), ExecError> {
        let site = fault::SITE_PART_WRITE;
        match fault::check(site) {
            Some(FaultKind::IoError) => {
                return Err(ExecError::io(
                    site,
                    &fault::injected_io_error(site, FaultKind::IoError),
                ));
            }
            Some(FaultKind::ShortWrite) => {
                let _ = self.out.write_all(&rec[..8]);
                self.poisoned = true;
                return Err(ExecError::io(
                    site,
                    &fault::injected_io_error(site, FaultKind::ShortWrite),
                ));
            }
            Some(FaultKind::Corrupt) => {
                let mut bad = *rec;
                bad[0] ^= 0x40;
                return self.out.write_all(&bad).map_err(|e| {
                    self.poisoned = true;
                    ExecError::io(site, &e)
                });
            }
            None => {}
        }
        // A real write_all failure may have written a prefix — treat the
        // file as poisoned rather than risk interleaving a retried entry.
        self.out.write_all(rec).map_err(|e| {
            self.poisoned = true;
            ExecError::io(site, &e)
        })
    }

    fn finish(mut self) -> Result<(SpillFile, usize, usize), ExecError> {
        let site = fault::SITE_PART_WRITE;
        self.out
            .write_all(&self.crc.finish().to_le_bytes())
            .map_err(|e| ExecError::io(site, &e))?;
        self.out.flush().map_err(|e| ExecError::io(site, &e))?;
        Ok((self.file, self.entries, self.retries))
    }
}

/// One node of the partition tree while it is being built: a leaf file,
/// or a split into [`GRACE_FANOUT`] children addressed by the next hash
/// nibble.
enum BuildNode {
    Leaf { file: SpillFile, entries: usize },
    Split(Vec<BuildNode>),
}

/// One node of the finished partition tree: leaves are flat indices into
/// [`SpilledPartitions::leaves`], so routing a hash is `O(depth)` with no
/// tree counting on the probe hot path.
enum PartNode {
    Leaf(PartId),
    Split(Vec<PartNode>),
}

/// The hash nibble addressing partition `level`.
fn nibble(hash: u64, level: usize) -> usize {
    ((hash >> (4 * level)) & (GRACE_FANOUT as u64 - 1)) as usize
}

/// Build-time half of a Grace-style partitioned hash join: streams
/// `(hash, rid)` build entries into [`GRACE_FANOUT`] partition files.
pub struct GraceBuilder {
    dir: PathBuf,
    writers: Vec<PartWriter>,
    retry_limit: usize,
    interrupt: Interrupt,
    /// Transient write failures retried across all partition writers.
    pub retries: usize,
    /// Files written so far (grows when partitions split recursively).
    pub spill_runs: usize,
    /// Bytes written so far (rewrites during splits count — they are real
    /// I/O).
    pub spill_bytes: usize,
}

impl GraceBuilder {
    /// A builder writing partitions under `dir`.
    pub fn new(dir: PathBuf) -> Result<GraceBuilder, ExecError> {
        let writers = (0..GRACE_FANOUT)
            .map(|_| PartWriter::create(&dir, DEFAULT_SPILL_RETRIES))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GraceBuilder {
            dir,
            writers,
            retry_limit: DEFAULT_SPILL_RETRIES,
            interrupt: Interrupt::default(),
            retries: 0,
            spill_runs: 0,
            spill_bytes: 0,
        })
    }

    /// Bound the retry attempts for transient partition-write failures.
    pub fn set_retries(&mut self, limit: usize) {
        self.retry_limit = limit;
        for w in &mut self.writers {
            w.retry_limit = limit;
        }
    }

    /// Attach the execution's cancellation/deadline context (checked once
    /// per partition file finished or split).
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// Route one build entry to its partition.
    pub fn add(&mut self, hash: u64, rid: usize) -> Result<(), ExecError> {
        self.writers[nibble(hash, 0)].write(hash, rid as u64)
    }

    /// Finish partitioning.  Partitions whose loaded footprint would
    /// exceed `load_limit` bytes are recursively repartitioned on the next
    /// hash nibble (up to [`GRACE_MAX_DEPTH`] levels).
    pub fn finish(mut self, load_limit: usize) -> Result<SpilledPartitions, ExecError> {
        let writers = std::mem::take(&mut self.writers);
        let mut roots = Vec::with_capacity(GRACE_FANOUT);
        for w in writers {
            self.interrupt.check()?;
            let (file, entries, retried) = w.finish()?;
            self.retries += retried;
            self.spill_runs += 1;
            self.spill_bytes += entries * PART_ENTRY_BYTES;
            roots.push(self.split_if_needed(BuildNode::Leaf { file, entries }, 1, load_limit)?);
        }
        // Flatten: leaves move into a flat vector (depth-first order) and
        // the tree keeps only their indices.
        let mut leaves: Vec<(SpillFile, usize)> = Vec::new();
        let nodes = roots.into_iter().map(|n| flatten(n, &mut leaves)).collect();
        Ok(SpilledPartitions {
            nodes,
            leaves,
            spill_runs: self.spill_runs,
            spill_bytes: self.spill_bytes,
            retries: self.retries,
        })
    }

    fn split_if_needed(
        &mut self,
        node: BuildNode,
        level: usize,
        load_limit: usize,
    ) -> Result<BuildNode, ExecError> {
        let BuildNode::Leaf { file, entries } = node else {
            return Ok(node);
        };
        if entries * BUILD_ENTRY_FOOTPRINT <= load_limit || level >= GRACE_MAX_DEPTH {
            return Ok(BuildNode::Leaf { file, entries });
        }
        // Repartition on the next nibble.  If everything would land in one
        // child the hash prefix is constant (duplicate-heavy key): keep
        // the leaf as-is rather than recursing forever — checked *before*
        // writing anything, so degenerate partitions cost no extra I/O
        // and the spill counters only ever count files that are kept.
        let entries_vec = read_part_entries(&file, entries)?;
        let mut counts = [0usize; GRACE_FANOUT];
        for &(h, _) in &entries_vec {
            counts[nibble(h, level)] += 1;
        }
        if counts.iter().filter(|&&n| n > 0).count() <= 1 {
            return Ok(BuildNode::Leaf { file, entries });
        }
        let mut writers = (0..GRACE_FANOUT)
            .map(|_| PartWriter::create(&self.dir, self.retry_limit))
            .collect::<Result<Vec<_>, _>>()?;
        for &(h, rid) in &entries_vec {
            writers[nibble(h, level)].write(h, rid)?;
        }
        drop(file);
        let mut children = Vec::with_capacity(GRACE_FANOUT);
        for w in writers {
            self.interrupt.check()?;
            let (file, entries, retried) = w.finish()?;
            self.retries += retried;
            self.spill_runs += 1;
            self.spill_bytes += entries * PART_ENTRY_BYTES;
            children.push(self.split_if_needed(
                BuildNode::Leaf { file, entries },
                level + 1,
                load_limit,
            )?);
        }
        Ok(BuildNode::Split(children))
    }
}

fn flatten(node: BuildNode, leaves: &mut Vec<(SpillFile, usize)>) -> PartNode {
    match node {
        BuildNode::Leaf { file, entries } => {
            leaves.push((file, entries));
            PartNode::Leaf(leaves.len() - 1)
        }
        BuildNode::Split(children) => {
            PartNode::Split(children.into_iter().map(|c| flatten(c, leaves)).collect())
        }
    }
}

fn read_part_entries(file: &SpillFile, entries: usize) -> Result<Vec<(u64, u64)>, ExecError> {
    let site = fault::SITE_PART_READ;
    let injected = fault::check(site);
    if let Some(kind @ (FaultKind::IoError | FaultKind::ShortWrite)) = injected {
        return Err(ExecError::io(site, &fault::injected_io_error(site, kind)));
    }
    let corrupt_injected = matches!(injected, Some(FaultKind::Corrupt));
    let handle = file.open().map_err(|e| ExecError::io(site, &e))?;
    let mut input = BufReader::new(handle);
    let mut out = Vec::with_capacity(entries.min(1 << 20));
    let mut crc = Xxh32Stripes::new();
    let mut buf = [0u8; PART_ENTRY_BYTES];
    let corrupt = |offset: u64, detail: &str| ExecError::Corrupt {
        file: file.path().display().to_string(),
        offset,
        detail: detail.into(),
    };
    for i in 0..entries {
        input.read_exact(&mut buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt((i * PART_ENTRY_BYTES) as u64, "truncated partition file")
            } else {
                ExecError::io(site, &e)
            }
        })?;
        if corrupt_injected && i == 0 {
            buf[0] ^= 0x40;
        }
        crc.update16(&buf);
        let mut h8 = [0u8; 8];
        let mut r8 = [0u8; 8];
        h8.copy_from_slice(&buf[..8]);
        r8.copy_from_slice(&buf[8..]);
        out.push((u64::from_le_bytes(h8), u64::from_le_bytes(r8)));
    }
    let mut footer = [0u8; 4];
    input.read_exact(&mut footer).map_err(|_| {
        corrupt(
            (entries * PART_ENTRY_BYTES) as u64,
            "missing checksum footer",
        )
    })?;
    let mut stored = u32::from_le_bytes(footer);
    if corrupt_injected && entries == 0 {
        stored ^= 1;
    }
    if crc.finish() != stored {
        return Err(corrupt(0, "partition checksum mismatch"));
    }
    Ok(out)
}

/// The probe-time half of the Grace join: an immutable tree of partition
/// files.  Probes address a partition by hash ([`SpilledPartitions::partition_of`]),
/// load it into a transient bucket table ([`SpilledPartitions::load`]) and
/// probe that — each probing operator keeps its own small partition
/// cache, so the shared structure needs no locks.
pub struct SpilledPartitions {
    nodes: Vec<PartNode>,
    leaves: Vec<(SpillFile, usize)>,
    /// Partition files written while building (splits included).
    pub spill_runs: usize,
    /// Bytes written while building.
    pub spill_bytes: usize,
    /// Transient write failures retried while building.
    pub retries: usize,
}

/// A leaf partition id: the flat index assigned by depth-first order.
pub type PartId = usize;

impl SpilledPartitions {
    /// Number of leaf partitions (the `partitions` EXPLAIN actual).
    pub fn partitions(&self) -> usize {
        self.leaves.len()
    }

    /// The leaf partition a hash routes to (`O(depth)`).
    pub fn partition_of(&self, hash: u64) -> PartId {
        let mut nodes = &self.nodes;
        let mut level = 0usize;
        loop {
            match &nodes[nibble(hash, level)] {
                PartNode::Leaf(id) => return *id,
                PartNode::Split(children) => {
                    nodes = children;
                    level += 1;
                }
            }
        }
    }

    /// Estimated footprint of the partition's loaded bucket table.
    pub fn load_footprint(&self, id: PartId) -> usize {
        self.leaves[id].1 * BUILD_ENTRY_FOOTPRINT
    }

    /// Load a partition into a `hash → rids` bucket table.
    pub fn load(
        &self,
        id: PartId,
    ) -> Result<std::collections::HashMap<u64, Vec<usize>>, ExecError> {
        let (file, entries) = &self.leaves[id];
        let mut buckets: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (h, rid) in read_part_entries(file, *entries)? {
            buckets.entry(h).or_default().push(rid as usize);
        }
        Ok(buckets)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::error::CancelToken;
    use crate::fault::{FaultPlan, Trigger};
    use std::sync::Mutex;

    fn tmp() -> PathBuf {
        std::env::temp_dir().join("xqjg-spill-tests")
    }

    /// Serializes every test that performs spill I/O: fault arming is
    /// process-global, so a test running with a `FaultGuard` installed
    /// must not overlap with another test's innocent spill writes.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn io_lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn budget_reserve_release_and_peak() {
        let b = MemBudget::new(Some(100));
        assert!(b.try_reserve(60));
        assert!(!b.try_reserve(60));
        assert!(b.try_reserve(40));
        assert_eq!(b.used(), 100);
        b.release(60);
        assert_eq!(b.used(), 40);
        b.reserve_force(200);
        assert_eq!(b.used(), 240);
        assert_eq!(b.peak(), 240);
        b.release(240);
        assert_eq!(b.used(), 0);
        let unlimited = MemBudget::new(None);
        assert!(unlimited.try_reserve(usize::MAX / 2));
    }

    #[test]
    fn codec_roundtrips_every_value_shape() {
        let row: Row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Dec(2.75),
            Value::str("höhe"),
            Value::str(""),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_row(&buf, &mut pos).unwrap(), row);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn malformed_bytes_decode_to_corrupt_errors_not_panics() {
        // Unknown tag.
        let mut pos = 0;
        let buf = [1u8, 0, 0, 0, 0xEE];
        assert!(matches!(
            decode_row(&buf, &mut pos),
            Err(ExecError::Corrupt { .. })
        ));
        // Truncated payload after an Int tag.
        let mut pos = 0;
        let buf = [1u8, 0, 0, 0, TAG_INT, 1, 2];
        assert!(matches!(
            decode_row(&buf, &mut pos),
            Err(ExecError::Corrupt { .. })
        ));
        // Absurd arity fails on a missing tag instead of allocating.
        let mut pos = 0;
        let buf = [0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            decode_row(&buf, &mut pos),
            Err(ExecError::Corrupt { .. })
        ));
        // Invalid UTF-8 inside a string value.
        let mut buf = Vec::new();
        encode_row(&[Value::str("ab")], &mut buf);
        let bad = buf.len() - 1;
        buf[bad] = 0xFF;
        let mut pos = 0;
        assert!(matches!(
            decode_row(&buf, &mut pos),
            Err(ExecError::Corrupt { .. })
        ));
    }

    #[test]
    fn streaming_checksum_matches_one_shot_on_stripes() {
        for stripes in [0usize, 1, 2, 10] {
            let data: Vec<u8> = (0..stripes * 16).map(|i| (i * 7 + 3) as u8).collect();
            let mut s = Xxh32Stripes::new();
            for chunk in data.chunks_exact(16) {
                let mut b = [0u8; 16];
                b.copy_from_slice(chunk);
                s.update16(&b);
            }
            assert_eq!(s.finish(), record_checksum(&data), "{stripes} stripes");
        }
        // Distinct inputs hash apart (sanity, not a collision proof).
        assert_ne!(record_checksum(b"hello"), record_checksum(b"hellp"));
    }

    #[test]
    fn row_footprint_counts_string_heap() {
        let small = row_footprint(&[Value::Int(1)]);
        let with_str = row_footprint(&[Value::str("0123456789")]);
        assert!(with_str >= small + 10 - std::mem::size_of::<Value>());
        assert!(row_footprint(&[]) > 0);
    }

    fn external_sort(rows: Vec<(Row, Row)>, budget: Option<usize>) -> (Vec<Row>, usize) {
        let b = MemBudget::new(budget);
        let mut s = ExternalSorter::new(b, tmp());
        for (key, payload) in rows {
            s.push(key, payload).unwrap();
        }
        let sorted = s.finish().unwrap();
        let runs = sorted.spill_runs;
        (sorted.map(Result::unwrap).collect(), runs)
    }

    #[test]
    fn external_sort_matches_stable_in_memory_sort() {
        let _g = io_lock();
        // Duplicated keys probe the stability guarantee: payloads must come
        // out in push order within equal keys.
        let mut rows: Vec<(Row, Row)> = Vec::new();
        for i in 0..500usize {
            let key = vec![Value::Int((i % 7) as i64)];
            let payload = vec![Value::Int(i as i64), Value::str(format!("p{i}"))];
            rows.push((key, payload));
        }
        let mut expect: Vec<(Row, Row)> = rows.clone();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        let expect: Vec<Row> = expect.into_iter().map(|(_, p)| p).collect();

        let (mem, mem_runs) = external_sort(rows.clone(), None);
        assert_eq!(mem_runs, 0);
        assert_eq!(mem, expect);

        for budget in [64, 1024, 16 * 1024] {
            let (spilled, runs) = external_sort(rows.clone(), Some(budget));
            assert!(runs > 0, "budget {budget} must force runs");
            assert_eq!(spilled, expect, "budget {budget} changed the order");
        }
    }

    #[test]
    fn typed_finish_matches_row_comparator() {
        let mut rows: Vec<(Row, Row)> = Vec::new();
        for i in 0..300usize {
            let key = vec![Value::Int((i % 7) as i64), Value::Int(-((i % 3) as i64))];
            let payload = vec![Value::Int(i as i64), Value::str(format!("p{i}"))];
            rows.push((key, payload));
        }
        let mut expect: Vec<(Row, Row)> = rows.clone();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        let expect: Vec<Row> = expect.into_iter().map(|(_, p)| p).collect();

        let mut s = ExternalSorter::new(MemBudget::new(None), tmp());
        for (key, payload) in rows.clone() {
            s.push(key, payload).unwrap();
        }
        let sorted = s.finish().unwrap();
        assert_eq!(
            sorted.typed_rows, 300,
            "all-Int keys must engage the kernel"
        );
        assert_eq!(sorted.map(Result::unwrap).collect::<Vec<Row>>(), expect);

        // A string key bails to the row comparator with identical output.
        let mut s = ExternalSorter::new(MemBudget::new(None), tmp());
        for (key, payload) in rows {
            let mut key = key;
            key.push(Value::str("tail"));
            s.push(key, payload).unwrap();
        }
        let sorted = s.finish().unwrap();
        assert_eq!(
            sorted.typed_rows, 0,
            "string key must not engage the kernel"
        );
        assert_eq!(sorted.map(Result::unwrap).collect::<Vec<Row>>(), expect);
    }

    #[test]
    fn typed_finish_handles_null_keys_like_the_row_comparator() {
        // NULL sort keys take the nullable permutation path: NULLs first,
        // ties in push order — byte-identical to `Value::cmp`.
        let mut rows: Vec<(Row, Row)> = Vec::new();
        for i in 0..200usize {
            let key = vec![
                if i % 5 == 2 {
                    Value::Null
                } else {
                    Value::Int((i % 7) as i64)
                },
                Value::Int(-((i % 3) as i64)),
            ];
            rows.push((key, vec![Value::Int(i as i64)]));
        }
        let mut expect: Vec<(Row, Row)> = rows.clone();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        let expect: Vec<Row> = expect.into_iter().map(|(_, p)| p).collect();

        let mut s = ExternalSorter::new(MemBudget::new(None), tmp());
        for (key, payload) in rows {
            s.push(key, payload).unwrap();
        }
        let sorted = s.finish().unwrap();
        assert_eq!(
            sorted.typed_rows, 200,
            "NULL-bearing Int keys must still engage the kernel"
        );
        assert_eq!(sorted.map(Result::unwrap).collect::<Vec<Row>>(), expect);
    }

    #[test]
    fn explicit_seqs_control_the_tie_break() {
        // Push in reverse seq order: a key-only stable sort would keep push
        // order within equal keys; (key, seq) order must reverse it.
        let n = 50u64;
        let mut s = ExternalSorter::new(MemBudget::new(None), tmp());
        for i in 0..n {
            s.push_with_seq(n - i, vec![Value::Int(0)], vec![Value::Int(i as i64)])
                .unwrap();
        }
        let sorted = s.finish().unwrap();
        assert_eq!(
            sorted.typed_rows, 0,
            "non-monotonic seqs keep the row comparator"
        );
        let got: Vec<Row> = sorted.map(Result::unwrap).collect();
        let expect: Vec<Row> = (0..n).rev().map(|i| vec![Value::Int(i as i64)]).collect();
        assert_eq!(got, expect);
        // Monotonic explicit seqs (with gaps) keep the fast path valid.
        let mut s = ExternalSorter::new(MemBudget::new(None), tmp());
        for i in 0..n {
            s.push_with_seq(i * 10, vec![Value::Int(0)], vec![Value::Int(i as i64)])
                .unwrap();
        }
        let sorted = s.finish().unwrap();
        assert_eq!(sorted.typed_rows, n as usize);
        let got: Vec<Row> = sorted.map(Result::unwrap).collect();
        let expect: Vec<Row> = (0..n).map(|i| vec![Value::Int(i as i64)]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn cascaded_merge_bounds_open_runs_and_preserves_order() {
        let _g = io_lock();
        // ~7000 rows at ~80 bytes each under a 4K budget (run floor 4K)
        // produce well over MAX_MERGE_FANIN runs, forcing a cascade pass.
        let mut rows: Vec<(Row, Row)> = Vec::new();
        for i in 0..7000usize {
            rows.push((
                vec![Value::Int((i % 11) as i64)],
                vec![Value::Int(i as i64), Value::str(format!("pay-{i:06}"))],
            ));
        }
        let mut expect: Vec<(Row, Row)> = rows.clone();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        let expect: Vec<Row> = expect.into_iter().map(|(_, p)| p).collect();

        let b = MemBudget::new(Some(4096));
        let mut s = ExternalSorter::new(b, tmp());
        for (key, payload) in rows {
            s.push(key, payload).unwrap();
        }
        let sorted = s.finish().unwrap();
        assert!(
            sorted.spill_runs > MAX_MERGE_FANIN,
            "fixture too small to exercise the cascade ({} runs)",
            sorted.spill_runs
        );
        let got: Vec<Row> = sorted.map(Result::unwrap).collect();
        assert_eq!(got, expect, "cascaded merge changed the order");
    }

    #[test]
    fn saturated_budget_still_builds_useful_runs() {
        let _g = io_lock();
        // Saturate the budget with a foreign reservation, as a giant
        // DISTINCT dedup set would: the sorter must keep producing runs of
        // at least the floor size instead of one-record files.
        let b = MemBudget::new(Some(1024));
        b.reserve_force(4096);
        let mut s = ExternalSorter::new(b.clone(), tmp());
        let n = 2000usize;
        for i in 0..n {
            s.push(vec![Value::Int(i as i64)], vec![Value::Int(i as i64)])
                .unwrap();
        }
        let sorted = s.finish().unwrap();
        let per_run = n / sorted.spill_runs.max(1);
        assert!(
            per_run > 10,
            "{} runs for {n} rows — degraded to tiny runs",
            sorted.spill_runs
        );
        assert_eq!(sorted.count(), n);
        b.release(4096);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn external_sort_releases_its_reservations() {
        let _g = io_lock();
        let b = MemBudget::new(Some(512));
        {
            let mut s = ExternalSorter::new(b.clone(), tmp());
            for i in 0..100 {
                s.push(vec![Value::Int(i)], vec![Value::Int(i)]).unwrap();
            }
            let _ = s.finish().unwrap().count();
        }
        assert_eq!(b.used(), 0, "sorter must release all reservations");
    }

    #[test]
    fn loser_tree_merges_single_and_empty_runs() {
        let _g = io_lock();
        let (out, runs) = external_sort(vec![(vec![Value::Int(1)], vec![Value::Int(1)])], Some(1));
        assert_eq!(out, vec![vec![Value::Int(1)]]);
        assert!(runs <= 1);
        let (empty, _) = external_sort(Vec::new(), Some(1));
        assert!(empty.is_empty());
    }

    #[test]
    fn grace_partitions_roundtrip_all_entries() {
        let _g = io_lock();
        let mut gb = GraceBuilder::new(tmp()).unwrap();
        let entries: Vec<(u64, usize)> = (0..1000usize)
            .map(|i| (crate::hash_values([&Value::Int(i as i64)]), i))
            .collect();
        for &(h, rid) in &entries {
            gb.add(h, rid).unwrap();
        }
        let parts = gb.finish(usize::MAX).unwrap();
        assert_eq!(parts.partitions(), GRACE_FANOUT);
        assert!(parts.spill_runs >= GRACE_FANOUT);
        assert!(parts.spill_bytes >= entries.len() * 16);
        for &(h, rid) in &entries {
            let pid = parts.partition_of(h);
            let buckets = parts.load(pid).unwrap();
            assert!(
                buckets.get(&h).is_some_and(|rids| rids.contains(&rid)),
                "entry ({h}, {rid}) lost in partition {pid}"
            );
        }
    }

    #[test]
    fn skewed_partitions_split_recursively() {
        let _g = io_lock();
        let mut gb = GraceBuilder::new(tmp()).unwrap();
        for i in 0..2000usize {
            gb.add(crate::hash_values([&Value::Int(i as i64)]), i)
                .unwrap();
        }
        // ~125 entries land in each root partition; a load limit of 10
        // entries forces recursive splits.
        let parts = gb.finish(10 * BUILD_ENTRY_FOOTPRINT).unwrap();
        assert!(parts.partitions() > GRACE_FANOUT, "no split happened");
        // Every entry still routes to exactly the partition that holds it.
        for i in 0..2000usize {
            let h = crate::hash_values([&Value::Int(i as i64)]);
            let buckets = parts.load(parts.partition_of(h)).unwrap();
            assert!(buckets.get(&h).is_some_and(|r| r.contains(&i)));
        }
    }

    #[test]
    fn identical_hashes_do_not_split_forever() {
        let _g = io_lock();
        let mut gb = GraceBuilder::new(tmp()).unwrap();
        for i in 0..100usize {
            gb.add(0xDEAD_BEEF, i).unwrap();
        }
        let parts = gb.finish(1).unwrap();
        // The duplicate-hash partition refuses to split (degenerate), the
        // other 15 roots stay as empty leaves.
        assert_eq!(parts.partitions(), GRACE_FANOUT);
        let buckets = parts.load(parts.partition_of(0xDEAD_BEEF)).unwrap();
        assert_eq!(buckets[&0xDEAD_BEEF].len(), 100);
        // The refused split wrote nothing: the counters cover exactly the
        // root partitioning pass (checksum footers are excluded — they are
        // format overhead, not entry payload).
        assert_eq!(parts.spill_runs, GRACE_FANOUT);
        assert_eq!(parts.spill_bytes, 100 * 16);
    }

    #[test]
    fn spill_files_are_deleted_on_drop() {
        let _g = io_lock();
        let dir = tmp();
        let path = {
            let (file, mut handle) = SpillFile::create(&dir, "probe").unwrap();
            handle.write_all(b"x").unwrap();
            file.path().to_path_buf()
        };
        assert!(!path.exists(), "spill file must unlink on drop");
    }

    /// A fresh directory for one fault test, so a run-file leak is
    /// detectable as a non-empty directory afterwards.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = tmp().join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn dir_entries(dir: &Path) -> usize {
        std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
    }

    /// ~36 runs under a 1 KiB budget — enough to exercise spill writes on
    /// every flush while staying below the cascade fan-in (so a damaged
    /// record surfaces during iteration, not inside `finish`).
    fn spilling_sorter(dir: PathBuf, budget: &Arc<MemBudget>) -> ExternalSorter {
        let mut s = ExternalSorter::new(budget.clone(), dir);
        for i in 0..1000i64 {
            s.push(vec![Value::Int(i % 13)], vec![Value::Int(i)])
                .unwrap();
        }
        s
    }

    #[test]
    fn transient_write_fault_retries_and_succeeds() {
        let _g = io_lock();
        let dir = fresh_dir("retry-ok");
        let budget = MemBudget::new(Some(1024));
        let guard =
            FaultPlan::single(fault::SITE_RUN_WRITE, Trigger::Nth(1), FaultKind::IoError).install();
        let sorted = spilling_sorter(dir.clone(), &budget).finish().unwrap();
        assert!(sorted.retries >= 1, "the injected fault must be retried");
        assert!(sorted.spill_runs > 0);
        let rows: Vec<Row> = sorted.map(Result::unwrap).collect();
        assert_eq!(rows.len(), 1000);
        drop(guard);
        assert_eq!(budget.used(), 0);
        assert_eq!(dir_entries(&dir), 0, "run files must not leak");
    }

    #[test]
    fn exhausted_retries_surface_the_injected_error() {
        let _g = io_lock();
        let dir = fresh_dir("retry-exhausted");
        let budget = MemBudget::new(Some(1024));
        let guard =
            FaultPlan::single(fault::SITE_RUN_WRITE, Trigger::Always, FaultKind::IoError).install();
        let mut s = ExternalSorter::new(budget.clone(), dir.clone());
        s.set_retries(1);
        let mut err = None;
        for i in 0..2000i64 {
            if let Err(e) = s.push(vec![Value::Int(i % 13)], vec![Value::Int(i)]) {
                err = Some(e);
                break;
            }
        }
        let err = err.expect("an always-on write fault must fail the sort");
        assert!(matches!(err, ExecError::Io { site, .. } if site == fault::SITE_RUN_WRITE));
        assert_eq!(s.retries, 1, "exactly the configured retry budget");
        drop(s);
        drop(guard);
        assert_eq!(budget.used(), 0, "drop must release all reservations");
        assert_eq!(dir_entries(&dir), 0, "failed runs must not leak");
    }

    #[test]
    fn corrupt_run_record_is_detected_on_read() {
        let _g = io_lock();
        let dir = fresh_dir("corrupt-run");
        let budget = MemBudget::new(Some(1024));
        let guard =
            FaultPlan::single(fault::SITE_RUN_WRITE, Trigger::Nth(1), FaultKind::Corrupt).install();
        // The damaged record is the first of its run, so opening the run
        // for the merge (which primes the reader's head) may surface the
        // corruption already at finish(); later records surface during
        // iteration.  Either way it must be a located checksum error.
        let first_err = match spilling_sorter(dir.clone(), &budget).finish() {
            Err(e) => Some(e),
            Ok(sorted) => sorted.filter_map(Result::err).next(),
        };
        assert!(
            matches!(
                &first_err,
                Some(ExecError::Corrupt { file, detail, .. })
                    if detail.contains("checksum") && file.contains(".run")
            ),
            "expected a located checksum failure, got {first_err:?}"
        );
        drop(guard);
        assert_eq!(budget.used(), 0);
        assert_eq!(dir_entries(&dir), 0);
    }

    #[test]
    fn partition_corruption_is_detected_on_load() {
        let _g = io_lock();
        let dir = fresh_dir("corrupt-part");
        let guard = FaultPlan::single(fault::SITE_PART_WRITE, Trigger::Nth(1), FaultKind::Corrupt)
            .install();
        let mut gb = GraceBuilder::new(dir.clone()).unwrap();
        for i in 0..100usize {
            gb.add(crate::hash_values([&Value::Int(i as i64)]), i)
                .unwrap();
        }
        let parts = gb.finish(usize::MAX).unwrap();
        let damaged = (0..parts.partitions())
            .filter_map(|pid| parts.load(pid).err())
            .next();
        assert!(
            matches!(
                &damaged,
                Some(ExecError::Corrupt { detail, .. }) if detail.contains("checksum")
            ),
            "expected a partition checksum failure, got {damaged:?}"
        );
        drop(guard);
        drop(parts);
        assert_eq!(dir_entries(&dir), 0);
    }

    #[test]
    fn cancelled_sorter_stops_and_cleans_up() {
        let _g = io_lock();
        let dir = fresh_dir("cancel");
        let budget = MemBudget::new(Some(256));
        let token = CancelToken::new();
        let mut s = ExternalSorter::new(budget.clone(), dir.clone());
        s.set_interrupt(Interrupt::new(Some(token.clone()), None));
        let mut err = None;
        for i in 0..4000i64 {
            if i == 2000 {
                token.cancel();
            }
            if let Err(e) = s.push(vec![Value::Int(i)], vec![Value::Int(i)]) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(ExecError::Cancelled));
        drop(s);
        assert_eq!(budget.used(), 0, "cancel must release all reservations");
        assert_eq!(dir_entries(&dir), 0, "cancel must delete all run files");
    }
}
