//! `evcap-store`: a persistent, append-only artifact store for solved
//! activation policies.
//!
//! The serve tier and the fleet solver both pay a full optimizer run per
//! scenario miss; this crate makes those solves durable. A store is one
//! flat file of checksummed, length-prefixed records — each a compact
//! binary serialization of `(Scenario, PolicyParams, iterations)`, the
//! exact inputs [`evcap_spec::rehydrate`] needs to reassemble a
//! [`SolvedPolicy`] bit-for-bit without re-running any optimizer — plus an
//! in-memory index keyed by [`Scenario::canonical_key`] that is rebuilt by
//! scanning the file at open.
//!
//! Design points:
//!
//! * **Crash-safe appends**: a record becomes visible only once fully
//!   written; a torn tail (partial record from a crash mid-append) is
//!   detected at open, tolerated, and overwritten by the next append.
//! * **Corruption is contained**: every record carries a CRC-32; a record
//!   whose scenario prefix still decodes is indexed even when its checksum
//!   fails, so a caller observes a structured *rejection* for that key
//!   (and can fall back to a fresh solve) rather than a silent miss.
//! * **No panics on hostile bytes**: every decode failure is a
//!   [`StoreError`]; allocation sizes are bounds-checked against the
//!   record length.
//! * **Neighbor lookup**: [`Store::warm_hint`] finds the stored
//!   clustering artifact nearest a scenario (same distribution, closest
//!   recharge rate `e`). It once seeded the clustering search; the search
//!   no longer takes hints, and the lookup stays for callers that ask.
//!
//! Loading always re-verifies the checksum and re-derives the policy via
//! [`evcap_spec::rehydrate`]; this crate never constructs a policy itself.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use evcap_spec::{PolicyParams, PolicySpec, Scenario, SolvedPolicy};

pub mod format;

use format::{crc32, FormatError, MAGIC, MIN_VERSION, VERSION};

/// File name of the record log inside a store directory.
pub const STORE_FILE: &str = "artifacts.evst";

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the `EVST` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is newer than this build writes (or
    /// older than it still decodes).
    WrongVersion {
        /// The version actually found.
        found: u32,
        /// The newest version this build understands.
        expected: u32,
    },
    /// A record failed its checksum or structural decode.
    Corrupt {
        /// Byte offset of the record header inside the store file.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// No record is indexed under the requested key.
    NotFound {
        /// The canonical scenario key that missed.
        key: String,
    },
    /// The record decoded but [`evcap_spec::rehydrate`] refused to turn it
    /// back into a policy (stale parameters, family mismatch, …).
    Rejected {
        /// The canonical scenario key of the record.
        key: String,
        /// The rehydration failure.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store i/o error: {e}"),
            Self::BadMagic { found } => {
                write!(
                    f,
                    "not an evcap store (magic {found:02x?}, wanted \"EVST\")"
                )
            }
            Self::WrongVersion { found, expected } => {
                write!(
                    f,
                    "store format version {found} (this build reads up to {expected})"
                )
            }
            Self::Corrupt { offset, detail } => {
                write!(f, "corrupt record at byte {offset}: {detail}")
            }
            Self::NotFound { key } => write!(f, "no stored artifact for `{key}`"),
            Self::Rejected { key, detail } => {
                write!(f, "stored artifact for `{key}` rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One indexed record: where it lives in the file.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Byte offset of the record header (`len | crc`).
    offset: u64,
    /// Payload length in bytes.
    len: u32,
}

/// Outcome of a full-file [`Store::verify`] scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Well-formed records whose checksum and structural decode both pass.
    pub valid: usize,
    /// Records that failed the checksum or the decode, with details.
    pub corrupt: Vec<(u64, String)>,
    /// Bytes of unparseable tail data (torn final append), if any.
    pub torn_tail_bytes: u64,
}

impl VerifyReport {
    /// True when every byte of the store is accounted for by valid records.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.torn_tail_bytes == 0
    }
}

/// Outcome of a [`Store::compact`] rewrite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Records carried into the compacted file (one per surviving key).
    pub kept: usize,
    /// Records dropped (superseded duplicates, corrupt, torn tail).
    pub dropped: usize,
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
}

/// An append-only artifact store rooted at a directory.
///
/// See the crate docs for the format and the durability model. All methods
/// take `&mut self` because they share one seekable file handle; wrap the
/// store in a mutex to share it across threads.
pub struct Store {
    dir: PathBuf,
    file: File,
    index: HashMap<String, IndexEntry>,
    /// End of the last well-formed record: where the next append goes.
    tail: u64,
    /// Records skipped at open because even their scenario prefix was
    /// undecodable.
    unindexed: usize,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("entries", &self.index.len())
            .field("bytes", &self.tail)
            .finish()
    }
}

impl Store {
    /// Opens (creating if necessary) the store rooted at `dir`, scanning
    /// the record log to rebuild the in-memory index.
    ///
    /// A torn tail — a partial record from a crash mid-append — is
    /// tolerated and will be overwritten by the next append. A record
    /// whose checksum fails but whose scenario prefix still decodes is
    /// indexed anyway, so loads of that key report the corruption instead
    /// of a silent miss.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::BadMagic`]
    /// / [`StoreError::WrongVersion`] if the file is not a store this
    /// build can read.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(STORE_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();

        if file_len == 0 {
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_data()?;
            return Ok(Self {
                dir: dir.to_path_buf(),
                file,
                index: HashMap::new(),
                tail: 8,
                unindexed: 0,
            });
        }

        let mut header = [0u8; 8];
        if file_len < 8 {
            return Err(StoreError::Corrupt {
                offset: 0,
                detail: format!("file is {file_len} bytes, smaller than the header"),
            });
        }
        file.read_exact(&mut header)?;
        let found: [u8; 4] = header[..4].try_into().expect("four header bytes");
        if found != MAGIC {
            return Err(StoreError::BadMagic { found });
        }
        let version = u32::from_le_bytes(header[4..].try_into().expect("four version bytes"));
        // v1 is decodable as-is (a v2 payload without the objective prefix
        // is exactly a v1 payload), so both generations open here.
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(StoreError::WrongVersion {
                found: version,
                expected: VERSION,
            });
        }

        let mut store = Self {
            dir: dir.to_path_buf(),
            file,
            index: HashMap::new(),
            tail: 8,
            unindexed: 0,
        };
        store.rescan(file_len)?;
        Ok(store)
    }

    /// Rebuilds the index by scanning records in `[8, file_len)`.
    fn rescan(&mut self, file_len: u64) -> Result<(), StoreError> {
        self.index.clear();
        self.unindexed = 0;
        let mut pos = 8u64;
        self.file.seek(SeekFrom::Start(pos))?;
        while pos + 8 <= file_len {
            let mut header = [0u8; 8];
            self.file.read_exact(&mut header)?;
            let len = u32::from_le_bytes(header[..4].try_into().expect("len bytes"));
            let end = pos + 8 + u64::from(len);
            if end > file_len {
                break; // torn tail: the append never finished
            }
            let mut payload = vec![0u8; len as usize];
            self.file.read_exact(&mut payload)?;
            // Index by the scenario prefix even when the checksum fails,
            // so the corruption surfaces as a rejection on load.
            match format::decode_scenario(&payload) {
                Ok(scenario) => {
                    self.index
                        .insert(scenario.canonical_key(), IndexEntry { offset: pos, len });
                }
                Err(_) => self.unindexed += 1,
            }
            pos = end;
            self.tail = pos;
        }
        self.tail = self.tail.max(8);
        Ok(())
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct scenario keys indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Logical size of the record log in bytes (header + records; excludes
    /// any torn tail).
    pub fn bytes(&self) -> u64 {
        self.tail
    }

    /// Records skipped at open because their scenario prefix was
    /// undecodable (they hold dead bytes until [`Store::compact`]).
    pub fn unindexed(&self) -> usize {
        self.unindexed
    }

    /// Whether `key` has an indexed record (which may still fail its
    /// checksum on load).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// The indexed canonical keys, in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Appends one solved artifact, making it durable before returning.
    ///
    /// Runs under the `store.append` timing span.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the write or sync fails.
    pub fn append(&mut self, solved: &SolvedPolicy) -> Result<(), StoreError> {
        let _span = evcap_obs::timing::span("store.append");
        let payload = format::encode(&solved.scenario, &solved.params, solved.meta.iterations);
        let len = u32::try_from(payload.len()).map_err(|_| StoreError::Corrupt {
            offset: self.tail,
            detail: format!("record payload of {} bytes exceeds u32", payload.len()),
        })?;
        let mut record = Vec::with_capacity(payload.len() + 8);
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);

        self.file.seek(SeekFrom::Start(self.tail))?;
        self.file.write_all(&record)?;
        self.file.sync_data()?;
        let offset = self.tail;
        self.tail += record.len() as u64;
        self.index
            .insert(solved.scenario.canonical_key(), IndexEntry { offset, len });
        evcap_obs::timing::add_count("store.appended_bytes", record.len() as u64);
        Ok(())
    }

    /// Reads and fully decodes the record for `key` without rehydrating
    /// it: the stored scenario, family parameters, and solve iterations.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unindexed keys; [`StoreError::Corrupt`]
    /// when the checksum, the structural decode, or the key cross-check
    /// fails; [`StoreError::Io`] on read failures.
    pub fn load_record(&mut self, key: &str) -> Result<(Scenario, PolicyParams, u64), StoreError> {
        let entry = *self.index.get(key).ok_or_else(|| StoreError::NotFound {
            key: key.to_owned(),
        })?;
        let corrupt = |detail: String| StoreError::Corrupt {
            offset: entry.offset,
            detail,
        };
        self.file.seek(SeekFrom::Start(entry.offset))?;
        let mut header = [0u8; 8];
        self.file.read_exact(&mut header)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len != entry.len {
            return Err(corrupt(format!(
                "indexed length {} disagrees with on-disk length {len}",
                entry.len
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact(&mut payload)?;
        let actual = crc32(&payload);
        if actual != crc {
            return Err(corrupt(format!(
                "checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"
            )));
        }
        let (scenario, params, iterations) =
            format::decode(&payload).map_err(|e: FormatError| corrupt(e.to_string()))?;
        if scenario.canonical_key() != key {
            return Err(corrupt(format!(
                "record is keyed `{}` but was indexed under `{key}`",
                scenario.canonical_key()
            )));
        }
        Ok((scenario, params, iterations))
    }

    /// Loads and rehydrates the artifact stored under `key`.
    ///
    /// The checksum is re-verified and the policy is rebuilt through
    /// [`evcap_spec::rehydrate`], so the result is bit-identical to the
    /// solve that produced the record. Runs under the `store.load` timing
    /// span. **This does not certify the artifact** — callers that serve
    /// the result must still pass it through `evcap_audit`.
    ///
    /// # Errors
    ///
    /// Everything [`Store::load_record`] reports, plus
    /// [`StoreError::Rejected`] when rehydration refuses the parameters.
    pub fn load(&mut self, key: &str) -> Result<SolvedPolicy, StoreError> {
        let _span = evcap_obs::timing::span("store.load");
        let (scenario, params, iterations) = self.load_record(key)?;
        evcap_spec::rehydrate(&scenario, &params, iterations).map_err(|e| StoreError::Rejected {
            key: key.to_owned(),
            detail: e.to_string(),
        })
    }

    /// Finds the stored clustering optimum nearest to `scenario` — same
    /// canonical distribution, costs, battery, horizon, and sensor count,
    /// closest recharge rate `e`.
    ///
    /// This used to seed the clustering enumeration. The search no longer
    /// takes hints: `evcap_spec::solve_with_hint` accepts one and returns
    /// exactly what `evcap_spec::solve` does, so a hint from here changes
    /// neither the result nor the work.
    ///
    /// Equidistant neighbors (in `f64`, 0.1 and 0.16 are equally far from
    /// 0.13) are broken by the smaller canonical key, so the answer never
    /// depends on the index's hash order.
    ///
    /// Returns `None` for non-clustering scenarios, when no neighbor
    /// matches, or when the nearest record cannot be decoded.
    pub fn warm_hint(&mut self, scenario: &Scenario) -> Option<(usize, usize, usize)> {
        if scenario.policy() != PolicySpec::Clustering {
            return None;
        }
        let target = scenario.canonical_key();
        let target_fields: Vec<&str> = target.split('|').collect();
        let target_e = scenario.e();
        let mut nearest: Option<(String, f64)> = None;
        for key in self.index.keys() {
            let fields: Vec<&str> = key.split('|').collect();
            if fields.len() != target_fields.len() {
                continue;
            }
            // All canonical-key fields must match except the recharge spec
            // (index 2, derived from `e`) and `e` itself (index 3).
            let comparable = fields
                .iter()
                .zip(&target_fields)
                .enumerate()
                .all(|(i, (f, t))| i == 2 || i == 3 || f == t);
            if !comparable {
                continue;
            }
            let Some(e) = fields[3]
                .strip_prefix("e=")
                .and_then(|v| v.parse::<f64>().ok())
            else {
                continue;
            };
            let dist = (e - target_e).abs();
            if !dist.is_finite() {
                continue;
            }
            let nearer = match &nearest {
                None => true,
                Some((best_key, best)) => dist < *best || (dist == *best && key < best_key),
            };
            if nearer {
                nearest = Some((key.clone(), dist));
            }
        }
        let (key, _) = nearest?;
        match self.load_record(&key) {
            Ok((_, PolicyParams::Clustering { n1, n2, n3, .. }, _)) => Some((n1, n2, n3)),
            _ => None,
        }
    }

    /// Scans every record in the file, re-checking checksums and
    /// structural decodes; never fails on corrupt data (that is the
    /// report's job).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only, for filesystem failures.
    pub fn verify(&mut self) -> Result<VerifyReport, StoreError> {
        let file_len = self.file.metadata()?.len();
        let mut report = VerifyReport::default();
        let mut pos = 8u64;
        while pos + 8 <= file_len {
            self.file.seek(SeekFrom::Start(pos))?;
            let mut header = [0u8; 8];
            self.file.read_exact(&mut header)?;
            let len = u32::from_le_bytes(header[..4].try_into().expect("len bytes"));
            let crc = u32::from_le_bytes(header[4..].try_into().expect("crc bytes"));
            let end = pos + 8 + u64::from(len);
            if end > file_len {
                break;
            }
            let mut payload = vec![0u8; len as usize];
            self.file.read_exact(&mut payload)?;
            let actual = crc32(&payload);
            if actual != crc {
                report.corrupt.push((
                    pos,
                    format!("checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"),
                ));
            } else if let Err(e) = format::decode(&payload) {
                report.corrupt.push((pos, e.to_string()));
            } else {
                report.valid += 1;
            }
            pos = end;
        }
        report.torn_tail_bytes = file_len - pos;
        Ok(report)
    }

    /// Rewrites the store keeping only the latest intact record per key,
    /// dropping superseded duplicates, corrupt records, and any torn
    /// tail. The rewrite goes to a temporary file that atomically
    /// replaces the log, so a crash mid-compaction leaves the original
    /// store untouched.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn compact(&mut self) -> Result<CompactStats, StoreError> {
        let bytes_before = self.file.metadata()?.len();
        // Survivors: the indexed offset per key, provided the record is
        // intact end-to-end. Written in file order to keep append history.
        let mut offsets: Vec<(u64, u32)> = Vec::new();
        let live: Vec<(String, IndexEntry)> =
            self.index.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let mut kept = 0usize;
        let mut records: Vec<Vec<u8>> = Vec::new();
        for (key, entry) in &live {
            // A record that fails to load (corrupt, rejected) is dropped.
            if self.load_record(key).is_ok() {
                offsets.push((entry.offset, entry.len));
                kept += 1;
            }
        }
        offsets.sort_unstable();
        for (offset, len) in &offsets {
            self.file.seek(SeekFrom::Start(*offset))?;
            let mut record = vec![0u8; 8 + *len as usize];
            self.file.read_exact(&mut record)?;
            records.push(record);
        }

        let tmp_path = self.dir.join(format!("{STORE_FILE}.tmp"));
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&MAGIC)?;
        tmp.write_all(&VERSION.to_le_bytes())?;
        for record in &records {
            tmp.write_all(record)?;
        }
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, self.dir.join(STORE_FILE))?;

        let file_len = tmp.metadata()?.len();
        self.file = tmp;
        self.rescan(file_len)?;
        Ok(CompactStats {
            kept,
            dropped: live.len() - kept + self.unindexed,
            bytes_before,
            bytes_after: file_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_spec::solve;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("evcap-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn solved(policy: PolicySpec, e: f64) -> SolvedPolicy {
        let s = Scenario::new("weibull:40,3", policy, e)
            .unwrap()
            .with_horizon(4_096);
        solve(&s).unwrap()
    }

    #[test]
    fn append_load_round_trips_every_family() {
        let dir = tmpdir("roundtrip");
        let mut store = Store::open(&dir).unwrap();
        let families = [
            PolicySpec::Greedy,
            PolicySpec::Clustering,
            PolicySpec::Aggressive,
            PolicySpec::Periodic { theta1: 3 },
            PolicySpec::Myopic,
        ];
        for policy in families {
            let artifact = solved(policy, 0.5);
            store.append(&artifact).unwrap();
            let key = artifact.scenario.canonical_key();
            let loaded = store.load(&key).unwrap();
            assert_eq!(artifact.meta, loaded.meta, "{}", policy.name());
            assert_eq!(artifact.params, loaded.params, "{}", policy.name());
            for state in 1..=128 {
                assert_eq!(
                    artifact.probability(state).to_bits(),
                    loaded.probability(state).to_bits(),
                    "{} state {state}",
                    policy.name()
                );
            }
        }
        assert_eq!(store.len(), families.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rebuilds_the_index() {
        let dir = tmpdir("reopen");
        let artifact = solved(PolicySpec::Clustering, 0.5);
        let key = artifact.scenario.canonical_key();
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(&artifact).unwrap();
        }
        let mut store = Store::open(&dir).unwrap();
        assert!(store.contains(&key));
        let loaded = store.load(&key).unwrap();
        assert_eq!(artifact.meta, loaded.meta);
        assert!(store.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_overwritten() {
        let dir = tmpdir("torn");
        let a = solved(PolicySpec::Clustering, 0.5);
        let b = solved(PolicySpec::Clustering, 0.6);
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(&a).unwrap();
        }
        // Simulate a crash mid-append: half a record header at the tail.
        let path = dir.join(STORE_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);

        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        store.append(&b).unwrap();
        drop(store);

        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.load(&b.scenario.canonical_key()).is_ok());
        assert!(store.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_is_indexed_but_rejected_on_load() {
        let dir = tmpdir("corrupt");
        let artifact = solved(PolicySpec::Clustering, 0.5);
        let key = artifact.scenario.canonical_key();
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(&artifact).unwrap();
        }
        // Flip the last payload byte: the scenario prefix still decodes
        // (so the key stays indexed) but the checksum now fails.
        let path = dir.join(STORE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mut store = Store::open(&dir).unwrap();
        assert!(
            store.contains(&key),
            "bad-checksum record must stay indexed"
        );
        match store.load(&key) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        let report = store.verify().unwrap();
        assert_eq!(report.valid, 0);
        assert_eq!(report.corrupt.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_last_record_per_key_and_drops_corruption() {
        let dir = tmpdir("compact");
        let a = solved(PolicySpec::Clustering, 0.5);
        let b = solved(PolicySpec::Greedy, 0.5);
        let mut store = Store::open(&dir).unwrap();
        store.append(&a).unwrap();
        store.append(&a).unwrap(); // superseded duplicate
        store.append(&b).unwrap();
        let before = store.bytes();
        let stats = store.compact().unwrap();
        assert_eq!(stats.kept, 2);
        assert_eq!(stats.bytes_before, before);
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(store.len(), 2);
        assert!(store.load(&a.scenario.canonical_key()).is_ok());
        assert!(store.load(&b.scenario.canonical_key()).is_ok());
        assert!(store.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_hint_finds_the_nearest_clustering_neighbor() {
        let dir = tmpdir("warmhint");
        let mut store = Store::open(&dir).unwrap();
        let near = solved(PolicySpec::Clustering, 0.48);
        let far = solved(PolicySpec::Clustering, 0.30);
        let other = solved(PolicySpec::Greedy, 0.5);
        store.append(&far).unwrap();
        store.append(&near).unwrap();
        store.append(&other).unwrap();

        let target = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.5)
            .unwrap()
            .with_horizon(4_096);
        let hint = store.warm_hint(&target).expect("neighbor exists");
        let expected = match near.params {
            PolicyParams::Clustering { n1, n2, n3, .. } => (n1, n2, n3),
            _ => unreachable!(),
        };
        assert_eq!(hint, expected);

        // Different battery ⇒ not a neighbor; greedy target ⇒ no hint.
        let alien = target.clone().with_battery(5.0);
        assert!(store.warm_hint(&alien).is_none());
        let greedy_target = Scenario::new("weibull:40,3", PolicySpec::Greedy, 0.5).unwrap();
        assert!(store.warm_hint(&greedy_target).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_hint_breaks_distance_ties_by_key_not_hash_order() {
        let dir = tmpdir("warmhint_tie");
        let below = solved(PolicySpec::Clustering, 0.1);
        let above = solved(PolicySpec::Clustering, 0.16);
        let hint_of = |p: &SolvedPolicy| match p.params {
            PolicyParams::Clustering { n1, n2, n3, .. } => (n1, n2, n3),
            _ => unreachable!(),
        };
        assert_ne!(hint_of(&below), hint_of(&above));
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(&above).unwrap();
            store.append(&below).unwrap();
        }
        let target = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.13)
            .unwrap()
            .with_horizon(4_096);
        assert_eq!((0.1f64 - 0.13).abs(), (0.16f64 - 0.13).abs());
        let smaller = if below.scenario.canonical_key() < above.scenario.canonical_key() {
            &below
        } else {
            &above
        };
        // Every open builds a fresh index with its own hash order.
        for _ in 0..8 {
            let mut store = Store::open(&dir).unwrap();
            assert_eq!(store.warm_hint(&target), Some(hint_of(smaller)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_files_still_open_and_load() {
        // A store written before objectives existed: the same bytes a v1
        // build produced (QoM payloads are unchanged), under a v1 header.
        let dir = tmpdir("v1compat");
        let artifact = solved(PolicySpec::Clustering, 0.5);
        let key = artifact.scenario.canonical_key();
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(&artifact).unwrap();
        }
        let path = dir.join(STORE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut store = Store::open(&dir).unwrap();
        let loaded = store.load(&key).unwrap();
        assert_eq!(artifact.meta, loaded.meta);
        assert_eq!(loaded.scenario.objective(), evcap_core::Objective::Qom);
        // Appends into the old-header file keep working; both generations
        // of record coexist.
        let aoi = {
            let s = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.5)
                .unwrap()
                .with_horizon(4_096)
                .with_objective(evcap_core::Objective::AoiMean);
            solve(&s).unwrap()
        };
        store.append(&aoi).unwrap();
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        let back = store.load(&aoi.scenario.canonical_key()).unwrap();
        assert_eq!(back.meta, aoi.meta);
        assert!(store.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_are_structured_errors() {
        let dir = tmpdir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STORE_FILE), b"NOPE\x01\x00\x00\x00").unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(dir.join(STORE_FILE), &bytes).unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::WrongVersion { found: 99, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
