//! Record framing, append path, and recovery scan.

use crate::crc::crc32;
use crate::store::{JournalStore, StoreError};
use std::fmt;

/// Bytes of framing overhead per record: `[len: u32][crc32: u32]`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Failure in the journal layer.
#[derive(Debug)]
pub enum JournalError {
    /// Backend storage failed.
    Store(StoreError),
    /// A snapshot blob failed its checksum and no earlier valid snapshot
    /// exists below the requested bound.
    NoValidSnapshot,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Store(e) => write!(f, "journal store error: {e}"),
            JournalError::NoValidSnapshot => write!(f, "no valid snapshot available"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Store(e) => Some(e),
            JournalError::NoValidSnapshot => None,
        }
    }
}

impl From<StoreError> for JournalError {
    fn from(e: StoreError) -> Self {
        JournalError::Store(e)
    }
}

/// Counters maintained by the append path (telemetry feed).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Records successfully appended.
    pub appends: u64,
    /// Total payload + framing bytes appended.
    pub bytes: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Bytes of the most recent snapshot (envelope included).
    pub last_snapshot_bytes: u64,
}

/// Result of a recovery scan over a store.
#[derive(Debug, Default, Clone)]
pub struct Recovered {
    /// Decoded record payloads, in append order, up to the first invalid
    /// frame.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded from the tail (0 when the journal was clean).
    pub truncated_bytes: u64,
    /// True when a torn/corrupt tail was found and truncated.
    pub torn: bool,
}

/// Append-side handle over a [`JournalStore`].
///
/// One instance is owned by the running controller; after a crash the
/// store (which outlives the controller) is handed to [`Journal::recover`]
/// to scan, truncate, and re-open.
#[derive(Debug)]
pub struct Journal<S: JournalStore> {
    store: S,
    stats: JournalStats,
}

impl<S: JournalStore> Journal<S> {
    /// Attach to a store for appending. Does not scan existing bytes; run
    /// [`Journal::recover`] first when the store may hold a torn tail.
    pub fn new(store: S) -> Self {
        Self {
            store,
            stats: JournalStats::default(),
        }
    }

    /// Frame a payload as it would appear on disk: `[len][crc32][payload]`.
    pub fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Append one record.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let framed = Self::frame(payload);
        self.store.append_journal(&framed)?;
        self.stats.appends += 1;
        self.stats.bytes += framed.len() as u64;
        Ok(())
    }

    /// Append only the first `keep` bytes of the frame for `payload` —
    /// the torn-write primitive used by crash injection. The journal is
    /// left with an invalid tail that recovery must truncate.
    pub fn append_torn(&mut self, payload: &[u8], keep: usize) -> Result<(), JournalError> {
        let framed = Self::frame(payload);
        let keep = keep.min(framed.len().saturating_sub(1));
        self.store.append_journal(&framed[..keep])?;
        Ok(())
    }

    /// Write a snapshot blob for `seq`, wrapped in the same checksummed
    /// envelope as a record so torn snapshots are detectable.
    pub fn put_snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), JournalError> {
        let framed = Self::frame(payload);
        self.store.put_snapshot(seq, &framed)?;
        self.stats.snapshots += 1;
        self.stats.last_snapshot_bytes = framed.len() as u64;
        Ok(())
    }

    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    pub fn store(&self) -> &S {
        &self.store
    }

    /// Scan the journal in `store`, decode every valid record, truncate
    /// any torn tail in place, and return the payloads.
    ///
    /// The scan stops at the first frame that is short (fewer bytes than
    /// its header promises, or a partial header) or fails its checksum;
    /// everything from that offset on is discarded. A corrupt record
    /// therefore also censors any frames behind it — the journal makes no
    /// attempt to resynchronise, because a length-prefixed stream with no
    /// record markers cannot distinguish a later frame boundary from
    /// payload bytes.
    pub fn recover(store: &mut S) -> Result<Recovered, JournalError> {
        let bytes = store.read_journal()?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        loop {
            let rest = bytes.len() - pos;
            if rest == 0 {
                break;
            }
            if rest < FRAME_HEADER_BYTES {
                // Partial header: torn tail.
                break;
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            let want = FRAME_HEADER_BYTES + len;
            if rest < want {
                break;
            }
            let crc = u32::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
            ]);
            let payload = &bytes[pos + FRAME_HEADER_BYTES..pos + want];
            if crc32(payload) != crc {
                break;
            }
            records.push(payload.to_vec());
            pos += want;
        }
        let truncated = (bytes.len() - pos) as u64;
        if truncated > 0 {
            store.truncate_journal(pos as u64)?;
        }
        Ok(Recovered {
            records,
            truncated_bytes: truncated,
            torn: truncated > 0,
        })
    }

    /// Latest snapshot with `seq <= max_seq` (or any seq when `None`)
    /// whose envelope checksum validates. Invalid blobs are skipped and
    /// the next older one is tried.
    pub fn latest_snapshot(
        store: &S,
        max_seq: Option<u64>,
    ) -> Result<Option<(u64, Vec<u8>)>, JournalError> {
        let mut seqs = store.snapshot_seqs()?;
        seqs.retain(|&s| max_seq.is_none_or(|m| s <= m));
        for &seq in seqs.iter().rev() {
            let Some(blob) = store.read_snapshot(seq)? else {
                continue;
            };
            if blob.len() < FRAME_HEADER_BYTES {
                continue;
            }
            let len = u32::from_le_bytes([blob[0], blob[1], blob[2], blob[3]]) as usize;
            if blob.len() != FRAME_HEADER_BYTES + len {
                continue;
            }
            let crc = u32::from_le_bytes([blob[4], blob[5], blob[6], blob[7]]);
            let payload = &blob[FRAME_HEADER_BYTES..];
            if crc32(payload) != crc {
                continue;
            }
            return Ok(Some((seq, payload.to_vec())));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn recs(store: &mut MemStore) -> Recovered {
        Journal::recover(store).unwrap()
    }

    #[test]
    fn append_then_recover_round_trips() {
        let mut j = Journal::new(MemStore::new());
        j.append(b"alpha").unwrap();
        j.append(b"").unwrap();
        j.append(&[0xFF; 300]).unwrap();
        assert_eq!(j.stats().appends, 3);
        let mut store = j.store().clone();
        let r = recs(&mut store);
        assert!(!r.torn);
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0], b"alpha");
        assert_eq!(r.records[1], b"");
        assert_eq!(r.records[2], vec![0xFF; 300]);
    }

    #[test]
    fn torn_tail_is_truncated_and_reappendable() {
        let mut j = Journal::new(MemStore::new());
        j.append(b"keep me").unwrap();
        j.append_torn(b"lost record", 5).unwrap();
        let mut store = j.store().clone();
        let r = recs(&mut store);
        assert!(r.torn);
        assert_eq!(r.truncated_bytes, 5);
        assert_eq!(r.records, vec![b"keep me".to_vec()]);
        // Store is clean again: appending after recovery works.
        let mut j2 = Journal::new(store);
        j2.append(b"after recovery").unwrap();
        let mut store = j2.store().clone();
        let r2 = recs(&mut store);
        assert!(!r2.torn);
        assert_eq!(r2.records.len(), 2);
    }

    #[test]
    fn torn_header_only_tail() {
        let mut j = Journal::new(MemStore::new());
        j.append(b"a").unwrap();
        j.append_torn(b"whatever", 3).unwrap();
        let mut store = j.store().clone();
        let r = recs(&mut store);
        assert!(r.torn);
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn corrupt_crc_censors_suffix() {
        let mut j = Journal::new(MemStore::new());
        j.append(b"good").unwrap();
        j.append(b"flipped").unwrap();
        j.append(b"unreachable").unwrap();
        let mut store = j.store().clone();
        // Flip a payload byte of the second record.
        let off = FRAME_HEADER_BYTES + 4 + FRAME_HEADER_BYTES + 1;
        let mut bytes = store.journal_bytes().to_vec();
        bytes[off] ^= 0x80;
        store.set_journal_bytes(bytes);
        let r = recs(&mut store);
        assert!(r.torn);
        assert_eq!(r.records, vec![b"good".to_vec()]);
    }

    #[test]
    fn snapshots_validate_and_fall_back() {
        let mut j = Journal::new(MemStore::new());
        j.put_snapshot(10, b"state@10").unwrap();
        j.put_snapshot(20, b"state@20").unwrap();
        let mut store = j.store().clone();
        // Corrupt the newer snapshot.
        let mut blob = store.snapshot_bytes(20).unwrap().to_vec();
        let last = blob.len() - 1;
        blob[last] ^= 0x01;
        store.set_snapshot_bytes(20, blob);
        let (seq, payload) = Journal::latest_snapshot(&store, None).unwrap().unwrap();
        assert_eq!((seq, payload.as_slice()), (10, b"state@10".as_slice()));
        // Bounded lookup respects max_seq.
        let (seq, _) = Journal::latest_snapshot(&store, Some(15)).unwrap().unwrap();
        assert_eq!(seq, 10);
        assert!(Journal::latest_snapshot(&store, Some(5)).unwrap().is_none());
    }

    #[test]
    fn empty_store_recovers_empty() {
        let mut store = MemStore::new();
        let r = recs(&mut store);
        assert!(!r.torn);
        assert!(r.records.is_empty());
        assert!(Journal::<MemStore>::latest_snapshot(&store, None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("apple-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = Journal::new(crate::FileStore::open(&dir).unwrap());
            j.append(b"one").unwrap();
            j.append(b"two").unwrap();
            j.put_snapshot(1, b"snap").unwrap();
        }
        let mut store = crate::FileStore::open(&dir).unwrap();
        let r = Journal::recover(&mut store).unwrap();
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
        let (seq, payload) = Journal::latest_snapshot(&store, None).unwrap().unwrap();
        assert_eq!((seq, payload.as_slice()), (1, b"snap".as_slice()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
