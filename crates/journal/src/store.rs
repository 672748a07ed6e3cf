//! Storage backends for the journal.
//!
//! [`JournalStore`] is the only surface the WAL layer touches: an
//! append-only journal byte stream plus a keyed snapshot blob store. The
//! in-memory backends exist for tests and benches; [`SharedMemStore`] is a
//! cloneable handle so a chaos harness can keep the "durable" bytes alive
//! outside a `catch_unwind` boundary while the controller that owns the
//! [`crate::Journal`] is killed and discarded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Storage failure surfaced by a backend.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error, tagged with the operation that failed.
    Io {
        op: &'static str,
        source: std::io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, source } => write!(f, "journal store {op} failed: {source}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
        }
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> StoreError {
    move |source| StoreError::Io { op, source }
}

/// Byte-level durability contract used by [`crate::Journal`].
pub trait JournalStore {
    /// Append raw bytes to the end of the journal stream.
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Read the entire journal stream.
    fn read_journal(&self) -> Result<Vec<u8>, StoreError>;

    /// Truncate the journal stream to `len` bytes (used to drop a torn tail).
    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError>;

    /// Store (or overwrite) the snapshot blob for sequence number `seq`.
    fn put_snapshot(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError>;

    /// All snapshot sequence numbers present, ascending.
    fn snapshot_seqs(&self) -> Result<Vec<u64>, StoreError>;

    /// Read the snapshot blob for `seq`, if present.
    fn read_snapshot(&self, seq: u64) -> Result<Option<Vec<u8>>, StoreError>;
}

/// Owned in-memory backend.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    journal: Vec<u8>,
    snapshots: BTreeMap<u64, Vec<u8>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw journal bytes (test/fixture helper).
    pub fn journal_bytes(&self) -> &[u8] {
        &self.journal
    }

    /// Replace the journal bytes wholesale (fixture loading helper).
    pub fn set_journal_bytes(&mut self, bytes: Vec<u8>) {
        self.journal = bytes;
    }

    /// Install a snapshot blob verbatim (fixture loading helper).
    pub fn set_snapshot_bytes(&mut self, seq: u64, bytes: Vec<u8>) {
        self.snapshots.insert(seq, bytes);
    }

    /// Raw snapshot blob (test/fixture helper).
    pub fn snapshot_bytes(&self, seq: u64) -> Option<&[u8]> {
        self.snapshots.get(&seq).map(|v| v.as_slice())
    }
}

impl JournalStore for MemStore {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.journal.extend_from_slice(bytes);
        Ok(())
    }

    fn read_journal(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.journal.clone())
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.journal.truncate(len as usize);
        Ok(())
    }

    fn put_snapshot(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.snapshots.insert(seq, bytes.to_vec());
        Ok(())
    }

    fn snapshot_seqs(&self) -> Result<Vec<u64>, StoreError> {
        Ok(self.snapshots.keys().copied().collect())
    }

    fn read_snapshot(&self, seq: u64) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.snapshots.get(&seq).cloned())
    }
}

/// Cloneable handle to a [`MemStore`], so the bytes survive the death of
/// whichever component holds the [`crate::Journal`]. Single-threaded by
/// design (the control plane is a single logical controller); a chaos
/// harness wraps it in `AssertUnwindSafe` around its kill boundary.
#[derive(Debug, Default, Clone)]
pub struct SharedMemStore(Rc<RefCell<MemStore>>);

impl SharedMemStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the underlying store (test/fixture helper).
    pub fn inner(&self) -> MemStore {
        self.0.borrow().clone()
    }

    /// Mutate the underlying store directly (fixture/corruption helper).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut MemStore) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

impl JournalStore for SharedMemStore {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.0.borrow_mut().append_journal(bytes)
    }

    fn read_journal(&self) -> Result<Vec<u8>, StoreError> {
        self.0.borrow().read_journal()
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.0.borrow_mut().truncate_journal(len)
    }

    fn put_snapshot(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.0.borrow_mut().put_snapshot(seq, bytes)
    }

    fn snapshot_seqs(&self) -> Result<Vec<u64>, StoreError> {
        self.0.borrow().snapshot_seqs()
    }

    fn read_snapshot(&self, seq: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.0.borrow().read_snapshot(seq)
    }
}

/// Directory-backed store: `journal.wal` plus `snap-<seq>.bin` blobs.
///
/// Appends are flushed eagerly; this models a controller that treats every
/// record as durable once `append` returns. (The simulation has no real
/// power-failure semantics — torn tails are injected by the crash
/// machinery, not left by the OS — so `flush` rather than `fsync` keeps
/// the bench honest without dominating it.)
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    journal: File,
}

impl FileStore {
    const JOURNAL_FILE: &'static str = "journal.wal";

    /// Open (creating if needed) a journal directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io_err("create dir"))?;
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(dir.join(Self::JOURNAL_FILE))
            .map_err(io_err("open journal"))?;
        Ok(Self { dir, journal })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:020}.bin"))
    }
}

impl JournalStore for FileStore {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.journal.write_all(bytes).map_err(io_err("append"))?;
        self.journal.flush().map_err(io_err("flush"))
    }

    fn read_journal(&self) -> Result<Vec<u8>, StoreError> {
        let mut f =
            File::open(self.dir.join(Self::JOURNAL_FILE)).map_err(io_err("open journal"))?;
        let mut out = Vec::new();
        f.read_to_end(&mut out).map_err(io_err("read journal"))?;
        Ok(out)
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.journal.set_len(len).map_err(io_err("truncate"))
    }

    fn put_snapshot(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
        // Write-then-rename so a crash mid-snapshot never clobbers an
        // existing valid blob with a torn one.
        let tmp = self.dir.join(format!("snap-{seq:020}.tmp"));
        {
            let mut f = File::create(&tmp).map_err(io_err("create snapshot"))?;
            f.write_all(bytes).map_err(io_err("write snapshot"))?;
            f.flush().map_err(io_err("flush snapshot"))?;
        }
        fs::rename(&tmp, self.snapshot_path(seq)).map_err(io_err("rename snapshot"))
    }

    fn snapshot_seqs(&self) -> Result<Vec<u64>, StoreError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(io_err("list snapshots"))? {
            let entry = entry.map_err(io_err("list snapshots"))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("snap-") {
                if let Some(num) = rest.strip_suffix(".bin") {
                    if let Ok(seq) = num.parse::<u64>() {
                        seqs.push(seq);
                    }
                }
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    fn read_snapshot(&self, seq: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.snapshot_path(seq);
        match File::open(&path) {
            Ok(mut f) => {
                let mut out = Vec::new();
                f.read_to_end(&mut out).map_err(io_err("read snapshot"))?;
                Ok(Some(out))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io {
                op: "open snapshot",
                source: e,
            }),
        }
    }
}
