//! Write-ahead-logged durable object store with group commit.
//!
//! Layout: an append-only sequence of segment files (`wal-<seq>.log`)
//! holding checksummed frames, plus periodic full-index checkpoints
//! (`ckpt-<seq>.ck`) committed by atomic rename. The live state is an
//! in-memory index; reads never touch disk.
//!
//! One frame = one atomic commit unit. A [`WriteBatch`] — for SeGShare,
//! everything one request writes: content blob, §V-D hash records,
//! metadata, audit append — becomes one frame, so after a crash the
//! request's writes are all-present or all-absent. Frames are made
//! durable either by a dedicated group-commit thread that coalesces
//! concurrently submitted frames into one fsync, or (with
//! [`WalConfig::group_commit`] off) by an inline fsync per frame — the
//! "naive" mode the durability benchmark compares against.
//!
//! Every frame is written by one function, `WalInner::commit`: under
//! the log lock it appends the frame and applies its ops to the index,
//! so the index changes in log order and is always exactly what
//! replaying the log rebuilds. A write inside a thread's open
//! transaction stays in that transaction until the seal commits it:
//! only that thread reads it back, and a checkpoint, which snapshots
//! the index under the log lock, never holds an op the log lacks. A
//! value is copied in once, into the `Arc` the index, an open
//! transaction and the encoder share.
//!
//! Recovery loads the newest valid checkpoint and replays later
//! segments in order, stopping at the first frame whose checksum or
//! length fails — a torn tail from a mid-write crash is thereby
//! discarded wholesale, never partially applied.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;

use parking_lot::RwLock;

use crate::fault::FaultPlan;
use crate::{BatchOp, CommitTicket, IoStats, ObjectStore, StoreError, TicketState, WriteBatch};

/// The in-memory index: every live key and its value.
type Index = HashMap<String, Arc<[u8]>>;

/// One op as the index, an open transaction and the encoder share it:
/// a put's value is one `Arc`, copied in once.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Put(String, Arc<[u8]>),
    Delete(String),
}

/// An op as the encoder reads it: its key, and a put's value.
type OpRef<'a> = (&'a str, Option<&'a [u8]>);

impl Op {
    fn as_ref(&self) -> OpRef<'_> {
        match self {
            Op::Put(key, value) => (key, Some(value)),
            Op::Delete(key) => (key, None),
        }
    }

    fn key(&self) -> &str {
        self.as_ref().0
    }
}

/// What one thread reads: the index, under its open transaction's ops
/// (none when it has no transaction open).
struct View<'a> {
    index: &'a Index,
    tx: &'a [Op],
}

impl<'a> View<'a> {
    /// `key`'s value: the transaction's last op on it, else the index's.
    fn get(&self, key: &str) -> Option<&'a Arc<[u8]>> {
        match self.tx.iter().rev().find(|op| op.key() == key) {
            Some(Op::Put(_, value)) => Some(value),
            Some(Op::Delete(_)) => None,
            None => self.index.get(key),
        }
    }

    /// Calls `f` on every live key and value.
    fn for_each(&self, mut f: impl FnMut(&'a str, &'a Arc<[u8]>)) {
        let last: HashMap<&str, &Op> = self.tx.iter().map(|op| (op.key(), op)).collect();
        for (key, value) in self.index {
            if !last.contains_key(key.as_str()) {
                f(key, value);
            }
        }
        for op in last.into_values() {
            if let Op::Put(key, value) = op {
                f(key, value);
            }
        }
    }
}

/// Frame magic: "SGWL".
const FRAME_MAGIC: u32 = 0x5347_574c;
/// Checkpoint magic: "SGCK".
const CKPT_MAGIC: u32 = 0x5347_434b;
/// Fixed frame header: magic + seq + payload len + crc.
const FRAME_HEADER: usize = 4 + 8 + 4 + 4;
/// The file whose exclusive lock marks a directory as a live store's.
const LOCK_FILE: &str = "LOCK";
/// Largest key, value, or whole-frame payload the encoding's u32 length
/// fields can represent. Anything bigger must be rejected up front:
/// encoding it would wrap the length field while still appending all
/// the bytes, producing a frame whose checksum covers the wrong span —
/// it fails to decode at recovery and acked data becomes unrecoverable.
const MAX_ENCODED: usize = u32::MAX as usize;

/// Tuning and fault-injection knobs for [`WalStore`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// `true`: a dedicated committer thread coalesces concurrently
    /// submitted frames into one fsync (group commit). `false`: every
    /// frame fsyncs inline on the submitting thread — the naive
    /// per-write durability the benchmark baseline measures.
    pub group_commit: bool,
    /// Checkpoint and rotate the log once this many bytes have been
    /// appended since the last checkpoint.
    pub checkpoint_bytes: u64,
    /// Simulated per-fsync latency in microseconds. Container and CI
    /// filesystems often make fsync nearly free, which would hide the
    /// cost group commit exists to amortize; benchmarks set this to a
    /// realistic disk latency so measured ratios are machine-independent.
    pub sim_fsync_us: u64,
    /// Scripted crash points over durability events (crash-matrix tests).
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            group_commit: true,
            checkpoint_bytes: 8 * 1024 * 1024,
            sim_fsync_us: 0,
            fault: None,
        }
    }
}

/// The current segment file and append cursor.
#[derive(Debug)]
struct LogState {
    file: fs::File,
    /// First frame seq in this segment (encoded in its name).
    first_seq: u64,
    /// Next frame sequence number.
    next_seq: u64,
    /// Bytes appended (not yet necessarily synced) to this segment.
    bytes: u64,
    /// Bytes appended since the segment's last fsync.
    unsynced: u64,
    /// Bytes appended since the last checkpoint (across rotations).
    since_ckpt: u64,
}

/// Group-commit queue: tickets whose frames are appended but not synced.
#[derive(Debug, Default)]
struct QueueState {
    pending: Vec<Arc<TicketState>>,
    stop: bool,
}

#[derive(Debug)]
struct WalInner {
    dir: PathBuf,
    cfg: WalConfig,
    /// Every logged key and value: the log's replay.
    index: RwLock<Index>,
    log: Mutex<LogState>,
    queue: Mutex<QueueState>,
    queue_cond: Condvar,
    /// Each thread's open transaction: its ops, in the order made, in
    /// neither the log nor the index until the seal commits them.
    txs: Mutex<HashMap<ThreadId, Vec<Op>>>,
    /// How many transactions are open; reads skip `txs` while none is.
    /// `Relaxed` suffices: it publishes no data (`txs` has its mutex),
    /// and a thread needs only its own increment, which it sees.
    tx_count: AtomicUsize,
    poisoned: AtomicBool,
    batches: AtomicU64,
    batch_ops: AtomicU64,
    fsyncs: AtomicU64,
    fsync_bytes: AtomicU64,
}

/// A write-ahead-logged, group-commit durable [`ObjectStore`]. See the
/// module docs for the on-disk format and commit protocol.
#[derive(Debug)]
pub struct WalStore {
    inner: Arc<WalInner>,
    committer: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The directory's lock file, locked for as long as the store lives.
    _lock: fs::File,
}

impl WalStore {
    /// Opens (creating if needed) a store rooted at `dir`, recovering
    /// the index from the newest checkpoint plus the surviving log
    /// tail. Torn trailing frames are discarded by checksum.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory or a segment cannot
    /// be read or created.
    pub fn open(dir: impl AsRef<Path>) -> Result<WalStore, StoreError> {
        WalStore::open_with(dir, WalConfig::default())
    }

    /// [`WalStore::open`] with explicit [`WalConfig`].
    ///
    /// A store owns its directory until it is dropped, poisoned or not
    /// (or its process exits): the open takes an exclusive lock on the
    /// directory's lock file before recovering, so a second store never
    /// scans segments the live one's checkpoints are deleting.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory or a segment cannot
    /// be read or created, or if another open store holds the directory.
    pub fn open_with(dir: impl AsRef<Path>, cfg: WalConfig) -> Result<WalStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let lock = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(fs::TryLockError::WouldBlock) => {
                return Err(StoreError::Io(format!(
                    "{} is held by another open wal store",
                    dir.display()
                )))
            }
            Err(fs::TryLockError::Error(e)) => return Err(e.into()),
        }
        let (index, next_seq) = recover(&dir)?;
        // Append at `next_seq`. Usually a fresh file; when a segment's
        // very first frame was torn, recovery truncated that segment to
        // empty and this reopens it — safe either way, because recovery
        // guarantees no segment ends in garbage.
        let first_seq = next_seq;
        let path = segment_path(&dir, first_seq);
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        sync_dir(&dir)?;
        let inner = Arc::new(WalInner {
            dir,
            cfg,
            index: RwLock::new(index),
            log: Mutex::new(LogState {
                file,
                first_seq,
                next_seq,
                bytes: 0,
                unsynced: 0,
                since_ckpt: 0,
            }),
            queue: Mutex::new(QueueState::default()),
            queue_cond: Condvar::new(),
            txs: Mutex::new(HashMap::new()),
            tx_count: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            batches: AtomicU64::new(0),
            batch_ops: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fsync_bytes: AtomicU64::new(0),
        });
        let committer = if inner.cfg.group_commit {
            let thread_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("wal-commit".to_string())
                    .spawn(move || committer_loop(&thread_inner))
                    .map_err(|e| StoreError::Io(e.to_string()))?,
            )
        } else {
            None
        };
        Ok(WalStore {
            inner,
            committer: Mutex::new(committer),
            _lock: lock,
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Whether a simulated crash (scripted fault or real I/O failure)
    /// has poisoned the store. A poisoned store fails every operation;
    /// recovery is reopening the directory.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::SeqCst)
    }

    /// Forces a checkpoint + segment rotation now (tests; normal
    /// operation checkpoints on [`WalConfig::checkpoint_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    pub fn checkpoint_now(&self) -> Result<(), StoreError> {
        self.inner.check_alive()?;
        checkpoint(&self.inner)
    }
}

impl Drop for WalStore {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.stop = true;
            self.inner.queue_cond.notify_all();
        }
        if let Some(handle) = lock(&self.committer).take() {
            let _ = handle.join();
        }
        // Leave nothing claimed-durable unsynced on a clean shutdown.
        if !self.poisoned() {
            let mut log = lock(&self.inner.log);
            let _ = self.inner.fsync_locked(&mut log);
        }
    }
}

impl WalInner {
    fn crashed() -> StoreError {
        StoreError::Io("simulated crash: wal store is poisoned".to_string())
    }

    fn check_alive(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(Self::crashed());
        }
        Ok(())
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Fail every waiter so no session blocks on a dead committer.
        let mut q = lock(&self.queue);
        for t in q.pending.drain(..) {
            t.complete(Err(Self::crashed()));
        }
        self.queue_cond.notify_all();
    }

    /// One scripted durability event; errors when the crash fires.
    fn fault_event(&self) -> Result<(), StoreError> {
        if let Some(plan) = &self.cfg.fault {
            if plan.event() {
                self.poison();
                return Err(Self::crashed());
            }
        }
        Ok(())
    }

    /// Appends one encoded frame to the current segment (no fsync).
    /// A scripted crash here tears the frame: half its bytes land.
    fn append_locked(&self, log: &mut LogState, frame: &[u8]) -> Result<(), StoreError> {
        if let Some(plan) = &self.cfg.fault {
            if plan.event() {
                let torn = &frame[..frame.len() / 2];
                let _ = log.file.write_all(torn);
                let _ = log.file.sync_data();
                self.poison();
                return Err(Self::crashed());
            }
        }
        log.file.write_all(frame).map_err(|e| {
            self.poison();
            StoreError::Io(e.to_string())
        })?;
        log.bytes += frame.len() as u64;
        log.unsynced += frame.len() as u64;
        log.since_ckpt += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs the current segment, counting the covered bytes.
    fn fsync_locked(&self, log: &mut LogState) -> Result<(), StoreError> {
        if log.unsynced == 0 {
            return Ok(());
        }
        self.fault_event()?;
        if self.cfg.sim_fsync_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.cfg.sim_fsync_us));
        }
        log.file.sync_data().map_err(|e| {
            self.poison();
            StoreError::Io(e.to_string())
        })?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_bytes.fetch_add(log.unsynced, Ordering::Relaxed);
        log.unsynced = 0;
        Ok(())
    }

    /// The one commit: under the log lock, encodes `ops` into one frame,
    /// appends it and applies the ops to the index, so the index changes
    /// in log order. Then queues the frame's ticket for the group commit,
    /// or (naive mode) fsyncs it inline.
    fn commit(&self, ops: Vec<Op>) -> Result<CommitTicket, StoreError> {
        validate(&ops)?;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        let mut log = lock(&self.log);
        let frame = encode_frame(log.next_seq, &ops);
        self.append_locked(&mut log, &frame)?;
        log.next_seq += 1;
        apply(&mut self.index.write(), ops);
        if self.cfg.group_commit {
            drop(log);
            let state = TicketState::new();
            let mut q = lock(&self.queue);
            if self.poisoned.load(Ordering::SeqCst) {
                return Err(Self::crashed());
            }
            q.pending.push(Arc::clone(&state));
            self.queue_cond.notify_all();
            Ok(CommitTicket::pending(state))
        } else {
            // Naive mode: this thread pays a full fsync for its own
            // frame, serialized under the log lock — no coalescing.
            self.fsync_locked(&mut log)?;
            let due = log.since_ckpt >= self.cfg.checkpoint_bytes;
            drop(log);
            if due {
                checkpoint(self)?;
            }
            Ok(CommitTicket::ready())
        }
    }

    /// Every write — a `put`, `delete`, `rename` or batch: inside this
    /// thread's transaction its ops join it for the seal, and the
    /// ticket is ready; outside one they are committed as their own
    /// frame.
    fn write(&self, ops: Vec<Op>) -> Result<CommitTicket, StoreError> {
        if let Some(tx) = lock(&self.txs).get_mut(&std::thread::current().id()) {
            tx.extend(ops);
            return Ok(CommitTicket::ready());
        }
        self.commit(ops)
    }

    /// Runs `f` over this thread's [`View`].
    fn read<R>(&self, f: impl FnOnce(View<'_>) -> R) -> Result<R, StoreError> {
        self.check_alive()?;
        let index = self.index.read();
        let txs = (self.tx_count.load(Ordering::Relaxed) > 0).then(|| lock(&self.txs));
        let tx = txs
            .as_ref()
            .and_then(|txs| txs.get(&std::thread::current().id()));
        Ok(f(View {
            index: &index,
            tx: tx.map_or(&[], Vec::as_slice),
        }))
    }

    /// A batch, checked whole before it joins this thread's transaction
    /// (as a `put` does) or is committed.
    fn write_batch(&self, batch: &WriteBatch) -> Result<CommitTicket, StoreError> {
        self.check_alive()?;
        let ops = ops_of(batch);
        validate(&ops)?;
        self.write(ops)
    }
}

/// Applies `ops` to `index` in order: commits and recovery both change
/// the index through here.
fn apply(index: &mut Index, ops: impl IntoIterator<Item = Op>) {
    for op in ops {
        match op {
            Op::Put(key, value) => {
                index.insert(key, value);
            }
            Op::Delete(key) => {
                index.remove(&key);
            }
        }
    }
}

/// `batch`'s ops, each value copied once into its `Arc`.
fn ops_of(batch: &WriteBatch) -> Vec<Op> {
    batch
        .ops
        .iter()
        .map(|op| match op {
            BatchOp::Put { key, value } => Op::Put(key.clone(), Arc::from(value.as_slice())),
            BatchOp::Delete { key } => Op::Delete(key.clone()),
        })
        .collect()
}

/// Locks a std mutex, ignoring poisoning (a panicked holder's state is
/// still consistent enough to fail shut via `poisoned`).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Rejects a key/value/payload length the frame encoding's u32 length
/// fields cannot represent (see [`MAX_ENCODED`]).
fn check_len(what: &str, len: usize) -> Result<(), StoreError> {
    if len > MAX_ENCODED {
        return Err(StoreError::Io(format!(
            "{what} of {len} bytes exceeds the {MAX_ENCODED}-byte frame encoding limit"
        )));
    }
    Ok(())
}

/// Validates every op and the total encoded payload of a frame. Runs
/// before the append, so an over-long op is rejected cleanly instead of
/// producing an undecodable frame.
fn validate(ops: &[Op]) -> Result<(), StoreError> {
    let mut total = 4usize; // op-count prefix
    for op in ops {
        let (key, value) = op.as_ref();
        check_len("key", key.len())?;
        check_len("value", value.map_or(0, <[u8]>::len))?;
        total = total.saturating_add(op_len((key, value)));
    }
    check_len("batch payload", total)
}

impl ObjectStore for WalStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read(|view| view.get(key).map(|v| v.to_vec()))
    }

    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.inner.read(|view| view.get(key).cloned())
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.inner.check_alive()?;
        check_len("key", key.len())?;
        check_len("value", value.len())?;
        self.inner
            .write(vec![Op::Put(key.to_string(), Arc::from(value))])?
            .wait()
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        check_len("key", key.len())?;
        let existed = self.exists(key)?;
        self.inner
            .write(vec![Op::Delete(key.to_string())])?
            .wait()?;
        Ok(existed)
    }

    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.inner.read(|view| view.get(key).is_some())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        check_len("key", to.len())?;
        let value = self
            .get_arc(from)?
            .ok_or_else(|| StoreError::NotFound(from.to_string()))?;
        self.inner
            .write(vec![
                Op::Delete(from.to_string()),
                Op::Put(to.to_string(), value),
            ])?
            .wait()
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.read(|view| {
            let mut keys = Vec::with_capacity(view.index.len());
            view.for_each(|key, _| keys.push(key.to_string()));
            keys
        })
    }

    fn len(&self) -> Result<usize, StoreError> {
        self.inner.read(|view| {
            let mut len = 0;
            view.for_each(|_, _| len += 1);
            len
        })
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.inner.read(|view| {
            let mut total = 0;
            view.for_each(|_, value| total += value.len() as u64);
            total
        })
    }

    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        self.inner.write_batch(batch)?.wait()
    }

    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        self.inner.write_batch(&batch)
    }

    fn tx_begin(&self) {
        // Idempotent per thread.
        if let Entry::Vacant(tx) = lock(&self.inner.txs).entry(std::thread::current().id()) {
            tx.insert(Vec::new());
            self.inner.tx_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        let Some(ops) = lock(&self.inner.txs).remove(&std::thread::current().id()) else {
            return Ok(None);
        };
        self.inner.tx_count.fetch_sub(1, Ordering::Relaxed);
        if ops.is_empty() {
            return Ok(None); // nothing to commit
        }
        self.inner.check_alive()?;
        // Applied once, in log order: a later seal wins over an earlier
        // one in memory as it does on replay.
        Ok(Some(self.inner.commit(ops)?))
    }

    fn io_stats(&self) -> IoStats {
        IoStats {
            batches: self.inner.batches.load(Ordering::Relaxed),
            batch_ops: self.inner.batch_ops.load(Ordering::Relaxed),
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
            fsync_bytes: self.inner.fsync_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The group-commit thread: drain every pending ticket, one fsync for
/// the lot, complete them, checkpoint when due.
fn committer_loop(inner: &Arc<WalInner>) {
    loop {
        let tickets = {
            let mut q = lock(&inner.queue);
            while q.pending.is_empty() && !q.stop {
                q = inner.queue_cond.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.pending.is_empty() && q.stop {
                return;
            }
            std::mem::take(&mut q.pending)
        };
        let (result, ckpt_due) = {
            let mut log = lock(&inner.log);
            let r = inner.fsync_locked(&mut log);
            let due = r.is_ok() && log.since_ckpt >= inner.cfg.checkpoint_bytes;
            (r, due)
        };
        for t in &tickets {
            t.complete(result.clone());
        }
        if result.is_err() {
            // Poisoned: fail everything still arriving, then exit.
            inner.poison();
            return;
        }
        if ckpt_due && checkpoint(inner).is_err() {
            inner.poison();
            return;
        }
    }
}

/// Writes a full-index checkpoint and rotates to a fresh segment,
/// deleting segments and checkpoints the new one supersedes. A failure
/// poisons the store.
fn checkpoint(inner: &WalInner) -> Result<(), StoreError> {
    let result = checkpoint_inner(inner);
    if result.is_err() {
        inner.poison();
    }
    result
}

/// The whole checkpoint runs under the log lock, so checkpoints never
/// overlap, and the index it snapshots is the replay of every frame
/// before `upto`.
fn checkpoint_inner(inner: &WalInner) -> Result<(), StoreError> {
    let mut log = lock(&inner.log);
    // Everything up to the checkpoint must be durable before the
    // checkpoint can claim to cover it.
    inner.fsync_locked(&mut log)?;
    let upto = log.next_seq;
    let body = encode_checkpoint(upto, inner.index.read().iter());
    let tmp = inner.dir.join(format!("ckpt-{upto:016x}.tmp"));
    let final_path = inner.dir.join(format!("ckpt-{upto:016x}.ck"));
    {
        let mut f = fs::File::create(&tmp).map_err(StoreError::from)?;
        f.write_all(&body).map_err(StoreError::from)?;
        inner.fault_event()?;
        f.sync_data().map_err(StoreError::from)?;
    }
    inner.fault_event()?;
    fs::rename(&tmp, &final_path).map_err(StoreError::from)?;
    sync_dir(&inner.dir)?;
    // Rotate: all later frames land in a fresh segment.
    let new_path = segment_path(&inner.dir, upto);
    let file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&new_path)
        .map_err(StoreError::from)?;
    log.file = file;
    log.first_seq = upto;
    log.bytes = 0;
    log.unsynced = 0;
    log.since_ckpt = 0;
    sync_dir(&inner.dir)?;
    // Superseded files: every segment whose first seq precedes the
    // checkpoint, and every older checkpoint.
    for entry in fs::read_dir(&inner.dir).map_err(StoreError::from)? {
        let entry = entry.map_err(StoreError::from)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let stale = match parse_name(&name) {
            // The rotated-away segment (`old_path`) has first_seq < upto.
            Some(WalFile::Segment(seq)) => seq < upto,
            Some(WalFile::Checkpoint(seq)) => seq < upto,
            Some(WalFile::Temp) => true,
            None => false,
        };
        if stale {
            inner.fault_event()?;
            fs::remove_file(entry.path()).map_err(StoreError::from)?;
        }
    }
    sync_dir(&inner.dir)?;
    Ok(())
}

/// A directory entry the WAL owns.
enum WalFile {
    Segment(u64),
    Checkpoint(u64),
    Temp,
}

fn parse_name(name: &str) -> Option<WalFile> {
    if let Some(hex) = name
        .strip_prefix("wal-")
        .and_then(|s| s.strip_suffix(".log"))
    {
        return u64::from_str_radix(hex, 16).ok().map(WalFile::Segment);
    }
    if let Some(hex) = name
        .strip_prefix("ckpt-")
        .and_then(|s| s.strip_suffix(".ck"))
    {
        return u64::from_str_radix(hex, 16).ok().map(WalFile::Checkpoint);
    }
    if name.starts_with("ckpt-") && name.ends_with(".tmp") {
        return Some(WalFile::Temp);
    }
    None
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:016x}.log"))
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    // Directory fsync makes creations/renames/unlinks durable. Some
    // filesystems refuse fsync on directories; degrade silently there.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

// ------------------------------------------------------------ encoding

/// Lookup tables of the reflected CRC-32 (IEEE) polynomial for
/// slicing-by-8: `CRC_TABLES[0][b]` is the CRC step of byte `b`, and
/// `CRC_TABLES[k][b]` that of `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) over `parts` in order, eight bytes per table step
/// (slicing-by-8) — plenty for frame integrity checking without a
/// dependency.
fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
    }
    !crc
}

/// Bytes one op takes in an encoded op list: tag, key length and key,
/// and a put's value length and value.
fn op_len((key, value): OpRef<'_>) -> usize {
    1 + 4 + key.len() + value.map_or(0, |v| 4 + v.len())
}

fn put_field(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_le_bytes());
    out.extend_from_slice(field);
}

/// Encodes a frame or checkpoint into a buffer of its exact size: the
/// header (`magic`, `seq`, payload length, crc over seq, length and
/// payload), then the payload (op count, then each op).
fn encode<'a>(magic: u32, seq: u64, ops: impl Iterator<Item = OpRef<'a>> + Clone) -> Vec<u8> {
    let (count, len) = ops
        .clone()
        .fold((0u32, 4usize), |(n, len), op| (n + 1, len + op_len(op)));
    let mut out = Vec::with_capacity(FRAME_HEADER + len);
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the crc, once the payload is in
    out.extend_from_slice(&count.to_le_bytes());
    for (key, value) in ops {
        out.push(u8::from(value.is_none()));
        put_field(&mut out, key.as_bytes());
        if let Some(value) = value {
            put_field(&mut out, value);
        }
    }
    let crc = crc32(&[&out[4..16], &out[FRAME_HEADER..]]);
    out[16..20].copy_from_slice(&crc.to_le_bytes());
    out
}

fn encode_frame(seq: u64, ops: &[Op]) -> Vec<u8> {
    encode(FRAME_MAGIC, seq, ops.iter().map(Op::as_ref))
}

/// A checkpoint of `entries`, encoded as puts straight from the shared
/// values.
fn encode_checkpoint<'a>(
    upto: u64,
    entries: impl Iterator<Item = (&'a String, &'a Arc<[u8]>)> + Clone,
) -> Vec<u8> {
    encode(
        CKPT_MAGIC,
        upto,
        entries.map(|(key, value)| (key.as_str(), Some(&value[..]))),
    )
}

/// The seq and payload of a frame or checkpoint behind `magic`, its
/// crc checked; `data` may run on past the payload.
fn decode_header(magic: u32, data: &[u8]) -> Option<(u64, &[u8])> {
    let header = data.get(..FRAME_HEADER)?;
    if header[..4] != magic.to_le_bytes() {
        return None;
    }
    let seq = u64::from_le_bytes(header[4..12].try_into().ok()?);
    let len = u32::from_le_bytes(header[12..16].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(header[16..20].try_into().ok()?);
    let payload = data.get(FRAME_HEADER..FRAME_HEADER + len)?;
    (crc32(&[&header[4..16], payload]) == crc).then_some((seq, payload))
}

/// An op list, each value decoded straight into its `Arc`.
fn decode_ops(payload: &[u8]) -> Option<Vec<Op>> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let s = payload.get(*at..*at + n)?;
        *at += n;
        Some(s)
    };
    let field = |at: &mut usize| -> Option<&[u8]> {
        let len = u32::from_le_bytes(take(at, 4)?.try_into().ok()?) as usize;
        take(at, len)
    };
    let count = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
    let mut ops = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let tag = take(&mut at, 1)?[0];
        let key = std::str::from_utf8(field(&mut at)?).ok()?.to_string();
        match tag {
            0 => ops.push(Op::Put(key, Arc::from(field(&mut at)?))),
            1 => ops.push(Op::Delete(key)),
            _ => return None,
        }
    }
    if at != payload.len() {
        return None;
    }
    Some(ops)
}

/// One recovered frame: `(seq, ops, bytes consumed)`.
fn decode_frame(data: &[u8]) -> Option<(u64, Vec<Op>, usize)> {
    let (seq, payload) = decode_header(FRAME_MAGIC, data)?;
    Some((seq, decode_ops(payload)?, FRAME_HEADER + payload.len()))
}

/// A checkpoint's keys and values.
type Entries = Vec<(String, Arc<[u8]>)>;

/// A checkpoint: `(upto, entries)`. [`encode_checkpoint`] writes puts
/// only, so one holding a delete is corrupt, however its crc reads.
fn decode_checkpoint(data: &[u8]) -> Option<(u64, Entries)> {
    let (upto, payload) = decode_header(CKPT_MAGIC, data)?;
    if data.len() != FRAME_HEADER + payload.len() {
        return None;
    }
    let entries = decode_ops(payload)?
        .into_iter()
        .map(|op| match op {
            Op::Put(key, value) => Some((key, value)),
            Op::Delete(_) => None,
        })
        .collect::<Option<_>>()?;
    Some((upto, entries))
}

// ------------------------------------------------------------ recovery

/// The recovered in-memory index plus the next segment sequence number.
type Recovered = (Index, u64);

/// Rebuilds the index: newest valid checkpoint, then surviving log
/// frames in sequence order. Returns `(index, next_seq)`.
fn recover(dir: &Path) -> Result<Recovered, StoreError> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    let mut checkpoints: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        match parse_name(&name) {
            Some(WalFile::Segment(seq)) => segments.push((seq, entry.path())),
            Some(WalFile::Checkpoint(seq)) => checkpoints.push((seq, entry.path())),
            // A .tmp checkpoint is an uncommitted crash leftover.
            Some(WalFile::Temp) => {
                let _ = fs::remove_file(entry.path());
            }
            None => {}
        }
    }
    checkpoints.sort_by_key(|(seq, _)| *seq);
    segments.sort_by_key(|(seq, _)| *seq);

    let mut index = Index::new();
    let mut next_seq = 0u64;
    // Newest checkpoint that actually decodes (a crash can leave a
    // renamed-but-garbage file only if rename itself tore, which POSIX
    // excludes — but verify anyway and fall back).
    for (seq, path) in checkpoints.iter().rev() {
        let Ok(data) = fs::read(path) else { continue };
        if let Some((upto, entries)) = decode_checkpoint(&data) {
            index.extend(entries);
            next_seq = upto.max(*seq);
            break;
        }
    }

    // Replay later frames in segment order; inside a segment, frames
    // are sequential. A tear stops only its own segment: a higher
    // segment's frames were written after an earlier recovery already
    // discarded that tear, so they are valid continuations.
    for (_first_seq, path) in &segments {
        let data = fs::read(path)?;
        let mut at = 0usize;
        while at < data.len() {
            let Some((seq, ops, consumed)) = decode_frame(&data[at..]) else {
                break; // torn or corrupt tail: discard the rest
            };
            at += consumed;
            if seq < next_seq {
                continue; // already covered by the checkpoint
            }
            apply(&mut index, ops);
            next_seq = seq + 1;
        }
        if at < data.len() {
            // Physically discard the torn tail, not just skip it: if the
            // tear hit a segment's FIRST frame, `next_seq` does not
            // advance past this segment, so `open` reuses the same file
            // name — appending valid frames after leftover garbage would
            // make the NEXT recovery stop at offset 0 and silently drop
            // every acked write that followed.
            let file = fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(at as u64)?;
            file.sync_data()?;
        }
    }
    Ok((index, next_seq))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seg-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A decorator `wrap` puts over a `WalStore` forwards the window
    /// bracket: batches submitted through it inside a transaction add
    /// no frame until the seal, which adds one.
    pub(crate) fn a_wrapped_batch_waits_for_the_seal<S: ObjectStore>(
        tag: &str,
        wrap: impl FnOnce(WalStore) -> S,
    ) {
        let dir = tempdir(tag);
        let s = wrap(WalStore::open(&dir).unwrap());
        s.tx_begin();
        for key in ["a", "b"] {
            let mut batch = WriteBatch::new();
            batch.put(key, b"v".to_vec());
            s.submit_batch(batch).unwrap().wait().unwrap();
        }
        assert_eq!(s.io_stats().batches, 0, "no frame before the seal");
        s.tx_seal().unwrap().expect("open tx seals").wait().unwrap();
        let io = s.io_stats();
        assert_eq!((io.batches, io.batch_ops), (1, 2));
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = tempdir("roundtrip");
        {
            let s = WalStore::open(&dir).unwrap();
            s.put("a", b"1").unwrap();
            s.put("b/c", b"22").unwrap();
            s.delete("a").unwrap();
            s.rename("b/c", "d").unwrap();
            assert_eq!(s.get("d").unwrap(), Some(b"22".to_vec()));
            assert_eq!(s.len().unwrap(), 1);
        }
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(s.get("a").unwrap(), None);
        assert_eq!(s.get("d").unwrap(), Some(b"22".to_vec()));
        assert_eq!(s.total_bytes().unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_is_atomic_across_reopen() {
        let dir = tempdir("batch");
        {
            let s = WalStore::open(&dir).unwrap();
            let mut b = WriteBatch::new();
            b.put("x", b"1".to_vec());
            b.put("y", b"2".to_vec());
            b.delete("x");
            s.submit_batch(b).unwrap().wait().unwrap();
        }
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(s.get("x").unwrap(), None);
        assert_eq!(s.get("y").unwrap(), Some(b"2".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sorted_keys(s: &WalStore) -> Vec<String> {
        let mut keys = s.list().unwrap();
        keys.sort();
        keys
    }

    /// An open transaction's ops are its own thread's until the seal:
    /// that thread reads every one back, and any other thread none.
    #[test]
    fn thread_tx_reads_own_writes_and_seals_once() {
        let dir = tempdir("tx");
        let s = WalStore::open(&dir).unwrap();
        s.put("old", b"o").unwrap();
        s.tx_begin();
        s.tx_begin(); // idempotent
        s.put("k", b"v").unwrap();
        s.put("gone", b"g").unwrap();
        assert!(s.delete("gone").unwrap(), "the owner's own put");
        assert!(s.delete("old").unwrap());
        let owner_sees = |s: &WalStore| {
            assert_eq!(s.get("k").unwrap(), Some(b"v".to_vec()));
            assert!(s.exists("k").unwrap());
            assert_eq!(s.get("old").unwrap(), None);
            assert!(!s.exists("gone").unwrap());
            assert_eq!(sorted_keys(s), ["k"]);
            assert_eq!((s.len().unwrap(), s.total_bytes().unwrap()), (1, 1));
        };
        owner_sees(&s);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(s.get("k").unwrap(), None);
                assert!(!s.exists("k").unwrap());
                assert_eq!(s.get("old").unwrap(), Some(b"o".to_vec()));
                assert_eq!(sorted_keys(&s), ["old"]);
                assert_eq!((s.len().unwrap(), s.total_bytes().unwrap()), (1, 1));
                assert!(!s.delete("k").unwrap(), "k is not logged yet");
            });
        });
        owner_sees(&s);
        let ticket = s.tx_seal().unwrap().expect("open tx seals");
        ticket.wait().unwrap();
        assert!(s.tx_seal().unwrap().is_none(), "second seal is a no-op");
        drop(s);
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(s.get("k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(sorted_keys(&s), ["k"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch inside a transaction joins it, as a `put` does: read back
    /// at once by its thread, no frame of its own, and the seal is one
    /// frame holding the transaction's ops in the order they were made.
    #[test]
    fn a_batch_inside_a_transaction_adds_no_frame_until_the_seal() {
        let dir = tempdir("tx-batch");
        let s = WalStore::open(&dir).unwrap();
        s.tx_begin();
        s.put("a", b"1").unwrap();
        let mut batch = WriteBatch::new();
        batch.put("b", b"2".to_vec());
        batch.delete("a");
        batch.put("c", b"3".to_vec());
        s.submit_batch(batch).unwrap().wait().unwrap();
        let mut applied = WriteBatch::new();
        applied.put("d", b"4".to_vec());
        s.apply_batch(&applied).unwrap();
        assert_eq!(s.io_stats().batches, 0, "no frame before the seal");
        assert_eq!(s.get("a").unwrap(), None);
        assert_eq!(s.get("c").unwrap(), Some(b"3".to_vec()));
        s.tx_seal().unwrap().expect("open tx seals").wait().unwrap();
        let io = s.io_stats();
        assert_eq!((io.batches, io.batch_ops), (1, 5));
        drop(s);
        let segment = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                matches!(
                    parse_name(p.file_name().unwrap().to_str().unwrap()),
                    Some(WalFile::Segment(_))
                )
            })
            .unwrap();
        let bytes = fs::read(segment).unwrap();
        let (_, ops, len) = decode_frame(&bytes).expect("one frame");
        assert_eq!(len, bytes.len(), "and nothing after it");
        let put = |k: &str, v: &[u8]| Op::Put(k.into(), Arc::from(v));
        assert_eq!(
            ops,
            [
                put("a", b"1"),
                put("b", b"2"),
                Op::Delete("a".into()),
                put("c", b"3"),
                put("d", b"4"),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_wholesale() {
        let dir = tempdir("torn");
        {
            let s = WalStore::open(&dir).unwrap();
            s.put("keep", b"durable").unwrap();
            let mut b = WriteBatch::new();
            b.put("lost1", vec![7u8; 64]);
            b.put("lost2", vec![8u8; 64]);
            s.submit_batch(b).unwrap().wait().unwrap();
        }
        // Truncate the newest segment mid-frame: the whole last batch
        // must vanish, never half of it.
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().contains("wal-"))
            .collect();
        segs.sort();
        let tail = segs.last().unwrap();
        let data = fs::read(tail).unwrap();
        fs::write(tail, &data[..data.len() - 40]).unwrap();
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(s.get("keep").unwrap(), Some(b"durable".to_vec()));
        assert_eq!(s.get("lost1").unwrap(), None);
        assert_eq!(s.get("lost2").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_survives() {
        let dir = tempdir("ckpt");
        {
            let s = WalStore::open_with(
                &dir,
                WalConfig {
                    checkpoint_bytes: 256,
                    ..WalConfig::default()
                },
            )
            .unwrap();
            for i in 0..50 {
                s.put(&format!("k{i}"), &[i as u8; 32]).unwrap();
            }
            s.delete("k0").unwrap();
            s.checkpoint_now().unwrap();
        }
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(s.len().unwrap(), 49);
        assert_eq!(s.get("k7").unwrap(), Some(vec![7u8; 32]));
        assert_eq!(s.get("k0").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn naive_mode_fsyncs_per_frame() {
        let dir = tempdir("naive");
        let s = WalStore::open_with(
            &dir,
            WalConfig {
                group_commit: false,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for i in 0..10 {
            s.put(&format!("k{i}"), b"v").unwrap();
        }
        let stats = s.io_stats();
        assert_eq!(stats.batches, 10);
        assert_eq!(stats.fsyncs, 10, "naive mode: one fsync per frame");
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_coalesces_fsyncs() {
        let dir = tempdir("group");
        let s = Arc::new(
            WalStore::open_with(
                &dir,
                WalConfig {
                    sim_fsync_us: 2000,
                    ..WalConfig::default()
                },
            )
            .unwrap(),
        );
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..5 {
                    s.put(&format!("t{t}/k{i}"), &[t as u8; 16]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = s.io_stats();
        assert_eq!(stats.batches, 40);
        assert!(
            stats.fsyncs < stats.batches,
            "forty 2ms-fsync frames from 8 threads must coalesce: {} fsyncs",
            stats.fsyncs
        );
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_first_frame_does_not_eat_later_acked_writes() {
        let dir = tempdir("torn-first");
        {
            // Event 1 is the very first frame's append: it tears, so the
            // segment holds nothing but garbage.
            let s = WalStore::open_with(
                &dir,
                WalConfig {
                    group_commit: false,
                    fault: Some(Arc::new(FaultPlan::crash_at(1))),
                    ..WalConfig::default()
                },
            )
            .unwrap();
            assert!(s.put("a", b"torn").is_err());
        }
        {
            // Recovery discards the torn frame (no seq advance) and must
            // leave a segment that later appends extend validly.
            let s = WalStore::open(&dir).unwrap();
            assert_eq!(s.get("a").unwrap(), None);
            s.put("b", b"acked").unwrap();
        }
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(
            s.get("b").unwrap(),
            Some(b"acked".to_vec()),
            "acked post-recovery write must survive the next recovery"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint snapshots only what the log holds, so an open
    /// transaction, sealed later or never, neither delays nor poisons it.
    #[test]
    fn a_checkpoint_never_waits_on_an_open_transaction() {
        let dir = tempdir("open-tx");
        let checkpoint = |s: &WalStore| {
            let started = std::time::Instant::now();
            s.checkpoint_now().unwrap();
            assert!(started.elapsed() < std::time::Duration::from_secs(1));
            assert!(!s.poisoned());
        };
        let s = WalStore::open(&dir).unwrap();
        s.put("k", b"v").unwrap();
        // A thread that opens a transaction, writes and ends unsealed.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.tx_begin();
                s.put("leaked", b"x").unwrap();
            });
        });
        checkpoint(&s);
        assert_eq!(s.get("leaked").unwrap(), None);
        // A transaction open across a checkpoint, sealed after it.
        let step = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.tx_begin();
                s.put("late", b"y").unwrap();
                step.wait(); // written, not sealed
                step.wait(); // the checkpoint is done
                s.tx_seal().unwrap().unwrap().wait().unwrap();
            });
            step.wait();
            checkpoint(&s);
            assert_eq!(s.get("late").unwrap(), None);
            step.wait();
        });
        assert_eq!(s.get("late").unwrap(), Some(b"y".to_vec()));
        drop(s);
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(
            sorted_keys(&s),
            ["k", "late"],
            "the unsealed op is not logged"
        );
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_live_directory_is_owned_until_its_store_is_dropped() {
        let dir = tempdir("owned");
        let held = |result: Result<WalStore, StoreError>| matches!(result, Err(StoreError::Io(msg)) if msg.contains("held by another open wal store"));
        let s = WalStore::open_with(
            &dir,
            WalConfig {
                group_commit: false,
                fault: Some(Arc::new(FaultPlan::crash_at(3))),
                ..WalConfig::default()
            },
        )
        .unwrap();
        // Append and fsync are events 1 and 2; the next append crashes.
        s.put("k", b"v").unwrap();
        assert!(held(WalStore::open(&dir)));
        assert!(s.put("lost", b"x").is_err());
        assert!(s.poisoned());
        assert!(
            held(WalStore::open(&dir)),
            "a poisoned store still holds it"
        );
        drop(s);
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(s.get("k").unwrap(), Some(b"v".to_vec()));
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_transactions_on_one_key_read_the_same_after_reopen() {
        let dir = tempdir("overlap");
        let s = WalStore::open(&dir).unwrap();
        let step = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.tx_begin();
                s.put("k", b"a").unwrap();
                step.wait(); // A's write is in its transaction; B writes k too
                step.wait(); // B sealed; A seals last
                s.tx_seal().unwrap().unwrap().wait().unwrap();
            });
            scope.spawn(|| {
                step.wait();
                s.tx_begin();
                s.put("k", b"b").unwrap();
                s.tx_seal().unwrap().unwrap().wait().unwrap();
                step.wait();
            });
        });
        let before = s.get("k").unwrap();
        assert_eq!(before, Some(b"a".to_vec()), "the later seal wins");
        drop(s);
        let s = WalStore::open(&dir).unwrap();
        assert_eq!(s.get("k").unwrap(), before, "memory is the log's replay");
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The stored format, byte for byte: one frame and one checkpoint.
    #[test]
    fn a_frame_and_a_checkpoint_encode_to_pinned_bytes() {
        let ops = [
            Op::Put("dir/k".into(), Arc::from(&b"val"[..])),
            Op::Delete("old".into()),
        ];
        let frame: [u8; 49] = [
            76, 87, 71, 83, 8, 7, 6, 5, 4, 3, 2, 1, 29, 0, 0, 0, 149, 33, 22, 34, 2, 0, 0, 0, 0, 5,
            0, 0, 0, 100, 105, 114, 47, 107, 3, 0, 0, 0, 118, 97, 108, 1, 3, 0, 0, 0, 111, 108,
            100,
        ];
        assert_eq!(encode_frame(0x0102_0304_0506_0708, &ops), frame);
        assert_eq!(
            decode_frame(&frame),
            Some((0x0102_0304_0506_0708, ops.to_vec(), frame.len()))
        );
        let (key, value) = ("k".to_string(), Arc::from(&[1u8, 2, 3][..]));
        let checkpoint: [u8; 37] = [
            75, 67, 71, 83, 42, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 166, 71, 206, 107, 1, 0, 0, 0, 0,
            1, 0, 0, 0, 107, 3, 0, 0, 0, 1, 2, 3,
        ];
        assert_eq!(
            encode_checkpoint(42, std::iter::once((&key, &value))),
            checkpoint
        );
        assert_eq!(
            decode_checkpoint(&checkpoint),
            Some((42, vec![(key, value)]))
        );
    }

    #[test]
    fn oversized_ops_are_rejected_before_encoding() {
        assert!(check_len("value", MAX_ENCODED).is_ok());
        let err = check_len("value", MAX_ENCODED + 1).unwrap_err();
        assert!(
            err.to_string().contains("frame encoding limit"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn scripted_crash_poisons_then_recovery_is_consistent() {
        let dir = tempdir("crash");
        let plan = Arc::new(FaultPlan::crash_at(2));
        {
            let s = WalStore::open_with(
                &dir,
                WalConfig {
                    group_commit: false,
                    fault: Some(Arc::clone(&plan)),
                    ..WalConfig::default()
                },
            )
            .unwrap();
            // append is event 1, its fsync is event 2 — the crash point.
            assert!(s.put("first", b"1").is_err());
            assert!(plan.tripped());
            assert!(s.poisoned());
            assert!(s.get("first").is_err(), "everything fails after a crash");
        }
        let s = WalStore::open(&dir).unwrap();
        // The first frame was appended but the crash killed its fsync;
        // both all-present and all-absent are legal for it, and the
        // store must be fully operational either way.
        for key in ["first", "second"] {
            let _ = s.get(key).unwrap();
        }
        s.put("after", b"recovered").unwrap();
        assert_eq!(s.get("after").unwrap(), Some(b"recovered".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Recovery decodes whatever the directory holds: arbitrary bytes,
    /// torn tails and flipped bits of valid encodings decode to nothing
    /// or to what re-encodes to exactly the bytes read.
    mod crc {
        use super::*;
        use proptest::prelude::*;

        /// The CRC-32 one bit at a time, as the log computed it first:
        /// the reference the table-driven one must match.
        fn crc32_bitwise(parts: &[&[u8]]) -> u32 {
            let mut crc = 0xffff_ffffu32;
            for &b in parts.iter().copied().flatten() {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xedb8_8320 & mask);
                }
            }
            !crc
        }

        #[test]
        fn crc32_has_the_ieee_check_value() {
            assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
            assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
            assert_eq!(crc32(&[]), 0);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn crc32_matches_the_bitwise_one_over_any_split(
                bytes in proptest::collection::vec(any::<u8>(), 0..600),
                cuts in proptest::collection::vec(any::<usize>(), 0..5),
            ) {
                let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
                cuts.sort_unstable();
                let mut parts = Vec::new();
                let mut at = 0;
                for cut in cuts {
                    parts.push(&bytes[at..cut]);
                    at = cut;
                }
                parts.push(&bytes[at..]);
                prop_assert_eq!(crc32(&parts), crc32_bitwise(&parts));
                prop_assert_eq!(crc32(&parts), crc32(&[&bytes]));
            }
        }
    }

    mod hostile_bytes {
        use super::*;
        use proptest::prelude::*;

        fn batch_ops() -> impl Strategy<Value = Vec<Op>> {
            let op = (
                any::<bool>(),
                "[a-z0-9/!]{0,16}",
                proptest::collection::vec(any::<u8>(), 0..48),
            );
            proptest::collection::vec(op, 0..6).prop_map(|ops| {
                ops.into_iter()
                    .map(|(put, key, value)| match put {
                        true => Op::Put(key, Arc::from(value)),
                        false => Op::Delete(key),
                    })
                    .collect()
            })
        }

        /// The puts of `ops`, as a checkpoint holds them.
        fn entries(ops: &[Op]) -> Entries {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Put(key, value) => Some((key.clone(), Arc::clone(value))),
                    Op::Delete(_) => None,
                })
                .collect()
        }

        fn encode_entries(upto: u64, entries: &Entries) -> Vec<u8> {
            encode_checkpoint(upto, entries.iter().map(|(k, v)| (k, v)))
        }

        /// An op list's encoding: a frame's payload.
        fn encode_ops(ops: &[Op]) -> Vec<u8> {
            encode_frame(0, ops)[FRAME_HEADER..].to_vec()
        }

        /// `bytes` through all three decoders.
        fn decode_all(bytes: &[u8]) {
            if let Some(ops) = decode_ops(bytes) {
                assert_eq!(encode_ops(&ops), bytes);
            }
            if let Some((seq, ops, used)) = decode_frame(bytes) {
                assert_eq!(encode_frame(seq, &ops), bytes[..used]);
            }
            if let Some((upto, entries)) = decode_checkpoint(bytes) {
                assert_eq!(encode_entries(upto, &entries), bytes);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn decoders_survive_arbitrary_bytes(
                noise in proptest::collection::vec(any::<u8>(), 0..200),
                magic in 0u8..3,
            ) {
                // Noise, and noise behind a frame's or a checkpoint's
                // magic, so the length and crc fields are reached.
                let mut bytes = noise;
                if bytes.len() >= 4 && magic > 0 {
                    let magic = if magic == 1 { FRAME_MAGIC } else { CKPT_MAGIC };
                    bytes[..4].copy_from_slice(&magic.to_le_bytes());
                }
                decode_all(&bytes);
            }

            #[test]
            fn decoders_survive_truncations_and_bit_flips(
                ops in batch_ops(),
                seq in any::<u64>(),
                flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
            ) {
                let checkpoint = encode_entries(seq, &entries(&ops));
                prop_assert_eq!(decode_checkpoint(&checkpoint), Some((seq, entries(&ops))));
                let payload = encode_ops(&ops);
                prop_assert_eq!(decode_ops(&payload), Some(ops.clone()));
                let frame = encode_frame(seq, &ops);
                prop_assert_eq!(decode_frame(&frame), Some((seq, ops, frame.len())));
                for cut in 0..payload.len() {
                    prop_assert!(decode_ops(&payload[..cut]).is_none());
                }
                for cut in 0..frame.len() {
                    prop_assert!(decode_frame(&frame[..cut]).is_none());
                }
                for cut in 0..checkpoint.len() {
                    prop_assert!(decode_checkpoint(&checkpoint[..cut]).is_none());
                }
                for valid in [payload, frame, checkpoint] {
                    let mut flipped = valid;
                    for &(at, bit) in &flips {
                        let at = at % flipped.len();
                        flipped[at] ^= 1 << bit;
                    }
                    decode_all(&flipped);
                }
            }
        }

        #[test]
        fn a_checkpoint_holding_a_delete_is_refused() {
            // The crc does not cover the magic, so this frame behind a
            // checkpoint's magic is well-formed down to its crc; but no
            // checkpoint holds a delete.
            let mut bytes = encode_frame(7, &[Op::Delete("k".into())]);
            bytes[..4].copy_from_slice(&CKPT_MAGIC.to_le_bytes());
            assert!(decode_checkpoint(&bytes).is_none());
            bytes[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
            assert!(decode_frame(&bytes).is_some());
        }
    }
}
