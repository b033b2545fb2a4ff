//! Spans recorded from the benchmark's own files, around public calls
//! into each layer: a `FrameTransport` decorator on the client, an
//! `ObjectStore` decorator under the server, and an inline transport that
//! runs the enclave on the generator thread. Spans stay in memory and are
//! written out when the run ends; nothing here reads the server's own
//! telemetry.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use seg_net::{FrameTransport, NetError};
use seg_store::{CommitTicket, IoStats, ObjectStore, StoreError, WriteBatch};
use segshare::enclave::session::EnclaveSession;
use segshare::enclave::SegShareEnclave;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 marks a client-op root; every other span has a parent.
    pub parent: u32,
    /// The client op (root span id) this span belongs to.
    pub op: u32,
    pub name: &'static str,
    /// Small per-thread number: a child on the parent's thread is time
    /// the parent spent waiting for it; a child on another thread is not.
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes the call moved (0 where that has no meaning).
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

/// The span recorder. Off by default: decorators then forward with one
/// relaxed load and record nothing.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    /// Root span of the client op in flight (one connection, closed
    /// loop: whatever the server does now, it does for this op).
    current_op: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current_op: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a client-op root span.
    pub fn op(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.open(name, true)
    }

    /// Opens a span under the innermost open span of this thread, or
    /// under the client op in flight when this thread has none.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.open(name, false)
    }

    fn open(self: &Arc<Self>, name: &'static str, root: bool) -> SpanGuard {
        if !self.on.load(Ordering::Relaxed) {
            return SpanGuard(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = if root {
            self.current_op.store(id, Ordering::SeqCst);
            (0, id)
        } else {
            let op = self.current_op.load(Ordering::SeqCst);
            let top = STACK.with(|s| s.borrow().last().copied());
            (top.unwrap_or(op), op)
        };
        STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard(Some(Open {
            tracer: Arc::clone(self),
            span: Span {
                id,
                parent,
                op,
                name,
                thread: THREAD_NO.with(|t| *t),
                start_ns: self.now_ns(),
                end_ns: 0,
                bytes: 0,
            },
        }))
    }

    /// Takes every span recorded so far, oldest id first.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

struct Open {
    tracer: Arc<Tracer>,
    span: Span,
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<Open>);

impl SpanGuard {
    pub fn bytes(&mut self, n: usize) {
        if let Some(open) = &mut self.0 {
            open.span.bytes += n as u64;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut open) = self.0.take() {
            open.span.end_ns = open.tracer.now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut spans) = open.tracer.spans.lock() {
                spans.push(open.span);
            }
        }
    }
}

/// Self time per span: duration minus the part of its interval that
/// children on the same thread cover. Never negative by construction.
pub fn self_times(spans: &[Span]) -> std::collections::HashMap<u32, u64> {
    use std::collections::HashMap;
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            if p.thread == s.thread {
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if a < b {
                    children.entry(p.id).or_default().push((a, b));
                }
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(iv) = children.get_mut(&s.id) {
                iv.sort_unstable();
                let mut edge = 0;
                for &(a, b) in iv.iter() {
                    let a = a.max(edge);
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Writes spans as JSON lines: name, start, end, parent, op id.
pub fn write_jsonl(path: &std::path::Path, passes: &[(&str, &[Span])]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes {
        for s in *spans {
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                s.id, s.parent, s.op, s.name, s.thread, s.start_ns, s.end_ns, s.bytes
            )?;
        }
    }
    out.flush()
}

// ------------------------------------------------------------ transport

/// Exact wire counts of one client connection.
#[derive(Default)]
pub struct WireCounts {
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
}

/// `FrameTransport` decorator: spans and exact frame/byte counts around
/// the client's sends and receives.
pub struct TracedTransport<T> {
    inner: T,
    tracer: Arc<Tracer>,
    counts: Arc<WireCounts>,
}

impl<T: FrameTransport> TracedTransport<T> {
    pub fn new(inner: T, tracer: Arc<Tracer>, counts: Arc<WireCounts>) -> Self {
        TracedTransport {
            inner,
            tracer,
            counts,
        }
    }

    fn count(&self, len: usize) {
        self.counts.frames.fetch_add(1, Ordering::Relaxed);
        self.counts.bytes.fetch_add(len as u64, Ordering::Relaxed);
    }
}

impl<T: FrameTransport> FrameTransport for TracedTransport<T> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let mut g = self.tracer.span("net.send_frame");
        g.bytes(frame.len());
        self.count(frame.len());
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let mut g = self.tracer.span("net.recv_frame");
        let frame = self.inner.recv_frame()?;
        g.bytes(frame.len());
        self.count(frame.len());
        Ok(frame)
    }
}

/// The inline transport of pass 2: `send_frame` is the `handle_frame`
/// ecall and `recv_frame` is `next_outgoing`, both on the generator
/// thread, so store spans are true children of the enclave span and no
/// socket, queue or second core is involved.
pub struct InlineTransport {
    enclave: Arc<SegShareEnclave>,
    session: EnclaveSession,
    tracer: Arc<Tracer>,
}

impl InlineTransport {
    pub fn new(enclave: Arc<SegShareEnclave>, tracer: Arc<Tracer>) -> Result<Self, String> {
        let session = enclave.new_session().map_err(|e| e.to_string())?;
        Ok(InlineTransport {
            enclave,
            session,
            tracer,
        })
    }
}

impl FrameTransport for InlineTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let mut g = self.tracer.span("enclave.handle_frame");
        g.bytes(frame.len());
        self.session
            .handle_frame(&self.enclave, frame)
            .map_err(|e| NetError::Io(e.to_string()))
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let mut g = self.tracer.span("enclave.next_outgoing");
        match self.session.next_outgoing(&self.enclave) {
            Ok(Some(frame)) => {
                g.bytes(frame.len());
                Ok(frame)
            }
            Ok(None) => Err(NetError::Closed),
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }
}

// ---------------------------------------------------------------- store

/// Timing `ObjectStore` decorator. Forwards **every** trait method —
/// falling back to a trait default would silently turn off batching and
/// group commit and measure a different program (mirror of the blanket
/// `Arc<S>` impl in `crates/store/src/lib.rs`).
pub struct TimedStore {
    inner: Arc<dyn ObjectStore>,
    tracer: Arc<Tracer>,
}

impl TimedStore {
    pub fn wrap(inner: Arc<dyn ObjectStore>, tracer: &Arc<Tracer>) -> Arc<dyn ObjectStore> {
        Arc::new(TimedStore {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl ObjectStore for TimedStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let mut g = self.tracer.span("store.get");
        let r = self.inner.get(key);
        if let Ok(Some(v)) = &r {
            g.bytes(v.len());
        }
        r
    }
    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        let mut g = self.tracer.span("store.get");
        let r = self.inner.get_arc(key);
        if let Ok(Some(v)) = &r {
            g.bytes(v.len());
        }
        r
    }
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        let mut g = self.tracer.span("store.put");
        g.bytes(value.len());
        self.inner.put(key, value)
    }
    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        let _g = self.tracer.span("store.delete");
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        let _g = self.tracer.span("store.exists");
        self.inner.exists(key)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        let _g = self.tracer.span("store.rename");
        self.inner.rename(from, to)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        let _g = self.tracer.span("store.list");
        self.inner.list()
    }
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let _g = self.tracer.span("store.list");
        self.inner.list_prefix(prefix)
    }
    fn len(&self) -> Result<usize, StoreError> {
        self.inner.len()
    }
    fn is_empty(&self) -> Result<bool, StoreError> {
        self.inner.is_empty()
    }
    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.inner.total_bytes()
    }
    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        let _g = self.tracer.span("store.batch");
        self.inner.apply_batch(batch)
    }
    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        let _g = self.tracer.span("store.batch");
        self.inner.submit_batch(batch)
    }
    fn tx_begin(&self) {
        let _g = self.tracer.span("store.tx_begin");
        self.inner.tx_begin();
    }
    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        let _g = self.tracer.span("store.tx_seal");
        self.inner.tx_seal()
    }
    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_store::{WalConfig, WalStore};

    fn span(id: u32, parent: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            thread,
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only_and_never_goes_negative() {
        let spans = [
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 30),
            span(3, 1, 1, 20, 50),  // overlaps span 2: union is 10..50
            span(4, 1, 2, 0, 100),  // other thread: not subtracted
            span(5, 1, 1, 90, 140), // straggler: clamped to the parent
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&5], 50);
    }

    #[test]
    fn spans_nest_on_a_thread_and_fall_back_to_the_op_in_flight() {
        let tracer = Tracer::new();
        drop(tracer.span("off"));
        tracer.set_on(true);
        let root = tracer.op("op");
        {
            let outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            let t = Arc::clone(&tracer);
            std::thread::spawn(move || drop(t.span("elsewhere")))
                .join()
                .unwrap();
            drop(outer);
        }
        drop(root);
        let spans = tracer.drain();
        assert_eq!(spans.len(), 4);
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("op").parent, 0);
        let root_id = find("op").id;
        assert_eq!(find("outer").parent, root_id);
        assert_eq!(find("inner").parent, find("outer").id);
        assert_eq!(find("elsewhere").parent, root_id);
        assert_ne!(find("elsewhere").thread, find("op").thread);
        assert!(spans.iter().all(|s| s.op == root_id));
    }

    /// N puts through a decorated and an undecorated `WalStore` give equal
    /// `io_stats()`: the decorator keeps batching and group commit on.
    #[test]
    fn decorated_wal_store_batches_exactly_like_a_bare_one() {
        let run = |decorate: bool| {
            let dir = crate::rig::TempDir::new("walparity").unwrap();
            let wal: Arc<dyn ObjectStore> =
                Arc::new(WalStore::open_with(dir.path(), WalConfig::default()).unwrap());
            let store = if decorate {
                let tracer = Tracer::new();
                tracer.set_on(true);
                TimedStore::wrap(Arc::clone(&wal), &tracer)
            } else {
                Arc::clone(&wal)
            };
            for i in 0..8 {
                store.tx_begin();
                for j in 0..5 {
                    store.put(&format!("k{i}-{j}"), &[i as u8; 100]).unwrap();
                }
                store.delete(&format!("k{i}-0")).unwrap();
                store.tx_seal().unwrap().expect("open tx").wait().unwrap();
            }
            let mut batch = WriteBatch::new();
            batch.put("b1", vec![1u8; 10]);
            batch.put("b2", vec![2u8; 10]);
            store.submit_batch(batch).unwrap().wait().unwrap();
            assert!(store.exists("b1").unwrap());
            assert_eq!(&*store.get_arc("b2").unwrap().unwrap(), &[2u8; 10]);
            store.rename("b1", "b3").unwrap();
            assert_eq!(store.list_prefix("b").unwrap().len(), 2);
            assert_eq!(store.total_bytes().unwrap(), wal.total_bytes().unwrap());
            let s = store.io_stats();
            (s.batches, s.batch_ops)
        };
        let (bare, decorated) = (run(false), run(true));
        assert_eq!(bare, decorated);
        // 8 transactions of 6 ops, one 2-op batch, one rename.
        assert!(bare.0 >= 10 && bare.1 >= 8 * 6 + 2, "{bare:?}");
    }
}
