//! Lock-free, fixed-capacity trace ring for structured request events.
//!
//! Every span in session dispatch, every access-control check, and
//! every TrustedStore I/O emits one [`TraceEvent`] into a [`TraceRing`]
//! — a bounded, preallocated buffer of seqlock-style slots. Writers
//! never block and never allocate: a slot is claimed with one CAS and
//! filled with relaxed atomic stores; on claim contention the event is
//! counted as dropped instead of spinning. Slot versions are
//! epoch-tagged with the writer's ring revolution, so a writer lapped
//! by a full revolution can never overwrite a newer event — it drops
//! (and is counted) instead. Readers ([`TraceRing::tail`]) validate
//! each slot's version before and after copying it out, so a torn read
//! is skipped, never surfaced.
//!
//! # Trust-boundary rule
//!
//! Trace events cross the enclave boundary when declassified via
//! `SegShareEnclave::trace_tail`, so they obey the same rule as metrics:
//! operation and error-code labels are interned `&'static str`s
//! (compiled into the binary), and principals/objects appear only as
//! stable keyed fingerprints (`u64`), never as raw user ids or paths.
//! The fingerprint key never leaves the enclave, so the cloud cannot
//! reverse a fingerprint, yet an operator can correlate events about
//! the same (unknown) principal across a trace.
//!
//! [`TraceRing::consume`] writes a closed request's header event into
//! the same ring as the nested events under it; the *whole* record goes
//! out through the [`crate::RecordSink`], where the host keeps its slow
//! log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use crate::record::RequestRecord;

/// Default capacity of the main event ring (slots, not bytes).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Hard cap on distinct interned labels; overflow maps to `"?"`.
const MAX_LABELS: usize = 512;

/// Outcome class of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecision {
    /// An authorization or request that was permitted and succeeded.
    Allow,
    /// An authorization or request that was rejected by access control.
    Deny,
    /// A request that failed for a non-authorization reason.
    Error,
    /// A neutral infrastructure event (store I/O, connection, ...).
    Event,
}

impl TraceDecision {
    /// Stable lowercase label (`allow`/`deny`/`error`/`event`).
    pub fn label(self) -> &'static str {
        match self {
            TraceDecision::Allow => "allow",
            TraceDecision::Deny => "deny",
            TraceDecision::Error => "error",
            TraceDecision::Event => "event",
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            TraceDecision::Allow => 0,
            TraceDecision::Deny => 1,
            TraceDecision::Error => 2,
            TraceDecision::Event => 3,
        }
    }

    fn from_u64(v: u64) -> TraceDecision {
        match v {
            0 => TraceDecision::Allow,
            1 => TraceDecision::Deny,
            2 => TraceDecision::Error,
            _ => TraceDecision::Event,
        }
    }
}

/// One structured trace event, copied out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission sequence number (gaps mean dropped events).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub at_us: u64,
    /// Request correlation id; 0 when the event is outside any request.
    pub request_id: u64,
    /// Interned operation label (`get`, `auth_file`, `store_write`, ...).
    pub op: &'static str,
    /// Keyed principal fingerprint; 0 when no principal applies.
    pub principal: u64,
    /// Keyed object name-hash; 0 when no object applies.
    pub object: u64,
    /// Outcome class.
    pub decision: TraceDecision,
    /// Interned error-code label; `"ok"` on success.
    pub code: &'static str,
    /// Event duration in microseconds (0 for instantaneous events).
    pub duration_us: u64,
}

/// One seqlock slot. `version` is even when the slot is stable and odd
/// while a writer owns it; payload fields are plain atomics so a racing
/// reader's copy is merely stale, never undefined behavior.
#[derive(Debug, Default)]
struct Slot {
    version: AtomicU64,
    seq: AtomicU64,
    at_us: AtomicU64,
    request_id: AtomicU64,
    op_idx: AtomicU64,
    principal: AtomicU64,
    object: AtomicU64,
    decision: AtomicU64,
    code_idx: AtomicU64,
    duration_us: AtomicU64,
}

/// Raw payload handed from `emit` to the rings.
#[derive(Clone, Copy)]
struct Payload {
    at_us: u64,
    request_id: u64,
    op_idx: u64,
    principal: u64,
    object: u64,
    decision: u64,
    code_idx: u64,
    duration_us: u64,
}

#[derive(Debug)]
struct RingBuf {
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl RingBuf {
    fn new(capacity: usize) -> RingBuf {
        let capacity = capacity.max(1);
        RingBuf {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, p: Payload) {
        let pos = self.head.fetch_add(1, Ordering::AcqRel);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(pos % cap) as usize];
        // Epoch-tagged claim: a writer for round `pos / cap` releases
        // the slot at version `2*(round+1)`, so the version encodes
        // which round last wrote it. A claim succeeds only while the
        // slot is stable (even) AND still holds a round no newer than
        // ours — a writer lapped by a full ring revolution fails here
        // instead of resurrecting a stale claim over a newer event.
        // Every push therefore either completes its write or counts
        // itself in `dropped`: the trace is best-effort by contract,
        // the drop counter is not.
        let round = pos / cap;
        let v = slot.version.load(Ordering::Acquire);
        if v & 1 == 1
            || v > round * 2
            || slot
                .version
                .compare_exchange(v, round * 2 + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.seq.store(pos, Ordering::Relaxed);
        slot.at_us.store(p.at_us, Ordering::Relaxed);
        slot.request_id.store(p.request_id, Ordering::Relaxed);
        slot.op_idx.store(p.op_idx, Ordering::Relaxed);
        slot.principal.store(p.principal, Ordering::Relaxed);
        slot.object.store(p.object, Ordering::Relaxed);
        slot.decision.store(p.decision, Ordering::Relaxed);
        slot.code_idx.store(p.code_idx, Ordering::Relaxed);
        slot.duration_us.store(p.duration_us, Ordering::Relaxed);
        slot.version.store(round * 2 + 2, Ordering::Release);
    }

    /// Copies out up to `n` of the newest stable events, oldest first.
    fn tail(&self, n: usize, labels: &RwLock<Vec<&'static str>>) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let table = labels.read().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        let mut pos = head;
        while pos > 0 && out.len() < n && head - pos < cap {
            pos -= 1;
            let slot = &self.slots[(pos % cap) as usize];
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                continue;
            }
            let ev = TraceEvent {
                seq: slot.seq.load(Ordering::Relaxed),
                at_us: slot.at_us.load(Ordering::Relaxed),
                request_id: slot.request_id.load(Ordering::Relaxed),
                op: label_at(&table, slot.op_idx.load(Ordering::Relaxed)),
                principal: slot.principal.load(Ordering::Relaxed),
                object: slot.object.load(Ordering::Relaxed),
                decision: TraceDecision::from_u64(slot.decision.load(Ordering::Relaxed)),
                code: label_at(&table, slot.code_idx.load(Ordering::Relaxed)),
                duration_us: slot.duration_us.load(Ordering::Relaxed),
            };
            // Reject torn reads (writer raced us) and slots that a
            // wrapped writer already reused for a newer sequence.
            if slot.version.load(Ordering::Acquire) != v1 || ev.seq != pos {
                continue;
            }
            out.push(ev);
        }
        out.reverse();
        out
    }
}

fn label_at(table: &[&'static str], idx: u64) -> &'static str {
    table.get(idx as usize).copied().unwrap_or("?")
}

/// Bounded lock-free buffer of the most recent [`TraceEvent`]s. Memory
/// use is fixed at construction.
#[derive(Debug)]
pub struct TraceRing {
    start: Instant,
    labels: RwLock<Vec<&'static str>>,
    events: RingBuf,
    emitted: AtomicU64,
}

impl Default for TraceRing {
    fn default() -> TraceRing {
        TraceRing::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// Creates a ring of `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            start: Instant::now(),
            // Index 0 is the "no label" sentinel so a zeroed slot
            // decodes to "?" rather than a stale label.
            labels: RwLock::new(vec!["?"]),
            events: RingBuf::new(capacity),
            emitted: AtomicU64::new(0),
        }
    }

    /// Main ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.events.slots.len()
    }

    /// Total events offered to the ring (including later-dropped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Events lost to slot contention in the main ring.
    pub fn dropped(&self) -> u64 {
        self.events.dropped.load(Ordering::Relaxed)
    }

    /// Records one event. Lock-free on the slot path; the label table
    /// takes a read lock only (a write lock the first time a given
    /// `&'static str` is seen).
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        request_id: u64,
        op: &'static str,
        principal: u64,
        object: u64,
        decision: TraceDecision,
        code: &'static str,
        duration_us: u64,
    ) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let p = Payload {
            at_us: self.start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            request_id,
            op_idx: self.intern(op),
            principal,
            object,
            decision: decision.to_u64(),
            code_idx: self.intern(code),
            duration_us,
        };
        self.events.push(p);
    }

    /// Consumes one closed request: its header event goes into the
    /// ring.
    pub fn consume(&self, rec: &RequestRecord) {
        self.emit(
            rec.request_id,
            rec.op,
            rec.principal,
            rec.object,
            rec.decision,
            rec.code,
            rec.duration_us(),
        );
    }

    /// Copies out up to `n` of the newest events, oldest first. This is
    /// a read-only declassification helper: it never blocks writers.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        self.events.tail(n, &self.labels)
    }

    fn intern(&self, label: &'static str) -> u64 {
        {
            let table = self.labels.read().unwrap_or_else(|e| e.into_inner());
            if let Some(idx) = find_label(&table, label) {
                return idx;
            }
        }
        let mut table = self.labels.write().unwrap_or_else(|e| e.into_inner());
        if let Some(idx) = find_label(&table, label) {
            return idx;
        }
        if table.len() >= MAX_LABELS {
            return 0; // overflow: decode as "?" rather than grow unboundedly
        }
        table.push(label);
        (table.len() - 1) as u64
    }
}

fn find_label(table: &[&'static str], label: &'static str) -> Option<u64> {
    table
        .iter()
        .position(|&l| std::ptr::eq(l, label) || l == label)
        .map(|i| i as u64)
}

/// JSON array rendering of trace events. Fingerprints are emitted as
/// fixed-width hex strings; all other fields are integers or interned
/// labels, so no escaping is ever required.
pub fn events_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"seq\": {}, \"at_us\": {}, \"request_id\": {}, \"op\": \"{}\", \
             \"principal\": \"{:016x}\", \"object\": \"{:016x}\", \"decision\": \"{}\", \
             \"code\": \"{}\", \"duration_us\": {}}}",
            e.seq,
            e.at_us,
            e.request_id,
            e.op,
            e.principal,
            e.object,
            e.decision.label(),
            e.code,
            e.duration_us
        ));
    }
    if !events.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

thread_local! {
    static CURRENT_REQUEST: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Marks `id` as the request being handled on this thread, so trace
/// events emitted from nested layers (access control, store I/O)
/// correlate with the dispatching span. 0 clears the mark.
pub fn set_current_request(id: u64) {
    CURRENT_REQUEST.with(|c| c.set(id));
}

/// The request id most recently set on this thread (0 outside any
/// request).
pub fn current_request_id() -> u64 {
    CURRENT_REQUEST.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ring: &TraceRing, id: u64) {
        ring.emit(id, "get", 7, 9, TraceDecision::Allow, "ok", id);
    }

    #[test]
    fn tail_returns_newest_events_in_order() {
        let ring = TraceRing::new(8);
        for i in 0..5 {
            ev(&ring, i);
        }
        let tail = ring.tail(3);
        let ids: Vec<u64> = tail.iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(tail[0].op, "get");
        assert_eq!(tail[0].code, "ok");
        assert_eq!(tail[0].decision, TraceDecision::Allow);
    }

    #[test]
    fn ring_wraps_and_stays_bounded() {
        let ring = TraceRing::new(8);
        for i in 0..100 {
            ev(&ring, i);
        }
        let tail = ring.tail(usize::MAX);
        assert!(tail.len() <= 8, "len={}", tail.len());
        // Only the newest window survives a wrap.
        for e in &tail {
            assert!(e.request_id >= 92, "stale event {e:?}");
        }
        assert_eq!(ring.emitted(), 100);
    }

    #[test]
    fn distinct_labels_intern_distinctly() {
        let ring = TraceRing::new(8);
        ring.emit(1, "get", 0, 0, TraceDecision::Deny, "denied", 1);
        ring.emit(2, "mk_dir", 0, 0, TraceDecision::Error, "internal", 2);
        let tail = ring.tail(2);
        assert_eq!(tail[0].op, "get");
        assert_eq!(tail[0].code, "denied");
        assert_eq!(tail[1].op, "mk_dir");
        assert_eq!(tail[1].code, "internal");
    }

    #[test]
    fn json_export_shape() {
        let ring = TraceRing::new(8);
        ring.emit(3, "get", 0xabcd, 0x1234, TraceDecision::Deny, "denied", 17);
        let json = events_json(&ring.tail(10));
        assert!(json.contains("\"op\": \"get\""), "{json}");
        assert!(json.contains("\"decision\": \"deny\""), "{json}");
        assert!(
            json.contains("\"principal\": \"000000000000abcd\""),
            "{json}"
        );
        assert!(json.contains("\"duration_us\": 17"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(events_json(&[]), "[]\n");
    }

    #[test]
    fn current_request_is_thread_local() {
        set_current_request(42);
        assert_eq!(current_request_id(), 42);
        std::thread::spawn(|| assert_eq!(current_request_id(), 0))
            .join()
            .unwrap();
        set_current_request(0);
        assert_eq!(current_request_id(), 0);
    }
}
