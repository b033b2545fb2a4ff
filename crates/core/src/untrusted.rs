//! The untrusted server host (paper Fig. 1, left half of the provider):
//! enclave sessions behind the event-driven front end.
//!
//! Everything here runs *outside* the trusted boundary: it shuttles
//! opaque TLS frames into and out of the enclave (as ecalls, so the
//! boundary cost model sees them) and never sees a plaintext byte.
//!
//! [`ReactorDispatcher`] implements [`seg_net::reactor::FrameHandler`]
//! by owning one [`EnclaveSession`] per reactor connection: one
//! `handle_frame` ecall per inbound frame, then draining
//! `next_outgoing`. The only number it keeps is how many frames are
//! inside the enclave right now; connections, frames and bytes are the
//! reactor's to count ([`seg_net::reactor::ReactorStats`]).
//!
//! Two invariants carry the whole design:
//!
//! * **Frames of one session are processed in order, never
//!   concurrently.** TLS record sequence numbers demand it, and the
//!   reactor's per-connection scheduling guarantees it — a connection
//!   is on at most one worker at a time.
//! * **No lock is held across TLS frames** (the PR 5 locking rule).
//!   Because every `handle_frame` ecall acquires and releases its
//!   LockManager scopes internally, a bounded worker pool cannot
//!   deadlock on session order: any scheduled frame can always run to
//!   completion regardless of what other connections are doing.
//!
//! Streaming downloads keep the paper's §VI constant-memory property
//! end to end: `next_outgoing` materializes one chunk at a time, this
//! dispatcher drains at most [`DRAIN_BUDGET_BYTES`] per turn, and the
//! reactor re-invokes [`FrameHandler::on_drain`] only when the bounded
//! outbound queue falls below its low-water mark.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use seg_net::reactor::{ConnId, FrameHandler, FrameOutcome};

use crate::enclave::session::EnclaveSession;
use crate::enclave::SegShareEnclave;

/// Outbound bytes one `on_frame`/`on_drain` turn may materialize
/// before yielding back to the reactor (half the default outbound
/// queue cap, so a turn's production always fits above the low-water
/// mark without overshooting the cap by more than one chunk).
pub const DRAIN_BUDGET_BYTES: usize = 512 * 1024;

/// Per-connection slot: the enclave session plus its fatal flag.
struct Slot {
    session: EnclaveSession,
    /// A session-fatal error occurred; subsequent frames are ignored
    /// (the reactor is already draining toward close).
    dead: bool,
}

/// Owns the enclave sessions served by a reactor front end.
///
/// The slot map is locked only for lookup/insert/remove; enclave work
/// runs under the per-connection slot mutex, which is uncontended by
/// construction (the reactor serializes callbacks per connection).
pub struct ReactorDispatcher {
    enclave: Arc<SegShareEnclave>,
    slots: Mutex<HashMap<ConnId, Arc<Mutex<Slot>>>>,
    /// Frames currently inside the enclave across all sessions
    /// (`handle_frame` ecalls in progress): the in-flight gauge.
    pub(crate) in_flight: Arc<AtomicU64>,
}

impl std::fmt::Debug for ReactorDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorDispatcher")
            .field("sessions", &self.slots.lock().unwrap().len())
            .finish()
    }
}

impl ReactorDispatcher {
    /// Creates a dispatcher feeding `enclave`.
    #[must_use]
    pub fn new(enclave: Arc<SegShareEnclave>) -> ReactorDispatcher {
        ReactorDispatcher {
            enclave,
            slots: Mutex::new(HashMap::new()),
            in_flight: Arc::new(AtomicU64::new(0)),
        }
    }

    fn slot(&self, conn: ConnId) -> Option<Arc<Mutex<Slot>>> {
        self.slots.lock().unwrap().get(&conn).cloned()
    }

    /// Drains `next_outgoing` into `frames` until the byte budget is
    /// spent or the session has nothing more. Returns `false` on a
    /// session-fatal error.
    fn drain_outgoing(&self, slot: &mut Slot, frames: &mut Vec<Vec<u8>>) -> bool {
        let mut spent = 0usize;
        while spent < DRAIN_BUDGET_BYTES {
            let next = self
                .enclave
                .sgx()
                .boundary()
                .ecall(|| slot.session.next_outgoing(&self.enclave));
            match next {
                Ok(Some(frame)) => {
                    spent += frame.len();
                    frames.push(frame);
                }
                Ok(None) => break,
                Err(_) => {
                    slot.dead = true;
                    return false;
                }
            }
        }
        true
    }
}

impl FrameHandler for ReactorDispatcher {
    fn on_open(&self, conn: ConnId) -> bool {
        let Ok(session) = self.enclave.new_session() else {
            return false;
        };
        self.slots.lock().unwrap().insert(
            conn,
            Arc::new(Mutex::new(Slot {
                session,
                dead: false,
            })),
        );
        true
    }

    fn on_frame(&self, conn: ConnId, frame: Vec<u8>) -> FrameOutcome {
        let closed = || FrameOutcome {
            close: true,
            ..FrameOutcome::default()
        };
        let Some(slot) = self.slot(conn) else {
            return closed();
        };
        // A poisoned slot's last callback panicked mid-frame: dead.
        let Ok(mut slot) = slot.lock() else {
            return closed();
        };
        if slot.dead {
            return closed();
        }
        let handled = {
            let _in_flight = InFlight::enter(&self.in_flight);
            self.enclave
                .sgx()
                .boundary()
                .ecall(|| slot.session.handle_frame(&self.enclave, &frame))
        };
        if handled.is_err() {
            // Session-fatal: nothing more is sent, the connection closes.
            slot.dead = true;
            return closed();
        }

        let mut frames = Vec::new();
        let ok = self.drain_outgoing(&mut slot, &mut frames);
        FrameOutcome {
            frames,
            established: slot.session.user().is_some(),
            more: ok && slot.session.download_active(),
            close: !ok,
        }
    }

    fn on_drain(&self, conn: ConnId) -> FrameOutcome {
        let Some(slot) = self.slot(conn) else {
            return FrameOutcome::default();
        };
        let Ok(mut slot) = slot.lock() else {
            return FrameOutcome::default();
        };
        if slot.dead {
            return FrameOutcome::default();
        }
        let mut frames = Vec::new();
        let ok = self.drain_outgoing(&mut slot, &mut frames);
        FrameOutcome {
            frames,
            more: ok && slot.session.download_active(),
            close: !ok,
            ..FrameOutcome::default()
        }
    }

    fn on_close(&self, conn: ConnId) {
        let Some(slot) = self.slots.lock().unwrap().remove(&conn) else {
            return;
        };
        // A poisoned slot panicked mid-frame and its session state is
        // unknown, so it is dropped without `close`: an upload it staged
        // ends without a record, as after a crash.
        let Ok(mut slot) = slot.lock() else {
            return;
        };
        self.enclave
            .sgx()
            .boundary()
            .ecall(|| slot.session.close(&self.enclave));
    }
}

/// One frame inside the enclave, counted in the in-flight gauge until
/// dropped — also when the ecall unwinds.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(gauge: &'a AtomicU64) -> InFlight<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        InFlight(gauge)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}
