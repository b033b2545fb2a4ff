//! In-process virtual connections: a pair of bounded frame queues whose
//! push and drain edges schedule the connection like epoll readiness.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use super::conn::{CloseMode, Conn, ConnState, Inbound, OutQ, Sink};
use super::event_loop::Intake;
use super::ReactorHandle;
use crate::virtq::VirtQueue;
use crate::{ChannelTransport, NetError};

impl ReactorHandle {
    /// Opens an in-process connection served by the reactor, returning
    /// the peer's blocking transport (what a client hands to
    /// `Client::connect`). Works on every platform.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the reactor is at its connection
    /// cap (the in-process equivalent of an accept shed).
    pub fn connect_virtual(&self) -> Result<ChannelTransport, NetError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        if inner.conn_count.load(Ordering::Relaxed) >= inner.cfg.max_conns {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Io("reactor at connection cap".to_string()));
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);

        // Client -> reactor: the peer's sends land here; every push (and
        // the close on client drop) schedules the connection.
        let conn_slot: Arc<Mutex<Option<Arc<Conn>>>> = Arc::new(Mutex::new(None));
        let hook_inner = Arc::downgrade(inner);
        let hook_slot = Arc::clone(&conn_slot);
        let on_push: crate::virtq::QueueHook = Arc::new(move || {
            if let (Some(inner), Some(conn)) =
                (hook_inner.upgrade(), hook_slot.lock().unwrap().clone())
            {
                inner.schedule(&conn);
            }
        });
        let inbound_q = Arc::new(VirtQueue::new(inner.cfg.inbox_frames, Some(on_push), None));

        // Reactor -> client: the peer's blocking recv side. When a full
        // queue regains space (or closes), retry the flush.
        let drain_inner = Arc::downgrade(inner);
        let drain_slot = Arc::clone(&conn_slot);
        let on_drain: crate::virtq::QueueHook = Arc::new(move || {
            if let (Some(inner), Some(conn)) =
                (drain_inner.upgrade(), drain_slot.lock().unwrap().clone())
            {
                inner.schedule(&conn);
            }
        });
        let outbound_q = Arc::new(VirtQueue::new(
            inner.cfg.virtual_depth,
            None,
            Some(on_drain),
        ));

        let conn = Arc::new(Conn {
            id,
            state: AtomicU8::new(ConnState::Accepting as u8),
            scheduled: AtomicBool::new(false),
            wants_drain: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            close_mode: Mutex::new(CloseMode::Drain),
            close_done: AtomicBool::new(false),
            reading_paused: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(inner.now_ms()),
            drain_deadline_ms: AtomicU64::new(0),
            inbound: Inbound::Virtual {
                q: Arc::clone(&inbound_q),
            },
            sink: Sink::Virtual {
                peer: Arc::clone(&outbound_q),
            },
            out: Mutex::new(OutQ::default()),
        });
        *conn_slot.lock().unwrap() = Some(Arc::clone(&conn));

        if !inner.handler.on_open(id) {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            inner.handler.on_close(id);
            return Err(NetError::Io("connection refused by handler".to_string()));
        }
        inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
        inner.stats.enter(ConnState::Accepting);
        inner.conns.lock().unwrap().insert(id, Arc::clone(&conn));
        inner.conn_count.fetch_add(1, Ordering::Relaxed);
        inner.intake.lock().unwrap().push(Intake::VirtualConn(conn));
        inner.waker.wake();
        Ok(ChannelTransport::from_queues(inbound_q, outbound_q))
    }
}
