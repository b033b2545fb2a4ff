//! The worker pool: one scheduled turn per connection at a time, running
//! the handler and delivering its output to the sink.
//!
//! Delivering means writing: the worker that ran the handler writes the
//! response to the socket itself, in one `write_vectored` under the
//! connection's `out` lock, so a response never waits for another thread
//! to be scheduled. Only when the socket would block does the worker
//! hand the rest of the queue to the event loop (`Note::Flush`) and
//! stay away from the socket until the loop has drained it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::conn::{CloseMode, Conn, ConnState, Inbound, Sink, Written};
use super::event_loop::Note;
use super::{FrameOutcome, Inner, DRAIN_DEADLINE_MS};
use crate::virtq::{TryPop, TryPush};

/// Frames one worker turn may process before requeueing the connection
/// (fairness: a busy pipeline cannot starve other connections).
const FRAMES_PER_TURN: usize = 16;

pub(super) fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let conn = {
            let mut ready = inner.ready.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(conn) = ready.pop_front() {
                    inner.stats.dispatch_depth.fetch_sub(1, Ordering::Relaxed);
                    break conn;
                }
                ready = inner.ready_cv.wait(ready).unwrap();
            }
        };
        service(inner, &conn);
        conn.scheduled.store(false, Ordering::Release);
        if inner.has_work(&conn) {
            inner.schedule(&conn);
        }
    }
}

/// One scheduled turn for one connection. Never runs concurrently with
/// itself for the same connection (the `scheduled` flag guarantees it).
fn service(inner: &Arc<Inner>, conn: &Arc<Conn>) {
    let mut budget = FRAMES_PER_TURN;
    loop {
        if conn.close_done.load(Ordering::Acquire) {
            return;
        }
        flush(inner, conn);
        if conn.closing.load(Ordering::Acquire) {
            try_finalize(inner, conn);
            return;
        }
        if budget == 0 {
            return; // requeued by the caller's has_work check
        }
        let low_water = inner.cfg.outbound_bytes / 2;
        let out_bytes = conn.out.lock().unwrap().bytes;
        // Lazy production (streaming downloads) before new requests.
        if conn.wants_drain.swap(false, Ordering::AcqRel) {
            if out_bytes < low_water {
                let outcome = inner.handler.on_drain(conn.id);
                apply(inner, conn, outcome);
                budget -= 1;
                continue;
            }
            conn.wants_drain.store(true, Ordering::Release);
        }
        if out_bytes >= inner.cfg.outbound_bytes {
            // Outbound is at its cap: stop consuming requests until the
            // flush path drains it (the drain reschedules us).
            return;
        }
        match pop_inbound(conn) {
            InboundItem::Frame(frame) => {
                // Popping may reopen a paused socket (inbox was full).
                if conn.reading_paused.load(Ordering::Acquire) {
                    if let Inbound::Fd { inbox } = &conn.inbound {
                        if inbox.lock().unwrap().len() <= inner.cfg.inbox_frames / 2 {
                            inner.inject(Note::ReadResume(conn.id));
                        }
                    }
                }
                inner.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                inner
                    .stats
                    .bytes_in
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                conn.last_activity_ms
                    .store(inner.now_ms(), Ordering::Relaxed);
                if conn.state() == ConnState::Accepting {
                    conn.set_state(&inner.stats, ConnState::Handshaking);
                }
                let outcome = inner.handler.on_frame(conn.id, frame);
                apply(inner, conn, outcome);
                budget -= 1;
            }
            InboundItem::Empty => return,
            InboundItem::PeerGone => {
                inner.request_close(conn, CloseMode::Drain);
            }
        }
    }
}

enum InboundItem {
    Frame(Vec<u8>),
    Empty,
    PeerGone,
}

fn pop_inbound(conn: &Conn) -> InboundItem {
    match &conn.inbound {
        Inbound::Fd { inbox } => match inbox.lock().unwrap().pop_front() {
            Some(frame) => InboundItem::Frame(frame),
            None => InboundItem::Empty,
        },
        Inbound::Virtual { q } => match q.try_pop() {
            TryPop::Frame(frame) => InboundItem::Frame(frame),
            TryPop::Empty => InboundItem::Empty,
            TryPop::Closed => InboundItem::PeerGone,
        },
    }
}

/// Applies a handler outcome: enqueue frames, advance the state
/// machine, remember lazy production, honor a close request.
fn apply(inner: &Arc<Inner>, conn: &Arc<Conn>, outcome: FrameOutcome) {
    if !outcome.frames.is_empty() {
        let mut out = conn.out.lock().unwrap();
        for frame in outcome.frames {
            let len = frame.len() as u64;
            inner.stats.outq_bytes.fetch_add(len, Ordering::Relaxed);
            out.bytes += frame.len();
            out.frames.push_back(frame);
        }
        inner.stats.note_highwater(out.bytes as u64);
    }
    if outcome.established {
        conn.set_state(&inner.stats, ConnState::Streaming);
    }
    if outcome.more {
        conn.wants_drain.store(true, Ordering::Release);
    }
    if outcome.close {
        {
            let mut m = conn.close_mode.lock().unwrap();
            *m = CloseMode::Drain;
        }
        conn.closing.store(true, Ordering::Release);
        conn.set_state(&inner.stats, ConnState::Draining);
    }
}

/// Delivers the outbound queue to the sink: written to the socket, or
/// pushed into the virtual peer's queue. A socket that would block goes
/// to the loop with a flush note, and stays the loop's to write until
/// `EPOLLOUT` has cleared `blocked`.
fn flush(inner: &Arc<Inner>, conn: &Arc<Conn>) {
    match &conn.sink {
        Sink::Fd { stream } => {
            let written = {
                let mut out = conn.out.lock().unwrap();
                if out.blocked {
                    return;
                }
                out.write_to(stream, inner)
            };
            match written {
                Written::Drained => {}
                Written::Blocked => inner.inject(Note::Flush(conn.id)),
                Written::Broken => inner.request_close(conn, CloseMode::Abort),
            }
        }
        Sink::Virtual { peer } => {
            let mut out = conn.out.lock().unwrap();
            while let Some(frame) = out.frames.pop_front() {
                let len = frame.len();
                match peer.try_push(frame) {
                    TryPush::Pushed => {
                        out.bytes -= len;
                        out.blocked = false;
                        inner.note_stall(out.blocked_since.take());
                        inner.charge_sent(len);
                    }
                    TryPush::Full(frame) => {
                        out.frames.push_front(frame);
                        out.note_blocked();
                        return;
                    }
                    TryPush::Closed => {
                        out.bytes -= len;
                        inner.charge_dropped(len);
                        drop(out);
                        inner.request_close(conn, CloseMode::Abort);
                        return;
                    }
                }
            }
        }
    }
}

/// Completes a requested close once the outbound queue has drained (or
/// immediately for aborts). Runs on a worker so `on_close` is
/// serialized after any in-flight callback.
fn try_finalize(inner: &Arc<Inner>, conn: &Arc<Conn>) {
    let mode = *conn.close_mode.lock().unwrap();
    if mode == CloseMode::Drain {
        flush(inner, conn);
        if conn.out.lock().unwrap().undelivered() {
            // Still draining; the flush path (loop write or the peer's
            // drain hook) reschedules us when it empties, and the
            // deadline does if it never will.
            let deadline = inner.now_ms() + DRAIN_DEADLINE_MS;
            if conn
                .drain_deadline_ms
                .compare_exchange(0, deadline, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                inner.inject(Note::DrainDeadline(conn.id));
            }
            return;
        }
    }
    if conn.close_done.swap(true, Ordering::AcqRel) {
        return;
    }
    // Drop whatever a drain could not deliver.
    {
        let mut out = conn.out.lock().unwrap();
        inner.note_stall(out.blocked_since.take());
        out.discard(inner);
    }
    conn.set_state(&inner.stats, ConnState::Closed);
    inner.stats.closed.fetch_add(1, Ordering::Relaxed);
    inner.conns.lock().unwrap().remove(&conn.id);
    inner.conn_count.fetch_sub(1, Ordering::Relaxed);
    inner.handler.on_close(conn.id);
    // Last, what an in-process peer can see: once its transport reports
    // the close, the gauges and the handler already agree.
    if let Inbound::Virtual { q } = &conn.inbound {
        q.close();
    }
    if let Sink::Virtual { peer } = &conn.sink {
        peer.close();
    }
    if matches!(conn.sink, Sink::Fd { .. }) {
        inner.inject(Note::Destroy(conn.id));
    }
}
