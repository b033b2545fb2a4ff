//! A hashed timing wheel for idle-connection reaping and drain-close
//! deadlines.
//!
//! Deadlines land in one of a fixed ring of coarse slots; the event
//! loop advances the cursor as wall time passes and collects whatever
//! expired. Precision is one slot granularity — plenty for idle
//! timeouts measured in seconds — and every operation is O(1), so ten
//! thousand idle connections cost nothing until they actually expire.
//!
//! Entries are *lazy*: the wheel never removes a connection on
//! activity. The reaper re-checks the connection's real last-activity
//! stamp at expiry and re-inserts still-live entries one timeout ahead,
//! so a busy connection is touched once per timeout period, not once
//! per request.

/// Fixed slot count — a power of two so the cursor wraps with a mask.
const SLOTS: usize = 64;

/// The timing wheel (see module docs).
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<u64>>,
    granularity_ms: u64,
    /// Wheel time: the absolute ms the cursor has been advanced to.
    now_ms: u64,
    cursor: usize,
}

impl TimerWheel {
    /// Creates a wheel whose full revolution spans at least `horizon_ms`
    /// (the idle timeout), starting at absolute time `now_ms`.
    #[must_use]
    pub fn new(horizon_ms: u64, now_ms: u64) -> TimerWheel {
        let granularity_ms = (horizon_ms / (SLOTS as u64 / 2)).max(10);
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            granularity_ms,
            now_ms,
            cursor: 0,
        }
    }

    /// The wheel's slot granularity in milliseconds — the reaping
    /// precision, and a sensible poll timeout for the event loop.
    #[must_use]
    pub fn granularity_ms(&self) -> u64 {
        self.granularity_ms
    }

    /// Schedules `id` to surface `delay_ms` from the wheel's current
    /// time. Delays beyond one revolution are clamped to the furthest
    /// slot (the reaper re-inserts, so long timeouts still work).
    pub fn insert(&mut self, id: u64, delay_ms: u64) {
        let ticks = (delay_ms / self.granularity_ms).clamp(1, SLOTS as u64 - 1) as usize;
        let slot = (self.cursor + ticks) % SLOTS;
        self.slots[slot].push(id);
    }

    /// Advances wheel time to `now_ms`, appending every expired id to
    /// `expired`. Ids are raw cookies: the caller re-validates against
    /// live connection state (the wheel is lazy; see module docs).
    pub fn advance(&mut self, now_ms: u64, expired: &mut Vec<u64>) {
        while self.now_ms + self.granularity_ms <= now_ms {
            self.now_ms += self.granularity_ms;
            self.cursor = (self.cursor + 1) % SLOTS;
            expired.append(&mut self.slots[self.cursor]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_surface_after_their_delay() {
        let mut w = TimerWheel::new(1000, 0);
        let g = w.granularity_ms();
        w.insert(1, g * 2);
        w.insert(2, g * 5);
        let mut out = Vec::new();
        w.advance(g * 3, &mut out);
        assert_eq!(out, vec![1], "only the earlier entry expired");
        w.advance(g * 6, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn long_delays_clamp_to_one_revolution() {
        let mut w = TimerWheel::new(1000, 0);
        let g = w.granularity_ms();
        w.insert(9, g * 10_000);
        let mut out = Vec::new();
        w.advance(g * 64, &mut out);
        assert_eq!(out, vec![9], "clamped entry surfaces within a turn");
    }

    #[test]
    fn granularity_has_a_floor() {
        let w = TimerWheel::new(0, 0);
        assert!(w.granularity_ms() >= 10);
    }
}
