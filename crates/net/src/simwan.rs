//! Deterministic WAN model for the benchmark harness.
//!
//! The paper's latencies are end-to-end across Azure regions (client in
//! central US, server in east US, §VII-B); they are dominated by the wide
//! area network plus server processing, interleaved by SeGShare's
//! streaming. The reproduction measures processing for real and composes
//! it with this model of the testbed's network. Calibration is documented
//! here and derived from the paper's own plaintext-baseline numbers
//! (nginx moved a 200 MB upload in 1.84 s ⇒ ≈0.9 Gb/s up; 0.93 s down ⇒
//! ≈1.8 Gb/s down; membership operations bottom out near 150 ms ⇒ ≈70 ms
//! of round trips plus TLS and server work per small request).

/// A WAN link profile between the client and the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanProfile {
    /// Round-trip time in seconds.
    pub rtt_s: f64,
    /// Client-to-server bandwidth in bits per second.
    pub upload_bps: f64,
    /// Server-to-client bandwidth in bits per second.
    pub download_bps: f64,
    /// Fixed per-request overhead in seconds (connection setup, TLS
    /// round trips, HTTP framing) — applied once per request.
    pub per_request_s: f64,
}

impl WanProfile {
    /// The two-region Azure testbed of §VII-B, calibrated from the
    /// paper's nginx baseline and small-request floors.
    #[must_use]
    pub fn azure_two_region() -> WanProfile {
        WanProfile {
            rtt_s: 0.034,
            upload_bps: 0.90e9,
            download_bps: 1.80e9,
            per_request_s: 0.110,
        }
    }

    /// A zero-cost network (isolates processing in ablations).
    #[must_use]
    pub fn free() -> WanProfile {
        WanProfile {
            rtt_s: 0.0,
            upload_bps: f64::INFINITY,
            download_bps: f64::INFINITY,
            per_request_s: 0.0,
        }
    }

    /// Wire time to move `bytes` from client to server.
    #[must_use]
    pub fn upload_wire_s(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / self.upload_bps
    }

    /// Wire time to move `bytes` from server to client.
    #[must_use]
    pub fn download_wire_s(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / self.download_bps
    }

    /// End-to-end time for a request that uploads `up_bytes`, downloads
    /// `down_bytes`, and needs `processing_s` of server time, with
    /// processing *interleaved* with the transfer (the paper's streaming
    /// design, §VI): the slower of pipe and processor dominates.
    #[must_use]
    pub fn request_s(&self, up_bytes: u64, down_bytes: u64, processing_s: f64) -> f64 {
        let wire = self.upload_wire_s(up_bytes) + self.download_wire_s(down_bytes);
        self.per_request_s + self.rtt_s + wire.max(processing_s)
    }

    /// End-to-end time when processing *cannot* overlap the transfer
    /// (store-and-forward servers; the non-streaming ablation).
    #[must_use]
    pub fn request_store_forward_s(
        &self,
        up_bytes: u64,
        down_bytes: u64,
        processing_s: f64,
    ) -> f64 {
        self.per_request_s
            + self.rtt_s
            + self.upload_wire_s(up_bytes)
            + self.download_wire_s(down_bytes)
            + processing_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_profile_matches_nginx_calibration() {
        let wan = WanProfile::azure_two_region();
        // 200 MB upload on nginx ≈ 1.84 s in the paper; the model must be
        // within 15 % with negligible processing.
        let up = wan.request_s(200_000_000, 0, 0.05);
        assert!((1.5..2.2).contains(&up), "upload model {up:.2}s");
        let down = wan.request_s(0, 200_000_000, 0.05);
        assert!((0.85..1.35).contains(&down), "download model {down:.2}s");
    }

    #[test]
    fn small_requests_hit_the_latency_floor() {
        let wan = WanProfile::azure_two_region();
        let t = wan.request_s(200, 200, 0.001);
        assert!((0.13..0.17).contains(&t), "small request {t:.3}s");
    }

    #[test]
    fn streaming_overlap_beats_store_and_forward() {
        let wan = WanProfile::azure_two_region();
        let streamed = wan.request_s(100_000_000, 0, 0.9);
        let stored = wan.request_store_forward_s(100_000_000, 0, 0.9);
        assert!(streamed < stored);
        // With processing slower than the wire, processing dominates.
        let slow_proc = wan.request_s(1_000_000, 0, 10.0);
        assert!(slow_proc > 10.0 && slow_proc < 10.2);
    }

    #[test]
    fn free_profile_is_zero_cost() {
        let wan = WanProfile::free();
        assert_eq!(wan.request_s(1_000_000, 1_000_000, 0.0), 0.0);
    }
}
