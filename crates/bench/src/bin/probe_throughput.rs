//! Raw crypto throughput probe, plus an end-to-end server probe with its telemetry sidecar.

use seg_bench::harness::{print_metrics_sidecar_since, Rig};
use seg_crypto::gcm::Gcm;
use seg_crypto::sha256::Sha256;
use segshare::EnclaveConfig;
use std::time::Instant;

fn main() {
    println!(
        "backends: {} AES-GCM, {} SHA-256",
        Gcm::backend(),
        Sha256::backend()
    );
    let gcm = Gcm::new(&[7u8; 16]).unwrap();
    let data = vec![0u8; 64 * 1024 * 1024];
    let iv = [1u8; 12];
    let start = Instant::now();
    let sealed = gcm.seal(&iv, b"", &data);
    let elapsed = start.elapsed();
    println!(
        "GCM seal 64MB: {:?} -> {:.1} MB/s",
        elapsed,
        64.0 / elapsed.as_secs_f64()
    );
    let start = Instant::now();
    let _ = gcm.open(&iv, b"", &sealed).unwrap();
    let elapsed = start.elapsed();
    println!(
        "GCM open 64MB: {:?} -> {:.1} MB/s",
        elapsed,
        64.0 / elapsed.as_secs_f64()
    );
    // SHA-256
    let start = Instant::now();
    let _ = Sha256::digest(&data);
    let elapsed = start.elapsed();
    println!(
        "SHA256 64MB: {:?} -> {:.1} MB/s",
        elapsed,
        64.0 / elapsed.as_secs_f64()
    );

    // End-to-end probe: 8 MB through the full TLS + enclave + store
    // path, reported via the unified metrics snapshot.
    let rig = Rig::new(EnclaveConfig::paper_prototype());
    let mut client = rig.client();
    // Window the sidecar to the probe itself (handshake excluded).
    let base = rig.server.metrics_snapshot();
    let payload: Vec<u8> = (0..8_000_000u32).map(|i| (i % 251) as u8).collect();
    let start = Instant::now();
    client.put("/probe", &payload).expect("upload succeeds");
    let up = start.elapsed();
    let start = Instant::now();
    let got = client.get("/probe").expect("download succeeds");
    let down = start.elapsed();
    assert_eq!(got.len(), payload.len());
    println!(
        "server 8MB: up {:?} ({:.1} MB/s), down {:?} ({:.1} MB/s)",
        up,
        8.0 / up.as_secs_f64(),
        down,
        8.0 / down.as_secs_f64()
    );
    print_metrics_sidecar_since(&rig.server, Some(&base));

    // Phase profile of one 100 kB upload on a fresh server — the
    // breakdown quoted in the EXPERIMENTS.md profiling appendix.
    let rig = Rig::new(EnclaveConfig::paper_prototype());
    let mut client = rig.client();
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let start = Instant::now();
    client
        .put("/probe-100k", &payload)
        .expect("upload succeeds");
    let wall = start.elapsed();
    let prof = rig.server.enclave().profile_snapshot();
    let upload_ops = ["put_file", "data"];
    let enclave_ns: u64 = upload_ops.iter().map(|op| prof.op_total_ns(op)).sum();
    println!(
        "100 kB upload phase breakdown (client wall {:.3} ms, enclave-side {:.3} ms):",
        wall.as_secs_f64() * 1e3,
        enclave_ns as f64 / 1e6,
    );
    for (leaf, ns) in prof.phase_breakdown(&upload_ops) {
        println!(
            "  {leaf:<14} {:>9.1} us  {:>5.1}%",
            ns as f64 / 1e3,
            ns as f64 * 100.0 / enclave_ns.max(1) as f64
        );
    }
}
