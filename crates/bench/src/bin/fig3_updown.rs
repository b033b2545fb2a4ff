//! Regenerates **Fig. 3**: mean latency of uploads and downloads at
//! file sizes 1–200 MB, for SeGShare and the two plaintext WebDAV
//! baselines.
//!
//! Method (see `DESIGN.md` substitutions): server *processing* is
//! measured for real on this machine (full client-TLS → enclave-TLS →
//! Protected-FS path for SeGShare; memcpy path plus the calibrated
//! Apache/nginx cost profiles for the baselines), then composed with
//! the two-region WAN model. Every column is this machine's raw
//! seconds; nothing is scaled to other hardware.
//!
//! Usage: `fig3_updown [--quick] [--sizes 1,10,50,100,200]`

use seg_baseline::{PlainFileServer, ServerProfile};
use seg_bench::harness::{
    arg_flag, arg_value, fmt_s, measure, print_metrics_sidecar_since, wan, Rig,
};
use segshare::EnclaveConfig;

fn main() {
    let sizes_mb: Vec<u64> = if let Some(list) = arg_value("--sizes") {
        list.split(',')
            .map(|s| s.parse().expect("size in MB"))
            .collect()
    } else if arg_flag("--quick") {
        vec![1, 10]
    } else {
        vec![1, 10, 50, 100, 200]
    };
    let wan = wan();
    println!("== Fig. 3: upload/download latency vs file size ==");
    println!("AES-GCM backend: {}", seg_crypto::gcm::Gcm::backend());
    println!("SHA-256 backend: {}", seg_crypto::sha256::Sha256::backend());
    println!();
    println!(
        "{:>6} {:>5} | {:>10} | {:>10} {:>10} | {:>10} | paper(200MB: seg 2.39/2.17, apache 4.74/2.62, nginx 1.84/0.93)",
        "size", "dir", "segshare", "apache", "nginx", "raw-proc"
    );

    for &mb in &sizes_mb {
        let bytes = mb * 1_000_000;
        let runs = if mb <= 10 { 10 } else { 3 };
        let payload: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();

        // SeGShare: real processing through the full stack.
        let rig = Rig::new(EnclaveConfig::paper_prototype());
        let mut client = rig.client();
        // Baseline after the handshake: the sidecar below reports only
        // the measured window, not connection setup.
        let base = rig.server.metrics_snapshot();
        let mut i = 0u32;
        let up = measure(runs, || {
            i += 1;
            client
                .put(&format!("/bench-{i}"), &payload)
                .expect("upload succeeds");
        });
        client.put("/down", &payload).expect("upload succeeds");
        let down = measure(runs, || {
            let got = client.get("/down").expect("download succeeds");
            assert_eq!(got.len() as u64, bytes);
        });

        // Plaintext baseline processing (shared by both profiles).
        let plain = PlainFileServer::new();
        let plain_up = measure(runs, || {
            plain.put("/bench", &payload).expect("put succeeds");
        });
        let plain_down = measure(runs, || {
            let got = plain.get("/bench").expect("get succeeds").expect("exists");
            assert_eq!(got.len() as u64, bytes);
        });

        let apache = ServerProfile::apache_like();
        let nginx = ServerProfile::nginx_like();

        // Compose. SeGShare and nginx stream (processing overlaps the
        // wire); Apache's DAV path effectively stores-and-forwards,
        // which is what reproduces its measured 200 MB numbers.
        let seg_up = wan.request_s(bytes, 64, up.mean_s);
        let apache_up = wan.request_store_forward_s(
            bytes,
            64,
            plain_up.mean_s + apache.request_cost_s(bytes, 0),
        );
        let nginx_up = wan.request_s(bytes, 64, plain_up.mean_s + nginx.request_cost_s(bytes, 0));

        let seg_down = wan.request_s(64, bytes, down.mean_s);
        let apache_down = wan.request_store_forward_s(
            64,
            bytes,
            plain_down.mean_s + apache.request_cost_s(0, bytes),
        );
        let nginx_down = wan.request_s(
            64,
            bytes,
            plain_down.mean_s + nginx.request_cost_s(0, bytes),
        );

        println!(
            "{:>4}MB {:>5} | {:>10} | {:>10} {:>10} | {:>10}",
            mb,
            "up",
            fmt_s(seg_up),
            fmt_s(apache_up),
            fmt_s(nginx_up),
            fmt_s(up.mean_s),
        );
        println!(
            "{:>4}MB {:>5} | {:>10} | {:>10} {:>10} | {:>10}",
            mb,
            "down",
            fmt_s(seg_down),
            fmt_s(apache_down),
            fmt_s(nginx_down),
            fmt_s(down.mean_s),
        );

        print_metrics_sidecar_since(&rig.server, Some(&base));

        // The paper's ordering claims. At small sizes everyone is wire-bound and the curves
        // coincide (as in the figure's left edge), so allow a small
        // tolerance there and require strict ordering at 50 MB+.
        let tol = if mb >= 50 { 0.0 } else { 0.002 };
        assert!(
            nginx_up <= seg_up + tol && seg_up < apache_up + tol,
            "upload ordering (nginx <= SeGShare < Apache) violated at {mb} MB"
        );
        assert!(
            nginx_down <= seg_down + tol,
            "download ordering (nginx <= SeGShare) violated at {mb} MB"
        );
    }
    println!();
    println!(
        "shape check: nginx < SeGShare < Apache for uploads; nginx < SeGShare for downloads — as in the paper."
    );
}
