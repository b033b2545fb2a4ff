//! The kernels everything above runs on: which AES-GCM and SHA-256
//! backends this CPU selected, and their speed on this machine, right
//! now. `gcm_mb_per_s`, `gcm_node_us`, `gcm_new_ns` and `hmac_us` are the
//! history row's crypto probes: bulk throughput, then what a small
//! object pays (one pfs node sealed and opened, one key set up). A
//! backend other than the baseline's means the committed baseline does
//! not apply (`aesni-pclmul` GCM ~2.5× slower than `vaes-avx512` over
//! large buffers, `portable` GCM ~12× slower again, SHA-256 ~2×).

use std::hint::black_box;
use std::time::Instant;

use seg_crypto::gcm::Gcm;
use seg_crypto::mset::{MsetHash, MsetKey};
use seg_crypto::sha256::Sha256;

use super::{Ctx, Outcome};
use crate::json::Json;

/// Best of five timings of `f`, in seconds per call.
fn best_s(calls: u32, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.say(format_args!(
        "== crypto kernels == AES-GCM: {}, SHA-256: {}",
        Gcm::backend(),
        Sha256::backend()
    ));
    let gcm = Gcm::new(&[7u8; 16]).expect("16-byte key");
    let mut mib = vec![0x5au8; 1 << 20];
    let mb = mib.len() as f64 / 1e6;
    let seal_s = best_s(4, || {
        black_box(gcm.seal_in_place(&[1u8; 12], b"probe", black_box(&mut mib)));
    });
    let sealed = gcm.seal(&[1u8; 12], b"probe", &mib);
    let open_s = best_s(4, || {
        black_box(gcm.open(&[1u8; 12], b"probe", black_box(&sealed))).expect("authentic");
    });
    // One pfs node: the unit every stored file body is sealed in.
    let mut node = vec![0x3cu8; seg_sgx::pfs::DATA_PER_NODE];
    let node_s = best_s(256, || {
        let tag = gcm.seal_in_place(&[2u8; 12], b"node", black_box(&mut node));
        gcm.open_in_place(&[2u8; 12], b"node", black_box(&mut node), &tag)
            .expect("authentic");
    });
    let new_s = best_s(4096, || {
        black_box(Gcm::new(black_box(&[9u8; 16])).expect("16-byte key"));
    });
    let sha_s = best_s(4, || {
        black_box(Sha256::digest(black_box(&mib)));
    });
    // One multiset-hash update of a 72-byte element: an HMAC-SHA-256
    // under a kept key, the rollback tree's unit of work.
    let key = MsetKey::from_bytes([5u8; 32]);
    let mut acc = MsetHash::empty();
    let element = [0x77u8; 72];
    let hmac_s = best_s(4096, || acc.add(&key, black_box(&element)));
    black_box(acc);

    let probes = [
        ("gcm_mb_per_s", mb / seal_s, 1),
        ("gcm_open_mb_per_s", mb / open_s, 1),
        ("gcm_node_us", node_s * 1e6, 3),
        ("gcm_new_ns", new_s * 1e9, 1),
        ("sha256_mb_per_s", mb / sha_s, 1),
        ("hmac_us", hmac_s * 1e6, 4),
    ];
    out.say(format_args!(
        "  over 1 MiB: GCM seal {:.0} MB/s, open {:.0} MB/s, SHA-256 {:.0} MB/s",
        probes[0].1, probes[1].1, probes[4].1
    ));
    out.say(format_args!(
        "  small objects: GCM seal+open of one {}-byte pfs node {:.3} µs, Gcm::new {:.0} ns; one \
         mset update (HMAC of 72 bytes) {:.3} µs",
        node.len(),
        probes[2].1,
        probes[3].1,
        probes[5].1
    ));
    let probes = probes.map(|(key, v, digits)| (key, Json::num(v, digits)));
    out.json.push(("crypto", Json::obj(probes)));
    out
}
