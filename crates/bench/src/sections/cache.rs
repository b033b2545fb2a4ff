//! The gated `metadata_hot_nocache` / `metadata_hot_cached` pair, which
//! is also **ablation 6**: what the in-enclave authenticated object
//! cache (`EnclaveConfig.cache`) removes.
//!
//! Each iteration downloads a small file at the bottom of a deep
//! directory path eight times (every level contributes hash-record
//! reads to tree validation, plus ACL and member-list fetches)
//! interleaved with fig4-style membership churn, once with the cache
//! off and once on. The acceptance evidence is a drop in GCM
//! invocations and untrusted-store reads — counts machine speed cannot
//! blur — not just wall-clock; write-through invalidation keeps
//! revocation immediate (`tests/integration_cache.rs`).

use seg_fs::Perm;
use segshare::EnclaveConfig;

use super::{Ctx, Outcome};
use crate::harness::{measure, payload, Rig};
use crate::json::Json;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.say("== metadata-hot mix, object cache off and on (ablation 6) ==");
    let body = payload(10_000);
    let mut evidence = Vec::new();
    // (mean seconds, pfs decrypts, store gets) per variant.
    let mut totals = Vec::new();
    for (name, cache) in [
        ("metadata_hot_nocache", false),
        ("metadata_hot_cached", true),
    ] {
        let rig = Rig::new(EnclaveConfig {
            cache,
            ..EnclaveConfig::paper_prototype()
        });
        let mut client = rig.client();
        for dir in ["/deep", "/deep/a", "/deep/a/b", "/deep/a/b/c"] {
            client.mkdir(dir).expect("mkdir");
        }
        client.put("/deep/a/b/c/hot", &body).expect("prefill");
        client.add_user("bob", "churn").expect("seed group");
        client
            .set_perm("/deep/a/b/c/hot", "churn", Perm::Read)
            .expect("seed perm");

        let base = rig.server.metrics_snapshot();
        let measured = measure(ctx.runs, || {
            for _ in 0..8 {
                let got = client.get("/deep/a/b/c/hot").expect("download");
                assert_eq!(got.len(), body.len());
            }
            client.add_user("bob", "churn").expect("add_user");
            client.remove_user("bob", "churn").expect("remove_user");
        });
        let delta = rig.server.metrics_snapshot().delta(&base);
        let counter = |rendered: &str| delta.counter(rendered).unwrap_or(0);
        let pfs_decrypts = delta.histogram("seg_pfs_decrypt_ns").map_or(0, |h| h.count);
        let store_gets: u64 = ["content", "group", "dedup"]
            .iter()
            .map(|store| {
                counter(&format!(
                    "seg_store_ops_total{{op=\"get\",store=\"{store}\"}}"
                ))
            })
            .sum();
        let (hits, misses) = (
            counter("seg_cache_hits_total"),
            counter("seg_cache_misses_total"),
        );
        let hit_ratio = hits as f64 / ((hits + misses).max(1)) as f64;
        out.row(name, measured);
        out.say(format_args!(
            "  {name:<20} pfs_decrypts={pfs_decrypts:<6} store_gets={store_gets:<6} hits={hits} \
             misses={misses} hit_ratio={:.1}%",
            hit_ratio * 100.0,
        ));
        evidence.push((
            name,
            Json::obj([
                ("cache", Json::from(cache)),
                ("pfs_decrypts", pfs_decrypts.into()),
                ("store_gets", store_gets.into()),
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("fills", counter("seg_cache_fills_total").into()),
                ("hit_ratio", Json::num(hit_ratio, 4)),
            ]),
        ));
        totals.push((measured.mean_s, pfs_decrypts, store_gets));
    }
    let [(off_s, off_decrypts, off_gets), (on_s, on_decrypts, on_gets)] = totals[..] else {
        unreachable!("two variants");
    };
    let removed = |off: u64, on: u64| (1.0 - on as f64 / off.max(1) as f64) * 100.0;
    out.say(format_args!(
        "  -> the cache removes {:.1}% of GCM invocations and {:.1}% of store reads on the \
         metadata-hot mix ({:.2}x latency)",
        removed(off_decrypts, on_decrypts),
        removed(off_gets, on_gets),
        off_s / on_s,
    ));
    out.json.push(("cache", Json::obj(evidence)));
    out
}
