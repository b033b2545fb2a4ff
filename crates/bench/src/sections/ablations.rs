//! Ablations of the design choices `DESIGN.md` calls out:
//!
//! 1. **switchless calls** (§II-A/§VI): simulated boundary-crossing
//!    cost of a workload with and without switchless mode;
//! 2. **bucket hashes** (§V-D): measured with the Fig. 5 sweep, whose
//!    flat-layout point it shares (section `fig5_rollback`);
//! 3. **deduplication** (§V-A): storage and upload-time cost/benefit;
//! 4. **revocation vs. the HE baseline** (§III-D): the re-encryption
//!    bill SeGShare eliminates — also Table III's contrast row;
//! 5. **audit trail**: up/download latency with the hash-chained audit
//!    log enabled vs. disabled (two sealed-record writes per decision);
//! 6. **object cache**: the gated metadata-hot pair (section `cache`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use seg_baseline::he::{HeFileShare, HeUser};
use seg_store::{MemStore, ObjectStore};
use segshare::{EnclaveConfig, FsoSetup};

use super::{Ctx, Outcome};
use crate::harness::{fmt_s, measure, Rig};
use crate::json::Json;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let switchless = switchless(ctx.quick, &mut out);
    out.say("== ablation 2: bucket hashes in the rollback tree (§V-D) ==");
    out.say("  measured with the Fig. 5 sweep: see the end of results/fig5_rollback.txt");
    let members = [
        ("switchless", switchless),
        ("dedup", dedup(ctx.quick, &mut out)),
        ("he_revocation", he_revocation(ctx.quick, &mut out)),
        ("audit", audit_overhead(ctx.quick, &mut out)),
    ];
    out.say("== ablation 6: in-enclave authenticated object cache ==");
    out.say("  the gated metadata-hot pair: BENCH_perf.json \"cache\" and \"workloads\"");
    out.json.push(("ablations", Json::obj(members)));
    out
}

fn switchless(quick: bool, out: &mut Outcome) -> Json {
    out.say("== ablation 1: switchless enclave calls (§II-A/§VI) ==");
    let files = if quick { 20 } else { 100 };
    let costs = [true, false].map(|switchless| {
        let rig = Rig::new(EnclaveConfig::default());
        let boundary = rig.server.enclave().sgx().boundary();
        boundary.set_switchless(switchless);
        boundary.reset();
        let mut client = rig.client();
        for i in 0..files {
            client.put(&format!("/f{i}"), &vec![1u8; 10_000]).unwrap();
            let _ = client.get(&format!("/f{i}")).unwrap();
        }
        let stats = boundary.stats();
        out.say(format_args!(
            "  switchless={switchless:<5} ecalls={:>6} ocalls={:>6} simulated transition cost = {}",
            stats.ecalls,
            stats.ocalls,
            fmt_s(stats.simulated_ns as f64 / 1e9)
        ));
        stats.simulated_ns
    });
    let saving = costs[1] as f64 / costs[0].max(1) as f64;
    out.say(format_args!(
        "  -> switchless saves {saving:.1}x of the boundary-crossing cost over {files} up+downloads"
    ));
    Json::obj([
        ("files", Json::from(files as u64)),
        ("simulated_ns_on", costs[0].into()),
        ("simulated_ns_off", costs[1].into()),
    ])
}

fn dedup(quick: bool, out: &mut Outcome) -> Json {
    out.say("== ablation 3: deduplication store (§V-A) ==");
    let copies = if quick { 5 } else { 20 };
    let payload = vec![9u8; 1_000_000];
    let runs = [false, true].map(|dedup_on| {
        let content = Arc::new(MemStore::new());
        let dedup_store = Arc::new(MemStore::new());
        let rig = Rig::over(FsoSetup::with_stores(
            "bench-ca",
            EnclaveConfig {
                dedup: dedup_on,
                ..EnclaveConfig::default()
            },
            seg_sgx::Platform::new_with_seed(7),
            Arc::clone(&content) as Arc<dyn ObjectStore>,
            Arc::new(MemStore::new()),
            Arc::clone(&dedup_store) as Arc<dyn ObjectStore>,
        ));
        let mut client = rig.client();
        let start = Instant::now();
        for i in 0..copies {
            client.put(&format!("/copy-{i}"), &payload).unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stored = content.total_bytes().unwrap() + dedup_store.total_bytes().unwrap();
        out.say(format_args!(
            "  dedup={dedup_on:<5}: {copies}x 1 MB identical uploads in {} | stored {:.2} MB",
            fmt_s(elapsed),
            stored as f64 / 1e6
        ));
        Json::obj([
            ("dedup", Json::from(dedup_on)),
            ("upload_s", Json::num(elapsed, 6)),
            ("stored_bytes", stored.into()),
        ])
    });
    out.say("  -> dedup trades one extra HMAC+re-encryption pass on first upload for");
    out.say("     ~N-fold storage savings on duplicates (server-side, cross-group)");
    Json::arr(runs)
}

fn he_revocation(quick: bool, out: &mut Outcome) -> Json {
    out.say("== ablation 4: revocation vs. the HE baseline (§III-D / P3) ==");
    let file_counts: &[usize] = if quick { &[10] } else { &[10, 50] };
    let file_size = 500_000usize;
    let mut points = Vec::new();
    for &files in file_counts {
        // HE: revoking bob re-encrypts every shared file.
        let alice = HeUser::new("alice");
        let bob = HeUser::new("bob");
        let mut he = HeFileShare::new();
        for i in 0..files {
            he.put(&format!("/f{i}"), &vec![0u8; file_size], &[&alice, &bob])
                .unwrap();
        }
        let dir: HashMap<String, [u8; 32]> = [
            ("alice".to_string(), alice.public()),
            ("bob".to_string(), bob.public()),
        ]
        .into();
        let start = Instant::now();
        let cost = he.revoke_everywhere(&alice, "bob", &dir).unwrap();
        let he_time = start.elapsed().as_secs_f64();

        // SeGShare: one member-list update regardless of file count.
        let rig = Rig::new(EnclaveConfig::default());
        let mut client = rig.client();
        client.add_user("bob", "team").unwrap();
        for i in 0..files {
            let path = format!("/f{i}");
            client.put(&path, &vec![0u8; file_size]).unwrap();
            client.set_perm(&path, "team", seg_fs::Perm::Read).unwrap();
        }
        let start = Instant::now();
        client.remove_user("bob", "team").unwrap();
        let seg_time = start.elapsed().as_secs_f64();

        out.say(format_args!(
            "  {files:>3} files x 500 kB: HE revocation {} (re-encrypted {:.1} MB, {} rewraps) | \
             SeGShare {}",
            fmt_s(he_time),
            cost.bytes_reencrypted as f64 / 1e6,
            cost.rewraps,
            fmt_s(seg_time)
        ));
        points.push(Json::obj([
            ("files", Json::from(files)),
            ("he_s", Json::num(he_time, 6)),
            ("he_bytes_reencrypted", cost.bytes_reencrypted.into()),
            ("segshare_s", Json::num(seg_time, 6)),
        ]));
    }
    out.say("  -> the HE bill grows with total shared bytes; SeGShare's is one small");
    out.say("     encrypted member-list update (the paper's P3/S4 design goal)");
    Json::Arr(points)
}

fn audit_overhead(quick: bool, out: &mut Outcome) -> Json {
    out.say("== ablation 5: tamper-evident audit trail ==");
    let runs = if quick { 15 } else { 40 };
    let payload = vec![0x5cu8; 100_000];
    let results = [true, false].map(|audit| {
        let rig = Rig::new(EnclaveConfig {
            audit,
            ..EnclaveConfig::default()
        });
        let mut client = rig.client();
        let mut i = 0;
        let up = measure(runs, || {
            i += 1;
            client.put(&format!("/audited-{i}"), &payload).unwrap();
        });
        client.put("/probe", &payload).unwrap();
        let down = measure(runs, || {
            let got = client.get("/probe").unwrap();
            assert_eq!(got.len(), payload.len());
        });
        let records = rig
            .server
            .audit_verify()
            .expect("chain verifies after the workload");
        out.say(format_args!(
            "  audit={audit:<5}: upload {} | download {}  ({records} chain records)",
            fmt_s(up.mean_s),
            fmt_s(down.mean_s)
        ));
        (up.mean_s, down.mean_s)
    });
    let [(up_on, down_on), (up_off, down_off)] = results;
    out.say(format_args!(
        "  -> overhead: upload {:+.1}%, download {:+.1}% on the 100 kB",
        (up_on / up_off - 1.0) * 100.0,
        (down_on / down_off - 1.0) * 100.0
    ));
    out.say("     up/down path (two sealed appends per audited decision)");
    Json::obj([
        (
            "upload_s",
            Json::arr([up_on, up_off].map(|s| Json::num(s, 9))),
        ),
        (
            "download_s",
            Json::arr([down_on, down_off].map(|s| Json::num(s, 9))),
        ),
    ])
}
