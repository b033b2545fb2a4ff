//! Meter attribution: a Zipf(1.0)-skewed multi-principal workload —
//! more enrolled principals than the sketch has slots — gated on the
//! meter's recall of the true heaviest talkers. Op budgets are
//! deterministic (rank r gets a share ∝ 1/r), so the true top-8 is
//! principals 0–7 by construction and recall needs no reference sketch.

use segshare::EnclaveConfig;

use super::{Ctx, Outcome};
use crate::harness::{payload, Rig};
use crate::json::Json;

/// Minimum true-top-8 principals the meter sketch must recall.
const MIN_RECALL: usize = 7;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let rig = Rig::new(EnclaveConfig::paper_prototype());
    let principals = if ctx.quick { 80 } else { 96 };
    let total_ops = if ctx.quick { 800 } else { 1600 };
    let weights: Vec<f64> = (1..=principals).map(|r| 1.0 / r as f64).collect();
    let wsum: f64 = weights.iter().sum();
    let p4k = payload(4096);
    let mut expected_top8 = Vec::new();
    let mut ops_done = 0u64;
    for (i, w) in weights.iter().enumerate() {
        let ops = ((total_ops as f64 * w / wsum).round() as usize).max(1);
        let name = format!("tenant{i:03}");
        let user = rig
            .setup
            .enroll_user(&name, &format!("{name}@bench"), &name)
            .expect("enroll tenant");
        let mut client = rig.server.connect_local(&user).expect("connect tenant");
        let dir = format!("/t{i:03}");
        client.mkdir(&dir).expect("mkdir");
        for j in 0..ops {
            if j % 3 == 2 {
                let back = format!("{dir}/f{}", j - 1);
                let got = client.get(&back).expect("download");
                assert_eq!(got.len(), p4k.len());
            } else {
                client.put(&format!("{dir}/f{j}"), &p4k).expect("upload");
            }
        }
        ops_done += ops as u64 + 1; // +1 for the mkdir
        if i < 8 {
            let uid = seg_fs::UserId::new(&name).expect("valid id");
            expected_top8.push(rig.server.enclave().fingerprint_user(&uid));
        }
    }
    let meter = rig.server.telemetry().meter();
    let reported: Vec<u64> = meter.top("principal", 8).iter().map(|s| s.fp).collect();
    let recalled = expected_top8
        .iter()
        .filter(|fp| reported.contains(fp))
        .count();
    let by_principal = meter.stats()[0];
    let (tracked, evictions) = (by_principal.tracked, by_principal.evictions);
    let slots = seg_obs::METER_SLOTS as u64;

    out.say(format_args!(
        "== meter attribution == {principals} principals, {ops_done} ops (Zipf 1.0): recalled \
         {recalled}/8 true top talkers, {tracked} tracked slots, {evictions} evictions \
         (gate: >= {MIN_RECALL}/8, tracked <= {slots})",
    ));
    if recalled < MIN_RECALL {
        out.failures.push(format!(
            "meter: sketch recalled only {recalled}/8 true top talkers (floor {MIN_RECALL})"
        ));
    }
    if tracked > slots {
        out.failures.push(format!(
            "meter: {tracked} tracked slots exceed the {slots} cardinality bound"
        ));
    }
    if evictions == 0 {
        out.failures.push(format!(
            "meter: no evictions despite {principals} principals over {slots} slots — the \
             workload never exercised the bounded-memory path"
        ));
    }
    out.json.push((
        "meter",
        Json::obj([
            ("principals", Json::from(principals as u64)),
            ("ops", ops_done.into()),
            ("recalled_top8", recalled.into()),
            ("tracked", tracked.into()),
            ("evictions", evictions.into()),
        ]),
    ));
    out
}
