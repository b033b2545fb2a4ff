//! What the serial-mix rig's enclave saw: per-protocol-op latency
//! quantiles from its metrics snapshot (`"ops"`), the phase profiler's
//! self-times (`"phases"`, simulated time folded in; also the history
//! row's `phases_ns`), and the collapsed stacks `flamegraph.pl` renders
//! (`results/flame_perf.txt`). Runs after every section that drives
//! that rig, so the profile is of the whole serial mix.

use std::collections::BTreeSet;

use super::{Ctx, Outcome};
use crate::json::Json;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // Declassified aggregates (explicit enclave exits).
    let snapshot = ctx.main.server.metrics_snapshot();
    let profile = ctx.main.server.enclave().profile_snapshot();

    let ops = snapshot
        .histograms
        .iter()
        .filter(|(id, s)| id.name() == "seg_request_latency_ns" && s.count > 0)
        .map(|(id, s)| {
            let quantiles = [("count", s.count), ("p50_ns", s.p50), ("p95_ns", s.p95)];
            (
                id.labels().first().map_or("?", |&(_, v)| v),
                Json::obj(quantiles.map(|(k, v)| (k, Json::from(v)))),
            )
        });
    out.json.push(("ops", Json::obj(ops)));

    // Self time per leaf phase across every profiled operation.
    let all_ops: BTreeSet<&str> = profile.entries.iter().map(seg_obs::ProfEntry::op).collect();
    let all_ops: Vec<&str> = all_ops.into_iter().collect();
    let breakdown = profile.phase_breakdown(&all_ops);
    let total: u64 = breakdown.iter().map(|&(_, ns)| ns).sum();
    out.say("== phase profile of the serial mix (self time) ==");
    for &(leaf, ns) in &breakdown {
        out.say(format_args!(
            "  {leaf:<14} {:>9.2} ms  {:>5.1}%",
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total.max(1) as f64
        ));
    }
    let phases = breakdown
        .iter()
        .map(|&(leaf, ns)| (leaf, Json::obj([("self_ns", Json::from(ns))])));
    out.json.push(("phases", Json::obj(phases)));
    out.json
        .push(("unbalanced_phases", profile.unbalanced.into()));
    out.dump = profile.to_collapsed();
    out
}
