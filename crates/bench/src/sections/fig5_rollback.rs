//! **Fig. 5**: overhead of the individual-file rollback protection
//! extension (§V-D), for two directory layouts — and **ablation 2**,
//! which is one more point of the same sweep.
//!
//! Preparation mirrors the paper: upload `2^x − 1` files of 10 kB
//! arranged (1) in a binary tree of directories with one file per leaf
//! and (2) flat under the root; then measure upload and download of one
//! additional 10 kB file, with the extension enabled and disabled.
//! Ablation 2 repeats the flat point of `ABLATION_X` with a single
//! bucket (= no bucketing): leaf validation then touches every
//! sibling's hash record, which is why §V-D has buckets.
//!
//! Paper: minimal average download 111.65 ms; at 16,384 files the
//! average rises to only 115.93 ms (tree) / 121.95 ms (flat); upload
//! overhead "negligible in the total latency".
//!
//! Filling the flat directory is O(width²) here (ROADMAP item 1), so
//! the paper's scale takes minutes: this section runs last.

use segshare::{Client, EnclaveConfig};

use super::{Ctx, Outcome};
use crate::harness::{fmt_s, measure, wan, Rig};
use crate::json::Json;

/// Largest `x` of the sweep (it steps by two): `--quick`, and the
/// paper's 16 383 files.
const QUICK_MAX_X: u32 = 8;
const FULL_MAX_X: u32 = 14;
/// The sweep point ablation 2 repeats with one bucket (1 023 files; the
/// largest point there is under `--quick`).
const ABLATION_X: u32 = 10;
const BUCKETS: u16 = 64;

type Session = Client<seg_net::ChannelTransport>;

/// Builds the binary-tree directory layout with `count` files in the
/// leaves: files live at depth x-1 directories (binary fanout).
fn build_tree(client: &mut Session, count: usize, payload: &[u8]) {
    let mut made = 0usize;
    let mut level_dirs = vec![String::from("/")];
    while made < count {
        let mut next = Vec::new();
        for dir in &level_dirs {
            for side in ["l", "r"] {
                if made >= count {
                    break;
                }
                let sub = format!("{dir}{side}/");
                client.mkdir(&sub).unwrap();
                client.put(&format!("{sub}file.bin"), payload).unwrap();
                made += 1;
                next.push(sub);
            }
        }
        level_dirs = next;
    }
}

fn build_flat(client: &mut Session, count: usize, payload: &[u8]) {
    for i in 0..count {
        client.put(&format!("/file-{i:05}.bin"), payload).unwrap();
    }
}

/// Mean `(upload, download)` processing seconds of one more 10 kB file
/// at the root of a store holding `count` files in `layout`.
fn point(layout: &str, count: usize, rollback: bool, buckets: u16, runs: usize) -> (f64, f64) {
    let payload = vec![0xabu8; 10_000];
    let rig = Rig::new(EnclaveConfig {
        rollback_individual: rollback,
        rollback_buckets: buckets,
        ..EnclaveConfig::default()
    });
    let mut client = rig.client();
    match layout {
        "tree" => build_tree(&mut client, count, &payload),
        _ => build_flat(&mut client, count, &payload),
    }
    let mut i = 0;
    let up = measure(runs, || {
        i += 1;
        client.put(&format!("/probe-{i}"), &payload).unwrap();
    });
    client.put("/probe", &payload).unwrap();
    let down = measure(runs, || {
        let got = client.get("/probe").unwrap();
        assert_eq!(got.len(), payload.len());
    });
    (up.mean_s, down.mean_s)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (max_x, runs) = if ctx.quick {
        (QUICK_MAX_X, 10)
    } else {
        (FULL_MAX_X, 20)
    };
    let wan = wan();
    out.say("== Fig. 5: individual-file rollback protection overhead ==");
    out.say("paper: download 111.65 ms floor; at 16384 files 115.93 ms (tree) / 121.95 ms (flat)");
    out.say(format_args!(
        "layouts: (1) binary-tree directories, (2) flat under the root; buckets = {BUCKETS}"
    ));
    out.say(format_args!(
        "{:>7} {:>6} | {:>11} {:>11} | {:>11} {:>11} | {:>11} {:>11}",
        "files",
        "layout",
        "up (proc)",
        "up (WAN)",
        "down (proc)",
        "down (WAN)",
        "up-noRB",
        "down-noRB"
    ));
    let ablation_x = ABLATION_X.min(max_x);
    let mut bucketed = (0.0, 0.0);
    let mut points = Vec::new();
    for x in (0..=max_x).step_by(2) {
        let count = (1usize << x) - 1;
        for layout in ["tree", "flat"] {
            let (up_rb, down_rb) = point(layout, count, true, BUCKETS, runs);
            let (up_no, down_no) = point(layout, count, false, BUCKETS, runs);
            out.say(format_args!(
                "{count:>7} {layout:>6} | {:>11} {:>11} | {:>11} {:>11} | {:>11} {:>11}",
                fmt_s(up_rb),
                fmt_s(wan.request_s(10_064, 16, up_rb)),
                fmt_s(down_rb),
                fmt_s(wan.request_s(64, 10_016, down_rb)),
                fmt_s(up_no),
                fmt_s(down_no),
            ));
            if (x, layout) == (ablation_x, "flat") {
                bucketed = (up_rb, down_rb);
            }
            let seconds = [up_rb, down_rb, up_no, down_no].map(|s| Json::num(s, 9));
            points.push(Json::obj([
                ("files", Json::from(count)),
                ("layout", layout.into()),
                ("up_down_on_s", Json::arr(seconds[..2].iter().cloned())),
                ("up_down_off_s", Json::arr(seconds[2..].iter().cloned())),
            ]));
        }
    }
    out.say(format_args!(
        "(WAN floor for a 10 kB request is ~{}; the paper's 111.65 ms)",
        fmt_s(wan.request_s(64, 10_016, 0.0))
    ));

    out.say("== ablation 2: bucket hashes in the rollback tree (§V-D) ==");
    let siblings = (1usize << ablation_x) - 1;
    let single = point("flat", siblings, true, 1, runs);
    for (buckets, (up, down)) in [(BUCKETS, bucketed), (1, single)] {
        out.say(format_args!(
            "  buckets={buckets:>3}: download {} | upload {}  ({siblings} flat siblings)",
            fmt_s(down),
            fmt_s(up)
        ));
    }
    out.say("  -> with one bucket, leaf validation touches every sibling's hash");
    out.say("     record; bucketing caps it at |siblings|/buckets (§V-D's optimization)");
    out.json.push((
        "fig5",
        Json::obj([
            ("buckets", Json::from(u64::from(BUCKETS))),
            ("points", Json::Arr(points)),
            (
                "one_bucket",
                Json::obj([
                    ("files", Json::from(siblings)),
                    (
                        "up_down_on_s",
                        Json::arr([single.0, single.1].map(|s| Json::num(s, 9))),
                    ),
                ]),
            ),
        ]),
    ));
    out
}
