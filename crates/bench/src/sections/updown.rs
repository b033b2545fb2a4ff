//! The gated `upload_*` / `download_*` rows and **Fig. 3**: mean
//! latency of uploads and downloads by file size, for SeGShare and the
//! two plaintext WebDAV baselines.
//!
//! One sweep, sizes ascending, in two table rows so that no gated
//! section runs in a process that has already held gigabytes: `updown`
//! times the 10 kB, 100 kB and 1 MB points on the serial-mix rig — the
//! gated rows — and `fig3_updown`, after every gated section, continues
//! at 10 MB with a rig per size (a 200 MB point holds a gigabyte of
//! stored blobs). The figure's 1 MB point *is* the gated pair.
//!
//! Method (see `DESIGN.md` substitutions): server *processing* is
//! measured for real on this machine (full client-TLS → enclave-TLS →
//! Protected-FS path for SeGShare; memcpy path plus the calibrated
//! Apache/nginx cost profiles for the baselines), then composed with
//! the two-region WAN model. Every column is this machine's raw
//! seconds; nothing is scaled to other hardware.

use seg_baseline::{PlainFileServer, ServerProfile};
use segshare::EnclaveConfig;

use super::{Ctx, Outcome};
use crate::harness::{fmt_s, measure, payload, wan, Measured, Rig};
use crate::json::Json;

/// The gated points: bytes, the upload row, the download row.
const GATED: [(usize, &str, Option<&str>); 3] = [
    (10_000, "upload_10k", None),
    (100_000, "upload_100k", Some("download_100k")),
    (1_000_000, "upload_1m", Some("download_1m")),
];
/// The figure's sizes above the gated 1 MB, in MB: `--quick`, and the
/// paper's.
const QUICK_MB: [u64; 1] = [10];
const FULL_MB: [u64; 4] = [10, 50, 100, 200];

type Session = segshare::Client<seg_net::ChannelTransport>;

/// Uploads `runs` fresh files of `body`.
fn uploads(client: &mut Session, body: &[u8], runs: usize) -> Measured {
    let mut i = 0u32;
    measure(runs, || {
        i += 1;
        let path = format!("/up{}-{i}", body.len());
        client.put(&path, body).expect("upload succeeds");
    })
}

/// Where [`downloads`] finds the file of `body`'s size.
fn down_path(body: &[u8]) -> String {
    format!("/down{}", body.len())
}

/// Downloads the file at [`down_path`] `runs` times.
fn downloads(client: &mut Session, body: &[u8], runs: usize) -> Measured {
    let path = down_path(body);
    measure(runs, || {
        let got = client.get(&path).expect("download succeeds");
        assert_eq!(got.len(), body.len());
    })
}

/// `=` where the two columns agree on every row (within `tol`, or to
/// the printed digit), `<` where the first is lower on every row, `<=`
/// where it depends on the size.
fn relation(rows: &[(f64, f64, f64)]) -> &'static str {
    let same = |&(a, b, tol): &(f64, f64, f64)| (a - b).abs() <= tol || fmt_s(a) == fmt_s(b);
    match (rows.iter().all(same), rows.iter().any(same)) {
        (true, _) => "=",
        (false, true) => "<=",
        (false, false) => "<",
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut client = ctx.main.client();
    let points = GATED.map(|(bytes, up_row, down_row)| (payload(bytes), up_row, down_row));
    // Every upload row, then every download row, the download probes
    // stored before anything is timed: the order these rows have always
    // run in. It matters: with the 1 MB probe stored first the
    // allocator serves the 100 kB rows' buffers from its heap, without
    // it each is mapped and faulted in afresh (+40 % on both 100 kB
    // rows, measured while this section was being written).
    for (body, _, _) in points.iter().filter(|(_, _, down_row)| down_row.is_some()) {
        client.put(&down_path(body), body).expect("prefill");
    }
    for (body, up_row, _) in &points {
        out.row(up_row, uploads(&mut client, body, ctx.runs));
    }
    for (body, _, down_row) in &points {
        if let Some(down_row) = down_row {
            out.row(down_row, downloads(&mut client, body, ctx.runs));
        }
    }
    out
}

/// Fig. 3: the gated 1 MB pair, then a fresh rig per larger size.
pub fn figure(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let wan = wan();
    out.say("== Fig. 3: upload/download latency vs file size ==");
    out.say("paper (200 MB, up/down): SeGShare 2.39/2.17 s, Apache 4.74/2.62 s, nginx 1.84/0.93 s");
    out.say(format_args!(
        "{:>6} {:>5} | {:>10} | {:>10} {:>10} | {:>10}",
        "size", "dir", "segshare", "apache", "nginx", "raw-proc"
    ));
    let gated = |name: &str| ctx.rows.iter().find(|(row, _)| *row == name);
    let one_mb = gated("upload_1m").zip(gated("download_1m"));
    if one_mb.is_none() {
        out.say("   1MB: the gated pair of section `updown`, not part of this run");
    }
    let figure_mb: &[u64] = if ctx.quick { &QUICK_MB } else { &FULL_MB };
    let sizes = one_mb
        .map(|(up, down)| (1, Some((up.1, down.1))))
        .into_iter()
        .chain(figure_mb.iter().map(|&mb| (mb, None)));

    let (apache, nginx) = (ServerProfile::apache_like(), ServerProfile::nginx_like());
    let mut points = Vec::new();
    // Per row: (nginx, SeGShare, tolerance) by direction, (SeGShare, Apache, tolerance).
    let (mut nginx_seg, mut seg_apache) = ([Vec::new(), Vec::new()], Vec::new());
    for (mb, measured) in sizes {
        let bytes = mb * 1_000_000;
        let runs = if mb > 10 { 3 } else { ctx.runs };
        let body = payload(bytes as usize);
        let (up, down) = measured.unwrap_or_else(|| {
            let rig = Rig::new(EnclaveConfig::default());
            let mut client = rig.client();
            let up = uploads(&mut client, &body, runs);
            client.put(&down_path(&body), &body).expect("prefill");
            (up, downloads(&mut client, &body, runs))
        });
        // Plaintext baseline processing (shared by both profiles).
        let plain = PlainFileServer::new();
        let plain_up = measure(runs, || plain.put("/bench", &body).expect("put succeeds"));
        let plain_down = measure(runs, || {
            let got = plain.get("/bench").expect("get succeeds").expect("exists");
            assert_eq!(got.len(), body.len());
        });
        // At small sizes everyone is wire-bound and the curves coincide
        // (as in the figure's left edge), so allow a small tolerance
        // there and require the order strictly at 50 MB+.
        let tol = if mb >= 50 { 0.0 } else { 0.002 };
        for (dir, seg_proc, plain_proc) in [(0, up, plain_up), (1, down, plain_down)] {
            // (bytes sent, bytes received), with and without the 64
            // bytes of request or response around the body.
            let ((sent, received), (body_up, body_down)) = match dir {
                0 => ((bytes, 64), (bytes, 0)),
                _ => ((64, bytes), (0, bytes)),
            };
            let baseline = |profile: &ServerProfile| {
                plain_proc.mean_s + profile.request_cost_s(body_up, body_down)
            };
            // Compose. SeGShare and nginx stream (processing overlaps the
            // wire); Apache's DAV path effectively stores-and-forwards,
            // which is what reproduces its measured 200 MB numbers.
            let seg = wan.request_s(sent, received, seg_proc.mean_s);
            let apache = wan.request_store_forward_s(sent, received, baseline(&apache));
            let nginx = wan.request_s(sent, received, baseline(&nginx));
            out.say(format_args!(
                "{mb:>4}MB {:>5} | {:>10} | {:>10} {:>10} | {:>10}",
                ["up", "down"][dir],
                fmt_s(seg),
                fmt_s(apache),
                fmt_s(nginx),
                fmt_s(seg_proc.mean_s),
            ));
            nginx_seg[dir].push((nginx, seg, tol));
            if dir == 0 {
                seg_apache.push((seg, apache, tol));
            }
        }
        points.push(Json::obj([
            ("mb", Json::from(mb)),
            ("up_proc_s", Json::num(up.mean_s, 9)),
            ("down_proc_s", Json::num(down.mean_s, 9)),
        ]));
    }

    // The paper's ordering claims, checked on the rows above.
    let ordered = |rows: &[(f64, f64, f64)]| rows.iter().all(|&(a, b, tol)| a <= b + tol);
    for (holds, what) in [
        (ordered(&nginx_seg[0]), "upload: nginx <= SeGShare"),
        (ordered(&seg_apache), "upload: SeGShare <= Apache"),
        (ordered(&nginx_seg[1]), "download: nginx <= SeGShare"),
    ] {
        if !holds {
            out.failures
                .push(format!("fig3: the paper's order does not hold ({what})"));
        }
    }
    let (up, down) = (relation(&nginx_seg[0]), relation(&nginx_seg[1]));
    out.say(format_args!(
        "shape check, as measured: uploads nginx {up} SeGShare {} Apache; downloads nginx {down} \
         SeGShare (checked: nginx <= SeGShare <= Apache, 2 ms of slack below 50 MB; the paper has \
         nginx < SeGShare < Apache)",
        relation(&seg_apache),
    ));
    let relations = Json::arr([up, down]);
    out.json.push((
        "fig3",
        Json::obj([
            ("points", Json::Arr(points)),
            ("nginx_vs_segshare", relations),
        ]),
    ));
    out
}
