//! The gated `membership_update` / `revocation` rows and **Fig. 4**
//! (with the second/third/fourth §VII-B experiments).
//!
//! Two different operations, both kept, in two table rows. `membership`
//! repeats one call on the serial-mix rig — `add_user("bob", "gm")` for
//! a membership that already exists, `remove_user` for one that (after
//! the first run) no longer does: each rewrites the member list through
//! the full Protected-FS + rollback-tree path, which is what the
//! trajectory has tracked since PR 3. `fig4`, after every gated section
//! (one of its rigs stores a 20 MB file), adds and revokes the *n+1st*
//! membership (or permission entry) on a rig with `n` already there, and
//! its independence sweep repeats the first-group add under each of
//! §VII-B's nuisance parameters.
//!
//! The paper's numbers are WAN-dominated (~150 ms flat, logarithmic
//! dependence "negligible in the total latency"); the rendering prints
//! the real enclave processing time *and* the WAN-composed latency.

use seg_fs::Perm;
use segshare::EnclaveConfig;

use super::{Ctx, Outcome};
use crate::harness::{fmt_s, measure, wan, Measured, Rig};
use crate::json::Json;

/// Pre-existing entries per point: `--quick`, and the paper's.
const QUICK_COUNTS: [usize; 3] = [1, 10, 100];
const FULL_COUNTS: [usize; 4] = [1, 10, 100, 1000];

type Admin = segshare::Client<seg_net::ChannelTransport>;
/// Brings a fresh system into the state an independence point measures in.
type Prepare = fn(&mut Admin);

/// Adds then revokes `runs` fresh entries, timing each call.
fn add_then_revoke(
    admin: &mut Admin,
    runs: usize,
    add: impl Fn(&mut Admin, usize),
    revoke: impl Fn(&mut Admin, usize),
) -> (Measured, Measured) {
    let mut i = 0usize;
    let added = measure(runs, || {
        i += 1;
        add(admin, i);
    });
    let mut j = 0usize;
    let revoked = measure(runs, || {
        j += 1;
        revoke(admin, j);
    });
    (added, revoked)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // The group is seeded with a file permission so revocation
    // exercises a real sharing state.
    let mut admin = ctx.main.client();
    admin.put("/shared-with-gm", b"seed").expect("seed file");
    admin.add_user("bob", "gm").expect("seed group");
    admin
        .set_perm("/shared-with-gm", "gm", Perm::Read)
        .expect("seed perm");
    let update = measure(ctx.runs, || admin.add_user("bob", "gm").expect("add_user"));
    out.row("membership_update", update);
    let revocation = measure(ctx.runs, || {
        admin.remove_user("bob", "gm").expect("remove_user");
    });
    out.row("revocation", revocation);
    out
}

/// Fig. 4 and the independence sweep.
pub fn figure(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let wan = wan();
    let over_wan = |proc_s: f64| wan.request_s(96, 16, proc_s);
    out.say("== Fig. 4: membership/permission add & revoke latency ==");
    out.say("paper: additions 150.29-150.92 ms, revocations 150.11-151.13 ms,");
    out.say("       permissions <= 170 ms -- flat in the pre-existing count at WAN scale");
    out.say(format_args!(
        "{:>22} | {:>12} {:>12} | {:>12} {:>12}",
        "pre-existing", "add (proc)", "add (WAN)", "rm (proc)", "rm (WAN)"
    ));
    let counts: &[usize] = if ctx.quick {
        &QUICK_COUNTS
    } else {
        &FULL_COUNTS
    };
    let runs = if ctx.quick { 20 } else { 50 };
    let mut points = Vec::new();
    for kind in ["mbr", "perm"] {
        for &n in counts {
            let rig = Rig::new(EnclaveConfig::paper_prototype());
            let mut admin = rig.client();
            let (add, revoke) = if kind == "mbr" {
                // The member-list file of the subject: bob is already a
                // member of n groups (alice owns them all).
                for g in 0..n {
                    admin.add_user("bob", &format!("warmup-{g:04}")).unwrap();
                }
                add_then_revoke(
                    &mut admin,
                    runs,
                    |a, i| a.add_user("bob", &format!("extra-{i:05}")).unwrap(),
                    |a, j| a.remove_user("bob", &format!("extra-{j:05}")).unwrap(),
                )
            } else {
                // The ACL file of the target.
                admin.put("/file", b"permission benchmark target").unwrap();
                for g in 0..n {
                    let group = format!("pre-{g:04}");
                    admin.set_perm("/file", &group, Perm::Read).unwrap();
                }
                add_then_revoke(
                    &mut admin,
                    runs,
                    |a, i| {
                        let group = format!("new-{i:05}");
                        a.set_perm("/file", &group, Perm::Read).unwrap();
                    },
                    |a, j| a.remove_perm("/file", &format!("new-{j:05}")).unwrap(),
                )
            };
            out.say(format_args!(
                "{n:>17} {kind:>4} | {:>12} {:>12} | {:>12} {:>12}",
                fmt_s(add.mean_s),
                fmt_s(over_wan(add.mean_s)),
                fmt_s(revoke.mean_s),
                fmt_s(over_wan(revoke.mean_s)),
            ));
            points.push(Json::obj([
                ("kind", Json::from(kind)),
                ("pre_existing", n.into()),
                ("add_proc_s", Json::num(add.mean_s, 9)),
                ("revoke_proc_s", Json::num(revoke.mean_s, 9)),
            ]));
        }
    }

    // §VII-B's independence claims: membership latency does not depend
    // on |r_P|, |FS|, file sizes, or group sizes.
    out.say("== independence of membership latency (§VII-B, experiment 2) ==");
    let prepare: [(&str, Prepare); 4] = [
        ("empty system", |_| {}),
        ("200 stored files", |a| {
            for f in 0..200 {
                a.put(&format!("/f{f:04}"), b"x").unwrap();
            }
        }),
        ("20 MB file stored", |a| {
            a.put("/big", &vec![7u8; 20_000_000]).unwrap();
        }),
        // The member list under test holds only bob's own memberships.
        ("group with 200 members", |a| {
            for u in 0..200 {
                a.add_user(&format!("user{u:04}"), "bigteam").unwrap();
            }
        }),
    ];
    let mut independence = Vec::new();
    let mut empty_s = 0.0;
    for (label, prepare) in prepare {
        let rig = Rig::new(EnclaveConfig::paper_prototype());
        let mut admin = rig.client();
        prepare(&mut admin);
        let mut i = 0;
        let mean_s = measure(runs, || {
            i += 1;
            admin.add_user("bob", &format!("g{i:05}")).unwrap();
        })
        .mean_s;
        if independence.is_empty() {
            empty_s = mean_s;
        }
        out.say(format_args!(
            "{label:>24}: proc {:>10}  WAN {:>10}  ({:+.0}% vs empty)",
            fmt_s(mean_s),
            fmt_s(over_wan(mean_s)),
            (mean_s / empty_s - 1.0) * 100.0
        ));
        independence.push(Json::obj([
            ("system", Json::from(label)),
            ("add_proc_s", Json::num(mean_s, 9)),
        ]));
    }
    out.say(format_args!(
        "(WAN floor of an admin request: {}; what varies above is processing)",
        fmt_s(over_wan(0.0))
    ));
    out.json.push((
        "fig4",
        Json::obj([
            ("points", Json::Arr(points)),
            ("independence", Json::Arr(independence)),
        ]),
    ));
    out
}
