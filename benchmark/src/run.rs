//! The closed-loop executor and the untraced run: set-up, a measured
//! window cut into six slices, and the correctness checks. End-to-end
//! numbers come only from here, with no decorator installed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seg_net::{FrameTransport, TcpTransport};
use seg_proto::ErrorCode;
use seg_store::{ObjectStore, WalConfig, WalStore};
use segshare::Client;

use crate::gen::{self, Kind, Op, Spec};
use crate::proc;
use crate::rig::{self, ctx, Launched, Res, TempDir};
use crate::stats;
use crate::trace::Tracer;

/// The measured window is cut into this many slices...
pub const SLICES: usize = 12;
/// ...and the metrics are taken over the third of them that completed
/// most ops. On a shared host a neighbour only ever slows a slice down,
/// so the fastest slices are the ones that measured the program; taking
/// every metric over the same slices keeps them consistent with each
/// other (README, Steadiness).
pub const QUIET: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Put,
    Get,
    Admin,
    /// A revoked member's get that was refused, as it must be.
    Denied,
}

/// One completed client call.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    /// Completion time since the window (or pass) started.
    pub end_ns: u64,
    pub lat_ns: u64,
    /// User body bytes moved.
    pub bytes: u64,
    pub ok: bool,
}

/// What a run shares between lanes.
pub struct Shared {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Test-only: flip one byte of the next expected get body.
    pub flip: AtomicBool,
}

/// The generator's memory of one lane: the last acknowledged version of
/// every file, and whether the toggled user is currently in the group.
pub struct LaneState {
    pub lane: usize,
    pub versions: Vec<u64>,
    pub member_in: bool,
    roles: rig::Roles,
}

impl LaneState {
    /// State right after the preload: every file at version 1.
    pub fn preloaded(spec: &Spec, lane: usize) -> LaneState {
        LaneState {
            lane,
            versions: vec![1; spec.files()],
            member_in: true,
            roles: rig::roles(spec, lane),
        }
    }
}

/// A lane's connections. Without a member connection the owner reads
/// its own files.
pub struct Conns<T: FrameTransport> {
    pub owner: Client<T>,
    pub member: Option<Client<T>>,
}

/// Issues one op, checks its result, and advances the lane state.
pub fn exec<T: FrameTransport>(
    sh: &Shared,
    st: &mut LaneState,
    conns: &mut Conns<T>,
    op: Op,
    tracer: Option<&Arc<Tracer>>,
    epoch: Instant,
) -> Sample {
    let spec = sh.spec;
    let root = |name| tracer.map(|t| t.op(name));
    let (class, bytes, ok, start);
    let mut why = String::new();
    match op {
        Op::Put(f) => {
            let path = spec.file_path(st.lane, f);
            let version = st.versions[f] + 1;
            let body = gen::body(sh.seed, &path, version, spec.body_len);
            start = Instant::now();
            let span = root("op.put");
            let r = conns.owner.put(&path, &body);
            drop(span);
            ok = r.is_ok();
            if let Err(e) = &r {
                why = e.to_string();
            } else {
                st.versions[f] = version;
            }
            (class, bytes) = (Class::Put, body.len() as u64);
        }
        Op::Get(f) | Op::GetDenied(f) => {
            let path = spec.file_path(st.lane, f);
            let reader = conns.member.as_mut().unwrap_or(&mut conns.owner);
            start = Instant::now();
            let span = root(if matches!(op, Op::Get(_)) {
                "op.get"
            } else {
                "op.get_denied"
            });
            let r = reader.get(&path);
            drop(span);
            if matches!(op, Op::Get(_)) {
                let mut want = gen::body(sh.seed, &path, st.versions[f], spec.body_len);
                if sh.flip.swap(false, Ordering::SeqCst) {
                    want[spec.body_len / 2] ^= 1;
                }
                ok = matches!(&r, Ok(got) if *got == want);
                (class, bytes) = (Class::Get, want.len() as u64);
            } else {
                ok = matches!(&r, Err(e) if e.code() == Some(ErrorCode::Denied));
                (class, bytes) = (Class::Denied, 0);
            }
            if !ok {
                why = match &r {
                    Ok(got) if class == Class::Denied => {
                        format!("a revoked member read {} bytes", got.len())
                    }
                    Ok(got) => format!(
                        "body mismatch: got {} bytes claiming version {:?}, expected version {}",
                        got.len(),
                        gen::body_version(sh.seed, &path, got),
                        st.versions[f]
                    ),
                    Err(e) => e.to_string(),
                };
            }
        }
        Op::Remove | Op::Add => {
            let (user, group) = (&st.roles.toggled, &st.roles.group);
            start = Instant::now();
            let r = if op == Op::Remove {
                let _span = root("op.remove_user");
                conns.owner.remove_user(user, group)
            } else {
                let _span = root("op.add_user");
                conns.owner.add_user(user, group)
            };
            ok = r.is_ok();
            if let Err(e) = &r {
                why = e.to_string();
            } else {
                st.member_in = op == Op::Add;
            }
            (class, bytes) = (Class::Admin, 0);
        }
    }
    let end = Instant::now();
    if !ok {
        report_failure(st.lane, op, &why);
    }
    Sample {
        class,
        end_ns: (end - epoch).as_nanos() as u64,
        lat_ns: (end - start).as_nanos() as u64,
        bytes,
        ok,
    }
}

/// Names the first few failed ops on stderr; the counts are in the result.
fn report_failure(lane: usize, op: Op, why: &str) {
    static SHOWN: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 8 {
        eprintln!("segbench: lane {lane} {op:?} failed: {why}");
    }
}

/// Runs `lane`'s ops `from..` until `stop` (given the ops done) says so;
/// returns the samples, timed from `epoch`, and the next op index. Ends with the toggled user back in the group
/// (an untimed `add_user`), so every pass starts from the same state.
pub fn drive<T: FrameTransport>(
    sh: &Shared,
    st: &mut LaneState,
    conns: &mut Conns<T>,
    from: u64,
    tracer: Option<&Arc<Tracer>>,
    epoch: Instant,
    mut stop: impl FnMut(u64) -> bool,
) -> (Vec<Sample>, u64) {
    let mut samples = Vec::new();
    let mut n = from;
    while !stop(n - from) {
        samples.push(exec(
            sh,
            st,
            conns,
            sh.spec.op_at(sh.seed, st.lane, n),
            tracer,
            epoch,
        ));
        n += 1;
    }
    if !st.member_in {
        let mut s = exec(sh, st, conns, Op::Add, None, epoch);
        s.end_ns = u64::MAX; // outside every slice: settles state, not measured
        samples.push(s);
    }
    (samples, n)
}

/// Connects `lane`'s users over plain TCP.
pub fn connect_lane(l: &Launched, spec: &Spec, lane: usize) -> Res<Conns<TcpTransport>> {
    let r = rig::roles(spec, lane);
    let owner = l.connect(&l.enroll(&r.owner)?)?;
    let member = match &r.member {
        Some(m) => Some(l.connect(&l.enroll(m)?)?),
        None => None,
    };
    Ok(Conns { owner, member })
}

/// Everything before the measured window, timed as `setup_s`.
pub struct Ready {
    pub launched: Launched,
    pub wal_dir: Option<TempDir>,
    pub lanes: Vec<(LaneState, Conns<TcpTransport>)>,
    pub stored_bytes: u64,
    pub setup_s: f64,
    /// Next op index per lane (after the warm pass).
    pub next_op: u64,
}

/// Launch, attest, enroll, connect, preload, measure stored bytes, one
/// untimed warm pass. `lanes_to_run` limits the warm pass and the kept
/// connections (the traced run replays on lane 0 only).
pub fn set_up(sh: &Shared, tracer: Option<&Arc<Tracer>>, lanes_to_run: usize) -> Res<Ready> {
    let spec = sh.spec;
    let started = Instant::now();
    let wal_dir = match spec.kind {
        Kind::Durable16k => Some(TempDir::new("wal")?),
        _ => None,
    };
    let dir = wal_dir.as_ref().map(TempDir::path);
    let mut launched = rig::launch(spec, sh.seed, dir, tracer)?;
    for lane in 0..spec.lanes {
        let mut conns = connect_lane(&launched, spec, lane)?;
        rig::preload(spec, sh.seed, lane, &mut conns.owner)?;
    }
    let stored_bytes = match &launched.stores {
        Some(stores) => stores.total_bytes()?,
        None => {
            // The persistent deployment keeps its store private: close it,
            // read the sizes from the directory alone, and reopen it the way
            // a restarted server would.
            let dir = dir.expect("durable workload has a WAL dir");
            drop(launched);
            let bytes = {
                let wal = ctx("reopen WAL", WalStore::open_with(dir, WalConfig::default()))?;
                ctx("total_bytes", wal.total_bytes())?
            };
            launched = rig::launch(spec, sh.seed, Some(dir), None)?;
            bytes
        }
    };
    let mut lanes = Vec::new();
    for lane in 0..lanes_to_run {
        lanes.push((
            LaneState::preloaded(spec, lane),
            connect_lane(&launched, spec, lane)?,
        ));
    }
    let mut next_op = 0;
    for (st, conns) in &mut lanes {
        let (warm, n) = drive(sh, st, conns, 0, None, Instant::now(), |done| {
            done >= spec.warm_ops
        });
        if let Some(bad) = warm.iter().position(|s| !s.ok) {
            return Err(format!("warm pass: op {bad} of lane {} failed", st.lane));
        }
        next_op = n;
    }
    Ok(Ready {
        launched,
        wal_dir,
        lanes,
        stored_bytes,
        setup_s: started.elapsed().as_secs_f64(),
        next_op,
    })
}

/// One untraced run's results.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra human-readable lines (sample counts, p99s, statements).
    pub notes: Vec<String>,
    pub noisy: bool,
}

/// The end-to-end metrics taken over the quiet slices, in table order.
pub const SLICED: [&str; 6] = [
    "ops_per_s",
    "put_p50_ms",
    "get_p50_ms",
    "admin_p50_ms",
    "payload_mb_per_s",
    "cpu_ms_per_op",
];

/// The measured window cut into [`SLICES`] equal slices, and the metrics
/// of [`SLICED`] over the [`QUIET`] slices that completed most ops.
pub struct Sliced {
    /// Ops completed in each slice (a closed loop: fewer ops = slower ops).
    pub ops: Vec<usize>,
    /// Process CPU per op in each slice; `None` where no op completed.
    pub cpu_ms_per_op: Vec<Option<f64>>,
    /// Indices of the quiet slices, fastest first.
    pub quiet: Vec<usize>,
    /// One value per [`SLICED`] name, over the quiet slices pooled; `None`
    /// where they hold no sample of the metric.
    pub values: Vec<Option<f64>>,
}

/// Indices of the `keep` largest counts, largest first; ties keep the
/// earlier slice.
pub fn quiet_slices(ops: &[usize], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ops[i]));
    order.truncate(keep);
    order
}

/// Cuts the window's samples into equal slices by completion time, keeps
/// the `keep` slices with most completed ops, and takes every metric of
/// [`SLICED`] over those slices pooled: all of them describe the same
/// stretch of time. `cpu_ms[i]` is the process CPU clock at slice boundary
/// `i` (one more entry than slices).
pub fn slice(samples: &[Sample], window_ns: u64, cpu_ms: &[f64], keep: usize) -> Sliced {
    let n = cpu_ms.len() - 1;
    let width = window_ns / n as u64;
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); n];
    for s in samples {
        if let Some(slice) = slices.get_mut((s.end_ns / width) as usize) {
            slice.push(s);
        }
    }
    let ops: Vec<usize> = slices.iter().map(Vec::len).collect();
    let cpu = |i: usize| cpu_ms[i + 1] - cpu_ms[i];
    let cpu_ms_per_op = (0..n)
        .map(|i| (ops[i] > 0).then(|| cpu(i) / ops[i] as f64))
        .collect();
    let quiet = quiet_slices(&ops, keep);

    let pooled = || quiet.iter().flat_map(|&i| slices[i].iter().copied());
    let secs = (quiet.len() as u64 * width) as f64 / 1e9;
    let done = pooled().count() as f64;
    let bytes: u64 = pooled().filter(|s| s.ok).map(|s| s.bytes).sum();
    let busy: f64 = quiet.iter().map(|&i| cpu(i)).sum();
    let p50 = |class| pooled_ms(pooled(), class, 50.0).0;
    let values = vec![
        (done > 0.0).then_some(done / secs),
        p50(Class::Put),
        p50(Class::Get),
        p50(Class::Admin),
        (bytes > 0).then_some(bytes as f64 / 1e6 / secs),
        (done > 0.0).then_some(busy / done),
    ];
    Sliced {
        ops,
        cpu_ms_per_op,
        quiet,
        values,
    }
}

/// Nearest-rank percentile (ms) of one class's successful, in-window
/// ops, with the sample count behind it.
pub fn pooled_ms<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    class: Class,
    p: f64,
) -> (Option<f64>, usize) {
    let mut ms: Vec<f64> = samples
        .filter(|s| s.class == class && s.ok && s.end_ns != u64::MAX)
        .map(|s| s.lat_ns as f64 / 1e6)
        .collect();
    (stats::percentile_of(&mut ms, p), ms.len())
}

/// The untraced run of one workload.
pub fn run_untraced(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    setups: usize,
    flip: bool,
) -> Res<Outcome> {
    let sh = Arc::new(Shared {
        spec,
        seed,
        flip: AtomicBool::new(false),
    });
    let calib_before = proc::calibrate_ms();

    // Set-up runs `setups` times; the last one serves the window.
    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..setups {
        drop(ready.take());
        let r = set_up(&sh, None, spec.lanes)?;
        setup_times.push(r.setup_s);
        ready = Some(r);
    }
    let Ready {
        launched,
        wal_dir,
        lanes,
        stored_bytes,
        next_op,
        ..
    } = ready.expect("at least one set-up");
    sh.flip.store(flip, Ordering::SeqCst);

    let window = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for (mut st, mut conns) in lanes {
        let sh = Arc::clone(&sh);
        handles.push(std::thread::spawn(move || {
            let (samples, _) = drive(&sh, &mut st, &mut conns, next_op, None, t0, |_| {
                t0.elapsed() >= window
            });
            (st, conns, samples)
        }));
    }
    // The main thread only reads the CPU clock at slice boundaries.
    let steal_before = proc::steal_ms();
    let mut cpu_ms = vec![proc::cpu_ms()];
    for i in 1..=SLICES as u32 {
        let due = window * i / SLICES as u32;
        std::thread::sleep(due.saturating_sub(t0.elapsed()));
        cpu_ms.push(proc::cpu_ms());
    }
    let mut samples = Vec::new();
    let mut lanes = Vec::new();
    for h in handles {
        let (st, conns, s) = h.join().map_err(|_| "generator thread panicked")?;
        samples.extend(s);
        lanes.push((st, conns));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_total = proc::cpu_ms() - cpu_ms[0];
    let stolen = proc::steal_ms() - steal_before;
    let mut attempted = samples.len() as u64;
    let mut failed = samples.iter().filter(|s| !s.ok).count() as u64;

    // durable_16k: drop the server, reopen the directory with the same
    // seed, and read back every path's last acknowledged body.
    let mut notes = Vec::new();
    if let Some(dir) = &wal_dir {
        let states: Vec<LaneState> = lanes.into_iter().map(|(st, _)| st).collect();
        drop(launched);
        let reopen = Instant::now();
        let l = rig::launch(spec, seed, Some(dir.path()), None)?;
        let recover_ms = reopen.elapsed().as_secs_f64() * 1e3;
        let mut missing = 0u64;
        for st in &states {
            let mut c = connect_lane(&l, spec, st.lane)?;
            for (f, version) in st.versions.iter().enumerate() {
                let path = spec.file_path(st.lane, f);
                let want = gen::body(seed, &path, *version, spec.body_len);
                attempted += 1;
                if !matches!(c.owner.get(&path), Ok(got) if got == want) {
                    missing += 1;
                }
            }
        }
        failed += missing;
        notes.push(format!(
            "reopen check: {} acknowledged bodies re-read after dropping the server, {missing} missing or wrong; relaunch took {recover_ms:.1} ms",
            states.len() * spec.files()
        ));
        notes.push(
            "flush policy: WalConfig::default() - real fdatasync per commit frame, group commit on, 8 MiB checkpoints; EnclaveConfig.batch on"
                .to_string(),
        );
    } else {
        drop(lanes);
        drop(launched);
    }
    drop(wal_dir);

    let calib_after = proc::calibrate_ms();
    let drift = (calib_after / calib_before - 1.0).abs();
    let noisy = drift > 0.10;

    let sl = slice(&samples, window.as_nanos() as u64, &cpu_ms, QUIET);
    let need = |name: &str, v: Option<f64>| v.ok_or(format!("{name}: no samples in the window"));
    let mut e2e = vec![("setup_s", need("setup_s", stats::median(&setup_times))?)];
    for (name, value) in SLICED.iter().zip(&sl.values) {
        e2e.push((*name, need(name, *value)?));
    }
    e2e.push((
        "stored_bytes_per_user_byte",
        stored_bytes as f64 / spec.user_bytes() as f64,
    ));

    // Every slice's throughput and CPU per op: on a shared machine they
    // show how much of the window a neighbour was busy in.
    let slice_s = window.as_secs_f64() / SLICES as f64;
    let mut quiet = sl.quiet.clone();
    quiet.sort_unstable();
    notes.push(format!(
        "metrics are taken over slices {quiet:?} of 0..{SLICES}: the {QUIET} that completed most ops"
    ));
    notes.push(format!(
        "per slice ops_per_s: {}",
        sl.ops
            .iter()
            .map(|n| format!("{:.1}", *n as f64 / slice_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "per slice cpu_ms_per_op: {}",
        sl.cpu_ms_per_op
            .iter()
            .map(|x| x.map_or("-".to_string(), |x| format!("{x:.4}")))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for class in [Class::Put, Class::Get, Class::Admin, Class::Denied] {
        let (p99, n) = pooled_ms(samples.iter(), class, 99.0);
        if let Some(p99) = p99 {
            notes.push(format!(
                "{class:?}: {n} samples in the window, pooled p99 {p99:.3} ms (reported, not gated)"
            ));
        }
    }
    notes.push(format!(
        "window {wall_s:.2} s in {SLICES} slices; process CPU {:.0} ms = {:.2} cores busy; the hypervisor stole {stolen:.0} ms from this guest; set-up times {:?} s",
        cpu_total,
        cpu_total / 1e3 / wall_s,
        setup_times.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    notes.push(format!(
        "calibration spin {calib_before:.1} ms before, {calib_after:.1} ms after: drift {:.1} %{}",
        drift * 100.0,
        if noisy { " - NOISY" } else { "" }
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics: e2e,
        notes,
        noisy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: Class, end_ms: u64, lat_ms: u64, ok: bool) -> Sample {
        Sample {
            class,
            end_ns: end_ms * 1_000_000,
            lat_ns: lat_ms * 1_000_000,
            bytes: 1_000_000,
            ok,
        }
    }

    /// `fail_share` counts a deliberately wrong expected body: against a
    /// live server, one flipped byte fails exactly one get and nothing else.
    #[test]
    fn a_flipped_expected_body_is_one_failed_get() {
        static TINY: Spec = Spec {
            kind: Kind::SmallHot,
            name: "tiny",
            why: "",
            lanes: 1,
            dirs: 1,
            files_per_dir: 4,
            body_len: 4096,
            admin_every: 4,
            trace_ops: 10,
            warm_ops: 10,
            setups: 1,
            gated: false,
        };
        let sh = Shared {
            spec: &TINY,
            seed: 3,
            flip: AtomicBool::new(false),
        };
        let mut ready = set_up(&sh, None, 1).unwrap();
        assert!(ready.stored_bytes > TINY.user_bytes());
        let next = ready.next_op;
        let (st, conns) = &mut ready.lanes[0];
        sh.flip.store(true, Ordering::SeqCst);
        let (samples, _) = drive(&sh, st, conns, next, None, Instant::now(), |done| {
            done >= 40
        });
        let failed: Vec<&Sample> = samples.iter().filter(|s| !s.ok).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].class, Class::Get);
        assert!(samples.iter().any(|s| s.class == Class::Admin && s.ok));
    }

    #[test]
    fn metrics_come_from_the_slices_that_completed_most_ops() {
        // Three 1 s slices: a quiet one, one a neighbour slowed down, and
        // one more quiet one whose last op ends after the window.
        let samples = [
            sample(Class::Put, 100, 10, true),
            sample(Class::Get, 400, 2, true),
            sample(Class::Get, 900, 4, true),
            sample(Class::Get, 950, 400, false),
            sample(Class::Admin, 1500, 900, true),
            sample(Class::Put, 2100, 12, true),
            sample(Class::Get, 2500, 6, true),
            sample(Class::Admin, 2900, 1, true),
            sample(Class::Put, 3500, 1, true),
        ];
        let sl = slice(&samples, 3_000_000_000, &[0.0, 40.0, 50.0, 80.0], 2);
        assert_eq!(sl.ops, [4, 1, 3]);
        assert_eq!(sl.cpu_ms_per_op, [Some(10.0), Some(10.0), Some(10.0)]);
        assert_eq!(sl.quiet, [0, 2]);
        let expected = [
            ("ops_per_s", Some(3.5)),
            ("put_p50_ms", Some(10.0)),
            // Failed ops count as ops, but their latency and bytes do not.
            ("get_p50_ms", Some(4.0)),
            ("admin_p50_ms", Some(1.0)),
            ("payload_mb_per_s", Some(3.0)),
            ("cpu_ms_per_op", Some(10.0)),
        ];
        for ((name, want), (got_name, got)) in expected.iter().zip(SLICED.iter().zip(&sl.values)) {
            assert_eq!(name, got_name);
            assert_eq!(want, got, "{name}");
        }
        // A metric with no sample in the quiet slices is absent, never 0.
        let one = slice(&samples, 3_000_000_000, &[0.0, 40.0, 50.0, 80.0], 1);
        assert_eq!(one.quiet, [0]);
        assert_eq!(one.values[3], None);
    }

    #[test]
    fn quiet_slices_are_the_fastest_and_ties_keep_the_earlier() {
        assert_eq!(quiet_slices(&[5, 9, 9, 2, 7], 3), [1, 2, 4]);
        assert_eq!(quiet_slices(&[3, 3], 4), [0, 1]);
    }
}
