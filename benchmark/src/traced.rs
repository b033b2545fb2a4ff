//! The traced run: a fixed op count replayed in four passes over one
//! set-up. Pass 0 is the untraced TCP reference (decorators installed but
//! switched off), pass 1 the traced TCP replay, pass 2 the same client
//! inline on the generator thread, pass 3 direct probes. Per-layer
//! numbers come only from here.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use seg_fs::SegPath;
use seg_net::{FrameTransport, TcpTransport};
use seg_store::{WalConfig, WalStore};
use segshare::enclave::names::ObjectId;
use segshare::Client;

use crate::gen::{self, Spec};
use crate::probe;
use crate::proc;
use crate::rig::{self, ctx, Launched, Res};
use crate::run::{self, Class, Conns, LaneState, Outcome, Sample, Shared};
use crate::stats;
use crate::trace::{self, InlineTransport, Span, TracedTransport, Tracer, WireCounts};

fn p50_ms(samples: &[Sample], class: Class) -> Option<f64> {
    run::pooled_ms(samples.iter(), class, 50.0).0
}

fn class_of(root_name: &str) -> Option<Class> {
    match root_name {
        "op.put" => Some(Class::Put),
        "op.get" => Some(Class::Get),
        "op.remove_user" | "op.add_user" => Some(Class::Admin),
        "op.get_denied" => Some(Class::Denied),
        _ => None,
    }
}

/// Connects lane 0's users over `make()` transports.
fn connect_with<T: FrameTransport>(
    l: &Launched,
    spec: &Spec,
    mut make: impl FnMut() -> Res<T>,
) -> Res<Conns<T>> {
    let r = rig::roles(spec, 0);
    let owner = ctx("handshake", Client::connect(make()?, &l.enroll(&r.owner)?))?;
    let member = match &r.member {
        Some(m) => Some(ctx("handshake", Client::connect(make()?, &l.enroll(m)?))?),
        None => None,
    };
    Ok(Conns { owner, member })
}

/// Sums over the spans of one pass.
#[derive(Default)]
struct StoreTotals {
    busy_us: f64,
    gets: f64,
    puts: f64,
    bytes_read: f64,
    bytes_written: f64,
}

fn store_totals<'a>(spans: impl Iterator<Item = &'a Span>) -> StoreTotals {
    let mut t = StoreTotals::default();
    for s in spans.filter(|s| s.name.starts_with("store.")) {
        t.busy_us += s.dur_ns() as f64 / 1e3;
        match s.name {
            "store.get" => {
                t.gets += 1.0;
                t.bytes_read += s.bytes as f64;
            }
            "store.put" => {
                t.puts += 1.0;
                t.bytes_written += s.bytes as f64;
            }
            _ => {}
        }
    }
    t
}

/// User bytes the pass put and got.
fn user_bytes(samples: &[Sample]) -> (f64, f64) {
    let sum = |class| {
        samples
            .iter()
            .filter(|s| s.class == class && s.ok)
            .map(|s| s.bytes as f64)
            .sum::<f64>()
    };
    (sum(Class::Put), sum(Class::Get))
}

/// `tree.*`: `TrustedStore::write` / `read` on scratch files in the
/// workload's first directory, at its body size and depth.
struct Tree {
    write_us: f64,
    read_hot_us: f64,
    read_cold_us: f64,
    puts_per_write: f64,
    gets_per_write: f64,
    gets_per_cold_read: f64,
    spans: Vec<Span>,
}

fn probe_tree(
    sh: &Shared,
    l: &Launched,
    owner: &mut Client<TcpTransport>,
    tracer: &Arc<Tracer>,
    pfs: &probe::Pfs,
) -> Res<Tree> {
    let spec = sh.spec;
    let first = spec.file_path(0, 0);
    let dir = &first[..first.rfind('/').expect("absolute path")];
    let rounds = if spec.body_len >= 1 << 20 { 12 } else { 48 };
    let store = Arc::clone(l.server.enclave().store());
    let mut ids = Vec::new();
    for i in 0..4 {
        // Registered through the client so the parent directory lists them.
        let path = format!("{dir}/probe{i}");
        ctx(
            "scratch put",
            owner.put(&path, &gen::body(sh.seed, &path, 1, spec.body_len)),
        )?;
        ids.push((
            ObjectId::FileData(ctx("scratch path", SegPath::parse(&path))?),
            path,
        ));
    }
    tracer.set_on(true);
    for round in 0..rounds {
        let (id, path) = &ids[round % ids.len()];
        let body = gen::body(sh.seed, path, 2 + round as u64, spec.body_len);
        {
            let _g = tracer.op("probe.tree_write");
            ctx("TrustedStore::write", store.write(id, &body))?;
        }
        for name in ["probe.tree_read_cold", "probe.tree_read_hot"] {
            let _g = tracer.op(name);
            if ctx("TrustedStore::read", store.read(id))?.as_deref() != Some(&body[..]) {
                return Err("tree probe: read back a different body".to_string());
            }
        }
    }
    tracer.set_on(false);
    let spans = tracer.drain();
    let selfs = trace::self_times(&spans);
    let med_self = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id] as f64 / 1e3)
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let per_root = |root: &str, child: &str| {
        let roots: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.id)
            .collect();
        let n = spans
            .iter()
            .filter(|s| s.name == child && roots.contains(&s.parent))
            .count();
        n as f64 / roots.len().max(1) as f64
    };
    Ok(Tree {
        write_us: (med_self("probe.tree_write") - pfs.encrypt_us).max(0.0),
        read_hot_us: med_self("probe.tree_read_hot"),
        read_cold_us: (med_self("probe.tree_read_cold") - pfs.decrypt_us).max(0.0),
        puts_per_write: per_root("probe.tree_write", "store.put"),
        gets_per_write: per_root("probe.tree_write", "store.get"),
        gets_per_cold_read: per_root("probe.tree_read_cold", "store.get"),
        spans,
    })
}

/// Every span has a parent in its pass or is a client-op root.
fn orphans(spans: &[Span]) -> usize {
    let ids: std::collections::HashSet<u32> = spans.iter().map(|s| s.id).collect();
    spans
        .iter()
        .filter(|s| s.parent != 0 && !ids.contains(&s.parent))
        .count()
}

pub fn run_traced(spec: &'static Spec, seed: u64) -> Res<Outcome> {
    let sh = Shared {
        spec,
        seed,
        flip: AtomicBool::new(false),
    };
    let n_ops = spec.trace_ops;
    let tracer = Tracer::new();
    let calib_before = proc::calibrate_ms();
    let ready = run::set_up(&sh, Some(&tracer), 1)?;
    let l = &ready.launched;
    let mut lanes = ready.lanes;
    let (mut st, mut plain): (LaneState, Conns<TcpTransport>) = lanes.remove(0);
    let stores = l
        .stores
        .clone()
        .expect("traced launches keep store handles");
    let trusted = Arc::clone(l.server.enclave().store());
    // Every pass takes the next `n_ops` of the one generator stream: the
    // same mix on fresh random files, so no pass inherits a cache warmed
    // by an identical sequence.
    let replay = |done: u64| done >= n_ops;
    let first_op = ready.next_op;

    // Pass 0: untraced TCP reference.
    let cache0 = trusted.cache_stats().unwrap_or_default();
    let (cpu0, t0) = (proc::cpu_ms(), Instant::now());
    let (s0, _) = run::drive(&sh, &mut st, &mut plain, first_op, None, t0, replay);
    let cpu_share = (proc::cpu_ms() - cpu0) / 1e3 / t0.elapsed().as_secs_f64();
    let cache1 = trusted.cache_stats().unwrap_or_default();

    // Pass 1: traced TCP.
    let wire = Arc::new(WireCounts::default());
    let mut traced_conns = connect_with(l, spec, || {
        let tcp = ctx("tcp connect", TcpTransport::connect(&l.addr))?;
        Ok(TracedTransport::new(
            tcp,
            Arc::clone(&tracer),
            Arc::clone(&wire),
        ))
    })?;
    let (frames0, bytes0) = (
        wire.frames.load(Ordering::SeqCst),
        wire.bytes.load(Ordering::SeqCst),
    );
    let io0 = stores.io_stats();
    tracer.set_on(true);
    let (s1, _) = run::drive(
        &sh,
        &mut st,
        &mut traced_conns,
        first_op + n_ops,
        Some(&tracer),
        Instant::now(),
        replay,
    );
    tracer.set_on(false);
    let io1 = stores.io_stats();
    let spans1 = tracer.drain();
    let frames = (wire.frames.load(Ordering::SeqCst) - frames0) as f64;
    let wire_bytes = (wire.bytes.load(Ordering::SeqCst) - bytes0) as f64;
    drop(traced_conns);

    // Pass 2: inline, on this thread.
    let enclave = Arc::clone(l.server.enclave());
    let mut inline = connect_with(l, spec, || {
        InlineTransport::new(Arc::clone(&enclave), Arc::clone(&tracer))
    })?;
    tracer.set_on(true);
    let (s2, _) = run::drive(
        &sh,
        &mut st,
        &mut inline,
        first_op + 2 * n_ops,
        Some(&tracer),
        Instant::now(),
        replay,
    );
    tracer.set_on(false);
    let spans2 = tracer.drain();
    drop(inline);

    // Pass 3: probes.
    let body = gen::body(seed, &spec.file_path(0, 0), 1, spec.body_len);
    let pfs = probe::pfs(&body)?;
    let tls = probe::tls()?;
    let proto = probe::proto(&spec.file_path(0, 0), &body)?;
    let crypto = probe::crypto()?;
    let tree = probe_tree(&sh, l, &mut plain.owner, &tracer, &pfs)?;
    let user = l.enroll("handshaker")?;
    let mut handshakes = Vec::new();
    for _ in 0..32 {
        let t = Instant::now();
        drop(l.connect(&user)?);
        handshakes.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // Tear down; the durable workload then times a bare recovery.
    drop(plain);
    drop(trusted);
    drop(enclave);
    let wal_dir = ready.wal_dir;
    drop(ready.launched);
    drop(stores);
    let (disk_bytes, recover_ms) = match &wal_dir {
        Some(dir) => {
            let t = Instant::now();
            let wal = ctx(
                "recover WAL",
                WalStore::open_with(dir.path(), WalConfig::default()),
            )?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(wal);
            (dir.disk_bytes() as f64, ms)
        }
        None => (0.0, 0.0),
    };
    drop(wal_dir);
    let calib_after = proc::calibrate_ms();
    let drift = (calib_after / calib_before - 1.0).abs();

    // ---- pass 1 arithmetic
    let ops = s1.iter().filter(|s| s.end_ns != u64::MAX).count() as f64;
    let self1 = trace::self_times(&spans1);
    let roots1: Vec<&Span> = spans1.iter().filter(|s| s.parent == 0).collect();
    let client_self_us =
        roots1.iter().map(|s| selfs_us(&self1, s.id)).sum::<f64>() / roots1.len().max(1) as f64;
    let st1 = store_totals(spans1.iter());
    let (put_bytes1, get_bytes1) = user_bytes(&s1);
    let n_puts1 = s1.iter().filter(|s| s.class == Class::Put).count() as f64;
    let fsyncs = (io1.fsyncs - io0.fsyncs) as f64;
    let batch_ops = (io1.batch_ops - io0.batch_ops) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let classes = [Class::Put, Class::Get, Class::Admin];
    let mut overhead_num = 0.0;
    let mut overhead_den = 0.0;
    for c in classes {
        if let (Some(a), Some(b)) = (p50_ms(&s1, c), p50_ms(&s0, c)) {
            let n = s0.iter().filter(|s| s.class == c).count() as f64;
            overhead_num += n * (a / b - 1.0);
            overhead_den += n;
        }
    }

    // ---- pass 2 arithmetic: enclave self time per op, by class
    let self2 = trace::self_times(&spans2);
    let root_class: HashMap<u32, Class> = spans2
        .iter()
        .filter(|s| s.parent == 0)
        .filter_map(|s| class_of(s.name).map(|c| (s.id, c)))
        .collect();
    let mut enclave_self: HashMap<u32, f64> = HashMap::new();
    let mut store_get_bytes: HashMap<u32, u64> = HashMap::new();
    for s in &spans2 {
        if s.name.starts_with("enclave.") {
            *enclave_self.entry(s.op).or_default() += selfs_us(&self2, s.id);
        } else if s.name == "store.get" {
            *store_get_bytes.entry(s.op).or_default() += s.bytes;
        }
    }
    let enclave_p50 = |class: Class| {
        let v: Vec<f64> = enclave_self
            .iter()
            .filter(|(op, _)| root_class.get(op) == Some(&class))
            .map(|(_, us)| *us)
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let enclave_total: f64 = enclave_self.values().sum();
    let frames_in: Vec<&Span> = spans2
        .iter()
        .filter(|s| s.name == "enclave.handle_frame")
        .collect();
    let frames_out: Vec<&Span> = spans2
        .iter()
        .filter(|s| s.name == "enclave.next_outgoing" && s.bytes > 0)
        .collect();
    let bytes_of = |v: &[&Span]| v.iter().map(|s| s.bytes as f64).sum::<f64>();
    let count2 = |class| {
        s2.iter()
            .filter(|s| s.class == class && s.end_ns != u64::MAX)
            .count() as f64
    };
    let cold_gets = root_class
        .iter()
        .filter(|(op, c)| {
            **c == Class::Get
                && store_get_bytes.get(op).copied().unwrap_or(0) >= spec.body_len as u64
        })
        .count() as f64;
    let (put_bytes2, _) = user_bytes(&s2);
    let probed_us = (frames_in.len() + frames_out.len()) as f64 / 2.0 * tls.record_us
        + bytes_of(&frames_in) / tls.open_mb_per_s
        + bytes_of(&frames_out) / tls.seal_mb_per_s
        + count2(Class::Put) * proto.server_put_us
        + count2(Class::Get) * proto.server_get_us
        + put_bytes2 / pfs.encrypt_mb_per_s
        + cold_gets * pfs.decrypt_us
        + (count2(Class::Put) + count2(Class::Admin)) * tree.write_us
        + cold_gets * tree.read_cold_us
        + (count2(Class::Get) - cold_gets) * tree.read_hot_us;

    let hop = |class| match (p50_ms(&s1, class), p50_ms(&s2, class)) {
        (Some(tcp), Some(inl)) => (tcp - inl) * 1e3,
        _ => 0.0,
    };
    let both =
        |s: &[Sample]| p50_ms(s, Class::Put).unwrap_or(0.0) + p50_ms(s, Class::Get).unwrap_or(0.0);
    let p99 = |class| run::pooled_ms(s0.iter(), class, 99.0).0.unwrap_or(0.0);
    let lookups = (cache1.hits - cache0.hits + cache1.misses - cache0.misses) as f64;

    let values: Vec<(&'static str, f64)> = vec![
        ("client.self_us", client_self_us),
        ("client.put_p99_ms", p99(Class::Put)),
        ("client.get_p99_ms", p99(Class::Get)),
        ("client.admin_p99_ms", p99(Class::Admin)),
        ("client.frames_per_op", frames / ops),
        (
            "client.wire_bytes_per_user_byte",
            ratio(wire_bytes, put_bytes1 + get_bytes1),
        ),
        ("net.hop_get_us", hop(Class::Get)),
        ("net.hop_put_us", hop(Class::Put)),
        ("net.overlap_share", 1.0 - ratio(both(&s1), both(&s2))),
        ("enclave.get_self_us", enclave_p50(Class::Get)),
        ("enclave.put_self_us", enclave_p50(Class::Put)),
        ("enclave.admin_self_us", enclave_p50(Class::Admin)),
        ("enclave.probed_share", ratio(probed_us, enclave_total)),
        ("tree.write_us", tree.write_us),
        ("tree.read_hot_us", tree.read_hot_us),
        ("tree.read_cold_us", tree.read_cold_us),
        ("tree.store_puts_per_write", tree.puts_per_write),
        ("tree.store_gets_per_write", tree.gets_per_write),
        ("tree.store_gets_per_cold_read", tree.gets_per_cold_read),
        (
            "cache.hit_ratio",
            ratio((cache1.hits - cache0.hits) as f64, lookups),
        ),
        (
            "cache.evictions_per_op",
            (cache1.evictions - cache0.evictions) as f64 / n_ops as f64,
        ),
        ("pfs.encrypt_mb_per_s", pfs.encrypt_mb_per_s),
        ("pfs.decrypt_mb_per_s", pfs.decrypt_mb_per_s),
        ("pfs.bytes_per_user_byte", pfs.bytes_per_user_byte),
        ("tls.seal_mb_per_s", tls.seal_mb_per_s),
        ("tls.open_mb_per_s", tls.open_mb_per_s),
        ("tls.record_us", tls.record_us),
        (
            "tls.handshake_ms",
            stats::median(&handshakes).unwrap_or(0.0),
        ),
        ("proto.codec_us", proto.codec_us),
        ("crypto.gcm_seal_mb_per_s", crypto.gcm_seal_mb_per_s),
        ("crypto.gcm_open_mb_per_s", crypto.gcm_open_mb_per_s),
        ("crypto.gcm_4k_us", crypto.gcm_4k_us),
        ("crypto.pae_record_us", crypto.pae_record_us),
        ("crypto.hmac_us", crypto.hmac_us),
        ("store.busy_us_per_op", st1.busy_us / ops),
        ("store.gets_per_op", st1.gets / ops),
        ("store.puts_per_op", st1.puts / ops),
        (
            "store.bytes_written_per_user_byte",
            ratio(st1.bytes_written, put_bytes1),
        ),
        (
            "store.bytes_read_per_user_byte",
            ratio(st1.bytes_read, get_bytes1),
        ),
        ("store.fsyncs_per_put", ratio(fsyncs, n_puts1)),
        ("store.batch_ops_per_fsync", ratio(batch_ops, fsyncs)),
        (
            "store.disk_bytes_per_user_byte",
            disk_bytes / spec.user_bytes() as f64,
        ),
        ("store.recover_ms", recover_ms),
        ("proc.peak_rss_mb", proc::peak_rss_mb()),
        ("proc.cpu_share", cpu_share),
        ("proc.calib_drift", drift),
        ("trace.overhead_share", ratio(overhead_num, overhead_den)),
        ("trace.spans_per_op", spans1.len() as f64 / ops),
    ];

    // ---- checks on the trace itself
    let all_samples = s0.iter().chain(&s1).chain(&s2);
    let attempted = all_samples.clone().count() as u64;
    let mut failed = all_samples.filter(|s| !s.ok).count() as u64;
    let orphaned = orphans(&spans1) + orphans(&spans2) + orphans(&tree.spans);
    failed += orphaned as u64;

    let out = rig::out_dir();
    ctx("create out dir", std::fs::create_dir_all(&out))?;
    let file = out.join(format!("trace-{}.jsonl", spec.name));
    ctx(
        "write trace",
        trace::write_jsonl(
            &file,
            &[
                ("tcp", &spans1[..]),
                ("inline", &spans2[..]),
                ("probe", &tree.spans[..]),
            ],
        ),
    )?;

    let notes = vec![
        format!(
            "{n_ops} ops per pass on one connection{}; passes: 0 untraced TCP, 1 traced TCP, 2 inline, 3 probes",
            if spec.kind == gen::Kind::ShareCold { " pair (owner + member)" } else { "" }
        ),
        format!(
            "op p50 ms put/get/admin: pass 0 {:.3}/{:.3}/{:.3}, pass 1 {:.3}/{:.3}/{:.3}, pass 2 {:.3}/{:.3}/{:.3}",
            p50_ms(&s0, Class::Put).unwrap_or(0.0),
            p50_ms(&s0, Class::Get).unwrap_or(0.0),
            p50_ms(&s0, Class::Admin).unwrap_or(0.0),
            p50_ms(&s1, Class::Put).unwrap_or(0.0),
            p50_ms(&s1, Class::Get).unwrap_or(0.0),
            p50_ms(&s1, Class::Admin).unwrap_or(0.0),
            p50_ms(&s2, Class::Put).unwrap_or(0.0),
            p50_ms(&s2, Class::Get).unwrap_or(0.0),
            p50_ms(&s2, Class::Admin).unwrap_or(0.0),
        ),
        format!(
            "pass 2: {} of {} gets read the store (cold); enclave self time {:.1} ms total, probes explain {:.1} ms",
            cold_gets,
            count2(Class::Get),
            enclave_total / 1e3,
            probed_us / 1e3
        ),
        format!(
            "{} spans ({} tcp, {} inline, {} probe), {orphaned} without a parent; written to {}",
            spans1.len() + spans2.len() + tree.spans.len(),
            spans1.len(),
            spans2.len(),
            tree.spans.len(),
            file.display()
        ),
        format!(
            "calibration spin {calib_before:.1} ms before, {calib_after:.1} ms after: drift {:.1} %",
            drift * 100.0
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: values,
        notes,
        noisy: drift > 0.10,
    })
}

fn selfs_us(selfs: &HashMap<u32, u64>, id: u32) -> f64 {
    selfs.get(&id).copied().unwrap_or(0) as f64 / 1e3
}
