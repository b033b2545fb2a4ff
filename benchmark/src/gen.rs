//! The seeded load generator: workload shapes, op sequences, paths and
//! bodies. Everything here is a pure function of `--seed`; the server only
//! ever sees the generated inputs.

/// The four workloads. Names are fixed; later issues refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Bulk1m,
    SmallHot,
    ShareCold,
    Durable16k,
}

/// One workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Generator threads. Every lane drives one connection, except
    /// `share_cold`, whose single lane drives an owner and a member
    /// connection in strict sequence.
    pub lanes: usize,
    pub dirs: usize,
    pub files_per_dir: usize,
    pub body_len: usize,
    /// Data ops between two admin ops (mixed workloads; `share_cold` has
    /// its own fixed cycle).
    pub admin_every: u64,
    /// Ops per traced pass (one connection, so counts repeat). Like
    /// `warm_ops` a whole number of remove/add rounds, so every pass
    /// starts with the toggled user in the group.
    pub trace_ops: u64,
    /// Ops of the untimed warm pass that ends set-up, per lane.
    pub warm_ops: u64,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Listed in `BENCHMARK.json`, so the driver gates changes on it.
    pub gated: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::Bulk1m,
        name: "bulk_1m",
        why: "1 connection alternating put/get of 1 MiB bodies: AES-GCM (pfs + TLS, both ends) dominates; tree, reactor and cache work must not move it",
        lanes: 1,
        dirs: 1,
        files_per_dir: 32,
        body_len: 1 << 20,
        admin_every: 4,
        trace_ops: 60,
        warm_ops: 20,
        setups: 3,
        gated: true,
    },
    Spec {
        kind: Kind::SmallHot,
        name: "small_hot",
        why: "1 connection, 3 get : 1 put over 1 MiB of 4 KiB files that fit the 8 MiB cache: gets price the per-frame reactor/socket hop, puts price rollback-tree updates",
        // One connection, not the two the design asked for: two generator
        // threads, the reactor and two workers on two shared vCPUs leave
        // both idle in short gaps, and on a busy host every wake-up from
        // such a gap is slow. Ten-seed medians taken half an hour apart
        // moved by 25-42 % with two lanes while the pinned one-lane
        // workloads moved by 4 % (README, Steadiness). Set to 2 on a
        // machine with cores of its own.
        lanes: 1,
        dirs: 8,
        files_per_dir: 32,
        body_len: 4 << 10,
        admin_every: 16,
        trace_ops: 2006,
        warm_ops: 510,
        setups: 3,
        gated: true,
    },
    Spec {
        kind: Kind::ShareCold,
        name: "share_cold",
        why: "owner revokes and re-adds a member who reads 32 MiB of 16 KiB docs (4x the cache) through a 4-level inherit chain: cold verify_tree reads, admin ops, and the revocation-immediacy check every cycle",
        lanes: 1,
        dirs: 64,
        files_per_dir: 32,
        body_len: 16 << 10,
        admin_every: 0,
        trace_ops: 2002,
        warm_ops: 1100,
        setups: 1,
        gated: true,
    },
    Spec {
        kind: Kind::Durable16k,
        name: "durable_16k",
        why: "1 connection, 3 put : 1 get of 16 KiB files on the WAL store with real fdatasync and group commit: commit wait plus tree update dominate; acknowledged writes are re-read after a reopen",
        // One connection, not the two the design asked for: a get's audit
        // append waits for its commit while holding the audit lock, a
        // concurrent put holds an open transaction while waiting for that
        // lock, and a checkpoint that comes due waits for the transaction -
        // the store poisons itself after `gate_timeout` (README, Known
        // defects). Set to 2 once the server is fixed.
        lanes: 1,
        dirs: 8,
        files_per_dir: 32,
        body_len: 16 << 10,
        admin_every: 16,
        trace_ops: 1020,
        warm_ops: 136,
        setups: 1,
        // Not gated: each op waits for real fdatasyncs, the vCPU idles while
        // it waits, and both the host's disk and its wake-ups from idle
        // are shared. Two ten-seed sets of the same code half an hour apart
        // read 480 and 311 ops/s (README, Steadiness). Run it by hand.
        gated: false,
    },
];

/// `share_cold`: ops per cycle (remove, denied get, add, 7 gets, put).
pub const SHARE_CYCLE: u64 = 11;
/// `share_cold`: groups the member sits in, and members of `readers`.
pub const MEMBER_GROUPS: usize = 17;
pub const READERS_MEMBERS: usize = 32;

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn files(&self) -> usize {
        self.dirs * self.files_per_dir
    }

    /// Live user bytes after the preload (every file holds one body).
    pub fn user_bytes(&self) -> u64 {
        (self.lanes * self.files() * self.body_len) as u64
    }

    /// Directories to create, parents first, for `lane`.
    pub fn dir_paths(&self, lane: usize) -> Vec<String> {
        let mut out = Vec::new();
        let top = match self.kind {
            Kind::Bulk1m => {
                out.push("/bulk".to_string());
                return out;
            }
            Kind::ShareCold => {
                out.push("/org".to_string());
                out.push("/org/team".to_string());
                "/org/team/proj".to_string()
            }
            Kind::SmallHot => format!("/hot{lane}"),
            Kind::Durable16k => format!("/dur{lane}"),
        };
        out.push(top.clone());
        for d in 0..self.dirs {
            out.push(format!("{top}/d{d:02}"));
        }
        out
    }

    pub fn file_path(&self, lane: usize, file: usize) -> String {
        let (d, f) = (file / self.files_per_dir, file % self.files_per_dir);
        match self.kind {
            Kind::Bulk1m => format!("/bulk/f{f:02}"),
            Kind::SmallHot => format!("/hot{lane}/d{d:02}/f{f:02}"),
            Kind::ShareCold => format!("/org/team/proj/d{d:02}/doc{f:02}"),
            Kind::Durable16k => format!("/dur{lane}/d{d:02}/f{f:02}"),
        }
    }

    /// The `n`-th op of `lane`: a pure function of the seed, so a traced
    /// pass replays exactly what another pass or run saw.
    pub fn op_at(&self, seed: u64, lane: usize, n: u64) -> Op {
        let r = mix(mix(seed, lane as u64 + 1), n);
        let file = (r >> 8) as usize % self.files();
        if self.kind == Kind::ShareCold {
            return match n % SHARE_CYCLE {
                0 => Op::Remove,
                1 => Op::GetDenied(file),
                2 => Op::Add,
                3..=9 => Op::Get(file),
                _ => Op::Put(file),
            };
        }
        let period = self.admin_every + 1;
        if n % period == self.admin_every {
            return if (n / period).is_multiple_of(2) {
                Op::Remove
            } else {
                Op::Add
            };
        }
        let put = match self.kind {
            // Strict alternation over the data ops.
            Kind::Bulk1m => (n - n / period).is_multiple_of(2),
            Kind::SmallHot => r.is_multiple_of(4),
            _ => !r.is_multiple_of(4),
        };
        if put {
            Op::Put(file)
        } else {
            Op::Get(file)
        }
    }

    /// FNV-1a over the first 4096 ops of every lane (`gen.sequence_hash`).
    pub fn sequence_hash(&self, seed: u64) -> u64 {
        let mut h = FNV_OFFSET;
        for lane in 0..self.lanes {
            for n in 0..4096 {
                let (tag, file) = match self.op_at(seed, lane, n) {
                    Op::Put(f) => (1u64, f),
                    Op::Get(f) => (2, f),
                    Op::GetDenied(f) => (3, f),
                    Op::Remove => (4, 0),
                    Op::Add => (5, 0),
                };
                h = fnv(h, &(tag << 32 | file as u64).to_le_bytes());
            }
        }
        h
    }
}

/// One client call. In `share_cold` the member connection issues the
/// gets and the owner connection everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Put(usize),
    Get(usize),
    /// A get that must be refused: the reader was just revoked.
    GetDenied(usize),
    /// `remove_user` / `add_user` of the lane's toggled member.
    Remove,
    Add,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finaliser over `a + b`: the generator's only hash.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes of header in front of a body's pseudo-random fill.
const HEADER: usize = 24;

/// body = f(seed, path, version): a 24-byte header (seed, path hash,
/// version) and an xorshift fill keyed by all three. `len` >= 24.
pub fn body(seed: u64, path: &str, version: u64, len: usize) -> Vec<u8> {
    let path_hash = fnv(FNV_OFFSET, path.as_bytes());
    let mut out = Vec::with_capacity(len + 8);
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&path_hash.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut x = mix(mix(seed, path_hash), version) | 1;
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The version a body claims, if it is a body of `path` under `seed`.
pub fn body_version(seed: u64, path: &str, bytes: &[u8]) -> Option<u64> {
    let word = |i: usize| Some(u64::from_le_bytes(bytes.get(i..i + 8)?.try_into().ok()?));
    if word(0)? != seed || word(8)? != fnv(FNV_OFFSET, path.as_bytes()) {
        return None;
    }
    let version = word(HEADER - 8)?;
    (body(seed, path, version, bytes.len()) == bytes).then_some(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for spec in &SPECS {
            assert_eq!(spec.sequence_hash(7), spec.sequence_hash(7));
            assert_ne!(
                spec.sequence_hash(7),
                spec.sequence_hash(8),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn body_round_trips_and_depends_on_every_input() {
        let b = body(3, "/hot0/d01/f02", 9, 4096);
        assert_eq!(b.len(), 4096);
        assert_eq!(body_version(3, "/hot0/d01/f02", &b), Some(9));
        assert_eq!(body_version(4, "/hot0/d01/f02", &b), None);
        assert_eq!(body_version(3, "/hot0/d01/f03", &b), None);
        assert_ne!(b, body(3, "/hot0/d01/f02", 10, 4096));
        let mut flipped = b.clone();
        flipped[2000] ^= 1;
        assert_eq!(body_version(3, "/hot0/d01/f02", &flipped), None);
    }

    #[test]
    fn every_workload_issues_put_get_and_admin_in_its_stated_mix() {
        for spec in &SPECS {
            let (mut put, mut get, mut admin, mut denied) = (0u64, 0u64, 0u64, 0u64);
            let total = 11 * 17 * 40;
            for n in 0..total {
                match spec.op_at(1, 0, n) {
                    Op::Put(f) => {
                        assert!(f < spec.files());
                        put += 1;
                    }
                    Op::Get(_) => get += 1,
                    Op::GetDenied(_) => denied += 1,
                    Op::Remove | Op::Add => admin += 1,
                }
            }
            assert!(put > 0 && get > 0 && admin > 0, "{}", spec.name);
            match spec.kind {
                Kind::Bulk1m => assert!(put.abs_diff(get) <= 1),
                Kind::SmallHot => assert!(get > 2 * put && get < 4 * put),
                Kind::Durable16k => assert!(put > 2 * get && put < 4 * get),
                Kind::ShareCold => {
                    assert_eq!((admin, denied), (2 * put, put));
                    assert_eq!(get, 7 * put);
                }
            }
        }
    }

    #[test]
    fn admin_ops_alternate_remove_then_add() {
        for spec in &SPECS {
            let admins: Vec<Op> = (0..400)
                .map(|n| spec.op_at(5, 0, n))
                .filter(|op| matches!(op, Op::Remove | Op::Add))
                .collect();
            for pair in admins.chunks(2) {
                assert_eq!(pair[0], Op::Remove, "{}", spec.name);
                if pair.len() == 2 {
                    assert_eq!(pair[1], Op::Add);
                }
            }
        }
    }

    #[test]
    fn passes_are_whole_admin_rounds() {
        for spec in &SPECS {
            let round = match spec.kind {
                Kind::ShareCold => SHARE_CYCLE,
                _ => 2 * (spec.admin_every + 1),
            };
            assert_eq!(spec.warm_ops % round, 0, "{}", spec.name);
            assert_eq!(spec.trace_ops % round, 0, "{}", spec.name);
        }
    }

    #[test]
    fn paths_are_distinct_and_under_the_created_dirs() {
        for spec in &SPECS {
            let mut seen = std::collections::BTreeSet::new();
            for lane in 0..spec.lanes {
                let dirs = spec.dir_paths(lane);
                for f in 0..spec.files() {
                    let p = spec.file_path(lane, f);
                    let parent = &p[..p.rfind('/').unwrap()];
                    assert!(dirs.iter().any(|d| d == parent), "{p}");
                    assert!(seen.insert(p));
                }
            }
        }
    }
}
