//! Model-based property tests: random operation sequences against the
//! real server, compared with a trivial in-memory reference model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use seg_proto::ErrorCode;
use seg_sgx::pfs::HEADER_SPARE;
use segshare::{EnclaveConfig, FsoSetup, SegShareError};

/// Directories an op can name: three at the top, and `n/` in each.
const DIRS: usize = 6;
/// File names per directory: with their ACLs, 32 tree children over the
/// 64 buckets of a directory's hash record — shared buckets are the rule.
const FILES_PER_DIR: u8 = 16;

/// Operations the single-user model covers.
#[derive(Debug, Clone)]
enum Op {
    MkDir(usize),
    Put {
        dir: usize,
        file: u8,
        len: usize,
        salt: u8,
    },
    Get {
        dir: usize,
        file: u8,
    },
    Remove {
        dir: usize,
        file: u8,
    },
    List(usize),
    MoveFile {
        from: (usize, u8),
        to: (usize, u8),
    },
    MoveDir {
        from: usize,
        to: usize,
    },
}

/// Body lengths on both sides of every storage-layout decision (a
/// content body is its bytes plus a one-byte trailer): what fits the
/// Protected-FS header, one data node, two, a tag list with and without
/// an inline tail — and anything small.
fn body_len() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 15] = [
        0,
        1,
        4019,
        4020,
        4021,
        HEADER_SPARE - 2,
        HEADER_SPARE - 1,
        HEADER_SPARE,
        4067,
        4068,
        4069,
        4096,
        8136,
        16_384,
        65_537,
    ];
    prop_oneof![
        (0..EDGES.len()).prop_map(|i| EDGES[i]),
        0usize..2000,
        0usize..2000
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let dir = || 0..DIRS;
    let file = || 0..FILES_PER_DIR;
    let put = || {
        (dir(), file(), body_len(), any::<u8>()).prop_map(|(dir, file, len, salt)| Op::Put {
            dir,
            file,
            len,
            salt,
        })
    };
    // Repetition is weight: directories fill up before they move.
    prop_oneof![
        dir().prop_map(Op::MkDir),
        dir().prop_map(Op::MkDir),
        put(),
        put(),
        put(),
        put(),
        put(),
        put(),
        (dir(), file()).prop_map(|(dir, file)| Op::Get { dir, file }),
        (dir(), file()).prop_map(|(dir, file)| Op::Get { dir, file }),
        (dir(), file()).prop_map(|(dir, file)| Op::Remove { dir, file }),
        dir().prop_map(Op::List),
        (dir(), file(), dir(), file()).prop_map(|(d1, f1, d2, f2)| Op::MoveFile {
            from: (d1, f1),
            to: (d2, f2)
        }),
        (dir(), dir()).prop_map(|(from, to)| Op::MoveDir { from, to }),
        (dir(), dir()).prop_map(|(from, to)| Op::MoveDir { from, to }),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 1..120)
}

fn dir_path(dir: usize) -> String {
    match dir {
        0..3 => format!("/d{dir}/"),
        _ => format!("/d{}/n/", dir - 3),
    }
}

fn file_path(dir: usize, file: u8) -> String {
    format!("{}f{file}", dir_path(dir))
}

fn parent_of(path: &str) -> &str {
    let trimmed = path.trim_end_matches('/');
    &path[..=trimmed.rfind('/').expect("absolute path")]
}

fn body(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Reference model: which directories exist (the root always does), and
/// path -> content.
struct Model {
    dirs: BTreeSet<String>,
    files: BTreeMap<String, Vec<u8>>,
}

impl Model {
    fn new() -> Model {
        Model {
            dirs: BTreeSet::from(["/".to_string()]),
            files: BTreeMap::new(),
        }
    }

    /// The names directly under `dir`, sorted.
    fn listing(&self, dir: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .files
            .keys()
            .chain(self.dirs.iter())
            .filter(|p| p.as_str() != "/" && parent_of(p) == dir)
            .map(|p| p[dir.len()..].trim_end_matches('/').to_string())
            .collect();
        names.sort();
        names
    }

    /// Moves the directory `from` and everything under it to `to`.
    fn move_dir(&mut self, from: &str, to: &str) {
        let moved = |p: &str| format!("{to}{}", &p[from.len()..]);
        self.dirs = std::mem::take(&mut self.dirs)
            .into_iter()
            .map(|d| if d.starts_with(from) { moved(&d) } else { d })
            .collect();
        self.files = std::mem::take(&mut self.files)
            .into_iter()
            .map(|(p, c)| {
                if p.starts_with(from) {
                    (moved(&p), c)
                } else {
                    (p, c)
                }
            })
            .collect();
    }
}

fn not_found(e: &SegShareError) -> bool {
    matches!(
        e,
        SegShareError::Request {
            code: ErrorCode::NotFound,
            ..
        }
    )
}

/// Runs `ops` against a fresh server and the model, step by step.
fn run_against_model(ops: &[Op], cache: bool) -> Result<(), TestCaseError> {
    let config = EnclaveConfig {
        cache,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::new_in_memory("ca", config);
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut client = server.connect_local(&alice).unwrap();
    let mut model = Model::new();

    for (step, op) in ops.iter().enumerate() {
        let at = format!("step {step} {op:?} (cache {cache})");
        match *op {
            Op::MkDir(d) => {
                let path = dir_path(d);
                let result = client.mkdir(&path);
                if model.dirs.contains(&path) || !model.dirs.contains(parent_of(&path)) {
                    prop_assert!(result.is_err(), "{at}: mkdir must fail");
                } else {
                    prop_assert!(result.is_ok(), "{at}: {result:?}");
                    model.dirs.insert(path);
                }
            }
            Op::Put {
                dir,
                file,
                len,
                salt,
            } => {
                let path = file_path(dir, file);
                let content = body(len, salt);
                let result = client.put(&path, &content);
                if model.dirs.contains(&dir_path(dir)) {
                    prop_assert!(result.is_ok(), "{at}: {result:?}");
                    model.files.insert(path, content);
                } else {
                    prop_assert!(
                        result.as_ref().err().is_some_and(not_found),
                        "{at}: put into a missing directory: {result:?}"
                    );
                }
            }
            Op::Get { dir, file } => {
                let path = file_path(dir, file);
                let result = client.get(&path);
                match model.files.get(&path) {
                    Some(expected) => {
                        prop_assert!(result.is_ok(), "{at}: {result:?}");
                        prop_assert!(&result.unwrap() == expected, "{at}: wrong body");
                    }
                    None => prop_assert!(
                        result.as_ref().err().is_some_and(not_found),
                        "{at}: get of a missing file: {result:?}"
                    ),
                }
            }
            Op::Remove { dir, file } => {
                let path = file_path(dir, file);
                let result = client.remove(&path);
                if model.files.remove(&path).is_some() {
                    prop_assert!(result.is_ok(), "{at}: {result:?}");
                } else {
                    prop_assert!(result.is_err(), "{at}: removed a missing file");
                }
            }
            Op::List(d) => {
                let path = dir_path(d);
                let result = client.list(&path);
                if model.dirs.contains(&path) {
                    prop_assert!(result.is_ok(), "{at}: {result:?}");
                    let mut got: Vec<String> =
                        result.unwrap().into_iter().map(|e| e.name).collect();
                    got.sort();
                    prop_assert_eq!(got, model.listing(&path), "{}", at);
                } else {
                    prop_assert!(result.is_err(), "{at}: listed a missing directory");
                }
            }
            Op::MoveFile { from, to } => {
                let (from, to) = (file_path(from.0, from.1), file_path(to.0, to.1));
                let result = client.rename(&from, &to);
                let possible = model.files.contains_key(&from)
                    && model.dirs.contains(parent_of(&to))
                    && !model.files.contains_key(&to);
                if possible {
                    prop_assert!(result.is_ok(), "{at}: {result:?}");
                    let content = model.files.remove(&from).expect("checked");
                    model.files.insert(to, content);
                } else {
                    prop_assert!(result.is_err(), "{at}: move must fail");
                }
            }
            Op::MoveDir { from, to } => {
                let (from, to) = (dir_path(from), dir_path(to));
                let result = client.rename(&from, &to);
                let possible = model.dirs.contains(&from)
                    && model.dirs.contains(parent_of(&to))
                    && !model.dirs.contains(&to)
                    && !to.starts_with(&from);
                if possible {
                    prop_assert!(result.is_ok(), "{at}: {result:?}");
                    model.move_dir(&from, &to);
                } else {
                    prop_assert!(result.is_err(), "{at}: move must fail");
                }
            }
        }
    }
    // Whatever the sequence did, everything the model holds reads back.
    for (path, expected) in &model.files {
        let result = client.get(path);
        prop_assert!(
            result.is_ok(),
            "final get {path} (cache {cache}): {result:?}"
        );
        prop_assert!(&result.unwrap() == expected, "final get {path}: wrong body");
    }
    for dir in &model.dirs {
        let result = client.list(dir);
        prop_assert!(
            result.is_ok(),
            "final list {dir} (cache {cache}): {result:?}"
        );
        let mut got: Vec<String> = result.unwrap().into_iter().map(|e| e.name).collect();
        got.sort();
        prop_assert_eq!(got, model.listing(dir), "final list {}", dir);
    }
    Ok(())
}

/// Both cache settings: with it off every verified read walks the
/// stored tree; with it on trusted records and cached bodies answer.
fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    run_against_model(ops, false)?;
    run_against_model(ops, true)
}

/// Generator seeds of cases that failed once (the stand-in proptest
/// keeps no persistence file; `run_cases` prints the seed), replayed
/// first.
///
/// * `0x1ac746bf3179a185` — at the commit before the recursive Move kept
///   directory files and tree in step: step 94 moves `/d0/` (eleven
///   files by then) and fails with `A:/d0/f11: missing sibling hash
///   record`, a listed sibling in the same bucket having moved already.
const REGRESSION_SEEDS: [u64; 1] = [0x1ac7_46bf_3179_a185];

#[test]
fn regression_seeds_still_pass() {
    for seed in REGRESSION_SEEDS {
        let ops = ops_strategy().generate(&mut TestRng::from_seed(seed));
        if let Err(TestCaseError::Fail(why)) = check(&ops) {
            panic!("seed {seed:#x}: {why}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn server_matches_reference_model(ops in ops_strategy()) {
        check(&ops)?;
    }

    #[test]
    fn uploads_of_any_size_roundtrip(len in 0usize..600_000) {
        let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
        let server = setup.server().unwrap();
        let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let mut client = server.connect_local(&alice).unwrap();
        let content: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        client.put("/blob", &content).unwrap();
        prop_assert_eq!(client.get("/blob").unwrap(), content);
    }
}
