//! Model-based property test: `MemStore` — the reference the WAL
//! equivalence test (`tests/integration_wal.rs`) compares against —
//! must itself agree with a plain `HashMap` under arbitrary operation
//! sequences.

use std::collections::HashMap;

use proptest::prelude::*;
use seg_store::{MemStore, ObjectStore};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
    Rename(u8, u8),
    List,
}

/// A few colliding interesting shapes, including path-like and unicode
/// keys.
fn key(k: u8) -> String {
    match k % 6 {
        0 => format!("plain-{k}"),
        1 => format!("dir/like/{k}"),
        2 => format!("sp ace {k}"),
        3 => format!("ünï-{k}"),
        4 => format!(".{k}"),
        _ => format!("%-{k}"),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Rename(a, b)),
        Just(Op::List),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memstore_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let store = MemStore::new();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    store.put(&key(k), &v).expect("put");
                    model.insert(key(k), v);
                }
                Op::Get(k) => {
                    prop_assert_eq!(store.get(&key(k)).expect("get"), model.get(&key(k)).cloned());
                }
                Op::Delete(k) => {
                    let existed = store.delete(&key(k)).expect("delete");
                    prop_assert_eq!(existed, model.remove(&key(k)).is_some());
                }
                Op::Rename(a, b) => match (store.rename(&key(a), &key(b)), model.remove(&key(a))) {
                    (result, Some(v)) => {
                        prop_assert!(result.is_ok());
                        model.insert(key(b), v);
                    }
                    (result, None) => prop_assert!(result.is_err()),
                },
                Op::List => {
                    let mut got = store.list().expect("list");
                    got.sort();
                    let mut expected: Vec<String> = model.keys().cloned().collect();
                    expected.sort();
                    prop_assert_eq!(got, expected);
                    let bytes = model.values().map(|v| v.len() as u64).sum::<u64>();
                    prop_assert_eq!(store.total_bytes().expect("bytes"), bytes);
                }
            }
        }
    }
}
