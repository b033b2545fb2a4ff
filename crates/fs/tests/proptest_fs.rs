//! Property-based tests for the file-system model: path algebra and
//! management-file codecs.

use proptest::prelude::*;
use seg_fs::{
    AclFile, ChildKind, DirFile, GroupId, GroupListFile, MemberListFile, Perm, SegPath, UserId,
};

/// Valid path-segment strategy (no '/', no NUL, not "." / "..").
fn segment() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9 _.-]{1,12}")
        .expect("valid regex")
        .prop_filter("reserved names", |s| s != "." && s != "..")
}

fn group_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9-]{1,16}").expect("valid regex")
}

/// A valid encoding of each management-file type, built from `groups`
/// (at least one) and the directory children `names`.
fn valid_encodings(groups: &[String], names: &[(String, bool)]) -> [Vec<u8>; 4] {
    let group = |g: &String| GroupId::new(g.clone()).expect("valid");
    let mut acl = AclFile::with_owner(group(&groups[0]));
    let mut members = MemberListFile::new();
    let mut list = GroupListFile::new();
    for (i, g) in groups.iter().enumerate() {
        acl.set_perm(group(g), Perm::decode(i as u8 % 4).expect("valid code"));
        members.add_membership(group(g));
        list.add_group(group(g), group(&groups[0]));
    }
    acl.set_inherit(groups.len().is_multiple_of(2));
    let mut dir = DirFile::new(SegPath::parse("/docs/").expect("valid"));
    for (name, is_dir) in names {
        let kind = if *is_dir {
            ChildKind::Directory
        } else {
            ChildKind::File
        };
        dir.add_child(name, kind);
    }
    [acl.encode(), members.encode(), list.encode(), dir.encode()]
}

/// Decodes `bytes` as every management-file type: none may panic, and
/// whatever decodes must re-encode to exactly `bytes`.
fn decode_each(bytes: &[u8]) {
    if let Ok(acl) = AclFile::decode(bytes) {
        assert_eq!(acl.encode(), bytes);
    }
    if let Ok(members) = MemberListFile::decode(bytes) {
        assert_eq!(members.encode(), bytes);
    }
    if let Ok(list) = GroupListFile::decode(bytes) {
        assert_eq!(list.encode(), bytes);
    }
    if let Ok(dir) = DirFile::decode(bytes) {
        assert_eq!(dir.encode(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn path_join_parent_inverse(segments in proptest::collection::vec(segment(), 1..6)) {
        let mut dir = SegPath::root();
        for seg in &segments[..segments.len() - 1] {
            dir = dir.join_dir(seg).expect("valid segment");
        }
        let file = dir.join_file(segments.last().expect("non-empty")).expect("valid");
        prop_assert_eq!(file.parent().expect("non-root"), dir.clone());
        prop_assert_eq!(file.name(), segments.last().unwrap().as_str());
        prop_assert_eq!(file.depth(), segments.len());
        // Reparsing the string form is the identity.
        prop_assert_eq!(SegPath::parse(file.as_str()).expect("valid"), file.clone());
        prop_assert!(file.starts_with(&dir));
        prop_assert!(file.starts_with(&SegPath::root()));
    }

    #[test]
    fn path_parse_never_panics(s in ".{0,40}") {
        let _ = SegPath::parse(&s);
    }

    #[test]
    fn acl_decode_encode_fixpoint(
        owners in proptest::collection::vec(group_name(), 1..5),
        entries in proptest::collection::vec((group_name(), 0u8..4), 0..10),
        inherit in any::<bool>(),
    ) {
        let mut acl = AclFile::new();
        for o in &owners {
            acl.add_owner(GroupId::new(o.clone()).expect("valid"));
        }
        for (g, p) in &entries {
            acl.set_perm(
                GroupId::new(g.clone()).expect("valid"),
                Perm::decode(*p).expect("valid code"),
            );
        }
        acl.set_inherit(inherit);
        let decoded = AclFile::decode(&acl.encode()).expect("roundtrip");
        prop_assert_eq!(decoded.encode(), acl.encode());
        prop_assert_eq!(decoded, acl);
    }

    #[test]
    fn acl_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        groups in proptest::collection::vec(group_name(), 1..5),
        names in proptest::collection::vec((segment(), any::<bool>()), 0..5),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        // Noise; then every truncation of a valid encoding of each
        // type, and the same encodings with 1-3 bits flipped.
        decode_each(&bytes);
        for valid in valid_encodings(&groups, &names) {
            for cut in 0..valid.len() {
                decode_each(&valid[..cut]);
            }
            let mut flipped = valid.clone();
            for &(at, bit) in &flips {
                let at = at % flipped.len();
                flipped[at] ^= 1 << bit;
            }
            decode_each(&flipped);
        }
    }

    #[test]
    fn member_list_set_semantics(groups in proptest::collection::vec(group_name(), 0..15)) {
        let mut ml = MemberListFile::new();
        for g in &groups {
            ml.add_membership(GroupId::new(g.clone()).expect("valid"));
        }
        let unique: std::collections::BTreeSet<_> = groups.iter().collect();
        prop_assert_eq!(ml.membership_count(), unique.len());
        let decoded = MemberListFile::decode(&ml.encode()).expect("roundtrip");
        prop_assert_eq!(decoded, ml);
    }

    #[test]
    fn dirfile_children_roundtrip(
        children in proptest::collection::vec((segment(), any::<bool>()), 0..12),
    ) {
        let mut dir = DirFile::new(SegPath::root());
        for (name, is_dir) in &children {
            dir.add_child(
                name,
                if *is_dir { ChildKind::Directory } else { ChildKind::File },
            );
        }
        let decoded = DirFile::decode(&dir.encode()).expect("roundtrip");
        prop_assert_eq!(decoded, dir);
    }

    #[test]
    fn default_groups_are_injective(a in segment(), b in segment()) {
        let ua = UserId::new(a.clone()).expect("valid");
        let ub = UserId::new(b.clone()).expect("valid");
        prop_assert_eq!(a == b, ua.default_group() == ub.default_group());
    }
}
