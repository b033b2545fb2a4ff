//! Per-user member-list files (§IV-B "File Managers", file type 4).
//!
//! "For each user u ∈ U, a member list file stores u's group memberships
//! (r_G) and also keeps track of u's group ownerships (r_GO)." Keeping
//! memberships per *user* (not per group) is why membership updates touch
//! exactly one small file regardless of group size — the flat ~150 ms
//! curves of Fig. 4. Group ownership is decided from the group list
//! alone (`GroupListFile`), so the file's ownership set is always empty:
//! it is encoded as a zero count, and a non-zero one is refused.

use std::collections::BTreeSet;

use crate::codec::{ascending, Decoder, Encoder};
use crate::id::GroupId;
use crate::FsError;

const TAG: &[u8; 4] = b"MBL1";

/// One user's group memberships.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemberListFile {
    memberships: BTreeSet<GroupId>,
}

impl MemberListFile {
    /// An empty member list.
    #[must_use]
    pub fn new() -> MemberListFile {
        MemberListFile::default()
    }

    /// Adds a membership (`(u, g) ∈ r_G`); returns whether it was new.
    pub fn add_membership(&mut self, group: GroupId) -> bool {
        self.memberships.insert(group)
    }

    /// Revokes a membership; returns whether it existed.
    pub fn remove_membership(&mut self, group: &GroupId) -> bool {
        self.memberships.remove(group)
    }

    /// Whether the user is a member of `group`.
    #[must_use]
    pub fn is_member(&self, group: &GroupId) -> bool {
        self.memberships.contains(group)
    }

    /// Iterates over memberships in sorted order.
    pub fn memberships(&self) -> impl Iterator<Item = &GroupId> {
        self.memberships.iter()
    }

    /// Number of memberships (the Fig. 4 sweep parameter).
    #[must_use]
    pub fn membership_count(&self) -> usize {
        self.memberships.len()
    }

    /// Serializes to the encrypted-file payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(TAG);
        e.u32(self.memberships.len() as u32);
        for m in &self.memberships {
            e.str(m.as_str());
        }
        // The ownership set of the paper's layout, always empty.
        e.u32(0);
        e.finish()
    }

    /// Parses a [`MemberListFile::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<MemberListFile, FsError> {
        let mut d = Decoder::new(data);
        d.tag(TAG)?;
        let m_count = d.u32()?;
        let mut memberships = BTreeSet::new();
        for _ in 0..m_count {
            let group = GroupId::parse_stored(d.str()?)?;
            ascending(memberships.last(), &group)?;
            memberships.insert(group);
        }
        if d.u32()? != 0 {
            return Err(FsError::Codec(
                "member list carries group ownerships".into(),
            ));
        }
        d.finish()?;
        Ok(MemberListFile { memberships })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(name: &str) -> GroupId {
        GroupId::new(name).unwrap()
    }

    #[test]
    fn membership_lifecycle() {
        let mut ml = MemberListFile::new();
        assert!(ml.add_membership(g("eng")));
        assert!(!ml.add_membership(g("eng")), "duplicate add is a no-op");
        assert!(ml.is_member(&g("eng")));
        assert!(ml.remove_membership(&g("eng")));
        assert!(!ml.remove_membership(&g("eng")));
        assert!(!ml.is_member(&g("eng")));
    }

    #[test]
    fn a_nonzero_ownership_count_is_refused() {
        let mut bytes = MemberListFile::new().encode();
        let last = bytes.len() - 4;
        bytes[last] = 1;
        bytes.extend_from_slice(&[3, 0, 0, 0]);
        bytes.extend_from_slice(b"eng");
        assert!(MemberListFile::decode(&bytes).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut ml = MemberListFile::new();
        for i in 0..50 {
            ml.add_membership(g(&format!("group-{i:03}")));
        }
        let decoded = MemberListFile::decode(&ml.encode()).unwrap();
        assert_eq!(decoded, ml);
        assert_eq!(decoded.membership_count(), 50);
    }

    #[test]
    fn pinned_encoding() {
        let mut ml = MemberListFile::new();
        ml.add_membership(g("ops"));
        ml.add_membership(g("eng"));
        // Tag, two memberships in order, and the zero count where an
        // ownership set was once encoded.
        let bytes: &[u8] = &[
            77, 66, 76, 49, 2, 0, 0, 0, 3, 0, 0, 0, 101, 110, 103, 3, 0, 0, 0, 111, 112, 115, 0, 0,
            0, 0,
        ];
        assert_eq!(ml.encode(), bytes);
        assert_eq!(MemberListFile::decode(bytes).unwrap(), ml);
    }

    #[test]
    fn empty_roundtrip() {
        let ml = MemberListFile::new();
        assert_eq!(MemberListFile::decode(&ml.encode()).unwrap(), ml);
    }

    #[test]
    fn decode_rejects_truncation() {
        let data = {
            let mut ml = MemberListFile::new();
            ml.add_membership(g("x"));
            ml.encode()
        };
        for cut in 0..data.len() {
            assert!(MemberListFile::decode(&data[..cut]).is_err(), "cut {cut}");
        }
    }
}
