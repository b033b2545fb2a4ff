//! Per-user member-list files (§IV-B "File Managers", file type 4).
//!
//! "For each user u ∈ U, a member list file stores u's group memberships
//! (r_G) and also keeps track of u's group ownerships (r_GO)." Keeping
//! memberships per *user* (not per group) is why membership updates touch
//! exactly one small file regardless of group size — the flat ~150 ms
//! curves of Fig. 4.

use std::collections::BTreeSet;

use crate::codec::{ascending, Decoder, Encoder};
use crate::id::GroupId;
use crate::FsError;

const TAG: &[u8; 4] = b"MBL1";

/// One user's group memberships and group ownerships.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemberListFile {
    memberships: BTreeSet<GroupId>,
    ownerships: BTreeSet<GroupId>,
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

    /// Grants group ownership via one of the user's groups
    /// (`(g1, g2) ∈ r_GO` with g1 a group this user belongs to — stored
    /// here flattened per user, as the paper's member list "keeps track
    /// of u's group ownerships").
    pub fn add_ownership(&mut self, group: GroupId) -> bool {
        self.ownerships.insert(group)
    }

    /// Revokes a group ownership; returns whether it existed.
    pub fn remove_ownership(&mut self, group: &GroupId) -> bool {
        self.ownerships.remove(group)
    }

    /// Whether the user owns `group`.
    #[must_use]
    pub fn owns_group(&self, group: &GroupId) -> bool {
        self.ownerships.contains(group)
    }

    /// Iterates over owned groups in sorted order.
    pub fn ownerships(&self) -> impl Iterator<Item = &GroupId> {
        self.ownerships.iter()
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
        e.u32(self.ownerships.len() as u32);
        for o in &self.ownerships {
            e.str(o.as_str());
        }
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
        let o_count = d.u32()?;
        let mut ownerships = BTreeSet::new();
        for _ in 0..o_count {
            let group = GroupId::parse_stored(d.str()?)?;
            ascending(ownerships.last(), &group)?;
            ownerships.insert(group);
        }
        d.finish()?;
        Ok(MemberListFile {
            memberships,
            ownerships,
        })
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
    fn ownership_is_separate_from_membership() {
        let mut ml = MemberListFile::new();
        ml.add_ownership(g("eng"));
        assert!(ml.owns_group(&g("eng")));
        assert!(!ml.is_member(&g("eng")));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut ml = MemberListFile::new();
        for i in 0..50 {
            ml.add_membership(g(&format!("group-{i:03}")));
        }
        ml.add_ownership(g("group-007"));
        ml.add_ownership(g("group-042"));
        let decoded = MemberListFile::decode(&ml.encode()).unwrap();
        assert_eq!(decoded, ml);
        assert_eq!(decoded.membership_count(), 50);
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
