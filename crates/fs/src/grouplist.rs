//! The group-list file (§IV-B "File Managers", file type 3): "one group
//! list file stores all present groups (G)".
//!
//! It also carries the group-ownership relation `r_GO ⊂ G × G` of
//! Table I (`(g1, g2) ∈ r_GO`: group g1 owns group g2), so ownership can
//! be extended to whole groups (F7) without touching every member's
//! member-list file.

use std::collections::{BTreeMap, BTreeSet};

use crate::codec::{ascending, Decoder, Encoder};
use crate::id::GroupId;
use crate::FsError;

const TAG: &[u8; 4] = b"GRL2";

/// The set of existing groups with their owning groups.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupListFile {
    /// owned group -> set of owner groups.
    groups: BTreeMap<GroupId, BTreeSet<GroupId>>,
}

impl GroupListFile {
    /// An empty group list.
    #[must_use]
    pub fn new() -> GroupListFile {
        GroupListFile::default()
    }

    /// Registers a group owned by `initial_owner` ("each g has a group
    /// owner, which initially is the user adding the first member",
    /// §II-C — the caller passes that user's default group). Returns
    /// whether the group was new.
    pub fn add_group(&mut self, group: GroupId, initial_owner: GroupId) -> bool {
        if self.groups.contains_key(&group) {
            return false;
        }
        self.groups.insert(group, BTreeSet::from([initial_owner]));
        true
    }

    /// Deletes a group; returns whether it existed.
    pub fn remove_group(&mut self, group: &GroupId) -> bool {
        self.groups.remove(group).is_some()
    }

    /// Whether `group` exists (Table IV `exists_g`).
    #[must_use]
    pub fn contains(&self, group: &GroupId) -> bool {
        self.groups.contains_key(group)
    }

    /// The owner groups of `group` (none if the group does not exist).
    pub fn owners(&self, group: &GroupId) -> impl Iterator<Item = &GroupId> {
        self.groups.get(group).into_iter().flatten()
    }

    /// Extends ownership of `group` to `new_owner` (`r_GO` update).
    /// Returns whether `new_owner` was new: `false` if it already owned
    /// the group or the group does not exist.
    pub fn add_owner(&mut self, group: &GroupId, new_owner: GroupId) -> bool {
        self.groups
            .get_mut(group)
            .is_some_and(|owners| owners.insert(new_owner))
    }

    /// Removes an owner of `group`; refuses to remove the last owner.
    pub fn remove_owner(&mut self, group: &GroupId, owner: &GroupId) -> bool {
        match self.groups.get_mut(group) {
            Some(owners) if owners.len() > 1 => owners.remove(owner),
            _ => false,
        }
    }

    /// Whether any group in `candidate_owners` owns `group` (the core of
    /// Table IV's `auth_g`).
    #[must_use]
    pub fn owned_by_any<'a>(
        &self,
        group: &GroupId,
        mut candidate_owners: impl Iterator<Item = &'a GroupId>,
    ) -> bool {
        match self.groups.get(group) {
            Some(owners) => candidate_owners.any(|g| owners.contains(g)),
            None => false,
        }
    }

    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterates over groups in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &GroupId> {
        self.groups.keys()
    }

    /// Serializes to the encrypted-file payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(TAG);
        e.u32(self.groups.len() as u32);
        for (group, owners) in &self.groups {
            e.str(group.as_str());
            e.u32(owners.len() as u32);
            for owner in owners {
                e.str(owner.as_str());
            }
        }
        e.finish()
    }

    /// Parses a [`GroupListFile::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<GroupListFile, FsError> {
        let mut d = Decoder::new(data);
        d.tag(TAG)?;
        let count = d.u32()?;
        let mut groups = BTreeMap::new();
        for _ in 0..count {
            let group = GroupId::parse_stored(d.str()?)?;
            ascending(groups.last_key_value().map(|(g, _)| g), &group)?;
            let owner_count = d.u32()?;
            let mut owners = BTreeSet::new();
            for _ in 0..owner_count {
                let owner = GroupId::parse_stored(d.str()?)?;
                ascending(owners.last(), &owner)?;
                owners.insert(owner);
            }
            groups.insert(group, owners);
        }
        d.finish()?;
        Ok(GroupListFile { groups })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::UserId;

    fn g(name: &str) -> GroupId {
        GroupId::new(name).unwrap()
    }

    fn dg(user: &str) -> GroupId {
        UserId::new(user).unwrap().default_group()
    }

    #[test]
    fn create_and_ownership() {
        let mut gl = GroupListFile::new();
        assert!(gl.add_group(g("eng"), dg("alice")));
        assert!(!gl.add_group(g("eng"), dg("bob")), "already exists");
        assert!(gl.contains(&g("eng")));
        assert!(gl.owned_by_any(&g("eng"), [dg("alice")].iter()));
        assert!(!gl.owned_by_any(&g("eng"), [dg("bob")].iter()));
        // Extend ownership to a whole group (F7).
        assert!(gl.add_owner(&g("eng"), g("leads")));
        assert!(!gl.add_owner(&g("eng"), g("leads")), "already an owner");
        assert!(gl.owned_by_any(&g("eng"), [g("leads")].iter()));
        assert!(!gl.add_owner(&g("ghost"), g("leads")));
    }

    #[test]
    fn last_owner_protected() {
        let mut gl = GroupListFile::new();
        gl.add_group(g("eng"), dg("alice"));
        assert!(!gl.remove_owner(&g("eng"), &dg("alice")));
        gl.add_owner(&g("eng"), dg("bob"));
        assert!(gl.remove_owner(&g("eng"), &dg("alice")));
        assert!(gl.owned_by_any(&g("eng"), [dg("bob")].iter()));
    }

    #[test]
    fn remove_group() {
        let mut gl = GroupListFile::new();
        gl.add_group(g("eng"), dg("alice"));
        assert!(gl.remove_group(&g("eng")));
        assert!(!gl.remove_group(&g("eng")));
        assert!(!gl.contains(&g("eng")));
        assert!(gl.owners(&g("eng")).next().is_none());
    }

    #[test]
    fn roundtrip() {
        let mut gl = GroupListFile::new();
        for i in 0..30 {
            gl.add_group(g(&format!("team-{i}")), dg("admin"));
        }
        gl.add_owner(&g("team-3"), g("team-0"));
        assert_eq!(GroupListFile::decode(&gl.encode()).unwrap(), gl);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(GroupListFile::decode(b"").is_err());
        assert!(GroupListFile::decode(b"NOPE\x00\x00\x00\x00").is_err());
        let data = {
            let mut gl = GroupListFile::new();
            gl.add_group(g("x"), dg("y"));
            gl.encode()
        };
        for cut in 1..data.len() {
            assert!(GroupListFile::decode(&data[..cut]).is_err(), "cut {cut}");
        }
    }
}
