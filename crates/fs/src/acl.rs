//! ACL files (§IV-B "File Managers", file type 2).
//!
//! "For each f ∈ FS, an ACL file is stored under f's path appended with a
//! suffix. This ACL stores f's access permissions (r_P) and file owners
//! (r_FO)." The inherited-permissions extension (§V-B) adds an inherit
//! flag. Entries are kept sorted (a B-tree map), so updates are a
//! logarithmic search plus one insert — the paper's P3 property.

use std::collections::{BTreeMap, BTreeSet};

use crate::codec::{ascending, Decoder, Encoder};
use crate::id::GroupId;
use crate::perm::{Access, Perm};
use crate::FsError;

const TAG: &[u8; 4] = b"ACL1";

/// The per-file access-control list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AclFile {
    owners: BTreeSet<GroupId>,
    entries: BTreeMap<GroupId, Perm>,
    inherit: bool,
}

impl AclFile {
    /// An empty ACL (no owners, no entries, no inheritance).
    #[must_use]
    pub fn new() -> AclFile {
        AclFile::default()
    }

    /// An ACL whose initial owner is `owner` — "every f ∈ FS has at least
    /// one file owner, which initially is the user uploading the file"
    /// (§II-C), via that user's default group.
    #[must_use]
    pub fn with_owner(owner: GroupId) -> AclFile {
        let mut acl = AclFile::new();
        acl.owners.insert(owner);
        acl
    }

    /// Whether `group` is a file owner (`(g, f) ∈ r_FO`).
    #[must_use]
    pub fn is_owner(&self, group: &GroupId) -> bool {
        self.owners.contains(group)
    }

    /// Adds a file owner (the `r_FO` extension request, F7).
    pub fn add_owner(&mut self, group: GroupId) {
        self.owners.insert(group);
    }

    /// Removes a file owner; returns whether it was present. The last
    /// owner cannot be removed (every file keeps at least one owner).
    pub fn remove_owner(&mut self, group: &GroupId) -> bool {
        if self.owners.len() <= 1 {
            return false;
        }
        self.owners.remove(group)
    }

    /// Iterates over the owner groups.
    pub fn owners(&self) -> impl Iterator<Item = &GroupId> {
        self.owners.iter()
    }

    /// Sets `group`'s permission entry (the `set_p` request of Algo. 1).
    pub fn set_perm(&mut self, group: GroupId, perm: Perm) {
        self.entries.insert(group, perm);
    }

    /// Removes `group`'s entry entirely; returns whether it existed.
    pub fn remove_perm(&mut self, group: &GroupId) -> bool {
        self.entries.remove(group).is_some()
    }

    /// The explicit entry for `group`, if any.
    #[must_use]
    pub fn perm_for(&self, group: &GroupId) -> Option<Perm> {
        self.entries.get(group).copied()
    }

    /// Whether this file inherits permissions from its parent (`f ∈ r_I`,
    /// §V-B).
    #[must_use]
    pub fn inherit(&self) -> bool {
        self.inherit
    }

    /// Sets the inherit flag.
    pub fn set_inherit(&mut self, inherit: bool) {
        self.inherit = inherit;
    }

    /// Whether `group` is granted `access` by this ACL alone (ownership
    /// grants everything, per Table IV's `auth_f`).
    #[must_use]
    pub fn group_allows(&self, group: &GroupId, access: Access) -> bool {
        if self.owners.contains(group) {
            return true;
        }
        self.perm_for(group).is_some_and(|p| p.allows(access))
    }

    /// Number of permission entries (the storage-overhead experiment
    /// sweeps this).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(group, perm)` entries in sorted order.
    pub fn entries(&self) -> impl Iterator<Item = (&GroupId, Perm)> {
        self.entries.iter().map(|(g, p)| (g, *p))
    }

    /// Serializes to the encrypted-file payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(TAG);
        e.u8(self.inherit as u8);
        e.u32(self.owners.len() as u32);
        for owner in &self.owners {
            e.str(owner.as_str());
        }
        e.u32(self.entries.len() as u32);
        for (group, perm) in &self.entries {
            e.str(group.as_str());
            e.u8(perm.encode());
        }
        e.finish()
    }

    /// Parses an [`AclFile::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<AclFile, FsError> {
        let mut d = Decoder::new(data);
        d.tag(TAG)?;
        let inherit = match d.u8()? {
            0 => false,
            1 => true,
            other => return Err(FsError::Codec(format!("bad inherit flag {other}"))),
        };
        let owner_count = d.u32()?;
        let mut owners = BTreeSet::new();
        for _ in 0..owner_count {
            let owner = GroupId::parse_stored(d.str()?)?;
            ascending(owners.last(), &owner)?;
            owners.insert(owner);
        }
        let entry_count = d.u32()?;
        let mut entries = BTreeMap::new();
        for _ in 0..entry_count {
            let group = GroupId::parse_stored(d.str()?)?;
            ascending(entries.last_key_value().map(|(g, _)| g), &group)?;
            let perm = Perm::decode(d.u8()?)?;
            entries.insert(group, perm);
        }
        d.finish()?;
        Ok(AclFile {
            owners,
            entries,
            inherit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::UserId;

    fn g(name: &str) -> GroupId {
        GroupId::new(name).unwrap()
    }

    #[test]
    fn owner_grants_everything() {
        let owner = UserId::new("alice").unwrap().default_group();
        let acl = AclFile::with_owner(owner.clone());
        assert!(acl.is_owner(&owner));
        assert!(acl.group_allows(&owner, Access::Read));
        assert!(acl.group_allows(&owner, Access::Write));
        assert!(!acl.group_allows(&g("strangers"), Access::Read));
    }

    #[test]
    fn permission_entries() {
        let mut acl = AclFile::new();
        acl.set_perm(g("readers"), Perm::Read);
        acl.set_perm(g("writers"), Perm::ReadWrite);
        acl.set_perm(g("banned"), Perm::Deny);
        assert!(acl.group_allows(&g("readers"), Access::Read));
        assert!(!acl.group_allows(&g("readers"), Access::Write));
        assert!(acl.group_allows(&g("writers"), Access::Write));
        assert!(!acl.group_allows(&g("banned"), Access::Read));
        assert_eq!(acl.entry_count(), 3);
        // Update replaces.
        acl.set_perm(g("readers"), Perm::Deny);
        assert!(!acl.group_allows(&g("readers"), Access::Read));
        assert_eq!(acl.entry_count(), 3);
        // Removal revokes.
        assert!(acl.remove_perm(&g("writers")));
        assert!(!acl.group_allows(&g("writers"), Access::Write));
        assert!(!acl.remove_perm(&g("writers")));
    }

    #[test]
    fn last_owner_is_protected() {
        let mut acl = AclFile::with_owner(g("owners"));
        assert!(!acl.remove_owner(&g("owners")), "sole owner must remain");
        acl.add_owner(g("more-owners"));
        assert!(acl.remove_owner(&g("owners")));
        assert!(acl.is_owner(&g("more-owners")));
    }

    #[test]
    fn decode_refuses_entries_out_of_order() {
        let mut acl = AclFile::with_owner(g("a"));
        acl.add_owner(g("b"));
        let mut bytes = acl.encode();
        // Owner "a" becomes "c", which sorts after "b": no ACL encodes
        // so, and decoding it would re-encode to other bytes.
        let at = bytes.iter().position(|&b| b == b'a').expect("owner a");
        bytes[at] = b'c';
        assert!(matches!(AclFile::decode(&bytes), Err(FsError::Codec(_))));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut acl = AclFile::with_owner(g("owners"));
        acl.add_owner(UserId::new("alice").unwrap().default_group());
        acl.set_perm(g("readers"), Perm::Read);
        acl.set_perm(g("writers"), Perm::ReadWrite);
        acl.set_inherit(true);
        let decoded = AclFile::decode(&acl.encode()).unwrap();
        assert_eq!(decoded, acl);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(AclFile::decode(b"").is_err());
        assert!(AclFile::decode(b"XXXX\x00\x00\x00\x00\x00").is_err());
        let mut valid = AclFile::new().encode();
        valid.push(0); // trailing byte
        assert!(AclFile::decode(&valid).is_err());
        // Bad inherit flag.
        let mut bad = AclFile::new().encode();
        bad[4] = 9;
        assert!(AclFile::decode(&bad).is_err());
    }

    #[test]
    fn encoding_is_deterministic_and_sorted() {
        let mut a = AclFile::new();
        a.set_perm(g("zeta"), Perm::Read);
        a.set_perm(g("alpha"), Perm::Write);
        let mut b = AclFile::new();
        b.set_perm(g("alpha"), Perm::Write);
        b.set_perm(g("zeta"), Perm::Read);
        assert_eq!(a.encode(), b.encode(), "insertion order must not matter");
        let order: Vec<&str> = a.entries().map(|(g, _)| g.as_str()).collect();
        assert_eq!(order, vec!["alpha", "zeta"]);
    }
}
