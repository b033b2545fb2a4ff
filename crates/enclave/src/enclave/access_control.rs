//! The access-control component (§IV-B): relation updates
//! (Table IV `updateRel`) and authorization checks (`auth_f`, `auth_g`),
//! over the encrypted group list, member lists, and ACL files.

use std::collections::BTreeSet;
use std::sync::Arc;

use seg_fs::{Access, AclFile, GroupId, GroupListFile, MemberListFile, SegPath, UserId};
use seg_obs::Phase;
use seg_proto::ErrorCode;

use crate::error::SegShareError;

use super::names::ObjectId;
use super::trusted_store::{GroupRootFile, TrustedStore};

/// How many ancestors permission inheritance walks while the inherit
/// flag stays set (§V-B). Part of the enclave's measurement.
pub const MAX_INHERIT_DEPTH: u32 = 64;

/// Access-control logic bound to the trusted store.
#[derive(Clone)]
pub struct AccessControl {
    store: Arc<TrustedStore>,
}

impl std::fmt::Debug for AccessControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AccessControl(..)")
    }
}

impl AccessControl {
    pub(crate) fn new(store: Arc<TrustedStore>) -> AccessControl {
        AccessControl { store }
    }

    // ------------------------------------------------- management files

    /// Loads a user's member list (empty if the user has no file yet).
    pub fn member_list(&self, user: &UserId) -> Result<MemberListFile, SegShareError> {
        let id = ObjectId::MemberList(user.clone());
        match self
            .store
            .read_decoded(&id, |body| Ok(MemberListFile::decode(body)?))?
        {
            Some(list) => Ok((*list).clone()),
            None => Ok(MemberListFile::new()),
        }
    }

    /// Persists a user's member list, registering the user in the group
    /// store's root file on first write.
    pub fn save_member_list(
        &self,
        user: &UserId,
        list: &MemberListFile,
    ) -> Result<(), SegShareError> {
        let id = ObjectId::MemberList(user.clone());
        if !self.store.exists(&id)? {
            let mut root = self.group_root()?;
            if root.add_user(user.clone()) {
                // Register the new member-list file *before* writing it:
                // the rollback tree inserts the child into the root's
                // bucket at write time, and verification requires the
                // child to be listed.
                self.store.write(&ObjectId::GroupRoot, &root.encode())?;
            }
        }
        self.store.write(&id, &list.encode())
    }

    fn group_root(&self) -> Result<GroupRootFile, SegShareError> {
        match self.store.read_decoded(&ObjectId::GroupRoot, |body| {
            Ok(GroupRootFile::decode(body)?)
        })? {
            Some(root) => Ok((*root).clone()),
            None => Ok(GroupRootFile::new()),
        }
    }

    /// Loads the group list.
    pub fn group_list(&self) -> Result<GroupListFile, SegShareError> {
        match self.store.read_decoded(&ObjectId::GroupList, |body| {
            Ok(GroupListFile::decode(body)?)
        })? {
            Some(list) => Ok((*list).clone()),
            None => Ok(GroupListFile::new()),
        }
    }

    /// Persists the group list.
    pub fn save_group_list(&self, list: &GroupListFile) -> Result<(), SegShareError> {
        self.store.write(&ObjectId::GroupList, &list.encode())
    }

    /// Loads the ACL of the entry at `path`.
    pub fn acl(&self, path: &SegPath) -> Result<Option<AclFile>, SegShareError> {
        let id = ObjectId::Acl(path.clone());
        Ok(self
            .store
            .read_decoded(&id, |body| Ok(AclFile::decode(body)?))?
            .map(|acl| (*acl).clone()))
    }

    /// Persists the ACL of the entry at `path`.
    pub fn save_acl(&self, path: &SegPath, acl: &AclFile) -> Result<(), SegShareError> {
        self.store
            .write(&ObjectId::Acl(path.clone()), &acl.encode())
    }

    // ------------------------------------------------------------- auth

    /// The groups `user` acts through: memberships plus the default
    /// group `g_u` (Table I).
    pub fn user_groups(&self, user: &UserId) -> Result<BTreeSet<GroupId>, SegShareError> {
        let mut groups: BTreeSet<GroupId> =
            self.member_list(user)?.memberships().cloned().collect();
        groups.insert(user.default_group());
        Ok(groups)
    }

    /// Table IV `auth_g`: may `user` change group `group`?
    /// (`∃g1: (u, g1) ∈ r_G ∧ (g1, g2) ∈ r_GO`.)
    pub fn auth_group(&self, user: &UserId, group: &GroupId) -> Result<bool, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let groups = self.user_groups(user)?;
        Ok(self.group_list()?.owned_by_any(group, groups.iter()))
    }

    /// Table IV `auth_f` with the empty permission: is `user` a file
    /// owner of the entry at `path`? (Ownership is what `set_p`,
    /// inherit-flag, and owner-extension requests require.)
    pub fn is_file_owner(&self, user: &UserId, path: &SegPath) -> Result<bool, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let Some(acl) = self.acl(path)? else {
            return Ok(false);
        };
        let groups = self.user_groups(user)?;
        Ok(groups.iter().any(|g| acl.is_owner(g)))
    }

    /// Table IV `auth_f`, extended with permission inheritance (§V-B):
    /// does `user` have `access` on the entry at `path`?
    ///
    /// Per group: the entry *nearest* to the file along the inherit
    /// chain decides (an explicit entry on the file has precedence over
    /// the parent's, including an explicit deny); file ownership always
    /// grants. The user is authorized if *any* of their groups grants —
    /// deny entries never veto another group's grant (the check is
    /// existential, matching Table IV).
    pub fn auth_file(
        &self,
        user: &UserId,
        access: Access,
        path: &SegPath,
    ) -> Result<bool, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let Some(acl) = self.acl(path)? else {
            return Ok(false);
        };
        let groups = self.user_groups(user)?;
        if groups.iter().any(|g| acl.is_owner(g)) {
            return Ok(true);
        }

        // Collect the ACL chain: the file's, then ancestors while the
        // inherit flag stays set.
        let mut chain = vec![acl];
        let mut cur = path.clone();
        let mut depth = 0;
        while chain.last().expect("non-empty").inherit() && depth < MAX_INHERIT_DEPTH {
            let Some(parent) = cur.parent() else { break };
            let Some(parent_acl) = self.acl(&parent)? else {
                break;
            };
            chain.push(parent_acl);
            cur = parent;
            depth += 1;
        }

        for group in &groups {
            for acl in &chain {
                if let Some(perm) = acl.perm_for(group) {
                    if perm.allows(access) {
                        return Ok(true);
                    }
                    // Explicit entry (grant-of-other-kind or deny): this
                    // group's decision is made; stop walking for it.
                    break;
                }
            }
        }
        Ok(false)
    }

    // --------------------------------------------------- group requests

    /// Algorithm 1 `add_u`: `requester` adds `member` to `group`,
    /// creating the group (owned by the requester, who also joins it) if
    /// it does not exist.
    ///
    /// # Errors
    ///
    /// Returns a [`SegShareError::Request`] with [`ErrorCode::Denied`]
    /// when the requester does not own an existing group.
    pub fn add_user(
        &self,
        requester: &UserId,
        member: &UserId,
        group: &GroupId,
    ) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let mut gl = self.group_list()?;
        if !gl.contains(group) {
            gl.add_group(group.clone(), requester.default_group());
            self.save_group_list(&gl)?;
            // "updateRel(r_G, r_G ∪ (u1, g))" — the creator joins.
            let mut ml = self.member_list(requester)?;
            ml.add_membership(group.clone());
            self.save_member_list(requester, &ml)?;
        }
        if !self.auth_group(requester, group)? {
            return Err(SegShareError::request(
                ErrorCode::Denied,
                format!("{requester} does not own group {group}"),
            ));
        }
        let mut ml = self.member_list(member)?;
        ml.add_membership(group.clone());
        self.save_member_list(member, &ml)
    }

    /// Algorithm 1 `rmv_u`: immediate membership revocation — one
    /// member-list update, no file re-encryption (P3/S4).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Denied`] when the requester does not own the
    /// group.
    pub fn remove_user(
        &self,
        requester: &UserId,
        member: &UserId,
        group: &GroupId,
    ) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        if !self.auth_group(requester, group)? {
            return Err(SegShareError::request(
                ErrorCode::Denied,
                format!("{requester} does not own group {group}"),
            ));
        }
        let mut ml = self.member_list(member)?;
        ml.remove_membership(group);
        self.save_member_list(member, &ml)
    }

    /// Extends group ownership (`r_GO` update): `requester` (an owner of
    /// `group`) makes `owner_group` a further owner (F7).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Denied`] / [`ErrorCode::NotFound`].
    pub fn add_group_owner(
        &self,
        requester: &UserId,
        owner_group: &GroupId,
        group: &GroupId,
    ) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        if !self.auth_group(requester, group)? {
            return Err(SegShareError::request(
                ErrorCode::Denied,
                format!("{requester} does not own group {group}"),
            ));
        }
        let mut gl = self.group_list()?;
        if !gl.contains(owner_group) && !owner_group.is_default_group() {
            return Err(SegShareError::request(
                ErrorCode::NotFound,
                format!("group {owner_group} does not exist"),
            ));
        }
        gl.add_owner(group, owner_group.clone());
        self.save_group_list(&gl)
    }

    /// Shrinks `r_GO`: removes `owner_group` from `group`'s owners.
    /// The last owner is protected (every group keeps one, Table I).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Denied`] for non-owners and
    /// [`ErrorCode::BadRequest`] when the removal would orphan the group.
    pub fn remove_group_owner(
        &self,
        requester: &UserId,
        owner_group: &GroupId,
        group: &GroupId,
    ) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        if !self.auth_group(requester, group)? {
            return Err(SegShareError::request(
                ErrorCode::Denied,
                format!("{requester} does not own group {group}"),
            ));
        }
        let mut gl = self.group_list()?;
        if !gl.remove_owner(group, owner_group) {
            return Err(SegShareError::request(
                ErrorCode::BadRequest,
                format!("cannot remove {owner_group}: groups keep at least one owner"),
            ));
        }
        self.save_group_list(&gl)
    }

    /// Deletes `group` entirely — the intentionally inefficient
    /// operation of §IV-B: "the member list of each user has to be
    /// checked and possibly modified".
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::Denied`] when the requester does not own the
    /// group and [`ErrorCode::NotFound`] when it does not exist.
    pub fn delete_group(&self, requester: &UserId, group: &GroupId) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let mut gl = self.group_list()?;
        if !gl.contains(group) {
            return Err(SegShareError::request(
                ErrorCode::NotFound,
                format!("group {group} does not exist"),
            ));
        }
        if !self.auth_group(requester, group)? {
            return Err(SegShareError::request(
                ErrorCode::Denied,
                format!("{requester} does not own group {group}"),
            ));
        }
        gl.remove_group(group);
        self.save_group_list(&gl)?;
        // Sweep every member list.
        let users: Vec<UserId> = self.group_root()?.users().cloned().collect();
        for user in users {
            let mut ml = self.member_list(&user)?;
            if ml.remove_membership(group) {
                self.save_member_list(&user, &ml)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnclaveConfig;
    use crate::enclave::testutil::components;
    use seg_fs::Perm;

    fn u(name: &str) -> UserId {
        UserId::new(name).unwrap()
    }

    fn g(name: &str) -> GroupId {
        GroupId::new(name).unwrap()
    }

    fn p(path: &str) -> SegPath {
        SegPath::parse(path).unwrap()
    }

    #[test]
    fn member_lists_default_empty_and_persist() {
        let f = components(EnclaveConfig::default());
        let ml = f.access.member_list(&u("bob")).unwrap();
        assert_eq!(ml.membership_count(), 0);
        let mut ml = ml;
        ml.add_membership(g("eng"));
        f.access.save_member_list(&u("bob"), &ml).unwrap();
        assert!(f
            .access
            .member_list(&u("bob"))
            .unwrap()
            .is_member(&g("eng")));
    }

    #[test]
    fn user_groups_include_default_group() {
        let f = components(EnclaveConfig::default());
        let groups = f.access.user_groups(&u("bob")).unwrap();
        assert!(groups.contains(&u("bob").default_group()));
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn add_user_creates_group_with_creator_as_owner_and_member() {
        let f = components(EnclaveConfig::default());
        f.access
            .add_user(&u("alice"), &u("bob"), &g("eng"))
            .unwrap();
        // Creator joined (Algorithm 1's updateRel(r_G, r_G ∪ (u1, g))).
        assert!(f
            .access
            .member_list(&u("alice"))
            .unwrap()
            .is_member(&g("eng")));
        assert!(f
            .access
            .member_list(&u("bob"))
            .unwrap()
            .is_member(&g("eng")));
        assert!(f.access.auth_group(&u("alice"), &g("eng")).unwrap());
        assert!(!f.access.auth_group(&u("bob"), &g("eng")).unwrap());
    }

    #[test]
    fn non_owner_cannot_mutate_group() {
        let f = components(EnclaveConfig::default());
        f.access
            .add_user(&u("alice"), &u("bob"), &g("eng"))
            .unwrap();
        let err = f.access.add_user(&u("bob"), &u("carol"), &g("eng"));
        assert!(matches!(
            err,
            Err(SegShareError::Request {
                code: ErrorCode::Denied,
                ..
            })
        ));
        let err = f.access.remove_user(&u("bob"), &u("alice"), &g("eng"));
        assert!(err.is_err());
    }

    #[test]
    fn group_ownership_extension() {
        let f = components(EnclaveConfig::default());
        f.access
            .add_user(&u("alice"), &u("alice"), &g("eng"))
            .unwrap();
        f.access
            .add_user(&u("alice"), &u("bob"), &g("leads"))
            .unwrap();
        f.access
            .add_group_owner(&u("alice"), &g("leads"), &g("eng"))
            .unwrap();
        // bob, via leads, now owns eng.
        assert!(f.access.auth_group(&u("bob"), &g("eng")).unwrap());
        // Unknown owner group is rejected.
        assert!(f
            .access
            .add_group_owner(&u("alice"), &g("ghost"), &g("eng"))
            .is_err());
    }

    #[test]
    fn auth_file_owner_and_entries() {
        // Tree off: these tests write standalone ACL objects without the
        // surrounding directory structure the tree verifier expects.
        let f = components(EnclaveConfig::minimal());
        let path = p("/doc");
        let mut acl = AclFile::with_owner(u("alice").default_group());
        acl.set_perm(g("readers"), Perm::Read);
        f.access.save_acl(&path, &acl).unwrap();

        // Owner: everything.
        assert!(f
            .access
            .auth_file(&u("alice"), Access::Write, &path)
            .unwrap());
        assert!(f.access.is_file_owner(&u("alice"), &path).unwrap());
        // Member of readers: read only.
        f.access
            .add_user(&u("alice"), &u("bob"), &g("readers"))
            .unwrap();
        assert!(f.access.auth_file(&u("bob"), Access::Read, &path).unwrap());
        assert!(!f.access.auth_file(&u("bob"), Access::Write, &path).unwrap());
        // Stranger: nothing; missing file: nothing.
        assert!(!f
            .access
            .auth_file(&u("carol"), Access::Read, &path)
            .unwrap());
        assert!(!f
            .access
            .auth_file(&u("alice"), Access::Read, &p("/missing"))
            .unwrap());
    }

    #[test]
    fn inheritance_respects_nearest_entry() {
        let f = components(EnclaveConfig::minimal());
        // Parent dir ACL grants bob read; file inherits.
        let dir = p("/d/");
        let file = p("/d/f");
        let mut dir_acl = AclFile::with_owner(u("alice").default_group());
        dir_acl.set_perm(u("bob").default_group(), Perm::Read);
        f.access.save_acl(&dir, &dir_acl).unwrap();
        let mut file_acl = AclFile::with_owner(u("alice").default_group());
        file_acl.set_inherit(true);
        f.access.save_acl(&file, &file_acl).unwrap();

        assert!(f.access.auth_file(&u("bob"), Access::Read, &file).unwrap());
        // Nearest entry wins: explicit deny on the file blocks bob even
        // though the parent grants.
        let mut file_acl = AclFile::with_owner(u("alice").default_group());
        file_acl.set_inherit(true);
        file_acl.set_perm(u("bob").default_group(), Perm::Deny);
        f.access.save_acl(&file, &file_acl).unwrap();
        assert!(!f.access.auth_file(&u("bob"), Access::Read, &file).unwrap());
        // Without the inherit flag, the parent grant is invisible.
        let file_acl = AclFile::with_owner(u("alice").default_group());
        f.access.save_acl(&file, &file_acl).unwrap();
        assert!(!f.access.auth_file(&u("bob"), Access::Read, &file).unwrap());
    }

    #[test]
    fn inherit_depth_is_bounded() {
        // Directories one deeper than the walk, every ACL inheriting: a
        // grant MAX_INHERIT_DEPTH levels above the file is seen, one
        // level further up it is not.
        let f = components(EnclaveConfig::minimal());
        let mut dirs = vec!["/d0/".to_string()];
        for level in 1..=MAX_INHERIT_DEPTH {
            dirs.push(format!("{}d{level}/", dirs.last().unwrap()));
        }
        let file = p(&format!("{}f", dirs.last().unwrap()));
        let inheriting = |grant: bool| {
            let mut acl = AclFile::with_owner(u("alice").default_group());
            acl.set_inherit(true);
            if grant {
                acl.set_perm(u("bob").default_group(), Perm::Read);
            }
            acl
        };
        f.access.save_acl(&file, &inheriting(false)).unwrap();
        for (at, dir) in dirs.iter().enumerate() {
            f.access.save_acl(&p(dir), &inheriting(at == 0)).unwrap();
        }
        assert!(!f.access.auth_file(&u("bob"), Access::Read, &file).unwrap());
        f.access.save_acl(&p(&dirs[1]), &inheriting(true)).unwrap();
        assert!(f.access.auth_file(&u("bob"), Access::Read, &file).unwrap());
    }
}
