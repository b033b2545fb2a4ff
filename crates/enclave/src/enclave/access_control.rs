//! The access-control component (§IV-B): relation updates
//! (Table IV `updateRel`) and authorization checks (`auth_f`, `auth_g`),
//! over the encrypted group list, member lists, and ACL files.

use std::sync::Arc;

use seg_fs::{Access, AclFile, GroupId, GroupListFile, MemberListFile, SegPath, UserId};
use seg_obs::Phase;
use seg_proto::ErrorCode;

use crate::error::SegShareError;

use super::names::ObjectId;
use super::trusted_store::{Change, GroupRootFile, TrustedStore};

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

/// The groups a user acts through (Table I): the default group `g_u`
/// and the memberships of the user's member list, read in place.
struct Groups {
    default: GroupId,
    members: Option<Arc<MemberListFile>>,
}

impl Groups {
    fn contains(&self, group: &GroupId) -> bool {
        *group == self.default || self.members.as_ref().is_some_and(|m| m.is_member(group))
    }

    /// Table IV `auth_g` over a group list read in place.
    fn own(&self, list: &GroupListFile, group: &GroupId) -> bool {
        list.owners(group).any(|owner| self.contains(owner))
    }
}

/// A management file that first boot wrote and no request deletes:
/// the store not returning it is tampering, never an empty file.
fn required<T>(stored: Option<Arc<T>>, what: &str) -> Result<Arc<T>, SegShareError> {
    stored.ok_or_else(|| SegShareError::Integrity(format!("{what} is missing from the store")))
}

fn not_owner(requester: &UserId, group: &GroupId) -> SegShareError {
    SegShareError::request(
        ErrorCode::Denied,
        format!("{requester} does not own group {group}"),
    )
}

impl AccessControl {
    pub(crate) fn new(store: Arc<TrustedStore>) -> AccessControl {
        AccessControl { store }
    }

    // ------------------------------------------------- management files
    //
    // Checks read the decoded files the cache holds, in place; only a
    // mutator copies one, to edit it.

    fn read_member_list(
        &self,
        user: &UserId,
    ) -> Result<Option<Arc<MemberListFile>>, SegShareError> {
        // A list exists iff the verified group-store root registers its
        // user, so a requester in no group costs no store read once
        // that absence is cached.
        self.store.read_registered(
            &ObjectId::MemberList(user.clone()),
            |body| Ok(MemberListFile::decode(body)?),
            || Ok(self.read_group_root()?.contains(user)),
        )
    }

    fn read_group_list(&self) -> Result<Arc<GroupListFile>, SegShareError> {
        let list = self.store.read_decoded(&ObjectId::GroupList, |body| {
            Ok(GroupListFile::decode(body)?)
        })?;
        required(list, "the group list")
    }

    /// The ACL of the entry at `path`, read in place. Found, it is the
    /// verified read that proves the entry exists, and the request hands
    /// it on as the first link of [`AccessControl::auth_file`]'s chain.
    pub fn acl(&self, path: &SegPath) -> Result<Option<Arc<AclFile>>, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        self.store
            .read_decoded(&ObjectId::Acl(path.clone()), |body| {
                Ok(AclFile::decode(body)?)
            })
    }

    fn groups(&self, user: &UserId) -> Result<Groups, SegShareError> {
        Ok(Groups {
            default: user.default_group(),
            members: self.read_member_list(user)?,
        })
    }

    /// Applies `edit` to `user`'s member list — `stored`, as the request
    /// read it — and writes the list only when `edit` changed it. A list
    /// the store does not return is new only if the verified group-root
    /// file does not register `user`: a registered user's list that is
    /// missing was hidden or deleted by the store, and a fresh one in
    /// its place would silently drop or keep memberships. A new list's
    /// user is registered in the root file in the commit that writes the
    /// list: verification requires the root to list every child whose
    /// record its bucket holds, and one commit updates both at once.
    fn edit_member_list(
        &self,
        user: &UserId,
        stored: Option<Arc<MemberListFile>>,
        edit: impl FnOnce(&mut MemberListFile) -> bool,
    ) -> Result<(), SegShareError> {
        let (mut list, root) = match stored {
            Some(stored) => (Arc::unwrap_or_clone(stored), None),
            None => {
                let mut root = Arc::unwrap_or_clone(self.read_group_root()?);
                if !root.add_user(user.clone()) {
                    return Err(SegShareError::Integrity(format!(
                        "the member list of registered user {user} is missing from the store"
                    )));
                }
                (MemberListFile::new(), Some(root))
            }
        };
        if !edit(&mut list) {
            return Ok(());
        }
        let list_id = ObjectId::MemberList(user.clone());
        let list = list.encode();
        match root {
            // Registered and written in one commit.
            Some(root) => self.store.commit([
                (&ObjectId::GroupRoot, Change::Body(&root.encode())),
                (&list_id, Change::Body(&list)),
            ]),
            None => self.store.commit([(&list_id, Change::Body(&list))]),
        }
    }

    fn read_group_root(&self) -> Result<Arc<GroupRootFile>, SegShareError> {
        let root = self.store.read_decoded(&ObjectId::GroupRoot, |body| {
            Ok(GroupRootFile::decode(body)?)
        })?;
        required(root, "the group-store root")
    }

    /// Persists the group list.
    pub fn save_group_list(&self, list: &GroupListFile) -> Result<(), SegShareError> {
        self.store.write(&ObjectId::GroupList, &list.encode())
    }

    /// Persists the ACL of the entry at `path`.
    pub fn save_acl(&self, path: &SegPath, acl: &AclFile) -> Result<(), SegShareError> {
        self.store
            .write(&ObjectId::Acl(path.clone()), &acl.encode())
    }

    // ------------------------------------------------------------- auth

    /// Table IV `auth_g`: may `user` change group `group`?
    /// (`∃g1: (u, g1) ∈ r_G ∧ (g1, g2) ∈ r_GO`.)
    pub fn auth_group(&self, user: &UserId, group: &GroupId) -> Result<bool, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let groups = self.groups(user)?;
        Ok(groups.own(&*self.read_group_list()?, group))
    }

    /// Table IV `auth_f` with the empty permission: is `user` a file
    /// owner of the entry whose ACL is `acl`? (Ownership is what `set_p`,
    /// inherit-flag, and owner-extension requests require.)
    pub fn is_file_owner(&self, user: &UserId, acl: &AclFile) -> Result<bool, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let groups = self.groups(user)?;
        let owner = acl.owners().any(|owner| groups.contains(owner));
        Ok(owner)
    }

    /// Table IV `auth_f`, extended with permission inheritance (§V-B):
    /// does `user` have `access` on the entry at `path`, whose ACL the
    /// request read as `acl`?
    ///
    /// Per group: the entry *nearest* to the file along the inherit
    /// chain decides (an explicit entry on the file has precedence over
    /// the parent's, including an explicit deny); file ownership always
    /// grants. The user is authorized if *any* of their groups grants —
    /// deny entries never veto another group's grant (the check is
    /// existential, matching Table IV).
    ///
    /// The chain is walked nearest-first, one ACL at a time, over each
    /// ACL's own entries, and the walk stops at the first grant: an
    /// ancestor is read only when no nearer ACL granted.
    pub fn auth_file(
        &self,
        user: &UserId,
        access: Access,
        path: &SegPath,
        mut acl: Arc<AclFile>,
    ) -> Result<bool, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        let groups = self.groups(user)?;
        if acl.owners().any(|owner| groups.contains(owner)) {
            return Ok(true);
        }
        // The user's groups whose nearest entry granted too little or
        // denied: decided, so a farther entry for them is passed over.
        let mut decided: Vec<GroupId> = Vec::new();
        let mut next = path.parent();
        let mut depth = 0;
        loop {
            for (group, perm) in acl.entries() {
                if groups.contains(group) && !decided.contains(group) {
                    if perm.allows(access) {
                        return Ok(true);
                    }
                    decided.push(group.clone());
                }
            }
            // Then the ancestors, while the inherit flag stays set.
            if !acl.inherit() || depth == MAX_INHERIT_DEPTH {
                return Ok(false);
            }
            let Some(dir) = next else {
                return Ok(false);
            };
            let Some(dir_acl) = self.acl(&dir)? else {
                return Ok(false);
            };
            next = dir.parent();
            acl = dir_acl;
            depth += 1;
        }
    }

    /// [`AccessControl::auth_file`] on the entry at `path`, its ACL read
    /// here: `false` when the store returns none.
    pub fn auth_path(
        &self,
        user: &UserId,
        access: Access,
        path: &SegPath,
    ) -> Result<bool, SegShareError> {
        let _prof = seg_obs::prof::phase(Phase::Authz);
        match self.acl(path)? {
            Some(acl) => self.auth_file(user, access, path, acl),
            None => Ok(false),
        }
    }

    // --------------------------------------------------- group requests

    /// Algorithm 1 `add_u`: `requester` adds `member` to `group`,
    /// creating the group (owned by the requester, who also joins it) if
    /// it does not exist. A member list is written only when it changes.
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
        let stored = self.read_group_list()?;
        let join = |user: &UserId| {
            let stored = self.read_member_list(user)?;
            self.edit_member_list(user, stored, |ml| ml.add_membership(group.clone()))
        };
        if stored.contains(group) {
            if !self.groups(requester)?.own(&stored, group) {
                return Err(not_owner(requester, group));
            }
        } else {
            // A new group: the requester's default group is its owner.
            let mut list = Arc::unwrap_or_clone(stored);
            list.add_group(group.clone(), requester.default_group());
            self.save_group_list(&list)?;
            // "updateRel(r_G, r_G ∪ (u1, g))" — the creator joins.
            join(requester)?;
            if member == requester {
                return Ok(());
            }
        }
        join(member)
    }

    /// Algorithm 1 `rmv_u`: immediate membership revocation — one
    /// member-list update, no file re-encryption (P3/S4); none when
    /// `member` is not in `group`.
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
        let groups = self.groups(requester)?;
        if !groups.own(&*self.read_group_list()?, group) {
            return Err(not_owner(requester, group));
        }
        let stored = if member == requester {
            groups.members
        } else {
            self.read_member_list(member)?
        };
        self.edit_member_list(member, stored, |ml| ml.remove_membership(group))
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
        let groups = self.groups(requester)?;
        let stored = self.read_group_list()?;
        if !groups.own(&stored, group) {
            return Err(not_owner(requester, group));
        }
        if !stored.contains(owner_group) && !owner_group.is_default_group() {
            return Err(SegShareError::request(
                ErrorCode::NotFound,
                format!("group {owner_group} does not exist"),
            ));
        }
        let mut list = Arc::unwrap_or_clone(stored);
        if list.add_owner(group, owner_group.clone()) {
            self.save_group_list(&list)?;
        }
        Ok(())
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
        let groups = self.groups(requester)?;
        let stored = self.read_group_list()?;
        if !groups.own(&stored, group) {
            return Err(not_owner(requester, group));
        }
        let mut list = Arc::unwrap_or_clone(stored);
        if !list.remove_owner(group, owner_group) {
            return Err(SegShareError::request(
                ErrorCode::BadRequest,
                format!("cannot remove {owner_group}: groups keep at least one owner"),
            ));
        }
        self.save_group_list(&list)
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
        let stored = self.read_group_list()?;
        if !stored.contains(group) {
            return Err(SegShareError::request(
                ErrorCode::NotFound,
                format!("group {group} does not exist"),
            ));
        }
        if !self.groups(requester)?.own(&stored, group) {
            return Err(not_owner(requester, group));
        }
        let mut list = Arc::unwrap_or_clone(stored);
        list.remove_group(group);
        self.save_group_list(&list)?;
        // Sweep every registered member list; copy only those that change.
        for user in self.read_group_root()?.users() {
            let stored = self.read_member_list(user)?;
            if stored.as_ref().is_none_or(|ml| ml.is_member(group)) {
                self.edit_member_list(user, stored, |ml| ml.remove_membership(group))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnclaveConfig;
    use crate::enclave::names::StoreKind;
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

    impl AccessControl {
        /// `user`'s member list as a copy (empty if there is no file).
        fn member_list(&self, user: &UserId) -> MemberListFile {
            let stored = self.read_member_list(user).unwrap();
            stored.map(Arc::unwrap_or_clone).unwrap_or_default()
        }

        /// Stores `list` as `user`'s member list.
        fn save_member_list(&self, user: &UserId, list: &MemberListFile) {
            let stored = self.read_member_list(user).unwrap();
            self.edit_member_list(user, stored, |ml| {
                *ml = list.clone();
                true
            })
            .unwrap();
        }

        /// [`AccessControl::is_file_owner`] on the entry at `path`.
        fn owns_path(&self, user: &UserId, path: &SegPath) -> bool {
            let acl = self.acl(path).unwrap();
            acl.is_some_and(|acl| self.is_file_owner(user, &acl).unwrap())
        }

        /// `path`'s ACL as a copy, to edit.
        fn acl_copy(&self, path: &SegPath) -> AclFile {
            Arc::unwrap_or_clone(self.acl(path).unwrap().unwrap())
        }
    }

    #[test]
    fn member_lists_default_empty_and_persist() {
        let f = components(EnclaveConfig::default());
        let ml = f.access.member_list(&u("bob"));
        assert_eq!(ml.membership_count(), 0);
        let mut ml = ml;
        ml.add_membership(g("eng"));
        f.access.save_member_list(&u("bob"), &ml);
        assert!(f.access.member_list(&u("bob")).is_member(&g("eng")));
    }

    #[test]
    fn user_groups_include_default_group() {
        let f = components(EnclaveConfig::default());
        let groups = f.access.groups(&u("bob")).unwrap();
        assert!(groups.members.is_none(), "bob has no member list");
        assert!(groups.contains(&u("bob").default_group()));
        assert!(!groups.contains(&u("alice").default_group()));
        assert!(!groups.contains(&g("eng")));
    }

    #[test]
    fn add_user_creates_group_with_creator_as_owner_and_member() {
        let f = components(EnclaveConfig::default());
        f.access
            .add_user(&u("alice"), &u("bob"), &g("eng"))
            .unwrap();
        // Creator joined (Algorithm 1's updateRel(r_G, r_G ∪ (u1, g))).
        assert!(f.access.member_list(&u("alice")).is_member(&g("eng")));
        assert!(f.access.member_list(&u("bob")).is_member(&g("eng")));
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
            .auth_path(&u("alice"), Access::Write, &path)
            .unwrap());
        assert!(f.access.owns_path(&u("alice"), &path));
        // Member of readers: read only.
        f.access
            .add_user(&u("alice"), &u("bob"), &g("readers"))
            .unwrap();
        assert!(f.access.auth_path(&u("bob"), Access::Read, &path).unwrap());
        assert!(!f.access.auth_path(&u("bob"), Access::Write, &path).unwrap());
        // Stranger: nothing; missing file: nothing.
        assert!(!f
            .access
            .auth_path(&u("carol"), Access::Read, &path)
            .unwrap());
        assert!(!f
            .access
            .auth_path(&u("alice"), Access::Read, &p("/missing"))
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

        assert!(f.access.auth_path(&u("bob"), Access::Read, &file).unwrap());
        // Nearest entry wins: explicit deny on the file blocks bob even
        // though the parent grants.
        let mut file_acl = AclFile::with_owner(u("alice").default_group());
        file_acl.set_inherit(true);
        file_acl.set_perm(u("bob").default_group(), Perm::Deny);
        f.access.save_acl(&file, &file_acl).unwrap();
        assert!(!f.access.auth_path(&u("bob"), Access::Read, &file).unwrap());
        // Without the inherit flag, the parent grant is invisible.
        let file_acl = AclFile::with_owner(u("alice").default_group());
        f.access.save_acl(&file, &file_acl).unwrap();
        assert!(!f.access.auth_path(&u("bob"), Access::Read, &file).unwrap());
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
        assert!(!f.access.auth_path(&u("bob"), Access::Read, &file).unwrap());
        f.access.save_acl(&p(&dirs[1]), &inheriting(true)).unwrap();
        assert!(f.access.auth_path(&u("bob"), Access::Read, &file).unwrap());
    }

    /// With the cache on, a user's missing member list is decided by the
    /// verified group-store root: an unregistered user's absence is
    /// cached and read from no store again, a joining user's list
    /// replaces it, and a registered user's list that the store hides
    /// fails closed.
    #[test]
    fn a_missing_member_list_is_decided_by_the_root() {
        let f = components(EnclaveConfig {
            cache: true,
            ..EnclaveConfig::default()
        });
        let (alice, bob) = (u("alice"), u("bob"));
        let store = &f.access.store;
        let store_reads = || -> u64 { store.stores().iter().map(|s| s.tally().0).sum() };
        assert!(!f.access.auth_group(&bob, &g("eng")).unwrap());
        let before = store_reads();
        for _ in 0..10 {
            assert!(f.access.read_member_list(&bob).unwrap().is_none());
            assert!(!f.access.auth_group(&bob, &g("eng")).unwrap());
        }
        assert_eq!(store_reads() - before, 0, "an absence read the store");

        f.access.add_user(&alice, &bob, &g("eng")).unwrap();
        assert!(f.access.member_list(&bob).is_member(&g("eng")));

        let id = ObjectId::MemberList(bob.clone());
        let key = store.keys().storage_key(&id, true);
        let group = &store.stores()[StoreKind::Group as usize];
        assert!(group.get(&key).unwrap().is_some());
        let mut hide = seg_store_api::WriteBatch::new();
        hide.delete(key);
        group.write(hide).unwrap();
        store.evict(&id);
        for _ in 0..2 {
            assert!(matches!(
                f.access.read_member_list(&bob),
                Err(SegShareError::Integrity(msg)) if msg.contains("registered")
            ));
        }
        assert!(f.access.auth_group(&bob, &g("eng")).is_err());
    }

    /// Small content bodies cannot flush what authorization reads: after
    /// more than the whole cache's worth of bodies has been read, a
    /// member's authorization over a four-level inherit chain is served
    /// without a single store access, and the cache, in all, stays
    /// within its 8 MiB.
    #[test]
    fn reading_bodies_leaves_authorization_metadata_cached() {
        const CACHE_BYTES: u64 = 8 * 1024 * 1024;
        let f = components(EnclaveConfig {
            cache: true,
            ..EnclaveConfig::default()
        });
        let alice = u("alice");
        let upload = |path: &SegPath, body: &[u8]| {
            let mut ctx = f
                .files
                .begin_upload(path, body.len() as u64, Some(alice.default_group()))
                .unwrap();
            f.files.upload_chunk(&mut ctx, body).unwrap();
            assert!(f.files.upload_chunk(&mut ctx, &[]).unwrap(), "complete");
            f.files.commit_upload(ctx).unwrap();
        };
        // `/d0/` grants `readers`; `/d0/d1/d2/d3/` and the doc inherit.
        let mut dir = SegPath::root();
        for level in 0..4 {
            dir = dir.join_dir(&format!("d{level}")).unwrap();
            f.files.create_dir(&dir, alice.default_group()).unwrap();
            let mut acl = f.access.acl_copy(&dir);
            if level == 0 {
                acl.set_perm(g("readers"), Perm::Read);
            } else {
                acl.set_inherit(true);
            }
            f.access.save_acl(&dir, &acl).unwrap();
        }
        let doc = dir.join_file("doc").unwrap();
        upload(&doc, b"the doc");
        let mut acl = f.access.acl_copy(&doc);
        acl.set_inherit(true);
        f.access.save_acl(&doc, &acl).unwrap();
        let bob = u("bob");
        for group in ["readers", "eng", "ops", "legal"] {
            f.access.add_user(&alice, &bob, &g(group)).unwrap();
        }
        // More than the whole cache's worth of bodies the cache keeps.
        let bulk = SegPath::parse("/bulk/").unwrap();
        f.files.create_dir(&bulk, alice.default_group()).unwrap();
        let body = vec![7u8; 60 * 1024];
        let bodies: Vec<SegPath> = (0..150)
            .map(|i| bulk.join_file(&format!("b{i}")).unwrap())
            .collect();
        for path in &bodies {
            upload(path, &body);
        }

        // Warm: one authorization reads the chain and bob's member list.
        assert!(f.access.auth_path(&bob, Access::Read, &doc).unwrap());
        for path in &bodies {
            assert_eq!(f.files.read_file(path).unwrap().len(), body.len());
        }
        let store_reads = || -> u64 { f.access.store.stores().iter().map(|s| s.tally().0).sum() };
        let before = store_reads();
        assert!(f.access.auth_path(&bob, Access::Read, &doc).unwrap());
        assert!(!f.access.auth_path(&bob, Access::Write, &doc).unwrap());
        assert_eq!(store_reads() - before, 0, "re-authorizing reads the store");

        let stats = f.access.store.cache_stats().unwrap();
        assert!(stats.evictions > 0, "the bodies overflowed their budget");
        assert!(stats.bytes <= CACHE_BYTES, "{stats:?}");
        assert!(f.sgx.epc().peak_bytes() <= CACHE_BYTES);
    }

    /// The checks as first written — the user's groups copied into a
    /// set, every ACL of the inherit chain copied before any is looked
    /// at — kept as the oracle the borrowed checks are held against.
    mod oracle {
        use std::collections::BTreeSet;

        use super::*;

        fn user_groups(ac: &AccessControl, user: &UserId) -> BTreeSet<GroupId> {
            let mut groups: BTreeSet<GroupId> =
                ac.member_list(user).memberships().cloned().collect();
            groups.insert(user.default_group());
            groups
        }

        pub(super) fn auth_group(ac: &AccessControl, user: &UserId, group: &GroupId) -> bool {
            let groups = user_groups(ac, user);
            let list = ac.read_group_list().unwrap();
            list.owned_by_any(group, groups.iter())
        }

        pub(super) fn is_file_owner(ac: &AccessControl, user: &UserId, path: &SegPath) -> bool {
            let Some(acl) = ac.acl(path).unwrap() else {
                return false;
            };
            user_groups(ac, user).iter().any(|g| acl.is_owner(g))
        }

        pub(super) fn auth_file(
            ac: &AccessControl,
            user: &UserId,
            access: Access,
            path: &SegPath,
        ) -> bool {
            let Some(acl) = ac.acl(path).unwrap() else {
                return false;
            };
            let groups = user_groups(ac, user);
            if groups.iter().any(|g| acl.is_owner(g)) {
                return true;
            }
            let mut chain = vec![acl];
            let mut cur = path.clone();
            let mut depth = 0;
            while chain.last().expect("non-empty").inherit() && depth < MAX_INHERIT_DEPTH {
                let Some(parent) = cur.parent() else { break };
                let Some(parent_acl) = ac.acl(&parent).unwrap() else {
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
                            return true;
                        }
                        break;
                    }
                }
            }
            false
        }
    }

    mod borrowed_checks {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The groups ACLs and the group list draw from: five named
        /// groups, then bob's and alice's default groups.
        fn pool(i: usize) -> GroupId {
            match i {
                0..5 => g(&format!("g{i}")),
                5 => u("bob").default_group(),
                _ => u("alice").default_group(),
            }
        }
        const POOL: usize = 7;
        /// Bob's memberships draw from the pool and from as many groups
        /// that no ACL names.
        const FILLER: usize = 20;

        /// One ACL of the chain, nearest the file first: whether it is
        /// stored at all, its inherit flag, owners and entries.
        #[derive(Clone, Debug)]
        struct Level {
            present: bool,
            inherit: bool,
            owners: Vec<usize>,
            entries: Vec<(usize, Perm)>,
        }

        fn level() -> impl Strategy<Value = Level> {
            (
                0u8..8,
                0u8..4,
                vec(0..POOL, 0..2),
                vec((0..POOL, 0u8..4), 0..4),
            )
                .prop_map(|(present, inherit, owners, entries)| Level {
                    present: present != 0,
                    inherit: inherit != 0,
                    owners,
                    entries: entries
                        .into_iter()
                        .map(|(group, perm)| (group, Perm::decode(perm).unwrap()))
                        .collect(),
                })
        }

        /// An inheriting ACL with no owner and no entry: what a deep
        /// chain is padded with.
        fn pass_through() -> Level {
            Level {
                present: true,
                inherit: true,
                owners: Vec::new(),
                entries: Vec::new(),
            }
        }

        proptest! {
            #[test]
            fn borrowed_checks_decide_as_the_oracle(
                levels in vec(level(), 1..6),
                deep in 0u8..6,
                members in (any::<bool>(), vec(0..POOL + FILLER, 0..24)),
                owned_groups in vec((0..5usize, vec(0..POOL, 1..3)), 0..5),
                cached in any::<bool>(),
            ) {
                let f = components(EnclaveConfig {
                    cache: cached,
                    ..EnclaveConfig::minimal()
                });
                // One case in six pads the chain to one ACL past the
                // walk's reach, so the last levels drawn sit at depths
                // MAX_INHERIT_DEPTH and beyond.
                let mut levels = levels;
                if deep == 0 {
                    let pad = MAX_INHERIT_DEPTH as usize + 2 - levels.len();
                    levels.splice(1..1, std::iter::repeat_n(pass_through(), pad));
                }
                // `levels[0]` is the file's ACL, the last the top
                // directory's, right below the root.
                let n = levels.len();
                let mut paths = Vec::with_capacity(n);
                let mut dir = SegPath::root();
                for i in (1..n).rev() {
                    dir = dir.join_dir(&format!("l{i}")).unwrap();
                    paths.push(dir.clone());
                }
                paths.push(dir.join_file("f").unwrap());
                paths.reverse();
                for (level, path) in levels.iter().zip(&paths) {
                    if !level.present {
                        continue;
                    }
                    let mut acl = AclFile::new();
                    acl.set_inherit(level.inherit);
                    for &owner in &level.owners {
                        acl.add_owner(pool(owner));
                    }
                    for &(group, perm) in &level.entries {
                        acl.set_perm(pool(group), perm);
                    }
                    f.access.save_acl(path, &acl).unwrap();
                }
                let (has_list, memberships) = members;
                if has_list {
                    let mut ml = MemberListFile::new();
                    for i in memberships {
                        let group = if i < POOL { pool(i) } else { g(&format!("filler{i}")) };
                        ml.add_membership(group);
                    }
                    f.access.save_member_list(&u("bob"), &ml);
                }
                let mut list = GroupListFile::new();
                for (group, owners) in owned_groups {
                    let group = pool(group);
                    list.add_group(group.clone(), pool(owners[0]));
                    for &owner in &owners[1..] {
                        list.add_owner(&group, pool(owner));
                    }
                }
                f.access.save_group_list(&list).unwrap();

                let ac = &f.access;
                let bob = u("bob");
                // Every level of a short chain; the file, its parent
                // and the top of a deep one.
                let checked: Vec<usize> = if n <= 8 { (0..n).collect() } else { vec![0, 1, n - 1] };
                for &i in &checked {
                    let path = &paths[i];
                    for access in [Access::Read, Access::Write] {
                        prop_assert_eq!(
                            ac.auth_path(&bob, access, path).unwrap(),
                            oracle::auth_file(ac, &bob, access, path),
                            "auth_file {:?} at level {} of {:?}", access, i, levels
                        );
                    }
                    prop_assert_eq!(
                        ac.owns_path(&bob, path),
                        oracle::is_file_owner(ac, &bob, path),
                        "is_file_owner at level {} of {:?}", i, levels
                    );
                }
                for group in (0..POOL).map(pool).chain([g("absent")]) {
                    prop_assert_eq!(
                        ac.auth_group(&bob, &group).unwrap(),
                        oracle::auth_group(ac, &bob, &group),
                        "auth_group {}", group
                    );
                }
            }
        }
    }
}
