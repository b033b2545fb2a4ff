//! The **SeGShare row of Table III** (the classification against
//! Table II's objectives). A static rendering: every cell's evidence is
//! the tests it names, by their exact names, in
//! `tests/integration_objectives.rs`, `integration_threat_model.rs` and
//! `integration_end_to_end.rs` — tier-1 runs them, and a unit test here
//! fails when a named test no longer exists. The contrast the table
//! draws against cryptographically-protected systems (row \[10\], the HE
//! baseline's re-encryption bill) is measured by ablation 4.

use super::{Ctx, Outcome};

/// Objective, description, SeGShare's cell, then — after the last run
/// of spaces — the tests behind it, comma-separated.
const TABLE: &str = "  F1  sharing with users / groups            full/full  f1_sharing_with_users_and_groups
  F2  dynamic permissions / memberships      full/full  f2_f3_dynamic_permissions_set_by_users_not_admins
  F3  users set permissions                  full       f2_f3_dynamic_permissions_set_by_users_not_admins
  F4  separate read / write permissions      full/full  f4_separate_read_and_write
  F5  no special client hardware             full       f5_p1_client_needs_no_hardware_and_constant_storage
  F6  non-interactive updates                full       f6_non_interactive_updates
  F7  multiple file / group owners           full/full  multiple_owners_and_group_owned_groups
  F8  authn/authz separation                 full       f8_separation_of_authentication_and_authorization
  F9  dedup of encrypted files               full       f9_deduplication_of_encrypted_files
 F10  inherited permissions                  full       f10_permission_inheritance
  P1  constant client storage                full       f5_p1_client_needs_no_hardware_and_constant_storage
  P2  group-based permissions                full       p2_group_based_permission_definition
  P3  revocation w/o re-encryption           full/full  p3_revocation_rewrites_no_content_files
  P4  constant ciphertexts per file          full       p4_constant_ciphertexts_per_file
  P5  groups share one encrypted file        full       p5_groups_share_one_encrypted_file
  S1  confidentiality incl. structure        full       provider_sees_no_plaintext
  S2  integrity incl. management files       full       tampering_with_any_stored_object_is_detected
  S3  end-to-end file protection             full       s3_end_to_end_protection_over_the_wire
  S4  immediate revocation                   full       s4_immediate_revocation_no_lazy_window, member_list_rollback_cannot_resurrect_membership
  S5  rollback protection file / FS          full/full  individual_file_rollback_is_detected, whole_fs_rollback_detected_only_with_counter
";

pub fn run(_: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.say("== Table III, SeGShare row (evidence: tier-1 tests under tests/, by name) ==");
    out.say(TABLE.trim_end());
    out.say(
        "contrast with the HE baseline (Table III, row [10]): ablation 4, results/ablations.txt",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::TABLE;

    #[test]
    fn every_test_the_evidence_column_names_exists() {
        let sources: String = std::fs::read_dir(crate::harness::repo_root().join("tests"))
            .expect("tests/ exists")
            .map(|e| std::fs::read_to_string(e.unwrap().path()).unwrap())
            .collect();
        assert_eq!(TABLE.lines().count(), 20, "F1-F10, P1-P5, S1-S5");
        for line in TABLE.lines() {
            let (cell, evidence) = line.rsplit_once("  ").expect("columns");
            for test in evidence.split(", ") {
                assert!(
                    sources.contains(&format!("\n#[test]\nfn {test}() {{")),
                    "{}: no `#[test] fn {test}` under tests/",
                    cell.trim()
                );
            }
        }
    }
}
