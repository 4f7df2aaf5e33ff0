//! Hostile-input suite: malformed scenario files must be rejected
//! with the offending line number and a message that names the
//! problem — a scenario file is an interface, and a parser that
//! guesses or ignores what it does not understand turns typos into
//! silently different experiments.

use amoeba_scenario::ScenarioPlan;

/// Parses `text`, requires rejection, and checks both coordinates of
/// the error: the 1-based line and a distinctive message fragment.
fn rejected(text: &str, line: usize, fragment: &str) {
    let err = ScenarioPlan::parse(text).expect_err("hostile input must be rejected");
    assert!(
        err.msg.contains(fragment),
        "error `{err}` does not mention `{fragment}`"
    );
    assert_eq!(err.line, line, "error `{err}` blamed the wrong line");
}

const HEADER: &str = "name = \"h\"\nseed = 1\n";

#[test]
fn unknown_root_key_is_rejected() {
    rejected(
        "name = \"h\"\nseed = 1\nsped = 2\n[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n",
        3,
        "unknown key `sped`",
    );
}

#[test]
fn unknown_section_is_rejected() {
    rejected(
        &format!("{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n[expectations]\naudit = true\n"),
        8,
        "unknown section `[expectations]`",
    );
}

#[test]
fn unknown_group_key_is_rejected() {
    rejected(
        &format!("{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\nresiliance = 1\n"),
        8,
        "unknown key `resiliance`",
    );
}

#[test]
fn member_out_of_topology_is_rejected() {
    rejected(
        &format!("{HEADER}[topology]\nnodes = 4\n[[group]]\nid = 1\nmembers = [0, 1, 7]\n"),
        7,
        "node 7",
    );
}

#[test]
fn topology_too_large_is_rejected() {
    rejected(
        &format!("{HEADER}[topology]\nnodes = 5000\n[[group]]\nid = 1\nmembers = \"0..2\"\n"),
        4,
        "`nodes` must be in 1..=4096",
    );
}

#[test]
fn seqno_budget_is_enforced() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             [[workload]]\ngroup = 1\nsenders = [0]\nmessages = 2000000\n"
        ),
        11,
        "seqno budget",
    );
}

#[test]
fn overlapping_partition_windows_are_rejected_with_both_lines() {
    let text = format!(
        "{HEADER}[topology]\nnodes = 4\n[[group]]\nid = 1\nmembers = \"0..4\"\n\
         [[fault]]\nkind = \"partition\"\nside_a = [0]\nfrom_ms = 100\nuntil_ms = 900\n\
         [[fault]]\nkind = \"partition\"\nside_a = [1]\nfrom_ms = 500\nuntil_ms = 1200\n"
    );
    // Line 17 holds the second window's `until_ms`; the message cites
    // the first window's line (8) so the collision is navigable.
    rejected(&text, 17, "overlaps the one at line 8");
}

#[test]
fn double_noise_window_is_rejected() {
    let text = format!(
        "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
         [[fault]]\nkind = \"noise\"\ndrop = 0.1\nfrom_ms = 1\nuntil_ms = 100\n\
         [[fault]]\nkind = \"noise\"\ndrop = 0.2\nfrom_ms = 200\nuntil_ms = 300\n"
    );
    rejected(&text, 17, "single noise schedule");
}

#[test]
fn restart_without_crash_is_rejected() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             [[fault]]\nkind = \"restart\"\nnode = 0\nat_ms = 100\n"
        ),
        11,
        "restart",
    );
}

#[test]
fn sender_outside_its_group_is_rejected() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 4\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             [[group]]\nid = 2\nmembers = \"2..4\"\n\
             [[workload]]\ngroup = 1\nsenders = [2]\nmessages = 5\n"
        ),
        13,
        "sender 2 is not a member of group 1",
    );
}

#[test]
fn resilience_needs_enough_members() {
    rejected(
        &format!("{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\nresilience = 2\n"),
        8,
        "`resilience` = 2 needs at least 3 members",
    );
}

#[test]
fn probability_above_one_is_rejected() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             [[fault]]\nkind = \"noise\"\ndrop = 1.5\nfrom_ms = 1\nuntil_ms = 100\n"
        ),
        10,
        "probability in 0..=1",
    );
}

#[test]
fn continuous_and_tagged_workloads_cannot_mix() {
    let text = format!(
        "{HEADER}[topology]\nnodes = 4\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
         [[group]]\nid = 2\nmembers = \"2..4\"\n\
         [[workload]]\ngroup = 1\nsenders = [0]\nmessages = 5\n\
         [[workload]]\ngroup = 2\nsenders = [2]\nmessages = 0\n\
         [run]\nlimit_ms = 1000\nwarmup_ms = 10\nwindow_ms = 100\n"
    );
    let err = ScenarioPlan::parse(&text).expect_err("mixed modes must be rejected");
    assert!(err.msg.contains("cannot mix"), "got `{err}`");
}

#[test]
fn min_rate_needs_continuous_mode() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             [[workload]]\ngroup = 1\nsenders = [0]\nmessages = 5\n\
             [expect]\nmin_rate = 100.0\n"
        ),
        13,
        "`min_rate` needs a continuous workload",
    );
}

#[test]
fn settle_window_after_last_fault_is_enforced() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             [[fault]]\nkind = \"crash\"\nnode = 1\nat_ms = 4000\n\
             [run]\nlimit_ms = 5000\n"
        ),
        12,
        "settle window",
    );
}

#[test]
fn duplicate_membership_across_groups_is_rejected() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 4\n[[group]]\nid = 1\nmembers = \"0..3\"\n\
             [[group]]\nid = 2\nmembers = \"2..4\"\n"
        ),
        10,
        "node 2 is already a member of group 1",
    );
}

#[test]
fn syntax_errors_carry_line_numbers() {
    // A torn string on line 2 (toml layer, below the schema).
    let err = ScenarioPlan::parse("name = \"h\nseed = 1\n").expect_err("torn string");
    assert_eq!(err.line, 1);
}

#[test]
fn unknown_group_config_base_is_rejected() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             config = \"bulletproof\"\n"
        ),
        8,
        "`config` must be \"default\" or \"fault_tolerant\"",
    );
}

#[test]
fn fault_tolerant_base_excludes_scaled() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             config = \"fault_tolerant\"\nscaled = true\n"
        ),
        9,
        "`scaled = true` cannot combine",
    );
}

/// Every knob in range on its own line, and a configuration the core
/// refuses: `history_cap = 16` puts the high-water mark at 12, four
/// slots of headroom for a window of eight. The `[[group]]` is blamed.
#[test]
fn a_window_wider_than_the_history_headroom_is_rejected() {
    rejected(
        &format!(
            "{HEADER}[topology]\nnodes = 2\n[[group]]\nid = 1\nmembers = \"0..2\"\n\
             history_cap = 16\nsend_window = 8\n"
        ),
        5,
        "history_cap - history_high_water must be at least send_window",
    );
}

/// The shard schema's counterpart of [`rejected`].
fn shard_rejected(faults: &str, line: usize, fragment: &str) {
    let text = format!(
        "{HEADER}[shard]\nshards = 2\nmembers = 3\nspares = 1\nops = 32\n{faults}"
    );
    let err = amoeba_scenario::ShardPlan::parse(&text).expect_err("hostile input must be rejected");
    assert!(err.msg.contains(fragment), "error `{err}` does not mention `{fragment}`");
    assert_eq!(err.line, line, "error `{err}` blamed the wrong line");
}

#[test]
fn shard_partition_window_must_be_non_empty() {
    shard_rejected(
        "[[fault]]\nkind = \"partition\"\ngroup = 1\nmember = 2\nfrom_ms = 300\nuntil_ms = 300\n",
        13,
        "empty fault window",
    );
}

#[test]
fn shard_partition_member_must_exist_and_not_be_the_gateway() {
    shard_rejected(
        "[[fault]]\nkind = \"partition\"\ngroup = 1\nmember = 3\nfrom_ms = 1\nuntil_ms = 9\n",
        11,
        "`member` = 3 out of range",
    );
    shard_rejected(
        "[[fault]]\nkind = \"partition\"\ngroup = 1\nmember = 1\nfrom_ms = 1\nuntil_ms = 9\n",
        11,
        "member 1 is the gateway",
    );
}

#[test]
fn shard_crash_still_needs_the_fault_tolerant_base_but_partition_does_not() {
    shard_rejected(
        "[[fault]]\nkind = \"crash\"\ngroup = 1\nmember = 2\nat_op = 4\n",
        8,
        "crashes need `config = \"fault_tolerant\"`",
    );
    let ok = format!(
        "{HEADER}[shard]\nshards = 2\nmembers = 3\nops = 32\n\
         [[fault]]\nkind = \"partition\"\ngroup = 1\nmember = 2\nfrom_ms = 1\nuntil_ms = 9\n"
    );
    amoeba_scenario::ShardPlan::parse(&ok).expect("a partition runs on the default base");
}
