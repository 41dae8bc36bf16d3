//! End-to-end srclint guarantees:
//!
//! 1. every negative fixture trips **exactly** its declared rule set —
//!    the fixtures prove the rules, and the exact-match comparison
//!    proves no rule over-fires;
//! 2. the real workspace lints clean with every waiver carrying a
//!    reason — the determinism contract holds on the tree as committed.

use csalt_audit::fixtures;
use csalt_audit::srclint::{lint_source, lint_workspace, srclint_rules};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn every_fixture_trips_exactly_its_rules() {
    let outcomes = fixtures::check_all();
    assert!(
        outcomes.len() >= 8,
        "fixture corpus shrank: {}",
        outcomes.len()
    );
    for o in &outcomes {
        assert!(
            o.pass,
            "fixture {} ({}): expected {:?}, got {:?}",
            o.name, o.path, o.expected, o.actual
        );
    }
}

#[test]
fn every_srclint_rule_has_a_fixture() {
    // Every live S-rule must be exercised by at least one fixture so a
    // regression that silences a rule entirely cannot pass CI.
    let exercised: Vec<String> = fixtures::check_all()
        .into_iter()
        .flat_map(|o| o.expected)
        .collect();
    for rule in srclint_rules() {
        assert!(
            exercised.iter().any(|c| c == rule.code),
            "rule {} ({}) has no negative fixture",
            rule.code,
            rule.name
        );
    }
}

fn unwaived_codes(path: &str, src: &str) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = lint_source(path, src)
        .into_iter()
        .filter(|v| !v.waived)
        .map(|v| v.rule)
        .collect();
    codes.dedup();
    codes
}

#[test]
fn env_variables_are_denied_only_in_library_code() {
    let read = "fn f() -> bool { std::env::var_os(\"X\").is_some() }\n";
    assert_eq!(unwaived_codes("crates/sim/src/x.rs", read), vec!["S009"]);
    assert_eq!(
        unwaived_codes("crates/types/src/a/b.rs", read),
        vec!["S009"]
    );
    assert!(unwaived_codes("crates/sim/src/bin/tool.rs", read).is_empty());
    assert!(unwaived_codes("crates/bench/src/lib.rs", read).is_empty());
    assert!(unwaived_codes("crates/bench/benches/x.rs", read).is_empty());

    let grouped = "use std::env::{args, vars};\n";
    assert_eq!(
        unwaived_codes("crates/core/src/x.rs", grouped),
        vec!["S009"]
    );

    // Arguments, directories and the compile-time `env!` are not
    // environment variables.
    let fine =
        "fn f() { let _ = (std::env::args(), std::env::temp_dir(), env!(\"CARGO_PKG_NAME\")); }\n";
    assert!(unwaived_codes("crates/sim/src/x.rs", fine).is_empty());
}

#[test]
fn reasoned_waiver_is_counted_not_silenced() {
    let fx = fixtures::FIXTURES
        .iter()
        .find(|f| f.name == "reasoned_waiver")
        .expect("fixture exists");
    let parsed = fixtures::parse(fx);
    let violations = lint_source(&parsed.path, parsed.body);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].waived);
    assert!(violations[0]
        .waive_reason
        .as_deref()
        .is_some_and(|r| r.contains("wire format")));
}

#[test]
fn workspace_lints_clean_with_zero_unexplained_waivers() {
    let report = lint_workspace(workspace_root()).expect("workspace walk succeeds");
    assert!(report.files >= 50, "walked only {} files", report.files);
    assert!(
        report.clean(),
        "workspace has unwaived srclint findings:\n{}",
        report
            .violations
            .iter()
            .filter(|v| !v.waived)
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    for v in &report.violations {
        assert!(
            v.waive_reason.as_deref().is_some_and(|r| !r.is_empty()),
            "waived finding without a reason: {v}"
        );
    }
}
