//! Negative fixtures for the source lints: deliberately-bad snippets,
//! each annotated with the exact rule set it must trip.
//!
//! Every fixture is a standalone Rust snippet under `crates/audit/
//! fixtures/` with a two-line header:
//!
//! ```text
//! //# path: crates/sim/src/fixture_hash_iteration.rs
//! //# expect: S001
//! ```
//!
//! `path` is the *virtual* workspace path the snippet is linted as —
//! which manifest scopes apply depends on the path, so a fixture can
//! place itself inside (say) an integer-only module's float-deny scope
//! without living there. `expect` lists the short rule codes the lint
//! must report, unwaived, and **nothing else**; an empty list means the
//! fixture must lint clean (used to prove reasoned waivers work).
//!
//! The fixtures are embedded with `include_str!` so they are never
//! compiled as Rust — several would not build, and the ones that would
//! must not leak items into the crate.

use crate::srclint::lint_source;

/// One embedded fixture: name, raw text (header included).
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    /// File stem under `crates/audit/fixtures/`.
    pub name: &'static str,
    /// Full fixture text, `//#` header lines included.
    pub text: &'static str,
}

/// Every embedded fixture, in deterministic (alphabetical) order.
pub const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "env_read",
        text: include_str!("../fixtures/env_read.rs"),
    },
    Fixture {
        name: "f32_anywhere",
        text: include_str!("../fixtures/f32_anywhere.rs"),
    },
    Fixture {
        name: "float_counter",
        text: include_str!("../fixtures/float_counter.rs"),
    },
    Fixture {
        name: "hash_iteration",
        text: include_str!("../fixtures/hash_iteration.rs"),
    },
    Fixture {
        name: "missing_safety",
        text: include_str!("../fixtures/missing_safety.rs"),
    },
    Fixture {
        name: "reasoned_waiver",
        text: include_str!("../fixtures/reasoned_waiver.rs"),
    },
    Fixture {
        name: "reasonless_waiver",
        text: include_str!("../fixtures/reasonless_waiver.rs"),
    },
    Fixture {
        name: "wall_clock",
        text: include_str!("../fixtures/wall_clock.rs"),
    },
];

/// Parsed fixture header plus the snippet body.
#[derive(Debug, Clone)]
pub struct ParsedFixture {
    /// Fixture name (file stem).
    pub name: &'static str,
    /// Virtual workspace path the snippet is linted as.
    pub path: String,
    /// Short rule codes (e.g. `S001`) the lint must report, sorted.
    pub expect: Vec<String>,
    /// Snippet body with header lines intact (line numbers stay true).
    pub body: &'static str,
}

/// Parses a fixture's `//#` header. Panics on a malformed fixture —
/// fixtures are part of the crate, so a bad header is a build bug.
pub fn parse(fx: &Fixture) -> ParsedFixture {
    let mut path = None;
    let mut expect = None;
    for line in fx.text.lines() {
        let Some(rest) = line.strip_prefix("//#") else {
            break;
        };
        let rest = rest.trim();
        if let Some(p) = rest.strip_prefix("path:") {
            path = Some(p.trim().to_string());
        } else if let Some(e) = rest.strip_prefix("expect:") {
            let mut codes: Vec<String> = e.split_whitespace().map(str::to_string).collect();
            codes.sort();
            expect = Some(codes);
        } else {
            panic!("fixture {}: unknown header directive {line:?}", fx.name);
        }
    }
    ParsedFixture {
        name: fx.name,
        path: path.unwrap_or_else(|| panic!("fixture {} lacks a //# path: header", fx.name)),
        expect: expect.unwrap_or_else(|| panic!("fixture {} lacks a //# expect: header", fx.name)),
        body: fx.text,
    }
}

/// Result of checking one fixture against its expectation.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FixtureOutcome {
    /// Fixture name.
    pub name: &'static str,
    /// Virtual path it was linted as.
    pub path: String,
    /// Rule codes the fixture declared it must trip.
    pub expected: Vec<String>,
    /// Rule codes the lint actually reported (unwaived, deduplicated).
    pub actual: Vec<String>,
    /// Whether expected == actual.
    pub pass: bool,
}

/// Lints one fixture and compares the unwaived rule set against its
/// `expect` header.
pub fn check(fx: &Fixture) -> FixtureOutcome {
    let parsed = parse(fx);
    let violations = lint_source(&parsed.path, parsed.body);
    let mut actual: Vec<String> = violations
        .iter()
        .filter(|v| !v.waived)
        .map(|v| v.rule.to_string())
        .collect();
    actual.sort();
    actual.dedup();
    let pass = actual == parsed.expect;
    FixtureOutcome {
        name: parsed.name,
        path: parsed.path,
        expected: parsed.expect,
        actual,
        pass,
    }
}

/// Checks every embedded fixture; `all(pass)` means the lint rules each
/// catch exactly what they claim to.
pub fn check_all() -> Vec<FixtureOutcome> {
    FIXTURES.iter().map(check).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_parse() {
        for fx in FIXTURES {
            let parsed = parse(fx);
            assert!(
                parsed.path.starts_with("crates/"),
                "{}: virtual path {} must sit inside the workspace",
                fx.name,
                parsed.path
            );
        }
    }

    #[test]
    fn fixture_names_are_sorted_and_unique() {
        let names: Vec<_> = FIXTURES.iter().map(|f| f.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "FIXTURES must be alphabetical and unique");
    }
}
