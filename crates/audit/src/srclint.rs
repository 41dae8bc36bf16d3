//! Source-level determinism lints (`csalt-audit srclint`, rules
//! `S000`–`S006`).
//!
//! The repo's value proposition is bit-identical reproduction, and the
//! failure modes that silently break it are *source* patterns: a
//! `HashMap` iteration feeding a report, a wall-clock read leaking into
//! a result, a float creeping into cycle accounting. This pass walks
//! every `crates/*/src` file with the hand-rolled [`crate::lexer`]
//! (vendored-deps constraint — no `syn`) and enforces the project's
//! determinism contracts:
//!
//! | rule | contract |
//! |------|----------|
//! | S001 | no `HashMap`/`HashSet` in result-affecting crates |
//! | S002 | no wall-clock / thread-identity reads outside timing modules |
//! | S003 | every `unsafe` carries a `// SAFETY:` comment |
//! | S005 | no float arithmetic in counter/cycle-accounting modules |
//! | S006 | no `f32` anywhere (f64-only policy where floats are legal) |
//! | S000 | waiver hygiene (reasonless or stale `audit-waive` markers) |
//!
//! Codes S004, S007 and S008 are retired. Unsafe code is covered by the
//! workspace `unsafe_code = "deny"` lint plus S003.
//!
//! Scope comes from `crates/audit/srclint.manifest` (embedded at
//! compile time). Code under `#[cfg(test)]` / `#[test]` is exempt.
//! Intentional exceptions are inline waivers —
//! `// audit-waive: S001 <reason>` on the offending line or the line
//! above — which the tool counts and reports; a waiver without a
//! reason suppresses nothing and is itself a finding.

use crate::lexer::{lex, Comment, Tok, Token};
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Version of the JSON report schema emitted by `--format json`.
pub use crate::SCHEMA_VERSION;

/// The embedded policy manifest text.
pub const MANIFEST_TEXT: &str = include_str!("../srclint.manifest");

/// Registry entry for `--list-rules`.
pub fn srclint_rules() -> &'static [crate::Rule] {
    &[
        crate::Rule {
            code: "S000",
            name: "waiver-hygiene",
            summary: "audit-waive markers carry a reason and match a finding",
        },
        crate::Rule {
            code: "S001",
            name: "hash-collection",
            summary: "no HashMap/HashSet in result-affecting crates (BTree* or sorted)",
        },
        crate::Rule {
            code: "S002",
            name: "wall-clock",
            summary: "no Instant/SystemTime/thread-id reads outside timing modules",
        },
        crate::Rule {
            code: "S003",
            name: "safety-comment",
            summary: "every unsafe block carries a // SAFETY: justification",
        },
        crate::Rule {
            code: "S005",
            name: "integer-counters",
            summary: "no float types/literals in counter/cycle-accounting modules",
        },
        crate::Rule {
            code: "S006",
            name: "no-f32",
            summary: "no f32 anywhere in crate sources (f64-only float policy)",
        },
    ]
}

// ---------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------

/// Parsed scope manifest (see `srclint.manifest` for the format).
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// S001 scope: path prefixes where hash collections are denied.
    pub hash_deny: Vec<String>,
    /// S002 exemptions: path prefixes where clock reads are allowed.
    pub clock_allow: Vec<String>,
    /// S005 scope: path prefixes that must stay float-free.
    pub float_deny: Vec<String>,
}

impl Manifest {
    /// Parses the line-based manifest format.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, arg) = line
                .split_once(' ')
                .ok_or_else(|| format!("manifest line {}: missing argument", lineno + 1))?;
            let arg = arg.trim().to_string();
            match directive {
                "hash-deny" => m.hash_deny.push(arg),
                "clock-allow" => m.clock_allow.push(arg),
                "float-deny" => m.float_deny.push(arg),
                other => {
                    return Err(format!(
                        "manifest line {}: unknown directive {other:?}",
                        lineno + 1
                    ))
                }
            }
        }
        Ok(m)
    }

    /// The compiled-in manifest.
    pub fn builtin() -> &'static Manifest {
        static BUILTIN: OnceLock<Manifest> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            Manifest::parse(MANIFEST_TEXT).unwrap_or_else(|e| {
                // The embedded manifest is part of the source tree; a
                // parse error is a build bug, surfaced loudly.
                panic!("embedded srclint.manifest is invalid: {e}")
            })
        })
    }
}

fn under(path: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| path == p || path.starts_with(&format!("{p}/")))
}

// ---------------------------------------------------------------------
// Findings and reports.
// ---------------------------------------------------------------------

/// One srclint finding.
#[derive(Debug, Clone, Serialize)]
pub struct SrcViolation {
    /// Rule code (`S00x`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Whether an inline `audit-waive` marker with a reason covers it.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waive_reason: Option<String>,
}

impl fmt::Display for SrcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )?;
        if let Some(reason) = &self.waive_reason {
            write!(f, " [waived: {reason}]")?;
        }
        Ok(())
    }
}

/// Outcome of a srclint run.
#[derive(Debug, Clone, Serialize)]
pub struct SrclintReport {
    /// JSON schema version.
    pub version: u32,
    /// Files scanned.
    pub files: u64,
    /// Unwaived findings (these fail the run).
    pub errors: u64,
    /// Findings covered by a reasoned waiver.
    pub waived: u64,
    /// Every finding, unwaived first.
    pub violations: Vec<SrcViolation>,
}

impl SrclintReport {
    fn new(files: u64, mut violations: Vec<SrcViolation>) -> Self {
        violations.sort_by(|a, b| {
            a.waived
                .cmp(&b.waived)
                .then_with(|| a.file.cmp(&b.file))
                .then_with(|| a.line.cmp(&b.line))
                .then_with(|| a.rule.cmp(b.rule))
        });
        let waived = violations.iter().filter(|v| v.waived).count() as u64;
        let errors = violations.len() as u64 - waived;
        SrclintReport {
            version: SCHEMA_VERSION,
            files,
            errors,
            waived,
            violations,
        }
    }

    /// Whether the run found no unwaived violations.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.errors == 0
    }
}

// ---------------------------------------------------------------------
// Per-file analysis.
// ---------------------------------------------------------------------

struct Waiver {
    rule: String,
    reason: String,
    line: u32,
    used: bool,
}

struct FileAnalysis {
    path: String,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
    /// Token mask: true = inside a `#[cfg(test)]` / `#[test]` item.
    skip: Vec<bool>,
    waivers: Vec<Waiver>,
}

fn analyze(path: &str, src: &str) -> FileAnalysis {
    let (tokens, comments) = lex(src);
    let skip = test_skip_mask(&tokens);
    // Line ranges covered by skipped tokens, so waivers inside test
    // code are ignored too.
    let mut skipped_lines: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if skip[i] {
            let start = tokens[i].line;
            let mut j = i;
            while j + 1 < tokens.len() && skip[j + 1] {
                j += 1;
            }
            skipped_lines.push((start, tokens[j].line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    let in_test = |line: u32| skipped_lines.iter().any(|&(a, b)| line >= a && line <= b);

    let mut waivers = Vec::new();
    for c in &comments {
        if in_test(c.line) {
            continue;
        }
        // Anchored to the start of the comment so prose that merely
        // *mentions* the marker (like this crate's docs) is not one.
        let text = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        if let Some(rest) = text.strip_prefix("audit-waive:") {
            let rest = rest.trim();
            let (rule, reason) = match rest.split_once(char::is_whitespace) {
                Some((r, why)) => (r.to_string(), why.trim().to_string()),
                None => (rest.to_string(), String::new()),
            };
            waivers.push(Waiver {
                rule,
                reason,
                line: c.line,
                used: false,
            });
        }
    }
    FileAnalysis {
        path: path.to_string(),
        tokens,
        comments,
        skip,
        waivers,
    }
}

/// Marks tokens belonging to `#[cfg(test)]`- or `#[test]`-gated items.
fn test_skip_mask(tokens: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; tokens.len()];
    let is_punct = |t: &Token, c: char| t.tok == Tok::Punct(c);
    let mut i = 0usize;
    while i < tokens.len() {
        if is_punct(&tokens[i], '#') && tokens.get(i + 1).is_some_and(|t| is_punct(t, '[')) {
            let Some(attr_end) = match_group(tokens, i + 1, '[', ']') else {
                break;
            };
            let idents: Vec<&str> = tokens[i..=attr_end]
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Ident(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            let gated = (idents.contains(&"cfg") && idents.contains(&"test")) || idents == ["test"];
            if !gated {
                i = attr_end + 1;
                continue;
            }
            // Consume any further attributes, then the gated item: up
            // to a top-level `;` or through the first brace group.
            let mut j = attr_end + 1;
            while j + 1 < tokens.len() && is_punct(&tokens[j], '#') && is_punct(&tokens[j + 1], '[')
            {
                match match_group(tokens, j + 1, '[', ']') {
                    Some(e) => j = e + 1,
                    None => break,
                }
            }
            let mut end = j;
            while end < tokens.len() {
                if is_punct(&tokens[end], ';') {
                    break;
                }
                if is_punct(&tokens[end], '{') {
                    end = match_group(tokens, end, '{', '}').unwrap_or(tokens.len() - 1);
                    break;
                }
                end += 1;
            }
            let end = end.min(tokens.len() - 1);
            for s in &mut skip[i..=end] {
                *s = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    skip
}

/// Index of the token closing the group opened at `open` (`tokens[open]`
/// must be the opening delimiter).
fn match_group(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.tok == Tok::Punct(open_c) {
            depth += 1;
        } else if t.tok == Tok::Punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------

fn violation(rule: &'static str, fa: &FileAnalysis, line: u32, message: String) -> SrcViolation {
    SrcViolation {
        rule,
        file: fa.path.clone(),
        line,
        message,
        waived: false,
        waive_reason: None,
    }
}

/// Every rule but waiver hygiene; each is decidable from one file.
fn per_file_rules(fa: &FileAnalysis, m: &Manifest) -> Vec<SrcViolation> {
    let mut out = Vec::new();
    let path = fa.path.as_str();
    let hash_scope = under(path, &m.hash_deny);
    let clock_denied = !under(path, &m.clock_allow);
    let float_denied = under(path, &m.float_deny);

    for (i, t) in fa.tokens.iter().enumerate() {
        if fa.skip[i] {
            continue;
        }
        match &t.tok {
            Tok::Ident(id) => match id.as_str() {
                "HashMap" | "HashSet" if hash_scope => out.push(violation(
                    "S001",
                    fa,
                    t.line,
                    format!(
                        "{id} in a result-affecting crate: iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or an explicitly \
                         sorted collection"
                    ),
                )),
                "Instant" | "SystemTime" if clock_denied => out.push(violation(
                    "S002",
                    fa,
                    t.line,
                    format!(
                        "{id} outside the timing-allowed modules: wall-clock reads \
                         make runs irreproducible; charge simulated cycles instead"
                    ),
                )),
                "thread" if clock_denied && ident_seq(fa, i, &["thread", "current"]) => {
                    out.push(violation(
                        "S002",
                        fa,
                        t.line,
                        "thread::current() outside the timing-allowed modules: thread \
                         identity is schedule-dependent"
                            .to_string(),
                    ));
                }
                "unsafe" if !has_safety_comment(fa, t.line) => out.push(violation(
                    "S003",
                    fa,
                    t.line,
                    "unsafe without a `// SAFETY:` comment within the 3 lines \
                     above: every unsafe block must state its proof obligation"
                        .to_string(),
                )),
                "f32" => {
                    if float_denied {
                        out.push(violation(
                            "S005",
                            fa,
                            t.line,
                            "f32 in an integer-only counter/cycle module".to_string(),
                        ));
                    } else {
                        out.push(violation(
                            "S006",
                            fa,
                            t.line,
                            "f32 is banned workspace-wide: accumulated single-precision \
                             rounding is platform/codegen-sensitive; use f64 or integers"
                                .to_string(),
                        ));
                    }
                }
                "f64" if float_denied => out.push(violation(
                    "S005",
                    fa,
                    t.line,
                    "f64 in an integer-only counter/cycle module: cycle accounting \
                     must be exact integer arithmetic"
                        .to_string(),
                )),
                _ => {}
            },
            Tok::Float(text) if float_denied => out.push(violation(
                "S005",
                fa,
                t.line,
                format!("float literal {text} in an integer-only counter/cycle module"),
            )),
            _ => {}
        }
    }
    out
}

/// Whether tokens at `i` start the identifier sequence `seq` joined by
/// `::` (e.g. `thread :: current`).
fn ident_seq(fa: &FileAnalysis, i: usize, seq: &[&str]) -> bool {
    let mut k = i;
    for (n, want) in seq.iter().enumerate() {
        match fa.tokens.get(k).map(|t| &t.tok) {
            Some(Tok::Ident(s)) if s == want => {}
            _ => return false,
        }
        if n + 1 < seq.len() {
            if fa.tokens.get(k + 1).map(|t| &t.tok) != Some(&Tok::Punct(':'))
                || fa.tokens.get(k + 2).map(|t| &t.tok) != Some(&Tok::Punct(':'))
            {
                return false;
            }
            k += 3;
        }
    }
    true
}

/// Whether a `// SAFETY:` comment sits on `line` or within 3 lines
/// above it.
fn has_safety_comment(fa: &FileAnalysis, line: u32) -> bool {
    fa.comments
        .iter()
        .any(|c| c.line <= line && line - c.line <= 3 && c.text.contains("SAFETY:"))
}

// ---------------------------------------------------------------------
// Waiver resolution.
// ---------------------------------------------------------------------

fn apply_waivers(fa: &mut FileAnalysis, violations: &mut Vec<SrcViolation>) {
    // Reasonless waivers are findings themselves and suppress nothing.
    for w in &fa.waivers {
        if w.reason.is_empty() {
            violations.push(SrcViolation {
                rule: "S000",
                file: fa.path.clone(),
                line: w.line,
                message: format!(
                    "audit-waive for {} has no reason: waivers must say why the \
                     exception is sound",
                    w.rule
                ),
                waived: false,
                waive_reason: None,
            });
        }
    }
    for v in violations.iter_mut() {
        if v.file != fa.path || v.rule == "S000" {
            continue;
        }
        if let Some(w) = fa.waivers.iter_mut().find(|w| {
            !w.reason.is_empty() && w.rule == v.rule && (w.line == v.line || w.line + 1 == v.line)
        }) {
            w.used = true;
            v.waived = true;
            v.waive_reason = Some(w.reason.clone());
        }
    }
    for w in &fa.waivers {
        if !w.used && !w.reason.is_empty() {
            violations.push(SrcViolation {
                rule: "S000",
                file: fa.path.clone(),
                line: w.line,
                message: format!(
                    "stale audit-waive: no {} finding on this or the next line; \
                     delete the marker",
                    w.rule
                ),
                waived: false,
                waive_reason: None,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Lints a single source text under its (virtual) workspace-relative
/// path. This is the fixture entry point; [`lint_workspace`] is the
/// real one.
#[must_use]
pub fn lint_source(path: &str, src: &str) -> Vec<SrcViolation> {
    let mut fa = analyze(path, src);
    let mut violations = per_file_rules(&fa, Manifest::builtin());
    apply_waivers(&mut fa, &mut violations);
    violations
}

/// Walks every `crates/*/src/**/*.rs` under `root` and lints it.
pub fn lint_workspace(root: &Path) -> Result<SrclintReport, String> {
    let m = Manifest::builtin();
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();

    let mut analyses: Vec<FileAnalysis> = Vec::new();
    for f in &files {
        let src =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        analyses.push(analyze(&rel, &src));
    }

    let mut violations = Vec::new();
    for fa in &analyses {
        violations.extend(per_file_rules(fa, m));
    }
    for fa in &mut analyses {
        apply_waivers(fa, &mut violations);
    }
    Ok(SrclintReport::new(files.len() as u64, violations))
}

/// Lints every embedded negative fixture under its virtual path and
/// merges the findings into one report (`csalt-audit srclint --broken`).
/// Non-clean by construction: the fixtures exist to trip rules.
#[must_use]
pub fn lint_fixtures() -> SrclintReport {
    let mut violations = Vec::new();
    for fx in crate::fixtures::FIXTURES {
        let parsed = crate::fixtures::parse(fx);
        violations.extend(lint_source(&parsed.path, parsed.body));
    }
    SrclintReport::new(crate::fixtures::FIXTURES.len() as u64, violations)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Ok(dir);
                }
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(path: &str, src: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = lint_source(path, src)
            .into_iter()
            .filter(|v| !v.waived)
            .map(|v| v.rule)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn manifest_parses_and_is_nonempty() {
        let m = Manifest::builtin();
        assert!(m.hash_deny.iter().any(|p| p == "crates/sim"));
        assert!(m.float_deny.iter().any(|p| p == "crates/trace"));
        assert!(Manifest::parse("bogus-directive x").is_err());
    }

    #[test]
    fn hash_collections_flagged_only_in_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes("crates/sim/src/x.rs", src), vec!["S001"]);
        assert_eq!(codes("crates/telemetry/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  #[test]\n  fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert_eq!(codes("crates/core/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn clock_reads_flagged_outside_allowed_modules() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        assert_eq!(codes("crates/core/src/x.rs", src), vec!["S002"]);
        assert_eq!(codes("crates/sim/src/sweep.rs", src), Vec::<&str>::new());
        let tid = "fn f() { let _ = std::thread::current().id(); }\n";
        assert_eq!(codes("crates/ptw/src/x.rs", tid), vec!["S002"]);
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bare = "fn f() { unsafe { core(); } }\n";
        let with = "fn f() {\n  // SAFETY: proven elsewhere\n  unsafe { core(); }\n}\n";
        assert_eq!(codes("crates/cache/src/x.rs", bare), vec!["S003"]);
        assert_eq!(codes("crates/cache/src/x.rs", with), Vec::<&str>::new());
    }

    #[test]
    fn floats_flagged_in_counter_modules() {
        let src = "fn f() -> f64 { 1.5 }\n";
        assert_eq!(codes("crates/sim/src/checkpoint.rs", src), vec!["S005"]);
        assert_eq!(
            codes("crates/core/src/hierarchy.rs", src),
            Vec::<&str>::new()
        );
        assert_eq!(
            codes("crates/core/src/x.rs", "fn g(x: f32) {}\n"),
            vec!["S006"]
        );
    }

    #[test]
    fn waivers_suppress_with_reason_and_are_findings_without() {
        let good = "// audit-waive: S001 lookup-only map, never iterated\nuse std::collections::HashMap;\n";
        let v = lint_source("crates/sim/src/x.rs", good);
        assert!(v.iter().all(|v| v.waived), "{v:?}");
        assert_eq!(v.len(), 1);

        let bad = "// audit-waive: S001\nuse std::collections::HashMap;\n";
        let c = codes("crates/sim/src/x.rs", bad);
        assert_eq!(c, vec!["S000", "S001"]);

        let stale = "// audit-waive: S002 nothing here needs it\nfn f() {}\n";
        assert_eq!(codes("crates/sim/src/x.rs", stale), vec!["S000"]);
    }

    #[test]
    fn srclint_rule_codes_are_unique() {
        let mut codes: Vec<&str> = srclint_rules().iter().map(|r| r.code).collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }
}
