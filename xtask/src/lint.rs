//! The concurrency-invariant lint pass (`cargo run -p xtask -- lint`).
//!
//! A text-level pass over the workspace's first-party sources
//! (`crates/*/src`, `src`, `examples`, `xtask/src` — vendored crates
//! and integration tests are out of scope) enforcing four rules the
//! compiler cannot:
//!
//! | rule | requirement |
//! |------|-------------|
//! | `relaxed-justified` | every `Ordering::Relaxed` carries a `// relaxed:` justification on the same line or within 6 lines above |
//! | `safety-comment` | every `unsafe` keyword carries a `// SAFETY:` comment on the same line or within 10 lines above |
//! | `sync-shim` | the model-checked modules (`SHIMMED_MODULES`) never name `std::sync` — they must go through `octopus_sync` so the loom doubles replace their primitives under `cfg(octopus_model)` |
//! | `service-no-unwrap` | no `.unwrap()` / `.expect(` in `crates/service/src` outside `#[cfg(test)]` — serving code reports errors, it does not abort |
//!
//! Diagnostics are machine-readable `file:line: [rule] message` lines
//! on stdout; the exit code is the contract (0 clean, 1 violations).
//! There is deliberately no `--fix`: every finding is either a real
//! protocol smell or an intentional exception, and intentional
//! exceptions are recorded in `xtask/lint.allow` (one
//! `rule path-suffix needle` entry per line) where review can see
//! them. Comments and string literals are stripped before token
//! matching, so prose mentioning `unsafe` or `std::sync` never trips
//! a rule; `#[cfg(test)]` items are masked by brace tracking.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `Ordering::Relaxed` without a `// relaxed:` justification.
pub const RULE_RELAXED: &str = "relaxed-justified";
/// `unsafe` without a `// SAFETY:` comment.
pub const RULE_SAFETY: &str = "safety-comment";
/// `std::sync` named inside a model-checked (shimmed) module.
pub const RULE_SHIM: &str = "sync-shim";
/// `.unwrap()` / `.expect(` in service production code.
pub const RULE_UNWRAP: &str = "service-no-unwrap";

/// Modules whose sync primitives are model-checked: they must route
/// every lock/atomic through `octopus_sync` so the loom doubles can
/// take over under `cfg(octopus_model)`. Workspace-root-relative.
const SHIMMED_MODULES: &[&str] = &[
    "crates/telemetry/src/metrics.rs",
    "crates/service/src/latch.rs",
];

/// Lines above a `Relaxed` use that may carry its justification.
const RELAXED_WINDOW: usize = 6;
/// Lines above an `unsafe` that may carry its SAFETY comment.
const SAFETY_WINDOW: usize = 10;
/// The allowlist's workspace-root-relative location.
const ALLOWLIST: &str = "xtask/lint.allow";

/// One rule violation at one source line.
#[derive(Debug)]
pub struct Diagnostic {
    /// Which rule fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Root-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable requirement that was missed.
    pub message: String,
    /// The raw offending line (allowlist needles match against this).
    pub raw_line: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One `rule path-suffix needle` allowlist entry.
struct AllowEntry {
    rule: String,
    path_suffix: String,
    needle: String,
    used: bool,
}

/// Runs the pass rooted at `root` and reports on stdout/stderr.
pub fn run_cli(root: &Path) -> ExitCode {
    match run(root) {
        Ok(diags) if diags.is_empty() => {
            eprintln!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!("xtask lint: {} violation(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every rule over every in-scope file under `root`, applies the
/// allowlist, and returns the surviving diagnostics sorted by
/// (path, line). Unused allowlist entries are warned about on stderr
/// so the file cannot silently rot.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for rel in collect_files(root)? {
        let abs = root.join(&rel);
        let text = fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        diags.extend(lint_file(&rel, &text));
    }
    let mut allow = load_allowlist(&root.join(ALLOWLIST))?;
    diags.retain(|d| {
        !allow.iter_mut().any(|a| {
            let hit = a.rule == d.rule
                && d.path.ends_with(&a.path_suffix)
                && d.raw_line.contains(&a.needle);
            a.used |= hit;
            hit
        })
    });
    for a in allow.iter().filter(|a| !a.used) {
        eprintln!(
            "xtask lint: warning: stale allowlist entry `{} {} {}` matched nothing",
            a.rule, a.path_suffix, a.needle
        );
    }
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(diags)
}

/// Runs every rule over one file's text. Public so the unit tests can
/// drive the rules against fixtures without touching the filesystem
/// layout.
pub fn lint_file(rel: &Path, text: &str) -> Vec<Diagnostic> {
    let rel_str: String = {
        let s = rel.to_string_lossy().replace('\\', "/");
        s
    };
    let raw: Vec<&str> = text.lines().collect();
    let stripped = strip_comments_and_strings(text);
    let in_test = cfg_test_lines(&stripped);
    let shimmed = SHIMMED_MODULES.iter().any(|m| rel_str == *m);
    let in_service = rel_str.starts_with("crates/service/src/");
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: usize, message: String| {
        out.push(Diagnostic {
            rule,
            path: rel_str.clone(),
            line: line + 1,
            message,
            raw_line: raw[line].to_string(),
        });
    };

    for (i, line) in stripped.iter().enumerate() {
        // The shim rule covers the whole file, tests included: a test
        // written against `std::sync` would silently bypass the model
        // doubles and check nothing.
        if shimmed && line.contains("std::sync") {
            push(
                RULE_SHIM,
                i,
                "model-checked module names `std::sync` directly; route it through \
                 `octopus_sync` so the loom double replaces it under `cfg(octopus_model)`"
                    .to_string(),
            );
        }
        if in_test[i] {
            continue;
        }
        if contains_word(line, "Relaxed") && !window_has(&raw, i, RELAXED_WINDOW, "relaxed:") {
            push(
                RULE_RELAXED,
                i,
                format!(
                    "`Ordering::Relaxed` without a `// relaxed:` justification within \
                     {RELAXED_WINDOW} lines above"
                ),
            );
        }
        if contains_word(line, "unsafe") && !window_has(&raw, i, SAFETY_WINDOW, "SAFETY:") {
            push(
                RULE_SAFETY,
                i,
                format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines above"
                ),
            );
        }
        if in_service && (line.contains(".unwrap()") || line.contains(".expect(")) {
            push(
                RULE_UNWRAP,
                i,
                "`.unwrap()`/`.expect(` in service production code; return a \
                 `ServiceError` (or allowlist a proven-infallible case)"
                    .to_string(),
            );
        }
    }
    out
}

/// Whether any of `raw[i - window ..= i]` contains `marker`.
fn window_has(raw: &[&str], i: usize, window: usize, marker: &str) -> bool {
    raw[i.saturating_sub(window)..=i]
        .iter()
        .any(|l| l.contains(marker))
}

/// Word-boundary substring search (no regex dependency): `needle` must
/// not be flanked by identifier characters, so `unsafe` does not match
/// inside `unsafe_op_in_unsafe_fn`.
fn contains_word(line: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !line[..start].chars().next_back().is_some_and(is_ident);
        let after_ok = !line[end..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Removes `//` comments, `/* */` comments (nested, multi-line) and
/// the *contents* of string literals (the quotes stay, so `.expect(`
/// detection still sees the call shape). Char literals and raw strings
/// are not modelled — the allowlist is the escape hatch for the
/// pathological cases.
fn strip_comments_and_strings(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    for line in text.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut s = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            if block_depth > 0 {
                if c == '*' && next == Some('/') {
                    block_depth -= 1;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    block_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            } else if in_str {
                if c == '\\' {
                    i += 2;
                } else {
                    if c == '"' {
                        in_str = false;
                        s.push('"');
                    }
                    i += 1;
                }
            } else if c == '/' && next == Some('/') {
                break;
            } else if c == '/' && next == Some('*') {
                block_depth += 1;
                i += 2;
            } else {
                if c == '"' {
                    in_str = true;
                }
                s.push(c);
                i += 1;
            }
        }
        out.push(s);
    }
    out
}

/// Marks the lines belonging to `#[cfg(test)]` items by tracking the
/// braces of the annotated item (usually `mod tests { ... }`).
fn cfg_test_lines(stripped: &[String]) -> Vec<bool> {
    let mut mask = vec![false; stripped.len()];
    let mut pending = false;
    let mut in_region = false;
    let mut depth = 0usize;
    for (i, line) in stripped.iter().enumerate() {
        if in_region {
            mask[i] = true;
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            in_region = false;
                        }
                    }
                    _ => {}
                }
            }
        } else if pending {
            mask[i] = true;
            let opened = line.contains('{');
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if opened {
                pending = false;
                in_region = depth > 0;
            } else if line.trim_end().ends_with(';') {
                // `#[cfg(test)] use …;` — a brace-less item.
                pending = false;
            }
        } else if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
            mask[i] = true;
            pending = true;
            depth = 0;
        }
    }
    mask
}

/// The `.rs` files the pass covers, root-relative, sorted. Vendored
/// crates (`vendor/`), integration tests and the lint fixtures
/// (`xtask/fixtures/`) are deliberately out of scope.
fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            fs::read_dir(&crates_dir).map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    for extra in ["src", "examples", "xtask/src"] {
        let dir = root.join(extra);
        if dir.is_dir() {
            dirs.push(dir);
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        walk(&dir, &mut files)?;
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses the allowlist: `rule path-suffix needle…` per line, `#`
/// comments and blank lines skipped. A missing file is an empty list
/// (fixture trees have none).
fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path_suffix), Some(needle)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{}:{}: allowlist entries are `rule path-suffix needle`",
                path.display(),
                i + 1
            ));
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path_suffix: path_suffix.to_string(),
            needle: needle.trim().to_string(),
            used: false,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree")
    }

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask sits in the workspace root")
            .to_path_buf()
    }

    #[test]
    fn fixture_tree_trips_every_rule() {
        let diags = run(&fixture_root()).expect("fixture tree lints");
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        for rule in [RULE_RELAXED, RULE_SAFETY, RULE_SHIM, RULE_UNWRAP] {
            assert!(rules.contains(&rule), "rule {rule} not tripped: {diags:?}");
        }
        // Every diagnostic is anchored: real path, real line.
        for d in &diags {
            assert!(d.line > 0 && !d.path.is_empty(), "unanchored: {d}");
        }
    }

    #[test]
    fn fixture_justified_sites_are_clean() {
        let text = "\
use std::sync::atomic::{AtomicU64, Ordering};
fn f(c: &AtomicU64) -> u64 {
    // relaxed: advisory counter, no ordering needed.
    c.load(Ordering::Relaxed)
}
// SAFETY: the pointer is valid for the call (checked above).
unsafe fn g() {}
";
        let diags = lint_file(Path::new("crates/demo/src/lib.rs"), text);
        assert!(diags.is_empty(), "justified sites flagged: {diags:?}");
    }

    #[test]
    fn test_mods_are_masked() {
        let text = "\
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let c = super::AtomicU64::new(0);
        assert_eq!(c.load(super::Ordering::Relaxed), 0);
        c.fetch_add(1, super::Ordering::Relaxed);
    }
}
";
        let diags = lint_file(Path::new("crates/demo/src/lib.rs"), text);
        assert!(diags.is_empty(), "test-mod sites flagged: {diags:?}");
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let text = "\
//! Prose about unsafe code and Ordering::Relaxed and std::sync.
fn f() -> &'static str {
    \"an unsafe string mentioning Ordering::Relaxed\"
}
";
        let diags = lint_file(Path::new("crates/telemetry/src/metrics.rs"), text);
        assert!(diags.is_empty(), "prose flagged: {diags:?}");
    }

    #[test]
    fn unwrap_rule_is_service_scoped() {
        let text = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        assert!(lint_file(Path::new("crates/geom/src/lib.rs"), text).is_empty());
        let diags = lint_file(Path::new("crates/service/src/monitor.rs"), text);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_UNWRAP);
    }

    #[test]
    fn real_tree_is_clean() {
        let diags = run(&repo_root()).expect("workspace lints");
        assert!(
            diags.is_empty(),
            "workspace has lint violations:\n{}",
            diags
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
