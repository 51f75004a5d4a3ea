//! Workspace walk: enumerates the first-party crates from the root
//! `Cargo.toml`, checks each crate's manifest against the layering table,
//! and lints every `.rs` file under `src/`, `tests/`, `benches/` and
//! `examples/`.
//!
//! Vendored stand-ins (`vendor/*`) are skipped — they mirror external
//! crates and are exempt by construction. Any directory component named
//! `fixtures` is skipped too: simlint's own test fixtures intentionally
//! contain violations.

use std::fs;
use std::path::{Path, PathBuf};

use crate::analyze::{lint_source, Diagnostic};
use crate::manifest;
use crate::rules::{crate_for_package, CrateRule, EXTERNAL_DEPS};

/// A full workspace lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// Number of first-party crates visited.
    pub crates_scanned: usize,
}

/// Lints the workspace rooted at `root` (must contain the `[workspace]`
/// `Cargo.toml`). I/O failures on the root manifest are fatal; a missing
/// member manifest is a diagnostic, not an abort.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let root_manifest_path = root.join("Cargo.toml");
    let text = fs::read_to_string(&root_manifest_path)
        .map_err(|e| format!("read {}: {e}", root_manifest_path.display()))?;
    let root_manifest = manifest::parse(&text);
    if root_manifest.members.is_empty() {
        return Err(format!(
            "{} has no [workspace] members — is this the workspace root?",
            root_manifest_path.display()
        ));
    }

    // Crate dirs: every non-vendor member, plus the root package itself.
    let mut dirs: Vec<String> = root_manifest
        .members
        .iter()
        .filter(|m| !m.starts_with("vendor/"))
        .cloned()
        .collect();
    dirs.push(".".to_string());
    dirs.sort();
    dirs.dedup();

    let mut report = Report::default();
    for dir in &dirs {
        lint_crate(root, dir, &mut report);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

fn lint_crate(root: &Path, dir: &str, report: &mut Report) {
    let manifest_rel = if dir == "." {
        "Cargo.toml".to_string()
    } else {
        format!("{dir}/Cargo.toml")
    };
    let manifest_path = root.join(&manifest_rel);
    let Ok(text) = fs::read_to_string(&manifest_path) else {
        report.diagnostics.push(Diagnostic {
            file: manifest_rel,
            line: 1,
            rule: "layering".to_string(),
            message: "workspace member has no readable Cargo.toml".to_string(),
        });
        return;
    };
    let m = manifest::parse(&text);
    let Some(rule) = m.package.as_deref().and_then(crate_for_package) else {
        report.diagnostics.push(Diagnostic {
            file: manifest_rel,
            line: 1,
            rule: "layering".to_string(),
            message: format!(
                "package '{}' is not declared in simlint's layering table \
                 (crates/simlint/src/rules.rs); add a CrateRule row for it",
                m.package.as_deref().unwrap_or("<unnamed>")
            ),
        });
        return;
    };
    report.crates_scanned += 1;
    check_manifest_deps(&manifest_rel, &m, rule, report);

    let mut files = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        collect_rs_files(&root.join(dir).join(sub), &mut files);
    }
    files.sort();
    for path in files {
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = rel_path(root, &path);
        report.files_scanned += 1;
        report.diagnostics.extend(lint_source(&rel, &source));
    }
}

/// Every `Cargo.toml` dependency must be either a vendored external or a
/// first-party package allowed by the crate's table row — the manifest
/// side of the same contract the `use`-path check enforces in code.
fn check_manifest_deps(
    manifest_rel: &str,
    m: &manifest::CrateManifest,
    rule: &CrateRule,
    report: &mut Report,
) {
    for (name, line) in m.deps.iter().chain(m.dev_deps.iter()) {
        if EXTERNAL_DEPS.contains(&name.as_str()) {
            continue;
        }
        let message = match crate_for_package(name) {
            Some(_) if rule.deps.contains(&name.as_str()) => continue,
            Some(_) => format!(
                "crate '{}' depends on first-party '{name}' but the layering table \
                 (crates/simlint/src/rules.rs) does not allow it",
                rule.package
            ),
            None => format!(
                "dependency '{name}' is neither a first-party crate nor a vendored \
                 external ({}); vendor it and list it in EXTERNAL_DEPS, or remove it",
                EXTERNAL_DEPS.join(", ")
            ),
        };
        report.diagnostics.push(Diagnostic {
            file: manifest_rel.to_string(),
            line: *line,
            rule: "layering".to_string(),
            message,
        });
    }
}

/// Recursively collects `.rs` files, skipping any `fixtures` directory.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "fixtures" && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::crate_for_package;

    #[test]
    fn manifest_dep_outside_table_is_flagged() {
        let m = manifest::parse("[package]\nname = \"memsim\"\n[dependencies]\ncoop-core = {}\n");
        let rule = crate_for_package("memsim").expect("memsim in table");
        let mut report = Report::default();
        check_manifest_deps("crates/memsim/Cargo.toml", &m, rule, &mut report);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "layering");
        assert_eq!(report.diagnostics[0].line, 4);
    }

    #[test]
    fn vendored_externals_are_allowed_everywhere() {
        let m = manifest::parse(
            "[package]\nname = \"memsim\"\n[dependencies]\nsimkit = {}\n\
             [dev-dependencies]\nproptest = {}\ncriterion = {}\n",
        );
        let rule = crate_for_package("memsim").expect("memsim in table");
        let mut report = Report::default();
        check_manifest_deps("crates/memsim/Cargo.toml", &m, rule, &mut report);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn dependency_outside_vendor_is_flagged() {
        let m = manifest::parse("[package]\nname = \"memsim\"\n[dependencies]\nserde = {}\n");
        let rule = crate_for_package("memsim").expect("memsim in table");
        let mut report = Report::default();
        check_manifest_deps("crates/memsim/Cargo.toml", &m, rule, &mut report);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "layering");
        assert_eq!(report.diagnostics[0].line, 4);
    }
}
