//! A minimal `Cargo.toml` reader: package name, dependency keys, and the
//! workspace member list. Line-based — the workspace's manifests only use
//! `key = value` lines, `[section]` headers and simple string arrays,
//! which is all this reader understands. Unknown syntax is skipped, never
//! a panic.

/// What simlint needs from one crate manifest.
#[derive(Debug, Default, Clone)]
pub struct CrateManifest {
    /// `package.name`, if present.
    pub package: Option<String>,
    /// Keys of `[dependencies]`, with the line each was declared on.
    pub deps: Vec<(String, u32)>,
    /// Keys of `[dev-dependencies]`, with their lines.
    pub dev_deps: Vec<(String, u32)>,
    /// `workspace.members` entries (root manifest only).
    pub members: Vec<String>,
}

/// Parses manifest text. Infallible: anything unrecognized is ignored.
pub fn parse(text: &str) -> CrateManifest {
    let mut m = CrateManifest::default();
    let mut section = String::new();
    let mut in_members_array = false;
    for (ix, raw) in text.lines().enumerate() {
        let line_no = ix as u32 + 1;
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if in_members_array {
            for part in line.split(',') {
                if let Some(s) = quoted(part) {
                    m.members.push(s);
                }
            }
            if line.contains(']') {
                in_members_array = false;
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        match section.as_str() {
            "package" if key == "name" => m.package = quoted(value),
            "workspace" if key == "members" => {
                if value.contains(']') {
                    for part in value.trim_start_matches('[').split(',') {
                        if let Some(s) = quoted(part) {
                            m.members.push(s);
                        }
                    }
                } else {
                    in_members_array = true;
                }
            }
            "dependencies" => m.deps.push((key.to_string(), line_no)),
            "dev-dependencies" => m.dev_deps.push((key.to_string(), line_no)),
            _ => {}
        }
    }
    m
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The first double-quoted string in `s`, if any.
fn quoted(s: &str) -> Option<String> {
    let start = s.find('"')? + 1;
    let end = start + s[start..].find('"')?;
    Some(s[start..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_package_deps_and_members() {
        let m = parse(
            r#"
[workspace]
members = [
    "crates/a", # trailing comment
    "vendor/b",
]

[package]
name = "demo" # the name

[dependencies]
simkit = { workspace = true }
rand = { path = "vendor/rand", features = ["small_rng"] }

[dev-dependencies]
proptest = { workspace = true }
"#,
        );
        assert_eq!(m.package.as_deref(), Some("demo"));
        assert_eq!(m.members, vec!["crates/a", "vendor/b"]);
        let dep_names: Vec<&str> = m.deps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(dep_names, vec!["simkit", "rand"]);
        assert_eq!(m.dev_deps.len(), 1);
    }

    #[test]
    fn inline_members_array() {
        let m = parse("[workspace]\nmembers = [\"x\", \"y\"]\n");
        assert_eq!(m.members, vec!["x", "y"]);
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let m = parse("[package]\nname = \"a#b\"\n");
        assert_eq!(m.package.as_deref(), Some("a#b"));
    }
}
