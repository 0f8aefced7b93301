//! Workspace discovery for `deepcheck`: locating the root, walking the
//! source tree, and mapping paths to crate names.

use std::fs;
use std::path::{Path, PathBuf};

/// Locate the workspace root: walk up from the current directory until a
/// directory containing both `Cargo.toml` and `crates/` appears.
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("could not locate the workspace root (no Cargo.toml + crates/ above cwd)");
        }
    }
}

/// Collect every `.rs` file under the roots the analyzer reads, relative
/// to the workspace root, in sorted order for deterministic output.
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["crates", "compat", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files);
        }
    }
    for f in &mut files {
        *f = f.strip_prefix(root).expect("under root").to_path_buf();
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The crate a workspace-relative path belongs to: `crates/<name>/src/…`
/// maps to `<name>`, the facade sources in `src/` map to `evcap`. Returns
/// `None` for paths outside any crate's `src/` tree (integration tests,
/// benches, examples, compat shims) — those are not part of the shipped
/// call graph.
pub fn crate_of(path: &str) -> Option<String> {
    if let Some(rest) = path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        if tail.starts_with("src/") {
            return Some(name.to_owned());
        }
        return None;
    }
    if path.starts_with("src/") {
        return Some("evcap".to_owned());
    }
    None
}
