//! Workspace discovery for the static-analysis framework: which crates
//! exist, which fence categories each one carries, and the lexed
//! [`SourceFile`]s the passes run over.
//!
//! Fences used to be hard-coded string arrays in the lint module, which
//! meant a new crate (this happened with `rrfd-engine-pool`) silently
//! dodged every fence until someone remembered to edit the lists. They
//! are now declared next to the code they govern, in each crate's
//! `Cargo.toml`:
//!
//! ```toml
//! [package.metadata.rrfd]
//! fences = ["deterministic", "message-plane", "protocol"]
//! ```
//!
//! A crate with no `[package.metadata.rrfd]` section carries no fences:
//! only the universal passes (`panic-family`, `direct-index`) apply.
//! An unknown fence name is a hard error — typos must not silently
//! un-fence a crate.

use crate::syntax::SourceFile;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// A fence category a crate can opt into via `Cargo.toml` metadata.
/// Each category gates one or more passes (see `passes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fence {
    /// Replayable-trace crates: no wall-clock reads
    /// (`wall-clock` pass) and no nondeterministic hash iteration
    /// (`round-closure` pass, hash-order rule).
    Deterministic,
    /// Crates whose timing must flow through `rrfd_obs::Clock`
    /// (`obs` pass) and whose lock nesting feeds the `lock-order`
    /// deadlock graph.
    Instrumented,
    /// Zero-copy message-plane crates: payload clones in delivery
    /// loops are regressions (`msg-clone` pass).
    MessagePlane,
    /// Crates hosting `RoundProtocol` implementations: round methods
    /// must be communication-closed (`round-closure` pass — delivery
    /// escape and interior-mutability rules).
    Protocol,
}

impl Fence {
    /// The name used in `Cargo.toml` metadata.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fence::Deterministic => "deterministic",
            Fence::Instrumented => "instrumented",
            Fence::MessagePlane => "message-plane",
            Fence::Protocol => "protocol",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        match name {
            "deterministic" => Some(Fence::Deterministic),
            "instrumented" => Some(Fence::Instrumented),
            "message-plane" => Some(Fence::MessagePlane),
            "protocol" => Some(Fence::Protocol),
            _ => None,
        }
    }
}

impl fmt::Display for Fence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One discovered workspace crate.
#[derive(Debug)]
pub struct CrateInfo {
    /// The crate's directory name under `crates/`.
    pub name: String,
    /// Fence categories from `[package.metadata.rrfd]`.
    pub fences: Vec<Fence>,
    /// Absolute path of the crate directory.
    pub dir: PathBuf,
}

/// Extracts the `fences` array from a crate manifest's
/// `[package.metadata.rrfd]` section. No section (or no `fences` key)
/// means no fences.
///
/// # Errors
///
/// Returns a message naming the offense when the section exists but the
/// `fences` value is malformed or names an unknown fence.
pub fn parse_fences(manifest: &str) -> Result<Vec<Fence>, String> {
    let mut in_section = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_section = line == "[package.metadata.rrfd]";
            continue;
        }
        if !in_section {
            continue;
        }
        let Some(rest) = line.strip_prefix("fences") else {
            continue;
        };
        let Some(value) = rest.trim_start().strip_prefix('=') else {
            continue;
        };
        let value = value.split('#').next().unwrap_or_default().trim();
        let inner = value
            .strip_prefix('[')
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(|| {
                format!("`fences` must be a single-line array of strings, got {value:?}")
            })?;
        let mut fences = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let name = part
                .strip_prefix('"')
                .and_then(|p| p.strip_suffix('"'))
                .ok_or_else(|| format!("fence entries must be quoted strings, got {part:?}"))?;
            let fence = Fence::parse(name).ok_or_else(|| {
                format!(
                    "unknown fence {name:?} (expected one of: deterministic, \
                     instrumented, message-plane, protocol)"
                )
            })?;
            if !fences.contains(&fence) {
                fences.push(fence);
            }
        }
        return Ok(fences);
    }
    Ok(Vec::new())
}

/// Discovers every crate under `<root>/crates` that has a `src/`
/// directory, reading each one's fences from its manifest.
///
/// # Errors
///
/// Propagates I/O errors; malformed fence metadata is reported as
/// [`io::ErrorKind::InvalidData`] naming the manifest.
pub fn discover(root: &Path) -> io::Result<Vec<CrateInfo>> {
    let crates_dir = root.join("crates");
    let mut crates = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let dir = entry?.path();
        if !dir.join("src").is_dir() {
            continue;
        }
        let name = dir
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest_path = dir.join("Cargo.toml");
        let fences = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => parse_fences(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", manifest_path.display()),
                )
            })?,
            Err(_) => Vec::new(), // no manifest: an unfenced source tree
        };
        crates.push(CrateInfo { name, fences, dir });
    }
    crates.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(crates)
}

/// Loads and lexes every `.rs` file under each crate's `src/` tree,
/// excluding `src/bin/` (CLIs may legitimately abort on bad input).
/// Files come back sorted by workspace-relative path.
///
/// # Errors
///
/// Propagates I/O errors from directory walking and file reads.
pub fn load_files(root: &Path, crates: &[CrateInfo]) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for info in crates {
        let mut paths = Vec::new();
        collect_rs_files(&info.dir.join("src"), &mut paths)?;
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)?;
            let rel = relative_display(root, &path);
            files.push(SourceFile::parse(&info.name, &rel, &info.fences, text));
        }
    }
    Ok(files)
}

/// Renders `file` relative to `root` with `/` separators, matching the
/// paths recorded in `lint.allow`.
#[must_use]
pub fn relative_display(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fences_parse_from_metadata_section() {
        let manifest = "\
[package]
name = \"x\"

[package.metadata.rrfd]
fences = [\"deterministic\", \"message-plane\"]  # comment

[dependencies]
";
        let fences = parse_fences(manifest).unwrap();
        assert_eq!(fences, vec![Fence::Deterministic, Fence::MessagePlane]);
    }

    #[test]
    fn missing_section_means_no_fences() {
        assert!(parse_fences("[package]\nname = \"x\"\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_fences_and_bad_shapes_are_errors() {
        let err =
            parse_fences("[package.metadata.rrfd]\nfences = [\"determinstic\"]\n").unwrap_err();
        assert!(err.contains("unknown fence"), "{err}");
        assert!(parse_fences("[package.metadata.rrfd]\nfences = \"deterministic\"\n").is_err());
        assert!(parse_fences("[package.metadata.rrfd]\nfences = [deterministic]\n").is_err());
    }

    #[test]
    fn fences_outside_the_rrfd_section_are_ignored() {
        let manifest = "[package.metadata.other]\nfences = [\"bogus\"]\n";
        assert!(parse_fences(manifest).unwrap().is_empty());
    }
}
