//! Golden-snapshot layer: canonical JSON rendering, normalized float
//! formatting, readable diffs, and the `UPDATE_GOLDENS=1` regeneration
//! path.
//!
//! A golden is a committed JSON file holding the canonical serialization
//! of a report. Tests render the live value with [`canonical_json`] and
//! compare byte-for-byte against the file; on drift they print a
//! line-level diff. Setting `UPDATE_GOLDENS=1` rewrites the files
//! instead, which is the one sanctioned way to change them:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -q          # regenerate tests/goldens/
//! git diff tests/goldens/                 # review what moved, then commit
//! ```

use serde::Serialize;
use std::fs;
use std::path::Path;

// The canonical rendering moved to `netloc_core::canon` so the analysis
// service can share it (its result cache stores exactly these bytes);
// re-exported here so golden-test callers keep their import paths.
pub use netloc_core::canon::{canonical_json, normalize};

/// Outcome of a golden comparison.
#[derive(Debug)]
pub enum GoldenOutcome {
    /// File exists and matches byte-for-byte.
    Match,
    /// `UPDATE_GOLDENS=1` was set; the file was (re)written.
    Updated,
    /// Mismatch or missing file; the payload is a printable explanation.
    Mismatch(String),
}

impl GoldenOutcome {
    /// Panic with the explanation unless the golden matched or was
    /// freshly updated. Convenience for integration tests.
    pub fn assert_ok(self, name: &str) {
        if let GoldenOutcome::Mismatch(explanation) = self {
            panic!("golden `{name}` diverged:\n{explanation}");
        }
    }
}

/// Whether the regeneration path is active.
pub fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1")
}

/// Compare `value` against the golden at `path` (or rewrite it when
/// `UPDATE_GOLDENS=1`).
pub fn check_golden<T: Serialize + ?Sized>(path: &Path, value: &T) -> GoldenOutcome {
    let rendered = canonical_json(value);
    if update_requested() {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create golden directory");
        }
        fs::write(path, &rendered).expect("write golden");
        return GoldenOutcome::Updated;
    }
    match fs::read_to_string(path) {
        Err(_) => GoldenOutcome::Mismatch(format!(
            "golden file {} is missing — run `UPDATE_GOLDENS=1 cargo test -q` to create it,\n\
             review the result with `git diff`, and commit it",
            path.display()
        )),
        Ok(expected) if expected == rendered => GoldenOutcome::Match,
        Ok(expected) => GoldenOutcome::Mismatch(format!(
            "{}\n(run `UPDATE_GOLDENS=1 cargo test -q` if this change is intentional)",
            diff_lines(&expected, &rendered)
        )),
    }
}

/// Maximum differing lines printed per diff.
const MAX_DIFF_LINES: usize = 20;

/// Readable line-level diff: every differing line with its number, `-`
/// for expected (golden) and `+` for actual (live), truncated after
/// `MAX_DIFF_LINES` hunks.
pub fn diff_lines(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e == a {
            continue;
        }
        if shown == MAX_DIFF_LINES {
            out.push_str("  ... (more differences truncated)\n");
            break;
        }
        shown += 1;
        match (e, a) {
            (Some(e), Some(a)) => {
                out.push_str(&format!("line {}:\n  - {e}\n  + {a}\n", i + 1));
            }
            (Some(e), None) => out.push_str(&format!("line {} only in golden:\n  - {e}\n", i + 1)),
            (None, Some(a)) => out.push_str(&format!("line {} only in live:\n  + {a}\n", i + 1)),
            (None, None) => unreachable!(),
        }
    }
    if out.is_empty() {
        out.push_str("(no line-level difference — trailing whitespace?)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_reexport_is_live() {
        // Rendering details are tested in `netloc_core::canon`; this pins
        // the re-export so golden callers keep compiling against testkit.
        assert!(canonical_json(&vec![1.0f64]).ends_with("\n"));
    }

    #[test]
    fn diff_lines_points_at_the_change() {
        let d = diff_lines("a\nb\nc", "a\nX\nc");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("- b"), "{d}");
        assert!(d.contains("+ X"), "{d}");
    }

    #[test]
    fn missing_golden_reports_update_path() {
        let path = std::env::temp_dir().join("netloc_testkit_missing_golden.json");
        let _ = std::fs::remove_file(&path);
        match check_golden(&path, &1u32) {
            GoldenOutcome::Mismatch(msg) => assert!(msg.contains("UPDATE_GOLDENS=1"), "{msg}"),
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn golden_roundtrip_matches_after_write() {
        let path = std::env::temp_dir().join("netloc_testkit_roundtrip_golden.json");
        let value = vec![0.25f64, 3.0];
        std::fs::write(&path, canonical_json(&value)).unwrap();
        assert!(matches!(check_golden(&path, &value), GoldenOutcome::Match));
        let other = vec![0.25f64, 4.0];
        assert!(matches!(
            check_golden(&path, &other),
            GoldenOutcome::Mismatch(_)
        ));
        let _ = std::fs::remove_file(&path);
    }
}
