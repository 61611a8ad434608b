//! The machine-readable findings report (`--json` / `results/analysis.json`).
//!
//! Schema `swag-check/1`:
//!
//! ```json
//! {
//!   "schema": "swag-check/1",
//!   "summary": {
//!     "total": 3, "unwaived": 0, "waived": 3,
//!     "by_rule": {"HP01": 2, "HP03": 1},
//!     "hot_roots": 41, "reachable_fns": 87
//!   },
//!   "findings": [
//!     {"id": "HP01", "rule": "hot-alloc", "file": "crates/…", "line": 12,
//!      "message": "…", "waived": true,
//!      "chain": ["core::Daba::slide", "core::Daba::insert"]}
//!   ],
//!   "baseline_errors": []
//! }
//! ```
//!
//! Rule IDs are stable across releases; tools should key on `id`, not
//! `rule` (the human-readable slug may be reworded). The exit-code
//! contract lives on the CLI: 0 = clean or fully waived, 1 = unwaived
//! findings, 2 = usage/IO error (and, under `--gate`, a stale or
//! malformed baseline).

use std::collections::BTreeMap;
use std::path::Path;

use crate::Finding;

/// Everything one analyzer run produced, bundled for reporting.
pub struct Report<'a> {
    pub findings: &'a [Finding],
    pub baseline_errors: &'a [String],
    pub hot_roots: usize,
    pub reachable_fns: usize,
}

/// JSON string escaping (the workspace is dependency-free; this is the
/// same minimal escaper idiom as `swag_metrics::json`).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a findings report as deterministic JSON (stable field order,
/// findings already sorted by the caller). File paths are written
/// relative to the analyzed `root`, and `root` relative to `workspace`
/// (`.` when they are one directory), so the report names no checkout
/// path; a root outside the workspace is written as given.
pub fn to_json(report: &Report<'_>, root: &Path, workspace: &Path) -> String {
    let unwaived = report.findings.iter().filter(|f| !f.waived).count();
    let mut by_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for f in report.findings {
        *by_rule.entry(f.id()).or_insert(0) += 1;
    }

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"swag-check/1\",\n");
    let shown_root = match root.strip_prefix(workspace) {
        Ok(rel) if rel.as_os_str().is_empty() => ".".to_string(),
        Ok(rel) => rel.display().to_string(),
        Err(_) => root.display().to_string(),
    };
    out.push_str(&format!("  \"root\": \"{}\",\n", escape(&shown_root)));
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!(
        "    \"total\": {},\n    \"unwaived\": {},\n    \"waived\": {},\n",
        report.findings.len(),
        unwaived,
        report.findings.len() - unwaived
    ));
    out.push_str("    \"by_rule\": {");
    let rules: Vec<String> = by_rule
        .iter()
        .map(|(id, n)| format!("\"{id}\": {n}"))
        .collect();
    out.push_str(&rules.join(", "));
    out.push_str("},\n");
    out.push_str(&format!(
        "    \"hot_roots\": {},\n    \"reachable_fns\": {}\n  }},\n",
        report.hot_roots, report.reachable_fns
    ));

    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Report paths relative to the analyzed root when possible.
        let rel = f
            .file
            .strip_prefix(root)
            .unwrap_or(&f.file)
            .display()
            .to_string();
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"id\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"message\": \"{}\", \"waived\": {}",
            f.id(),
            f.rule,
            escape(&rel),
            f.line,
            escape(&f.message),
            f.waived
        ));
        if !f.chain.is_empty() {
            let chain: Vec<String> = f
                .chain
                .iter()
                .map(|c| format!("\"{}\"", escape(c)))
                .collect();
            out.push_str(&format!(", \"chain\": [{}]", chain.join(", ")));
        }
        out.push('}');
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    out.push_str("  \"baseline_errors\": [");
    for (i, e) in report.baseline_errors.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape(e)));
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut f = Finding::new(
            Path::new("/r/crates/core/src/lib.rs"),
            7,
            "hot-alloc",
            "`vec![` with \"quotes\"".into(),
        );
        f.chain = vec!["core::a".into(), "core::b".into()];
        let findings = vec![f];
        let report = Report {
            findings: &findings,
            baseline_errors: &[],
            hot_roots: 3,
            reachable_fns: 9,
        };
        let json = to_json(&report, &PathBuf::from("/r"), &PathBuf::from("/r"));
        assert!(json.contains("\"schema\": \"swag-check/1\""), "{json}");
        assert!(json.contains("\"root\": \".\""), "{json}");
        assert!(json.contains("\"id\": \"HP01\""), "{json}");
        assert!(
            json.contains("\"file\": \"crates/core/src/lib.rs\""),
            "{json}"
        );
        assert!(json.contains("\\\"quotes\\\""), "{json}");
        assert!(
            json.contains("\"chain\": [\"core::a\", \"core::b\"]"),
            "{json}"
        );
        assert!(json.contains("\"by_rule\": {\"HP01\": 1}"), "{json}");
        assert!(json.contains("\"unwaived\": 1"), "{json}");
    }

    #[test]
    fn empty_report_is_valid() {
        let report = Report {
            findings: &[],
            baseline_errors: &[],
            hot_roots: 0,
            reachable_fns: 0,
        };
        let json = to_json(&report, &PathBuf::from("/w/sub"), &PathBuf::from("/w"));
        assert!(json.contains("\"root\": \"sub\""), "{json}");
        assert!(json.contains("\"findings\": [],"), "{json}");
        assert!(json.contains("\"baseline_errors\": []"), "{json}");
    }
}
