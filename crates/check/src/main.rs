//! `swag-check` CLI — convention lints (SC01–SC05) plus the hot-path
//! contract analyzer (HP01–HP04).
//!
//! ```text
//! swag-check [--root DIR] [--json] [--json-out FILE] [--gate]
//! ```
//!
//! - `--root DIR` — repository root to analyze (default: the workspace
//!   this binary was built from).
//! - `--json` — print the findings report as JSON (schema
//!   `swag-check/1`) to stdout instead of human-readable lines.
//! - `--json-out FILE` — additionally write the JSON report to FILE
//!   (CI uploads `results/analysis.json` as an artifact).
//! - `--gate` — CI mode: also fail (exit 2) on baseline hygiene
//!   problems (malformed entries, entries without a reason, stale
//!   entries matching no finding).
//!
//! Exit codes (the contract CI scripts rely on):
//!
//! - `0` — no unwaived findings (waived findings may exist; they are
//!   reported but do not fail the build).
//! - `1` — at least one unwaived finding.
//! - `2` — usage or IO error; under `--gate`, also a malformed or
//!   stale baseline.

use std::path::PathBuf;
use std::process::ExitCode;

use swag_check::report::{to_json, Report};
use swag_check::{analyze_repo, lint_repo};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut json_out: Option<PathBuf> = None;
    let mut gate = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--json-out" => match args.next() {
                Some(f) => json_out = Some(PathBuf::from(f)),
                None => return usage("--json-out needs a file path"),
            },
            "--gate" => gate = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    // crates/check -> workspace root.
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."));
    let root = root.map_or_else(|| workspace.clone(), |r| r.canonicalize().unwrap_or(r));
    if !root.join("crates").is_dir() {
        return usage(&format!(
            "`{}` does not look like a workspace root (no crates/ dir)",
            root.display()
        ));
    }

    let mut findings = lint_repo(&root);
    let analysis = analyze_repo(&root);
    findings.extend(analysis.findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let report = Report {
        findings: &findings,
        baseline_errors: &analysis.baseline_errors,
        hot_roots: analysis.hot_roots.len(),
        reachable_fns: analysis.reachable_fns,
    };
    let rendered = to_json(&report, &root, &workspace);
    if let Some(path) = &json_out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("swag-check: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let unwaived = findings.iter().filter(|f| !f.waived).count();
    if json {
        print!("{rendered}");
    } else {
        for f in &findings {
            println!("{f}");
        }
        for e in &analysis.baseline_errors {
            println!("baseline: {e}");
        }
        println!(
            "swag-check: {} finding(s), {} unwaived; {} hot root(s), {} reachable fn(s)",
            findings.len(),
            unwaived,
            analysis.hot_roots.len(),
            analysis.reachable_fns
        );
    }

    if gate && !analysis.baseline_errors.is_empty() {
        if !json {
            eprintln!("swag-check: baseline hygiene failure (see `baseline:` lines above)");
        }
        return ExitCode::from(2);
    }
    if unwaived == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("swag-check: {err}");
    eprintln!("usage: swag-check [--root DIR] [--json] [--json-out FILE] [--gate]");
    ExitCode::from(2)
}
