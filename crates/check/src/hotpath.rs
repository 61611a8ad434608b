//! The hot-path contract: alloc-, panic-, and blocking-freedom proved
//! transitively over the call graph from every latency-critical root.
//!
//! The paper's deliverable is the absence of per-slide latency spikes;
//! this module turns that into a static gate. Roots are the functions
//! whose worst case IS the product: every `FinalAggregator` /
//! `MultiFinalAggregator` / `AggregateOp` method, the free slice
//! kernels, the shard processors, `SharedPlanExecutor::{push,
//! push_batch}`, the `FlightRecorder` seqlock writes, and the
//! `SpanSampler` lifecycle-sampling path (on by default in the resident
//! service's ingest loop). Cold
//! companions on the same traits (`warm` — pre-allocation by design,
//! `check_invariants`, `heap_bytes`, `finish` — the once-per-run
//! end-of-stream flush) are excluded and documented.
//!
//! Three rules, each with its own waiver channel:
//!
//! - **HP01 hot-alloc** — allocation tokens (`Box::new`, `format!`,
//!   `collect`, `to_vec`, …) and reserve-less incremental growth
//!   (`push` / `push_back` / `or_insert` / `extend` in a function whose
//!   body never `reserve`s). Waived per site with
//!   `// alloc:amortized <reason>` — the reason is mandatory; this is
//!   how a window buffer's doubling and the flip scratch stay legal.
//! - **HP02 hot-panic** — the transitive closure of today's no-panic
//!   rule plus unguarded slice indexing (an index expression in a
//!   function whose body carries no `.len(` read and no assertion).
//!   Waived per site with `// check:allow <reason>`. `debug_assert!` is
//!   not a panic token: it compiles out of release builds.
//! - **HP03 hot-block** — locks, condvar waits, channel operations, raw
//!   clocks, filesystem and stdio. Waived only through the baseline file
//!   (`crates/check/hotpath-baseline.txt`), because a blocking site on
//!   a hot path should be loud: each entry names the rule, the function,
//!   and a reason.

use std::fs;
use std::path::Path;

use crate::graph::CallGraph;
use crate::parse::{BodyLine, FnItem};
use crate::Finding;

/// Traits whose methods are latency-critical by definition.
const HOT_TRAITS: &[&str] = &[
    "FinalAggregator",
    "MultiFinalAggregator",
    "AggregateOp",
    "ShardProcessor",
];

/// Methods on the hot traits that are deliberately cold: `warm`
/// pre-allocates (that is its job), `check_invariants` and `heap_bytes`
/// are diagnostic surfaces never called per-slide, and `finish` runs once
/// per run, after the last batch, to flush windows still open.
const COLD_METHODS: &[&str] = &["warm", "check_invariants", "heap_bytes", "finish"];

/// Free functions that are hot roots (the slice kernels in
/// `crates/core`).
const HOT_FREE_FNS: &[&str] = &["lane_fold", "scan_prefix_with", "scan_suffix_with"];

/// Free functions in `crates/server` that are ingest-hot: every tuple
/// that reaches a resident pipeline walks the accept loop's
/// per-connection decode-and-forward path. Socket reads and the bounded
/// channel send block *by design* (that is the backpressure mechanism),
/// so the expected findings here are waived in the baseline file with
/// their reasons rather than silenced.
const SERVER_HOT_FNS: &[&str] = &["accept_loop"];

/// `(owner, method)` pairs that are hot roots outside the trait table.
/// The span-record path (`SpanSampler` draws, `SampleBlock` iteration,
/// stage records, and both recorder writes) runs inside the ingest loop
/// with tracing on by default, so it carries the same contract as the
/// aggregators themselves. The shard hand-off (the batch queue's send
/// and receive), the worker's per-tuple slot look-up and grouping, the
/// resident router's per-tuple step, its per-tuple late-drop check and
/// its barrier run once per routed batch, tuple or service cycle. The
/// event-time emission loop (`TimeWindowExec::advance_into`) runs for
/// every key on every watermark advance.
const HOT_METHODS: &[(&str, &str)] = &[
    ("SharedPlanExecutor", "push"),
    ("SharedPlanExecutor", "push_batch"),
    ("TimeWindowExec", "advance_into"),
    ("ResidentEngine", "steer"),
    ("OnTime", "judge"),
    ("ResidentEngine", "barrier"),
    ("BatchSender", "hand_off"),
    ("BatchReceiver", "take_drain"),
    ("SlotTable", "open_slot"),
    ("SlotGroups", "group_drain"),
    ("FlightRecorder", "record"),
    ("FlightRecorder", "record_at"),
    ("SpanSampler", "sample"),
    ("SpanSampler", "sample_block"),
    ("SpanSampler", "stage"),
    ("SpanSampler", "stage_at"),
    ("SampleBlock", "next"),
];

/// True if `items[i]` is a hot-path root.
pub fn is_root(it: &FnItem) -> bool {
    if it.in_test {
        return false;
    }
    if let Some(t) = &it.trait_name {
        if HOT_TRAITS.contains(&t.as_str()) && !COLD_METHODS.contains(&it.name.as_str()) {
            return true;
        }
    }
    if it.owner.is_none() && it.crate_label == "core" && HOT_FREE_FNS.contains(&it.name.as_str()) {
        return true;
    }
    if it.owner.is_none()
        && it.crate_label == "server"
        && SERVER_HOT_FNS.contains(&it.name.as_str())
    {
        return true;
    }
    if let Some(o) = &it.owner {
        if HOT_METHODS.contains(&(o.as_str(), it.name.as_str())) {
            return true;
        }
    }
    false
}

/// Allocation tokens that are findings wherever they appear on a hot
/// path (no amount of `reserve` makes `format!` allocation-free).
const ALLOC_ALWAYS: &[&str] = &[
    "Box::new(",
    "Rc::new(",
    "Arc::new(",
    "format!(",
    "String::new(",
    "String::from(",
    ".to_string(",
    ".to_owned(",
    ".to_vec(",
    ".collect(",
    "vec![",
    "Vec::from(",
];

/// Incremental growth: legal only when the surrounding function body
/// visibly reserves (`.reserve(` / `with_capacity(`) — otherwise the
/// growth can reallocate mid-slide and must carry an `alloc:amortized`
/// waiver. Sized-growth calls into caller-provided buffers
/// (`extend_from_slice`, `resize`, `copy_from_slice`) are treated as
/// caller-reserved and not listed here.
const ALLOC_GROWTH: &[&str] = &[
    ".push(",
    ".push_back(",
    ".push_front(",
    ".insert(",
    ".or_insert(",
    ".or_insert_with(",
    ".append(",
    ".extend(",
];

/// Panic tokens (word-boundary matched so `debug_assert!` — compiled
/// out of release builds — does not trip `assert!`).
const PANIC_TOKENS: &[&str] = &[
    "panic!(",
    ".unwrap()",
    ".expect(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Blocking tokens: locks, condvar waits, channels, clocks, filesystem,
/// stdio.
const BLOCK_TOKENS: &[&str] = &[
    "Mutex",
    "RwLock",
    ".lock()",
    ".wait(",
    "sync_channel",
    ".recv()",
    ".recv_timeout(",
    ".send(",
    "thread::sleep",
    "Instant::now",
    "SystemTime",
    ".elapsed()",
    "std::fs::",
    "File::open",
    "File::create",
    "println!(",
    "eprintln!(",
    "TcpStream",
    "TcpListener",
];

/// Token match with a word boundary on the left (so `assert!(` does not
/// match inside `debug_assert!(`; dot- and path-prefixed tokens are
/// boundary-safe by construction).
fn has_token(code: &str, token: &str) -> bool {
    // The boundary only matters for tokens that start with an identifier
    // char (`assert!(` vs `debug_assert!(`); dot-/path-prefixed tokens
    // are preceded by an identifier by construction.
    let needs_boundary = token
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = !needs_boundary
            || at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

/// True if `code` contains a slice/array index expression: a `[`
/// immediately preceded by an identifier char, `]`, or `)`. (`vec![`,
/// attributes `#[…]`, and type syntax `&[u8]` all fail the test.)
fn has_index_expr(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for i in 1..chars.len() {
        if chars[i] == '[' {
            let p = chars[i - 1];
            if p.is_alphanumeric() || p == '_' || p == ']' || p == ')' {
                // `vec![` / other macros: the char before the ident run
                // would be `!` — walk back over the ident.
                let mut j = i - 1;
                while j > 0 && (chars[j - 1].is_alphanumeric() || chars[j - 1] == '_') {
                    j -= 1;
                }
                if j > 0 && chars[j - 1] == '!' {
                    continue;
                }
                // A constant index (`s[3]`, `buf[0]`) is a fixed-array
                // access whose bound is visible at the definition; only
                // computed indices need a dominating guard.
                let inner: String = chars[i + 1..].iter().take_while(|&&c| c != ']').collect();
                let trimmed = inner.trim();
                if !trimmed.is_empty() && trimmed.chars().all(|c| c.is_ascii_digit() || c == '_') {
                    continue;
                }
                return true;
            }
        }
    }
    false
}

/// Look for `marker <reason>` in the comments on `line` or the three
/// lines above it within the same body. Returns `Some(reason)` when the
/// marker is present (reason may be empty — the caller rejects that).
fn site_waiver<'a>(body: &'a [BodyLine], idx: usize, marker: &str) -> Option<&'a str> {
    for k in (idx.saturating_sub(3)..=idx).rev() {
        if let Some(pos) = body[k].comment.find(marker) {
            return Some(body[k].comment[pos + marker.len()..].trim());
        }
    }
    None
}

/// One parsed baseline entry: `<rule-id> <fn-qname> <reason…>`.
#[derive(Debug)]
pub struct BaselineEntry {
    pub id: String,
    pub key: String,
    pub reason: String,
    pub used: std::cell::Cell<bool>,
}

/// Parse `crates/check/hotpath-baseline.txt`. Blank lines and `#`
/// comments are skipped; malformed or reason-less entries are returned
/// as errors (the gate refuses to run on a sloppy baseline).
pub fn load_baseline(root: &Path) -> (Vec<BaselineEntry>, Vec<String>) {
    let path = root.join("crates/check/hotpath-baseline.txt");
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    let Ok(text) = fs::read_to_string(&path) else {
        return (entries, errors);
    };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let id = parts.next().unwrap_or("").to_string();
        let key = parts.next().unwrap_or("").to_string();
        let reason = parts.next().unwrap_or("").trim().to_string();
        if id.is_empty() || key.is_empty() || reason.is_empty() {
            errors.push(format!(
                "hotpath-baseline.txt:{}: entry needs `<rule-id> <fn-qname> <reason>`: `{raw}`",
                i + 1
            ));
            continue;
        }
        entries.push(BaselineEntry {
            id,
            key,
            reason,
            used: std::cell::Cell::new(false),
        });
    }
    (entries, errors)
}

/// True (and marks the entry used) if the baseline waives rule `id` at
/// `key` (a fn qname for HP01–HP03, a module label for HP04).
pub fn baseline_waives(baseline: &[BaselineEntry], id: &str, key: &str) -> bool {
    for e in baseline {
        if e.id == id && e.key == key {
            e.used.set(true);
            return true;
        }
    }
    false
}

/// Scan one reachable function's body for contract violations.
/// `chain` is the shortest root→fn call chain for the finding message.
fn scan_fn(it: &FnItem, chain: &[String], baseline: &[BaselineEntry], findings: &mut Vec<Finding>) {
    let qname = it.qname();
    let body_reserves = it
        .body
        .iter()
        .any(|l| l.code.contains(".reserve(") || l.code.contains("with_capacity("));
    let body_guards = it
        .body
        .iter()
        .any(|l| l.code.contains(".len(") || l.code.contains("assert"));
    let via = if chain.len() > 1 {
        format!(" (reached via {})", chain.join(" -> "))
    } else {
        String::new()
    };

    for (idx, bl) in it.body.iter().enumerate() {
        if bl.in_test {
            continue;
        }
        let code = &bl.code;

        // HP01: allocation.
        let alloc_hit = ALLOC_ALWAYS
            .iter()
            .find(|t| has_token(code, t))
            .or_else(|| {
                if body_reserves {
                    None
                } else {
                    ALLOC_GROWTH.iter().find(|t| has_token(code, t))
                }
            });
        if let Some(token) = alloc_hit {
            let waiver = site_waiver(&it.body, idx, "alloc:amortized");
            let mut f = Finding::new(
                &it.file,
                bl.line,
                "hot-alloc",
                format!("`{token}` on the hot path in `{qname}`{via}"),
            );
            f.chain = chain.to_vec();
            match waiver {
                Some("") => {
                    f.message = "alloc:amortized needs a reason".into();
                    findings.push(f);
                }
                Some(_) => {
                    f.waived = true;
                    findings.push(f);
                }
                None => {
                    f.waived = baseline_waives(baseline, "HP01", &qname);
                    findings.push(f);
                }
            }
        }

        // HP02: panics.
        let panic_hit = PANIC_TOKENS.iter().find(|t| has_token(code, t));
        let index_hit = panic_hit.is_none() && !body_guards && has_index_expr(code);
        if let Some(token) = panic_hit {
            push_panic(
                it,
                chain,
                baseline,
                findings,
                idx,
                bl,
                format!("`{token}` reachable from a hot root in `{qname}`{via}"),
            );
        } else if index_hit {
            push_panic(
                it,
                chain,
                baseline,
                findings,
                idx,
                bl,
                format!(
                    "slice index without a visible bounds guard in `{qname}` \
                     (no `.len(` read or assertion in the body){via}"
                ),
            );
        }

        // HP03: blocking.
        if let Some(token) = BLOCK_TOKENS.iter().find(|t| has_token(code, t)) {
            let mut f = Finding::new(
                &it.file,
                bl.line,
                "hot-block",
                format!("`{token}` (blocking/syscall) on the hot path in `{qname}`{via}"),
            );
            f.chain = chain.to_vec();
            f.waived = baseline_waives(baseline, "HP03", &qname);
            findings.push(f);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_panic(
    it: &FnItem,
    chain: &[String],
    baseline: &[BaselineEntry],
    findings: &mut Vec<Finding>,
    idx: usize,
    bl: &BodyLine,
    message: String,
) {
    let mut f = Finding::new(&it.file, bl.line, "hot-panic", message);
    f.chain = chain.to_vec();
    match site_waiver(&it.body, idx, "check:allow") {
        Some("") => {
            f.message = "check:allow needs a reason".into();
        }
        Some(_) => f.waived = true,
        None => f.waived = baseline_waives(baseline, "HP02", &it.qname()),
    }
    findings.push(f);
}

/// The result of the hot-path pass: findings (waived ones included,
/// flagged), the root set, and reachability size for the report.
pub struct HotPathResult {
    pub findings: Vec<Finding>,
    pub roots: Vec<String>,
    pub reachable: usize,
}

/// Run the hot-path contracts over the parsed items.
pub fn check_hot_paths(graph: &CallGraph<'_>, baseline: &[BaselineEntry]) -> HotPathResult {
    let root_idx: Vec<usize> = graph
        .items
        .iter()
        .enumerate()
        .filter(|(_, it)| is_root(it))
        .map(|(i, _)| i)
        .collect();
    let parent = graph.reach(&root_idx);
    let mut findings = Vec::new();
    for &i in parent.keys() {
        let chain = graph.chain(&parent, i);
        scan_fn(&graph.items[i], &chain, baseline, &mut findings);
    }
    HotPathResult {
        findings,
        roots: root_idx.iter().map(|&i| graph.items[i].qname()).collect(),
        reachable: parent.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use std::path::Path;

    fn run(src: &str) -> Vec<Finding> {
        let items = parse_file(Path::new("crates/core/src/lib.rs"), src);
        let graph = CallGraph::build(&items);
        check_hot_paths(&graph, &[]).findings
    }

    #[test]
    fn direct_and_transitive_alloc_flagged() {
        let src =
            "impl AggregateOp for Sum {\n    fn combine(&self, a: u64) -> u64 { helper(a) }\n}\n\
                   fn helper(a: u64) -> u64 { let v = Vec::new(); v.push(a); a }\n";
        let f = run(src);
        assert!(
            f.iter()
                .any(|x| x.rule == "hot-alloc" && !x.waived && x.message.contains("helper")),
            "{f:#?}"
        );
        assert!(f.iter().any(|x| x.chain.len() == 2), "{f:#?}");
    }

    #[test]
    fn reserve_in_body_legalizes_growth() {
        let src = "impl AggregateOp for Sum {\n    fn combine(&self, a: u64) -> u64 {\n        self.buf.reserve(1);\n        self.buf.push(a);\n        a\n    }\n}\n";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn amortized_waiver_needs_reason() {
        let good = "impl AggregateOp for Sum {\n    fn combine(&self, a: u64) -> u64 {\n        // alloc:amortized chunk alloc is O(1) amortized\n        self.buf.push(a);\n        a\n    }\n}\n";
        let f = run(good);
        assert!(f.iter().all(|x| x.waived), "{f:#?}");
        let bad = good.replace(" chunk alloc is O(1) amortized", "");
        let f = run(&bad);
        assert!(
            f.iter()
                .any(|x| !x.waived && x.message.contains("needs a reason")),
            "{f:#?}"
        );
    }

    #[test]
    fn transitive_panic_and_blocking_flagged() {
        let src =
            "impl FinalAggregator for Deque {\n    fn slide(&mut self) { self.inner(); }\n}\n\
                   impl Deque {\n    fn inner(&mut self) { deep(); }\n}\n\
                   fn deep() { let g = m.lock(); x.unwrap(); }\n";
        let f = run(src);
        assert!(
            f.iter().any(|x| x.rule == "hot-panic" && !x.waived),
            "{f:#?}"
        );
        assert!(
            f.iter().any(|x| x.rule == "hot-block" && !x.waived),
            "{f:#?}"
        );
        let chain = &f.iter().find(|x| x.rule == "hot-block").unwrap().chain;
        assert_eq!(chain.len(), 3, "root -> inner -> deep: {chain:?}");
    }

    #[test]
    fn unguarded_index_flagged_guarded_index_not() {
        let bad = "impl AggregateOp for Sum {\n    fn combine(&self, a: u64) -> u64 { self.buf[a as usize] }\n}\n";
        let f = run(bad);
        assert!(
            f.iter()
                .any(|x| x.rule == "hot-panic" && x.message.contains("bounds guard")),
            "{f:#?}"
        );
        let good = "impl AggregateOp for Sum {\n    fn combine(&self, a: u64) -> u64 {\n        let i = (a as usize).min(self.buf.len() - 1);\n        self.buf[i]\n    }\n}\n";
        assert!(run(good).is_empty(), "{:#?}", run(good));
        // Constant indices are fixed-array accesses, not findings.
        let constant = "impl AggregateOp for Sum {\n    fn combine(&self, a: u64) -> u64 { self.s[0] ^ self.s[3] }\n}\n";
        assert!(run(constant).is_empty(), "{:#?}", run(constant));
    }

    #[test]
    fn debug_assert_is_not_a_panic_token() {
        let src = "impl AggregateOp for Sum {\n    fn combine(&self, a: u64) -> u64 {\n        debug_assert!(a < 10);\n        a\n    }\n}\n";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn cold_trait_methods_are_not_roots() {
        let src = "impl FinalAggregator for Deque {\n    fn warm(&mut self, n: usize) { self.buf.push(n); }\n    fn check_invariants(&self) { assert!(self.ok()); }\n}\n";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn baseline_waives_by_rule_and_qname() {
        let src = "impl FinalAggregator for Deque {\n    fn slide(&mut self) { t.elapsed(); }\n}\n";
        let items = parse_file(Path::new("crates/trace/src/recorder.rs"), src);
        let graph = CallGraph::build(&items);
        let baseline = vec![BaselineEntry {
            id: "HP03".into(),
            key: "trace::Deque::slide".into(),
            reason: "the recorder is the audited clock facade".into(),
            used: std::cell::Cell::new(false),
        }];
        let r = check_hot_paths(&graph, &baseline);
        assert!(r.findings.iter().all(|f| f.waived), "{:#?}", r.findings);
        assert!(baseline[0].used.get());
    }
}
