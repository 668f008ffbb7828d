//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! Currently one task: `lint`, a repo-specific static scan with three
//! rules sharing one line scanner:
//!
//! * **lock-across-send** — a lock guard held across a
//!   `send`/`try_send`/`send_batch`/`try_send_batch`/`hand_off`/`offer`/
//!   publish/upcall call, the deadlock class PR 2 removed from the delivery
//!   plane's publish path: a thread blocking on a bounded channel while
//!   holding a lock that the draining thread needs is a classic
//!   distributed-cache stall, and clippy has no lint for it. `send_batch`
//!   is the pipe call that parks on a full `Block` pipe; it, `send` (a
//!   one-element `send_batch`), `try_send_batch`, `hand_off` and `offer`
//!   are the only ways into a pipe.
//! * **hot-path-alloc** — a heap allocation inside a function marked
//!   `// lint: hot-path` (the allocation-free cached-read fast path).
//!   `Vec::new`/`vec!`/`Box::new`/`format!`/`.to_vec()`/
//!   `.collect::<Vec<…>>` in such a body defeats the zero-allocation
//!   guarantee the `zero_alloc` release test pins; the lint catches the
//!   regression at review time, before the counting allocator does.
//! * **std-hash-id-map** — a `HashMap` / `HashSet` keyed by an id newtype
//!   (`ObjectId`, `TxnId`, `CacheId`, `ClientId`, or a tuple starting with
//!   one) with the default SipHash hasher, in non-test code of the crates
//!   on the serving and classification paths. Those maps are `IdMap` /
//!   `IdSet` (`tcache_types::ids`); a default-hasher one costs a hit more
//!   than the rest of its lookup.
//!
//! The scan is a deliberately simple, line-based heuristic (no rustc
//! plumbing, no external deps), kept honest by a commented allowlist:
//! audited sites carry `// lint:allow lock-across-send — <why>` (or the
//! rule's own marker, `// lint:allow hot-path-alloc — <why>` /
//! `// lint:allow std-hash-id-map — <why>`) on the flagged line (or the
//! guard's binding line) and are skipped. Multi-line
//! statements can evade the scanner; it exists to catch the common shape
//! early and cheaply, not to be a soundness proof.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Marker that exempts an audited line (or its guard's binding line).
const ALLOW_MARKER: &str = "lint:allow lock-across-send";

/// Patterns that acquire a guard when bound with `let`.
const LOCK_PATTERNS: &[&str] = &[".lock()", ".read()", ".write()"];

/// Patterns that hand control to a channel or an upcall — the calls a
/// guard must not be held across.
const SEND_PATTERNS: &[&str] = &[
    ".send(",
    ".try_send(",
    ".send_batch(",
    ".try_send_batch(",
    ".hand_off(",
    ".offer(",
    ".publish(",
    "upcall(",
];

/// Marker comment that arms the hot-path allocation rule for the next
/// `fn` declaration.
const HOT_PATH_MARKER: &str = "lint: hot-path";

/// Marker that exempts an audited allocation inside a hot-path function.
const HOT_ALLOW_MARKER: &str = "lint:allow hot-path-alloc";

/// Allocation shapes banned inside `// lint: hot-path` functions.
/// Identifier-leading patterns are matched on a token boundary so
/// `ObservedVec::new()` / `smallvec![…]` (the inline small-buffers the
/// fast path exists to use) do not trip the rule.
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "vec![",
    "Box::new(",
    "format!(",
    ".to_vec()",
    ".collect::<Vec<",
];

/// Marker that exempts an audited default-hasher id map.
const ID_MAP_ALLOW_MARKER: &str = "lint:allow std-hash-id-map";

/// The id newtypes whose maps must not use the default hasher.
const ID_TYPES: &[&str] = &["ObjectId", "TxnId", "CacheId", "ClientId"];

/// Crates whose `src/` the id-map rule covers.
const ID_MAP_CRATES: &[&str] = &["types", "db", "cache", "net", "core", "monitor"];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rust_files(&root.join("crates"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        // The support shims implement the channels themselves; their
        // internals are out of scope for a caller-side discipline lint.
        if file.components().any(|c| c.as_os_str() == "support") {
            continue;
        }
        let Ok(source) = fs::read_to_string(file) else {
            continue;
        };
        scanned += 1;
        scan_file(file, &source, &mut findings);
    }

    if findings.is_empty() {
        println!(
            "xtask lint: {scanned} files scanned, no lock guard held across a send/upcall, \
             no allocation in a hot-path function, no default-hasher id map"
        );
        ExitCode::SUCCESS
    } else {
        for finding in &findings {
            eprintln!("{finding}");
        }
        eprintln!(
            "xtask lint: {} finding(s) in {scanned} files — hold no lock across \
             send/try_send/send_batch/try_send_batch/hand_off/offer/publish/upcall, \
             allocate nothing in `// {HOT_PATH_MARKER}` \
             functions and key no default-hasher map by an id, or audit the site and \
             annotate it with `// {ALLOW_MARKER} — <reason>` (locks) / \
             `// {HOT_ALLOW_MARKER} — <reason>` (hot-path allocations) / \
             `// {ID_MAP_ALLOW_MARKER} — <reason>` (id maps)",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

/// One flagged site.
enum Finding {
    /// A lock guard live across a send/upcall.
    GuardAcrossSend {
        file: PathBuf,
        line: usize,
        guard: String,
        bound_at: usize,
        call: String,
    },
    /// A heap allocation inside a `// lint: hot-path` function.
    HotPathAlloc {
        file: PathBuf,
        line: usize,
        pattern: &'static str,
        fn_line: usize,
    },
    /// A default-hasher `HashMap`/`HashSet` keyed by an id newtype.
    StdHashIdMap {
        file: PathBuf,
        line: usize,
        found: String,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::GuardAcrossSend {
                file,
                line,
                guard,
                bound_at,
                call,
            } => write!(
                f,
                "{}:{}: `{}` reached while holding lock guard `{}` (bound at line {})",
                file.display(),
                line,
                call,
                guard,
                bound_at
            ),
            Finding::HotPathAlloc {
                file,
                line,
                pattern,
                fn_line,
            } => write!(
                f,
                "{}:{}: `{}` allocates inside a `// {HOT_PATH_MARKER}` function \
                 (declared at line {}); hoist the allocation or annotate with \
                 `// {HOT_ALLOW_MARKER} — <reason>`",
                file.display(),
                line,
                pattern,
                fn_line
            ),
            Finding::StdHashIdMap { file, line, found } => write!(
                f,
                "{}:{}: `{}…>` hashes an id with the default SipHash; use `IdMap` / `IdSet` \
                 (tcache_types) or annotate with `// {ID_MAP_ALLOW_MARKER} — <reason>`",
                file.display(),
                line,
                found
            ),
        }
    }
}

/// A live guard binding.
struct Guard {
    name: String,
    depth: i32,
    line: usize,
    allowed: bool,
}

/// An active `// lint: hot-path` function body.
struct HotRegion {
    /// Brace depth at the `fn` declaration line; the body is deeper.
    entry_depth: i32,
    /// Whether the body's opening brace has been passed.
    entered: bool,
    /// Line of the `fn` declaration (for the finding message).
    fn_line: usize,
}

fn scan_file(path: &Path, source: &str, findings: &mut Vec<Finding>) {
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut in_block_comment = false;
    let mut hot_armed = false;
    let mut hot: Option<HotRegion> = None;
    // The id-map rule covers a file up to its first `#[cfg(test)]` (test
    // modules close the file, by this workspace's convention).
    let mut id_maps_checked = in_id_map_scope(path);

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_comments(raw, &mut in_block_comment);

        id_maps_checked &= !code.contains("#[cfg(test)]");
        if id_maps_checked && !raw.contains(ID_MAP_ALLOW_MARKER) {
            if let Some(found) = std_hash_id_map(&code) {
                findings.push(Finding::StdHashIdMap {
                    file: path.to_path_buf(),
                    line: line_no,
                    found,
                });
            }
        }

        // Hot-path allocation rule: banned shapes inside the marked body.
        if let Some(region) = &hot {
            if depth > region.entry_depth && !raw.contains(HOT_ALLOW_MARKER) {
                if let Some(pattern) = alloc_pattern(&code) {
                    findings.push(Finding::HotPathAlloc {
                        file: path.to_path_buf(),
                        line: line_no,
                        pattern,
                        fn_line: region.fn_line,
                    });
                }
            }
        }

        // A send while a guard is live — or a single-statement
        // acquire-then-send chain — is the shape the guard rule flags.
        if let Some(call) = SEND_PATTERNS.iter().find(|p| code.contains(**p)) {
            if !raw.contains(ALLOW_MARKER) {
                let live = guards.iter().find(|g| !g.allowed);
                let chained = LOCK_PATTERNS.iter().any(|p| code.contains(*p));
                let held = match live {
                    Some(guard) => Some((guard.name.clone(), guard.line)),
                    None if chained => Some(("<temporary>".to_string(), line_no)),
                    None => None,
                };
                if let Some((guard, bound_at)) = held {
                    findings.push(Finding::GuardAcrossSend {
                        file: path.to_path_buf(),
                        line: line_no,
                        guard,
                        bound_at,
                        call: call.trim_end_matches('(').to_string(),
                    });
                }
            }
        }

        // New guard bindings: `let [mut] name = ….lock()…;` (and RwLock
        // read/write). Temporaries without `let` die at the statement end
        // and are handled by the chained rule above.
        if let Some(name) = guard_binding(&code) {
            guards.push(Guard {
                name,
                depth,
                line: line_no,
                allowed: raw.contains(ALLOW_MARKER),
            });
        }

        // Explicit early releases.
        if code.contains("drop(") {
            guards.retain(|g| !code.contains(&format!("drop({})", g.name)));
        }

        // Hot-path arming: the marker comment arms the rule, the next `fn`
        // declaration opens the region at the current depth.
        if raw.contains(HOT_PATH_MARKER) && !raw.contains(HOT_ALLOW_MARKER) {
            hot_armed = true;
        } else if hot_armed && code.contains("fn ") {
            hot = Some(HotRegion {
                entry_depth: depth,
                entered: false,
                fn_line: line_no,
            });
            hot_armed = false;
        }

        // Scope tracking: guards die when their block closes (depth falls
        // below what it was at the binding); the hot region ends when the
        // function body's brace closes.
        depth += brace_delta(&code);
        guards.retain(|g| depth >= g.depth);
        if let Some(region) = &mut hot {
            if depth > region.entry_depth {
                region.entered = true;
            } else if region.entered {
                hot = None;
            }
        }
    }
}

/// Returns the first banned allocation pattern on the line, matching
/// identifier-leading patterns only on a token boundary (so
/// `ObservedVec::new()` and `smallvec![…]` don't count as `Vec::new(` /
/// `vec![`).
fn alloc_pattern(code: &str) -> Option<&'static str> {
    ALLOC_PATTERNS.iter().copied().find(|&pattern| {
        let needs_boundary = pattern
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        token_matches(code, pattern, needs_boundary).next().is_some()
    })
}

/// Byte offsets just past each occurrence of `pattern` in `code`; with
/// `needs_boundary`, only occurrences not preceded by an identifier
/// character.
fn token_matches<'a>(
    code: &'a str,
    pattern: &'a str,
    needs_boundary: bool,
) -> impl Iterator<Item = usize> + 'a {
    code.match_indices(pattern).filter_map(move |(at, _)| {
        let bounded = !needs_boundary
            || code[..at]
                .chars()
                .next_back()
                .is_none_or(|prev| !prev.is_ascii_alphanumeric() && prev != '_');
        bounded.then_some(at + pattern.len())
    })
}

/// `true` for non-test sources (`crates/<name>/src/…`) of the crates in
/// [`ID_MAP_CRATES`].
fn in_id_map_scope(path: &Path) -> bool {
    let parts: Vec<_> = path.components().map(|c| c.as_os_str()).collect();
    parts.windows(3).any(|w| {
        w[0] == "crates" && ID_MAP_CRATES.iter().any(|name| w[1] == *name) && w[2] == "src"
    })
}

/// The first `HashMap<` / `HashSet<` on the line whose key type is one of
/// [`ID_TYPES`] or a tuple starting with one, as `HashMap<ObjectId`.
fn std_hash_id_map(code: &str) -> Option<String> {
    ["HashMap<", "HashSet<"].iter().find_map(|container| {
        token_matches(code, container, true).find_map(|end| {
            let key = code[end..].trim_start().trim_start_matches('(').trim_start();
            let id = ID_TYPES.iter().find(|id| {
                key.strip_prefix(**id).is_some_and(|rest| {
                    !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                })
            })?;
            Some(format!("{container}{id}"))
        })
    })
}

/// Extracts the bound name of a guard-acquiring `let`, if this line is one.
fn guard_binding(code: &str) -> Option<String> {
    if !LOCK_PATTERNS.iter().any(|p| code.contains(*p)) {
        return None;
    }
    let let_pos = code.find("let ")?;
    let rest = code[let_pos + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    // `let (a, b) = …` / `let Some(x) = …` patterns: take a stable
    // placeholder; scope tracking still works.
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "_" {
        return Some("<pattern>".to_string());
    }
    // Ignore bindings that immediately release (`….lock().clone()` style
    // chains that end in a non-guard value are indistinguishable here;
    // the allowlist covers the rare false positive).
    Some(name)
}

/// Net brace depth change of a line, ignoring braces inside string and
/// char literals (best effort).
fn brace_delta(code: &str) -> i32 {
    let mut delta = 0;
    let mut in_string = false;
    let mut in_char = false;
    let mut prev_backslash = false;
    for c in code.chars() {
        match c {
            '"' if !in_char && !prev_backslash => in_string = !in_string,
            '\'' if !in_string && !prev_backslash => in_char = !in_char,
            '{' if !in_string && !in_char => delta += 1,
            '}' if !in_string && !in_char => delta -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    delta
}

/// Removes `//` comments and tracks `/* … */` blocks across lines.
fn strip_comments(raw: &str, in_block: &mut bool) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        if *in_block {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                *in_block = false;
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                *in_block = true;
            }
            _ => out.push(c),
        }
    }
    out
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR points at xtask/; the workspace root is its
    // parent. Fall back to the current directory for direct invocation.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).parent().map(Path::to_path_buf).unwrap_or_default(),
        Err(_) => PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(source: &str) -> Vec<String> {
        findings_in("test.rs", source)
    }

    fn findings_in(path: &str, source: &str) -> Vec<String> {
        let mut findings = Vec::new();
        scan_file(Path::new(path), source, &mut findings);
        findings.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn flags_send_under_held_guard() {
        let src = "fn f() {\n    let guard = self.state.lock();\n    tx.send(1).unwrap();\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("`.send`"));
        assert!(found[0].contains("guard"));
    }

    #[test]
    fn flags_send_batch_under_held_guard() {
        let src = "fn f() {\n    let guard = self.state.lock();\n    let _ = tx.send_batch(batch);\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].contains("`.send_batch`"));
    }

    #[test]
    fn flags_try_send_batch_under_held_guard() {
        let src = "fn f() {\n    let guard = self.state.write();\n    let _ = tx.try_send_batch(batch);\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].contains("`.try_send_batch`"));
    }

    #[test]
    fn flags_hand_off_under_held_guard() {
        let src = "fn f() {\n    let guard = self.state.lock();\n    let _ = tx.hand_off(batch, serve);\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].contains("`.hand_off`"));
    }

    #[test]
    fn guard_dropped_by_scope_or_drop_is_fine() {
        let scoped = "fn f() {\n    {\n        let guard = self.state.lock();\n    }\n    tx.send(1).unwrap();\n}\n";
        assert!(findings_for(scoped).is_empty());
        let dropped = "fn f() {\n    let guard = self.state.lock();\n    drop(guard);\n    tx.send(1).unwrap();\n}\n";
        assert!(findings_for(dropped).is_empty());
    }

    #[test]
    fn flags_single_statement_lock_send_chain() {
        let src = "fn f() {\n    self.tx.lock().send(1).unwrap();\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("<temporary>"));
    }

    #[test]
    fn allow_marker_silences_audited_sites() {
        let on_send =
            "fn f() {\n    let guard = self.state.lock();\n    tx.send(1).unwrap(); // lint:allow lock-across-send — audited\n}\n";
        assert!(findings_for(on_send).is_empty());
        let on_binding =
            "fn f() {\n    let guard = self.state.lock(); // lint:allow lock-across-send — audited\n    tx.send(1).unwrap();\n}\n";
        assert!(findings_for(on_binding).is_empty());
    }

    #[test]
    fn comments_do_not_confuse_the_scanner() {
        let src = "fn f() {\n    // let guard = self.state.lock();\n    tx.send(1).unwrap();\n}\n";
        assert!(findings_for(src).is_empty());
        let block = "fn f() {\n    /* let g = x.lock(); */\n    tx.send(1).unwrap();\n}\n";
        assert!(findings_for(block).is_empty());
    }

    #[test]
    fn hot_path_function_rejects_allocations() {
        let src = "// lint: hot-path\nfn f() {\n    let v = Vec::new();\n    let b = vec![1];\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 2);
        assert!(found[0].contains("`Vec::new(`"));
        assert!(found[0].contains("declared at line 2"));
        assert!(found[1].contains("`vec![`"));
    }

    #[test]
    fn hot_path_region_ends_with_the_function_body() {
        let src = "// lint: hot-path\nfn f() {\n    g();\n}\n\nfn h() {\n    let v = Vec::new();\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn unmarked_functions_may_allocate() {
        let src = "fn f() {\n    let v = Vec::new();\n    let s = format!(\"x\");\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn hot_path_allow_marker_silences_audited_allocations() {
        let src = "// lint: hot-path\nfn f() {\n    let v = Vec::new(); // lint:allow hot-path-alloc — cold error arm\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn inline_small_buffers_do_not_trip_the_hot_path_rule() {
        let src = "// lint: hot-path\nfn f() {\n    let v = ObservedVec::new();\n    let s = smallvec![1];\n    let w = SmallVec::new();\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn hot_path_rule_spans_multiline_signatures_and_all_patterns() {
        let src = "// lint: hot-path\nfn f(\n    a: u32,\n) -> u32 {\n    let s = format!(\"x\");\n    let v = xs.iter().collect::<Vec<_>>();\n    let w = ys.to_vec();\n    let b = Box::new(1);\n    a\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 4);
        assert!(found.iter().all(|f| f.contains("declared at line 2")));
    }

    #[test]
    fn flags_default_hasher_maps_keyed_by_ids() {
        let src = "struct S {\n    a: HashMap<ObjectId, u32>,\n    b: std::collections::HashSet<TxnId>,\n    c: HashMap<(ObjectId, Version), Vec<TxnId>>,\n    d: Mutex<HashMap< CacheId, u8>>,\n}\n";
        let found = findings_in("crates/cache/src/storage.rs", src);
        assert_eq!(found.len(), 4, "{found:#?}");
        assert!(found[0].contains(":2:") && found[0].contains("`HashMap<ObjectId…>`"));
        assert!(found[1].contains("`HashSet<TxnId…>`"));
        assert!(found[2].contains("`HashMap<ObjectId…>`"));
        assert!(found[3].contains("`HashMap<CacheId…>`"));
    }

    #[test]
    fn id_maps_other_keys_and_audited_sites_pass_the_id_map_rule() {
        let src = "struct S {\n    a: IdMap<ObjectId, u32>,\n    b: IdSet<TxnId>,\n    c: HashMap<String, ObjectId>,\n    d: HashMap<ObjectIdx, u8>,\n    e: HashMap<K, V, BuildHasherDefault<IdHasher>>,\n    f: MyHashMap<ObjectId, u8>,\n    g: HashMap<ClientId, u8>, // lint:allow std-hash-id-map — client-chosen ids\n    // h: HashMap<ObjectId, u8>,\n}\n";
        assert!(findings_in("crates/db/src/locks.rs", src).is_empty());
    }

    #[test]
    fn id_map_rule_covers_non_test_code_of_the_serving_crates_only() {
        let src = "fn f() {\n    let m: HashMap<ObjectId, u32> = HashMap::new();\n}\n";
        for covered in ["types", "db", "cache", "net", "core", "monitor"] {
            let path = format!("crates/{covered}/src/sub/x.rs");
            assert_eq!(findings_in(&path, src).len(), 1, "{path}");
        }
        for exempt in [
            "crates/cache/tests/storage_model.rs",
            "crates/cache/benches/b.rs",
            "crates/sim/src/results.rs",
            "crates/workload/src/graph/x.rs",
            "xtask/src/main.rs",
        ] {
            assert!(findings_in(exempt, src).is_empty(), "{exempt}");
        }
        // A file's unit tests (from `#[cfg(test)]` to its end) are exempt.
        let with_tests = "type A = HashSet<TxnId>;\n#[cfg(test)]\nmod tests {\n    type B = HashSet<TxnId>;\n}\n";
        let found = findings_in("crates/monitor/src/sgt.rs", with_tests);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains(":1:"));
    }

    #[test]
    fn hot_path_marker_in_plain_comment_position_arms_next_fn_only() {
        let src = "// lint: hot-path\npub(crate) fn fast() {\n    let v = Vec::new();\n}\nfn slow() {\n    let v = Vec::new();\n}\n";
        let found = findings_for(src);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains(":3:"));
    }
}
