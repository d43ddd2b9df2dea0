//! hcf-lint: static source-discipline scanner for the workspace.
//!
//! Hand-rolled (no syn, no regex — the build stays hermetic): a small
//! scanner strips comments and string/char literals, then line-oriented
//! rules run over the remaining code text. The rules encode conventions
//! the simulator's determinism and the sanitizer's soundness depend on:
//!
//! * **`no-std-sync`** — `std::sync::Mutex` / `std::sync::RwLock` are
//!   banned outside `crates/util/src/sync.rs`. Poisoning semantics and
//!   unaudited blocking would bypass the lockstep scheduler's sync
//!   points; everything must go through `hcf_util::sync`.
//! * **`safety-comment`** — every `unsafe` keyword needs a `// SAFETY:`
//!   comment on the same line or within the three lines above it.
//! * **`no-wall-clock`** — `SystemTime::now` / `Instant::now` are banned
//!   in library sources; simulated time comes from the runtime's cycle
//!   counter. (Benches, tests and binaries may time real work.)
//! * **`no-adhoc-rng`** — `thread_rng`, `from_entropy` and the external
//!   `rand::` crate are banned in library sources; deterministic
//!   reproduction requires seeded `hcf_util::rng` generators.
//! * **`seqcst`** — `Ordering::SeqCst` is banned in library sources.
//!   Every atomic in the TM hot path carries a justified
//!   acquire/release/relaxed ordering; a stray SeqCst usually means the
//!   ordering was never thought through (and it hides the two deliberate
//!   store-buffering fences). The surviving sites carry
//!   `hcf-lint: allow(seqcst)` next to their justification.
//!
//! Suppress a finding with `// hcf-lint: allow(<rule>)` on the offending
//! line or the line directly above it.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How a file is classified, which decides the rule set applied to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/<name>/src/**` except binaries — all rules apply.
    LibrarySource,
    /// Tests, benches, examples, binaries — wall-clock/RNG rules relaxed.
    SupportSource,
    /// The one file allowed to name `std::sync` primitives.
    SyncShim,
}

/// A single lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path label (repo-relative where possible).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `no-std-sync`.
    pub rule: &'static str,
    /// Explanation of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Rule identifiers, also accepted by `hcf-lint: allow(...)`.
pub const RULES: &[&str] = &[
    "no-std-sync",
    "safety-comment",
    "no-wall-clock",
    "no-adhoc-rng",
    "seqcst",
];

/// Strips `//` comments, nested `/* */` comments, string literals
/// (including raw strings) and char literals from `source`, replacing
/// their contents with spaces so that byte offsets and line numbers are
/// preserved. Line comments are *kept* in the parallel `comments` return
/// so the `safety-comment` rule can look for `SAFETY:` markers.
fn split_code_and_comments(source: &str) -> (String, String) {
    let bytes = source.as_bytes();
    let mut code = vec![b' '; bytes.len()];
    let mut comments = vec![b' '; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            code[i] = b'\n';
            comments[i] = b'\n';
            i += 1;
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            // Line comment: copy to the comment plane.
            while i < bytes.len() && bytes[i] != b'\n' {
                comments[i] = bytes[i];
                i += 1;
            }
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            // Block comment, possibly nested; copied to the comment plane
            // with newlines preserved in both planes.
            let mut depth = 1usize;
            comments[i] = b'/';
            comments[i + 1] = b'*';
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'\n' {
                    code[i] = b'\n';
                    comments[i] = b'\n';
                    i += 1;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    comments[i] = b'/';
                    comments[i + 1] = b'*';
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    comments[i] = b'*';
                    comments[i + 1] = b'/';
                    i += 2;
                } else {
                    comments[i] = bytes[i];
                    i += 1;
                }
            }
        } else if b == b'r' && matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) {
            // Possible raw string r"..." / r#"..."#.
            let start = i;
            let mut j = i + 1;
            let mut hashes = 0usize;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                code[start] = b'r';
                j += 1;
                // Scan for closing quote followed by `hashes` hashes.
                'raw: while j < bytes.len() {
                    if bytes[j] == b'\n' {
                        code[j] = b'\n';
                        comments[j] = b'\n';
                        j += 1;
                        continue;
                    }
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while seen < hashes && bytes.get(k) == Some(&b'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                i = j;
            } else {
                code[i] = b'r';
                i += 1;
            }
        } else if b == b'"' {
            // String literal with escapes.
            code[i] = b'"';
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        code[i] = b'"';
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        code[i] = b'\n';
                        comments[i] = b'\n';
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
        } else if b == b'\'' {
            // Char literal or lifetime. A lifetime ('a, 'static) has no
            // closing quote nearby; a char literal closes within a few
            // bytes ('x', '\n', '\u{1F600}').
            if let Some(end) = char_literal_end(bytes, i) {
                code[i] = b'\'';
                code[end] = b'\'';
                i = end + 1;
            } else {
                code[i] = b'\'';
                i += 1;
            }
        } else {
            code[i] = b;
            i += 1;
        }
    }
    // The planes are built from ASCII or copied source bytes; copied
    // multibyte sequences stay intact because we copy byte-for-byte.
    (
        String::from_utf8_lossy(&code).into_owned(),
        String::from_utf8_lossy(&comments).into_owned(),
    )
}

/// If `bytes[start]` opens a char literal, returns the index of its
/// closing quote; `None` for lifetimes.
fn char_literal_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    if bytes.get(i) == Some(&b'\\') {
        // Escaped char: skip the escape, then scan to the close quote
        // (covers \u{...}).
        i += 2;
        while i < bytes.len() && i - start < 16 {
            if bytes[i] == b'\'' {
                return Some(i);
            }
            i += 1;
        }
        return None;
    }
    // Unescaped: a char literal is exactly one char then a quote. Scan at
    // most 4 content bytes (one UTF-8 char) for the closing quote.
    let mut j = i;
    while j < bytes.len() && j - i < 5 {
        if bytes[j] == b'\'' {
            return if j == i { None } else { Some(j) };
        }
        if bytes[j] == b'\n' {
            return None;
        }
        j += 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `needle` occurs in `hay` bounded by non-identifier characters.
fn contains_word(hay: &str, needle: &str) -> bool {
    let hb = hay.as_bytes();
    let nb = needle.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(hb[at - 1]);
        let after = at + nb.len();
        let after_ok = after >= hb.len() || !is_ident_byte(hb[after]);
        if before_ok && after_ok {
            return true;
        }
        from = at + nb.len();
    }
    false
}

fn suppressed(comment_lines: &[&str], idx: usize, rule: &str) -> bool {
    let hit = |line: &str| {
        line.find("hcf-lint:").is_some_and(|p| {
            let rest = &line[p + "hcf-lint:".len()..];
            rest.contains("allow") && rest.contains(rule)
        })
    };
    hit(comment_lines[idx]) || (idx > 0 && hit(comment_lines[idx - 1]))
}

/// Lints one source file's text. `path_label` is used verbatim in
/// findings.
pub fn lint_source(path_label: &str, source: &str, class: FileClass) -> Vec<Finding> {
    let (code, comments) = split_code_and_comments(source);
    let code_lines: Vec<&str> = code.lines().collect();
    let comment_lines: Vec<&str> = comments.lines().collect();
    let mut findings = Vec::new();
    let mut flag = |line: usize, rule: &'static str, message: String| {
        if !suppressed(&comment_lines, line, rule) {
            findings.push(Finding {
                path: path_label.to_string(),
                line: line + 1,
                rule,
                message,
            });
        }
    };

    for (idx, &line) in code_lines.iter().enumerate() {
        // no-std-sync: `std::sync::Mutex` / `RwLock` (also via a prior
        // `use std::sync::...` making the bare names std's).
        if class != FileClass::SyncShim {
            if let Some(p) = line.find("std::sync::") {
                let rest = &line[p + "std::sync::".len()..];
                for prim in ["Mutex", "RwLock"] {
                    if contains_word(rest, prim) {
                        flag(
                            idx,
                            "no-std-sync",
                            format!(
                                "std::sync::{prim} is banned outside hcf-util::sync \
                                 (poisoning + unscheduled blocking); use hcf_util::sync::{prim}"
                            ),
                        );
                    }
                }
            }
        }

        // safety-comment: unsafe needs a SAFETY: note nearby. Trait
        // *declarations* (`unsafe trait`/`unsafe impl` headers still
        // assert something, so they are held to the same rule).
        if contains_word(line, "unsafe") && !contains_word(line, "forbid") {
            let window = idx.saturating_sub(3)..=idx;
            let documented = window
                .into_iter()
                .any(|i| comment_lines[i].contains("SAFETY:"));
            if !documented {
                flag(
                    idx,
                    "safety-comment",
                    "`unsafe` without a `// SAFETY:` comment on the same line or within \
                     the 3 lines above"
                        .to_string(),
                );
            }
        }

        if class == FileClass::LibrarySource {
            // no-wall-clock: simulated time only.
            for pat in ["SystemTime::now", "Instant::now"] {
                if line.contains(pat) {
                    flag(
                        idx,
                        "no-wall-clock",
                        format!(
                            "{pat} in library code breaks deterministic replay; use the \
                                 runtime's cycle counter"
                        ),
                    );
                }
            }
            // no-adhoc-rng: seeded generators only.
            for pat in ["thread_rng", "from_entropy"] {
                if contains_word(line, pat) {
                    flag(
                        idx,
                        "no-adhoc-rng",
                        format!(
                            "{pat} is nondeterministic; use a seeded hcf_util::rng \
                                 generator"
                        ),
                    );
                }
            }
            if line.contains("rand::") && !line.contains("hcf_util") {
                flag(
                    idx,
                    "no-adhoc-rng",
                    "external `rand::` path in library code; the workspace is hermetic — \
                     use hcf_util::rng"
                        .to_string(),
                );
            }
            // seqcst: every ordering in library code must be justified;
            // blanket SeqCst is almost always an unexamined default.
            if contains_word(line, "SeqCst") {
                flag(
                    idx,
                    "seqcst",
                    "Ordering::SeqCst in library code; pick the weakest correct ordering \
                     and document it, or justify with `hcf-lint: allow(seqcst)`"
                        .to_string(),
                );
            }
        }
    }
    findings
}

/// Classifies `rel` (a repo-relative path with `/` separators).
pub fn classify(rel: &str) -> FileClass {
    if rel == "crates/util/src/sync.rs" {
        return FileClass::SyncShim;
    }
    let in_lib_src =
        rel.starts_with("crates/") && rel.contains("/src/") && !rel.contains("/src/bin/");
    if in_lib_src {
        FileClass::LibrarySource
    } else {
        FileClass::SupportSource
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "related" {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lints every `.rs` file under `root` (skipping `target/` and `.git/`)
/// and returns all findings, ordered by path and line.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    walk(root, &mut files);
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &source, classify(&rel)));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> Vec<Finding> {
        lint_source("crates/x/src/lib.rs", src, FileClass::LibrarySource)
    }

    #[test]
    fn flags_std_sync_mutex() {
        let f = lint_lib("use std::sync::Mutex;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-std-sync");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn flags_std_sync_in_braced_use() {
        let f = lint_lib("use std::sync::{Arc, Mutex};\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-std-sync");
    }

    #[test]
    fn atomics_are_fine() {
        assert!(lint_lib("use std::sync::atomic::AtomicU64;\nuse std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn sync_shim_exempt() {
        let f = lint_source(
            "crates/util/src/sync.rs",
            "use std::sync::Mutex as StdMutex;\n",
            FileClass::SyncShim,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_flagged() {
        let f = lint_lib("fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn safety_comment_same_line_passes() {
        assert!(lint_lib("unsafe { g() } // SAFETY: trivially fine\n").is_empty());
    }

    #[test]
    fn safety_comment_too_far_away_flagged() {
        let src = "// SAFETY: stale\n\n\n\n\nunsafe { g() }\n";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn wall_clock_flagged_in_library_only() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(lint_lib(src).len(), 1);
        assert!(lint_source("crates/x/benches/b.rs", src, FileClass::SupportSource).is_empty());
    }

    #[test]
    fn adhoc_rng_flagged() {
        let f = lint_lib("let mut r = rand::thread_rng();\n");
        assert!(f.iter().any(|x| x.rule == "no-adhoc-rng"), "{f:?}");
    }

    #[test]
    fn mentions_in_strings_and_comments_ignored() {
        let src = r#"
// std::sync::Mutex is banned, as is thread_rng and unsafe code.
/* also unsafe, SystemTime::now and std::sync::RwLock in block comments */
let s = "std::sync::Mutex unsafe thread_rng Instant::now";
let r = r"std::sync::RwLock";
"#;
        assert!(lint_lib(src).is_empty(), "{:?}", lint_lib(src));
    }

    #[test]
    fn char_literals_do_not_eat_code() {
        // A lifetime tick must not swallow the rest of the file as a
        // "char literal" — the violation after it must still be seen.
        let src = "fn f<'a>(x: &'a u64) {}\nuse std::sync::Mutex;\n";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn suppression_same_line() {
        let src = "use std::sync::Mutex; // hcf-lint: allow(no-std-sync)\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn suppression_previous_line() {
        let src = "// hcf-lint: allow(safety-comment)\nunsafe { g() }\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn suppression_is_rule_specific() {
        let src = "// hcf-lint: allow(no-std-sync)\nunsafe { g() }\n";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
    }

    #[test]
    fn seqcst_flagged_in_library_only() {
        let src = "x.store(1, Ordering::SeqCst);\n";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "seqcst");
        assert!(lint_source("crates/x/tests/t.rs", src, FileClass::SupportSource).is_empty());
    }

    #[test]
    fn seqcst_suppression_with_justification() {
        let src = "// Store-buffering fence. hcf-lint: allow(seqcst)\n\
                   fence(Ordering::SeqCst);\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn seqcst_in_comment_not_flagged() {
        assert!(lint_lib("// SeqCst would also work but is slower.\nlet x = 1;\n").is_empty());
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/tmem/src/txn.rs"), FileClass::LibrarySource);
        assert_eq!(classify("crates/util/src/sync.rs"), FileClass::SyncShim);
        assert_eq!(
            classify("crates/san/src/bin/hcf-lint.rs"),
            FileClass::SupportSource
        );
        assert_eq!(
            classify("crates/sim/tests/determinism.rs"),
            FileClass::SupportSource
        );
        assert_eq!(
            classify("crates/ds/benches/bench.rs"),
            FileClass::SupportSource
        );
    }

    #[test]
    fn nested_block_comments_handled() {
        let src = "/* outer /* inner unsafe */ still comment std::sync::Mutex */\nfn ok() {}\n";
        assert!(lint_lib(src).is_empty());
    }
}
