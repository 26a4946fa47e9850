//! Intra-crate call graph and transitive hot-path closure.
//!
//! The `hot` fences in [`crate::source`] mark dispatch loops lexically,
//! but the loop bodies call helpers — the MAC line kernel, `count_replayed_search`,
//! index maintenance — whose own bodies are just as latency-critical.
//! This module recovers a conservative by-name call graph *within each
//! crate* (cross-crate calls go through typed public APIs that the callee
//! crate fences on its own side) and computes the set of functions
//! transitively reachable from any hot fence, each with a human-readable
//! witness chain for the finding message.
//!
//! Resolution is name-based, not type-based: a call `foo(…)` or `x.foo(…)`
//! marks every `fn foo` in the same crate as reachable. That
//! over-approximates (two unrelated `fn len`s alias), which is the safe
//! direction for a reachability lint — a function is only exonerated when
//! *no* hot call site could plausibly reach it.

use std::collections::BTreeMap;

use crate::lexer::is_ident_char;
use crate::source::Workspace;
use crate::symbols::{crate_of, SymbolTable};

/// Rust keywords that can precede `(` without being calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "in", "as", "move", "loop", "else", "let",
];

/// Extracts plausible callee names from one blanked code line: every
/// identifier immediately followed by `(` that is not a `fn` definition,
/// a macro invocation (`name!(`), or a control-flow keyword.
pub fn calls_on_line(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut prev_word = String::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i] as char) {
                i += 1;
            }
            let word = &code[start..i];
            let mut j = i;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            let next = bytes.get(j).copied();
            if next == Some(b'(')
                && prev_word != "fn"
                && !NON_CALL_WORDS.contains(&word)
                // Tuple-struct / enum constructors are capitalized; they
                // never resolve to a `fn` and calling them allocates
                // nothing by themselves.
                && !word.starts_with(|ch: char| ch.is_ascii_uppercase())
            {
                out.push(word.to_string());
            }
            if next == Some(b'!') {
                // Macro invocation: the macro body is inspected textually
                // by the needle rules, not through the call graph.
            }
            prev_word = word.to_string();
        } else {
            i += 1;
        }
    }
    out
}

/// The hot closure: function index → witness chain describing *why* it is
/// considered hot-reachable.
#[derive(Debug, Default)]
pub struct HotSet {
    /// `fn index in SymbolTable::fns → witness` (deterministic order).
    pub reasons: BTreeMap<usize, String>,
}

impl HotSet {
    /// Computes the closure: seed with every function called on a
    /// hot-fenced line, then propagate through intra-crate call edges.
    pub fn compute(ws: &Workspace, symbols: &SymbolTable) -> Self {
        let mut set = HotSet::default();
        let mut queue: Vec<usize> = Vec::new();

        // Seed: callees of calls appearing on directly-fenced lines.
        for file in &ws.files {
            let krate = crate_of(&file.path);
            for (li, line) in file.lines.iter().enumerate() {
                if !file.hot.get(li).copied().unwrap_or(false) {
                    continue;
                }
                for name in calls_on_line(&line.code) {
                    for &target in symbols.resolve(krate, &name) {
                        if symbols.fns[target].body.is_none() {
                            continue;
                        }
                        set.reasons.entry(target).or_insert_with(|| {
                            let witness =
                                format!("called from hot fence at {}:{}", file.path, li + 1);
                            queue.push(target);
                            witness
                        });
                    }
                }
            }
        }

        // Propagate: anything a hot-reachable fn calls (same crate) is
        // hot-reachable too, with the chain extended one hop.
        while let Some(f) = queue.pop() {
            let (file_idx, name, body) = {
                let def = &symbols.fns[f];
                (def.file, def.name.clone(), def.body)
            };
            let Some((start, end)) = body else { continue };
            let file = &ws.files[file_idx];
            let krate = crate_of(&file.path);
            let parent_reason = set.reasons[&f].clone();
            for li in start..=end.min(file.lines.len().saturating_sub(1)) {
                for callee in calls_on_line(&file.lines[li].code) {
                    for &target in symbols.resolve(krate, &callee) {
                        if target == f || symbols.fns[target].body.is_none() {
                            continue;
                        }
                        set.reasons.entry(target).or_insert_with(|| {
                            let witness = format!(
                                "called from hot fn `{}` ({}:{}; {})",
                                name,
                                file.path,
                                li + 1,
                                parent_reason
                            );
                            queue.push(target);
                            witness
                        });
                    }
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::analyze_file;
    use crate::symbols::SymbolTable;

    #[test]
    fn call_extraction_skips_keywords_macros_and_defs() {
        let calls =
            calls_on_line("fn outer() { if ready(x) { inner(y); format!(\"z\"); Some(q) } }");
        assert_eq!(calls, vec!["ready".to_string(), "inner".to_string()]);
        assert!(calls_on_line("let v = Vec::with_capacity(n);").contains(&"with_capacity".into()));
        assert!(calls_on_line("x.unwrap()").contains(&"unwrap".into()));
    }

    fn ws_of(src: &str) -> Workspace {
        Workspace {
            root: std::path::PathBuf::from("."),
            files: vec![analyze_file(
                "crates/core/src/engine.rs",
                src,
                &["directive"],
            )],
        }
    }

    #[test]
    fn closure_extends_fences_transitively() {
        let src = "\
pub fn dispatch(&mut self) {
    // gaasx-lint: hot
    for c in chunks {
        step_one(c);
    }
    // gaasx-lint: end-hot
    cold_cleanup();
}
fn step_one(c: &Chunk) {
    helper(c);
}
fn helper(c: &Chunk) {
    c.touch();
}
fn cold_cleanup() {
    log_it();
}
fn log_it() {}
";
        let ws = ws_of(src);
        let symbols = SymbolTable::build(&ws);
        let hot = HotSet::compute(&ws, &symbols);
        let hot_names: Vec<&str> = hot
            .reasons
            .keys()
            .map(|&i| symbols.fns[i].name.as_str())
            .collect();
        assert!(hot_names.contains(&"step_one"), "{hot_names:?}");
        assert!(hot_names.contains(&"helper"), "{hot_names:?}");
        assert!(!hot_names.contains(&"cold_cleanup"), "{hot_names:?}");
        assert!(!hot_names.contains(&"log_it"), "{hot_names:?}");
        // Witness chains name the fence and the intermediate hop.
        let helper_idx = hot
            .reasons
            .keys()
            .find(|&&i| symbols.fns[i].name == "helper")
            .copied()
            .unwrap_or(usize::MAX);
        let reason = &hot.reasons[&helper_idx];
        assert!(reason.contains("step_one"), "{reason}");
        assert!(reason.contains("hot fence"), "{reason}");
    }

    #[test]
    fn resolution_stays_within_the_crate() {
        let a = analyze_file(
            "crates/core/src/engine.rs",
            "pub fn run() {\n    // gaasx-lint: hot\n    shared_name();\n    // gaasx-lint: end-hot\n}\n",
            &["directive"],
        );
        let b = analyze_file(
            "crates/xbar/src/mac.rs",
            "pub fn shared_name() {\n    boom();\n}\nfn boom() {}\n",
            &["directive"],
        );
        let ws = Workspace {
            root: std::path::PathBuf::from("."),
            files: vec![a, b],
        };
        let symbols = SymbolTable::build(&ws);
        let hot = HotSet::compute(&ws, &symbols);
        assert!(hot.reasons.is_empty(), "cross-crate call must not seed");
    }
}
