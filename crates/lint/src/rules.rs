//! The eight repo-specific rules, each encoding a shipped or near-miss bug.
//!
//! | rule | historical bug |
//! |------|----------------|
//! | `no-stat-wipe` | `preset_mac` called `reset_stats()` mid-run, wiping MAC counters |
//! | `unchecked-accounting` | `u64` cycle/energy accumulators overflowed and panicked |
//! | `alloc-in-hot` | per-MAC `Vec` allocation in the CAM/MAC dispatch loop (the since-removed allocating `HitVector::chunks`) |
//! | `panic-in-lib` | library panics abort whole sharded runs |
//! | `summary-conservation` | an `OpSummary` counter was added without energy wiring |
//! | `thread-containment` | ad-hoc threading outside the sharded merge discipline |
//! | `seeded-rng` | OS-entropy RNGs make noise/fault runs unreproducible |
//! | `wall-clock` | a host `Instant::now()` leaked into modeled-time cost code |

use std::collections::BTreeSet;

use crate::findings::{Finding, LintReport};
use crate::lexer::is_ident_char;
use crate::source::{FileKind, SourceFile, Workspace};

/// Every rule id, including the unsuppressible `directive` meta-rule.
pub const RULE_NAMES: &[&str] = &[
    "no-stat-wipe",
    "unchecked-accounting",
    "alloc-in-hot",
    "panic-in-lib",
    "summary-conservation",
    "thread-containment",
    "seeded-rng",
    "wall-clock",
    "mixed-units",
    "unit-ambiguous-sig",
    "unit-cast",
    "hot-reachable-alloc",
    "hot-reachable-panic",
    "unbounded-queue",
    "directive",
];

/// Runs every rule over the workspace, applies suppressions, and returns
/// the sorted report.
pub fn check_workspace(ws: &Workspace) -> LintReport {
    let mut findings: Vec<Finding> = Vec::new();
    // Directive findings are never suppressible: a broken suppression must
    // not be able to hide itself.
    for file in &ws.files {
        findings.extend(file.directive_findings.iter().cloned());
    }

    let mut candidates = Vec::new();
    no_stat_wipe(ws, &mut candidates);
    unchecked_accounting(ws, &mut candidates);
    alloc_in_hot(ws, &mut candidates);
    panic_in_lib(ws, &mut candidates);
    summary_conservation(ws, &mut candidates);
    thread_containment(ws, &mut candidates);
    seeded_rng(ws, &mut candidates);
    wall_clock(ws, &mut candidates);
    unbounded_queue(ws, &mut candidates);

    // Multi-pass analyses: one symbol table + hot closure shared by the
    // unit-of-measure and hot-reachability rules.
    let symbols = crate::symbols::SymbolTable::build(ws);
    let hot = crate::callgraph::HotSet::compute(ws, &symbols);
    crate::units_pass::mixed_units(ws, &symbols, &mut candidates);
    crate::units_pass::unit_ambiguous_sig(ws, &symbols, &mut candidates);
    crate::units_pass::unit_cast(ws, &mut candidates);
    crate::hot_pass::hot_reachable_alloc(ws, &symbols, &hot, &mut candidates);
    crate::hot_pass::hot_reachable_panic(ws, &symbols, &hot, &mut candidates);

    let mut suppressed = 0usize;
    let mut suppressed_by_rule: Vec<usize> = vec![0; RULE_NAMES.len()];
    let rule_slot = |rule: &str| RULE_NAMES.iter().position(|r| *r == rule);
    for finding in candidates {
        let silenced = ws
            .file(&finding.path)
            .is_some_and(|f| finding.line > 0 && f.is_suppressed(finding.line - 1, &finding.rule));
        if silenced {
            suppressed += 1;
            if let Some(slot) = rule_slot(&finding.rule) {
                suppressed_by_rule[slot] += 1;
            }
        } else {
            findings.push(finding);
        }
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    findings.dedup();

    let rules = RULE_NAMES
        .iter()
        .enumerate()
        .map(|(slot, rule)| crate::findings::RuleCount {
            rule: (*rule).to_string(),
            findings: findings.iter().filter(|f| f.rule == *rule).count(),
            suppressed: suppressed_by_rule[slot],
        })
        .collect();

    LintReport {
        findings,
        files_scanned: ws.files.len(),
        suppressed,
        rules,
    }
}

// --- token scanning helpers ---------------------------------------------

/// One identifier token with enough context for the rules: location,
/// enclosing function, and whether it is the name in a `fn` definition.
struct IdentTok {
    /// 0-based line index.
    line: usize,
    /// Byte offset of the identifier within the code view.
    col: usize,
    /// Identifier length in bytes.
    len: usize,
    /// Name of the innermost enclosing `fn`, if any.
    fn_name: Option<String>,
    /// Whether the previous identifier was `fn` (this token names a fn).
    is_fn_def: bool,
}

impl IdentTok {
    fn name<'a>(&self, file: &'a SourceFile) -> &'a str {
        &file.lines[self.line].code[self.col..self.col + self.len]
    }

    /// The char immediately before the identifier, if any.
    fn prev_char(&self, file: &SourceFile) -> Option<char> {
        file.lines[self.line].code[..self.col].chars().next_back()
    }

    /// The rest of the line after the identifier.
    fn tail<'a>(&self, file: &'a SourceFile) -> &'a str {
        &file.lines[self.line].code[self.col + self.len..]
    }
}

/// Walks a file's code view char-by-char, producing identifier tokens and
/// tracking the enclosing-function stack via brace depth.
fn scan_idents(file: &SourceFile) -> Vec<IdentTok> {
    let mut toks = Vec::new();
    let mut depth: i64 = 0;
    let mut fn_stack: Vec<(i64, String)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut prev_was_fn = false;
    for (li, line) in file.lines.iter().enumerate() {
        let bytes = line.code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i] as char) {
                    i += 1;
                }
                let name = &line.code[start..i];
                let is_fn_def = prev_was_fn;
                if prev_was_fn {
                    pending_fn = Some(name.to_string());
                    prev_was_fn = false;
                } else if name == "fn" {
                    prev_was_fn = true;
                }
                toks.push(IdentTok {
                    line: li,
                    col: start,
                    len: i - start,
                    fn_name: fn_stack.last().map(|(_, n)| n.clone()),
                    is_fn_def,
                });
            } else {
                match c {
                    '{' => {
                        if let Some(name) = pending_fn.take() {
                            fn_stack.push((depth, name));
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        while fn_stack.last().is_some_and(|&(d, _)| d >= depth) {
                            fn_stack.pop();
                        }
                    }
                    // A `;` ends a bodyless fn declaration (trait method).
                    ';' => pending_fn = None,
                    _ => {}
                }
                i += 1;
            }
        }
    }
    toks
}

/// First non-space char of `tail`, with its offset.
fn first_nonspace(tail: &str) -> Option<(usize, char)> {
    tail.char_indices().find(|&(_, c)| c != ' ')
}

/// Whether `tail` (text after an identifier) begins with an `as` cast —
/// used to exempt `counter as f64 * energy` style float math.
fn tail_is_cast(tail: &str) -> bool {
    let trimmed = tail.trim_start();
    trimmed.starts_with("as ") || trimmed.starts_with("as(")
}

/// Finds every occurrence of `needle` in `hay` that is not glued to a
/// preceding identifier char (so `Vec::new` does not match `MyVec::new`).
/// Needles that start with punctuation (`.collect::<Vec`) skip the check —
/// an identifier is *expected* right before them.
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(needle) {
        let pos = from + rel;
        let glued = needle.chars().next().is_some_and(is_ident_char)
            && hay[..pos].chars().next_back().is_some_and(is_ident_char);
        if !glued {
            out.push(pos);
        }
        from = pos + needle.len().max(1);
    }
    out
}

// --- rule 1: no-stat-wipe -----------------------------------------------

/// Fn names allowed to call `reset_stats()`: construction and explicit
/// reset/setup paths, never steady-state op methods.
fn allowed_reset_site(fn_name: &str) -> bool {
    // `reset`/`setup` must match as whole name segments: `preset_mac`
    // (the historical bug site) contains the substring "reset" but is an
    // op method, not a reset path.
    let segment = |word: &str| {
        fn_name == word
            || fn_name.starts_with(&format!("{word}_"))
            || fn_name.ends_with(&format!("_{word}"))
            || fn_name.contains(&format!("_{word}_"))
    };
    fn_name == "new"
        || fn_name == "default"
        || fn_name.starts_with("new_")
        || fn_name.starts_with("with_")
        || segment("reset")
        || segment("setup")
        || segment("bench")
}

fn no_stat_wipe(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.kind != FileKind::Lib {
            continue;
        }
        for tok in scan_idents(file) {
            if file.in_test[tok.line] || tok.is_fn_def || tok.name(file) != "reset_stats" {
                continue;
            }
            if first_nonspace(tok.tail(file)).map(|(_, c)| c) != Some('(') {
                continue;
            }
            let site = tok.fn_name.as_deref().unwrap_or("<module scope>");
            if !allowed_reset_site(site) {
                out.push(Finding::new(
                    "no-stat-wipe",
                    &file.path,
                    tok.line + 1,
                    &format!(
                        "`reset_stats()` called from `{site}` — stats may only be wiped in \
                         constructors or explicit reset/setup paths, never mid-operation"
                    ),
                ));
            }
        }
    }
}

// --- rule 2: unchecked-accounting ---------------------------------------

/// Whether `path` is on the accounting-critical list: the engine cost
/// model, the SFU counters, and the whole `crates/sim` cost path.
fn accounting_scoped(path: &str) -> bool {
    path == "crates/core/src/engine.rs"
        || path == "crates/core/src/sfu.rs"
        || path.starts_with("crates/sim/src/")
}

/// Accumulator-width integer types whose bare arithmetic is banned.
const ACC_TYPES: &[&str] = &["u64", "u128", "i64", "i128"];

/// Whether `tail` (the text after an identifier) is a `: u64`-style
/// annotation with an accumulator-width type (`u64`, `[u64; N]`,
/// `Vec<u64>`, …).
fn is_acc_annotation(tail: &str) -> bool {
    let Some((off, c)) = first_nonspace(tail) else {
        return false;
    };
    if c != ':' || tail[off..].starts_with("::") {
        return false;
    }
    let ty = tail[off + 1..].trim_start();
    ACC_TYPES.iter().any(|t| {
        let bare_type = |s: &str| {
            s.strip_prefix(t)
                .is_some_and(|rest| !rest.chars().next().is_some_and(is_ident_char))
        };
        bare_type(ty)
            || ty
                .strip_prefix('[')
                .map(str::trim_start)
                .is_some_and(&bare_type)
            || ty.strip_prefix("Vec<").is_some_and(&bare_type)
    })
}

/// Names declared with an accumulator-width integer type. Struct fields
/// and annotated lets are collected file-wide; fn params are scoped to
/// their function, so `add(a: f64, ..)` and `add_u64(a: u64, ..)` in the
/// same file do not cross-contaminate.
#[derive(Default)]
struct Accumulators {
    file_wide: BTreeSet<String>,
    per_fn: std::collections::BTreeMap<String, BTreeSet<String>>,
}

impl Accumulators {
    fn is_acc(&self, name: &str, fn_name: Option<&str>) -> bool {
        self.file_wide.contains(name)
            || fn_name
                .and_then(|f| self.per_fn.get(f))
                .is_some_and(|params| params.contains(name))
    }
}

fn collect_accumulators(file: &SourceFile) -> Accumulators {
    let mut acc = Accumulators::default();
    let mut prev_was_fn = false;
    // The fn whose signature parens we are inside, and the paren depth.
    let mut sig_fn: Option<String> = None;
    let mut sig_paren: i64 = 0;
    for line in &file.lines {
        let bytes = line.code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i] as char) {
                    i += 1;
                }
                let name = line.code[start..i].to_string();
                if prev_was_fn {
                    sig_fn = Some(name.clone());
                    sig_paren = 0;
                    prev_was_fn = false;
                } else if name == "fn" {
                    prev_was_fn = true;
                }
                if is_acc_annotation(&line.code[i..]) {
                    match (&sig_fn, sig_paren > 0) {
                        (Some(f), true) => {
                            acc.per_fn.entry(f.clone()).or_default().insert(name);
                        }
                        _ => {
                            acc.file_wide.insert(name);
                        }
                    }
                }
            } else {
                match c {
                    '(' if sig_fn.is_some() => sig_paren += 1,
                    ')' if sig_fn.is_some() => {
                        sig_paren -= 1;
                        if sig_paren <= 0 {
                            sig_fn = None; // params done; return type follows
                        }
                    }
                    '{' | ';' => sig_fn = None,
                    _ => {}
                }
                i += 1;
            }
        }
    }
    acc
}

/// Scans leftward from `pos` in `code` to find the assigned name of a
/// compound assignment, skipping one trailing index/call group
/// (`self.counts[i] +=` resolves to `counts`).
fn compound_target(code: &str, pos: usize) -> Option<String> {
    let mut rest = code[..pos].trim_end();
    for (open, close) in [('[', ']'), ('(', ')')] {
        if rest.ends_with(close) {
            let mut depth = 0i32;
            let mut cut = None;
            for (i, c) in rest.char_indices().rev() {
                if c == close {
                    depth += 1;
                } else if c == open {
                    depth -= 1;
                    if depth == 0 {
                        cut = Some(i);
                        break;
                    }
                }
            }
            rest = rest[..cut?].trim_end();
        }
    }
    let end = rest.len();
    let start = rest
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map(|(i, _)| i)?;
    if start == end {
        return None;
    }
    Some(rest[start..end].to_string())
}

fn unchecked_accounting(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if !accounting_scoped(&file.path) {
            continue;
        }
        let accumulators = collect_accumulators(file);
        if accumulators.file_wide.is_empty() && accumulators.per_fn.is_empty() {
            continue;
        }
        let toks = scan_idents(file);
        let mut hits: BTreeSet<(usize, usize)> = BTreeSet::new();
        // Pass A: compound assignments (`+=`, `*=`), resolved leftward so
        // indexed targets (`counts[i] +=`) are caught too.
        for (li, line) in file.lines.iter().enumerate() {
            if file.in_test[li] {
                continue;
            }
            for op in ["+=", "*="] {
                for pos in token_positions(&line.code, op) {
                    if let Some(target) = compound_target(&line.code, pos) {
                        // The target ident is a token on this line; use
                        // its enclosing fn for param scoping.
                        let fn_name = toks
                            .iter()
                            .find(|t| t.line == li && t.name(file) == target)
                            .and_then(|t| t.fn_name.clone());
                        if accumulators.is_acc(&target, fn_name.as_deref()) {
                            hits.insert((li, pos));
                            out.push(Finding::new(
                                "unchecked-accounting",
                                &file.path,
                                li + 1,
                                &format!(
                                    "bare `{op}` on accumulator `{target}` — use \
                                     `saturating_*`/`checked_*` arithmetic on cost counters"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        // Pass B: binary `+`/`*` whose left operand is an accumulator
        // (`self.adds + self.muls`), unless cast to float first.
        for tok in &toks {
            if file.in_test[tok.line]
                || !accumulators.is_acc(tok.name(file), tok.fn_name.as_deref())
            {
                continue;
            }
            let tail = tok.tail(file);
            if tail_is_cast(tail) {
                continue;
            }
            let Some((off, c)) = first_nonspace(tail) else {
                continue;
            };
            if c != '+' && c != '*' {
                continue;
            }
            let op_pos = tok.col + tok.len + off;
            if hits.contains(&(tok.line, op_pos)) {
                continue; // already reported as a compound assignment
            }
            hits.insert((tok.line, op_pos));
            out.push(Finding::new(
                "unchecked-accounting",
                &file.path,
                tok.line + 1,
                &format!(
                    "bare `{c}` on accumulator `{}` — use `saturating_*`/`checked_*` \
                     arithmetic on cost counters",
                    tok.name(file)
                ),
            ));
        }
    }
}

// --- rule 3: alloc-in-hot -----------------------------------------------

fn alloc_in_hot(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        for (li, line) in file.lines.iter().enumerate() {
            if !file.hot[li] || file.in_test[li] {
                continue;
            }
            for needle in ["Vec::new(", "vec![", ".collect::<Vec"] {
                if !token_positions(&line.code, needle).is_empty() {
                    out.push(Finding::new(
                        "alloc-in-hot",
                        &file.path,
                        li + 1,
                        &format!(
                            "`{needle}` inside a `gaasx-lint: hot` fence — hoist the \
                                  allocation out of the CAM-search/MAC dispatch loop"
                        ),
                    ));
                }
            }
        }
    }
}

// --- rule 4: panic-in-lib -----------------------------------------------

fn panic_in_lib(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.kind != FileKind::Lib {
            continue;
        }
        for tok in scan_idents(file) {
            if file.in_test[tok.line] || tok.is_fn_def {
                continue;
            }
            let name = tok.name(file);
            let tail = tok.tail(file);
            let flagged = match name {
                "unwrap" => tok.prev_char(file) == Some('.') && tail.starts_with('('),
                "expect" => tok.prev_char(file) == Some('.') && tail.starts_with('('),
                "panic" => tail.starts_with('!'),
                _ => false,
            };
            if flagged {
                let what = if name == "panic" { "panic!" } else { name };
                out.push(Finding::new(
                    "panic-in-lib",
                    &file.path,
                    tok.line + 1,
                    &format!(
                        "`{what}` in library code — return a `Result`/`Option` or justify \
                         with an allow (library panics abort whole sharded runs)"
                    ),
                ));
            }
        }
    }
}

// --- rule 7: seeded-rng ---------------------------------------------------

/// Noise and fault injection are only useful if a failing run replays
/// bit-for-bit from its config. An RNG constructed from OS entropy
/// (`from_entropy`, `thread_rng`) anywhere in library code silently breaks
/// that contract, so every library RNG must come from an explicit seed
/// (`seed_from_u64`, `from_seed`).
fn seeded_rng(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.kind != FileKind::Lib {
            continue;
        }
        for tok in scan_idents(file) {
            if file.in_test[tok.line] || tok.is_fn_def {
                continue;
            }
            let name = tok.name(file);
            let flagged =
                matches!(name, "from_entropy" | "thread_rng") && tok.tail(file).starts_with('(');
            if flagged {
                out.push(Finding::new(
                    "seeded-rng",
                    &file.path,
                    tok.line + 1,
                    &format!(
                        "`{name}` draws OS entropy in library code — construct RNGs from \
                         an explicit seed (`seed_from_u64`) so noisy and faulty runs \
                         replay bit-for-bit"
                    ),
                ));
            }
        }
    }
}

// --- rule 8: wall-clock ---------------------------------------------------

/// Whether `path` computes on the modeled time axis: the crossbar device
/// models and the engine layer. Reports there are nanoseconds of
/// *simulated* time; a host-clock read silently mixes the two axes and
/// breaks bit-identical sharded replay (worker wall clocks differ run to
/// run). Bench binaries measure real walls on purpose and stay exempt.
fn modeled_time_scoped(path: &str) -> bool {
    path.starts_with("crates/xbar/src/") || path.starts_with("crates/core/src/")
}

fn wall_clock(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.kind != FileKind::Lib || !modeled_time_scoped(&file.path) {
            continue;
        }
        for (li, line) in file.lines.iter().enumerate() {
            if file.in_test[li] {
                continue;
            }
            for needle in ["Instant::now", "SystemTime::now"] {
                if !token_positions(&line.code, needle).is_empty() {
                    out.push(Finding::new(
                        "wall-clock",
                        &file.path,
                        li + 1,
                        &format!(
                            "`{needle}` in modeled-time library code — cost models read the \
                             simulated clock (`BlockCost`/`PipelineClock`), never the host's; \
                             wall-clock reads break bit-identical sharded replay"
                        ),
                    ));
                }
            }
        }
    }
}

// --- rule 5: summary-conservation ---------------------------------------

/// Extracts the field names of a struct whose `struct <name> {` header is
/// at 0-based line `def_line`. Works for single- and multi-line bodies.
fn struct_fields(file: &SourceFile, def_line: usize) -> Vec<String> {
    // Gather the brace-delimited body text.
    let mut body = String::new();
    let mut depth = 0i64;
    let mut started = false;
    'outer: for line in file.lines.iter().skip(def_line) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                    if depth == 1 {
                        continue;
                    }
                }
                '}' => {
                    depth -= 1;
                    if started && depth == 0 {
                        break 'outer;
                    }
                }
                _ => {}
            }
            if started && depth >= 1 {
                body.push(c);
            }
        }
        if started {
            body.push('\n');
        }
    }
    // Split on top-level commas (commas nested in generics/tuples/arrays
    // belong to a field's type, not the field list).
    let mut fields = Vec::new();
    let mut nest = 0i64;
    let mut segment = String::new();
    for c in body.chars().chain(std::iter::once(',')) {
        match c {
            '<' | '(' | '[' | '{' => nest += 1,
            '>' | ')' | ']' | '}' => nest -= 1,
            ',' if nest == 0 => {
                if let Some(name) = field_name(&segment) {
                    fields.push(name);
                }
                segment.clear();
                continue;
            }
            _ => {}
        }
        segment.push(c);
    }
    fields
}

/// Parses `#[attr] pub name: Type` into `name`.
fn field_name(segment: &str) -> Option<String> {
    let mut decl = segment.trim();
    while let Some(rest) = decl.strip_prefix("#[") {
        decl = rest.split_once(']')?.1.trim_start();
    }
    decl = decl.strip_prefix("pub ").unwrap_or(decl).trim_start();
    let name: String = decl.chars().take_while(|&c| is_ident_char(c)).collect();
    if !name.is_empty() && decl[name.len()..].trim_start().starts_with(':') {
        Some(name)
    } else {
        None
    }
}

/// 0-based body line range of the first `fn <name>` in the file.
fn fn_body_range(file: &SourceFile, fn_name: &str) -> Option<(usize, usize)> {
    let needle = format!("fn {fn_name}");
    let start = file.lines.iter().position(|l| {
        token_positions(&l.code, &needle).iter().any(|&p| {
            !l.code[p + needle.len()..]
                .chars()
                .next()
                .is_some_and(is_ident_char)
        })
    })?;
    let mut depth = 0i64;
    let mut started = false;
    for (li, line) in file.lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth <= 0 {
            return Some((start, li));
        }
    }
    Some((start, file.lines.len().saturating_sub(1)))
}

/// Whether `ident` appears as a whole token anywhere in `lines[range]`.
fn range_mentions(file: &SourceFile, range: (usize, usize), ident: &str) -> bool {
    file.lines[range.0..=range.1].iter().any(|l| {
        token_positions(&l.code, ident).iter().any(|&p| {
            !l.code[p + ident.len()..]
                .chars()
                .next()
                .is_some_and(is_ident_char)
        })
    })
}

fn summary_conservation(ws: &Workspace, out: &mut Vec<Finding>) {
    // Locate the defining file and field list.
    let mut fields: Vec<String> = Vec::new();
    for file in &ws.files {
        let Some(def_line) = file
            .lines
            .iter()
            .position(|l| l.code.contains("struct OpSummary"))
        else {
            continue;
        };
        fields = struct_fields(file, def_line);

        // (a) every field must flow through `merge` — the single site the
        // `AddAssign`/`Sum` impls delegate to.
        if let Some(range) = fn_body_range(file, "merge") {
            for field in &fields {
                if !range_mentions(file, range, field) {
                    out.push(Finding::new(
                        "summary-conservation",
                        &file.path,
                        range.0 + 1,
                        &format!(
                            "`OpSummary::merge` drops field `{field}` — every counter must \
                             survive shard merges"
                        ),
                    ));
                }
            }
        } else {
            out.push(Finding::new(
                "summary-conservation",
                &file.path,
                def_line + 1,
                "`OpSummary` has no `merge` fn for `AddAssign`/`Sum` to delegate to",
            ));
        }

        // (b) the operator impls must exist in the defining file.
        for imp in ["AddAssign", "Sum"] {
            let present = file
                .lines
                .iter()
                .any(|l| l.code.contains(imp) && l.code.contains("OpSummary"));
            if !present {
                out.push(Finding::new(
                    "summary-conservation",
                    &file.path,
                    def_line + 1,
                    &format!("`OpSummary` has no `{imp}` impl in its defining module"),
                ));
            }
        }
    }
    if fields.is_empty() {
        return; // no OpSummary in this tree — nothing to conserve
    }

    for file in &ws.files {
        let whole_file = (0usize, file.lines.len().saturating_sub(1));
        let mut first_ctor: Option<usize> = None;
        for (li, line) in file.lines.iter().enumerate() {
            let Some(at) = constructor_pos(&line.code, "OpSummary") else {
                continue;
            };
            if file.in_test[li] {
                continue;
            }
            first_ctor.get_or_insert(li);
            // (e) constructors must name every field — `..` spreads would
            // let a new counter default to zero silently.
            let mut depth = 0i64;
            let mut started = false;
            for (bi, body) in file.lines.iter().enumerate().skip(li) {
                let search_from = if bi == li { at } else { 0 };
                for c in body.code[search_from..].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            started = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if started && body.code[search_from..].contains("..") {
                    out.push(Finding::new(
                        "summary-conservation",
                        &file.path,
                        bi + 1,
                        "`OpSummary { .. }` spread hides unwired fields — name every \
                         counter explicitly",
                    ));
                }
                if started && depth <= 0 {
                    break;
                }
            }
        }
        // (c)/(d): a file that builds both the op summary and the energy
        // breakdown (or publishes summaries to observability) is an
        // energy/reporting wiring site: every counter must be mentioned
        // somewhere in it, or its cost silently reads as zero.
        let energy_ctor = file.lines.iter().enumerate().any(|(li, l)| {
            !file.in_test[li] && constructor_pos(&l.code, "EnergyBreakdown").is_some()
        });
        let publishes = file
            .lines
            .iter()
            .any(|l| l.code.contains("fn publish_op_summary"));
        let anchor = first_ctor.or_else(|| {
            file.lines
                .iter()
                .position(|l| l.code.contains("fn publish_op_summary"))
        });
        if let Some(anchor) = anchor {
            if (first_ctor.is_some() && energy_ctor) || publishes {
                for field in &fields {
                    if !range_mentions(file, whole_file, field) {
                        out.push(Finding::new(
                            "summary-conservation",
                            &file.path,
                            anchor + 1,
                            &format!(
                                "this file wires `OpSummary` into the energy/reporting model \
                                 but never mentions field `{field}`"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Detects a *constructor* use of `Type {` on a line (not a `struct`
/// definition, `impl` header, or `-> Type {` fn signature), returning the
/// offset of the type name.
fn constructor_pos(code: &str, type_name: &str) -> Option<usize> {
    for pos in token_positions(code, type_name) {
        let after = &code[pos + type_name.len()..];
        if !after.trim_start().starts_with('{') {
            continue;
        }
        let before = code[..pos].trim_end();
        let ok = before.is_empty()
            || before.ends_with('=')
            || before.ends_with('(')
            || before.ends_with(',')
            || before.ends_with(':')
            || before.ends_with('{')
            || before.ends_with("return");
        if ok {
            return Some(pos);
        }
    }
    None
}

// --- rule 6: thread-containment -----------------------------------------

/// The one file allowed to spawn: the sharded execution layer owns all
/// worker lifecycles and the deterministic merge order.
const THREAD_HOME: &str = "crates/core/src/sharded.rs";

fn thread_containment(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.path == THREAD_HOME || !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        for (li, line) in file.lines.iter().enumerate() {
            if file.in_test[li] {
                continue;
            }
            let spawns = ["thread::spawn", "thread::scope"]
                .iter()
                .any(|n| !token_positions(&line.code, n).is_empty());
            let uses_crossbeam = token_positions(&line.code, "crossbeam").iter().any(|&p| {
                !line.code[p + "crossbeam".len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
            });
            if spawns || uses_crossbeam {
                out.push(Finding::new(
                    "thread-containment",
                    &file.path,
                    li + 1,
                    &format!(
                        "thread spawning outside `{THREAD_HOME}` — all parallelism goes \
                         through the sharded execution layer (deterministic merge order)"
                    ),
                ));
            }
        }
    }
}

// --- rule 15: unbounded-queue -------------------------------------------

/// Server code must not hold unbounded buffers: every queue in the
/// serving layer is a `BoundedQueue` so overload surfaces as a typed
/// `ServeError::Overloaded` with a retry hint instead of unbounded
/// memory growth and silent latency collapse.
fn unbounded_queue(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if !file.path.starts_with("crates/serve/")
            || !matches!(file.kind, FileKind::Lib | FileKind::Bin)
        {
            continue;
        }
        for (li, line) in file.lines.iter().enumerate() {
            if file.in_test[li] {
                continue;
            }
            for needle in [
                "VecDeque::new(",
                "channel(",
                "unbounded(",
                "LinkedList::new(",
            ] {
                if !token_positions(&line.code, needle).is_empty() {
                    out.push(Finding::new(
                        "unbounded-queue",
                        &file.path,
                        li + 1,
                        &format!(
                            "`{}` builds an unbounded buffer in server code — queue work \
                             through `BoundedQueue` so overload is shed as a typed \
                             `Overloaded` rejection with a retry hint, never absorbed \
                             into unbounded memory",
                            needle.trim_end_matches('(')
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::analyze_file;

    fn ws_of(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: std::path::PathBuf::from("."),
            files: files
                .into_iter()
                .map(|(p, s)| analyze_file(p, s, RULE_NAMES))
                .collect(),
        }
    }

    fn rules_of(report: &LintReport) -> Vec<&str> {
        report.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn stat_wipe_flags_op_methods_not_constructors() {
        let src = "\
impl MacCrossbar {
    pub fn new() -> Self {
        s.reset_stats();
    }
    pub fn preset_mac(&mut self) {
        self.reset_stats();
    }
    pub fn reset_stats(&mut self) {}
}
";
        let ws = ws_of(vec![("crates/xbar/src/mac.rs", src)]);
        let report = check_workspace(&ws);
        assert_eq!(rules_of(&report), vec!["no-stat-wipe"]);
        assert_eq!(report.findings[0].line, 6);
    }

    #[test]
    fn accounting_flags_bare_ops_and_indexed_targets() {
        let src = "\
struct S { cycles: u64, counts: [u64; 4] }
impl S {
    fn add(&mut self, n: u64) {
        self.cycles += n;
        self.counts[1] += n;
        let t = self.cycles * 3;
        let f = self.cycles as f64 * 1.5;
        self.cycles = self.cycles.saturating_add(n);
    }
}
";
        let ws = ws_of(vec![("crates/sim/src/cost.rs", src)]);
        let report = check_workspace(&ws);
        let lines: Vec<usize> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(rules_of(&report).len(), 3, "{report:#?}");
        assert_eq!(lines, vec![4, 5, 6]);
    }

    #[test]
    fn accounting_ignores_out_of_scope_files() {
        let src = "struct S { cycles: u64 }\nfn f(s: &mut S) { s.cycles += 1; }\n";
        let ws = ws_of(vec![("crates/graph/src/coo.rs", src)]);
        assert!(check_workspace(&ws).is_clean());
    }

    #[test]
    fn accounting_flags_bare_param_arithmetic() {
        let src = "pub fn sfu_add_u64(a: u64, b: u64) -> u64 {\n    a + b\n}\n";
        let ws = ws_of(vec![("crates/core/src/sfu.rs", src)]);
        let report = check_workspace(&ws);
        assert_eq!(rules_of(&report), vec!["unchecked-accounting"]);
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn alloc_flagged_only_inside_fences() {
        let src = "\
let setup = Vec::new();
// gaasx-lint: hot
let v = Vec::new();
let w = vec![0u8; 4];
let c = xs.iter().collect::<Vec<_>>();
let ok = hv.rows().chunks(16);
// gaasx-lint: end-hot
let after = Vec::new();
";
        let ws = ws_of(vec![("crates/xbar/src/cam.rs", src)]);
        let report = check_workspace(&ws);
        assert_eq!(rules_of(&report).len(), 3, "{report:#?}");
        assert!(report.findings.iter().all(|f| f.rule == "alloc-in-hot"));
        let lines: Vec<usize> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 4, 5]);
    }

    #[test]
    fn panic_in_lib_exempts_tests_and_bins() {
        let lib = "\
fn f(x: Option<u8>) -> u8 {
    x.unwrap()
}
#[cfg(test)]
mod tests {
    fn t() { None::<u8>.unwrap(); panic!(\"fine\"); }
}
";
        let binf = "fn main() { None::<u8>.expect(\"cli\"); }\n";
        let ws = ws_of(vec![
            ("crates/core/src/lib.rs", lib),
            ("crates/bench/src/bin/run.rs", binf),
        ]);
        let report = check_workspace(&ws);
        assert_eq!(rules_of(&report), vec!["panic-in-lib"]);
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn panic_tokens_do_not_overmatch() {
        let src = "\
fn f(r: Result<u8, u8>) -> u8 {
    let a = r.unwrap_or(3);
    let b = r.expect_err(\"e\");
    core::panic::Location::caller();
    a.saturating_add(b)
}
";
        let ws = ws_of(vec![("crates/core/src/lib.rs", src)]);
        assert!(check_workspace(&ws).is_clean());
    }

    #[test]
    fn conservation_catches_dropped_merge_field() {
        let src = "\
pub struct OpSummary {
    pub mac_ops: u64,
    pub sfu_ops: u64,
}
impl OpSummary {
    pub fn merge(&mut self, o: &Self) {
        self.mac_ops = self.mac_ops.saturating_add(o.mac_ops);
    }
}
impl core::ops::AddAssign for OpSummary { fn add_assign(&mut self, o: Self) { self.merge(&o); } }
impl core::iter::Sum for OpSummary { fn sum<I>(_: I) -> Self { todo!() } }
";
        let ws = ws_of(vec![("crates/sim/src/report.rs", src)]);
        let report = check_workspace(&ws);
        // `+=`-free merge still drops sfu_ops; todo!() in Sum is also a
        // panic-in-lib hit, so filter to the rule under test.
        let cons: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "summary-conservation")
            .collect();
        assert_eq!(cons.len(), 1, "{report:#?}");
        assert!(cons[0].message.contains("sfu_ops"));
    }

    #[test]
    fn conservation_flags_spread_constructor() {
        let def = "\
pub struct OpSummary { pub mac_ops: u64 }
impl OpSummary { pub fn merge(&mut self, o: &Self) { self.mac_ops = self.mac_ops.saturating_add(o.mac_ops); } }
impl core::ops::AddAssign for OpSummary { fn add_assign(&mut self, o: Self) { self.merge(&o); } }
impl core::iter::Sum for OpSummary { fn sum<I>(mut i: I) -> Self { Self { mac_ops: 0 } } }
";
        let user = "\
fn build() -> OpSummary {
    OpSummary {
        ..Default::default()
    }
}
";
        let ws = ws_of(vec![
            ("crates/sim/src/report.rs", def),
            ("crates/core/src/engine.rs", user),
        ]);
        let report = check_workspace(&ws);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "summary-conservation" && f.message.contains("spread")));
    }

    #[test]
    fn thread_containment_allows_only_sharded() {
        let sharded = "pub fn run() { crossbeam::thread::scope(|s| {}).ok(); }\n";
        let rogue = "pub fn run() { std::thread::spawn(|| {}); }\n";
        let ws = ws_of(vec![
            ("crates/core/src/sharded.rs", sharded),
            ("crates/baselines/src/cpu/gridgraph.rs", rogue),
        ]);
        let report = check_workspace(&ws);
        assert_eq!(rules_of(&report), vec!["thread-containment"]);
        assert_eq!(
            report.findings[0].path,
            "crates/baselines/src/cpu/gridgraph.rs"
        );
    }

    #[test]
    fn unbounded_queue_flags_server_code_only() {
        let serve = "\
pub fn build() {
    let q: VecDeque<u64> = VecDeque::new();
    let bounded = VecDeque::with_capacity(8);
    let (tx, rx) = std::sync::mpsc::channel();
    let (btx, brx) = std::sync::mpsc::sync_channel(4);
}
#[cfg(test)]
mod tests {
    fn t() { let _: VecDeque<u8> = VecDeque::new(); }
}
";
        let elsewhere = "pub fn f() { let _: VecDeque<u8> = VecDeque::new(); }\n";
        let ws = ws_of(vec![
            ("crates/serve/src/server.rs", serve),
            ("crates/core/src/engine.rs", elsewhere),
        ]);
        let report = check_workspace(&ws);
        let hits: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "unbounded-queue")
            .collect();
        assert_eq!(hits.len(), 2, "{report:#?}");
        assert!(hits.iter().all(|f| f.path == "crates/serve/src/server.rs"));
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 4);
    }

    #[test]
    fn wall_clock_flags_modeled_time_code_only() {
        let engine = "\
pub fn finish(&mut self) {
    let start = std::time::Instant::now();
}
#[cfg(test)]
mod tests {
    fn t() { let _ = std::time::Instant::now(); }
}
";
        let xbar = "pub fn search(&self) { let _t = SystemTime::now(); }\n";
        let bench = "fn main() { let _ = std::time::Instant::now(); }\n";
        let graph = "pub fn load() { let _ = std::time::Instant::now(); }\n";
        let ws = ws_of(vec![
            ("crates/core/src/engine.rs", engine),
            ("crates/xbar/src/cam.rs", xbar),
            ("crates/bench/src/bin/run.rs", bench),
            ("crates/graph/src/coo.rs", graph),
        ]);
        let report = check_workspace(&ws);
        let wall: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "wall-clock")
            .collect();
        assert_eq!(wall.len(), 2, "{report:#?}");
        assert_eq!(wall[0].path, "crates/core/src/engine.rs");
        assert_eq!(wall[0].line, 2);
        assert_eq!(wall[1].path, "crates/xbar/src/cam.rs");
    }

    #[test]
    fn suppressions_silence_and_are_counted() {
        let src = "\
fn f(x: Option<u8>) -> u8 {
    // gaasx-lint: allow(panic-in-lib) -- poisoned state is unrecoverable here
    x.unwrap()
}
";
        let ws = ws_of(vec![("crates/core/src/lib.rs", src)]);
        let report = check_workspace(&ws);
        assert!(report.is_clean(), "{report:#?}");
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn directive_findings_cannot_be_suppressed() {
        let src = "\
// gaasx-lint: allow(directive) -- trying to hide the meta finding
// gaasx-lint: allow(panic-in-lib)
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let ws = ws_of(vec![("crates/core/src/lib.rs", src)]);
        let report = check_workspace(&ws);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "directive" && f.message.contains("justification")));
    }
}
