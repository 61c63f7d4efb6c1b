//! The rule catalog and per-file analysis passes.
//!
//! Each rule is a pass over the token stream from [`crate::lexer`].
//! Findings inside `#[cfg(test)]` items are dropped (tests are exempt
//! from every rule), and a finding can be suppressed by a
//! `// qdn-lint: allow(<rule>, reason="...")` comment on the same line
//! or the line above. Suppressions are themselves checked: a malformed
//! directive, an unknown rule name, a missing reason, or a suppression
//! that matches no finding is an error — the suppression inventory
//! stays honest.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::lexer::{lex, Suppression, Token, TokenKind};
use crate::report::Diagnostic;

/// One catalog entry.
pub struct RuleInfo {
    /// The rule name used in `lint.toml` and `allow(...)`.
    pub name: &'static str,
    /// The short code used in ISSUE/README prose.
    pub code: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The rule catalog. `crates/lint/README.md` documents each rule's
/// rationale, detection heuristic, and limits.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unordered-iter",
        code: "D1",
        summary: "no HashMap/HashSet iteration in decision-path crates",
    },
    RuleInfo {
        name: "nondet-time",
        code: "D2",
        summary: "no wall-clock or OS entropy outside the allowlist",
    },
    RuleInfo {
        name: "raw-spawn",
        code: "D3",
        summary: "no ad-hoc thread spawning outside the shared compat pool",
    },
    RuleInfo {
        name: "serde-default",
        code: "C1",
        summary: "no #[serde(default)] — configs break loudly",
    },
    RuleInfo {
        name: "snapshot-version",
        code: "C2",
        summary: "pub *Snapshot types deriving Serialize carry a version field",
    },
    RuleInfo {
        name: "no-panic",
        code: "R1",
        summary: "no .unwrap()/.expect() in serving and daemon paths",
    },
    RuleInfo {
        name: "float-eq",
        code: "N1",
        summary: "no bare f64 ==/!= comparisons",
    },
];

/// Whether `name` is a catalog rule.
pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

fn hint_for(rule: &str) -> String {
    let fix = match rule {
        "unordered-iter" => {
            "use a BTreeMap/Vec, or sort the collected entries and prove order cannot leak"
        }
        "nondet-time" => "derive every draw from the seeded RNG / slot counter",
        "raw-spawn" => {
            "run the stage on the shared pool (threadpool::global_with(w).map_indexed) \
             so width and reduction order stay configured in one place"
        }
        "serde-default" => "make the field required and document the break in MIGRATION.md",
        "snapshot-version" => "add a `version: u32` field mirroring *_SNAPSHOT_VERSION",
        "no-panic" => "return the error through the three-tier discipline instead of panicking",
        "float-eq" => "compare against a tolerance, or justify the exact comparison",
        _ => "fix the directive",
    };
    if known_rule(rule) {
        format!("{fix}; or suppress with // qdn-lint: allow({rule}, reason=\"...\")")
    } else {
        fix.to_string()
    }
}

/// The result of linting one file.
pub struct FileLint {
    pub diagnostics: Vec<Diagnostic>,
    pub suppressions_used: u32,
}

/// Lints one file. `path` must be workspace-relative with `/`
/// separators — rule scoping keys on it.
pub fn lint_source(path: &str, source: &str, config: &Config) -> FileLint {
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    let test_spans = cfg_test_spans(tokens);
    let in_test = |line: u32| test_spans.iter().any(|&(a, b)| line >= a && line <= b);

    let mut findings: Vec<(u32, &'static str, String)> = Vec::new();
    if config.rule_applies("unordered-iter", path) {
        findings.extend(check_unordered_iter(tokens));
    }
    if config.rule_applies("nondet-time", path) {
        findings.extend(check_nondet_time(tokens));
    }
    if config.rule_applies("raw-spawn", path) {
        findings.extend(check_raw_spawn(tokens));
    }
    if config.rule_applies("serde-default", path) {
        findings.extend(check_serde_default(tokens));
    }
    if config.rule_applies("snapshot-version", path) {
        findings.extend(check_snapshot_version(tokens));
    }
    if config.rule_applies("no-panic", path) {
        findings.extend(check_no_panic(tokens));
    }
    if config.rule_applies("float-eq", path) {
        findings.extend(check_float_eq(tokens));
    }
    findings.retain(|&(line, _, _)| !in_test(line));

    // Resolve suppressions: one covers its own line and the next line.
    let mut diagnostics = Vec::new();
    let mut used = vec![false; lexed.suppressions.len()];
    'finding: for (line, rule, message) in findings {
        for (si, s) in lexed.suppressions.iter().enumerate() {
            let covers = s.line == line || s.line + 1 == line;
            if covers && s.well_formed && s.rule.as_deref() == Some(rule) {
                used[si] = true;
                continue 'finding;
            }
        }
        diagnostics.push(Diagnostic {
            file: path.to_string(),
            line,
            rule: rule.to_string(),
            message,
            hint: hint_for(rule),
        });
    }

    // Audit the suppressions themselves (outside test code).
    for (si, s) in lexed.suppressions.iter().enumerate() {
        if in_test(s.line) {
            continue;
        }
        let problem = suppression_problem(s, used[si]);
        if let Some(message) = problem {
            diagnostics.push(Diagnostic {
                file: path.to_string(),
                line: s.line,
                rule: "suppression".to_string(),
                message,
                hint: "write // qdn-lint: allow(<rule>, reason=\"why this site is safe\") \
                       and delete it when the site goes away"
                    .to_string(),
            });
        }
    }

    diagnostics.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    FileLint {
        diagnostics,
        suppressions_used: used.iter().filter(|&&u| u).count() as u32,
    }
}

fn suppression_problem(s: &Suppression, used: bool) -> Option<String> {
    if !s.well_formed {
        return Some(
            "malformed qdn-lint directive (expected allow(<rule>, reason=\"...\"))".into(),
        );
    }
    let rule = s.rule.as_deref().unwrap_or("");
    if !known_rule(rule) {
        return Some(format!("suppression names unknown rule `{rule}`"));
    }
    if s.reason.is_none() {
        return Some(format!(
            "suppression of `{rule}` carries no reason — every suppression must say why"
        ));
    }
    if !used {
        return Some(format!(
            "unused suppression of `{rule}` — the next line no longer trips the rule"
        ));
    }
    None
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == text
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

/// Spans (start line, end line) of `#[cfg(test)]` items.
fn cfg_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(is_punct(&tokens[i], "#") && i + 1 < tokens.len() && is_punct(&tokens[i + 1], "[")) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let (attr_end, is_cfg_test) = scan_attr(tokens, i + 1);
        if !is_cfg_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between cfg(test) and the item.
        let mut j = attr_end + 1;
        while j + 1 < tokens.len() && is_punct(&tokens[j], "#") && is_punct(&tokens[j + 1], "[") {
            let (end, _) = scan_attr(tokens, j + 1);
            j = end + 1;
        }
        // Find the item's body: the first `{` before a `;`.
        let mut body = None;
        while j < tokens.len() {
            if is_punct(&tokens[j], "{") {
                body = Some(j);
                break;
            }
            if is_punct(&tokens[j], ";") {
                break; // out-of-line item (`mod tests;`) — no span here
            }
            j += 1;
        }
        if let Some(open) = body {
            let close = match_brace(tokens, open);
            spans.push((start_line, tokens[close.min(tokens.len() - 1)].line));
            i = close + 1;
        } else {
            i = j + 1;
        }
    }
    spans
}

/// Scans an attribute starting at its `[`; returns (index of closing
/// `]`, whether it is a `cfg(...)` containing the ident `test` — but
/// not under a `not(...)`, so `#[cfg(not(test))]` is not a test item).
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    debug_assert!(is_punct(&tokens[open], "["));
    let mut depth = 0usize;
    let mut is_cfg = false;
    let mut has_test = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, "]") {
            depth -= 1;
            if depth == 0 {
                return (i, is_cfg && has_test);
            }
        } else if i == open + 1 && is_ident(t, "cfg") {
            is_cfg = true;
        } else if is_ident(t, "test") {
            let negated =
                i >= 2 && is_ident(&tokens[i - 2], "not") && is_punct(&tokens[i - 1], "(");
            if !negated {
                has_test = true;
            }
        }
        i += 1;
    }
    (tokens.len() - 1, false)
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len() - 1
}

// ---------------------------------------------------------------------
// D1 — unordered-iter
// ---------------------------------------------------------------------

const BANNED_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Detects iteration over `HashMap`/`HashSet`-typed names.
///
/// Heuristic (documented in the README): the pass tracks names declared
/// with an outermost hash type — struct fields and fn params
/// (`name: HashMap<..>`), `let` bindings (by annotation or by
/// `HashMap::new()`-style initializer), and `type` aliases — then flags
/// banned methods and `for .. in` over those names. `let`/`for`
/// rebindings with non-hash types shadow the bare name; field accesses
/// (`x.name.iter()`) resolve against the file's field declarations.
fn check_unordered_iter(tokens: &[Token]) -> Vec<(u32, &'static str, String)> {
    let mut hash_types: BTreeSet<String> = ["HashMap".to_string(), "HashSet".to_string()].into();
    // Pass A: `type X = HashMap<..>` aliases. Repeated until no new
    // alias appears, so alias-of-alias chains resolve regardless of
    // declaration order.
    loop {
        let before = hash_types.len();
        for i in 0..tokens.len() {
            if is_ident(&tokens[i], "type")
                && i + 2 < tokens.len()
                && tokens[i + 1].kind == TokenKind::Ident
                && is_punct(&tokens[i + 2], "=")
                && hash_type_at(tokens, i + 3, &hash_types)
            {
                hash_types.insert(tokens[i + 1].text.clone());
            }
        }
        if hash_types.len() == before {
            break;
        }
    }
    // Pass B: field/param declarations (order-independent).
    let mut fields: BTreeSet<String> = BTreeSet::new();
    for i in 0..tokens.len() {
        if tokens[i].kind == TokenKind::Ident
            && i + 2 < tokens.len()
            && is_punct(&tokens[i + 1], ":")
            && hash_type_at(tokens, i + 2, &hash_types)
        {
            fields.insert(tokens[i].text.clone());
        }
    }

    // Pass C: forward scan with local shadow tracking.
    let mut locals: BTreeSet<String> = BTreeSet::new();
    let mut findings = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // Declarations add to locals as they are passed.
        if t.kind == TokenKind::Ident
            && i + 2 < tokens.len()
            && is_punct(&tokens[i + 1], ":")
            && hash_type_at(tokens, i + 2, &hash_types)
        {
            locals.insert(t.text.clone());
        }
        if is_ident(t, "let") {
            let mut j = i + 1;
            while j < tokens.len() && is_ident(&tokens[j], "mut") {
                j += 1;
            }
            if j + 1 < tokens.len() && tokens[j].kind == TokenKind::Ident {
                let name = tokens[j].text.clone();
                let hash = if is_punct(&tokens[j + 1], ":") || is_punct(&tokens[j + 1], "=") {
                    hash_type_at(tokens, j + 2, &hash_types)
                } else {
                    false
                };
                if hash {
                    locals.insert(name);
                } else if is_punct(&tokens[j + 1], ":") || is_punct(&tokens[j + 1], "=") {
                    locals.remove(&name);
                }
            }
            i += 1;
            continue;
        }
        if is_ident(t, "for") && !(i + 1 < tokens.len() && is_punct(&tokens[i + 1], "<")) {
            if let Some((pat_end, expr)) = for_in_parts(tokens, i) {
                // New loop bindings shadow same-named hash locals.
                for p in &tokens[i + 1..pat_end] {
                    if p.kind == TokenKind::Ident && p.text != "mut" && p.text != "ref" {
                        locals.remove(&p.text);
                    }
                }
                if let Some(name) = simple_iterated_name(&tokens[expr.clone()]) {
                    let via_field = name.1;
                    let hash = if via_field {
                        fields.contains(name.0)
                    } else {
                        locals.contains(name.0)
                    };
                    if hash {
                        findings.push((
                            t.line,
                            "unordered-iter",
                            format!("`for .. in {}` iterates a hash collection", name.0),
                        ));
                    }
                }
            }
            i += 1;
            continue;
        }
        // `<recv>.banned_method(`
        if is_punct(t, ".")
            && i + 2 < tokens.len()
            && tokens[i + 1].kind == TokenKind::Ident
            && BANNED_ITER_METHODS.contains(&tokens[i + 1].text.as_str())
            && is_punct(&tokens[i + 2], "(")
            && i >= 1
            && tokens[i - 1].kind == TokenKind::Ident
        {
            let name = &tokens[i - 1].text;
            // Bare names resolve against the shadow-tracked locals only,
            // so a `let`/`for` rebinding with a non-hash type clears the
            // name. `self.field` accesses resolve against field decls;
            // fields reached through any other receiver (`snapshot.x`)
            // are out of scope — the whole-file field set cannot tell
            // whose field `x` is.
            let qualified = i >= 2 && is_punct(&tokens[i - 2], ".");
            let via_self = qualified && i >= 3 && is_ident(&tokens[i - 3], "self");
            let hash = if via_self {
                fields.contains(name)
            } else if qualified {
                false
            } else {
                locals.contains(name)
            };
            if hash {
                findings.push((
                    t.line,
                    "unordered-iter",
                    format!(
                        "`{}.{}()` iterates a hash collection in a decision path",
                        name,
                        tokens[i + 1].text
                    ),
                ));
            }
        }
        i += 1;
    }
    findings
}

/// At `i`, does an outermost hash type (or hash-aliased path) start?
/// Skips `&`/`mut` and leading path segments (`std::collections::`).
fn hash_type_at(tokens: &[Token], mut i: usize, hash_types: &BTreeSet<String>) -> bool {
    while i < tokens.len() && (is_punct(&tokens[i], "&") || is_ident(&tokens[i], "mut")) {
        i += 1;
    }
    loop {
        let Some(t) = tokens.get(i) else {
            return false;
        };
        if t.kind != TokenKind::Ident {
            return false;
        }
        if hash_types.contains(t.text.as_str()) {
            return true;
        }
        match tokens.get(i + 1) {
            Some(next) if is_punct(next, "::") => i += 2,
            _ => return false,
        }
    }
}

/// For a `for` at `start`, finds the `in` keyword and the expression
/// range `(in_index+1 .. body_open)`. Returns `None` when there is no
/// `in` before the body (e.g. `impl Trait for Type`).
fn for_in_parts(tokens: &[Token], start: usize) -> Option<(usize, std::ops::Range<usize>)> {
    let mut depth = 0i32;
    let mut j = start + 1;
    let mut in_at = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if is_punct(t, "(") || is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            depth -= 1;
        } else if depth == 0 && is_ident(t, "in") {
            in_at = Some(j);
            break;
        } else if depth == 0 && (is_punct(t, "{") || is_punct(t, ";")) {
            return None;
        }
        j += 1;
    }
    let in_at = in_at?;
    let mut k = in_at + 1;
    let mut d = 0i32;
    while k < tokens.len() {
        let t = &tokens[k];
        if is_punct(t, "(") || is_punct(t, "[") {
            d += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            d -= 1;
        } else if d == 0 && is_punct(t, "{") {
            return Some((in_at, in_at + 1..k));
        }
        k += 1;
    }
    None
}

/// If the iterated expression is a plain `[&[mut]] [self.]name`,
/// returns `(name, via_field)`.
fn simple_iterated_name(expr: &[Token]) -> Option<(&str, bool)> {
    let mut i = 0;
    while i < expr.len() && (is_punct(&expr[i], "&") || is_ident(&expr[i], "mut")) {
        i += 1;
    }
    let rest = &expr[i..];
    match rest {
        [t] if t.kind == TokenKind::Ident => Some((&t.text, false)),
        [s, dot, t] if is_ident(s, "self") && is_punct(dot, ".") && t.kind == TokenKind::Ident => {
            Some((&t.text, true))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// D2 — nondet-time
// ---------------------------------------------------------------------

fn check_nondet_time(tokens: &[Token]) -> Vec<(u32, &'static str, String)> {
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "SystemTime" => findings.push((
                t.line,
                "nondet-time",
                "`SystemTime` leaks wall-clock into a deterministic path".to_string(),
            )),
            "thread_rng" | "from_entropy" => findings.push((
                t.line,
                "nondet-time",
                format!("`{}` draws OS entropy — selection must be seeded", t.text),
            )),
            "Instant"
                if tokens.get(i + 1).is_some_and(|n| is_punct(n, "::"))
                    && tokens.get(i + 2).is_some_and(|n| is_ident(n, "now")) =>
            {
                findings.push((
                    t.line,
                    "nondet-time",
                    "`Instant::now()` reads the wall clock".to_string(),
                ));
            }
            _ => {}
        }
    }
    findings
}

// ---------------------------------------------------------------------
// D3 — raw-spawn
// ---------------------------------------------------------------------

/// Detects ad-hoc threading: `thread::spawn(..)`, `thread::scope(..)`,
/// and `thread::Builder` (any path ending in the `thread` segment, so
/// `std::thread::spawn` trips too). Parallel stages in decision-path
/// crates must go through the shared compat pool, which owns width
/// configuration and the fixed-index-order reduction the bit-identity
/// guarantee hangs on. `thread::JoinHandle`, `thread_local!`, and other
/// `thread::` items are deliberately not flagged — only the three
/// spawn entry points.
fn check_raw_spawn(tokens: &[Token]) -> Vec<(u32, &'static str, String)> {
    let mut findings = Vec::new();
    for i in 0..tokens.len() {
        if !is_ident(&tokens[i], "thread") {
            continue;
        }
        let Some(next) = tokens.get(i + 1) else {
            continue;
        };
        if !is_punct(next, "::") {
            continue;
        }
        let Some(item) = tokens.get(i + 2) else {
            continue;
        };
        if item.kind == TokenKind::Ident
            && matches!(item.text.as_str(), "spawn" | "scope" | "Builder")
        {
            findings.push((
                item.line,
                "raw-spawn",
                format!(
                    "`thread::{}` spawns outside the shared pool — ad-hoc threads \
                     bypass the configured width and deterministic reduction",
                    item.text
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------
// C1 — serde-default
// ---------------------------------------------------------------------

fn check_serde_default(tokens: &[Token]) -> Vec<(u32, &'static str, String)> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_ident(&tokens[i], "serde") && tokens.get(i + 1).is_some_and(|t| is_punct(t, "(")) {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < tokens.len() {
                if is_punct(&tokens[j], "(") {
                    depth += 1;
                } else if is_punct(&tokens[j], ")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if is_ident(&tokens[j], "default") {
                    findings.push((
                        tokens[i].line,
                        "serde-default",
                        "#[serde(default)] hides missing config fields — the workspace \
                         policy is loud breaks"
                            .to_string(),
                    ));
                    break;
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    findings
}

// ---------------------------------------------------------------------
// C2 — snapshot-version
// ---------------------------------------------------------------------

/// Every `pub struct *Snapshot` deriving `Serialize` must declare a
/// `version` field. Private `*Snapshot` structs are exempt by design:
/// they are only reachable through their (versioned) parent record.
fn check_snapshot_version(tokens: &[Token]) -> Vec<(u32, &'static str, String)> {
    let mut findings = Vec::new();
    let mut has_serialize = false;
    let mut pending_pub = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, "#") && tokens.get(i + 1).is_some_and(|n| is_punct(n, "[")) {
            let (end, _) = scan_attr(tokens, i + 1);
            if tokens.get(i + 2).is_some_and(|n| is_ident(n, "derive")) {
                has_serialize |= tokens[i + 2..end].iter().any(|t| is_ident(t, "Serialize"));
            }
            i = end + 1;
            continue;
        }
        if is_ident(t, "pub") {
            pending_pub = true;
            // Skip a visibility qualifier like pub(crate).
            if tokens.get(i + 1).is_some_and(|n| is_punct(n, "(")) {
                let mut d = 0i32;
                let mut j = i + 1;
                while j < tokens.len() {
                    if is_punct(&tokens[j], "(") {
                        d += 1;
                    } else if is_punct(&tokens[j], ")") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
            } else {
                i += 1;
            }
            continue;
        }
        if is_ident(t, "struct") {
            let struct_is_pub = pending_pub;
            let name = tokens.get(i + 1);
            if let Some(name) = name {
                if has_serialize && struct_is_pub && name.text.ends_with("Snapshot") {
                    // Find the body and look for a `version` field.
                    let mut j = i + 2;
                    let mut body_open = None;
                    while j < tokens.len() {
                        if is_punct(&tokens[j], "{") {
                            body_open = Some(j);
                            break;
                        }
                        if is_punct(&tokens[j], ";") || is_punct(&tokens[j], "(") {
                            break; // unit or tuple struct: no named fields
                        }
                        j += 1;
                    }
                    let mut has_version = false;
                    if let Some(open) = body_open {
                        let close = match_brace(tokens, open);
                        let mut depth = 0i32;
                        for k in open..close {
                            if is_punct(&tokens[k], "{") {
                                depth += 1;
                            } else if is_punct(&tokens[k], "}") {
                                depth -= 1;
                            } else if depth == 1
                                && is_ident(&tokens[k], "version")
                                && tokens.get(k + 1).is_some_and(|n| is_punct(n, ":"))
                            {
                                has_version = true;
                                break;
                            }
                        }
                    }
                    if !has_version {
                        findings.push((
                            name.line,
                            "snapshot-version",
                            format!(
                                "serializable snapshot `{}` has no `version` field — \
                                 restore paths cannot reject stale layouts",
                                name.text
                            ),
                        ));
                    }
                }
            }
            has_serialize = false;
            pending_pub = false;
            i += 1;
            continue;
        }
        // Any other non-attribute token between a derive and a struct
        // header (doc comments are not tokens) ends the association.
        has_serialize = false;
        pending_pub = false;
        i += 1;
    }
    findings
}

// ---------------------------------------------------------------------
// R1 — no-panic
// ---------------------------------------------------------------------

fn check_no_panic(tokens: &[Token]) -> Vec<(u32, &'static str, String)> {
    let mut findings = Vec::new();
    for i in 0..tokens.len() {
        if is_punct(&tokens[i], ".")
            && tokens
                .get(i + 1)
                .is_some_and(|t| is_ident(t, "unwrap") || is_ident(t, "expect"))
            && tokens.get(i + 2).is_some_and(|t| is_punct(t, "("))
        {
            findings.push((
                tokens[i + 1].line,
                "no-panic",
                format!(
                    "`.{}()` can panic a serving thread on hostile input",
                    tokens[i + 1].text
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------
// N1 — float-eq
// ---------------------------------------------------------------------

fn check_float_eq(tokens: &[Token]) -> Vec<(u32, &'static str, String)> {
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(is_punct(t, "==") || is_punct(t, "!=")) {
            continue;
        }
        let left_float = i >= 1 && tokens[i - 1].kind == TokenKind::Float;
        let right_float = match tokens.get(i + 1) {
            Some(n) if n.kind == TokenKind::Float => true,
            Some(n) if is_punct(n, "-") => tokens
                .get(i + 2)
                .is_some_and(|m| m.kind == TokenKind::Float),
            _ => false,
        };
        if left_float || right_float {
            findings.push((
                t.line,
                "float-eq",
                format!(
                    "bare float `{}` comparison — exact equality on f64 is \
                     order/rounding-sensitive",
                    t.text
                ),
            ));
        }
    }
    findings
}
