//! Interprocedural rule passes over the workspace call graph.
//!
//! Where [`crate::rules`] pattern-matches tokens file by file, this module
//! works on the [`crate::symbols::Workspace`] + [`crate::callgraph`] pair:
//!
//! * **P1 / A1** — panic- and allocation-freedom of the access hot path.
//!   The hot set is no longer a hand-maintained module list: it is the
//!   transitive closure of the declared seeds ([`crate::HOT_PATH_SEEDS`])
//!   over resolved call edges, minus declared amortization boundaries
//!   ([`crate::AMORTIZED_BOUNDARIES`]). Findings carry the full call chain
//!   from a seed to the offending function.
//! * **N1** — iteration over a hash-ordered container (`FxHashMap`,
//!   `FxHashSet`, std `HashMap`/`HashSet`) inside any function that can
//!   reach an order-sensitive sink (stat merges, digests, journal encoding,
//!   exporters) without sorting first. Hash iteration order is
//!   seed/platform-dependent; letting it leak into merged stats or emitted
//!   bytes breaks bit-reproducibility.
//! * **F1** — unordered float reductions (`.sum()`, `.product()`,
//!   `.fold()`) inside merge/aggregation functions reachable from the
//!   parallel-grid entry points. Float addition does not associate, so a
//!   reduction whose operand order is not pinned can differ between serial
//!   and parallel grids.
//!
//! All passes skip `#[cfg(test)]` functions and files under
//! `tests/`/`examples/`/`benches/`: the contracts bind shipped simulator
//! code, not its test rigs. What the call-graph builder cannot resolve it
//! drops, so these rules under-approximate; the fixture suite pins the
//! idioms that must keep resolving.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::callgraph::{self, CallGraph, Reach, ReachesSink};
use crate::lexer::{Token, TokenKind};
use crate::rules::is_keyword;
use crate::symbols::{FnId, Owner, Workspace};
use crate::Finding;

/// A declaration of where the access hot path *starts*. Matching is
/// textual (trait/type names as written at the impl site), so fixture
/// workspaces and impls of foreign traits seed exactly like the real tree.
#[derive(Debug, Clone, Copy)]
pub enum Seed {
    /// Every impl of `trait_name` (plus the trait's own default bodies):
    /// the named methods.
    TraitMethods {
        trait_name: &'static str,
        methods: &'static [&'static str],
    },
    /// The named inherent/impl methods of every type called `ty`.
    TypeMethods {
        ty: &'static str,
        methods: &'static [&'static str],
    },
    /// Every method of types called `ty` whose name starts with `prefix`.
    TypeMethodPrefix {
        ty: &'static str,
        prefix: &'static str,
    },
}

/// Container types whose iteration order is hash-dependent.
const HASH_ORDERED_TYPES: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Methods that yield a hash-ordered iteration when called on one of the
/// above.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Consumers whose result does not depend on operand order (over exact
/// types — floats void the exemption).
const ORDER_INSENSITIVE_CONSUMERS: &[&str] = &["sum", "count", "min", "max", "all", "any"];

/// Float reduction methods F1 looks for.
const FLOAT_REDUCERS: &[&str] = &["sum", "product", "fold"];

/// Runs every graph-based pass over a built workspace. `check_config`
/// additionally audits the analyzer's own configuration (stale
/// [`crate::AMORTIZED_BOUNDARIES`] entries become X1); that only makes
/// sense when linting the full tree, not a fixture subset.
pub fn lint_graph(ws: &Workspace, check_config: bool) -> Vec<Finding> {
    let graph = callgraph::build(ws);
    let mut findings = Vec::new();
    hot_path_pass(ws, &graph, check_config, &mut findings);
    order_taint_pass(ws, &graph, &mut findings);
    float_merge_pass(ws, &graph, &mut findings);
    findings
}

/// Resolves the declared seeds to concrete fns. Test-gated fns and fns in
/// test/example/bench files never seed.
pub fn seed_fns(ws: &Workspace, seeds: &[Seed]) -> Vec<FnId> {
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.cfg_test || ws.files[f.file].is_test_file || f.body.is_none() {
            continue;
        }
        let owner_type_name = match f.owner {
            Owner::Type(t) => Some(ws.types[t.0].name.as_str()),
            _ => None,
        };
        let default_of = match f.owner {
            Owner::TraitDefault(tr) => Some(ws.traits[tr.0].name.as_str()),
            _ => None,
        };
        let hit = seeds.iter().any(|seed| match seed {
            Seed::TraitMethods {
                trait_name,
                methods,
            } => {
                methods.contains(&f.name.as_str())
                    && (f.impl_trait.as_deref() == Some(trait_name)
                        || default_of == Some(trait_name))
            }
            Seed::TypeMethods { ty, methods } => {
                owner_type_name == Some(ty) && methods.contains(&f.name.as_str())
            }
            Seed::TypeMethodPrefix { ty, prefix } => {
                owner_type_name == Some(ty) && f.name.starts_with(prefix)
            }
        });
        if hit {
            out.push(FnId(i));
        }
    }
    out
}

/// Resolves `(qualified name, justification)` amortization boundaries to
/// fn ids. An entry matching nothing is reported as an X1 config error so
/// the list cannot rot silently.
pub fn boundary_fns(
    ws: &Workspace,
    boundaries: &[(&str, &str)],
    report_stale: bool,
    findings: &mut Vec<Finding>,
) -> Vec<FnId> {
    let mut out = Vec::new();
    for (qualified, _why) in boundaries {
        let matches: Vec<FnId> = (0..ws.fns.len())
            .map(FnId)
            .filter(|&id| ws.qualified_name(id) == *qualified)
            .collect();
        if matches.is_empty() && report_stale {
            findings.push(Finding {
                rule: "X1",
                path: "crates/lint/src/lib.rs".to_string(),
                line: 1,
                message: format!(
                    "AMORTIZED_BOUNDARIES entry `{qualified}` matches no workspace fn"
                ),
                hint: "remove the stale boundary or fix the qualified name".to_string(),
                chain: Vec::new(),
            });
        }
        out.extend(matches);
    }
    out
}

/// The derived hot set as `(file path, fn name)` pairs: everything
/// reachable from the declared seeds, minus amortization boundaries. This
/// is the scope that replaced the old hand-maintained module/seed lists;
/// it is exposed so integration tests can audit its coverage against
/// historical baselines.
pub fn derived_hot_set(ws: &Workspace) -> std::collections::BTreeSet<(String, String)> {
    let graph = callgraph::build(ws);
    let seeds = seed_fns(ws, crate::HOT_PATH_SEEDS);
    let stops = boundary_fns(ws, crate::AMORTIZED_BOUNDARIES, false, &mut Vec::new());
    let reach = Reach::compute(ws, &graph, &seeds, &stops);
    (0..ws.fns.len())
        .map(FnId)
        .filter(|id| reach.reached[id.0])
        .map(|id| {
            (
                ws.files[ws.fns[id.0].file].path.clone(),
                ws.fns[id.0].name.clone(),
            )
        })
        .collect()
}

/// Whether a fn's body should be scanned for sinks: shipped, non-test code.
fn scannable(ws: &Workspace, f: FnId) -> bool {
    let sym = &ws.fns[f.0];
    sym.body.is_some() && !sym.cfg_test && !ws.files[sym.file].is_test_file
}

fn body_tokens(ws: &Workspace, f: FnId) -> (&[Token], Range<usize>) {
    let sym = &ws.fns[f.0];
    (
        &ws.files[sym.file].lexed.tokens,
        sym.body.clone().unwrap_or(0..0),
    )
}

// ---- P1 / A1: hot-path panic and allocation freedom ------------------------

fn hot_path_pass(
    ws: &Workspace,
    graph: &CallGraph,
    check_config: bool,
    findings: &mut Vec<Finding>,
) {
    let seeds = seed_fns(ws, crate::HOT_PATH_SEEDS);
    let stops = boundary_fns(ws, crate::AMORTIZED_BOUNDARIES, check_config, findings);
    let reach = Reach::compute(ws, graph, &seeds, &stops);

    let p1_hint = "restructure infallibly (`get`, `if let`, accessor with a documented \
                   invariant) or annotate why the panic cannot fire";
    let a1_hint = "keep per-access work allocation-free: reuse caller-owned buffers \
                   (see the outcome-reuse protocol) or hoist the allocation to setup";

    for id in (0..ws.fns.len()).map(FnId) {
        if !reach.reached[id.0] || !scannable(ws, id) {
            continue;
        }
        let (toks, body) = body_tokens(ws, id);
        let sym = &ws.fns[id.0];
        let chain = reach.chain(ws, id);
        for (line, what) in panic_sites(toks, body.clone()) {
            findings.push(Finding {
                rule: "P1",
                path: ws.files[sym.file].path.clone(),
                line,
                message: format!(
                    "{what} in `{}`, which is on the access hot path",
                    ws.qualified_name(id)
                ),
                hint: p1_hint.to_string(),
                chain: chain.clone(),
            });
        }
        for (line, what) in alloc_sites(toks, body.clone()) {
            findings.push(Finding {
                rule: "A1",
                path: ws.files[sym.file].path.clone(),
                line,
                message: format!(
                    "`{what}` in `{}`, which is on the access hot path",
                    ws.qualified_name(id)
                ),
                hint: a1_hint.to_string(),
                chain: chain.clone(),
            });
        }
    }
}

/// Panic-capable sites in a body: `.unwrap()`, `.expect(`, `panic!`, bare
/// `[...]` indexing after a value token.
fn panic_sites(toks: &[Token], body: Range<usize>) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for i in body.clone() {
        let Some(t) = toks.get(i) else { break };
        if punct(Some(t), '.') {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokenKind::Ident
                    && (name.text == "unwrap" || name.text == "expect")
                    && punct(toks.get(i + 2), '(')
                {
                    out.push((name.line, format!("`.{}(`", name.text)));
                }
            }
        }
        if t.kind == TokenKind::Ident && t.text == "panic" && punct(toks.get(i + 1), '!') {
            out.push((t.line, "`panic!`".to_string()));
        }
        // Bare `[...]` indexing: a `[` whose previous token is a value
        // (identifier, `)` or `]`). Type positions, attributes, slice
        // patterns and macro brackets all have non-value predecessors.
        if punct(Some(t), '[') && i > body.start {
            let prev = &toks[i - 1];
            let value_before = match prev.kind {
                TokenKind::Ident => !is_keyword(&prev.text),
                TokenKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if value_before {
                out.push((t.line, "bare `[...]` indexing".to_string()));
            }
        }
    }
    out
}

/// Allocation sites in a body: `Vec::new`, `Box::new`, `vec!`, `format!`,
/// `.to_vec()`.
fn alloc_sites(toks: &[Token], body: Range<usize>) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for j in body.clone() {
        let Some(t) = toks.get(j) else { break };
        if t.kind == TokenKind::Ident
            && (t.text == "Vec" || t.text == "Box")
            && punct(toks.get(j + 1), ':')
            && punct(toks.get(j + 2), ':')
            && ident(toks.get(j + 3), "new")
        {
            out.push((t.line, format!("{}::new", t.text)));
        }
        if t.kind == TokenKind::Ident
            && (t.text == "vec" || t.text == "format")
            && punct(toks.get(j + 1), '!')
        {
            out.push((t.line, format!("{}!", t.text)));
        }
        if punct(Some(t), '.') && ident(toks.get(j + 1), "to_vec") && punct(toks.get(j + 2), '(') {
            out.push((t.line, ".to_vec()".to_string()));
        }
    }
    out
}

// ---- N1: hash-iteration order taint ----------------------------------------

fn order_taint_pass(ws: &Workspace, graph: &CallGraph, findings: &mut Vec<Finding>) {
    // Sinks: merge/digest-named fns plus everything in the declared
    // serialization files (journal encoding, exporters).
    let sinks: Vec<FnId> = (0..ws.fns.len())
        .map(FnId)
        .filter(|&id| {
            let f = &ws.fns[id.0];
            if f.cfg_test || ws.files[f.file].is_test_file {
                return false;
            }
            crate::ORDER_SINK_FNS.contains(&f.name.as_str())
                || crate::ORDER_SINK_FILES.contains(&ws.files[f.file].path.as_str())
        })
        .collect();
    let reach = ReachesSink::compute(ws, graph, &sinks);

    for id in (0..ws.fns.len()).map(FnId) {
        if !reach.reaches[id.0] || !scannable(ws, id) {
            continue;
        }
        let path = ws.files[ws.fns[id.0].file].path.clone();
        if !crate::rules::determinism_scope(&path) {
            continue;
        }
        let locals = callgraph::local_types(ws, id);
        let (toks, body) = body_tokens(ws, id);
        let chain = reach.chain(ws, id);
        for site in hash_iteration_sites(ws, id, &locals, toks, body) {
            findings.push(Finding {
                rule: "N1",
                path: path.clone(),
                line: site.line,
                message: format!(
                    "iteration over hash-ordered `{}` in `{}` feeds an order-sensitive \
                     sink without an intervening sort",
                    site.ty,
                    ws.qualified_name(id)
                ),
                hint: "collect and sort the keys first, or keep the data in a `Vec`/`BTreeMap`; \
                       hash iteration order is seed- and platform-dependent"
                    .to_string(),
                chain: chain.clone(),
            });
        }
    }
}

struct IterSite {
    line: usize,
    ty: String,
}

/// Hash-ordered iteration sites in a body: `recv.iter()`-style method
/// calls and bare `for x in &recv` loops, where `recv`'s *declared* base
/// type is a hash container. A later `sort*` call in the same body, or
/// order-insensitive consumption in the same statement (over non-floats),
/// exempts a site.
fn hash_iteration_sites(
    ws: &Workspace,
    f: FnId,
    locals: &BTreeMap<String, String>,
    toks: &[Token],
    body: Range<usize>,
) -> Vec<IterSite> {
    let mut out = Vec::new();
    for i in body.clone() {
        let Some(t) = toks.get(i) else { break };
        // `recv . m (` with m a hash-iteration method.
        if t.kind == TokenKind::Ident
            && HASH_ITER_METHODS.contains(&t.text.as_str())
            && punct(toks.get(i + 1), '(')
            && i > body.start
            && punct(toks.get(i - 1), '.')
        {
            if let Some(ty) = recv_type_text(ws, f, locals, toks, i - 1, body.start) {
                if HASH_ORDERED_TYPES.contains(&ty.as_str())
                    && !sorted_later(toks, i, body.end)
                    && !consumed_order_insensitively(toks, i, body.end)
                {
                    out.push(IterSite { line: t.line, ty });
                }
            }
        }
        // `for pat in [&][mut] recv {` — direct IntoIterator use.
        if t.kind == TokenKind::Ident && t.text == "in" && in_belongs_to_for(toks, i, body.start) {
            let mut j = i + 1;
            while punct(toks.get(j), '&') || ident(toks.get(j), "mut") {
                j += 1;
            }
            if let Some((segs, end)) = recv_chain_forward(toks, j, body.end) {
                // A trailing `(` means the chain ends in a call — covered
                // (or deliberately not) by the method-site scan above.
                if !punct(toks.get(end), '(') && !punct(toks.get(end), '.') {
                    if let Some(ty) = chain_type_text(ws, f, locals, &segs) {
                        if HASH_ORDERED_TYPES.contains(&ty.as_str())
                            && !sorted_later(toks, i, body.end)
                        {
                            out.push(IterSite {
                                line: toks[i].line,
                                ty,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether the `in` at `i` is a `for … in` loop header (an ident `for`
/// appears earlier with only pattern tokens in between).
fn in_belongs_to_for(toks: &[Token], i: usize, start: usize) -> bool {
    let mut j = i;
    let mut depth = 0i32;
    while j > start {
        j -= 1;
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    depth -= 1;
                    if depth < 0 {
                        return false; // left the enclosing expression
                    }
                }
                ";" if depth == 0 => return false,
                _ => {}
            }
        }
        if depth == 0 && t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "for" => return true,
                // Pattern-position tokens keep scanning; anything else
                // (an expression) means this `in` is not a loop header.
                "mut" | "ref" | "_" => {}
                name if !is_keyword(name) => {}
                _ => return false,
            }
        }
    }
    false
}

/// Parses `ident (. ident)*` forward from `j`; returns the segments and
/// the index just past the chain.
fn recv_chain_forward(toks: &[Token], j: usize, end: usize) -> Option<(Vec<String>, usize)> {
    let mut segs = Vec::new();
    let mut k = j;
    let first = toks.get(k)?;
    if first.kind != TokenKind::Ident || (is_keyword(&first.text) && first.text != "self") {
        return None;
    }
    segs.push(first.text.clone());
    k += 1;
    while k + 1 < end && punct(toks.get(k), '.') {
        let Some(seg) = toks.get(k + 1) else { break };
        if seg.kind != TokenKind::Ident {
            break;
        }
        // Stop before a method call: `a.b.iter()` ends the *field* chain
        // at `b`; the `iter(` is the method-site scan's business.
        if punct(toks.get(k + 2), '(') {
            break;
        }
        segs.push(seg.text.clone());
        k += 2;
    }
    Some((segs, k))
}

/// Declared base type of the receiver ending at the `.` at `dot`
/// (backward walk: `self.field`, `local`, `local` being a typed param).
fn recv_type_text(
    ws: &Workspace,
    f: FnId,
    locals: &BTreeMap<String, String>,
    toks: &[Token],
    dot: usize,
    start: usize,
) -> Option<String> {
    let name_idx = dot.checked_sub(1)?;
    let name = toks.get(name_idx)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    if name_idx > start + 1
        && punct(toks.get(name_idx - 1), '.')
        && ident(toks.get(name_idx - 2), "self")
    {
        return callgraph::self_field_type(ws, f, &name.text);
    }
    if name_idx > start && punct(toks.get(name_idx - 1), '.') {
        return None; // deeper chains: unresolvable, under-approximate
    }
    locals.get(name.text.as_str()).cloned()
}

fn chain_type_text(
    ws: &Workspace,
    f: FnId,
    locals: &BTreeMap<String, String>,
    segs: &[String],
) -> Option<String> {
    match segs {
        [one] if one != "self" => locals.get(one.as_str()).cloned(),
        [one, field] if one == "self" => callgraph::self_field_type(ws, f, field),
        _ => None,
    }
}

/// Whether any `sort*` call appears after `i` in the body — the caller
/// ordered the collected data before it can reach a sink.
fn sorted_later(toks: &[Token], i: usize, end: usize) -> bool {
    ((i + 1)..end).any(|j| {
        toks.get(j).is_some_and(|t| {
            t.kind == TokenKind::Ident && t.text.starts_with("sort") && punct(toks.get(j + 1), '(')
        })
    })
}

/// Whether the statement containing `i` consumes the iteration with an
/// order-insensitive reducer (`sum`, `count`, …) and shows no float
/// involvement (float addition is order-sensitive).
fn consumed_order_insensitively(toks: &[Token], i: usize, end: usize) -> bool {
    let mut insensitive = false;
    let mut float = false;
    for j in i..end {
        let Some(t) = toks.get(j) else { break };
        if punct(Some(t), ';') {
            break;
        }
        if t.kind == TokenKind::Ident
            && ORDER_INSENSITIVE_CONSUMERS.contains(&t.text.as_str())
            && punct(toks.get(j + 1), '(')
        {
            insensitive = true;
        }
        if t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32") {
            float = true;
        }
        if t.kind == TokenKind::Number && t.text.contains('.') {
            float = true;
        }
    }
    insensitive && !float
}

// ---- F1: float reductions on parallel merge paths --------------------------

fn float_merge_pass(ws: &Workspace, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let seeds: Vec<FnId> = (0..ws.fns.len())
        .map(FnId)
        .filter(|&id| {
            let f = &ws.fns[id.0];
            !f.cfg_test
                && !ws.files[f.file].is_test_file
                && f.body.is_some()
                && crate::PARALLEL_SEED_PREFIXES
                    .iter()
                    .any(|p| f.name.starts_with(p))
        })
        .collect();
    let reach = Reach::compute(ws, graph, &seeds, &[]);

    for id in (0..ws.fns.len()).map(FnId) {
        if !reach.reached[id.0] || !scannable(ws, id) {
            continue;
        }
        let name = ws.fns[id.0].name.as_str();
        if !crate::MERGE_FN_MARKERS.iter().any(|m| name.contains(m)) {
            continue;
        }
        let path = ws.files[ws.fns[id.0].file].path.clone();
        if !crate::rules::determinism_scope(&path) {
            continue;
        }
        let (toks, body) = body_tokens(ws, id);
        let chain = reach.chain(ws, id);
        for i in body.clone() {
            let Some(t) = toks.get(i) else { break };
            if t.kind != TokenKind::Ident
                || !FLOAT_REDUCERS.contains(&t.text.as_str())
                || !punct(toks.get(i + 1), '(')
                || i == body.start
                || !punct(toks.get(i - 1), '.')
            {
                continue;
            }
            if statement_has_float(toks, i, body.clone()) {
                findings.push(Finding {
                    rule: "F1",
                    path: path.clone(),
                    line: t.line,
                    message: format!(
                        "float `.{}(` reduction in merge/aggregation fn `{}` on a \
                         parallel path: float addition does not associate, so \
                         operand order must be pinned",
                        t.text,
                        ws.qualified_name(id)
                    ),
                    hint: "accumulate in a fixed order (indexed loop over a Vec) or keep \
                           integer units until the final serial report"
                        .to_string(),
                    chain: chain.clone(),
                });
            }
        }
    }
}

/// Whether the statement around `i` shows float involvement: an `f64`/`f32`
/// ident (declarations, casts, turbofish) or a float literal.
fn statement_has_float(toks: &[Token], i: usize, body: Range<usize>) -> bool {
    let mut start = i;
    while start > body.start && !punct(toks.get(start - 1), ';') {
        start -= 1;
    }
    for j in start..body.end {
        let Some(t) = toks.get(j) else { break };
        if j > i && punct(Some(t), ';') {
            break;
        }
        if t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32") {
            return true;
        }
        if t.kind == TokenKind::Number && t.text.contains('.') {
            return true;
        }
    }
    false
}

// ---- token helpers ---------------------------------------------------------

fn punct(t: Option<&Token>, c: char) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

fn ident(t: Option<&Token>, name: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(sources: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let ws = Workspace::build(&owned, &BTreeMap::new());
        lint_graph(&ws, false)
    }

    fn spots<'a>(findings: &'a [Finding], rule: &str) -> Vec<(&'a str, usize)> {
        findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| (f.path.as_str(), f.line))
            .collect()
    }

    #[test]
    fn a1_crosses_files_through_the_call_graph() {
        // The old file-local A1 missed exactly this shape: a hot fn calling
        // an allocating helper that lives in a *sibling module*.
        let findings = lint(&[
            (
                "crates/core/src/controller.rs",
                "use crate::util::expand;\n\
                 struct C;\n\
                 impl MemoryScheme for C {\n\
                     fn access(&mut self) { expand(3); }\n\
                 }\n",
            ),
            (
                "crates/core/src/util.rs",
                "pub fn expand(n: u64) -> Vec<u64> { vec![n] }\n",
            ),
        ]);
        assert_eq!(
            spots(&findings, "A1"),
            vec![("crates/core/src/util.rs", 1)],
            "{findings:#?}"
        );
        let chain = &findings[0].chain;
        assert_eq!(chain.len(), 2, "{chain:?}");
        assert!(chain[0].starts_with("C::access (crates/core/src/controller.rs:4)"));
        assert!(chain[1].starts_with("expand (crates/core/src/util.rs:1)"));
    }

    #[test]
    fn p1_follows_trait_object_dispatch() {
        let findings = lint(&[(
            "crates/sim/src/system.rs",
            "struct Inner;\n\
             impl Inner { fn pick(&self, v: &[u8]) -> u8 { v[0] } }\n\
             struct S { inner: Inner }\n\
             impl S { fn run_with_feed(&mut self, v: &[u8]) { self.inner.pick(v); } }\n\
             impl System { fn noop(&self) {} }\n\
             struct System;\n",
        )]);
        // `S` is not `System`, so nothing seeds — the hot set derives from
        // declared seeds, not file names.
        assert!(findings.is_empty(), "{findings:#?}");

        let findings = lint(&[(
            "crates/sim/src/system.rs",
            "struct Inner;\n\
             impl Inner { fn pick(&self, v: &[u8]) -> u8 { v[0] } }\n\
             struct System { inner: Inner }\n\
             impl System { fn run_with_feed(&mut self, v: &[u8]) { self.inner.pick(v); } }\n",
        )]);
        assert_eq!(
            spots(&findings, "P1"),
            vec![("crates/sim/src/system.rs", 2)],
            "{findings:#?}"
        );
        assert_eq!(findings[0].chain.len(), 2, "{:?}", findings[0].chain);
    }

    #[test]
    fn amortized_boundaries_stop_the_closure() {
        // `RunObs::epoch_tick` is a declared boundary: allocations behind
        // it do not fire even though the run loop calls it.
        let findings = lint(&[(
            "crates/sim/src/system.rs",
            "struct RunObs;\n\
             impl RunObs { fn epoch_tick(&mut self) { let v = vec![1]; let _ = v; } }\n\
             struct System { obs: RunObs }\n\
             impl System { fn run(&mut self) { self.obs.epoch_tick(); } }\n",
        )]);
        assert!(spots(&findings, "A1").is_empty(), "{findings:#?}");
    }

    #[test]
    fn n1_flags_hash_iteration_feeding_a_merge() {
        let findings = lint(&[(
            "crates/sim/src/metrics.rs",
            "struct M { counts: FxHashMap }\n\
             impl M {\n\
                 fn collect(&self) -> u64 {\n\
                     let mut total = 0u64;\n\
                     for (_k, v) in &self.counts { total += v; }\n\
                     self.merge();\n\
                     total\n\
                 }\n\
                 fn merge(&self) {}\n\
             }\n",
        )]);
        assert_eq!(
            spots(&findings, "N1"),
            vec![("crates/sim/src/metrics.rs", 5)],
            "{findings:#?}"
        );
        assert!(
            findings[0].chain[1].contains("M::merge"),
            "{:?}",
            findings[0].chain
        );
    }

    #[test]
    fn n1_exempts_sorted_and_order_insensitive_consumption() {
        let findings = lint(&[(
            "crates/sim/src/metrics.rs",
            "struct M { counts: FxHashMap, tags: FxHashSet }\n\
             impl M {\n\
                 fn collect(&self) -> u64 {\n\
                     let mut keys: Vec<u64> = self.counts.keys().copied().collect();\n\
                     keys.sort_unstable();\n\
                     let n: u64 = self.tags.iter().map(|t| t.0).sum();\n\
                     self.merge();\n\
                     n\n\
                 }\n\
                 fn merge(&self) {}\n\
             }\n",
        )]);
        assert!(spots(&findings, "N1").is_empty(), "{findings:#?}");
    }

    #[test]
    fn n1_ignores_fns_that_cannot_reach_a_sink() {
        let findings = lint(&[(
            "crates/sim/src/metrics.rs",
            "struct M { counts: FxHashMap }\n\
             impl M {\n\
                 fn debug_dump(&self) -> u64 {\n\
                     let mut total = 0u64;\n\
                     for (_k, v) in &self.counts { total += v; }\n\
                     total\n\
                 }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn f1_flags_float_reductions_on_the_parallel_path() {
        let findings = lint(&[(
            "crates/sim/src/runner.rs",
            "pub fn run_grid_totals(xs: &[f64]) -> f64 { merge_deltas(xs) }\n\
             fn merge_deltas(xs: &[f64]) -> f64 {\n\
                 let total: f64 = xs.iter().sum();\n\
                 total\n\
             }\n",
        )]);
        assert_eq!(
            spots(&findings, "F1"),
            vec![("crates/sim/src/runner.rs", 3)],
            "{findings:#?}"
        );
        assert!(
            findings[0].chain[0].contains("run_grid_totals"),
            "{:?}",
            findings[0].chain
        );
        // Integer reductions in the same shape are fine.
        let findings = lint(&[(
            "crates/sim/src/runner.rs",
            "pub fn run_grid_totals(xs: &[u64]) -> u64 { merge_deltas(xs) }\n\
             fn merge_deltas(xs: &[u64]) -> u64 {\n\
                 let total: u64 = xs.iter().sum();\n\
                 total\n\
             }\n",
        )]);
        assert!(spots(&findings, "F1").is_empty(), "{findings:#?}");
    }

    #[test]
    fn stale_boundaries_are_a_config_error_under_check_config() {
        let owned = vec![(
            "crates/sim/src/system.rs".to_string(),
            "struct System;\nimpl System { fn run(&mut self) {} }\n".to_string(),
        )];
        let ws = Workspace::build(&owned, &BTreeMap::new());
        // The real config names `RunObs::epoch_tick`, which this workspace
        // does not define — check_config must surface that as X1.
        let findings = lint_graph(&ws, true);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "X1" && f.message.contains("RunObs::epoch_tick")),
            "{findings:#?}"
        );
        // Without check_config (fixture mode) the same workspace is clean.
        assert!(lint_graph(&ws, false).is_empty());
    }

    #[test]
    fn test_files_and_cfg_test_fns_never_seed_or_fire() {
        let findings = lint(&[(
            "crates/sim/tests/mock.rs",
            "struct Mock;\n\
             impl MemoryScheme for Mock {\n\
                 fn access(&mut self) { let v = vec![1]; let _ = v.to_vec(); }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
