//! Interpreter for the iFuice script language.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use moma_core::blocking::Blocking;
use moma_core::exec::Parallelism;
use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher, MatcherSim};
use moma_core::ops::compose::{compose, PathAgg, PathCombine};
use moma_core::ops::merge::{merge, MergeFn, MissingPolicy};
use moma_core::ops::select::{select, select_constraint, Selection, Side};
use moma_core::ops::setops;
use moma_core::{CoreError, Mapping, MappingRepository};
use moma_model::{AttrValue, LdsId, SourceRegistry};
use moma_simstring::SimFn;

use super::ast::{Expr, Script, Stmt};
use super::parser::ParseError;
use crate::source::{DataSource, InMemorySource};

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// An instance mapping.
    Mapping(Arc<Mapping>),
    /// A logical source handle.
    Source(LdsId),
    /// A set of instances of one source.
    Instances {
        /// The owning source.
        lds: LdsId,
        /// Instance indexes.
        ids: Vec<u32>,
    },
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A bare symbol, e.g. `Min`.
    Sym(String),
    /// A selection object (from `threshold(...)`, `bestN(...)`, …).
    Selection(Selection),
    /// No value.
    Unit,
}

impl Value {
    /// The mapping inside, if any.
    pub fn as_mapping(&self) -> Option<&Mapping> {
        match self {
            Value::Mapping(m) => Some(m),
            _ => None,
        }
    }

    /// The number inside, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The instance set inside, or a typed [`ScriptError::Type`] naming
    /// the mismatch — so callers surface a diagnostic instead of
    /// panicking on an unexpected value shape.
    pub fn expect_instances(&self, context: &str) -> Result<(LdsId, &[u32]), ScriptError> {
        match self {
            Value::Instances { lds, ids } => Ok((*lds, ids)),
            other => Err(ScriptError::Type {
                context: context.to_owned(),
                expected: "instances",
                got: other.type_name(),
            }),
        }
    }

    /// The type label used in diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Mapping(_) => "mapping",
            Value::Source(_) => "source",
            Value::Instances { .. } => "instances",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Sym(_) => "symbol",
            Value::Selection(_) => "selection",
            Value::Unit => "unit",
        }
    }
}

/// Script execution error.
#[derive(Debug)]
pub enum ScriptError {
    /// Parse-phase failure.
    Parse(ParseError),
    /// Runtime failure with message.
    Runtime(String),
    /// A builtin received a value of the wrong type — the script is
    /// malformed; the diagnostic names the call site and both types.
    Type {
        /// The builtin or call site, e.g. `"traverse"`.
        context: String,
        /// The type the builtin needs, e.g. `"instances"`.
        expected: &'static str,
        /// The type it received.
        got: &'static str,
    },
    /// Propagated core error.
    Core(CoreError),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Parse(e) => write!(f, "{e}"),
            ScriptError::Runtime(msg) => write!(f, "script runtime error: {msg}"),
            ScriptError::Type {
                context,
                expected,
                got,
            } => write!(
                f,
                "script type error: `{context}` expects {expected}, got {got}"
            ),
            ScriptError::Core(e) => write!(f, "script runtime error: {e}"),
        }
    }
}

impl std::error::Error for ScriptError {}

impl From<ParseError> for ScriptError {
    fn from(e: ParseError) -> Self {
        ScriptError::Parse(e)
    }
}

impl From<CoreError> for ScriptError {
    fn from(e: CoreError) -> Self {
        ScriptError::Core(e)
    }
}

impl From<moma_model::ModelError> for ScriptError {
    fn from(e: moma_model::ModelError) -> Self {
        ScriptError::Core(CoreError::Model(e))
    }
}

fn rt(msg: impl Into<String>) -> ScriptError {
    ScriptError::Runtime(msg.into())
}

type Procedure = (Vec<String>, Vec<Stmt>);

/// The interpreter: variables, procedures and the execution environment.
pub struct Interpreter<'a> {
    registry: &'a SourceRegistry,
    repository: &'a MappingRepository,
    vars: HashMap<String, Value>,
    procs: HashMap<String, Procedure>,
    parallelism: Parallelism,
    /// Candidate-generation override for `attrMatch`/`multiAttrMatch`;
    /// `None` picks per-measure ([`moma_core::blocking::Blocking::auto_for`]).
    blocking: Option<Blocking>,
}

enum Flow {
    Normal(Value),
    Return(Value),
}

impl<'a> Interpreter<'a> {
    /// New interpreter over a registry and repository. Matchers execute
    /// with [`Parallelism::from_env`]
    /// (`MOMA_THREADS` or one thread per CPU) unless overridden with
    /// [`with_parallelism`](Self::with_parallelism).
    pub fn new(registry: &'a SourceRegistry, repository: &'a MappingRepository) -> Self {
        Self {
            registry,
            repository,
            vars: HashMap::new(),
            procs: HashMap::new(),
            parallelism: Parallelism::from_env(),
            blocking: None,
        }
    }

    /// Override the parallel-execution configuration (builder style).
    /// Results are identical at every thread count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Pin one candidate-generation strategy for every
    /// `attrMatch`/`multiAttrMatch` in the script (builder style; the
    /// CLI's `--blocking` flag). Default: per-measure auto-selection —
    /// threshold-exact for q-gram measures, prefix-filtered otherwise.
    pub fn with_blocking(mut self, blocking: Blocking) -> Self {
        self.blocking = Some(blocking);
        self
    }

    /// Pre-bind a variable (e.g. inputs computed in Rust).
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Run a script; returns the `RETURN` value or the last statement's
    /// value.
    pub fn run(&mut self, script: &Script) -> Result<Value, ScriptError> {
        match self.exec_block(&script.stmts)? {
            Flow::Normal(v) | Flow::Return(v) => Ok(v),
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, ScriptError> {
        let mut last = Value::Unit;
        for stmt in stmts {
            match stmt {
                Stmt::Assign { var, expr } => {
                    let v = self.eval(expr)?;
                    self.vars.insert(var.clone(), v.clone());
                    last = v;
                }
                Stmt::Return(expr) => {
                    let v = self.eval(expr)?;
                    return Ok(Flow::Return(v));
                }
                Stmt::Expr(expr) => {
                    last = self.eval(expr)?;
                }
                Stmt::Procedure { name, params, body } => {
                    self.procs
                        .insert(name.clone(), (params.clone(), body.clone()));
                }
            }
        }
        Ok(Flow::Normal(last))
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, ScriptError> {
        match expr {
            Expr::Var(name) => self
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| rt(format!("undefined variable `${name}`"))),
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Sym(s) => Ok(Value::Sym(s.clone())),
            Expr::Ref(pds, member) => self.resolve_ref(pds, member),
            Expr::Call { name, args } => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<_, _>>()?;
                self.call(name, argv)
            }
        }
    }

    /// `DBLP.CoAuthor`: repository mapping `DBLP.CoAuthor` if present,
    /// else logical source `CoAuthor@DBLP`.
    fn resolve_ref(&self, pds: &str, member: &str) -> Result<Value, ScriptError> {
        let repo_key = format!("{pds}.{member}");
        if let Some(m) = self.repository.get(&repo_key) {
            return Ok(Value::Mapping(m));
        }
        let lds_name = format!("{member}@{pds}");
        if let Ok(id) = self.registry.resolve(&lds_name) {
            return Ok(Value::Source(id));
        }
        Err(rt(format!(
            "`{repo_key}` is neither a repository mapping nor a source `{lds_name}`"
        )))
    }

    fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, ScriptError> {
        // User-defined procedures shadow builtins (the paper defines
        // nhMatch as a procedure; scripts may bring their own).
        if let Some((params, body)) = self.procs.get(name).cloned() {
            if params.len() != args.len() {
                return Err(rt(format!(
                    "procedure `{name}` expects {} arguments, got {}",
                    params.len(),
                    args.len()
                )));
            }
            let saved = std::mem::take(&mut self.vars);
            for (p, v) in params.iter().zip(args) {
                self.vars.insert(p.clone(), v);
            }
            let flow = self.exec_block(&body);
            self.vars = saved;
            return match flow? {
                Flow::Normal(v) | Flow::Return(v) => Ok(v),
            };
        }
        match name {
            "attrMatch" => self.builtin_attr_match(args),
            "multiAttrMatch" => self.builtin_multi_attr_match(args),
            "merge" => self.builtin_merge(args),
            "compose" => self.builtin_compose(args),
            "nhMatch" => self.builtin_nh_match(args),
            "select" => self.builtin_select(args),
            "threshold" => {
                let t = self.num_arg(&args, 0, "threshold")?;
                Ok(Value::Selection(Selection::Threshold(t)))
            }
            "bestN" => {
                let n = self.num_arg(&args, 0, "bestN")? as usize;
                let side = spec_arg(args.get(1), "side")?.unwrap_or(Side::Domain);
                Ok(Value::Selection(Selection::BestN { n, side }))
            }
            "best1delta" => {
                let d = self.num_arg(&args, 0, "best1delta")?;
                let relative = match args.get(1) {
                    Some(Value::Str(s)) | Some(Value::Sym(s)) => s.eq_ignore_ascii_case("rel"),
                    None => false,
                    Some(v) => {
                        return Err(rt(format!(
                            "best1delta mode must be abs/rel, got {}",
                            v.type_name()
                        )))
                    }
                };
                let side = spec_arg(args.get(2), "side")?.unwrap_or(Side::Domain);
                Ok(Value::Selection(Selection::Best1Delta {
                    delta: d,
                    relative,
                    side,
                }))
            }
            "inverse" => {
                let m = self.mapping_arg(&args, 0, "inverse")?;
                Ok(Value::Mapping(Arc::new(m.inverse())))
            }
            "identity" => {
                let lds = self.source_arg(&args, 0, "identity")?;
                let count = self.registry.lds(lds).len() as u32;
                Ok(Value::Mapping(Arc::new(Mapping::identity(lds, count))))
            }
            "union" | "intersect" | "diff" => {
                let a = self.mapping_arg(&args, 0, name)?;
                let b = self.mapping_arg(&args, 1, name)?;
                let r = match name {
                    "union" => setops::union(&a, &b)?,
                    "intersect" => setops::intersection(&a, &b)?,
                    _ => setops::difference(&a, &b)?,
                };
                Ok(Value::Mapping(Arc::new(r)))
            }
            "query" => {
                let lds = self.source_arg(&args, 0, "query")?;
                let keywords = match args.get(1) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err(rt("query needs a keyword string")),
                };
                let src = InMemorySource::downloadable(lds);
                let ids = src.query(self.registry, &keywords);
                Ok(Value::Instances { lds, ids })
            }
            "traverse" => {
                let m = self.mapping_arg(&args, 0, "traverse")?;
                let (_, ids) = args
                    .get(1)
                    .ok_or_else(|| rt("`traverse` missing instance-set argument 1"))?
                    .expect_instances("traverse")?;
                let reached = crate::ops::traverse(&m, ids);
                Ok(Value::Instances {
                    lds: m.range,
                    ids: reached,
                })
            }
            "store" => {
                let m = self.mapping_arg(&args, 0, "store")?;
                let name = match args.get(1) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err(rt("store needs a name string")),
                };
                self.repository.store_as(name, (*m).clone());
                Ok(Value::Unit)
            }
            "get" => {
                let name = match args.first() {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err(rt("get needs a name string")),
                };
                let m = self
                    .repository
                    .get(&name)
                    .ok_or_else(|| rt(format!("no repository mapping `{name}`")))?;
                Ok(Value::Mapping(m))
            }
            other => Err(rt(format!("unknown function `{other}`"))),
        }
    }

    fn num_arg(&self, args: &[Value], i: usize, ctx: &str) -> Result<f64, ScriptError> {
        args.get(i)
            .and_then(|v| v.as_num())
            .ok_or_else(|| rt(format!("`{ctx}` expects a number at position {i}")))
    }

    fn mapping_arg(
        &self,
        args: &[Value],
        i: usize,
        ctx: &str,
    ) -> Result<Arc<Mapping>, ScriptError> {
        match args.get(i) {
            Some(Value::Mapping(m)) => Ok(Arc::clone(m)),
            Some(v) => Err(ScriptError::Type {
                context: format!("{ctx} (argument {i})"),
                expected: "mapping",
                got: v.type_name(),
            }),
            None => Err(rt(format!("`{ctx}` missing mapping argument {i}"))),
        }
    }

    fn source_arg(&self, args: &[Value], i: usize, ctx: &str) -> Result<LdsId, ScriptError> {
        match args.get(i) {
            Some(Value::Source(id)) => Ok(*id),
            Some(v) => Err(ScriptError::Type {
                context: format!("{ctx} (argument {i})"),
                expected: "source",
                got: v.type_name(),
            }),
            None => Err(rt(format!("`{ctx}` missing source argument {i}"))),
        }
    }

    /// `attrMatch(Source1, Source2, SimFn, threshold, "[attr1]", "[attr2]")`
    ///
    /// `SimFn` may also be `TfIdf` for the corpus-based cosine measure.
    /// Matching uses threshold-exact blocking for q-gram measures and
    /// TF-IDF (results identical to all-pairs, candidates pruned before
    /// scoring); other measures use the lossy prefix filter.
    fn builtin_attr_match(&mut self, args: Vec<Value>) -> Result<Value, ScriptError> {
        let domain = self.source_arg(&args, 0, "attrMatch")?;
        let range = self.source_arg(&args, 1, "attrMatch")?;
        let threshold = self.num_arg(&args, 3, "attrMatch")?;
        let attr = |i: usize| -> Result<String, ScriptError> {
            match args.get(i) {
                Some(Value::Str(s)) => Ok(s.trim_matches(['[', ']']).to_owned()),
                _ => Err(rt("attrMatch expects \"[attr]\" strings")),
            }
        };
        let matcher = match args.get(2) {
            Some(Value::Sym(s)) | Some(Value::Str(s)) if s.eq_ignore_ascii_case("tfidf") => {
                AttributeMatcher::tfidf(attr(4)?, attr(5)?, threshold)
            }
            Some(Value::Sym(s)) | Some(Value::Str(s)) => {
                let sim = SimFn::parse(s)
                    .ok_or_else(|| rt(format!("unknown similarity function `{s}`")))?;
                AttributeMatcher::new(attr(4)?, attr(5)?, sim, threshold)
            }
            _ => return Err(rt("attrMatch expects a similarity function symbol")),
        };
        // Pick the best blocking for the measure unless the caller
        // pinned one: threshold-exact for q-gram measures and TF-IDF
        // (identical results, pruned before scoring), the historical
        // lossy prefix filter for the remaining non-q-gram measures.
        let blocking = self
            .blocking
            .unwrap_or_else(|| Blocking::auto_for(&matcher.sim));
        let matcher = matcher.with_blocking(blocking);
        let ctx = MatchContext::with_repository(self.registry, self.repository)
            .with_parallelism(self.parallelism);
        let mapping = matcher.execute(&ctx, domain, range)?;
        Ok(Value::Mapping(Arc::new(mapping)))
    }

    /// `multiAttrMatch(Source1, Source2, threshold, "[a]~[b]:sim:weight", ...)`
    ///
    /// Each trailing string describes one attribute pair; the weight is
    /// optional (default 1).
    fn builtin_multi_attr_match(&mut self, args: Vec<Value>) -> Result<Value, ScriptError> {
        use moma_core::matchers::multi_attribute::{AttrPair, MultiAttributeMatcher};
        let domain = self.source_arg(&args, 0, "multiAttrMatch")?;
        let range = self.source_arg(&args, 1, "multiAttrMatch")?;
        let threshold = self.num_arg(&args, 2, "multiAttrMatch")?;
        let mut pairs = Vec::new();
        for spec in &args[3..] {
            let Value::Str(text) = spec else {
                return Err(rt(
                    "multiAttrMatch expects \"[a]~[b]:sim[:weight]\" strings",
                ));
            };
            let (attrs, rest) = text
                .split_once(':')
                .ok_or_else(|| rt(format!("bad attribute spec `{text}`")))?;
            let (da, ra) = attrs
                .split_once('~')
                .ok_or_else(|| rt(format!("bad attribute spec `{text}` (missing `~`)")))?;
            let (sim_name, weight) = match rest.rsplit_once(':') {
                Some((s, w)) => match w.parse::<f64>() {
                    Ok(weight) => (s, weight),
                    // `year:1` style parameterized sims have a colon too;
                    // if the tail is not a number, the whole rest is the
                    // sim name with weight 1.
                    Err(_) => (rest, 1.0),
                },
                None => (rest, 1.0),
            };
            let sim = SimFn::parse(sim_name)
                .ok_or_else(|| rt(format!("unknown similarity function `{sim_name}`")))?;
            pairs.push(AttrPair::new(
                da.trim_matches(['[', ']']),
                ra.trim_matches(['[', ']']),
                sim,
                weight,
            ));
        }
        if pairs.is_empty() {
            return Err(rt("multiAttrMatch needs at least one attribute spec"));
        }
        // Threshold-exact blocking when the primary measure admits exact
        // bounds (identical to all-pairs, just pruned), the historical
        // prefix filter otherwise; a caller-pinned strategy wins.
        let blocking = self
            .blocking
            .unwrap_or_else(|| Blocking::auto_for(&MatcherSim::Fixed(pairs[0].sim.clone())));
        let matcher = MultiAttributeMatcher::new(pairs, threshold).with_blocking(blocking);
        let ctx = MatchContext::with_repository(self.registry, self.repository)
            .with_parallelism(self.parallelism);
        let mapping = matcher.execute(&ctx, domain, range)?;
        Ok(Value::Mapping(Arc::new(mapping)))
    }

    /// `merge($m1, …, $mn, Fn [, Zero])`; `Prefer` takes a 1-based index:
    /// `merge($a, $b, Prefer, 1)`.
    fn builtin_merge(&mut self, args: Vec<Value>) -> Result<Value, ScriptError> {
        let mut maps: Vec<Arc<Mapping>> = Vec::new();
        let mut rest = args.into_iter().peekable();
        while let Some(Value::Mapping(_)) = rest.peek() {
            match rest.next() {
                Some(Value::Mapping(m)) => maps.push(m),
                _ => unreachable!(),
            }
        }
        let f_sym = match rest.next() {
            Some(Value::Sym(s)) | Some(Value::Str(s)) => s,
            _ => {
                return Err(rt(
                    "merge expects a combination function after the mappings",
                ))
            }
        };
        // `Prefer, i` (1-based) is the script's way to write the
        // function's indexed spelling, `prefer:I` (0-based).
        let f: MergeFn = match rest.peek() {
            Some(&Value::Num(n)) => {
                let idx = n as usize;
                if idx == 0 || idx > maps.len() {
                    return Err(rt(format!("merge {f_sym} index {idx} out of range")));
                }
                rest.next();
                format!("{f_sym}:{}", idx - 1).parse().map_err(rt)?
            }
            _ => f_sym.parse().map_err(rt)?,
        };
        let missing = spec_arg(rest.next().as_ref(), "merge option")?;
        let missing = missing.unwrap_or(MissingPolicy::Ignore);
        let refs: Vec<&Mapping> = maps.iter().map(|m| m.as_ref()).collect();
        Ok(Value::Mapping(Arc::new(merge(&refs, f, missing)?)))
    }

    /// `compose($m1, $m2, F, G)`
    fn builtin_compose(&mut self, args: Vec<Value>) -> Result<Value, ScriptError> {
        let m1 = self.mapping_arg(&args, 0, "compose")?;
        let m2 = self.mapping_arg(&args, 1, "compose")?;
        let f = spec_arg(args.get(2), "compose function")?.unwrap_or(PathCombine::Min);
        let g = spec_arg(args.get(3), "compose aggregation")?.unwrap_or(PathAgg::Avg);
        Ok(Value::Mapping(Arc::new(compose(&m1, &m2, f, g)?)))
    }

    /// `nhMatch($asso1, $same, $asso2 [, G])` builtin (used when the
    /// script has not defined its own procedure).
    fn builtin_nh_match(&mut self, args: Vec<Value>) -> Result<Value, ScriptError> {
        let a1 = self.mapping_arg(&args, 0, "nhMatch")?;
        let same = self.mapping_arg(&args, 1, "nhMatch")?;
        let a2 = self.mapping_arg(&args, 2, "nhMatch")?;
        let g = spec_arg(args.get(3), "nhMatch aggregation")?.unwrap_or(PathAgg::Relative);
        let r = moma_core::matchers::neighborhood::nh_match(&a1, &same, &a2, g)?;
        Ok(Value::Mapping(Arc::new(r)))
    }

    /// `select($m, selection-or-constraint-string)`
    fn builtin_select(&mut self, args: Vec<Value>) -> Result<Value, ScriptError> {
        let m = self.mapping_arg(&args, 0, "select")?;
        match args.get(1) {
            Some(Value::Selection(sel)) => Ok(Value::Mapping(Arc::new(select(&m, sel)))),
            Some(Value::Num(t)) => Ok(Value::Mapping(Arc::new(select(
                &m,
                &Selection::Threshold(*t),
            )))),
            Some(Value::Str(constraint)) => {
                let r = self.apply_constraint(&m, constraint)?;
                Ok(Value::Mapping(Arc::new(r)))
            }
            _ => Err(rt(
                "select expects a selection, number, or constraint string",
            )),
        }
    }

    /// Object-value constraints:
    /// * `[domain.id]<>[range.id]` / `[domain.id]=[range.id]`
    /// * `|[domain.attr]-[range.attr]|<=N` (numeric tolerance, e.g. the
    ///   paper's ±1 publication-year constraint)
    fn apply_constraint(&self, m: &Mapping, text: &str) -> Result<Mapping, ScriptError> {
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let d_lds = self.registry.lds(m.domain);
        let r_lds = self.registry.lds(m.range);

        if let Some(rest) = compact.strip_prefix("[domain.id]") {
            let (op, rhs) = if let Some(r) = rest.strip_prefix("<>") {
                ("<>", r)
            } else if let Some(r) = rest.strip_prefix('=') {
                ("=", r)
            } else {
                return Err(rt(format!("unsupported constraint `{text}`")));
            };
            if rhs != "[range.id]" {
                return Err(rt(format!("unsupported constraint `{text}`")));
            }
            let keep_equal = op == "=";
            let same_source = m.domain == m.range;
            return Ok(select_constraint(m, |d, r, _| {
                let equal = if same_source {
                    d == r
                } else {
                    d_lds.get(d).map(|i| i.id.as_str()) == r_lds.get(r).map(|i| i.id.as_str())
                };
                equal == keep_equal
            }));
        }

        // |[domain.attr]-[range.attr]|<=N
        if let Some(rest) = compact.strip_prefix("|[domain.") {
            let (d_attr, rest) = rest
                .split_once("]-[range.")
                .ok_or_else(|| rt(format!("unsupported constraint `{text}`")))?;
            let (r_attr, rest) = rest
                .split_once("]|<=")
                .ok_or_else(|| rt(format!("unsupported constraint `{text}`")))?;
            let tol: f64 = rest
                .parse()
                .map_err(|_| rt(format!("bad tolerance in constraint `{text}`")))?;
            let d_slot = d_lds.attr_slot(d_attr)?;
            let r_slot = r_lds.attr_slot(r_attr)?;
            let num = |v: Option<&AttrValue>| -> Option<f64> {
                match v {
                    Some(AttrValue::Int(i)) => Some(*i as f64),
                    Some(AttrValue::Year(y)) => Some(*y as f64),
                    Some(AttrValue::Real(r)) => Some(*r),
                    _ => None,
                }
            };
            return Ok(select_constraint(m, |d, r, _| {
                let dv = num(d_lds.get(d).and_then(|i| i.value(d_slot)));
                let rv = num(r_lds.get(r).and_then(|i| i.value(r_slot)));
                match (dv, rv) {
                    (Some(a), Some(b)) => (a - b).abs() <= tol,
                    // Missing values pass (they cannot violate the bound).
                    _ => true,
                }
            }));
        }
        Err(rt(format!("unsupported constraint `{text}`")))
    }
}

/// An optional spec-name argument (`Min`, `relative-left`, `both`,
/// …): each type parses its own spellings (see `moma_core::ops`).
fn spec_arg<T: FromStr<Err = String>>(
    arg: Option<&Value>,
    what: &str,
) -> Result<Option<T>, ScriptError> {
    match arg {
        None => Ok(None),
        Some(Value::Str(s)) | Some(Value::Sym(s)) => s.parse().map(Some).map_err(rt),
        Some(other) => Err(rt(format!(
            "{what} must be a symbol, got {}",
            other.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::parser::parse;
    use moma_model::{AttrDef, LogicalSource, ObjectType};
    use moma_table::MappingTable;

    /// Registry with a small DBLP author source (incl. a duplicate) and a
    /// repository holding the co-author association + identity mapping as
    /// the paper's Section 4.3 script expects.
    fn setup() -> (SourceRegistry, MappingRepository) {
        let mut reg = SourceRegistry::new();
        let mut authors = LogicalSource::new(
            "DBLP",
            ObjectType::new("Author"),
            vec![AttrDef::text("name")],
        );
        // 0/1 are duplicates sharing co-authors 2 and 3; 4 unrelated.
        for (id, name) in [
            ("a0", "Agathoniki Trigoni"),
            ("a1", "Niki Trigoni"),
            ("a2", "Alan Smith"),
            ("a3", "Beth Jones"),
            ("a4", "Carl Unrelated"),
        ] {
            authors
                .insert_record(id, vec![("name", name.into())])
                .unwrap();
        }
        let lds = reg.register(authors).unwrap();
        let repo = MappingRepository::new();
        repo.store_as(
            "DBLP.CoAuthor",
            Mapping::association(
                "DBLP.CoAuthor",
                "co-authors",
                lds,
                lds,
                MappingTable::from_triples([
                    (0, 2, 1.0),
                    (0, 3, 1.0),
                    (1, 2, 1.0),
                    (1, 3, 1.0),
                    (2, 0, 1.0),
                    (2, 1, 1.0),
                    (3, 0, 1.0),
                    (3, 1, 1.0),
                    (4, 2, 1.0),
                    (2, 4, 1.0),
                ]),
            ),
        );
        repo.store_as("DBLP.AuthorAuthor", Mapping::identity(lds, 5));
        (reg, repo)
    }

    #[test]
    fn paper_section_4_3_script_runs() {
        let (reg, repo) = setup();
        let script = parse(
            r#"
            $CoAuthSim = nhMatch(DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor);
            $NameSim = attrMatch(DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]");
            $Merged = merge($CoAuthSim, $NameSim, Average);
            $Result = select($Merged, "[domain.id]<>[range.id]");
            RETURN $Result;
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(&reg, &repo);
        let result = interp.run(&script).unwrap();
        let m = result.as_mapping().unwrap();
        // No trivial self-correspondences.
        assert!(m.table.iter().all(|c| c.domain != c.range));
        // The Trigoni duplicate pair surfaces with a solid merged score.
        let s = m.table.sim_of(0, 1).unwrap();
        assert!(s > 0.5, "duplicate pair scored {s}");
        // Unrelated author scores lower (or is absent).
        let s4 = m.table.sim_of(0, 4).unwrap_or(0.0);
        assert!(s4 < s);
    }

    #[test]
    fn user_procedure_shadows_builtin() {
        let (reg, repo) = setup();
        // Paper Section 4.2 procedure — identical semantics to the
        // builtin; defining it must not break anything.
        let script = parse(
            r#"
            PROCEDURE nhMatch ( $Asso1, $Same, $Asso2)
               $Temp = compose ( $Asso1 , $Same , Min, Average )
               $Result = compose ( $Temp , $Asso2 , Min, Relative )
               RETURN $Result
            END
            $Sim = nhMatch(DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor);
            RETURN $Sim;
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(&reg, &repo);
        let via_proc = interp.run(&script).unwrap();

        let script2 =
            parse("RETURN nhMatch(DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor);").unwrap();
        let mut interp2 = Interpreter::new(&reg, &repo);
        let via_builtin = interp2.run(&script2).unwrap();

        let (a, b) = (
            via_proc.as_mapping().unwrap(),
            via_builtin.as_mapping().unwrap(),
        );
        assert_eq!(a.table.pair_set(), b.table.pair_set());
        for c in a.table.iter() {
            let s = b.table.sim_of(c.domain, c.range).unwrap();
            assert!((s - c.sim).abs() < 1e-12);
        }
    }

    #[test]
    fn selection_builders() {
        let (reg, repo) = setup();
        repo.store_as(
            "M",
            Mapping::same(
                "M",
                LdsId(0),
                LdsId(0),
                MappingTable::from_triples([(0, 1, 0.9), (0, 2, 0.5), (1, 2, 0.7)]),
            ),
        );
        let run = |src: &str| {
            let script = parse(src).unwrap();
            Interpreter::new(&reg, &repo).run(&script).unwrap()
        };
        let v = run(r#"RETURN select(get("M"), threshold(0.8));"#);
        assert_eq!(v.as_mapping().unwrap().len(), 1);
        let v = run(r#"RETURN select(get("M"), bestN(1, domain));"#);
        assert_eq!(v.as_mapping().unwrap().len(), 2);
        let v = run(r#"RETURN select(get("M"), best1delta(0.4, abs, domain));"#);
        assert_eq!(v.as_mapping().unwrap().len(), 3);
        let v = run(r#"RETURN select(get("M"), 0.6);"#);
        assert_eq!(v.as_mapping().unwrap().len(), 2);
    }

    #[test]
    fn store_get_inverse_identity_setops() {
        let (reg, repo) = setup();
        let script = parse(
            r#"
            $Id = identity(DBLP.Author);
            store($Id, "stored");
            $Back = get("stored");
            $Inv = inverse($Back);
            $U = union($Back, $Inv);
            $I = intersect($Back, $Inv);
            $D = diff($U, $I);
            RETURN $D;
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(&reg, &repo);
        let v = interp.run(&script).unwrap();
        // Identity is symmetric: union == intersection -> empty diff.
        assert!(v.as_mapping().unwrap().is_empty());
        assert!(repo.contains("stored"));
    }

    #[test]
    fn query_and_traverse() {
        let (reg, repo) = setup();
        let script = parse(
            r#"
            $Hits = query(DBLP.Author, "trigoni");
            $Co = traverse(get("DBLP.CoAuthor"), $Hits);
            RETURN $Co;
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(&reg, &repo);
        let v = interp.run(&script).unwrap();
        let (_, ids) = v.expect_instances("query_and_traverse test").unwrap();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn malformed_script_yields_typed_error_not_panic() {
        // Regression: handing `traverse` a mapping where instances are
        // required must fail with a ScriptError::Type diagnostic, not
        // abort the process.
        let (reg, repo) = setup();
        let script = parse(r#"RETURN traverse(DBLP.CoAuthor, DBLP.CoAuthor);"#).unwrap();
        let err = Interpreter::new(&reg, &repo).run(&script).unwrap_err();
        match &err {
            ScriptError::Type {
                context,
                expected,
                got,
            } => {
                assert_eq!(*expected, "instances");
                assert_eq!(*got, "mapping");
                assert!(context.contains("traverse"));
            }
            other => panic!("expected ScriptError::Type, got {other:?}"),
        }
        assert!(err.to_string().contains("expects instances, got mapping"));

        // Same for mapping- and source-typed arguments.
        let script = parse(r#"RETURN inverse(42);"#).unwrap();
        let err = Interpreter::new(&reg, &repo).run(&script).unwrap_err();
        assert!(matches!(
            err,
            ScriptError::Type {
                expected: "mapping",
                got: "number",
                ..
            }
        ));
        let script = parse(r#"RETURN identity(DBLP.CoAuthor);"#).unwrap();
        let err = Interpreter::new(&reg, &repo).run(&script).unwrap_err();
        assert!(matches!(
            err,
            ScriptError::Type {
                expected: "source",
                got: "mapping",
                ..
            }
        ));
    }

    #[test]
    fn year_tolerance_constraint() {
        let mut reg = SourceRegistry::new();
        let mut pubs = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::year("year")],
        );
        pubs.insert_record("p0", vec![("year", 2001u16.into())])
            .unwrap();
        pubs.insert_record("p1", vec![("year", 2002u16.into())])
            .unwrap();
        pubs.insert_record("p2", vec![("year", 2005u16.into())])
            .unwrap();
        pubs.insert_record("p3", vec![]).unwrap();
        let lds = reg.register(pubs).unwrap();
        let repo = MappingRepository::new();
        repo.store_as(
            "M",
            Mapping::same(
                "M",
                lds,
                lds,
                MappingTable::from_triples([
                    (0, 1, 0.9), // Δyear 1 -> keep
                    (0, 2, 0.9), // Δyear 4 -> drop
                    (0, 3, 0.9), // missing year -> keep
                ]),
            ),
        );
        let script =
            parse(r#"RETURN select(get("M"), "|[domain.year]-[range.year]|<=1");"#).unwrap();
        let v = Interpreter::new(&reg, &repo).run(&script).unwrap();
        let m = v.as_mapping().unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.table.sim_of(0, 2).is_none());
    }

    #[test]
    fn runtime_errors() {
        let (reg, repo) = setup();
        let run_err = |src: &str| {
            let script = parse(src).unwrap();
            Interpreter::new(&reg, &repo)
                .run(&script)
                .unwrap_err()
                .to_string()
        };
        assert!(run_err("RETURN $missing;").contains("undefined variable"));
        assert!(run_err("RETURN frobnicate(1);").contains("unknown function"));
        assert!(run_err("RETURN DBLP.Nothing;").contains("neither"));
        assert!(run_err(r#"RETURN merge(get("DBLP.CoAuthor"), Bogus);"#).contains("unknown merge"));
        assert!(
            run_err(r#"RETURN select(get("DBLP.CoAuthor"), "[weird]");"#)
                .contains("unsupported constraint")
        );
        assert!(run_err(
            "RETURN attrMatch(DBLP.Author, DBLP.Author, NoSuchSim, 0.5, \"[name]\", \"[name]\");"
        )
        .contains("unknown similarity"));
    }

    #[test]
    fn prebound_variables() {
        let (reg, repo) = setup();
        let mut interp = Interpreter::new(&reg, &repo);
        interp.bind("X", Value::Num(0.75));
        let script = parse("RETURN $X;").unwrap();
        assert_eq!(interp.run(&script).unwrap().as_num(), Some(0.75));
    }

    #[test]
    fn multi_attr_match_in_script() {
        let mut reg = SourceRegistry::new();
        let mut pubs = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        pubs.insert_record(
            "p0",
            vec![("title", "Same Title".into()), ("year", 2001u16.into())],
        )
        .unwrap();
        pubs.insert_record(
            "p1",
            vec![("title", "Same Title".into()), ("year", 2003u16.into())],
        )
        .unwrap();
        let _ = reg.register(pubs).unwrap();
        let repo = MappingRepository::new();
        // Title alone cannot separate p0 from p1; adding the year feature
        // demotes the cross pairs below the threshold.
        let script = parse(
            r#"RETURN multiAttrMatch(DBLP.Publication, DBLP.Publication, 0.8,
                   "[title]~[title]:trigram:2", "[year]~[year]:year:1");"#,
        )
        .unwrap();
        let v = Interpreter::new(&reg, &repo).run(&script).unwrap();
        let m = v.as_mapping().unwrap();
        assert_eq!(m.table.sim_of(0, 0), Some(1.0));
        assert_eq!(m.table.sim_of(1, 1), Some(1.0));
        assert_eq!(m.table.sim_of(0, 1), None);
    }

    #[test]
    fn tfidf_attr_match_in_script() {
        let (reg, repo) = setup();
        let script = parse(
            r#"RETURN attrMatch(DBLP.Author, DBLP.Author, TfIdf, 0.95, "[name]", "[name]");"#,
        )
        .unwrap();
        let v = Interpreter::new(&reg, &repo).run(&script).unwrap();
        let m = v.as_mapping().unwrap();
        // Every author matches itself under TF-IDF cosine.
        for i in 0..5u32 {
            assert!(m.table.sim_of(i, i).unwrap() > 0.99);
        }
    }

    #[test]
    fn zero_length_qgrams_are_refused_by_the_script() {
        // `qgram:0` used to parse, and panicked in the tokenizer at the
        // first pair scored.
        let (reg, repo) = setup();
        for sim in [
            "qgram:0",
            "qgramjaccard:0",
            "qgramcosine:0",
            "qgramoverlap:0",
        ] {
            let text = format!(
                r#"RETURN attrMatch(DBLP.Author, DBLP.Author, "{sim}", 0.5, "[name]", "[name]");"#
            );
            let err = Interpreter::new(&reg, &repo)
                .run(&parse(&text).unwrap())
                .unwrap_err();
            let expected = format!("unknown similarity function `{sim}`");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    #[test]
    fn prefer_merge_in_script() {
        let (reg, repo) = setup();
        repo.store_as(
            "A",
            Mapping::same(
                "A",
                LdsId(0),
                LdsId(0),
                MappingTable::from_triples([(0, 1, 1.0)]),
            ),
        );
        repo.store_as(
            "B",
            Mapping::same(
                "B",
                LdsId(0),
                LdsId(0),
                MappingTable::from_triples([(0, 2, 0.9), (3, 3, 0.8)]),
            ),
        );
        let script = parse(r#"RETURN merge(get("A"), get("B"), Prefer, 1);"#).unwrap();
        let v = Interpreter::new(&reg, &repo).run(&script).unwrap();
        let m = v.as_mapping().unwrap();
        assert_eq!(m.table.sim_of(0, 1), Some(1.0));
        assert_eq!(m.table.sim_of(0, 2), None); // 0 covered by preferred
        assert_eq!(m.table.sim_of(3, 3), Some(0.8));
    }
}
