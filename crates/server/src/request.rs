//! The typed request: what a frame, a WAL record or a checkpoint's
//! matcher is decoded into, once.
//!
//! [`Request::decode`] reads a request object's fields — and nothing
//! after it does: the router plans from a [`Request`], the engine logs
//! its [`records`](Request::records), the [state machine](crate::state)
//! applies it and a [read view](crate::view::ReadView) answers it.
//! A request that does not decode is refused with the error naming its
//! fault, before anything is planned, logged or counted. Fields are
//! strict: an absent optional field takes its default, a present one of
//! the wrong type is refused (``match request `threshold` must be a
//! number, got "0.9"``), and a name — a measure, a blocking, a path
//! function — is parsed by the type it names.
//!
//! Every logged write carries its **record**: the text of the request
//! as received (`Json::to_string` of the object), which is what the WAL
//! appends and what a checkpoint's `matchers` member holds. A batch
//! item's record is the single `delta` request it stands for — the same
//! bytes earlier releases logged.

use std::str::FromStr;

use moma_core::blocking::Blocking;
use moma_core::matchers::{AttributeMatcher, MatcherSim};
use moma_core::ops::{PathAgg, PathCombine};
use moma_model::DeltaOp;
use moma_simstring::SimFn;

use crate::commands::{self, Cmd, Command, Visibility};
use crate::json::Json;
use crate::protocol;

/// Where a request comes from, and so what it may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A client's frame: a router-internal command (`install`) or field
    /// (`repl`) is refused.
    Wire,
    /// A WAL record, a checkpoint's matcher, the router's own writes or
    /// an embedded [`Engine`](crate::engine::Engine)'s caller.
    Trusted,
}

/// A decoded request: one variant per [command table](crate::commands)
/// row.
#[derive(Debug, Clone)]
pub enum Request {
    Ping,
    Match(MatchSpec),
    Compose(ComposeSpec),
    Query(Query),
    BatchQuery(Vec<Query>),
    Delta(Delta),
    BatchDelta(Vec<Delta>),
    Checkpoint,
    Stats,
    Dump { dir: String },
    Shutdown,
    Install(InstallSpec),
}

/// A `match`: execute and prime `matcher` over `domain` × `range`, store
/// the mapping as `name`.
#[derive(Debug, Clone)]
pub struct MatchSpec {
    pub name: String,
    pub domain: String,
    pub range: String,
    /// Attributes (default `title`, the range's the domain's), measure
    /// (default `trigram`), threshold (default 0.7) and blocking
    /// (default the measure's own).
    pub matcher: AttributeMatcher,
    /// The `"shard"` placement hint.
    pub shard: Option<usize>,
    pub record: String,
}

/// A `compose`: store `compose(left, right, f, g)` as `name`.
#[derive(Debug, Clone)]
pub struct ComposeSpec {
    pub name: String,
    pub left: String,
    pub right: String,
    /// Default `min`.
    pub f: PathCombine,
    /// Default `max`.
    pub g: PathAgg,
    pub record: String,
}

/// A `query`, alone or as a `batch_query` item.
#[derive(Debug, Clone)]
pub struct Query {
    pub name: String,
    /// Rows to return, 0 for all (default 100).
    pub limit: usize,
    /// Rows below it are skipped (default 0).
    pub min_sim: f64,
}

/// A `delta`, alone or as a `batch_delta` item.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The source, by name.
    pub lds: String,
    pub ops: Vec<DeltaOp>,
    /// A replica an earlier release's router fanned out (`"repl": true`
    /// in its log): patches, but is not counted as a client's delta.
    pub repl: bool,
    pub record: String,
}

/// An `install`: store the literal table `rows` over `domain` × `range`
/// as `name`.
#[derive(Debug, Clone)]
pub struct InstallSpec {
    pub name: String,
    pub domain: String,
    pub range: String,
    /// `(domain index, range index, sim)`; checked against the sources'
    /// arenas when applied.
    pub rows: Vec<(u32, u32, f64)>,
    /// The association type, for an association mapping.
    pub assoc: Option<String>,
    pub record: String,
}

/// Why a request did not decode. A logged record that no longer decodes
/// still counts as a failure of its command, so the refusal keeps what
/// the counters need.
#[derive(Debug)]
pub struct Refusal {
    /// The command, when `cmd` named one.
    pub cmd: Option<Cmd>,
    /// Whether the record said `"repl": true`.
    pub repl: bool,
    pub error: String,
}

/// The members of one request object, read under the name its errors
/// use (`match request`, `batch_delta item 2`).
struct Fields<'j> {
    json: &'j Json,
    what: String,
}

impl<'j> Fields<'j> {
    fn of(json: &'j Json, what: String) -> Fields<'j> {
        Fields { json, what }
    }

    fn text(&self, key: &str) -> Result<String, String> {
        let text = self.json.need(&self.what, key, Json::as_str);
        text.map(str::to_owned)
    }

    fn array(&self, key: &str) -> Result<&'j [Json], String> {
        self.json.need_arr(&self.what, key)
    }

    /// `None` when absent; present, the field must read through `get`.
    fn optional<T>(
        &self,
        key: &str,
        expected: &str,
        get: impl FnOnce(&'j Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(value) = self.json.get(key) else {
            return Ok(None);
        };
        let wrong = || format!("{} `{key}` must be {expected}, got {value}", self.what);
        get(value).map(Some).ok_or_else(wrong)
    }

    /// An optional name, parsed by the type it names.
    fn named<T: FromStr<Err = String>>(&self, key: &str) -> Result<Option<T>, String> {
        let name = self.optional(key, "a string", Json::as_str)?;
        name.map(str::parse).transpose()
    }

    /// A batch's non-empty `items`, each read as an item (`batch_delta
    /// item 2`).
    fn items(&self, command: &Command) -> Result<Vec<Fields<'j>>, String> {
        let items = self.array("items")?;
        if items.is_empty() {
            return Err(format!("{} needs a non-empty `items` array", command.name));
        }
        let item = |(k, json)| Fields::of(json, format!("{} item {k}", command.name));
        Ok(items.iter().enumerate().map(item).collect())
    }

    /// `e` as this item's error: a field error names the item already.
    fn blame(&self, e: String) -> String {
        match e.starts_with(&self.what) {
            true => e,
            false => format!("{}: {e}", self.what),
        }
    }
}

/// The refusal of a router-internal command or field from the wire.
fn internal(what: &str) -> String {
    format!("`{what}` is internal to the shard router")
}

impl Request {
    /// Decode a request object. `origin` says whether router-internal
    /// commands and fields are refused.
    pub fn decode(req: &Json, origin: Origin) -> Result<Request, Refusal> {
        let refusal = |cmd, error| Refusal {
            cmd,
            repl: req.get("repl") == Some(&Json::Bool(true)),
            error,
        };
        let name = req.need("request", "cmd", Json::as_str);
        let found = name
            .and_then(|name| commands::lookup(name).ok_or_else(|| commands::unknown_command(name)));
        let command = found.map_err(|e| refusal(None, e))?;
        if origin == Origin::Wire && command.visibility == Visibility::Internal {
            return Err(refusal(None, internal(command.name)));
        }
        let fields = Fields::of(req, format!("{} request", command.name));
        let decoded = fields.request(command, origin);
        decoded.map_err(|e| refusal(Some(command.cmd), e))
    }

    /// Decode one frame's payload from the wire.
    pub fn from_frame(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("bad request: {e}"))?;
        let req = Json::parse(text).map_err(|e| format!("bad request: {e}"))?;
        Request::decode(&req, Origin::Wire).map_err(|refusal| refusal.error)
    }

    /// The command this request is.
    pub fn cmd(&self) -> Cmd {
        match self {
            Request::Ping => Cmd::Ping,
            Request::Match(_) => Cmd::Match,
            Request::Compose(_) => Cmd::Compose,
            Request::Query(_) => Cmd::Query,
            Request::BatchQuery(_) => Cmd::BatchQuery,
            Request::Delta(_) => Cmd::Delta,
            Request::BatchDelta(_) => Cmd::BatchDelta,
            Request::Checkpoint => Cmd::Checkpoint,
            Request::Stats => Cmd::Stats,
            Request::Dump { .. } => Cmd::Dump,
            Request::Shutdown => Cmd::Shutdown,
            Request::Install(_) => Cmd::Install,
        }
    }

    /// This request's command table row.
    pub fn command(&self) -> &'static Command {
        self.cmd().row()
    }

    /// What the WAL appends for this request, in order: one record per
    /// logged write, one per item of a `batch_delta`, none otherwise.
    pub fn records(&self) -> Vec<&[u8]> {
        match self {
            Request::Match(m) => vec![m.record.as_bytes()],
            Request::Compose(c) => vec![c.record.as_bytes()],
            Request::Delta(d) => vec![d.record.as_bytes()],
            Request::Install(i) => vec![i.record.as_bytes()],
            Request::BatchDelta(items) => items.iter().map(|d| d.record.as_bytes()).collect(),
            _ => Vec::new(),
        }
    }
}

impl Fields<'_> {
    /// The request `command` names, decoded from these fields.
    fn request(&self, command: &Command, origin: Origin) -> Result<Request, String> {
        let record = || self.json.to_string();
        Ok(match command.cmd {
            Cmd::Ping => Request::Ping,
            Cmd::Checkpoint => Request::Checkpoint,
            Cmd::Stats => Request::Stats,
            Cmd::Shutdown => Request::Shutdown,
            Cmd::Dump => Request::Dump {
                dir: self.text("dir")?,
            },
            Cmd::Match => Request::Match(self.matcher(record)?),
            Cmd::Compose => Request::Compose(ComposeSpec {
                name: self.text("name")?,
                left: self.text("left")?,
                right: self.text("right")?,
                f: self.named("f")?.unwrap_or(PathCombine::Min),
                g: self.named("g")?.unwrap_or(PathAgg::Max),
                record: record(),
            }),
            Cmd::Query => Request::Query(self.query()?),
            Cmd::BatchQuery => {
                let items = self.items(command)?.into_iter();
                let items = items.map(|item| item.query());
                Request::BatchQuery(items.collect::<Result<_, _>>()?)
            }
            Cmd::Delta => Request::Delta(self.delta(origin, record)?),
            Cmd::BatchDelta => {
                let items = self.items(command)?.into_iter().map(|item| {
                    let delta = item.delta(origin, || item_record(item.json));
                    delta.map_err(|e| item.blame(e))
                });
                Request::BatchDelta(items.collect::<Result<_, _>>()?)
            }
            Cmd::Install => Request::Install(self.install(record)?),
        })
    }

    fn matcher(&self, record: impl FnOnce() -> String) -> Result<MatchSpec, String> {
        let name = self.text("name")?;
        let domain = self.text("domain")?;
        let range = self.text("range")?;
        let attr = |key| self.optional(key, "a string", Json::as_str);
        let domain_attr = attr("domain_attr")?.unwrap_or("title");
        let range_attr = attr("range_attr")?.unwrap_or(domain_attr);
        let sim = self.named("sim")?;
        let threshold = self.optional("threshold", "a number", Json::as_f64)?;
        let mut matcher = AttributeMatcher::new(
            domain_attr,
            range_attr,
            sim.unwrap_or(MatcherSim::Fixed(SimFn::Trigram)),
            threshold.unwrap_or(0.7),
        );
        if let Some(blocking) = self.named::<Blocking>("blocking")? {
            matcher.blocking = blocking;
        }
        let shard = self.optional("shard", "a non-negative integer", Json::as_u64)?;
        Ok(MatchSpec {
            name,
            domain,
            range,
            matcher,
            shard: shard.map(|s| s as usize),
            record: record(),
        })
    }

    fn query(&self) -> Result<Query, String> {
        let name = self.text("name")?;
        let limit = self.optional("limit", "a non-negative integer", Json::as_u64)?;
        let min_sim = self.optional("min_sim", "a number", Json::as_f64)?;
        Ok(Query {
            name,
            limit: limit.unwrap_or(100) as usize,
            min_sim: min_sim.unwrap_or(0.0),
        })
    }

    fn delta(&self, origin: Origin, record: impl FnOnce() -> String) -> Result<Delta, String> {
        if origin == Origin::Wire && self.json.get("repl").is_some() {
            return Err(internal("repl"));
        }
        let lds = self.text("lds")?;
        let ops = self.array("ops")?.iter().map(protocol::op_from_json);
        let ops = ops.collect::<Result<_, _>>()?;
        let repl = self.optional("repl", "a boolean", Json::as_bool)?;
        Ok(Delta {
            lds,
            ops,
            repl: repl.unwrap_or(false),
            record: record(),
        })
    }

    fn install(&self, record: impl FnOnce() -> String) -> Result<InstallSpec, String> {
        let name = self.text("name")?;
        let (domain, range) = (self.text("domain")?, self.text("range")?);
        let what = format!("{} `{name}`", self.what);
        let bad = |row| format!("{what}: row {row} is not a [domain, range, sim] triple");
        let rows = self.array("rows")?.iter();
        let rows = rows.map(|row| protocol::triple(row).ok_or_else(|| bad(row)));
        let rows = rows.collect::<Result<_, _>>()?;
        let assoc = self.optional("assoc", "a string", Json::as_str)?;
        Ok(InstallSpec {
            name,
            domain,
            range,
            rows,
            assoc: assoc.map(str::to_owned),
            record: record(),
        })
    }
}

impl Delta {
    /// Decode the `lds` / `ops` of a `delta` request, without its record
    /// ([`crate::protocol::parse_delta`]).
    pub(crate) fn of_json(req: &Json) -> Result<Delta, String> {
        let fields = Fields::of(req, format!("{} request", Cmd::Delta.name()));
        fields.delta(Origin::Trusted, String::new)
    }
}

/// The record of a batch item: the single `delta` request it stands
/// for (the item's members but a `cmd`, after the `delta` one).
fn item_record(item: &Json) -> String {
    let mut record = Json::obj(vec![("cmd", Json::Str(Cmd::Delta.name().into()))]);
    if let (Json::Obj(record), Json::Obj(members)) = (&mut record, item) {
        record.extend(members.iter().filter(|(key, _)| key != "cmd").cloned());
    }
    record.to_string()
}
