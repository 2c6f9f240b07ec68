//! The command table: every command of the serving protocol, declared
//! once.
//!
//! A row says what a command *is* — its wire name, the lock and
//! durability class it runs under, how the shard router places it, and
//! who may send it. Everything that used to spell command names out by
//! hand is derived from [`COMMANDS`]: whether a command is logged and
//! which lock it takes ([`Class`]), the server's routing and the state
//! machine's dispatch (both look the request up with [`of_request`] /
//! [`lookup`] and branch on the row's [`Route`] and [`Cmd`]), the
//! `unknown command … (expected …)` and `… request missing …` errors,
//! and — through the drift tests at the bottom of this file — the
//! command tables in the [`crate::protocol`] docs and the README.
//!
//! Adding an endpoint is therefore one row here (with its [`Cmd`]
//! variant), its handler on [`State`] with its arm in
//! [the dispatch](crate::state) — shell → machine → handler; the
//! [`Engine`] shell names a command only when it does I/O — its request
//! builder in [`crate::protocol`], and a test; a read routed
//! [`Route::ByMapping`] or [`Route::ShardZero`] needs nothing in
//! `server.rs`.
//!
//! [`Engine`]: crate::engine::Engine
//! [`State`]: crate::state::State

use crate::json::Json;

/// A command's identity: what dispatch code matches on instead of the
/// wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Ping,
    Match,
    Compose,
    Query,
    BatchQuery,
    Delta,
    BatchDelta,
    Checkpoint,
    Stats,
    Dump,
    Shutdown,
    Install,
    DebugPanic,
    DebugSleepWrite,
}

/// Which lock a command runs under and whether it is write-ahead
/// logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Runs under a shard's read lock against a repository snapshot;
    /// never logged.
    Read,
    /// Mutates engine state: appended to the WAL (fsync'd) before it
    /// is applied under the write lock, and re-applied by replay.
    LoggedWrite,
    /// Serialized with writers through the write lock but not logged —
    /// it changes the disk layout (or injects a fault), not the
    /// logical state.
    UnloggedWrite,
    /// Answered by the server itself; holds no engine lock.
    Coordinator,
}

/// How the shard router picks the shard(s) a command runs on (see
/// [`crate::shard`] for the rules themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The shard holding the mapping named by `"name"`.
    ByMapping,
    /// [`Route::ByMapping`] for every element of `"items"`, grouped per
    /// shard.
    ByMappingItems,
    /// Every shard hosting a mapping over the source named by `"lds"`:
    /// the accounting copy on the lowest, `"repl": true` replicas on
    /// the rest.
    BySource,
    /// [`Route::BySource`] for every element of `"items"`, one
    /// sub-batch (and one WAL group commit) per shard.
    BySourceItems,
    /// Placed by the ownership cascade over `"domain"`/`"range"`.
    Place,
    /// The shard holding both inputs, else gathered on the coordinator
    /// and installed on the left input's shard.
    Compose,
    /// Every shard, ascending; the replies are merged.
    Scatter,
    /// Always shard 0.
    ShardZero,
    /// Never planned: the server answers it (`shutdown`) or writes it
    /// itself (`install`).
    Unrouted,
}

/// Who may send a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Part of the public protocol.
    Wire,
    /// Written by the router into a shard's WAL and replayed from it;
    /// refused from the wire.
    Internal,
    /// Fault injection for tests; unknown unless
    /// [`crate::server::Limits::debug_commands`] is set.
    Debug,
}

/// One row of the command table.
#[derive(Debug)]
pub struct Command {
    pub cmd: Cmd,
    /// The `"cmd"` value on the wire and in WAL records.
    pub name: &'static str,
    pub class: Class,
    pub route: Route,
    pub visibility: Visibility,
    /// One line for the doc tables.
    pub summary: &'static str,
}

const fn row(
    cmd: Cmd,
    name: &'static str,
    class: Class,
    route: Route,
    visibility: Visibility,
    summary: &'static str,
) -> Command {
    Command {
        cmd,
        name,
        class,
        route,
        visibility,
        summary,
    }
}

/// The command table. Wire-visible rows come first, in the order the
/// `unknown command` error and the doc tables list them.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    row(Cmd::Ping, "ping", Class::Read, Route::ShardZero, Visibility::Wire,
        "liveness check"),
    row(Cmd::Match, "match", Class::LoggedWrite, Route::Place, Visibility::Wire,
        "execute + prime an attribute matcher, store the mapping"),
    row(Cmd::Compose, "compose", Class::LoggedWrite, Route::Compose, Visibility::Wire,
        "store a derived `compose(left, right, f, g)` mapping"),
    row(Cmd::Query, "query", Class::Read, Route::ByMapping, Visibility::Wire,
        "read correspondences from a snapshot"),
    row(Cmd::BatchQuery, "batch_query", Class::Read, Route::ByMappingItems, Visibility::Wire,
        "N `query` items in one frame, per-item result array"),
    row(Cmd::Delta, "delta", Class::LoggedWrite, Route::BySource, Visibility::Wire,
        "ingest a source delta, patch mappings incrementally"),
    row(Cmd::BatchDelta, "batch_delta", Class::LoggedWrite, Route::BySourceItems, Visibility::Wire,
        "N `delta` items, one WAL group commit, per-item status array"),
    row(Cmd::Checkpoint, "checkpoint", Class::UnloggedWrite, Route::Scatter, Visibility::Wire,
        "publish an atomic state checkpoint, prune covered WAL segments"),
    row(Cmd::Stats, "stats", Class::Read, Route::Scatter, Visibility::Wire,
        "server/engine counters (per-shard + aggregate when sharded)"),
    row(Cmd::Dump, "dump", Class::Read, Route::Scatter, Visibility::Wire,
        "persist repository + manifest to a directory"),
    row(Cmd::Shutdown, "shutdown", Class::Coordinator, Route::Unrouted, Visibility::Wire,
        "stop the server after responding"),
    row(Cmd::Install, "install", Class::LoggedWrite, Route::Unrouted, Visibility::Internal,
        "store a literal mapping table (cross-shard compose result)"),
    row(Cmd::DebugPanic, "debug_panic", Class::UnloggedWrite, Route::ShardZero, Visibility::Debug,
        "panic while holding shard 0's write lock"),
    row(Cmd::DebugSleepWrite, "debug_sleep_write", Class::Coordinator, Route::ShardZero, Visibility::Debug,
        "hold one of shard 0's write admission slots for `ms` milliseconds"),
];

impl Class {
    /// Whether commands of this class are WAL-logged.
    pub fn is_logged(self) -> bool {
        self == Class::LoggedWrite
    }

    /// Whether commands of this class run under the write lock.
    pub fn takes_write_lock(self) -> bool {
        matches!(self, Class::LoggedWrite | Class::UnloggedWrite)
    }
}

impl Cmd {
    /// This command's table row.
    pub fn row(self) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.cmd == self)
            .expect("every Cmd variant has a table row")
    }

    /// This command's wire name.
    pub fn name(self) -> &'static str {
        self.row().name
    }
}

/// The row for wire name `name`.
pub fn lookup(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The row for a request's `"cmd"` field, or the error to answer with.
pub fn of_request(req: &Json) -> Result<&'static Command, String> {
    let name = req.need("request", "cmd", Json::as_str)?;
    lookup(name).ok_or_else(|| unknown_command(name))
}

/// The `unknown command` error: names every wire-visible command.
pub fn unknown_command(name: &str) -> String {
    let expected: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.visibility == Visibility::Wire)
        .map(|c| c.name)
        .collect();
    format!("unknown command `{name}` (expected {})", expected.join("/"))
}

impl Command {
    /// A required field of a request for this command, read through
    /// `get` — [`Json::need`] with the wording handlers and router
    /// share ("match request missing \`name\`").
    pub fn field<'r, T>(
        &self,
        req: &'r Json,
        name: &str,
        get: impl FnOnce(&'r Json) -> Option<T>,
    ) -> Result<T, String> {
        req.need(format_args!("{} request", self.name), name, get)
    }

    /// [`Command::field`] for an array field.
    pub fn array<'r>(&self, req: &'r Json, name: &str) -> Result<&'r [Json], String> {
        req.need_arr(format_args!("{} request", self.name), name)
    }

    /// The non-empty `"items"` of a batch request for this command.
    pub fn items<'r>(&self, req: &'r Json) -> Result<&'r [Json], String> {
        let items = self.array(req, "items")?;
        if items.is_empty() {
            return Err(format!("{} needs a non-empty `items` array", self.name));
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_label(class: Class) -> &'static str {
        match class {
            Class::Read => "read",
            Class::LoggedWrite => "logged write",
            Class::UnloggedWrite => "unlogged write",
            Class::Coordinator => "coordinator",
        }
    }

    fn route_label(route: Route) -> &'static str {
        match route {
            Route::ByMapping => "by mapping",
            Route::ByMappingItems => "by mapping, per item",
            Route::BySource => "by source, fan-out",
            Route::BySourceItems => "by source, per item",
            Route::Place => "placed",
            Route::Compose => "compose plan",
            Route::Scatter => "scatter",
            Route::ShardZero => "shard 0",
            Route::Unrouted => "—",
        }
    }

    /// The `| cmd | class | routing |` prefix of every wire-visible
    /// command's row in a doc table, in table order.
    fn doc_rows() -> Vec<(String, &'static str)> {
        COMMANDS
            .iter()
            .filter(|c| c.visibility == Visibility::Wire)
            .map(|c| {
                let (class, route) = (class_label(c.class), route_label(c.route));
                (format!("| `{}` | {class} | {route} | ", c.name), c.summary)
            })
            .collect()
    }

    /// The rows of the markdown table under `header` in `text` (each
    /// line first stripped of `prefix`).
    fn table_rows<'t>(text: &'t str, prefix: &str, header: &str) -> Vec<&'t str> {
        text.lines()
            .map(|line| line.strip_prefix(prefix).unwrap_or(line))
            .skip_while(|line| *line != header)
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .collect()
    }

    const HEADER: &str = "| `cmd` | class | routing | effect |";

    /// Docs drift: the command table in the `protocol` module docs is
    /// this table, rendered.
    #[test]
    fn protocol_docs_list_the_table() {
        let rows = table_rows(include_str!("protocol.rs"), "//! ", HEADER);
        let expect: Vec<String> = doc_rows()
            .into_iter()
            .map(|(cells, summary)| format!("{cells}{summary} |"))
            .collect();
        assert_eq!(rows, expect);
    }

    /// Docs drift: the README's endpoint table has exactly the
    /// wire-visible commands, with their class and routing (its effect
    /// column is prose of its own).
    #[test]
    fn readme_lists_the_table() {
        let rows = table_rows(include_str!("../../../README.md"), "", HEADER);
        let expect = doc_rows();
        assert_eq!(rows.len(), expect.len(), "{rows:#?}");
        for (row, (cells, _)) in rows.iter().zip(&expect) {
            assert!(row.starts_with(cells), "README row {row:?} vs {cells:?}");
        }
    }
}
