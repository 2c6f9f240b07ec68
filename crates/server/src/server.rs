//! TCP server: accept loop, per-connection threads, graceful shutdown —
//! and the one request path every command takes.
//!
//! Plain `std::net` — a listener thread accepts connections and hands
//! each one to its own handler thread (the service holds a handful of
//! long-lived clients, not ten thousand; thread-per-connection keeps
//! the whole stack dependency-free and easy to reason about).
//!
//! ## The request path
//!
//! The engines sit behind a [`ShardRouter`], and a default one-shard
//! server *is* that router with N = 1: there is no second path.
//! `dispatch` looks the request's command up in the
//! [command table](crate::commands), checks who may send it, and hands
//! it to the routing function its [`Route`] names. A routing function
//! is "plan the target shards, run a closure on them, gather": the
//! plan comes from [`crate::shard`], the gather step lives there too
//! (and is the identity over one shard, so a one-shard server answers
//! byte for byte like an embedded [`Engine`]), and the closure runs in
//! **the executor**, `run` — the only place on the request path that
//! takes admission slots or engine locks:
//!
//! 1. the targets are put in ascending order, without repeats;
//! 2. one admission slot per target is taken from the class's
//!    per-shard budget, or the request is answered `overloaded`;
//! 3. the engine locks are taken in that ascending order (read locks
//!    for [`Class::Read`](crate::commands::Class::Read), write locks
//!    otherwise), a poisoned one is recovered and noted as `degraded`;
//! 4. the closure runs inside `catch_unwind`: a panic becomes an
//!    `internal error` reply and a `degraded` flag, never a dropped
//!    connection or a poison cascade.
//!
//! So the lock discipline of `docs/ARCHITECTURE.md` — engine locks in
//! ascending shard order, the router's index lock never held across
//! one — holds by construction: no routing function can take a lock in
//! another order because none takes a lock at all. (The background
//! checkpointer is the only other lock taker, and holds one shard's
//! lock at a time.) Mutating commands serialize through their shard's
//! write lock — so WAL order equals apply order — while reads run
//! concurrently under read locks against repository snapshots; writes
//! to distinct shards do not serialize behind one lock.
//!
//! Shutdown: a `shutdown` command (or [`ServerHandle::stop`]) sets a
//! stop flag; the nonblocking accept loop notices within ~15 ms, stops
//! accepting, and handler threads drain at their next read timeout.
//!
//! ## Admission control
//!
//! The server refuses work it cannot serve promptly instead of queueing
//! it unboundedly (see [`Limits`]): connections past the cap get one
//! `busy` refusal frame and a close; requests past the per-class,
//! **per-shard** in-flight budget (mutating commands queue on a shard's
//! write lock, reads on its read lock) get an `overloaded` response
//! with a `retry_after_ms` hint while the connection stays usable. A
//! dedicated background thread walks the shards and publishes
//! auto-checkpoints when a shard's durability thresholds are exceeded,
//! off the delta path.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::identity;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use moma_core::ops::compose::compose;
use moma_core::MappingKind;

use crate::commands::{self, Cmd, Command, Route, Visibility};
use crate::engine::Engine;
use crate::frame::write_frame;
use crate::json::Json;
use crate::protocol::{compose_params, err_response, install_request};
use crate::shard::{self, ComposePlan, Shard, ShardRouter};

/// How long handler threads block in `read` before re-checking the stop
/// flag (also bounds shutdown latency).
const READ_POLL: Duration = Duration::from_millis(250);

/// How long a peer may stall *inside* a frame (header or payload
/// started, no further bytes) before the connection is dropped. Bounds
/// the damage of a client that dies mid-write without closing.
const MID_FRAME_STALL: Duration = Duration::from_secs(30);

/// How often the background checkpointer re-checks the durability
/// thresholds (a cheap read-lock peek per shard; also bounds its
/// shutdown latency).
const CHECKPOINT_POLL: Duration = Duration::from_millis(100);

/// How long the background checkpointer backs off after a *failed*
/// checkpoint, so a persistently failing one (poisoned WAL, full disk)
/// does not spam a warning per poll interval.
const CHECKPOINT_BACKOFF: Duration = Duration::from_secs(5);

/// Admission-control limits. The defaults are generous for a service
/// holding a handful of long-lived clients; tests and the overload
/// harness shrink them to force the refusal paths deterministically.
/// The write/read budgets apply **per shard**.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Concurrently served connections; further connects get one `busy`
    /// refusal frame and an immediate close.
    pub max_connections: u64,
    /// Mutating commands in flight per shard (executing, or queued on
    /// the shard's write lock) before new ones are answered
    /// `overloaded`.
    pub max_pending_writes: u64,
    /// Read-only commands in flight per shard before new ones are
    /// answered `overloaded`.
    pub max_pending_reads: u64,
    /// Retry hint attached to `busy`/`overloaded` responses.
    pub retry_after_ms: u64,
    /// Enable the `debug_*` fault-injection commands (`debug_panic`,
    /// `debug_sleep_write`) used by the poison-recovery and overload
    /// tests. The CLI gates this behind `MOMA_DEBUG_COMMANDS=1`.
    pub debug_commands: bool,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_connections: 256,
            max_pending_writes: 64,
            max_pending_reads: 256,
            retry_after_ms: 100,
            debug_commands: false,
        }
    }
}

/// State shared between the accept loop and handler threads.
pub struct Shared {
    /// The shard router: engines, per-shard admission counters and the
    /// deterministic ownership index.
    pub router: ShardRouter,
    limits: Limits,
    stop: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    active_connections: AtomicU64,
    busy_refusals: AtomicU64,
    overloaded_rejections: AtomicU64,
    auto_checkpoints: AtomicU64,
    /// Set when a handler panicked while holding a write lock (the lock
    /// is recovered and serving continues, but state deserves an
    /// operator's look) — or when a replica delta diverged.
    degraded: AtomicBool,
}

impl Shared {
    /// Ask the server to stop; accept loop and handlers drain promptly.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The configured admission limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Record that a poisoned engine lock was recovered: the poisoned
    /// flag becomes a `degraded` marker in `stats` instead of a panic
    /// cascade across every later connection.
    fn note_recovered(&self, recovered: bool) {
        if recovered {
            self.degraded.store(true, Ordering::Relaxed);
        }
    }
}

/// RAII in-flight slot for one admission class; dropping it releases
/// the slot.
struct Admission<'a>(&'a AtomicU64);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Try to take an in-flight slot; `None` means the budget is exhausted
/// and the request must be refused.
fn admit(counter: &AtomicU64, budget: u64) -> Option<Admission<'_>> {
    let prev = counter.fetch_add(1, Ordering::AcqRel);
    if prev >= budget {
        counter.fetch_sub(1, Ordering::AcqRel);
        None
    } else {
        Some(Admission(counter))
    }
}

/// An admission class: which per-shard in-flight counter a request
/// takes its slots from, and against which budget.
struct Budget {
    /// How `overloaded` responses name the class.
    class: &'static str,
    limit: u64,
    inflight: fn(&Shard) -> &AtomicU64,
}

impl Shared {
    fn read_budget(&self) -> Budget {
        Budget {
            class: "read",
            limit: self.limits.max_pending_reads,
            inflight: |shard| &shard.inflight_reads,
        }
    }

    fn write_budget(&self) -> Budget {
        Budget {
            class: "mutating",
            limit: self.limits.max_pending_writes,
            inflight: |shard| &shard.inflight_writes,
        }
    }
}

/// Take one slot from `budget` on every shard in `targets`, or answer
/// `overloaded` (slots already taken are released on return).
fn admit_all<'a>(
    shared: &'a Shared,
    budget: &Budget,
    targets: &[usize],
) -> Result<Vec<Admission<'a>>, Json> {
    let mut slots = Vec::with_capacity(targets.len());
    for &i in targets {
        match admit((budget.inflight)(shared.router.shard(i)), budget.limit) {
            Some(slot) => slots.push(slot),
            None => return Err(overloaded_response(shared, budget.class)),
        }
    }
    Ok(slots)
}

/// RAII active-connection slot, paired with the accept loop's
/// increment; dropping it (handler return or panic) frees the slot.
struct ConnSlot(Arc<Shared>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Handle to a server running on a background thread (embedded mode,
/// used by `moma_load` and the end-to-end tests).
pub struct ServerHandle {
    /// Bound address (useful with port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Shared server state.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Request a stop and wait for the accept loop to drain.
    pub fn stop(self) {
        self.shared.request_stop();
        let _ = self.thread.join();
    }
}

/// Bind `addr` and serve on a background thread with default
/// [`Limits`].
pub fn spawn(engine: Engine, addr: &str) -> io::Result<ServerHandle> {
    spawn_with_limits(engine, addr, Limits::default())
}

/// Bind `addr` and serve on a background thread with explicit
/// admission limits.
pub fn spawn_with_limits(engine: Engine, addr: &str, limits: Limits) -> io::Result<ServerHandle> {
    spawn_sharded(vec![engine], addr, limits)
}

/// Bind `addr` and serve `engines` (one per shard) on a background
/// thread. With a single engine this is exactly [`spawn_with_limits`];
/// with more, commands are routed as described in [`crate::shard`].
pub fn spawn_sharded(engines: Vec<Engine>, addr: &str, limits: Limits) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(new_shared(engines, limits));
    let shared2 = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("moma-accept".into())
        .spawn(move || accept_loop(listener, shared2))?;
    Ok(ServerHandle {
        addr,
        shared,
        thread,
    })
}

/// Bind `addr` and serve `engines` (one per shard) on the current
/// thread until shutdown.
pub fn run_sharded(engines: Vec<Engine>, addr: &str, limits: Limits) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let shards = engines.len();
    eprintln!(
        "moma serve: listening on {} ({shards} shard{})",
        listener.local_addr()?,
        if shards == 1 { "" } else { "s" }
    );
    accept_loop(listener, Arc::new(new_shared(engines, limits)));
    Ok(())
}

fn new_shared(engines: Vec<Engine>, limits: Limits) -> Shared {
    Shared {
        router: ShardRouter::new(engines),
        limits,
        stop: AtomicBool::new(false),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        active_connections: AtomicU64::new(0),
        busy_refusals: AtomicU64::new(0),
        overloaded_rejections: AtomicU64::new(0),
        auto_checkpoints: AtomicU64::new(0),
        degraded: AtomicBool::new(false),
    }
}

/// Write one `busy` refusal frame and let the connection drop.
fn refuse_busy(shared: &Shared, stream: &mut TcpStream, why: &str) {
    shared.busy_refusals.fetch_add(1, Ordering::Relaxed);
    let resp = Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "busy: {why}; retry after {} ms",
                shared.limits.retry_after_ms
            )),
        ),
        ("busy", Json::Bool(true)),
        ("retry_after_ms", Json::Uint(shared.limits.retry_after_ms)),
    ]);
    let _ = write_frame(stream, resp.to_string().as_bytes());
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    listener
        .set_nonblocking(true)
        .expect("set_nonblocking on listener");
    // The background checkpointer lives exactly as long as the accept
    // loop: one thread, joined below — it can never run concurrently
    // with itself or with shutdown teardown.
    let checkpointer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("moma-checkpoint".into())
            .spawn(move || checkpoint_loop(shared))
            .ok()
    };
    let mut handlers = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((mut stream, peer)) => {
                let active = shared.active_connections.fetch_add(1, Ordering::AcqRel);
                if active >= shared.limits.max_connections {
                    shared.active_connections.fetch_sub(1, Ordering::AcqRel);
                    refuse_busy(&shared, &mut stream, "connection limit reached");
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::Relaxed);
                // Keep a refusal handle: if the thread spawn below
                // fails, `stream` is already gone into the dropped
                // closure and the peer still deserves a frame.
                let refusal = stream.try_clone().ok();
                let slot = ConnSlot(Arc::clone(&shared));
                let shared2 = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("moma-conn-{peer}"))
                    .spawn(move || {
                        let _slot = slot;
                        handle_connection(stream, shared2)
                    });
                match spawned {
                    Ok(h) => handlers.push(h),
                    // Thread exhaustion must not kill the accept loop
                    // (and with it the whole server): refuse this
                    // connection and keep serving the rest.
                    Err(e) => {
                        eprintln!("moma serve: refusing connection from {peer}: spawn failed: {e}");
                        if let Some(mut s) = refusal {
                            refuse_busy(&shared, &mut s, "out of handler threads");
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("moma serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    if let Some(cp) = checkpointer {
        let _ = cp.join();
    }
}

/// Background auto-checkpointer: walks the shards, peeks at each one's
/// durability thresholds under its read lock and, only when due, takes
/// that shard's write lock to publish a checkpoint — so checkpoint cost
/// never rides on a delta's response time, and a checkpoint on one
/// shard never blocks writes to another. Single-threaded by
/// construction and joined by the accept loop, so it cannot overlap
/// itself or outlive shutdown. The `MOMA_CHECKPOINT_FAULT_DELAY_MS`
/// fault injection applies here the same as to explicit `checkpoint`
/// commands (it lives in `checkpoint::publish`).
fn checkpoint_loop(shared: Arc<Shared>) {
    while !shared.stopping() {
        let mut failed = false;
        for i in 0..shared.router.len() {
            let due = {
                let (engine, recovered) = shared.router.engine_read(i);
                shared.note_recovered(recovered);
                engine.checkpoint_due()
            };
            if !due {
                continue;
            }
            // Re-check under the write lock: a concurrent explicit
            // `checkpoint` command may have run since the peek. The
            // counter is bumped while the lock is still held so a
            // stats reader never sees the new checkpoint_seq without
            // the matching auto_checkpoints count.
            let result = {
                let (mut engine, recovered) = shared.router.engine_write(i);
                shared.note_recovered(recovered);
                if engine.checkpoint_due() {
                    let r = engine.run_auto_checkpoint();
                    if r.is_ok() {
                        shared.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(r)
                } else {
                    None
                }
            };
            if let Some(Err(e)) = result {
                eprintln!("moma serve: warning: background checkpoint failed on shard {i}: {e}");
                failed = true;
            }
        }
        if failed {
            let deadline = Instant::now() + CHECKPOINT_BACKOFF;
            while Instant::now() < deadline && !shared.stopping() {
                std::thread::sleep(CHECKPOINT_POLL);
            }
            continue;
        }
        std::thread::sleep(CHECKPOINT_POLL);
    }
}

/// What the handler read from the wire.
enum Next {
    Frame(Vec<u8>),
    Eof,
    /// Read timeout with no frame started — re-check the stop flag.
    Idle,
}

/// Error returned when a mid-frame retry must give up (server stopping
/// or the peer stalled past [`MID_FRAME_STALL`]).
fn mid_frame_abort(shared: &Shared, progress: &Instant, what: &str) -> Option<io::Error> {
    // A server stop must not wait on a half-written frame: the handler
    // thread is joined by the accept loop and would hang shutdown.
    if shared.stopping() {
        return Some(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("server stopping with partial frame {what}"),
        ));
    }
    if progress.elapsed() >= MID_FRAME_STALL {
        return Some(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("peer stalled mid-frame ({what})"),
        ));
    }
    None
}

/// Like [`read_frame`], but a read timeout *between* frames surfaces as
/// [`Next::Idle`] instead of an error. A timeout after the frame header
/// has started keeps reading (the peer is mid-write) — up to the stop
/// flag or the [`MID_FRAME_STALL`] deadline, so a peer that stalls
/// mid-frame can neither pin this handler thread forever nor block
/// shutdown (the accept loop joins every handler).
///
/// [`read_frame`]: crate::frame::read_frame
fn next_frame(stream: &mut TcpStream, shared: &Shared) -> io::Result<Next> {
    use io::Read;
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    let mut progress = Instant::now();
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(Next::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => {
                filled += n;
                progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(Next::Idle)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(abort) = mid_frame_abort(shared, &progress, "header") {
                    return Err(abort);
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > crate::frame::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    let mut progress = Instant::now();
    while got < len {
        match stream.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame payload",
                ))
            }
            Ok(n) => {
                got += n;
                progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(abort) = mid_frame_abort(shared, &progress, "payload") {
                    return Err(abort);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Next::Frame(payload))
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    loop {
        let payload = match next_frame(&mut stream, &shared) {
            Ok(Next::Frame(p)) => p,
            Ok(Next::Eof) => return,
            Ok(Next::Idle) => {
                if shared.stopping() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let resp = dispatch(&payload, &shared);
        if !response_ok(&resp) {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        let stop_after = resp.get("stopping").and_then(Json::as_bool) == Some(true);
        if write_frame(&mut stream, resp.to_string().as_bytes()).is_err() {
            return;
        }
        if stop_after {
            return;
        }
    }
}

/// `overloaded` response for a request past its class's in-flight
/// budget. The connection stays usable — the client is expected to
/// back off for `retry_after_ms` and resend.
fn overloaded_response(shared: &Shared, class: &str) -> Json {
    shared.overloaded_rejections.fetch_add(1, Ordering::Relaxed);
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "overloaded: too many in-flight {class} commands; retry after {} ms",
                shared.limits.retry_after_ms
            )),
        ),
        ("overloaded", Json::Bool(true)),
        ("retry_after_ms", Json::Uint(shared.limits.retry_after_ms)),
    ])
}

/// Response for a handler that panicked mid-command. The engine lock is
/// recovered (see [`ShardRouter::engine_write`]) and serving continues,
/// but `stats` reports `degraded: true` from here on.
fn internal_error_response(shared: &Shared) -> Json {
    shared.degraded.store(true, Ordering::Relaxed);
    err_response("internal error: command handler panicked; engine marked degraded (see stats)")
}

fn response_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

// ---- the executor -----------------------------------------------------

/// **The executor**: run `f` on the engines of `targets`, locked by
/// `lock`. Every engine access of the request path goes through here,
/// which is what makes the discipline in the module docs hold by
/// construction — ascending, repeat-free lock order; one admission
/// slot per target, released on every way out; poisoned locks
/// recovered and noted; and `f` inside `catch_unwind`. `Err` carries
/// the reply to send instead (`overloaded`, or `internal error` after
/// a panic — in `f` or in a lock acquisition).
fn run<G, T>(
    shared: &Shared,
    budget: Budget,
    targets: &[usize],
    lock: impl Fn(usize) -> (G, bool),
    f: impl FnOnce(&mut [(usize, G)]) -> T,
) -> Result<T, Json> {
    let mut targets = targets.to_vec();
    targets.sort_unstable();
    targets.dedup();
    let _slots = admit_all(shared, &budget, &targets)?;
    catch_unwind(AssertUnwindSafe(|| {
        let mut held = Vec::with_capacity(targets.len());
        for &i in &targets {
            let (guard, recovered) = lock(i);
            shared.note_recovered(recovered);
            held.push((i, guard));
        }
        f(&mut held)
    }))
    .map_err(|_| internal_error_response(shared))
}

/// [`run`] under read locks and the read budget.
fn run_read<'a, T>(
    shared: &'a Shared,
    targets: &[usize],
    f: impl FnOnce(&mut [(usize, RwLockReadGuard<'a, Engine>)]) -> T,
) -> Result<T, Json> {
    let lock = |i| shared.router.engine_read(i);
    run(shared, shared.read_budget(), targets, lock, f)
}

/// [`run`] under write locks and the write budget.
fn run_write<'a, T>(
    shared: &'a Shared,
    targets: &[usize],
    f: impl FnOnce(&mut [(usize, RwLockWriteGuard<'a, Engine>)]) -> T,
) -> Result<T, Json> {
    let lock = |i| shared.router.engine_write(i);
    run(shared, shared.write_budget(), targets, lock, f)
}

/// Run `req` as it stands on shard `i`, under the lock its command's
/// class declares; a refusal from the executor is the reply.
fn run_on(shared: &Shared, command: &Command, i: usize, req: &Json) -> Json {
    let outcome = if command.class.takes_write_lock() {
        run_write(shared, &[i], |held| held[0].1.execute(req))
    } else {
        run_read(shared, &[i], |held| held[0].1.execute_read(req))
    };
    outcome.unwrap_or_else(identity)
}

// ---- dispatch and routing ---------------------------------------------

fn dispatch(payload: &[u8], shared: &Shared) -> Json {
    let req = match std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(Json::parse)
    {
        Ok(req) => req,
        Err(e) => return err_response(&format!("bad request: {e}")),
    };
    let command = match commands::of_request(&req) {
        Ok(command) => command,
        Err(e) => return err_response(&e),
    };
    match command.visibility {
        Visibility::Wire => {}
        Visibility::Debug if shared.limits.debug_commands => {}
        Visibility::Debug => return err_response(&commands::unknown_command(command.name)),
        // Written by the router itself (and re-applied by WAL replay);
        // accepting one from the wire would bypass the ownership index.
        Visibility::Internal => {
            return err_response(&format!(
                "`{}` is internal to the shard router",
                command.name
            ))
        }
    }
    let routed = match command.route {
        // `shutdown`, the one unrouted command a client may send.
        Route::Unrouted => {
            shared.request_stop();
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("stopping", Json::Bool(true)),
            ]))
        }
        Route::ShardZero => on_shard_zero(shared, command, &req),
        Route::ByMapping => route_by_mapping(shared, command, &req),
        Route::ByMappingItems => route_batch_query(shared, command, &req),
        Route::BySource => route_delta(shared, command, &req),
        Route::BySourceItems => route_batch_delta(shared, command, &req),
        Route::Place => route_match(shared, command, &req),
        Route::Compose => route_compose(shared, command, &req),
        Route::Scatter => scatter(shared, command, &req),
    };
    routed.unwrap_or_else(identity)
}

/// Several required routing fields at once.
fn fields<'r, const N: usize>(
    req: &'r Json,
    command: &Command,
    names: [&str; N],
) -> Result<[&'r str; N], String> {
    let mut out = [""; N];
    for (slot, name) in out.iter_mut().zip(names) {
        *slot = command.field(req, name, Json::as_str)?;
    }
    Ok(out)
}

/// Settle a plan: the router's own, else whatever
/// [`ShardRouter::unplanned`] makes of its refusal.
fn planned<T>(
    shared: &Shared,
    plan: Result<T, String>,
    on_shard: impl FnOnce(usize) -> T,
) -> Result<T, Json> {
    plan.or_else(|refusal| shared.router.unplanned(refusal).map(on_shard))
        .map_err(|refusal| err_response(&refusal))
}

fn shard_list(shards: &[usize]) -> Json {
    Json::Arr(shards.iter().map(|&i| Json::Uint(i as u64)).collect())
}

/// `ping` runs on shard 0 like any read. The two fault injectors model
/// a writer there: `debug_panic` panics holding the write lock;
/// `debug_sleep_write` occupies a write admission slot *without*
/// touching the lock — a slow writer filling the queue, so overload
/// tests can saturate the write budget while reads keep answering.
fn on_shard_zero(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    match command.cmd {
        Cmd::DebugSleepWrite => {
            let _slot = admit_all(shared, &shared.write_budget(), &[0])?;
            let ms = req
                .get("ms")
                .and_then(Json::as_u64)
                .unwrap_or(250)
                .min(10_000);
            std::thread::sleep(Duration::from_millis(ms));
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("slept_ms", Json::Uint(ms)),
            ]))
        }
        Cmd::DebugPanic => run_write(shared, &[0], |_| -> Json {
            panic!("debug_panic: injected handler panic")
        }),
        _ => Ok(run_on(shared, command, 0, req)),
    }
}

fn route_by_mapping(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    let router = &shared.router;
    let name = command.field(req, "name", Json::as_str);
    let plan = name.and_then(|name| router.plan_mapping(name));
    let shard = planned(shared, plan, identity)?;
    Ok(router.annotate_shard(run_on(shared, command, shard, req), shard))
}

/// The part of a batch that goes to one shard.
fn sub_batch(command: &Command, items: Vec<Json>) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str(command.name.into())),
        ("items", Json::Arr(items)),
    ])
}

/// `batch_query`: group the items by their mapping's shard (an item no
/// shard can answer gets its refusal inline), send each shard its
/// sub-batch — the request itself when one shard takes every item —
/// one shard at a time in ascending order, and reassemble the answers
/// in request order.
fn route_batch_query(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    let router = &shared.router;
    let items = command.items(req).map_err(|e| err_response(&e))?;
    let mut results: Vec<Option<Json>> = vec![None; items.len()];
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (k, item) in items.iter().enumerate() {
        let name = Cmd::Query.row().field(item, "name", Json::as_str);
        let plan = name.and_then(|name| router.plan_mapping(name));
        match planned(shared, plan, identity) {
            Ok(shard) => groups.entry(shard).or_default().push(k),
            Err(refusal) => results[k] = Some(refusal),
        }
    }
    for (shard, picks) in groups {
        let part;
        let part_req = if picks.len() == items.len() {
            req
        } else {
            part = sub_batch(command, picks.iter().map(|&k| items[k].clone()).collect());
            &part
        };
        let resp = run_on(shared, command, shard, part_req);
        if !response_ok(&resp) {
            return Err(resp);
        }
        if let Some(Json::Arr(answers)) = resp.take_field("results") {
            for (k, answer) in picks.into_iter().zip(answers) {
                results[k] = Some(router.annotate_shard(answer, shard));
            }
        }
    }
    let results: Vec<Json> = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| err_response("batch item result missing")))
        .collect();
    Ok(Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("count", Json::Uint(results.len() as u64)),
        ("results", Json::Arr(results)),
    ]))
}

/// Walk the shards ascending, one at a time, collecting `step`'s
/// replies; a refusal or failed reply ends the walk and is the answer
/// (annotated with its shard).
fn each_shard(shared: &Shared, mut step: impl FnMut(usize) -> Json) -> Result<Vec<Json>, Json> {
    let router = &shared.router;
    let mut replies = Vec::with_capacity(router.len());
    for shard in 0..router.len() {
        let resp = step(shard);
        if !response_ok(&resp) {
            return Err(router.annotate_shard(resp, shard));
        }
        replies.push(resp);
    }
    Ok(replies)
}

/// `stats`, `dump`, `checkpoint`: every shard answers in turn and
/// [`shard::gather`] merges the replies.
fn scatter(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    let router = &shared.router;
    let as_it_stands = |shard| run_on(shared, command, shard, req);
    match command.cmd {
        Cmd::Dump => {
            // The one scattered command whose request differs per
            // shard: each persists into its own directory, and the
            // merged manifest records each shard's durable counters as
            // of the same lock hold.
            let dir = command.field(req, "dir", Json::as_str);
            let dir = dir.map_err(|e| err_response(&e))?;
            let mut counts = Vec::with_capacity(router.len());
            let replies = each_shard(shared, |shard| {
                let part = Json::Str(router.shard_dir(dir, shard));
                let part_req = req.clone().set_field("dir", part);
                run_read(shared, &[shard], |held| {
                    counts.push(held[0].1.machine().command_counts());
                    held[0].1.execute_read(&part_req)
                })
                .unwrap_or_else(identity)
            })?;
            Ok(shard::gather(replies, |all| {
                shard::merge_dump(dir, all, &counts)
            }))
        }
        Cmd::Stats => {
            let replies = each_shard(shared, as_it_stands)?;
            let merged = shard::gather(replies, |all| shard::merge_stats(router, all));
            Ok(with_server_counters(shared, merged))
        }
        _ => {
            let replies = each_shard(shared, as_it_stands)?;
            Ok(shard::gather(replies, shard::merge_checkpoint))
        }
    }
}

/// Append the server-level counters to a `stats` reply.
fn with_server_counters(shared: &Shared, mut stats: Json) -> Json {
    let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let counters = [
        ("uptime_ms", shared.started.elapsed().as_millis() as u64),
        ("requests", count(&shared.requests)),
        ("request_errors", count(&shared.errors)),
        ("connections", count(&shared.connections)),
        ("active_connections", count(&shared.active_connections)),
        ("busy_refusals", count(&shared.busy_refusals)),
        (
            "overloaded_rejections",
            count(&shared.overloaded_rejections),
        ),
        ("auto_checkpoints", count(&shared.auto_checkpoints)),
        ("shard_count", shared.router.len() as u64),
    ];
    if let Json::Obj(fields) = &mut stats {
        fields.extend(counters.map(|(k, v)| (k.to_owned(), Json::Uint(v))));
        let degraded = shared.degraded.load(Ordering::Relaxed);
        fields.push(("degraded".to_owned(), Json::Bool(degraded)));
    }
    stats
}

/// `match`: placed by the ownership cascade; a success claims its
/// sources for the shard it ran on.
fn route_match(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    let router = &shared.router;
    let ends = fields(req, command, ["name", "domain", "range"]);
    let hint = req.get("shard").and_then(Json::as_u64).map(|v| v as usize);
    let plan = ends
        .clone()
        .and_then(|[_, domain, range]| router.plan_match(domain, range, hint));
    let shard = planned(shared, plan, identity)?;
    let resp = run_on(shared, command, shard, req);
    if let (true, Ok([name, domain, range])) = (response_ok(&resp), ends) {
        router.note_match(name, domain, range, shard);
    }
    Ok(router.annotate_shard(resp, shard))
}

/// `compose`: unchanged on the shard holding both inputs, else the
/// cross-shard path.
fn route_compose(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    let router = &shared.router;
    let ends = fields(req, command, ["name", "left", "right"]);
    let plan = ends
        .clone()
        .and_then(|[_, left, right]| router.plan_compose(left, right));
    match planned(shared, plan, ComposePlan::Single)? {
        ComposePlan::Single(shard) => {
            let resp = run_on(shared, command, shard, req);
            if let (true, Ok([name, ..])) = (response_ok(&resp), ends) {
                router.note_mapping(name, shard);
            }
            Ok(router.annotate_shard(resp, shard))
        }
        ComposePlan::Cross { left, right } => {
            let names = ends.map_err(|e| err_response(&e))?;
            cross_shard_compose(shared, req, names, left, right)
        }
    }
}

/// The coordinator's gather-then-compute path: read each input on its
/// shard in turn (never both locked at once — cheap `Arc` clones make
/// holding two shard locks unnecessary), compute the compose locally
/// with the exact single-shard recipe evaluation, then log the
/// *result* as an `install` record on the left input's shard. The
/// installed mapping is a point-in-time snapshot of its inputs; the
/// response records their versions so a client can detect staleness
/// and re-compose.
fn cross_shard_compose(
    shared: &Shared,
    req: &Json,
    [name, left, right]: [&str; 3],
    left_shard: usize,
    right_shard: usize,
) -> Result<Json, Json> {
    let (f, g) = compose_params(req).map_err(|e| err_response(&e))?;
    // One input's mapping `Arc`, version and end-point source names.
    let gather = |shard: usize, mapping: &str| {
        run_read(shared, &[shard], |held| -> Result<_, Json> {
            let engine = &held[0].1;
            let m = engine.repository().get(mapping).ok_or_else(|| {
                err_response(&format!(
                    "unknown mapping `{mapping}` on shard {shard} (routing index stale?)"
                ))
            })?;
            let version = engine.repository().version(mapping).unwrap_or(0);
            let domain = engine.registry().lds(m.domain).name();
            let range = engine.registry().lds(m.range).name();
            Ok((m, version, domain, range))
        })?
    };
    let (left_map, left_ver, domain, _) = gather(left_shard, left)?;
    let (right_map, right_ver, _, range) = gather(right_shard, right)?;
    // Arena indices agree across shards (every registry is a clone of
    // one boot image and arenas are append-only), so this is the very
    // compose the single-shard recipe path evaluates.
    let composed = compose(&left_map, &right_map, f, g);
    let composed = composed.map_err(|e| err_response(&e.to_string()))?;
    let rows = composed.table.rows().iter();
    let rows: Vec<(u32, u32, f64)> = rows.map(|c| (c.domain, c.range, c.sim)).collect();
    let inputs = Json::Arr(vec![
        Json::Arr(vec![Json::Str(left.into()), Json::Uint(left_ver)]),
        Json::Arr(vec![Json::Str(right.into()), Json::Uint(right_ver)]),
    ]);
    let mut install =
        install_request(name, &domain, &range, &rows, None).set_field("inputs", inputs.clone());
    if let MappingKind::Association(t) = composed.kind {
        install = install.set_field("assoc", Json::Str(t));
    }
    let resp = run_write(shared, &[left_shard], |held| held[0].1.execute(&install))?;
    if !response_ok(&resp) {
        return Err(resp);
    }
    shared.router.note_mapping(name, left_shard);
    Ok(shared.router.annotate(
        resp,
        [
            ("shard", Json::Uint(left_shard as u64)),
            ("cross_shard", Json::Bool(true)),
            ("left_shard", Json::Uint(left_shard as u64)),
            ("right_shard", Json::Uint(right_shard as u64)),
            ("inputs", inputs),
        ],
    ))
}

/// A copy of a delta (or delta item) for a shard other than its
/// accounting shard. The router owns `repl`: whatever the client put
/// there is replaced.
fn replica(delta: &Json) -> Json {
    delta.clone().set_field("repl", Json::Bool(true))
}

/// `delta`: write locks on every target, all held until every copy is
/// applied (so concurrent deltas to overlapping shard sets cannot
/// interleave differently on different shards); the request itself on
/// the lowest target — the accounting copy — and replicas on the rest.
fn route_delta(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    let router = &shared.router;
    let source = command.field(req, "lds", Json::as_str);
    let plan = source.and_then(|source| router.plan_delta(source));
    let targets = planned(shared, plan, |shard| vec![shard])?;
    let resp = run_write(shared, &targets, |held| {
        let mut copies = held.iter_mut();
        let (_, accounting) = copies.next().expect("a planned delta has a target");
        let resp = accounting.execute(req);
        for (shard, engine) in copies {
            let copied = engine.execute(&replica(req));
            if !response_ok(&copied) {
                // A replica that fails while the accounting copy
                // succeeded means the shards have diverged; keep
                // serving but flag it loudly.
                eprintln!(
                    "moma serve: warning: replica delta diverged on shard {shard}: {}",
                    copied.str_field("error").unwrap_or("unknown error")
                );
                shared.degraded.store(true, Ordering::Relaxed);
            }
        }
        resp
    })?;
    Ok(router.annotate(resp, [("shards", shard_list(&targets))]))
}

/// `batch_delta`. When every item routes to one shard the whole batch
/// forwards there unchanged — one WAL group commit, contiguous
/// sequence numbers. A batch spanning shards is decomposed into
/// per-shard sub-batches (one group commit per shard, write locks held
/// across all of them); per-item results are reassembled in request
/// order and the envelope's `first_seq`/`last_seq` are `null` because
/// no single shard's sequence range covers the batch. An item that
/// cannot be planned refuses the whole batch: all items or none.
fn route_batch_delta(shared: &Shared, command: &Command, req: &Json) -> Result<Json, Json> {
    let router = &shared.router;
    let items = command.items(req).map_err(|e| err_response(&e))?;
    let mut item_targets: Vec<Vec<usize>> = Vec::with_capacity(items.len());
    for (k, item) in items.iter().enumerate() {
        let what = format_args!("{} item {k}", command.name);
        let plan = item.need(what, "lds", Json::as_str).and_then(|source| {
            let plan = router.plan_delta(source);
            plan.map_err(|e| format!("{} item {k}: {e}", command.name))
        });
        item_targets.push(planned(shared, plan, |shard| vec![shard])?);
    }
    let union: BTreeSet<usize> = item_targets.iter().flatten().copied().collect();
    let union: Vec<usize> = union.into_iter().collect();
    let shards = ("shards", shard_list(&union));
    if let [only] = union[..] {
        return Ok(router.annotate(run_on(shared, command, only, req), [shards]));
    }
    let results = run_write(shared, &union, |held| {
        let mut results: Vec<Option<Json>> = vec![None; items.len()];
        for (shard, engine) in held.iter_mut() {
            // This shard's sub-batch, in request order. An item's
            // accounting copy goes to its lowest target, whose answer
            // is the item's result; other targets get replicas.
            let mut part = Vec::new();
            let mut answers_for = Vec::new();
            for (k, targets) in item_targets.iter().enumerate() {
                if targets.contains(shard) {
                    let accounting = targets.first() == Some(shard);
                    part.push(if accounting {
                        items[k].clone()
                    } else {
                        replica(&items[k])
                    });
                    answers_for.push(accounting.then_some(k));
                }
            }
            let resp = engine.execute(&sub_batch(command, part));
            if !response_ok(&resp) {
                return Err(router.annotate_shard(resp, *shard));
            }
            if let Some(Json::Arr(answers)) = resp.take_field("results") {
                for (k, answer) in answers_for.into_iter().zip(answers) {
                    if let Some(k) = k {
                        results[k] = Some(answer);
                    }
                }
            }
        }
        Ok(results)
    })??;
    let results: Vec<Json> = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| err_response("batch item result missing")))
        .collect();
    Ok(Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("count", Json::Uint(results.len() as u64)),
        ("first_seq", Json::Null),
        ("last_seq", Json::Null),
        ("results", Json::Arr(results)),
        shards,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_core::exec::Parallelism;
    use moma_model::SourceRegistry;

    /// A panic anywhere under the executor — here in the closure, with
    /// the write lock held — is answered, flagged and survived.
    #[test]
    fn executor_contains_a_panicking_closure() {
        let engine = Engine::new(SourceRegistry::new(), Parallelism::sequential());
        let shared = new_shared(vec![engine], Limits::default());

        let refusal = run_write(&shared, &[0], |_| -> Json { panic!("injected") })
            .expect_err("a panic is a refusal, not a return");
        assert!(!response_ok(&refusal));
        let error = refusal.str_field("error").unwrap_or_default();
        assert!(error.starts_with("internal error"), "{refusal}");
        assert!(shared.degraded.load(Ordering::Relaxed));

        // The admission slot is back and the poisoned lock is usable:
        // the same shard serves the next write and the next read.
        let inflight = &shared.router.shard(0).inflight_writes;
        assert_eq!(inflight.load(Ordering::Acquire), 0);
        assert_eq!(run_write(&shared, &[0], |held| held.len()), Ok(1));
        let stats = run_read(&shared, &[0], |held| held[0].1.stats()).expect("read");
        assert!(response_ok(&stats));
    }

    /// Whatever order (and however often) a caller names its targets,
    /// the executor locks them ascending, once each.
    #[test]
    fn executor_locks_ascending_and_once() {
        let engines = (0..3).map(|_| Engine::new(SourceRegistry::new(), Parallelism::sequential()));
        let shared = new_shared(engines.collect(), Limits::default());
        let order = run_write(&shared, &[2, 0, 2, 1], |held| {
            held.iter().map(|(i, _)| *i).collect::<Vec<_>>()
        });
        assert_eq!(order, Ok(vec![0, 1, 2]));
    }
}
