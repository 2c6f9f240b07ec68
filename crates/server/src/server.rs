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
//! `dispatch` decodes the frame once into a [`Request`] — a request that
//! does not decode, or one only the router may send, is refused right
//! there, before anything is planned or logged — and hands it to the
//! routing function of its variant (the
//! [`Route`](crate::commands::Route) of its
//! [command table](crate::commands) row). A routing function
//! is "plan the target shards, run a closure on them, gather": the
//! plan comes from [`crate::shard`] — a write's target is the home
//! shard of its sources, so every write but a `batch_delta` whose
//! items have different homes has exactly one, and a `match` or
//! `compose` claims its homes and its name when it is planned and
//! settles the claim with its reply — the gather step lives there too
//! (and is the identity over one shard, so a one-shard server answers
//! byte for byte like an embedded [`Engine`]), and the closure runs in
//! **the executor**, `run` — the only place on the request path that
//! takes admission slots or engine locks:
//!
//! 1. the targets are put in ascending order, without repeats;
//! 2. one admission slot per target is taken from the class's
//!    per-shard budget, or the request is answered `overloaded`;
//! 3. each target is opened in that ascending order: a write takes the
//!    engine's write lock (a poisoned one is recovered and noted as
//!    `degraded`); a [`Class::Read`](crate::commands::Class::Read)
//!    takes the shard's published [`ReadView`] and no lock at all;
//! 4. the closure runs inside `catch_unwind`: a panic becomes an
//!    `internal error` reply and a `degraded` flag, never a dropped
//!    connection or a poison cascade.
//!
//! ## Lock discipline
//!
//! The discipline of `docs/ARCHITECTURE.md` — engine locks in ascending
//! shard order, the router's index lock never held across one — holds
//! by construction: no routing function can take a lock in another
//! order because none takes a lock at all. Mutating commands (and
//! `dump`, which reads the full state) serialize through their shard's
//! write lock — so WAL order equals apply order, and each write ends by
//! publishing the view readers then see — while reads never take an
//! engine lock: a read is never queued behind a WAL fsync, a delta
//! apply or a checkpoint. Writes to distinct shards do not serialize
//! behind one lock. The background checkpointer is the only other lock
//! taker, and the only one that read-locks an engine (to peek whether
//! a checkpoint is due); it holds one shard's lock at a time.
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
//! write lock; reads queue on nothing but are counted all the same)
//! get an `overloaded` response with a `retry_after_ms` hint while the
//! connection stays usable. A dedicated background thread walks the
//! shards and publishes auto-checkpoints when a shard's durability
//! thresholds are exceeded, off the delta path.

use std::convert::identity;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::commands::Cmd;
use crate::engine::Engine;
use crate::frame::{encode_frame, MAX_FRAME};
use crate::json::Json;
use crate::protocol::err_response;
use crate::request::{Delta, Query, Request};
use crate::shard::{self, Claim, Shard, ShardRouter};
use crate::view::ReadView;

/// How long handler threads block in `read` before re-checking the stop
/// flag (also bounds shutdown latency).
const READ_POLL: Duration = Duration::from_millis(250);

/// How long a peer may stall *inside* a frame (header or payload
/// started, no further bytes) before the connection is dropped. Bounds
/// the damage of a client that dies mid-write without closing.
const MID_FRAME_STALL: Duration = Duration::from_secs(30);

/// The most capacity a connection's frame buffer keeps between replies.
const FRAME_KEPT: usize = 1 << 20;

/// How often the background checkpointer re-checks the durability
/// thresholds (a cheap read-lock peek per shard; also bounds its
/// shutdown latency).
const CHECKPOINT_POLL: Duration = Duration::from_millis(100);

/// How long the background checkpointer leaves a shard alone after
/// that shard's checkpoint *failed* (counted in `stats`), so a
/// persistently failing one (poisoned WAL, full disk) is not retried
/// under the shard's write lock every poll interval. The back-off is
/// per shard: the other shards keep being polled every
/// [`CHECKPOINT_POLL`].
const CHECKPOINT_BACKOFF: Duration = Duration::from_secs(5);

/// Admission-control limits. The defaults are generous for a service
/// holding a handful of long-lived clients; tests shrink them to force
/// the refusal paths deterministically. The write/read budgets apply
/// **per shard**.
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
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_connections: 256,
            max_pending_writes: 64,
            max_pending_reads: 256,
            retry_after_ms: 100,
        }
    }
}

/// State shared between the accept loop and handler threads.
pub struct Shared {
    /// The shard router: engines, per-shard admission counters and the
    /// deterministic index of source homes.
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
    /// `accept` calls that failed with an error other than
    /// `WouldBlock` / `Interrupted`.
    accept_errors: AtomicU64,
    /// Set when a handler panicked while holding a write lock (the lock
    /// is recovered and serving continues, but state deserves an
    /// operator's look).
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
/// used by the benchmark and the end-to-end tests).
pub struct ServerHandle {
    /// Bound address (useful with port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
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
/// Engines whose states hold one source on two shards are refused
/// ([`ShardRouter::new`]).
pub fn spawn_sharded(engines: Vec<Engine>, addr: &str, limits: Limits) -> io::Result<ServerHandle> {
    let shared = Arc::new(new_shared(engines, limits)?);
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let checkpointer = start_checkpointer(&listener, &shared)?;
    let shared2 = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("moma-accept".into())
        .spawn(move || accept_loop(listener, shared2, checkpointer))
        .inspect_err(|_| shared.request_stop())?;
    Ok(ServerHandle {
        addr,
        shared,
        thread,
    })
}

/// Bind `addr` and serve `engines` (one per shard) on the current
/// thread until shutdown.
pub fn run_sharded(engines: Vec<Engine>, addr: &str, limits: Limits) -> io::Result<()> {
    let shared = Arc::new(new_shared(engines, limits)?);
    let listener = TcpListener::bind(addr)?;
    let (local, shards) = (listener.local_addr()?, shared.router.len());
    let checkpointer = start_checkpointer(&listener, &shared)?;
    eprintln!(
        "moma serve: listening on {local} ({shards} shard{})",
        if shards == 1 { "" } else { "s" }
    );
    accept_loop(listener, shared, checkpointer);
    Ok(())
}

fn new_shared(engines: Vec<Engine>, limits: Limits) -> io::Result<Shared> {
    let router = ShardRouter::new(engines).map_err(io::Error::other)?;
    Ok(Shared {
        router,
        limits,
        stop: AtomicBool::new(false),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        active_connections: AtomicU64::new(0),
        busy_refusals: AtomicU64::new(0),
        overloaded_rejections: AtomicU64::new(0),
        accept_errors: AtomicU64::new(0),
        degraded: AtomicBool::new(false),
    })
}

/// Write one `busy` refusal frame and let the connection drop.
fn refuse_busy(shared: &Shared, stream: &mut TcpStream, why: &str) {
    shared.busy_refusals.fetch_add(1, Ordering::Relaxed);
    let resp = retry_later(shared, "busy", &format!("busy: {why}"));
    let mut frame = Vec::new();
    let _ = encode_frame(&mut frame, &resp).and_then(|()| stream.write_all(&frame));
}

/// The two startup steps that can fail, taken before the accept loop
/// runs so that their error is the caller's: make `listener`
/// nonblocking and start the background checkpointer.
fn start_checkpointer(listener: &TcpListener, shared: &Arc<Shared>) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("moma-checkpoint".into())
        .spawn(move || checkpoint_loop(shared))
}

/// Accept connections until the stop flag is set. The background
/// checkpointer lives exactly as long as this loop: one thread, joined
/// at its end — it can never run concurrently with itself or with
/// shutdown teardown.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, checkpointer: JoinHandle<()>) {
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
                    // connection, counted in `busy_refusals`, and keep
                    // serving the rest.
                    Err(_) => {
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
            Err(_) => {
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    let _ = checkpointer.join();
}

/// Background auto-checkpointer: walks the shards, peeks at each one's
/// durability thresholds under its read lock and, only when due, takes
/// that shard's write lock to publish a checkpoint — so checkpoint cost
/// never rides on a delta's response time, and a checkpoint on one
/// shard never blocks writes to another (nor reads to any shard: they
/// answer from published views). Single-threaded by construction and
/// joined by the accept loop, so it cannot overlap itself or outlive
/// shutdown (`tests/checkpointer_serial.rs`). This peek is the one
/// engine read lock the server takes.
fn checkpoint_loop(shared: Arc<Shared>) {
    // A shard whose checkpoint failed is skipped until its own retry
    // time; the others keep being polled.
    let mut retry_at = vec![Instant::now(); shared.router.len()];
    while !shared.stopping() {
        for (i, retry_at) in retry_at.iter_mut().enumerate() {
            if Instant::now() < *retry_at {
                continue;
            }
            let due = {
                let (engine, recovered) = shared.router.engine_read(i);
                shared.note_recovered(recovered);
                engine.checkpoint_due()
            };
            if due && !checkpoint_if_due(&shared, i) {
                *retry_at = Instant::now() + CHECKPOINT_BACKOFF;
            }
        }
        std::thread::sleep(CHECKPOINT_POLL);
    }
}

/// Publish an automatic checkpoint on shard `i` if one is still due
/// under its write lock (a concurrent explicit `checkpoint` command may
/// have run since the peek); `false` when it failed. The engine counts
/// either outcome in the view that shows its `checkpoint_seq`, so a
/// `stats` reader never sees one without the other.
fn checkpoint_if_due(shared: &Shared, i: usize) -> bool {
    let (mut engine, recovered) = shared.router.engine_write(i);
    shared.note_recovered(recovered);
    !engine.checkpoint_due() || engine.run_auto_checkpoint().is_ok()
}

/// What the handler read from the wire.
enum Next {
    Frame(Vec<u8>),
    Eof,
    /// Read timeout with no frame started — re-check the stop flag.
    Idle,
}

/// Read `buf` full. Between frames (`first`), a close or a read
/// timeout before the first byte is the [`Next`] to return; once a
/// frame has started, a close is an error and a timeout keeps reading
/// (the peer is mid-write) — up to the stop flag, since the accept loop
/// joins every handler and a half-written frame must not hang shutdown,
/// or the [`MID_FRAME_STALL`] deadline, so a stalled peer cannot pin
/// the thread forever.
fn fill(
    stream: &mut TcpStream,
    shared: &Shared,
    buf: &mut [u8],
    what: &str,
    first: bool,
) -> io::Result<Option<Next>> {
    use io::{ErrorKind, Read};
    let fail = |kind, msg: String| Err(io::Error::new(kind, msg));
    let (mut got, mut progress) = (0, Instant::now());
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) if first && got == 0 => return Ok(Some(Next::Eof)),
            Ok(0) => return fail(ErrorKind::UnexpectedEof, format!("EOF inside frame {what}")),
            Ok(n) => (got, progress) = (got + n, Instant::now()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if first && got == 0 {
                    return Ok(Some(Next::Idle));
                }
                if shared.stopping() {
                    let partial = format!("server stopping with partial frame {what}");
                    return fail(ErrorKind::ConnectionAborted, partial);
                }
                if progress.elapsed() >= MID_FRAME_STALL {
                    return fail(
                        ErrorKind::TimedOut,
                        format!("peer stalled mid-frame ({what})"),
                    );
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Like [`read_frame`], but a read timeout *between* frames surfaces as
/// [`Next::Idle`] instead of an error, and a frame that has started is
/// read on through timeouts (see [`fill`]).
///
/// [`read_frame`]: crate::frame::read_frame
fn next_frame(stream: &mut TcpStream, shared: &Shared) -> io::Result<Next> {
    let mut header = [0u8; 4];
    if let Some(next) = fill(stream, shared, &mut header, "header", true)? {
        return Ok(next);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        let msg = format!("frame length {len} exceeds MAX_FRAME");
        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    }
    let mut payload = vec![0u8; len];
    fill(stream, shared, &mut payload, "payload", false)?;
    Ok(Next::Frame(payload))
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // The connection's frame buffer: every reply is encoded into it.
    let mut frame = Vec::new();
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
        let mut resp = dispatch(&payload, &shared);
        if let Err(e) = encode_frame(&mut frame, &resp) {
            resp = err_response(&format!(
                "reply too large: {e} ({MAX_FRAME} bytes); ask for fewer rows with `limit` or `min_sim`"
            ));
            encode_frame(&mut frame, &resp).expect("an error reply fits in a frame");
        }
        if !response_ok(&resp) {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        let stop_after = resp.get("stopping").and_then(Json::as_bool) == Some(true);
        if stream.write_all(&frame).is_err() {
            return;
        }
        // A huge reply does not pin its buffer for the connection's life.
        frame.clear();
        frame.shrink_to(FRAME_KEPT);
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
    let why = format!("overloaded: too many in-flight {class} commands");
    retry_later(shared, "overloaded", &why)
}

/// A refusal that asks the client to come back: `why`, the `marker`
/// flag and the retry hint.
fn retry_later(shared: &Shared, marker: &str, why: &str) -> Json {
    let retry = shared.limits.retry_after_ms;
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(format!("{why}; retry after {retry} ms"))),
        (marker, Json::Bool(true)),
        ("retry_after_ms", Json::Uint(retry)),
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

/// **The executor**: run `f` on `targets`, each opened by `open` — an
/// engine write lock, or a published view. Every engine access of the
/// request path goes through here, which is what makes the discipline
/// in the module docs hold by construction — ascending, repeat-free
/// lock order; one admission slot per target, released on every way
/// out; poisoned locks recovered and noted; and `f` inside
/// `catch_unwind`. `Err` carries the reply to send instead
/// (`overloaded`, or `internal error` after a panic — in `f` or in a
/// lock acquisition).
fn run<G, T>(
    shared: &Shared,
    budget: Budget,
    targets: &[usize],
    open: impl Fn(usize) -> (G, bool),
    f: impl FnOnce(&mut [(usize, G)]) -> T,
) -> Result<T, Json> {
    let mut targets = targets.to_vec();
    targets.sort_unstable();
    targets.dedup();
    let _slots = admit_all(shared, &budget, &targets)?;
    catch_unwind(AssertUnwindSafe(|| {
        let mut held = Vec::with_capacity(targets.len());
        for &i in &targets {
            let (guard, recovered) = open(i);
            shared.note_recovered(recovered);
            held.push((i, guard));
        }
        f(&mut held)
    }))
    .map_err(|_| internal_error_response(shared))
}

/// [`run`] over published views and the read budget: the one way a
/// [`Class::Read`](crate::commands::Class::Read) request reaches a
/// shard, and it takes no engine lock.
fn run_views<T>(
    shared: &Shared,
    targets: &[usize],
    f: impl FnOnce(&mut [(usize, Arc<ReadView>)]) -> T,
) -> Result<T, Json> {
    let view = |i| (shared.router.view(i), false);
    run(shared, shared.read_budget(), targets, view, f)
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

/// Run `req` as it stands on shard `i`: under the write lock when its
/// command's class takes one, else from the shard's view; a refusal
/// from the executor is the reply.
fn run_on(shared: &Shared, i: usize, req: &Request) -> Json {
    let outcome = if req.command().class.takes_write_lock() {
        run_write(shared, &[i], |held| held[0].1.run(req))
    } else {
        run_views(shared, &[i], |views| views[0].1.answer(req))
    };
    outcome.unwrap_or_else(identity)
}

// ---- dispatch and routing ---------------------------------------------

fn dispatch(payload: &[u8], shared: &Shared) -> Json {
    let req = match Request::from_frame(payload) {
        Ok(req) => req,
        Err(e) => return err_response(&e),
    };
    let routed = match &req {
        Request::Shutdown => {
            shared.request_stop();
            let stopping = [("ok", Json::Bool(true)), ("stopping", Json::Bool(true))];
            Ok(Json::obj(stopping.to_vec()))
        }
        Request::Ping => Ok(run_on(shared, 0, &req)),
        Request::Query(query) => route_query(shared, &req, query),
        Request::BatchQuery(items) => route_batch_query(shared, items),
        Request::Delta(delta) => route_delta(shared, &req, delta),
        Request::BatchDelta(items) => route_batch_delta(shared, &req, items),
        Request::Match(spec) => route_claimed(shared, &req, shared.router.plan_match(spec)),
        Request::Compose(spec) => route_claimed(shared, &req, shared.router.plan_compose(spec)),
        Request::Checkpoint | Request::Stats | Request::Dump { .. } => scatter(shared, &req),
        Request::Install(_) => unreachable!("the decoder refuses `install` from the wire"),
    };
    routed.unwrap_or_else(identity)
}

/// A router's refusal as the reply.
fn refused(refusal: String) -> Json {
    err_response(&refusal)
}

fn shard_list(shards: &[usize]) -> Json {
    Json::Arr(shards.iter().map(|&i| Json::Uint(i as u64)).collect())
}

fn route_query(shared: &Shared, req: &Request, query: &Query) -> Result<Json, Json> {
    let router = &shared.router;
    let shard = router.plan_mapping(&query.name).map_err(refused)?;
    Ok(router.annotate_shard(run_on(shared, shard, req), shard))
}

/// `batch_query`: each item planned by its mapping (an item no shard
/// can answer gets its refusal inline), then every item answered from
/// the view of its shard, all views taken at once, and the answers
/// gathered in request order.
fn route_batch_query(shared: &Shared, items: &[Query]) -> Result<Json, Json> {
    let router = &shared.router;
    let plan = |item: &Query| router.plan_mapping(&item.name).map_err(refused);
    let plans: Vec<Result<usize, Json>> = items.iter().map(plan).collect();
    let targets: Vec<usize> = plans.iter().flatten().copied().collect();
    run_views(shared, &targets, |views| {
        let answer = |(item, plan): (&Query, Result<usize, Json>)| {
            let shard = plan?;
            let view = views.iter().find(|(i, _)| *i == shard).map(|(_, v)| v);
            let answer = view.expect("a planned shard's view").query(item);
            Ok(router.annotate_shard(answer, shard))
        };
        let results = items.iter().zip(plans).map(answer);
        ReadView::batch(results.map(|r| r.unwrap_or_else(identity)).collect())
    })
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
fn scatter(shared: &Shared, req: &Request) -> Result<Json, Json> {
    let router = &shared.router;
    let as_it_stands = |shard| run_on(shared, shard, req);
    match req {
        Request::Dump { dir } => {
            // The one scattered command whose request differs per
            // shard: each persists into its own directory, and the
            // merged manifest records each shard's durable counters as
            // of the same lock hold.
            let mut counts = Vec::with_capacity(router.len());
            let replies = each_shard(shared, |shard| {
                let part = Request::Dump {
                    dir: router.shard_dir(dir, shard),
                };
                run_write(shared, &[shard], |held| {
                    counts.push(held[0].1.machine().command_counts());
                    held[0].1.run(&part)
                })
                .unwrap_or_else(identity)
            })?;
            Ok(shard::gather(replies, |all| {
                shard::merge_dump(dir, all, &counts)
            }))
        }
        Request::Stats => {
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
    let overloaded = count(&shared.overloaded_rejections);
    let router = &shared.router;
    let auto_checkpoints = (0..router.len())
        .filter_map(|i| Some(router.view(i).wal()?.auto_checkpoints))
        .sum();
    let counters = [
        ("uptime_ms", shared.started.elapsed().as_millis() as u64),
        ("requests", count(&shared.requests)),
        ("request_errors", count(&shared.errors)),
        ("connections", count(&shared.connections)),
        ("active_connections", count(&shared.active_connections)),
        ("busy_refusals", count(&shared.busy_refusals)),
        ("overloaded_rejections", overloaded),
        ("accept_errors", count(&shared.accept_errors)),
        ("auto_checkpoints", auto_checkpoints),
        ("shard_count", shared.router.len() as u64),
    ];
    if let Json::Obj(fields) = &mut stats {
        fields.extend(counters.map(|(k, v)| (k.to_owned(), Json::Uint(v))));
        let degraded = shared.degraded.load(Ordering::Relaxed);
        fields.push(("degraded".to_owned(), Json::Bool(degraded)));
    }
    stats
}

/// `match` (on the home of its sources) and `compose` (on the shard of
/// its inputs): run on the shard `plan` claimed, and settle the claim
/// by the reply.
fn route_claimed(
    shared: &Shared,
    req: &Request,
    plan: Result<Claim, String>,
) -> Result<Json, Json> {
    let claim = plan.map_err(refused)?;
    let shard = claim.shard;
    let resp = run_on(shared, shard, req);
    shared.router.settle(claim, response_ok(&resp));
    Ok(shared.router.annotate_shard(resp, shard))
}

/// `delta`: on its source's home, the one shard holding mappings over
/// it.
fn route_delta(shared: &Shared, req: &Request, delta: &Delta) -> Result<Json, Json> {
    let router = &shared.router;
    let home = router.plan_delta(&delta.lds).map_err(refused)?;
    let resp = run_on(shared, home[0], req);
    Ok(router.annotate(resp, [("shards", shard_list(&home))]))
}

/// `batch_delta`. When every item's source has one home the whole
/// batch forwards there unchanged — one WAL group commit, contiguous
/// sequence numbers. A batch spanning homes is decomposed into
/// per-shard sub-batches (one group commit per shard, write locks held
/// across all of them); per-item results are reassembled in request
/// order and the envelope's `first_seq`/`last_seq` are `null` because
/// no single shard's sequence range covers the batch. An item that
/// cannot be planned refuses the whole batch: all items or none.
fn route_batch_delta(shared: &Shared, req: &Request, items: &[Delta]) -> Result<Json, Json> {
    let router = &shared.router;
    let mut homes = Vec::with_capacity(items.len());
    for (k, item) in items.iter().enumerate() {
        let home = router
            .plan_delta(&item.lds)
            .map_err(|e| err_response(&format!("{} item {k}: {e}", Cmd::BatchDelta.name())))?;
        homes.push(home[0]);
    }
    let mut union = homes.clone();
    union.sort_unstable();
    union.dedup();
    let shards = ("shards", shard_list(&union));
    if let [only] = union[..] {
        return Ok(router.annotate(run_on(shared, only, req), [shards]));
    }
    let results = run_write(shared, &union, |held| {
        let mut results = vec![Json::Null; items.len()];
        for (shard, engine) in held.iter_mut() {
            // This shard's sub-batch, in request order.
            let mine: Vec<usize> = (0..items.len()).filter(|&k| homes[k] == *shard).collect();
            let part = mine.iter().map(|&k| items[k].clone()).collect();
            let resp = engine.run(&Request::BatchDelta(part));
            if !response_ok(&resp) {
                return Err(router.annotate_shard(resp, *shard));
            }
            if let Some(Json::Arr(answers)) = resp.take_field("results") {
                for (k, answer) in mine.into_iter().zip(answers) {
                    results[k] = answer;
                }
            }
        }
        Ok(results)
    })??;
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
        let shared = new_shared(vec![engine], Limits::default()).unwrap();

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
        let stats = run_views(&shared, &[0], |views| views[0].1.stats()).expect("read");
        assert!(response_ok(&stats));
    }

    /// Whatever order (and however often) a caller names its targets,
    /// the executor locks them ascending, once each.
    #[test]
    fn executor_locks_ascending_and_once() {
        let engines = (0..3).map(|_| Engine::new(SourceRegistry::new(), Parallelism::sequential()));
        let shared = new_shared(engines.collect(), Limits::default()).unwrap();
        let order = run_write(&shared, &[2, 0, 2, 1], |held| {
            held.iter().map(|(i, _)| *i).collect::<Vec<_>>()
        });
        assert_eq!(order, Ok(vec![0, 1, 2]));
    }

    fn registry() -> SourceRegistry {
        use moma_model::{AttrDef, AttrValue, LogicalSource, ObjectType};
        let mut reg = SourceRegistry::new();
        for pds in ["DBLP", "ACM", "GS"] {
            let schema = vec![AttrDef::text("title")];
            let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
            for i in 0..4 {
                let title = AttrValue::Text(format!("Matching study number {i} of {pds}"));
                lds.insert_record(format!("{pds}{i}"), vec![("title", title)])
                    .unwrap();
            }
            reg.register(lds).unwrap();
        }
        reg
    }

    /// Publication is never forgotten: after every kind of step a
    /// 2-shard server takes — boot, match, compose, a compose the
    /// router refuses, delta, a batch split across shards, explicit and
    /// automatic checkpoint, a refused write, a panicking one, a
    /// restart through
    /// `Engine::recover` — each shard's published view answers `ping`,
    /// `stats` and a `query` of every mapping exactly as a view built
    /// afresh from its engine's state at that moment does.
    #[test]
    fn every_step_publishes_the_view_of_its_state() {
        use crate::engine::DurabilityPolicy;
        use crate::protocol;
        use moma_model::{AttrValue, DeltaOp};

        let root = std::env::temp_dir().join(format!("moma_publish_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let policy = DurabilityPolicy {
            checkpoint_every_records: 1,
            ..DurabilityPolicy::default()
        };
        let boot = |recover: bool| {
            let engines = (0..2).map(|i| {
                let mut e = Engine::new(registry(), Parallelism::sequential());
                let dir = root.join(format!("shard.{i}"));
                if recover {
                    e.recover(dir, policy).expect("recovers");
                } else {
                    e.wal_create(dir, policy).expect("WAL");
                }
                e
            });
            new_shared(engines.collect(), Limits::default()).unwrap()
        };
        let assert_published = |shared: &Shared, step: &str| {
            for i in 0..shared.router.len() {
                let published = shared.router.view(i);
                let fresh = shared.router.engine_write(i).0.view_of(None);
                let mut reads = vec![
                    protocol::bare_request("ping"),
                    protocol::bare_request("stats"),
                ];
                let names = fresh.snapshot().iter().map(|e| e.name.as_str());
                reads.extend(names.map(|name| protocol::query_request(name, 0, None)));
                for req in reads {
                    let (got, want) = (published.read(&req), fresh.read(&req));
                    assert_eq!(
                        got.to_string(),
                        want.to_string(),
                        "{step}, shard {i}: {req}"
                    );
                }
            }
        };
        let send = |shared: &Shared, req: &Json| dispatch(req.to_string().as_bytes(), shared);
        let matcher = |name: &str, domain: &str, range: &str, sim: &str, shard: usize| {
            let (d, r) = (
                format!("Publication@{domain}"),
                format!("Publication@{range}"),
            );
            let req = protocol::match_request(name, &d, &r, "title", "title", sim, 0.5);
            protocol::with_shard(req, shard)
        };
        let add = |lds: &str, id: &str| {
            let fields = vec![(
                "title".into(),
                AttrValue::Text(format!("Matching study {id}")),
            )];
            let op = DeltaOp::Add {
                id: id.into(),
                fields,
            };
            (format!("Publication@{lds}"), vec![op])
        };

        let shared = boot(false);
        assert_published(&shared, "boot");
        let (gs, gs_ops) = add("GS", "g7");
        let (acm, acm_ops) = add("ACM", "a7");
        let steps = [
            ("match", matcher("m1", "DBLP", "ACM", "trigram", 0)),
            ("match", matcher("m2", "GS", "GS", "trigram", 1)),
            ("match", matcher("m3", "GS", "GS", "jaro", 1)),
            (
                "compose",
                protocol::compose_request("c_same", "m2", "m3", "min", "max"),
            ),
            (
                "refused compose across shards",
                protocol::compose_request("c_cross", "m1", "m2", "min", "max"),
            ),
            ("delta", protocol::delta_request(&acm, &acm_ops)),
            (
                "batch_delta",
                protocol::batch_delta_request(vec![
                    protocol::delta_item(&gs, &gs_ops),
                    protocol::delta_item(
                        "Publication@DBLP",
                        &[DeltaOp::Remove { id: "DBLP1".into() }],
                    ),
                ]),
            ),
            ("checkpoint", protocol::checkpoint_request()),
            (
                "refused match",
                matcher("m4", "Nowhere", "DBLP", "trigram", 0),
            ),
        ];
        for (step, req) in &steps {
            let reply = send(&shared, req);
            assert_eq!(
                response_ok(&reply),
                !step.starts_with("refused"),
                "{step}: {reply}"
            );
            assert_published(&shared, step);
        }
        let panicked = run_write(&shared, &[0], |_| -> Json { panic!("injected") });
        assert!(panicked.is_err(), "a panic under the write lock is refused");
        assert_published(&shared, "panic");
        assert!(shared.router.view(1).entry("c_same").is_some());
        assert!((0..2).all(|i| shared.router.view(i).entry("c_cross").is_none()));
        // The refused match — it decodes, so it is logged like any
        // write — made a checkpoint due on shard 0: the checkpointer's pass publishes it.
        for i in 0..2 {
            assert!(checkpoint_if_due(&shared, i), "shard {i}");
        }
        assert_published(&shared, "auto-checkpoint");
        let autos = (0..2).filter_map(|i| shared.router.view(i).wal().map(|w| w.auto_checkpoints));
        assert_eq!(
            autos.sum::<u64>(),
            1,
            "the refused match was logged on shard 0 only"
        );
        let before: Vec<String> = (0..2)
            .map(|i| shared.router.view(i).stats().to_string())
            .collect();

        drop(shared);
        let shared = boot(true);
        assert_published(&shared, "recover");
        for (i, before) in before.iter().enumerate() {
            let after = shared.router.view(i).stats();
            let counts = |stats: &str| Json::parse(stats).unwrap().get("commands").cloned();
            assert_eq!(counts(&after.to_string()), counts(before), "shard {i}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
