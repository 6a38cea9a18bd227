//! The TCP front-end: `doppel-server`.
//!
//! Two interchangeable front-ends accept the same wire protocol:
//!
//! * [`FrontEnd::Reactor`] (the default) — a small poller pool multiplexes
//!   every connection over epoll; see [`crate::reactor`].
//! * [`FrontEnd::Threaded`] — the original two-OS-threads-per-connection
//!   design (a reader decoding frames, a writer draining replies), kept as a
//!   baseline and for environments where a blocking stack is preferable.
//!
//! Both share the dispatch path ([`dispatch_client_msg`]) and the bounded
//! per-connection reply queue ([`crate::reactor::Outbox`]), so the ordering
//! guarantees are identical: replies are written in completion order, which
//! is exactly what the `Deferred` → `Done` protocol expresses, and a client
//! that stops reading its replies is shed rather than allowed to grow server
//! memory without bound.

use crate::reactor::{self, Outbox, OutboxSender, Reactor, ReactorConfig, Recv};
use crate::service::{ReplySink, ServiceConfig, TransactionService};
use crate::twopc::Participant;
use crate::wire::{decode_client, read_frame_into, ClientMsg, ServerMsg, WireAbort, WireDone, WireStmt};
use doppel_common::{
    DoppelConfig, Engine, Op, Procedure, ProcRegistry, RegisteredCall, RequestId, ServiceReply,
    SubmitError, Tx, TxError, Value,
};
use doppel_db::DoppelDb;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A transaction received over the wire, executable by any engine.
///
/// `Get` results are captured on every (re-)execution — Doppel may stash and
/// replay the procedure — so the values shipped with the completion are the
/// ones observed by the run that actually committed.
pub struct RemoteProcedure {
    stmts: Vec<WireStmt>,
    reads: parking_lot::Mutex<Vec<Option<Value>>>,
}

impl RemoteProcedure {
    /// Wraps a statement list.
    pub fn new(stmts: Vec<WireStmt>) -> Self {
        RemoteProcedure { stmts, reads: parking_lot::Mutex::new(Vec::new()) }
    }

    /// Takes the `Get` results of the last completed execution.
    pub fn take_values(&self) -> Vec<Option<Value>> {
        std::mem::take(&mut *self.reads.lock())
    }
}

impl Procedure for RemoteProcedure {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        // Reuse the previous execution's value buffer: Doppel may stash and
        // re-run this procedure several times, and the service replays it on
        // conflicts — each run would otherwise allocate a fresh vector.
        let mut vals = std::mem::take(&mut *self.reads.lock());
        vals.clear();
        for stmt in &self.stmts {
            match stmt {
                WireStmt::Get(k) => vals.push(tx.get(*k)?),
                WireStmt::Write(k, op) => {
                    // Ordered inserts carry the *executing* core, exactly as
                    // the direct path's `Tx::oput` / `Tx::topk_insert` fill
                    // it in — a remote client cannot know which core will
                    // run its procedure.
                    let op = match op.clone() {
                        Op::OPut { order, payload, .. } => {
                            Op::OPut { order, core: tx.core(), payload }
                        }
                        Op::TopKInsert { order, payload, k: cap, .. } => {
                            Op::TopKInsert { order, core: tx.core(), payload, k: cap }
                        }
                        other => other,
                    };
                    tx.write_op(*k, op)?;
                }
            }
        }
        *self.reads.lock() = vals;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "remote"
    }

    fn is_read_only(&self) -> bool {
        self.stmts.iter().all(|s| matches!(s, WireStmt::Get(_)))
    }
}

/// An engine prepared for serving: the trait object the service drives, the
/// concrete Doppel handle (when the engine is Doppel) for control operations
/// the [`Engine`] trait does not expose (split labelling), and the
/// stored-procedure registry `InvokeProc` messages dispatch against.
pub struct ServerEngine {
    /// The engine behind the service.
    pub engine: Arc<dyn Engine>,
    /// Set when `engine` is a Doppel database.
    pub doppel: Option<Arc<DoppelDb>>,
    /// Registered procedures served to `InvokeProc` clients (empty by
    /// default: such a server answers every invocation with `UnknownProc`
    /// but still serves raw statement lists).
    pub procs: Arc<ProcRegistry>,
    /// Durable vote log for cross-shard two-phase commit (normally the same
    /// [`doppel_wal::Wal`] attached as the engine's commit sink, so prepare
    /// and decide records interleave with ordinary commit records). `None`
    /// disables durable voting: 2PC still works but forgets prepared
    /// transactions on restart.
    pub vote_log: Option<Arc<doppel_wal::Wal>>,
    /// In-doubt transactions recovered from the vote log: prepared (voted
    /// yes) but with no decision on record. Their keys are re-locked at
    /// startup until the coordinator re-delivers the decision.
    pub in_doubt: Vec<doppel_wal::InDoubtTxn>,
    /// Run the adaptive contention controller alongside the coordinator
    /// (Doppel engines only): a [`doppel_tuner::Tuner`] thread that learns
    /// split labels and thresholds from live telemetry, replacing manual
    /// `--hint-items` labelling.
    pub adaptive: bool,
}

impl ServerEngine {
    /// Wraps a started Doppel database.
    pub fn doppel(db: Arc<DoppelDb>) -> Self {
        ServerEngine {
            engine: db.clone(),
            doppel: Some(db),
            procs: Arc::default(),
            vote_log: None,
            in_doubt: Vec::new(),
            adaptive: false,
        }
    }

    /// Wraps any other engine.
    pub fn other(engine: Arc<dyn Engine>) -> Self {
        ServerEngine {
            engine,
            doppel: None,
            procs: Arc::default(),
            vote_log: None,
            in_doubt: Vec::new(),
            adaptive: false,
        }
    }

    /// Enables (or disables) the adaptive contention controller. Only
    /// meaningful for Doppel engines; ignored otherwise.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Attaches a procedure registry (built by registering procedure packs).
    pub fn with_procs(mut self, procs: Arc<ProcRegistry>) -> Self {
        self.procs = procs;
        self
    }

    /// Attaches the durable two-phase-commit vote log.
    pub fn with_vote_log(mut self, wal: Arc<doppel_wal::Wal>) -> Self {
        self.vote_log = Some(wal);
        self
    }

    /// Seeds recovered in-doubt transactions (see [`doppel_wal::Recovered::in_doubt`]).
    pub fn with_in_doubt(mut self, in_doubt: Vec<doppel_wal::InDoubtTxn>) -> Self {
        self.in_doubt = in_doubt;
        self
    }

    /// Builds an engine by name (`doppel`, `occ`, `2pl`, `atomic`), mirroring
    /// the benchmark crate's engine table but constructed here because the
    /// server cannot depend on the benchmark crate.
    pub fn build(name: &str, workers: usize, phase_ms: u64, shards: usize) -> Option<ServerEngine> {
        Self::build_with_tuner(name, workers, phase_ms, shards, doppel_common::TunerConfig::default())
    }

    /// [`ServerEngine::build`] with an explicit adaptive-tuner configuration
    /// for the Doppel engine (baselines have nothing to tune and ignore it).
    pub fn build_with_tuner(
        name: &str,
        workers: usize,
        phase_ms: u64,
        shards: usize,
        tuner: doppel_common::TunerConfig,
    ) -> Option<ServerEngine> {
        match name.to_ascii_lowercase().as_str() {
            "doppel" => {
                let config = DoppelConfig {
                    workers,
                    store_shards: shards,
                    phase_len: Duration::from_millis(phase_ms.max(1)),
                    tuner,
                    ..DoppelConfig::default()
                };
                Some(ServerEngine::doppel(Arc::new(DoppelDb::start(config))))
            }
            "occ" => Some(ServerEngine::other(Arc::new(doppel_occ::OccEngine::new(workers, shards)))),
            "2pl" | "twopl" => {
                Some(ServerEngine::other(Arc::new(doppel_twopl::TwoplEngine::new(workers, shards))))
            }
            "atomic" => Some(ServerEngine::other(Arc::new(doppel_atomic::AtomicEngine::new(workers)))),
            _ => None,
        }
    }
}

/// Which connection-handling machinery serves the listener.
#[derive(Clone, Debug)]
pub enum FrontEnd {
    /// Two OS threads per connection (the original front-end): a blocking
    /// reader and a writer draining the bounded reply queue.
    Threaded {
        /// Per-connection write-queue budget in bytes (overflow sheds the
        /// connection).
        write_queue_bytes: usize,
    },
    /// Epoll reactor: a poller pool multiplexes every connection.
    Reactor(ReactorConfig),
}

impl FrontEnd {
    /// The threaded front-end with the default write-queue budget.
    pub fn threaded() -> FrontEnd {
        FrontEnd::Threaded { write_queue_bytes: reactor::DEFAULT_WRITE_QUEUE_BYTES }
    }

    /// The reactor front-end with default tuning.
    pub fn reactor() -> FrontEnd {
        FrontEnd::Reactor(ReactorConfig::default())
    }
}

impl Default for FrontEnd {
    fn default() -> Self {
        FrontEnd::reactor()
    }
}

/// Front-end health counters, shared by both front-ends.
#[derive(Default)]
pub struct NetStats {
    accept_errors: AtomicU64,
    conns_accepted: AtomicU64,
    conns_shed: AtomicU64,
    decode_errors: AtomicU64,
}

impl NetStats {
    pub(crate) fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_conn_accepted(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_conn_shed(&self) {
        self.conns_shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the front-end health counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// `accept(2)` failures (e.g. `EMFILE`) plus connection-thread spawn
    /// failures; each is followed by a short back-off, never a busy spin.
    pub accept_errors: u64,
    /// Connections successfully accepted.
    pub conns_accepted: u64,
    /// Connections disconnected because their reply queue overflowed (the
    /// client stopped reading) or a reply could not be framed.
    pub conns_shed: u64,
    /// Connections dropped for sending bytes that do not decode as the wire
    /// protocol (including hostile length prefixes).
    pub decode_errors: u64,
}

/// What every connection handler needs to dispatch client messages, shared
/// across both front-ends.
pub(crate) struct ConnShared {
    pub(crate) service: Arc<TransactionService>,
    pub(crate) doppel: Option<Arc<DoppelDb>>,
    pub(crate) procs: Arc<ProcRegistry>,
    pub(crate) net: Arc<NetStats>,
    pub(crate) twopc: Arc<Participant>,
    pub(crate) tuner: Option<doppel_tuner::TunerWatch>,
}

/// Dispatches one decoded client message: submits to the service with a
/// reply sink that encodes completions into the connection's outbox, or
/// answers control messages directly. Used verbatim by both front-ends.
pub(crate) fn dispatch_client_msg(shared: &ConnShared, msg: ClientMsg, sender: &OutboxSender) {
    match msg {
        ClientMsg::Submit { id, stmts } => {
            let proc = Arc::new(RemoteProcedure::new(stmts));
            let sink: ReplySink = {
                let out = sender.clone();
                let proc = Arc::clone(&proc);
                Arc::new(move |reply| out.send(&reply_to_msg(reply, &proc)))
            };
            match shared.service.submit(RequestId(id), proc, sink) {
                Ok(_) => {}
                Err(SubmitError::Busy) => sender.send(&ServerMsg::Rejected { id, busy: true }),
                Err(SubmitError::Shutdown) => {
                    sender.send(&ServerMsg::Rejected { id, busy: false })
                }
            }
        }
        ClientMsg::InvokeProc { id, proc, args } => {
            let Some(call) = shared.procs.call_by_name(&proc, args) else {
                // Typed rejection: the name is not registered on this server
                // (the client sees a non-retryable abort).
                sender.send(&ServerMsg::Done(WireDone {
                    id,
                    result: Err(WireAbort::UnknownProc),
                    deferred: false,
                    values: Vec::new(),
                    proc_result: None,
                }));
                return;
            };
            let sink: ReplySink = {
                let out = sender.clone();
                let call = Arc::clone(&call);
                Arc::new(move |reply| out.send(&reply_to_call_msg(reply, &call)))
            };
            match shared.service.submit(RequestId(id), call, sink) {
                Ok(_) => {}
                Err(SubmitError::Busy) => sender.send(&ServerMsg::Rejected { id, busy: true }),
                Err(SubmitError::Shutdown) => {
                    sender.send(&ServerMsg::Rejected { id, busy: false })
                }
            }
        }
        ClientMsg::LabelSplit { id, key, op } => {
            if let Some(db) = &shared.doppel {
                db.label_split(key, op.kind());
            }
            sender.send(&ServerMsg::Ack { id });
        }
        ClientMsg::Ping { id } => {
            sender.send(&ServerMsg::Ack { id });
        }
        ClientMsg::GetStats { id } => {
            sender.send(&ServerMsg::Stats {
                id,
                snapshot: Box::new(telemetry_snapshot(shared)),
            });
        }
        ClientMsg::Prepare { id, txid, stmts } => match shared.twopc.prepare(txid, &stmts) {
            Some(values) => sender.send(&ServerMsg::Vote { id, txid, ok: true, values }),
            None => sender.send(&ServerMsg::Vote { id, txid, ok: false, values: Vec::new() }),
        },
        ClientMsg::Decide { id, txid, commit } => {
            if shared.twopc.crash_before_decide() {
                // Test instrumentation: die in the in-doubt window — after
                // the durable yes-vote, before the decision lands.
                std::process::exit(86);
            }
            if commit {
                let out = sender.clone();
                shared.twopc.decide_commit(&shared.service, id, txid, move |msg| out.send(msg));
            } else {
                shared.twopc.decide_abort(txid);
                sender.send(&ServerMsg::Ack { id });
            }
        }
    }
}

/// Assembles the full telemetry bundle: engine counters, engine-side and
/// service-side metric registries, network counters, the current phase and
/// the per-procedure table — everything a `GetStats` reply ships.
pub(crate) fn telemetry_snapshot(shared: &ConnShared) -> crate::TelemetrySnapshot {
    let mut snap = crate::TelemetrySnapshot::default();
    snap.absorb_stats(&shared.service.stats());
    snap.absorb_metrics(shared.service.telemetry().snapshot());
    if let Some(reg) = shared.service.engine().telemetry() {
        snap.absorb_metrics(reg.snapshot());
    }
    let net = shared.net.snapshot();
    snap.scalars.push(("accept_errors".into(), net.accept_errors));
    snap.scalars.push(("conns_accepted".into(), net.conns_accepted));
    snap.scalars.push(("conns_shed".into(), net.conns_shed));
    snap.scalars.push(("decode_errors".into(), net.decode_errors));
    snap.scalars.push(("trace_events".into(), doppel_telemetry::trace::events_recorded()));
    snap.scalars.extend(shared.twopc.scalars());
    snap.phase = match &shared.doppel {
        Some(db) => match db.current_phase() {
            doppel_db::Phase::Joined => "joined".into(),
            doppel_db::Phase::Split => "split".into(),
        },
        None => "-".into(),
    };
    snap.procs = shared.procs.stats();
    if let Some(watch) = &shared.tuner {
        let status = watch.status();
        snap.tuner = Some(crate::TunerSnapshot {
            epochs: status.epochs,
            phase_len_us: status.phase_len.as_micros().min(u64::MAX as u128) as u64,
            split_keys: status.split_keys,
            decisions: status.decisions,
        });
    }
    snap
}

/// How long the accept loop should sleep after `err`, or `None` for errors
/// that need no back-off. Per-connection failures (the peer aborted its own
/// handshake) carry no risk of spinning; resource exhaustion (`EMFILE`,
/// `ENFILE`, `ENOMEM`) absolutely does — `accept(2)` fails instantly without
/// consuming the pending connection, so a loop that just `continue`s pins a
/// core until a descriptor frees up.
pub(crate) fn accept_backoff(err: &io::Error) -> Option<Duration> {
    match err.kind() {
        io::ErrorKind::WouldBlock
        | io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset => None,
        _ => Some(Duration::from_millis(10)),
    }
}

/// The two front-ends' runtime state.
enum Runtime {
    Threaded(Arc<ConnRegistry>),
    Reactor(Reactor),
}

/// A running `doppel-server`: a listener plus the transaction service it
/// feeds. Dropping (or [`Server::shutdown`]) closes connections, drains the
/// service and shuts the engine down.
pub struct Server {
    service: Arc<TransactionService>,
    doppel: Option<Arc<DoppelDb>>,
    procs: Arc<ProcRegistry>,
    net: Arc<NetStats>,
    twopc: Arc<Participant>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: parking_lot::Mutex<Option<JoinHandle<()>>>,
    runtime: Runtime,
    tuner: parking_lot::Mutex<Option<doppel_tuner::TunerHandle>>,
    tuner_watch: Option<doppel_tuner::TunerWatch>,
}

/// Live-connection registry (threaded front-end only): each connection's
/// stream clone is held only while its handler runs (the handler deregisters
/// itself on exit), so a long-running server does not leak one descriptor
/// per connection ever accepted. `shutdown` closes whatever is still live.
#[derive(Default)]
struct ConnRegistry {
    streams: parking_lot::Mutex<std::collections::HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl ConnRegistry {
    fn register(&self, stream: TcpStream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().insert(id, stream);
        id
    }

    fn deregister(&self, id: u64) {
        self.streams.lock().remove(&id);
    }

    fn close_all(&self) {
        for (_, conn) in self.streams.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Server {
    /// Binds `bind_addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine` through a [`TransactionService`] behind the
    /// default front-end (the epoll reactor).
    pub fn start(
        engine: ServerEngine,
        config: ServiceConfig,
        bind_addr: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        Server::start_with(engine, config, bind_addr, FrontEnd::default())
    }

    /// [`Server::start`] with an explicit front-end choice.
    pub fn start_with(
        engine: ServerEngine,
        config: ServiceConfig,
        bind_addr: impl ToSocketAddrs,
        front_end: FrontEnd,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let service = TransactionService::start(Arc::clone(&engine.engine), config);
        let stop = Arc::new(AtomicBool::new(false));
        let net: Arc<NetStats> = Arc::default();

        // Feed the registry's per-procedure contention hints to Doppel's
        // classifier as manual split labels (paper §5.5): records the
        // procedure packs know are contended start split instead of waiting
        // for the conflict counters to notice.
        if let Some(db) = &engine.doppel {
            for (_, key, kind) in engine.procs.contention_hints() {
                db.label_split(*key, *kind);
            }
        }

        let twopc = Arc::new(Participant::new(
            Arc::clone(&engine.engine),
            engine.vote_log.clone(),
            engine.in_doubt,
        ));

        // Close the loop: the tuner thread samples the engine's telemetry
        // each epoch and drives split labels and classifier thresholds
        // through the database's `TuneSink` hooks.
        let tuner = match (&engine.doppel, engine.adaptive) {
            (Some(db), true) => {
                let registry = db
                    .telemetry()
                    .unwrap_or_else(|| Arc::new(doppel_telemetry::Registry::new()));
                Some(doppel_tuner::TunerHandle::spawn(
                    db.config().tuner.clone(),
                    Arc::clone(db) as Arc<dyn doppel_common::TuneSink>,
                    registry,
                ))
            }
            _ => None,
        };
        let tuner_watch = tuner.as_ref().map(|t| t.watch());

        let shared = Arc::new(ConnShared {
            service: Arc::clone(&service),
            doppel: engine.doppel.clone(),
            procs: Arc::clone(&engine.procs),
            net: Arc::clone(&net),
            twopc: Arc::clone(&twopc),
            tuner: tuner_watch.clone(),
        });

        let runtime = match &front_end {
            FrontEnd::Threaded { .. } => Runtime::Threaded(Arc::default()),
            FrontEnd::Reactor(config) => {
                Runtime::Reactor(Reactor::start(Arc::clone(&shared), config.clone())?)
            }
        };

        let accept = {
            let stop = Arc::clone(&stop);
            let net = Arc::clone(&net);
            let sink: AcceptSink = match &runtime {
                Runtime::Threaded(conns) => {
                    let write_queue_bytes = match front_end {
                        FrontEnd::Threaded { write_queue_bytes } => write_queue_bytes,
                        FrontEnd::Reactor(_) => unreachable!(),
                    };
                    let conns = Arc::clone(conns);
                    Box::new(move |stream| {
                        spawn_threaded_conn(stream, &shared, &conns, write_queue_bytes)
                    })
                }
                Runtime::Reactor(reactor) => {
                    let assign = reactor.handle();
                    Box::new(move |stream| {
                        assign.assign(stream);
                        Ok(())
                    })
                }
            };
            std::thread::Builder::new()
                .name("doppel-accept".into())
                .spawn(move || accept_loop(listener, stop, net, sink))?
        };

        Ok(Server {
            service,
            doppel: engine.doppel,
            procs: engine.procs,
            net,
            twopc,
            addr,
            stop,
            accept: parking_lot::Mutex::new(Some(accept)),
            runtime,
            tuner: parking_lot::Mutex::new(tuner),
            tuner_watch,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener (statistics, direct submission).
    pub fn service(&self) -> &Arc<TransactionService> {
        &self.service
    }

    /// The concrete Doppel database, when serving one.
    pub fn doppel(&self) -> Option<&Arc<DoppelDb>> {
        self.doppel.as_ref()
    }

    /// The stored-procedure registry (per-procedure statistics live here).
    pub fn procs(&self) -> &Arc<ProcRegistry> {
        &self.procs
    }

    /// Front-end health counters (accepts, accept errors, shed connections,
    /// protocol errors).
    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.net.snapshot()
    }

    /// The same [`crate::TelemetrySnapshot`] a `GetStats` client receives,
    /// assembled in-process (the `--stats-interval` ticker uses this).
    pub fn telemetry_snapshot(&self) -> crate::TelemetrySnapshot {
        let shared = ConnShared {
            service: Arc::clone(&self.service),
            doppel: self.doppel.clone(),
            procs: Arc::clone(&self.procs),
            net: Arc::clone(&self.net),
            twopc: Arc::clone(&self.twopc),
            tuner: self.tuner_watch.clone(),
        };
        telemetry_snapshot(&shared)
    }

    /// A live view of the adaptive tuner's state, when running with
    /// [`ServerEngine::with_adaptive`].
    pub fn tuner_watch(&self) -> Option<&doppel_tuner::TunerWatch> {
        self.tuner_watch.as_ref()
    }

    /// Stops accepting, closes every connection, drains the service and
    /// shuts the engine down. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Stop the tuner first so it never pokes a draining engine.
        if let Some(mut handle) = self.tuner.lock().take() {
            handle.stop();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.lock().take() {
            let _ = handle.join();
        }
        match &self.runtime {
            Runtime::Threaded(conns) => conns.close_all(),
            Runtime::Reactor(reactor) => reactor.shutdown(),
        }
        self.service.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

type AcceptSink = Box<dyn FnMut(TcpStream) -> io::Result<()> + Send>;

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    net: Arc<NetStats>,
    mut sink: AcceptSink,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                // Resource exhaustion (EMFILE & friends) fails instantly and
                // leaves the pending connection queued: back off instead of
                // spinning the accept thread at 100% CPU.
                net.note_accept_error();
                if let Some(pause) = accept_backoff(&e) {
                    std::thread::sleep(pause);
                }
                continue;
            }
        };
        // Replies are small and latency-sensitive; never wait for Nagle.
        let _ = stream.set_nodelay(true);
        net.note_conn_accepted();
        if sink(stream).is_err() {
            // Could not stand the connection up (e.g. thread spawn failed
            // under memory pressure): drop it and breathe, don't die.
            net.note_accept_error();
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn spawn_threaded_conn(
    stream: TcpStream,
    shared: &Arc<ConnShared>,
    conns: &Arc<ConnRegistry>,
    write_queue_bytes: usize,
) -> io::Result<()> {
    let clone = stream.try_clone()?;
    let conn_id = conns.register(clone);
    let shared = Arc::clone(shared);
    let registry = Arc::clone(conns);
    let spawned = std::thread::Builder::new().name("doppel-conn".into()).spawn(move || {
        handle_connection(stream, &shared, write_queue_bytes);
        registry.deregister(conn_id);
    });
    if spawned.is_err() {
        conns.deregister(conn_id);
    }
    spawned.map(|_| ())
}

/// Converts a service reply into its wire form, resolving `Get` values from
/// the procedure on successful completion.
fn reply_to_msg(reply: ServiceReply, proc: &RemoteProcedure) -> ServerMsg {
    match reply {
        ServiceReply::Deferred(id) => ServerMsg::Deferred { id: id.0 },
        ServiceReply::Done(c) => {
            let (result, values) = match c.result {
                Ok(tid) => (Ok(tid.raw()), proc.take_values()),
                Err(e) => (Err(WireAbort::from_error(&e)), Vec::new()),
            };
            ServerMsg::Done(WireDone {
                id: c.request.0,
                result,
                deferred: c.deferred,
                values,
                proc_result: None,
            })
        }
    }
}

/// Converts a service reply for a registered-procedure invocation into its
/// wire form, resolving the typed [`doppel_common::ProcResult`] on commit.
fn reply_to_call_msg(reply: ServiceReply, call: &RegisteredCall) -> ServerMsg {
    match reply {
        ServiceReply::Deferred(id) => ServerMsg::Deferred { id: id.0 },
        ServiceReply::Done(c) => {
            let (result, proc_result) = match c.result {
                Ok(tid) => (Ok(tid.raw()), call.take_result()),
                Err(e) => (Err(WireAbort::from_error(&e)), None),
            };
            ServerMsg::Done(WireDone {
                id: c.request.0,
                result,
                deferred: c.deferred,
                values: Vec::new(),
                proc_result,
            })
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<ConnShared>, write_queue_bytes: usize) {
    let Ok(write_half) = stream.try_clone() else { return };
    let outbox = Outbox::new(write_queue_bytes, None);
    let sender = outbox.sender();
    let writer = {
        let outbox = Arc::clone(&outbox);
        let net = Arc::clone(&shared.net);
        std::thread::Builder::new()
            .name("doppel-conn-writer".into())
            .spawn(move || writer_loop(write_half, outbox, net))
    };
    let Ok(writer) = writer else { return };

    let mut reader = BufReader::new(stream);
    // One payload buffer for the connection's lifetime: frames decode in
    // place, so the read loop performs no per-frame allocation.
    let mut payload = Vec::new();
    while let Ok(true) = read_frame_into(&mut reader, &mut payload) {
        let Ok(msg) = decode_client(&payload) else {
            // Protocol error: drop the connection rather than guessing.
            shared.net.note_decode_error();
            break;
        };
        dispatch_client_msg(shared, msg, &sender);
    }
    // Dropping our sender lets the writer exit once every in-flight
    // completion (whose sinks hold clones) has been delivered.
    drop(sender);
    let _ = writer.join();
}

fn writer_loop(stream: TcpStream, outbox: Arc<Outbox>, net: Arc<NetStats>) {
    let mut w = io::BufWriter::new(&stream);
    loop {
        match outbox.recv_blocking() {
            Recv::Batch(frames) => {
                // Frames carry their headers already; batch the whole queue
                // under one flush.
                for frame in frames {
                    if w.write_all(&frame).is_err() {
                        drop(w);
                        hang_up(&stream, &outbox);
                        return;
                    }
                }
                if w.flush().is_err() {
                    drop(w);
                    hang_up(&stream, &outbox);
                    return;
                }
            }
            Recv::Shed => {
                // The client stopped reading and its queue overflowed:
                // disconnect rather than buffer without bound.
                net.note_conn_shed();
                drop(w);
                hang_up(&stream, &outbox);
                return;
            }
            Recv::Disconnected => {
                let _ = w.flush();
                return;
            }
        }
    }
}

/// Tears a threaded connection down from the writer side: closing the outbox
/// stops accumulation, shutting the socket down unblocks the reader thread.
fn hang_up(stream: &TcpStream, outbox: &Outbox) {
    outbox.close();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_sleeps_on_resource_exhaustion() {
        // EMFILE / ENFILE: the pending connection stays queued and accept(2)
        // fails instantly — exactly the busy-spin case the back-off exists
        // for.
        let emfile = io::Error::from_raw_os_error(24);
        let enfile = io::Error::from_raw_os_error(23);
        assert!(accept_backoff(&emfile).is_some());
        assert!(accept_backoff(&enfile).is_some());
    }

    #[test]
    fn accept_backoff_skips_per_connection_failures() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
        ] {
            let err = io::Error::new(kind, "transient");
            assert!(accept_backoff(&err).is_none(), "{kind:?} should not pause accepting");
        }
    }
}
