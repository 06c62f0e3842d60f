//! The long-running server: TCP accept loop, session accounting, job
//! registry and lifecycle.

use crate::limits::Limits;
use crate::protocol::{obj, ErrorCode, ServeError};
use crate::transport;
use crate::worker::{self, JobRequest};
use rdse_store::{ResultStore, SyncPolicy};
use serde::{Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};

/// How a server is stood up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind (default `127.0.0.1`).
    pub host: String,
    /// Port to bind; `0` asks the OS for a free port — read the real
    /// one back from [`Server::local_addr`].
    pub port: u16,
    /// Worker shards, each a thread with its own job queue and model
    /// cache.
    pub workers: usize,
    /// Per-request resource limits.
    pub limits: Limits,
    /// Path of the persistent result store (`None` = no persistence;
    /// every job explores from cold exactly as before).
    pub store: Option<PathBuf>,
    /// Fsync cadence of the store's append-only log.
    pub store_sync: SyncPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".into(),
            port: 0,
            workers: 4,
            limits: Limits::default(),
            store: None,
            store_sync: SyncPolicy::Always,
        }
    }
}

/// Lifetime counters, readable while the server runs (the `healthz`
/// endpoint reports them).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Jobs that ran to completion.
    pub jobs_served: AtomicU64,
    /// Jobs rejected or failed after admission.
    pub jobs_failed: AtomicU64,
    /// Jobs that found their `(app, arch)` models already cached on
    /// their shard (reported as `evaluator_cache_hits`).
    pub cache_hits: AtomicU64,
    /// Jobs that had to resolve models from scratch.
    pub cache_misses: AtomicU64,
    /// Jobs answered from the result store with zero search (identical
    /// content key).
    pub store_exact_hits: AtomicU64,
    /// Jobs answered by an archived run over the same `(app, arch)`
    /// and objective with an iteration budget ≥ the request's.
    pub store_dominated_hits: AtomicU64,
    /// Jobs that explored, but with chain 0 seeded from the archive.
    pub store_warm_starts: AtomicU64,
}

#[derive(Debug, Clone)]
pub(crate) enum JobState {
    Queued,
    Running,
    Done(Value),
    Failed(ServeError),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Recent job records: bounded ring, oldest evicted first.
const MAX_JOB_RECORDS: usize = 256;

/// Job records in id order. Lookups search from the newest end: the job
/// being updated or polled is almost always among the latest.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    next: AtomicU64,
    records: Mutex<VecDeque<(u64, JobState)>>,
}

impl Registry {
    pub fn register(&self) -> u64 {
        let id = self.next.fetch_add(1, Relaxed) + 1;
        let mut records = self.records.lock().expect("registry lock");
        if records.len() >= MAX_JOB_RECORDS {
            records.pop_front();
        }
        records.push_back((id, JobState::Queued));
        id
    }

    pub fn set_state(&self, id: u64, state: JobState) {
        let mut records = self.records.lock().expect("registry lock");
        if let Some(slot) = records.iter_mut().rev().find(|(rid, _)| *rid == id) {
            slot.1 = state;
        }
    }

    pub fn record_value(&self, id: u64) -> Option<Value> {
        let records = self.records.lock().expect("registry lock");
        let (_, state) = records.iter().rev().find(|(rid, _)| *rid == id)?;
        let (result, error) = match state {
            JobState::Done(v) => (v.clone(), Value::Null),
            JobState::Failed(e) => (Value::Null, e.to_value()),
            _ => (Value::Null, Value::Null),
        };
        Some(obj(vec![
            ("type", Value::Str("job".into())),
            ("job", id.to_value()),
            ("state", Value::Str(state.name().into())),
            ("result", result),
            ("error", error),
        ]))
    }
}

/// Concurrent-session gauge. A connection holds a permit from accept
/// until it closes: an RPC session through all its exchanges and the
/// idle waits between them, an HTTP one until its reply (a job's last
/// frame) is sent. The gauge also holds a handle on the socket of
/// every live RPC session, so the drain can close the idle ones.
#[derive(Debug)]
pub(crate) struct SessionGauge {
    active: AtomicUsize,
    max: usize,
    open: Mutex<OpenSockets>,
}

/// Sockets of the live RPC sessions, by tracking id. `closed` is set
/// by the drain; a socket tracked after it is shut down at once.
#[derive(Debug, Default)]
struct OpenSockets {
    next: u64,
    sockets: HashMap<u64, TcpStream>,
    closed: bool,
}

impl SessionGauge {
    fn new(max: usize) -> Arc<Self> {
        Arc::new(SessionGauge {
            active: AtomicUsize::new(0),
            max,
            open: Mutex::default(),
        })
    }

    /// Keeps a handle on an RPC session's socket until the returned
    /// guard drops. `None` if the socket cannot be cloned: such a
    /// session cannot be closed by the drain, so it must not idle.
    pub fn track(self: &Arc<Self>, stream: &TcpStream) -> Option<Tracked> {
        let socket = stream.try_clone().ok()?;
        let mut open = self.open.lock().expect("open sockets lock");
        if open.closed {
            let _ = socket.shutdown(Shutdown::Both);
        }
        let id = open.next;
        open.next += 1;
        open.sockets.insert(id, socket);
        Some(Tracked(Arc::clone(self), id))
    }

    /// Shuts down every tracked socket, and every one tracked later:
    /// each session's blocked read returns and the session ends.
    fn close_all(&self) {
        let mut open = self.open.lock().expect("open sockets lock");
        open.closed = true;
        for socket in open.sockets.values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    pub fn try_acquire(self: &Arc<Self>) -> Option<SessionPermit> {
        let ok = self
            .active
            .fetch_update(Relaxed, Relaxed, |n| (n < self.max).then_some(n + 1))
            .is_ok();
        ok.then(|| SessionPermit(Arc::clone(self)))
    }

    pub fn active(&self) -> usize {
        self.active.load(Relaxed)
    }
}

/// RAII handle on one session slot.
#[derive(Debug)]
pub(crate) struct SessionPermit(Arc<SessionGauge>);

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Relaxed);
    }
}

/// RAII registration of one RPC session's socket with the gauge.
#[derive(Debug)]
pub(crate) struct Tracked(Arc<SessionGauge>, u64);

impl Drop for Tracked {
    fn drop(&mut self) {
        let mut open = self.0.open.lock().expect("open sockets lock");
        open.sockets.remove(&self.1);
    }
}

/// State shared with the shard threads.
#[derive(Debug)]
pub(crate) struct Core {
    pub limits: Limits,
    pub stats: ServeStats,
    pub registry: Registry,
    /// The shared result store, if persistence is on. Workers take the
    /// lock only around archive lookups and appends — never across a
    /// search — so contention stays off the hot path.
    pub store: Option<Mutex<ResultStore>>,
}

/// State shared with connection threads.
pub(crate) struct Ctx {
    pub core: Arc<Core>,
    /// One job queue per shard thread, so jobs hashing to one shard
    /// run serially in submission order. Emptied when `Server::run`
    /// drains.
    pub queues: Mutex<Vec<mpsc::Sender<Box<JobRequest>>>>,
    pub sessions: Arc<SessionGauge>,
    pub shutdown: AtomicBool,
    pub addr: SocketAddr,
    pub workers: usize,
}

impl Ctx {
    /// The `healthz` body, shared by both transports.
    pub fn health_value(&self) -> Value {
        let stats = &self.core.stats;
        obj(vec![
            ("status", Value::Str("ok".into())),
            ("version", u64::from(crate::protocol::VERSION).to_value()),
            ("jobs_served", stats.jobs_served.load(Relaxed).to_value()),
            ("jobs_failed", stats.jobs_failed.load(Relaxed).to_value()),
            (
                "evaluator_cache_hits",
                stats.cache_hits.load(Relaxed).to_value(),
            ),
            (
                "evaluator_cache_misses",
                stats.cache_misses.load(Relaxed).to_value(),
            ),
            (
                "store_exact_hits",
                stats.store_exact_hits.load(Relaxed).to_value(),
            ),
            (
                "store_dominated_hits",
                stats.store_dominated_hits.load(Relaxed).to_value(),
            ),
            (
                "store_warm_starts",
                stats.store_warm_starts.load(Relaxed).to_value(),
            ),
            (
                "store_records",
                match &self.core.store {
                    Some(s) => s.lock().expect("store lock").archive().len().to_value(),
                    None => Value::Null,
                },
            ),
            ("active_sessions", self.sessions.active().to_value()),
            ("workers", self.workers.to_value()),
        ])
    }

    /// Queues a job on its shard's thread. On rejection the request is
    /// handed back so the caller can report the error on its own sink.
    pub fn dispatch(&self, req: Box<JobRequest>) -> Result<(), (Box<JobRequest>, ServeError)> {
        let shard = (crate::handler::shard_hash(&req.key) % self.workers as u64) as usize;
        let queues = self.queues.lock().expect("queues lock");
        let sent = match queues.get(shard) {
            Some(queue) if !self.shutdown.load(Relaxed) => queue.send(req).map_err(|e| e.0),
            _ => Err(req),
        };
        let busy = || ServeError::new(ErrorCode::Busy, "server is shutting down");
        sent.map_err(|req| (req, busy()))
    }

    /// Flags shutdown and pokes the accept loop awake with a throwaway
    /// connection so it observes the flag.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
    shards: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns one thread per shard.
    ///
    /// # Errors
    ///
    /// Returns the [`io::Error`] of a failed bind, store open or thread
    /// spawn.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let workers_n = config.workers.max(1);
        let store = match &config.store {
            Some(path) => {
                let store = ResultStore::open(path, config.store_sync)?;
                let replay = store.replay_report();
                for span in &replay.skipped {
                    eprintln!(
                        "rdse serve: store {}: damaged span skipped ({span})",
                        path.display()
                    );
                }
                if let Some(tail) = &replay.tail {
                    eprintln!(
                        "rdse serve: store {}: torn tail skipped {tail}",
                        path.display()
                    );
                }
                if !replay.is_clean() {
                    eprintln!(
                        "rdse serve: store {}: {} record(s) replayed",
                        path.display(),
                        replay.records
                    );
                }
                Some(Mutex::new(store))
            }
            None => None,
        };
        let core = Arc::new(Core {
            limits: config.limits.clone(),
            stats: ServeStats::default(),
            registry: Registry::default(),
            store,
        });
        let (queues, shards) = (0..workers_n)
            .map(|i| worker::spawn_shard(i, Arc::clone(&core)))
            .collect::<io::Result<(Vec<_>, Vec<_>)>>()?;
        let ctx = Arc::new(Ctx {
            core,
            queues: Mutex::new(queues),
            sessions: SessionGauge::new(config.limits.max_sessions),
            shutdown: AtomicBool::new(false),
            addr,
            workers: workers_n,
        });
        Ok(Server {
            listener,
            ctx,
            shards,
        })
    }

    /// The bound address (resolves `port: 0` to the real port).
    ///
    /// # Errors
    ///
    /// Propagates the [`io::Error`] of `TcpListener::local_addr`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a shutdown frame arrives. Every accepted
    /// connection gets its own thread; every job admitted before the
    /// shutdown has replied, and every RPC session is closed, by the
    /// time this returns.
    ///
    /// # Errors
    ///
    /// A shard thread that panicked outside its jobs surfaces as
    /// [`io::ErrorKind::Other`].
    pub fn run(self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.ctx.shutdown.load(Relaxed) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let ctx = Arc::clone(&self.ctx);
            match ctx.sessions.try_acquire() {
                Some(permit) => {
                    let _ = thread::Builder::new()
                        .name("rdse-conn".into())
                        .spawn(move || transport::handle_connection(stream, &ctx, permit));
                }
                None => {
                    let _ = thread::Builder::new()
                        .name("rdse-busy".into())
                        .spawn(move || transport::reply_busy(stream, &ctx));
                }
            }
        }
        // Drain: closing every queue lets each shard finish the jobs
        // admitted before shutdown and exit, so joining the shards
        // means every one of them has sent its reply. Then the RPC
        // sessions, idle by now, are closed: a kept-alive client must
        // not reach a lingering session of a stopped server.
        self.ctx.queues.lock().expect("queues lock").clear();
        let joined = self.shards.into_iter().try_for_each(|shard| {
            shard
                .join()
                .map_err(|_| io::Error::other("shard thread panicked"))
        });
        self.ctx.sessions.close_all();
        joined
    }

    /// Runs the server on a background thread; mainly for tests and
    /// embedding.
    ///
    /// # Errors
    ///
    /// Propagates the [`io::Error`] of `local_addr`.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let handle = thread::Builder::new()
            .name("rdse-serve".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, handle })
    }
}

/// Join handle for a [`Server::spawn`]ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down.
    ///
    /// # Errors
    ///
    /// Propagates the server loop's [`io::Error`]; a panicked server
    /// thread surfaces as [`io::ErrorKind::Other`].
    pub fn join(self) -> io::Result<()> {
        self.handle
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FrameSink;

    type Log = mpsc::Sender<(u64, &'static str)>;

    /// Logs `(job, call)` for each reply a job sends, and panics in the
    /// call named `panic_in`.
    struct TestSink {
        id: u64,
        log: Log,
        panic_in: &'static str,
    }

    impl TestSink {
        fn call(&self, name: &'static str) {
            assert_ne!(name, self.panic_in, "test sink panics in {name}");
            let _ = self.log.send((self.id, name));
        }
    }

    impl FrameSink for TestSink {
        fn send_update(&mut self, _: &Value) -> bool {
            assert_ne!(self.panic_in, "update", "test sink panics in update");
            true
        }
        fn send_result(&mut self, _: &Value) {
            self.call("result");
        }
        fn send_error(&mut self, _: &ServeError) {
            self.call("error");
        }
        fn finish(&mut self) {
            self.call("finish");
        }
    }

    /// Admits and dispatches a motion job of `iters` iterations on
    /// `clbs` CLBs (the shard key); `true` if the server took it.
    fn submit(ctx: &Ctx, clbs: u32, iters: u64, log: &Log, panic_in: &'static str) -> bool {
        let body = format!(
            r#"{{"app": {{"builtin": "motion"}}, "arch": {{"clbs": {clbs}}}, "iters": {iters},
                "warmup": 50, "seed": 1, "chains": 1, "exchange_every": 100}}"#
        );
        let body = serde_json::from_str(&body).unwrap();
        let (id, spec, objective, key) = crate::transport::admit_job(ctx, body).unwrap();
        let log = log.clone();
        let sink = Box::new(TestSink { id, log, panic_in });
        let req = JobRequest {
            id,
            spec,
            objective,
            key,
            sink,
        };
        ctx.dispatch(Box::new(req)).is_ok()
    }

    fn bind(workers: usize) -> Server {
        Server::bind(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn a_panicking_job_or_sink_leaves_its_shard_serving() {
        let server = bind(1);
        let (tx, rx) = mpsc::channel();
        assert!(submit(&server.ctx, 2000, 200, &tx, "update")); // the search panics
        assert!(submit(&server.ctx, 2000, 200, &tx, "result")); // the reply panics
        assert!(submit(&server.ctx, 2000, 200, &tx, ""));
        drop(tx); // a lost job ends the log instead of hanging it
        let expected = [(1, "error"), (1, "finish"), (3, "result"), (3, "finish")];
        assert_eq!(rx.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn same_key_jobs_are_answered_in_submission_order() {
        let server = bind(2);
        let (tx, rx) = mpsc::channel();
        // Later jobs are shorter, so any overlap would reorder them.
        for iters in (1..=6).rev() {
            assert!(submit(&server.ctx, 2000, iters * 200, &tx, ""));
        }
        drop(tx);
        let results: Vec<u64> = rx
            .iter()
            .filter(|(_, call)| *call == "result")
            .map(|(job, _)| job)
            .collect();
        assert_eq!(results, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn run_returns_after_every_admitted_job_has_replied() {
        let server = bind(2);
        let ctx = Arc::clone(&server.ctx);
        let handle = server.spawn().unwrap();
        let (tx, rx) = mpsc::channel();
        for clbs in [1000, 2000, 3000, 4000] {
            assert!(submit(&ctx, clbs, 200, &tx, ""));
        }
        ctx.request_shutdown();
        handle.join().unwrap();
        let finished = rx.try_iter().filter(|(_, call)| *call == "finish");
        assert_eq!(finished.count(), 4);
        // A job offered after the drain is turned away, not lost.
        assert!(!submit(&ctx, 2000, 200, &tx, ""));
    }

    #[test]
    fn registry_keeps_the_newest_records_and_evicts_the_oldest() {
        let registry = Registry::default();
        let ids: Vec<u64> = (0..MAX_JOB_RECORDS + 3)
            .map(|_| registry.register())
            .collect();
        // The three oldest fell out of the ring; everything after them
        // is still queryable.
        for &gone in &ids[..3] {
            assert!(registry.record_value(gone).is_none(), "job {gone}");
        }
        for &kept in &ids[3..] {
            assert!(registry.record_value(kept).is_some(), "job {kept}");
        }
        assert_eq!(
            registry.records.lock().unwrap().len(),
            MAX_JOB_RECORDS,
            "the ring stays bounded"
        );

        // Updates land on the right record, old or new.
        let (oldest, newest) = (ids[3], *ids.last().unwrap());
        registry.set_state(oldest, JobState::Running);
        registry.set_state(newest, JobState::Done(Value::Bool(true)));
        let state = |id| match registry.record_value(id).unwrap().get("state") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("no state: {other:?}"),
        };
        assert_eq!(state(oldest), "running");
        assert_eq!(state(newest), "done");
        assert_eq!(state(ids[4]), "queued");
        // Updating an evicted job is a no-op, not a resurrection.
        registry.set_state(ids[0], JobState::Running);
        assert!(registry.record_value(ids[0]).is_none());
    }
}
