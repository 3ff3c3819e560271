//! `slide_router`: a wire-protocol proxy that spreads predict traffic
//! across N replica daemons with circuit breakers, hedged failover, and
//! end-to-end deadline propagation.
//!
//! The router speaks the same frame protocol on both sides: clients connect
//! to it exactly as they would to a single `slide_netd`, and it forwards
//! each predict to a replica over a per-connection cached [`NetClient`].
//! Because the serving salt is content-derived (`slide_serve::query_salt`),
//! any replica of the same snapshot returns a bit-identical answer — which
//! is what makes transparent failover *and hedging* sound: whichever
//! attempt answers first, the bytes are the same.
//!
//! **Circuit breakers:** each replica has a three-state breaker.
//! *Closed* routes traffic; `eject_after` consecutive failures (pings or
//! forwards) trip it *Open*, which suppresses both traffic and pings for
//! an exponentially growing, jittered backoff (`breaker_backoff` doubling
//! per consecutive open, capped at `breaker_max_backoff`); when the
//! backoff elapses the breaker goes *HalfOpen* and the next health ping is
//! the probe — success closes the breaker, failure reopens it with a
//! longer backoff. The backoff keeps a dead replica from eating a
//! connect-timeout per health cycle; the jitter keeps many routers from
//! probing in lockstep.
//!
//! **Hedging:** once a forward has been in flight for a fraction of its
//! remaining deadline budget (`hedge_fraction`, or a fixed `hedge_delay`
//! for deadline-free requests), the router issues the same request to a
//! second closed-breaker replica and takes whichever answer lands first,
//! deduplicating by req-id. Tail latency becomes the *minimum* of two
//! samples instead of one. Replica faults still trigger immediate
//! failover; `RetryLater` and request errors pass through untouched —
//! they are verdicts about load and about the request, not the replica.
//!
//! **Deadlines:** a predict carries `deadline_us`, the remaining budget
//! granted by the client (`0` = none). The router anchors it to its own
//! receive clock, sheds already-expired requests with a typed
//! `DeadlineExceeded` frame before touching any replica, forwards the
//! *decremented* budget on each attempt, and abandons all in-flight
//! attempts the moment the budget runs out — the forwarded budgets make the
//! replicas shed the stragglers themselves, so a hedged pair dies as a pair.

use crate::client::{ClientError, NetClient};
use crate::daemon::jitter;
use crate::listener::{Front, Listener, Reply, Service};
use crate::server::NetConfig;
use crate::wire::{ErrorCode, Frame, PredictRequest};
use parking_lot::Mutex;
use slide_obs::{Counter, Gauge, Histogram, ObsHub, Stage};
use slide_serve::stage_histogram;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Router tunables.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Health-ping period.
    pub health_interval: Duration,
    /// Per-attempt request timeout.
    pub request_timeout: Duration,
    /// TCP connect timeout toward replicas.
    pub connect_timeout: Duration,
    /// Consecutive failures (pings or forwards) before the breaker opens.
    pub eject_after: u32,
    /// Whether to hedge slow forwards onto a second replica.
    pub hedge: bool,
    /// With a deadline: hedge once this fraction of the remaining budget
    /// has elapsed without an answer.
    pub hedge_fraction: f64,
    /// Without a deadline: hedge after this fixed delay.
    pub hedge_delay: Duration,
    /// Base backoff for a freshly opened breaker (doubles per consecutive
    /// open).
    pub breaker_backoff: Duration,
    /// Ceiling on the exponential breaker backoff.
    pub breaker_max_backoff: Duration,
    /// Listener-side socket knobs, the connection cap included.
    pub net: NetConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            health_interval: Duration::from_millis(200),
            request_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(500),
            eject_after: 2,
            hedge: true,
            hedge_fraction: 0.5,
            hedge_delay: Duration::from_millis(50),
            breaker_backoff: Duration::from_millis(200),
            breaker_max_backoff: Duration::from_secs(5),
            net: NetConfig::default(),
        }
    }
}

/// Most attempts one predict may fan out to: primary + hedge + one
/// failover.
const MAX_ATTEMPTS: usize = 3;

/// The three-state circuit breaker guarding one replica.
#[derive(Debug, Clone, Copy)]
enum Breaker {
    /// Routing traffic; `fails` consecutive failures so far.
    Closed { fails: u32 },
    /// Ejected: no traffic, no pings until `until`.
    Open { until: Instant, streak: u32 },
    /// Backoff elapsed: the next ping is the probe.
    HalfOpen { streak: u32 },
}

/// Exponential backoff for the `streak`-th consecutive open, with a
/// deterministic ±25% jitter keyed on (replica, streak) so probes
/// desynchronize without an RNG.
fn breaker_backoff(cfg: &RouterConfig, idx: usize, streak: u32) -> Duration {
    let exp = streak.saturating_sub(1).min(16);
    let base = cfg
        .breaker_backoff
        .saturating_mul(1u32 << exp)
        .min(cfg.breaker_max_backoff);
    jitter(base, ((idx as u64) << 32) ^ u64::from(streak))
}

/// Breaker states as gauge values for `slide_router_breaker_state`.
const BREAKER_CLOSED: u64 = 0;
const BREAKER_HALF_OPEN: u64 = 1;
const BREAKER_OPEN: u64 = 2;

/// One replica's live state, shared between the health thread and every
/// connection thread. The lifetime counters are registry instruments
/// labeled `{replica="ip:port"}`, so one scrape shows the whole fleet's
/// breaker history.
struct ReplicaState {
    idx: usize,
    addr: SocketAddr,
    breaker: Mutex<Breaker>,
    /// Forwards to this replica awaiting a reply (the least-load key).
    inflight: Arc<Gauge>,
    forwarded: Arc<Counter>,
    failed: Arc<Counter>,
    /// Closed/HalfOpen → Open transitions (the "ejections" of the
    /// pre-breaker router).
    opens: Arc<Counter>,
    /// Open → HalfOpen probe admissions.
    half_opens: Arc<Counter>,
    /// → Closed recoveries (the "readmissions" of the pre-breaker router).
    closes: Arc<Counter>,
    /// Live breaker state (0 closed, 1 half-open, 2 open), updated at every
    /// transition.
    breaker_state: Arc<Gauge>,
}

impl ReplicaState {
    fn new(idx: usize, addr: SocketAddr, hub: &ObsHub) -> ReplicaState {
        let label = addr.to_string();
        let labels: &[(&str, &str)] = &[("replica", &label)];
        let r = hub.registry();
        ReplicaState {
            idx,
            addr,
            breaker: Mutex::new(Breaker::Closed { fails: 0 }),
            inflight: r.gauge_with("slide_router_inflight", labels),
            forwarded: r.counter_with("slide_router_forwarded_total", labels),
            failed: r.counter_with("slide_router_failed_total", labels),
            opens: r.counter_with("slide_router_breaker_opens_total", labels),
            half_opens: r.counter_with("slide_router_breaker_half_opens_total", labels),
            closes: r.counter_with("slide_router_breaker_closes_total", labels),
            breaker_state: r.gauge_with("slide_router_breaker_state", labels),
        }
    }

    /// Closed-breaker replicas are the only ones that receive traffic.
    fn available(&self) -> bool {
        matches!(*self.breaker.lock(), Breaker::Closed { .. })
    }

    /// Any successful exchange closes the breaker and clears the failure
    /// run (a half-open probe succeeding is the canonical path).
    fn record_success(&self) {
        let mut b = self.breaker.lock();
        if !matches!(*b, Breaker::Closed { .. }) {
            self.closes.inc();
        }
        *b = Breaker::Closed { fails: 0 };
        self.breaker_state.set(BREAKER_CLOSED);
    }

    fn record_failure(&self, cfg: &RouterConfig) {
        self.failed.inc();
        let mut b = self.breaker.lock();
        *b = match *b {
            Breaker::Closed { fails } => {
                let fails = fails + 1;
                if fails >= cfg.eject_after {
                    self.opens.inc();
                    self.breaker_state.set(BREAKER_OPEN);
                    Breaker::Open {
                        until: Instant::now() + breaker_backoff(cfg, self.idx, 1),
                        streak: 1,
                    }
                } else {
                    Breaker::Closed { fails }
                }
            }
            // A failed probe reopens with a longer backoff.
            Breaker::HalfOpen { streak } => {
                let streak = streak.saturating_add(1);
                self.opens.inc();
                self.breaker_state.set(BREAKER_OPEN);
                Breaker::Open {
                    until: Instant::now() + breaker_backoff(cfg, self.idx, streak),
                    streak,
                }
            }
            // A straggling in-flight failure while already open changes
            // nothing.
            open @ Breaker::Open { .. } => open,
        };
    }

    /// Whether the health loop should ping this replica now. An open
    /// breaker suppresses pings until its backoff elapses; the first
    /// ping after the transition to half-open *is* the probe.
    fn probe_due(&self, now: Instant) -> bool {
        let mut b = self.breaker.lock();
        match *b {
            Breaker::Closed { .. } | Breaker::HalfOpen { .. } => true,
            Breaker::Open { until, streak } => {
                if now >= until {
                    self.half_opens.inc();
                    self.breaker_state.set(BREAKER_HALF_OPEN);
                    *b = Breaker::HalfOpen { streak };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Open the breaker directly (startup probe failure).
    fn force_open(&self, cfg: &RouterConfig) {
        let mut b = self.breaker.lock();
        if !matches!(*b, Breaker::Open { .. }) {
            self.opens.inc();
        }
        self.breaker_state.set(BREAKER_OPEN);
        *b = Breaker::Open {
            until: Instant::now() + breaker_backoff(cfg, self.idx, 1),
            streak: 1,
        };
    }
}

/// Router-level instruments plus the router's own trace ring.
struct RouterObs {
    hub: Arc<ObsHub>,
    /// Hedged (backup) attempts launched.
    hedges: Arc<Counter>,
    /// Hedged attempts that produced the winning answer.
    hedge_wins: Arc<Counter>,
    /// Failover attempts launched after a replica fault.
    failovers: Arc<Counter>,
    /// Requests shed at the router with a typed `DeadlineExceeded`.
    deadline_exceeded: Arc<Counter>,
    /// Time from frame receipt to the first replica attempt launching.
    stage_router_queue: Arc<Histogram>,
    /// Time a to-be-hedged request waited before its hedge launched.
    stage_hedge_wait: Arc<Histogram>,
}

impl RouterObs {
    fn new(hub: Arc<ObsHub>) -> Self {
        let r = hub.registry();
        RouterObs {
            hedges: r.counter("slide_router_hedges_total"),
            hedge_wins: r.counter("slide_router_hedge_wins_total"),
            failovers: r.counter("slide_router_failovers_total"),
            deadline_exceeded: r.counter("slide_router_deadline_exceeded_total"),
            stage_router_queue: stage_histogram(&hub, Stage::RouterQueue),
            stage_hedge_wait: stage_histogram(&hub, Stage::HedgeWait),
            hub,
        }
    }
}

struct RouterShared {
    cfg: RouterConfig,
    obs: RouterObs,
    replicas: Vec<ReplicaState>,
}

/// A client connection's replica sockets, cached so a steady client reuses
/// warm sockets end to end; shared with that connection's attempt threads
/// (hedges run concurrently).
type ReplicaPool = Arc<Mutex<Vec<Option<NetClient>>>>;

/// The router tier: `Predict` forwarded to the fleet.
impl Service for Arc<RouterShared> {
    type Conn = ReplicaPool;

    fn open(&self) -> ReplicaPool {
        Arc::new(Mutex::new(self.replicas.iter().map(|_| None).collect()))
    }

    fn predict(&self, pool: &ReplicaPool, req: PredictRequest) -> Reply {
        Reply::Frame(forward_predict(self, pool, &req))
    }

    /// The router counts no requests of its own.
    fn shed_draining(&self) {}

    fn inflight(&self) -> u32 {
        self.replicas.iter().map(|r| r.inflight.get() as u32).sum()
    }

    fn precision(&self) -> String {
        "router".into()
    }
}

/// The fleet front-end. Dropping it drains, as [`Router::drain`] does
/// (replica daemons are left running — they are other processes'
/// responsibility).
pub struct Router {
    front: Arc<Front<Arc<RouterShared>>>,
    listener: Listener,
    health: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Bind `addr`, probe every replica once (synchronously, bounded by
    /// the connect timeout — a dead replica must not receive the first
    /// wave of traffic on an optimistic default), and start routing to
    /// `replicas`.
    ///
    /// # Errors
    ///
    /// Any bind/spawn failure, as `std::io::Error`.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        replicas: &[SocketAddr],
        cfg: RouterConfig,
    ) -> std::io::Result<Router> {
        let mut listener = Listener::bind(addr)?;
        let obs = RouterObs::new(ObsHub::shared());
        let shared = Arc::new(RouterShared {
            replicas: replicas
                .iter()
                .enumerate()
                .map(|(idx, &addr)| ReplicaState::new(idx, addr, &obs.hub))
                .collect(),
            obs,
            cfg,
        });
        // Startup probes run concurrently so the slowest dead replica
        // costs one connect timeout total, not one per replica.
        std::thread::scope(|scope| {
            for rep in &shared.replicas {
                scope.spawn(|| {
                    let ok = NetClient::connect(rep.addr, shared.cfg.connect_timeout)
                        .and_then(|mut c| {
                            c.set_timeout(shared.cfg.request_timeout);
                            c.ping(u64::from(rep.idx as u32) + 1)
                        })
                        .map(|info| !info.draining)
                        .unwrap_or(false);
                    if ok {
                        rep.record_success();
                    } else {
                        rep.force_open(&shared.cfg);
                    }
                });
            }
        });
        let hub = Arc::clone(&shared.obs.hub);
        let front = Arc::new(Front::new(Arc::clone(&shared), cfg.net, hub, &listener));
        front.accept_on(&mut listener, "slide-router")?;
        let health = {
            let stop = listener.stop_flag();
            std::thread::Builder::new()
                .name("slide-router-health".into())
                .spawn(move || health_loop(&shared, &stop))?
        };
        Ok(Router {
            front,
            listener,
            health: Some(health),
        })
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Whether a drain has been requested (by [`Router::drain`] or a
    /// client's `Drain` frame).
    pub fn is_draining(&self) -> bool {
        self.front.is_draining()
    }

    /// How many replicas currently have a closed breaker.
    pub fn healthy_replicas(&self) -> usize {
        self.front
            .service
            .replicas
            .iter()
            .filter(|r| r.available())
            .count()
    }

    /// The router's observability hub (registry + trace ring) — the same
    /// one a wire `GetMetrics` renders.
    pub fn obs(&self) -> Arc<ObsHub> {
        Arc::clone(self.front.hub())
    }

    /// The router's metrics exposition (the `GetMetrics` response body).
    pub fn metrics_text(&self) -> String {
        self.front.hub().render()
    }

    /// Stop accepting, then join the accept, health and connection
    /// threads. Attempt threads a connection abandoned at its deadline are
    /// not joined: each ends within `connect_timeout` + `request_timeout`
    /// of its launch.
    pub fn drain(&mut self) {
        self.front.start_draining();
        self.listener.drain();
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.drain();
    }
}

fn health_loop(shared: &RouterShared, stop: &AtomicBool) {
    let mut nonce = 0u64;
    // Health connections are long-lived; reconnect lazily on failure.
    let mut conns: Vec<Option<NetClient>> = shared.replicas.iter().map(|_| None).collect();
    while !stop.load(Ordering::Acquire) {
        for (i, rep) in shared.replicas.iter().enumerate() {
            if !rep.probe_due(Instant::now()) {
                continue;
            }
            nonce += 1;
            let ok = ping_replica(&mut conns[i], rep.addr, nonce, &shared.cfg);
            if ok {
                rep.record_success();
            } else {
                conns[i] = None;
                rep.record_failure(&shared.cfg);
            }
        }
        std::thread::sleep(shared.cfg.health_interval);
    }
}

fn ping_replica(
    conn: &mut Option<NetClient>,
    addr: SocketAddr,
    nonce: u64,
    cfg: &RouterConfig,
) -> bool {
    if conn.is_none() {
        match NetClient::connect(addr, cfg.connect_timeout) {
            Ok(mut c) => {
                c.set_timeout(cfg.request_timeout);
                *conn = Some(c);
            }
            Err(_) => return false,
        }
    }
    match conn.as_mut().expect("just connected").ping(nonce) {
        // A draining replica still answers pings but must stop getting
        // traffic: treat it as a failed check.
        Ok(info) => !info.draining,
        Err(_) => false,
    }
}

/// Pick the closed-breaker replica with the fewest in-flight forwards,
/// excluding already-`attempted` replicas (failed, or still in flight from
/// a hedge). Replica counts are small, so every candidate is compared.
fn pick_replica(shared: &RouterShared, attempted: &[usize]) -> Option<usize> {
    (0..shared.replicas.len())
        .filter(|&i| !attempted.contains(&i) && shared.replicas[i].available())
        .min_by_key(|&i| shared.replicas[i].inflight.get())
}

/// One resolved attempt, reported back to the forwarding loop.
struct AttemptReport {
    hedge: bool,
    result: Result<Vec<u32>, ClientError>,
}

/// Launch one attempt on replica `i` in its own thread. Breaker and
/// per-replica counters are recorded *in the thread* so attempts the
/// forwarding loop abandoned (deadline ran out first) still count.
fn spawn_attempt(
    shared: &Arc<RouterShared>,
    conns: &ReplicaPool,
    req: &Arc<PredictRequest>,
    i: usize,
    deadline: Option<Instant>,
    hedge: bool,
    tx: &mpsc::Sender<AttemptReport>,
) {
    let shared2 = Arc::clone(shared);
    let conns = Arc::clone(conns);
    let req = Arc::clone(req);
    let tx2 = tx.clone();
    shared.replicas[i].inflight.inc();
    let spawned = std::thread::Builder::new()
        .name("slide-router-attempt".into())
        .spawn(move || {
            let shared = shared2;
            let tx = tx2;
            let result = attempt_once(&shared, &conns, &req, i, deadline);
            let rep = &shared.replicas[i];
            rep.inflight.dec();
            match &result {
                Ok(_)
                | Err(ClientError::RetryLater { .. })
                | Err(ClientError::DeadlineExceeded) => {
                    // The replica answered promptly and honestly.
                    rep.forwarded.inc();
                    rep.record_success();
                }
                Err(e) if e.is_replica_fault() => rep.record_failure(&shared.cfg),
                // A typed verdict about the request itself.
                Err(_) => {
                    rep.forwarded.inc();
                }
            }
            let _ = tx.send(AttemptReport { hedge, result });
        });
    if spawned.is_err() {
        shared.replicas[i].inflight.dec();
        let _ = tx.send(AttemptReport {
            hedge,
            result: Err(ClientError::Io("attempt thread spawn failed".into())),
        });
    }
}

fn attempt_once(
    shared: &Arc<RouterShared>,
    conns: &ReplicaPool,
    req: &Arc<PredictRequest>,
    i: usize,
    deadline: Option<Instant>,
) -> Result<Vec<u32>, ClientError> {
    let cfg = &shared.cfg;
    // Decrement the budget at send time. A nonzero remaining budget must
    // stay nonzero on the wire — 0 means "no deadline".
    let budget_us = match deadline {
        None => 0,
        Some(d) => {
            let rem = d.saturating_duration_since(Instant::now());
            if rem.is_zero() {
                return Err(ClientError::DeadlineExceeded);
            }
            (rem.as_micros() as u64).max(1)
        }
    };
    let mut conn = conns.lock()[i].take();
    if conn.is_none() {
        let mut c = NetClient::connect(shared.replicas[i].addr, cfg.connect_timeout)?;
        c.set_timeout(cfg.request_timeout);
        conn = Some(c);
    }
    let mut c = conn.expect("just connected");
    // The trace id rides the forwarded frame unchanged, so the replica's
    // spans land under the same id the client chose.
    let result = c.predict_within(
        &req.indices,
        &req.values,
        req.k as usize,
        budget_us,
        req.trace_id,
    );
    // Return the socket to the pool unless it faulted (or a concurrent
    // attempt already repopulated the slot).
    if !matches!(&result, Err(e) if e.is_replica_fault()) {
        let mut pool = conns.lock();
        if pool[i].is_none() {
            pool[i] = Some(c);
        }
    }
    result
}

/// Forward one predict: deadline check, primary attempt, hedge after the
/// hedge delay, failover on replica faults — first answer wins, dedup by
/// req-id. Soft verdicts (`RetryLater`, `DeadlineExceeded` from a
/// replica) are deferred while another attempt is still in flight and
/// surfaced only if nothing wins.
fn forward_predict(shared: &Arc<RouterShared>, conns: &ReplicaPool, req: &PredictRequest) -> Frame {
    let cfg = &shared.cfg;
    let t_rx = Instant::now();
    let ring = shared.obs.hub.ring();
    let q_start = ring.now_us();
    let req_id = req.req_id;
    let deadline = (req.deadline_us > 0).then(|| t_rx + Duration::from_micros(req.deadline_us));
    if deadline.is_some_and(|d| Instant::now() >= d) {
        // Expired on arrival: shed before touching any replica.
        shared.obs.deadline_exceeded.inc();
        return Frame::DeadlineExceeded { req_id };
    }
    let req = Arc::new(req.clone());
    let (tx, rx) = mpsc::channel();
    let mut attempted: Vec<usize> = Vec::new();
    let Some(first) = pick_replica(shared, &attempted) else {
        // No closed breaker anywhere: soft-shed so clients back off and
        // retry once health returns.
        return Frame::RetryLater {
            req_id,
            queue_depth: 0,
        };
    };
    spawn_attempt(shared, conns, &req, first, deadline, false, &tx);
    attempted.push(first);
    // Frame receipt → first attempt launched: the router's queueing hop.
    let q_dur = ring.now_us().saturating_sub(q_start);
    shared.obs.stage_router_queue.record(q_dur);
    ring.record(req.trace_id, Stage::RouterQueue, q_start, q_dur);
    let mut in_flight = 1usize;
    let mut hedge_at = (cfg.hedge && shared.replicas.len() > 1).then(|| match deadline {
        Some(d) => {
            t_rx + d
                .saturating_duration_since(t_rx)
                .mul_f64(cfg.hedge_fraction.clamp(0.0, 1.0))
        }
        None => t_rx + cfg.hedge_delay,
    });
    let mut soft: Option<Frame> = None;
    loop {
        if in_flight == 0 {
            // Every attempt resolved without a winner.
            return soft.unwrap_or(Frame::RetryLater {
                req_id,
                queue_depth: 0,
            });
        }
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            // Budget gone: answer the client now and abandon the in-flight
            // attempts — they carry decremented budgets, so the replicas
            // shed the stragglers themselves (a hedged pair dies as a
            // pair). Late replies land on pooled sockets and are skipped
            // by req-id as stale.
            shared.obs.deadline_exceeded.inc();
            return Frame::DeadlineExceeded { req_id };
        }
        let mut wake = now + Duration::from_millis(20);
        if let Some(d) = deadline {
            wake = wake.min(d);
        }
        if let Some(h) = hedge_at {
            wake = wake.min(h);
        }
        let wait = wake
            .saturating_duration_since(now)
            .max(Duration::from_millis(1));
        match rx.recv_timeout(wait) {
            Ok(report) => {
                in_flight -= 1;
                match report.result {
                    Ok(ids) => {
                        if report.hedge {
                            shared.obs.hedge_wins.inc();
                        }
                        return Frame::TopK { req_id, ids };
                    }
                    Err(ClientError::RetryLater { queue_depth }) => {
                        // Backpressure verdict: keep it, but give any
                        // other attempt the chance to win outright.
                        soft.get_or_insert(Frame::RetryLater {
                            req_id,
                            queue_depth,
                        });
                    }
                    Err(ClientError::DeadlineExceeded) => {
                        // A downstream hop already shed it; the budget
                        // verdict beats a backpressure verdict.
                        soft = Some(Frame::DeadlineExceeded { req_id });
                    }
                    Err(ClientError::Server { code, message })
                        if !matches!(code, ErrorCode::Unavailable | ErrorCode::Internal) =>
                    {
                        // The request itself is bad; no other replica
                        // would disagree.
                        return Frame::Error {
                            req_id,
                            code,
                            message,
                        };
                    }
                    Err(_) => {
                        // Replica fault (already penalized in the attempt
                        // thread): fail over immediately if this was the
                        // last attempt standing.
                        if in_flight == 0 && attempted.len() < MAX_ATTEMPTS {
                            if let Some(j) = pick_replica(shared, &attempted) {
                                shared.obs.failovers.inc();
                                spawn_attempt(shared, conns, &req, j, deadline, false, &tx);
                                attempted.push(j);
                                in_flight += 1;
                            }
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Unreachable while we hold `tx`, but never hang on it.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return soft.unwrap_or(Frame::RetryLater {
                    req_id,
                    queue_depth: 0,
                });
            }
        }
        if let Some(h) = hedge_at {
            if Instant::now() >= h && in_flight >= 1 && attempted.len() < MAX_ATTEMPTS {
                hedge_at = None;
                if let Some(j) = pick_replica(shared, &attempted) {
                    shared.obs.hedges.inc();
                    // Receipt → hedge launch: how long the primary was
                    // given before we paid for a backup attempt.
                    let h_dur = ring.now_us().saturating_sub(q_start);
                    shared.obs.stage_hedge_wait.record(h_dur);
                    ring.record(req.trace_id, Stage::HedgeWait, q_start, h_dur);
                    spawn_attempt(shared, conns, &req, j, deadline, true, &tx);
                    attempted.push(j);
                    in_flight += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> RouterConfig {
        RouterConfig {
            breaker_backoff: Duration::from_millis(100),
            breaker_max_backoff: Duration::from_secs(2),
            ..Default::default()
        }
    }

    fn replica(idx: usize) -> ReplicaState {
        // Each call gets its own hub so counters never collide across tests.
        ReplicaState::new(idx, "127.0.0.1:1".parse().unwrap(), &ObsHub::new())
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let cfg = test_cfg();
        let rep = replica(0);
        assert!(rep.available());
        // One failure below the threshold: still closed.
        rep.record_failure(&cfg);
        assert!(rep.available());
        // Threshold reached: open, traffic and pings suppressed.
        rep.record_failure(&cfg);
        assert!(!rep.available());
        assert_eq!(rep.opens.get(), 1);
        assert!(!rep.probe_due(Instant::now()));
        // Backoff elapsed: half-open, the probe is admitted.
        assert!(rep.probe_due(Instant::now() + Duration::from_secs(3)));
        assert_eq!(rep.half_opens.get(), 1);
        assert!(!rep.available(), "half-open must not take traffic");
        // Probe succeeds: closed again.
        rep.record_success();
        assert!(rep.available());
        assert_eq!(rep.closes.get(), 1);
    }

    #[test]
    fn failed_probe_reopens_with_longer_backoff() {
        let cfg = test_cfg();
        let rep = replica(0);
        rep.record_failure(&cfg);
        rep.record_failure(&cfg);
        let until1 = match *rep.breaker.lock() {
            Breaker::Open { until, streak } => {
                assert_eq!(streak, 1);
                until
            }
            ref other => panic!("expected open, got {other:?}"),
        };
        assert!(rep.probe_due(Instant::now() + Duration::from_secs(3)));
        // The probe fails: streak 2, and the new deadline is further out
        // than streak 1's was (exponential growth dominates the ±25%
        // jitter at these sizes).
        rep.record_failure(&cfg);
        match *rep.breaker.lock() {
            Breaker::Open { until, streak } => {
                assert_eq!(streak, 2);
                assert!(until > until1);
            }
            ref other => panic!("expected reopened, got {other:?}"),
        }
        assert_eq!(rep.opens.get(), 2);
    }

    #[test]
    fn breaker_backoff_grows_then_caps() {
        let cfg = test_cfg();
        let b1 = breaker_backoff(&cfg, 0, 1);
        let b4 = breaker_backoff(&cfg, 0, 4);
        let b20 = breaker_backoff(&cfg, 0, 20);
        assert!(b4 > b1, "backoff must grow with the open streak");
        // Streak 20 is far past the cap: within jitter of max_backoff.
        assert!(b20 <= cfg.breaker_max_backoff.mul_f64(1.25));
        assert!(b20 >= cfg.breaker_max_backoff.mul_f64(0.75));
        // Jitter is deterministic per (replica, streak)...
        assert_eq!(breaker_backoff(&cfg, 0, 1), b1);
        // ...and desynchronizes distinct replicas.
        assert_ne!(breaker_backoff(&cfg, 1, 1), b1);
    }

    #[test]
    fn pick_replica_takes_the_least_loaded_closed_breaker_replica() {
        let cfg = test_cfg();
        let shared = RouterShared {
            cfg,
            obs: RouterObs::new(ObsHub::shared()),
            replicas: (0..3).map(replica).collect(),
        };
        let [a, b, c] = [0, 1, 2].map(|i| &shared.replicas[i]);
        a.inflight.set(2);
        b.inflight.set(1);
        c.inflight.set(1);
        // Fewest in flight, ties by index.
        assert_eq!(pick_replica(&shared, &[]), Some(1));
        assert_eq!(pick_replica(&shared, &[1]), Some(2));
        assert_eq!(pick_replica(&shared, &[1, 2]), Some(0));
        // An open breaker takes no traffic, however idle its replica.
        a.inflight.set(0);
        a.record_failure(&cfg);
        a.record_failure(&cfg);
        assert_eq!(pick_replica(&shared, &[]), Some(1));
        assert_eq!(pick_replica(&shared, &[1, 2]), None);
    }
}
