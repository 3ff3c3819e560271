//! The caller-runs request path.
//!
//! SLIDE scores one sample per thread with no synchronisation inside a
//! sample (arXiv 1903.03129 §3.1), and the frozen engine keeps that shape:
//! one query, one `predict_any_timed` call, no batched GEMM. So a request
//! gains nothing from being moved to another thread, and a
//! [`BatchingServer`] does not move it. The server owns `threads` *slots* —
//! engine-owned query scratch tagged with the publish epoch it was built
//! for — and one mutex over `{ free slots, FIFO queue, closed }`:
//!
//! * **Idle path.** [`BatchingServer::predict`] takes the mutex once; if a
//!   slot is free the caller scores its own borrowed query on its own
//!   thread — no copy, no channel, no wake-up.
//! * **Busy path.** With every slot taken the query is copied into the
//!   bounded queue (`queue_cap`: park or [`ServeError::Overloaded`]) and the
//!   caller blocks for a reply.
//! * **Combining.** Before a holder gives its slot back it pops and answers
//!   whatever queued meanwhile, in FIFO order, shedding requests whose
//!   deadline lapsed at pickup. `max_batch` (requests per session) and
//!   `max_wait` (time since the holder's own answer) bound how long one
//!   caller serves others: once either is used up the holder hands the slot
//!   itself to the head waiter, who scores its own query on its own thread
//!   and carries on. Neither knob is ever waited *for* — both are upper
//!   bounds that only saturation reaches.
//!
//! **Invariant: slot free ⇒ queue empty.** A request is queued only while
//! no slot is free and a slot is freed only while the queue is empty, both
//! decided under the one mutex. A queued request is therefore always
//! followed by a live holder that will look at the queue again before it
//! lets go of its slot, so no wake-up can be lost and there is nothing to
//! signal "not empty" to. A blocking submitter parked on a full queue is
//! covered too: the queue it found full has a live holder behind it, every
//! pop wakes one parked submitter, and freeing a slot wakes all of them —
//! one that wakes to a free slot scores inline, pops nothing and would
//! otherwise leave the rest asleep beside an idle server. (A panic in the
//! model would lose the slot; the unwinding holder closes the server
//! instead, and everyone queued or parked gets [`ServeError::Closed`].)
//!
//! The model sits behind `RwLock<(epoch, Arc<dyn FrozenModel>)>`: a trainer
//! can [`BatchingServer::publish`] a snapshot of *any* layout or shard plan
//! at any moment. A holder pins the current `Arc` for its whole session and
//! rebuilds its slot's scratch when the epoch moved, so a swap lands between
//! sessions without dropping or erroring a request; scratch is built, and a
//! retired snapshot dropped, outside both locks. A slot carries the epoch
//! rather than the `Arc` so that an idle slot never keeps a retired
//! snapshot mapped.
//!
//! Measured on the 106 496 × 128 fixture (`benchmark/`, 8 submitters at
//! 500 req/s over one slot, ten alternating pairs against the dispatcher
//! thread with a fixed 500 µs window that this replaced): client p50
//! 931 → 304 µs in process (f32), 921 → 272 µs through a socket (int8);
//! engine rate and peak memory unmoved. The table is in DESIGN.md §4.

use crate::error::{ServeBuildError, ServeError};
use crate::model::{FrozenModel, IntoFrozenModel};
use parking_lot::{Condvar, Mutex, RwLock};
use slide_mem::SparseVecRef;
use slide_obs::{Counter, Gauge, Histogram, HistogramSnapshot, ObsHub, Stage, StageSample};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Sizing and fairness bounds of the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most requests one holder session scores (its own included) before it
    /// hands its slot to the next waiter.
    pub max_batch: usize,
    /// Longest a holder keeps answering queued requests after its own
    /// answer is ready (and so how far its return can trail its recorded
    /// latency). An upper bound under saturation, never a wait: an empty
    /// queue ends the session at once. Zero = never serve others.
    pub max_wait: Duration,
    /// Bound on queued requests; submitters block (backpressure) when full.
    pub queue_cap: usize,
    /// Scratch slots = requests scored concurrently (0 = all available
    /// cores). Scoring runs on the callers' threads; the server owns none.
    pub threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(500),
            queue_cap: 4096,
            threads: 0,
        }
    }
}

impl BatchConfig {
    /// Validate the knobs.
    ///
    /// # Errors
    ///
    /// Returns a message if a bound is zero or the queue cannot hold one
    /// full batch.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be positive".into());
        }
        if self.queue_cap < self.max_batch {
            return Err("queue_cap must be >= max_batch".into());
        }
        Ok(())
    }

    /// Resolve `threads == 0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

type Response = Result<Vec<u32>, ServeError>;

/// What travels with a query besides its features.
#[derive(Clone, Copy)]
struct Ticket {
    k: usize,
    enqueued: Instant,
    /// Absolute point past which the answer is worthless to the caller;
    /// `None` = wait forever. Checked at admission, while parked on a full
    /// queue, and at pickup.
    deadline: Option<Instant>,
    /// Nonzero for traced requests: per-stage spans land in the server's
    /// trace ring under this id (0 = untraced, spans skipped).
    trace_id: u64,
}

/// A request that found every slot busy: a copy of the query for whichever
/// holder pops it, and the channel its caller is blocked on.
struct Queued {
    indices: Vec<u32>,
    values: Vec<f32>,
    ticket: Ticket,
    tx: mpsc::SyncSender<Reply>,
}

/// How `submit` got past the mutex.
enum Admitted {
    /// A slot was free: the caller holds it.
    Inline(Slot),
    /// Every slot was busy: the caller waits on its queued copy's channel.
    Queued(mpsc::Receiver<Reply>),
}

enum Reply {
    /// A holder scored (or shed) the request.
    Answer(Response),
    /// The holder's bound ran out: the waiter now holds the slot and scores
    /// its own request.
    Turn(Slot),
}

/// Engine-owned query scratch, opaque to the server (built by — and
/// downcast inside — the snapshot published at `epoch`). Epochs only grow,
/// so an equal epoch means the very snapshot the scratch was built for.
struct Slot {
    epoch: u64,
    scratch: Box<dyn Any + Send>,
}

/// Everything the one mutex guards. `!free.is_empty()` implies
/// `queue.is_empty()` (see the module docs).
struct State {
    free: Vec<Slot>,
    queue: VecDeque<Queued>,
    /// Blocking submitters asleep on `not_full` (they found the queue full).
    parked: usize,
    closed: bool,
}

/// The server's registry-backed instruments, `Arc`s cached at start so the
/// hot path never touches the registry's name map. The latency histogram is
/// the source of truth for percentiles: bounded memory at any volume, tail
/// accuracy bounded by [`Histogram::RELATIVE_ERROR_BOUND`].
struct ServeObs {
    hub: Arc<ObsHub>,
    /// Requests answered (including error responses).
    served: Arc<Counter>,
    errors: Arc<Counter>,
    /// Requests shed because their deadline expired before compute (at
    /// admission, parked on a full queue, or at pickup). Kept separate from
    /// `served`/`errors`: a shed request was never answered with a
    /// prediction or a validation verdict.
    deadline_exceeded: Arc<Counter>,
    /// Requests shed by `try_predict*` on a full queue.
    overloaded: Arc<Counter>,
    /// Requests scored by their own thread without queueing.
    inline: Arc<Counter>,
    /// Slots passed to a waiter because the holder's bound ran out.
    slot_handoffs: Arc<Counter>,
    /// Holder sessions that scored at least one request.
    batches: Arc<Counter>,
    /// Requests scored per holder session (its own + those it combined).
    batch_size: Arc<Histogram>,
    hot_swaps: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    stage_admission: Arc<Histogram>,
    stage_batch_wait: Arc<Histogram>,
    stage_retrieval: Arc<Histogram>,
    stage_kernel: Arc<Histogram>,
    stage_merge: Arc<Histogram>,
}

/// Get-or-create the shared `slide_stage_us{stage=...}` histogram for one
/// pipeline stage on a hub — the family every tier (serve, net, router)
/// records its per-hop stage times into.
pub fn stage_histogram(hub: &ObsHub, stage: Stage) -> Arc<Histogram> {
    hub.registry()
        .histogram_with("slide_stage_us", &[("stage", stage.as_str())])
}

impl ServeObs {
    fn new(hub: Arc<ObsHub>) -> Self {
        let r = hub.registry();
        ServeObs {
            served: r.counter("slide_serve_requests_total"),
            errors: r.counter("slide_serve_errors_total"),
            deadline_exceeded: r.counter("slide_serve_deadline_exceeded_total"),
            overloaded: r.counter("slide_serve_overloaded_total"),
            inline: r.counter("slide_serve_inline_total"),
            slot_handoffs: r.counter("slide_serve_slot_handoffs_total"),
            batches: r.counter("slide_serve_batches_total"),
            batch_size: r.histogram("slide_serve_batch_size"),
            hot_swaps: r.gauge("slide_serve_hot_swaps"),
            latency_us: r.histogram("slide_serve_latency_us"),
            stage_admission: stage_histogram(&hub, Stage::Admission),
            stage_batch_wait: stage_histogram(&hub, Stage::BatchWait),
            stage_retrieval: stage_histogram(&hub, Stage::Retrieval),
            stage_kernel: stage_histogram(&hub, Stage::Kernel),
            stage_merge: stage_histogram(&hub, Stage::Merge),
            hub,
        }
    }

    fn reset(&self) {
        self.served.reset();
        self.errors.reset();
        self.deadline_exceeded.reset();
        self.overloaded.reset();
        self.inline.reset();
        self.slot_handoffs.reset();
        self.batches.reset();
        self.batch_size.reset();
        self.latency_us.reset();
        self.stage_admission.reset();
        self.stage_batch_wait.reset();
        self.stage_retrieval.reset();
        self.stage_kernel.reset();
        self.stage_merge.reset();
    }
}

struct ServerShared {
    state: Mutex<State>,
    not_full: Condvar,
    /// The serving snapshot and the number of publishes before it.
    model: RwLock<(u64, Arc<dyn FrozenModel>)>,
    obs: ServeObs,
    config: BatchConfig,
}

/// The content-derived retrieval salt the batching server hands the model
/// for a query: a splitmix64 fold over `(indices, value bits, k)`. Using
/// query *content* rather than arrival order makes serving deterministic —
/// the same query produces bit-identical top-k whichever thread scores it
/// and whichever replica of a snapshot answers it — which is what lets a
/// router fail a request over mid-flight without the client seeing two
/// different answers. Callers comparing an in-process prediction against a
/// served one must pass this same salt to `FrozenModel::predict_any`.
///
/// ```
/// let a = slide_serve::query_salt(&[1, 17], &[1.0, 0.5], 5);
/// let b = slide_serve::query_salt(&[1, 17], &[1.0, 0.5], 5);
/// assert_eq!(a, b);
/// assert_ne!(a, slide_serve::query_salt(&[1, 17], &[1.0, 0.5], 6));
/// ```
pub fn query_salt(indices: &[u32], values: &[f32], k: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        // splitmix64 finalizer.
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = mix(0x9E37_79B9_7F4A_7C15 ^ k as u64);
    for (&i, &v) in indices.iter().zip(values) {
        h = mix(h ^ i as u64);
        h = mix(h ^ v.to_bits() as u64);
    }
    mix(h ^ indices.len() as u64)
}

/// Nearest-rank percentile of an ascending-sorted sample set (`q` in
/// percent). Returns 0 for an empty set.
///
/// ```
/// assert_eq!(slide_serve::percentile_us(&[10, 20, 30, 40], 50.0), 20);
/// assert_eq!(slide_serve::percentile_us(&[10, 20, 30, 40], 99.0), 40);
/// ```
pub fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A point-in-time snapshot of a server's counters.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Storage precision of the snapshot currently serving traffic
    /// (`"f32"`, `"bf16-widened-f32"`, `"i8"`).
    pub precision: String,
    /// Requests answered (including error responses).
    pub served: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests shed because their deadline expired before compute.
    pub deadline_exceeded: u64,
    /// Holder sessions that scored at least one request.
    pub batches: u64,
    /// Snapshots published over the server's lifetime.
    pub hot_swaps: u64,
    /// Mean requests per holder session (`served / batches`; 1 = nobody
    /// queued behind anybody); the distribution is the
    /// `slide_serve_batch_size` histogram in [`BatchingServer::obs`].
    pub mean_batch: f64,
    /// End-to-end request latency in µs (enqueue → response ready). A
    /// holder returns to its caller only after its session, so under
    /// saturation an inline caller sees up to `max_wait` + one scoring more
    /// than this.
    pub latency: HistogramSnapshot,
}

/// A concurrent inference front-end over a hot-swappable [`FrozenModel`]
/// (the f32 [`crate::FrozenNetwork`] or any other frozen engine).
///
/// # Examples
///
/// ```
/// use slide_core::{Network, NetworkConfig};
/// use slide_serve::{BatchConfig, BatchingServer, FrozenNetwork};
///
/// let net = Network::new(NetworkConfig::standard(256, 16, 64)).unwrap();
/// let server = BatchingServer::start(
///     FrozenNetwork::freeze(&net),
///     BatchConfig { threads: 2, ..Default::default() },
/// ).unwrap();
/// let topk = server.predict(&[1, 17], &[1.0, 0.5], 5).unwrap();
/// assert_eq!(topk.len(), 5);
/// ```
pub struct BatchingServer {
    shared: Arc<ServerShared>,
}

impl BatchingServer {
    /// Build the slots for serving `model` under `config`; no thread is
    /// started. The model may be any [`FrozenModel`] — the f32
    /// [`crate::FrozenNetwork`], a quantized engine — or an already-erased
    /// `Arc<dyn FrozenModel>` (e.g. one loaded from a snapshot):
    /// [`IntoFrozenModel`] accepts both.
    ///
    /// # Errors
    ///
    /// [`ServeBuildError::InvalidBatchConfig`] with the message from
    /// [`BatchConfig::validate`].
    pub fn start(
        model: impl IntoFrozenModel,
        config: BatchConfig,
    ) -> Result<Self, ServeBuildError> {
        let model = model.into_frozen();
        config
            .validate()
            .map_err(ServeBuildError::InvalidBatchConfig)?;
        let free = (0..config.effective_threads())
            .map(|_| Slot {
                epoch: 0,
                scratch: model.make_scratch_any(),
            })
            .collect();
        let shared = Arc::new(ServerShared {
            state: Mutex::new(State {
                free,
                queue: VecDeque::new(),
                parked: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            model: RwLock::new((0, model)),
            obs: ServeObs::new(ObsHub::shared()),
            config,
        });
        Ok(BatchingServer { shared })
    }

    /// This server's observability hub: the registry its counters and
    /// latency/stage histograms live in, plus the trace ring its per-request
    /// spans land in. A network front-end shares this hub (encode spans,
    /// wire counters) and serves its rendered text over `GetMetrics`.
    pub fn obs(&self) -> Arc<ObsHub> {
        Arc::clone(&self.shared.obs.hub)
    }

    /// The snapshot currently serving traffic.
    pub fn current(&self) -> Arc<dyn FrozenModel> {
        self.shared.model.read().1.clone()
    }

    /// Publish a new snapshot; traffic migrates at the next holder session.
    /// The write lock is held only for the pointer swap (the retired
    /// snapshot is released after it), so publishing never stalls readers
    /// for longer than an `Arc` assignment. The new snapshot need not match
    /// the old one's precision (or engine type): every holder rebuilds its
    /// slot's scratch at its first session on the new model, so f32 → i8 →
    /// f32 swaps are invisible to in-flight clients. Accepts what
    /// [`BatchingServer::start`] accepts.
    pub fn publish(&self, model: impl IntoFrozenModel) {
        let mut next = model.into_frozen();
        let mut current = self.shared.model.write();
        std::mem::swap(&mut current.1, &mut next);
        current.0 += 1;
        self.shared.obs.hot_swaps.set(current.0);
        drop(current);
        // `next` now holds the retired snapshot: released here, unlocked.
    }

    /// Submit one query and block until its top-`k` prediction is ready —
    /// scored on this thread when a slot is free. Applies backpressure:
    /// blocks while the submission queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the server shuts down before responding;
    /// [`ServeError::Invalid`] for malformed queries (length mismatch,
    /// out-of-range feature index, non-finite feature value, `k == 0`).
    pub fn predict(
        &self,
        indices: &[u32],
        values: &[f32],
        k: usize,
    ) -> Result<Vec<u32>, ServeError> {
        self.submit(indices, values, k, true, None, 0)
    }

    /// [`BatchingServer::predict`] with a deadline: if `deadline` passes
    /// before the request reaches compute it is shed with
    /// [`ServeError::DeadlineExceeded`] — at admission when it arrives
    /// already expired or expires while parked on a full queue (no compute,
    /// no queue slot), or at pickup when it expires while queued. A request
    /// already being scored runs to completion (compute is never cancelled);
    /// the deadline bounds *queueing*, which is where overload latency
    /// lives.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] when the budget runs out pre-compute;
    /// otherwise as [`BatchingServer::predict`].
    pub fn predict_within(
        &self,
        indices: &[u32],
        values: &[f32],
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<u32>, ServeError> {
        self.submit(indices, values, k, true, deadline, 0)
    }

    /// Non-blocking-admission variant of [`BatchingServer::predict`]: if the
    /// submission queue is full the request is **shed** with
    /// [`ServeError::Overloaded`] instead of blocking the caller — the hook
    /// a network front-end needs to answer `RETRY_LATER` under overload
    /// rather than buffering without bound. Admission is the only
    /// difference: an admitted request still blocks until its response is
    /// ready.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity; otherwise
    /// as [`BatchingServer::predict`].
    pub fn try_predict(
        &self,
        indices: &[u32],
        values: &[f32],
        k: usize,
    ) -> Result<Vec<u32>, ServeError> {
        self.submit(indices, values, k, false, None, 0)
    }

    /// Non-blocking-admission variant of [`BatchingServer::predict_within`]:
    /// sheds on a full queue ([`ServeError::Overloaded`]) *and* on an
    /// exhausted deadline ([`ServeError::DeadlineExceeded`]) — the pair a
    /// network front-end needs to map overload to `RETRY_LATER` and stale
    /// requests to a typed deadline reply.
    ///
    /// # Errors
    ///
    /// As [`BatchingServer::try_predict`] plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn try_predict_within(
        &self,
        indices: &[u32],
        values: &[f32],
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<u32>, ServeError> {
        self.submit(indices, values, k, false, deadline, 0)
    }

    /// [`BatchingServer::try_predict_within`] for a traced request: a
    /// nonzero `trace_id` makes every stage this request passes through
    /// (admission, batch wait, retrieval, kernel, merge) record a span in
    /// the server's trace ring under that id. `trace_id == 0` is exactly
    /// `try_predict_within`.
    ///
    /// # Errors
    ///
    /// As [`BatchingServer::try_predict_within`].
    pub fn try_predict_traced(
        &self,
        indices: &[u32],
        values: &[f32],
        k: usize,
        deadline: Option<Instant>,
        trace_id: u64,
    ) -> Result<Vec<u32>, ServeError> {
        self.submit(indices, values, k, false, deadline, trace_id)
    }

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        indices: &[u32],
        values: &[f32],
        k: usize,
        block: bool,
        deadline: Option<Instant>,
        trace_id: u64,
    ) -> Result<Vec<u32>, ServeError> {
        if k == 0 {
            return Err(ServeError::Invalid("k must be positive".into()));
        }
        if indices.len() != values.len() {
            return Err(ServeError::Invalid(format!(
                "index/value length mismatch: {} vs {}",
                indices.len(),
                values.len()
            )));
        }
        let shared = &*self.shared;
        let obs = &shared.obs;
        let admit_start_us = obs.hub.ring().now_us();
        let ticket = Ticket {
            k,
            enqueued: Instant::now(),
            deadline,
            trace_id,
        };
        // Already expired on arrival: reject before taking a slot or a
        // queue place — compute would be pure waste.
        if deadline.is_some_and(|d| ticket.enqueued >= d) {
            obs.deadline_exceeded.inc();
            return Err(ServeError::DeadlineExceeded);
        }
        // Take a free slot (nobody is ahead: slot free ⇒ queue empty) or a
        // place in the queue.
        let admitted = {
            let mut st = shared.state.lock();
            loop {
                if st.closed {
                    return Err(ServeError::Closed);
                }
                if let Some(slot) = st.free.pop() {
                    break Admitted::Inline(slot);
                }
                if st.queue.len() < shared.config.queue_cap {
                    let (tx, rx) = mpsc::sync_channel(1);
                    st.queue.push_back(Queued {
                        indices: indices.to_vec(),
                        values: values.to_vec(),
                        ticket,
                        tx,
                    });
                    break Admitted::Queued(rx);
                }
                if !block {
                    obs.overloaded.inc();
                    return Err(ServeError::Overloaded(st.queue.len()));
                }
                // The budget bounds the park too: a request that never got
                // a queue place is shed when it lapses, not when the queue
                // happens to drain.
                let budget = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if budget.is_some_and(|b| b.is_zero()) {
                    obs.deadline_exceeded.inc();
                    return Err(ServeError::DeadlineExceeded);
                }
                st.parked += 1;
                match budget {
                    None => shared.not_full.wait(&mut st),
                    Some(b) => {
                        shared.not_full.wait_for(&mut st, b);
                    }
                }
                st.parked -= 1;
            }
        };
        // Admission: validation + taking the slot or the queue place
        // (waiting for a holder is the BatchWait stage).
        let admit_us = obs.hub.ring().now_us().saturating_sub(admit_start_us);
        obs.stage_admission.record(admit_us);
        obs.hub
            .ring()
            .record(trace_id, Stage::Admission, admit_start_us, admit_us);
        match admitted {
            Admitted::Inline(slot) => {
                obs.inline.inc();
                self.hold(slot, indices, values, ticket)
            }
            Admitted::Queued(rx) => match rx.recv() {
                Ok(Reply::Answer(response)) => response,
                Ok(Reply::Turn(slot)) => self.hold(slot, indices, values, ticket),
                Err(mpsc::RecvError) => Err(ServeError::Closed),
            },
        }
    }

    /// One holder session on the calling thread: score the caller's own
    /// request, then answer queued ones until the queue is empty (slot
    /// freed) or the `max_batch` / `max_wait` bound runs out (slot handed
    /// to the head waiter). Returns the caller's own response.
    fn hold(&self, mut slot: Slot, indices: &[u32], values: &[f32], ticket: Ticket) -> Response {
        let shared = &*self.shared;
        let obs = &shared.obs;
        let on_unwind = CloseOnUnwind(shared);
        // Pin the snapshot for the whole session (hot-swaps land between
        // sessions, never inside one). Shapes and the scratch's engine type
        // may differ across snapshots: a new epoch always means new scratch.
        let (epoch, model) = shared.model.read().clone();
        if slot.epoch != epoch {
            let scratch = model.make_scratch_any();
            slot = Slot { epoch, scratch };
        }
        let mut session = Session {
            obs,
            model: &*model,
            slot,
            scored: 0,
        };
        let own = session.score(indices, values, ticket);
        let own_ready = Instant::now();
        loop {
            let mut st = shared.state.lock();
            let Some(next) = st.queue.pop_front() else {
                st.free.push(session.slot);
                // A pop wakes one parked submitter, but one that wakes to
                // this free slot takes no queue place and wakes nobody in
                // turn: freeing the slot wakes everyone still parked.
                if st.parked > 0 {
                    shared.not_full.notify_all();
                }
                break;
            };
            let parked = st.parked;
            drop(st);
            if parked > 0 {
                shared.not_full.notify_one();
            }
            let within_bound = session.scored < shared.config.max_batch
                && own_ready.elapsed() < shared.config.max_wait;
            if within_bound {
                let response = session.score(&next.indices, &next.values, next.ticket);
                // A disappeared client (dropped receiver) is not an error.
                let _ = next.tx.send(Reply::Answer(response));
            } else if let Err(mpsc::SendError(Reply::Turn(back))) =
                next.tx.send(Reply::Turn(session.slot))
            {
                // The waiter is gone: the slot comes back inside the error.
                session.slot = back;
            } else {
                obs.slot_handoffs.inc();
                break;
            }
        }
        if session.scored > 0 {
            obs.batch_size.record(session.scored as u64);
        }
        std::mem::forget(on_unwind);
        own
    }

    /// Requests currently waiting in the submission queue (not including
    /// those being scored).
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Snapshot the request/latency counters.
    ///
    /// Counters are lock-free and a holder records them as it sends each
    /// response, so a response a queued client just received may precede
    /// its session's `slide_serve_batch_size` sample by nanoseconds.
    /// Quiesce traffic before comparing exact counts. Latency percentiles
    /// come from the bounded-memory registry histogram (p50/p99 within its
    /// 1/32 bucket error bound; mean/max exact).
    pub fn stats(&self) -> ServeStats {
        let (hot_swaps, precision) = {
            let current = self.shared.model.read();
            (current.0, current.1.precision().to_string())
        };
        let obs = &self.shared.obs;
        let served = obs.served.get();
        let batches = obs.batches.get();
        ServeStats {
            precision,
            served,
            errors: obs.errors.get(),
            deadline_exceeded: obs.deadline_exceeded.get(),
            batches,
            hot_swaps,
            mean_batch: if batches == 0 {
                0.0
            } else {
                served as f64 / batches as f64
            },
            latency: obs.latency_us.snapshot(),
        }
    }

    /// Zero every per-server instrument (e.g. after warmup).
    pub fn reset_stats(&self) {
        self.shared.obs.reset();
    }

    /// Stop accepting new requests. Requests already queued are still
    /// served (a queued request always has a live holder ahead of it);
    /// submitters parked on a full queue get [`ServeError::Closed`].
    pub fn close(&self) {
        self.shared.state.lock().closed = true;
        self.shared.not_full.notify_all();
    }
}

/// Armed for the length of a holder session and forgotten at its normal
/// end. If the model panics the holder's slot unwinds with it, and a lost
/// slot would strand every request queued behind it: close the server and
/// drop the queue instead, so each parked caller's sender goes away and it
/// gets [`ServeError::Closed`].
struct CloseOnUnwind<'a>(&'a ServerShared);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        let stranded = {
            let mut st = self.0.state.lock();
            st.closed = true;
            std::mem::take(&mut st.queue)
        };
        self.0.not_full.notify_all();
        drop(stranded);
    }
}

/// What one holder session scores with: the snapshot it pinned, the slot it
/// holds, and how many requests it has scored so far.
struct Session<'a> {
    obs: &'a ServeObs,
    model: &'a dyn FrozenModel,
    slot: Slot,
    scored: usize,
}

impl Session<'_> {
    /// Score one request on the calling thread — or shed it if its deadline
    /// lapsed before pickup — recording its stage times, spans and counters.
    /// The first request a session scores ticks `batches`, before its answer
    /// exists, so a client never observes `served > 0` with `batches == 0`.
    fn score(&mut self, indices: &[u32], values: &[f32], ticket: Ticket) -> Response {
        let obs = self.obs;
        if ticket.deadline.is_some_and(|d| Instant::now() >= d) {
            obs.deadline_exceeded.inc();
            return Err(ServeError::DeadlineExceeded);
        }
        if self.scored == 0 {
            obs.batches.inc();
        }
        self.scored += 1;
        // BatchWait: admission → this thread picking the request up (≈ 0
        // on the idle path).
        let pickup_us = obs.hub.ring().now_us();
        let wait_us = ticket.enqueued.elapsed().as_micros() as u64;
        obs.stage_batch_wait.record(wait_us);
        let mut stages = StageSample::default();
        let response = match self.model.validate_query(indices, values) {
            Ok(()) => {
                // Content-derived salt: the same query gets the same
                // active-set padding — so bit-identical top-k — on any
                // thread and any replica of a snapshot (failover answer
                // consistency; socket vs in-process parity tests).
                let salt = query_salt(indices, values, ticket.k);
                let x = SparseVecRef::new(indices, values);
                let scratch = self.slot.scratch.as_mut();
                Ok(self
                    .model
                    .predict_any_timed(x, ticket.k, scratch, salt, &mut stages))
            }
            Err(msg) => {
                obs.errors.inc();
                Err(ServeError::Invalid(msg))
            }
        };
        obs.stage_retrieval.record(stages.retrieval_us);
        obs.stage_kernel.record(stages.kernel_us);
        obs.stage_merge.record(stages.merge_us);
        // Spans in canonical pipeline order with synthesized sequential
        // starts from pickup — monotone by construction (attribution is by
        // stage, not by wall-clock interleaving). The ring ignores id 0.
        let mut start_us = pickup_us.saturating_sub(wait_us);
        for (stage, dur_us) in [
            (Stage::BatchWait, wait_us),
            (Stage::Retrieval, stages.retrieval_us),
            (Stage::Kernel, stages.kernel_us),
            (Stage::Merge, stages.merge_us),
        ] {
            let ring = obs.hub.ring();
            ring.record(ticket.trace_id, stage, start_us, dur_us);
            start_us += dur_us;
        }
        let latency_us = ticket.enqueued.elapsed().as_micros() as u64;
        obs.latency_us.record(latency_us);
        obs.served.inc();
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrozenNetwork;
    use slide_core::{LshConfig, Network, NetworkConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_frozen(seed: u64) -> FrozenNetwork {
        let mut cfg = NetworkConfig::standard(128, 16, 64);
        cfg.seed = seed;
        cfg.lsh = LshConfig {
            tables: 10,
            key_bits: 4,
            min_active: 16,
            ..Default::default()
        };
        FrozenNetwork::freeze(&Network::new(cfg).unwrap())
    }

    /// A response can precede its own counters by nanoseconds (see
    /// [`BatchingServer::stats`]); poll briefly until the expected request
    /// count lands.
    fn stats_when_served(server: &BatchingServer, served: u64) -> ServeStats {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = server.stats();
            if stats.served >= served || Instant::now() >= deadline {
                return stats;
            }
            std::thread::yield_now();
        }
    }

    fn batch_sizes(server: &BatchingServer) -> Arc<Histogram> {
        server.obs().registry().histogram("slide_serve_batch_size")
    }

    fn small_server(threads: usize, max_wait: Duration) -> BatchingServer {
        BatchingServer::start(
            tiny_frozen(1),
            BatchConfig {
                max_batch: 16,
                max_wait,
                queue_cap: 64,
                threads,
            },
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(BatchConfig::default().validate().is_ok());
        assert!(BatchConfig {
            max_batch: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BatchConfig {
            max_batch: 100,
            queue_cap: 10,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(
            BatchConfig {
                threads: 3,
                ..Default::default()
            }
            .effective_threads()
                == 3
        );
    }

    #[test]
    fn single_request_roundtrip() {
        let server = small_server(2, Duration::from_micros(200));
        let topk = server.predict(&[1, 17, 40], &[1.0, 0.5, -0.25], 5).unwrap();
        assert_eq!(topk.len(), 5);
        let stats = stats_when_served(&server, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.batches, 1);
        let sizes = batch_sizes(&server);
        assert_eq!((sizes.count(), sizes.max()), (1, 1));
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let server = Arc::new(small_server(2, Duration::from_millis(2)));
        let per_client = 25usize;
        let clients = 4usize;
        std::thread::scope(|scope| {
            for c in 0..clients {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    for i in 0..per_client {
                        let f = ((c * per_client + i) % 128) as u32;
                        let topk = server.predict(&[f], &[1.0], 3).unwrap();
                        assert_eq!(topk.len(), 3);
                    }
                });
            }
        });
        let stats = stats_when_served(&server, (clients * per_client) as u64);
        assert_eq!(stats.served, (clients * per_client) as u64);
        assert_eq!(stats.errors, 0);
        assert!(stats.latency.quantile(50.0) <= stats.latency.quantile(99.0));
        assert!(stats.latency.quantile(99.0) <= stats.latency.max);
    }

    #[test]
    fn invalid_queries_error_without_killing_the_server() {
        let server = small_server(2, Duration::from_micros(200));
        assert!(matches!(
            server.predict(&[0], &[1.0], 0),
            Err(ServeError::Invalid(_))
        ));
        assert!(matches!(
            server.predict(&[0, 1], &[1.0], 2),
            Err(ServeError::Invalid(_))
        ));
        // Out-of-range index is caught by the worker, not the submitter.
        let err = server.predict(&[9999], &[1.0], 2).unwrap_err();
        assert!(matches!(err, ServeError::Invalid(_)), "{err}");
        // The server still works.
        assert_eq!(server.predict(&[3], &[1.0], 2).unwrap().len(), 2);
        let stats = stats_when_served(&server, 2);
        assert_eq!(stats.errors, 1); // only the worker-detected one is counted
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn non_finite_feature_values_are_invalid_not_ranked() {
        // Every logit would be NaN/inf and the "top-k" a ranking of garbage
        // reported as success.
        let server = small_server(2, Duration::from_micros(200));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = server.predict(&[1, 17], &[1.0, bad], 5).unwrap_err();
            assert!(matches!(err, ServeError::Invalid(_)), "{bad}: {err}");
        }
        assert_eq!(server.predict(&[1, 17], &[1.0, 0.5], 5).unwrap().len(), 5);
        let stats = stats_when_served(&server, 4);
        assert_eq!((stats.errors, stats.served), (3, 4));
    }

    #[test]
    fn close_rejects_new_requests() {
        let server = small_server(1, Duration::from_micros(100));
        server.predict(&[1], &[1.0], 1).unwrap();
        server.close();
        assert_eq!(server.predict(&[1], &[1.0], 1), Err(ServeError::Closed));
    }

    #[test]
    fn publish_swaps_the_snapshot() {
        let server = small_server(1, Duration::from_micros(100));
        let before = Arc::as_ptr(&server.current());
        server.publish(tiny_frozen(2));
        assert_ne!(before, Arc::as_ptr(&server.current()));
        assert_eq!(server.stats().hot_swaps, 1);
        // Still serving after the swap.
        assert_eq!(server.predict(&[5], &[1.0], 4).unwrap().len(), 4);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let server = small_server(1, Duration::from_micros(100));
        server.predict(&[1], &[1.0], 1).unwrap();
        server.reset_stats();
        let stats = server.stats();
        assert_eq!(stats.served, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(batch_sizes(&server).count(), 0);
    }

    /// What a [`SlowModel`] does on the scoring thread before each
    /// prediction, given the query's feature indices.
    trait BeforePredict: std::fmt::Debug + Send + Sync + 'static {
        fn before_predict(&self, indices: &[u32]);
    }

    /// Sleep — slow enough that a flood deterministically backs the
    /// admission queue up.
    impl BeforePredict for Duration {
        fn before_predict(&self, _: &[u32]) {
            std::thread::sleep(*self);
        }
    }

    /// The hook of the tests that force an interleaving: logs which thread
    /// started scoring which query (by its first feature index), then blocks
    /// until [`Probe::open`], then panics on the marked query.
    #[derive(Debug, Default)]
    struct Probe {
        shut: Mutex<bool>,
        opened: Condvar,
        calls: Mutex<Vec<(std::thread::ThreadId, u32)>>,
        panic_on: Option<u32>,
    }

    impl Probe {
        fn gated(panic_on: Option<u32>) -> Arc<Probe> {
            Arc::new(Probe {
                shut: Mutex::new(true),
                panic_on,
                ..Default::default()
            })
        }

        fn open(&self) {
            *self.shut.lock() = false;
            self.opened.notify_all();
        }

        fn calls(&self) -> Vec<(std::thread::ThreadId, u32)> {
            self.calls.lock().clone()
        }
    }

    impl BeforePredict for Arc<Probe> {
        fn before_predict(&self, indices: &[u32]) {
            self.calls
                .lock()
                .push((std::thread::current().id(), indices[0]));
            let mut shut = self.shut.lock();
            while *shut {
                self.opened.wait(&mut shut);
            }
            drop(shut);
            assert_ne!(self.panic_on, Some(indices[0]), "probe: marked query");
        }
    }

    /// A FrozenModel wrapper that runs a hook before each prediction.
    #[derive(Debug)]
    struct SlowModel<H>(FrozenNetwork, H);

    impl<H: BeforePredict> FrozenModel for SlowModel<H> {
        fn precision(&self) -> &'static str {
            self.0.precision_label()
        }
        fn input_dim(&self) -> usize {
            self.0.input_dim()
        }
        fn output_dim(&self) -> usize {
            self.0.output_dim()
        }
        fn arena_bytes(&self) -> usize {
            self.0.arena_bytes()
        }
        fn validate_query(&self, indices: &[u32], values: &[f32]) -> Result<(), String> {
            self.0.validate_query(indices, values)
        }
        fn make_scratch_any(&self) -> Box<dyn Any + Send> {
            Box::new(self.0.make_scratch())
        }
        fn predict_any(
            &self,
            x: SparseVecRef<'_>,
            k: usize,
            scratch: &mut (dyn Any + Send),
            salt: u64,
        ) -> Vec<u32> {
            self.1.before_predict(x.indices);
            let scratch = scratch.downcast_mut().expect("slow-model scratch");
            self.0.predict_sparse(x, k, scratch, salt)
        }
    }

    fn wait_until(what: &str, cond: &dyn Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < give_up, "never saw {what}");
            std::thread::yield_now();
        }
    }

    /// A one-slot server over a shut [`Probe`] whose only slot is already
    /// held: the returned holder thread (query `[holder_query]`) is inside
    /// the model and stays there until the probe opens.
    fn gated_holder(
        config: BatchConfig,
        holder_query: u32,
        panic_on: Option<u32>,
    ) -> (
        Arc<BatchingServer>,
        Arc<Probe>,
        std::thread::JoinHandle<Response>,
    ) {
        assert_eq!(config.threads, 1);
        let probe = Probe::gated(panic_on);
        let model = SlowModel(tiny_frozen(6), Arc::clone(&probe));
        let server = Arc::new(BatchingServer::start(model, config).unwrap());
        let holder = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.predict(&[holder_query], &[1.0], 2))
        };
        wait_until("the holder inside the model", &|| probe.calls().len() == 1);
        (server, probe, holder)
    }

    /// Spawn a submitter and return once its request is in the queue, so
    /// consecutive calls fix the FIFO order.
    fn park(
        server: &Arc<BatchingServer>,
        submit: impl FnOnce(&BatchingServer) -> Response + Send + 'static,
    ) -> std::thread::JoinHandle<Response> {
        let before = server.queue_len();
        let handle = {
            let server = Arc::clone(server);
            std::thread::spawn(move || submit(&server))
        };
        wait_until("the submitter in the queue", &|| {
            server.queue_len() == before + 1
        });
        handle
    }

    fn park_queries(
        server: &Arc<BatchingServer>,
        queries: std::ops::RangeInclusive<u32>,
    ) -> Vec<std::thread::JoinHandle<Response>> {
        queries
            .map(|q| park(server, move |s| s.predict(&[q], &[1.0], 2)))
            .collect()
    }

    fn scored_queries(probe: &Probe) -> Vec<u32> {
        probe.calls().iter().map(|call| call.1).collect()
    }

    #[test]
    fn an_idle_server_scores_on_the_calling_thread() {
        let probe = Arc::new(Probe::default());
        let server = BatchingServer::start(
            SlowModel(tiny_frozen(6), Arc::clone(&probe)),
            BatchConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(server.predict(&[7], &[1.0], 3).unwrap().len(), 3);
        assert_eq!(probe.calls(), [(std::thread::current().id(), 7)]);
        let obs = &server.shared.obs;
        assert_eq!((obs.inline.get(), obs.slot_handoffs.get()), (1, 0));
        assert_eq!(server.stats().batches, 1);
    }

    #[test]
    fn a_holder_answers_whoever_queued_behind_it_in_fifo_order() {
        let parked = 5u32;
        let (server, probe, holder) = gated_holder(
            BatchConfig {
                max_batch: 16,
                max_wait: Duration::from_secs(3600),
                queue_cap: 16,
                threads: 1,
            },
            0,
            None,
        );
        let waiters = park_queries(&server, 1..=parked);
        let holder_id = holder.thread().id();
        probe.open();
        for thread in waiters.into_iter().chain([holder]) {
            assert_eq!(thread.join().unwrap().unwrap().len(), 2);
        }
        let in_order: Vec<_> = (0..=parked).map(|q| (holder_id, q)).collect();
        assert_eq!(probe.calls(), in_order, "one thread, arrival order");
        let stats = server.stats();
        assert_eq!((stats.served, stats.batches), (parked as u64 + 1, 1));
        let sizes = batch_sizes(&server);
        assert_eq!((sizes.count(), sizes.max()), (1, parked as u64 + 1));
        let obs = &server.shared.obs;
        assert_eq!((obs.inline.get(), obs.slot_handoffs.get()), (1, 0));
    }

    #[test]
    fn max_batch_and_max_wait_bound_how_long_one_caller_serves_others() {
        // Holder + six parked. `max_batch: 2`: sessions of 2, 2, 2, 1 and a
        // hand-off between each; `max_wait: ZERO`: nobody serves anybody.
        let forever = Duration::from_secs(3600);
        for (max_batch, max_wait, sessions, biggest) in
            [(2, forever, 4, 2), (16, Duration::ZERO, 7, 1)]
        {
            let (server, probe, holder) = gated_holder(
                BatchConfig {
                    max_batch,
                    max_wait,
                    queue_cap: 16,
                    threads: 1,
                },
                0,
                None,
            );
            let waiters = park_queries(&server, 1..=6);
            probe.open();
            for thread in waiters.into_iter().chain([holder]) {
                assert_eq!(thread.join().unwrap().unwrap().len(), 2);
            }
            assert_eq!(scored_queries(&probe), [0, 1, 2, 3, 4, 5, 6], "each once");
            let stats = server.stats();
            assert_eq!((stats.served, stats.batches), (7, sessions));
            let sizes = batch_sizes(&server);
            assert_eq!((sizes.count(), sizes.max()), (sessions, biggest));
            assert_eq!(server.shared.obs.slot_handoffs.get(), sessions - 1);
            assert_eq!(server.shared.state.lock().free.len(), 1, "slot returned");
        }
    }

    #[test]
    fn a_waiter_handed_the_slot_past_its_deadline_sheds_itself_and_passes_it_on() {
        let (server, probe, holder) = gated_holder(
            BatchConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_cap: 16,
                threads: 1,
            },
            0,
            None,
        );
        let deadline = Instant::now() + Duration::from_millis(250);
        let doomed = park(&server, move |s| {
            s.predict_within(&[1], &[1.0], 2, Some(deadline))
        });
        let behind = park_queries(&server, 2..=2);
        wait_until("the deadline", &|| Instant::now() > deadline);
        probe.open();
        assert_eq!(doomed.join().unwrap(), Err(ServeError::DeadlineExceeded));
        for thread in behind.into_iter().chain([holder]) {
            assert_eq!(thread.join().unwrap().unwrap().len(), 2);
        }
        assert_eq!(
            scored_queries(&probe),
            [0, 2],
            "the doomed one never scored"
        );
        let stats = server.stats();
        assert_eq!((stats.served, stats.deadline_exceeded), (2, 1));
        assert_eq!(server.shared.obs.slot_handoffs.get(), 2);
        assert_eq!(server.shared.state.lock().free.len(), 1, "slot returned");
    }

    #[test]
    fn submitters_parked_on_a_full_queue_are_all_woken_once_the_slot_is_free() {
        // A pop wakes one parked submitter; one that wakes to a free slot
        // scores inline, pops nothing and so wakes nobody. The two queued
        // requests are shed at pickup (no compute), so the holder empties
        // the queue and frees the slot before either woken submitter runs:
        // the rest must be woken by the freeing itself, not left asleep
        // beside an idle server.
        let (server, probe, holder) = gated_holder(
            BatchConfig {
                max_batch: 2,
                max_wait: Duration::from_secs(3600),
                queue_cap: 2,
                threads: 1,
            },
            0,
            None,
        );
        let deadline = Instant::now() + Duration::from_millis(100);
        let doomed: Vec<_> = (1..=2)
            .map(|q| {
                park(&server, move |s| {
                    s.predict_within(&[q], &[1.0], 2, Some(deadline))
                })
            })
            .collect();
        let (tx, answers) = mpsc::channel();
        for q in 3..=6u32 {
            let (server, tx) = (Arc::clone(&server), tx.clone());
            std::thread::spawn(move || tx.send(server.predict(&[q], &[1.0], 2)));
        }
        wait_until("four submitters parked", &|| {
            server.shared.state.lock().parked == 4
        });
        wait_until("the deadline", &|| Instant::now() > deadline);
        probe.open();
        for _ in 3..=6 {
            let answer = answers
                .recv_timeout(Duration::from_secs(10))
                .expect("a parked submitter never woke");
            assert_eq!(answer.unwrap().len(), 2);
        }
        for thread in doomed {
            assert_eq!(thread.join().unwrap(), Err(ServeError::DeadlineExceeded));
        }
        assert_eq!(holder.join().unwrap().unwrap().len(), 2);
        let st = server.shared.state.lock();
        assert_eq!((st.free.len(), st.queue.len(), st.parked), (1, 0, 0));
    }

    #[test]
    fn a_panicking_model_closes_the_server_and_nobody_hangs() {
        let (server, probe, holder) = gated_holder(
            BatchConfig {
                max_batch: 2,
                max_wait: Duration::from_secs(3600),
                queue_cap: 2,
                threads: 1,
            },
            99,
            Some(99),
        );
        let mut waiters = park_queries(&server, 1..=2);
        // Parked on the full queue, or arriving after the panic: `Closed`
        // either way.
        let late = Arc::clone(&server);
        waiters.push(std::thread::spawn(move || late.predict(&[3], &[1.0], 2)));
        probe.open();
        assert!(holder.join().is_err(), "the holder's thread unwinds");
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Err(ServeError::Closed));
        }
        assert_eq!(server.predict(&[4], &[1.0], 2), Err(ServeError::Closed));
        assert_eq!((server.queue_len(), server.stats().served), (0, 0));
    }

    #[test]
    fn two_slots_under_sixteen_clients_and_a_publish_answer_as_the_engine() {
        let model = tiny_frozen(7);
        let mut scratch = model.make_scratch_any();
        let queries: Vec<(Vec<u32>, Vec<f32>)> = (0..64u32)
            .map(|q| (vec![q, (q * 7 + 3) % 128], vec![1.0, -0.5]))
            .collect();
        let expected: Vec<Vec<u32>> = queries
            .iter()
            .map(|(i, v)| {
                let x = SparseVecRef::new(i, v);
                model.predict_any(x, 4, scratch.as_mut(), query_salt(i, v, 4))
            })
            .collect();
        let server = BatchingServer::start(
            model,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(200),
                queue_cap: 64,
                threads: 2,
            },
        )
        .unwrap();
        let (clients, per_client) = (16usize, 200usize);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for c in 0..clients {
                let (server, queries, expected, done) = (&server, &queries, &expected, &done);
                scope.spawn(move || {
                    for i in 0..per_client {
                        let q = (c * 31 + i * 7) % queries.len();
                        let (indices, values) = &queries[q];
                        let got = server.predict(indices, values, 4).unwrap();
                        assert_eq!(got, expected[q], "client {c} request {i}");
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // The same weights behind a new `Arc`: every slot rebuilds its
            // scratch mid-run and the answers must not move.
            wait_until("half the requests", &|| {
                done.load(Ordering::Relaxed) >= clients * per_client / 2
            });
            server.publish(tiny_frozen(7));
        });
        let stats = server.stats();
        assert_eq!(stats.served, (clients * per_client) as u64);
        assert_eq!((stats.errors, stats.hot_swaps), (0, 1));
        assert!(batch_sizes(&server).max() <= 4);
        assert_eq!(server.queue_len(), 0);
        assert_eq!(server.shared.state.lock().free.len(), 2, "both slots free");
        let inline = server.shared.obs.inline.get();
        server.predict(&[1], &[1.0], 2).unwrap();
        assert_eq!(server.shared.obs.inline.get(), inline + 1);
    }

    #[test]
    fn try_predict_sheds_when_the_queue_is_full() {
        // One worker scoring 5ms-per-request batches of 1, queue depth 2: a
        // burst of non-blocking submissions must hit Overloaded while the
        // blocking path would have parked instead.
        let server = Arc::new(
            BatchingServer::start(
                SlowModel(tiny_frozen(3), Duration::from_millis(5)),
                BatchConfig {
                    max_batch: 1,
                    max_wait: Duration::ZERO,
                    queue_cap: 2,
                    threads: 1,
                },
            )
            .unwrap(),
        );
        let sheds = AtomicUsize::new(0);
        let oks = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for c in 0..8 {
                let server = Arc::clone(&server);
                let (sheds, oks) = (&sheds, &oks);
                scope.spawn(move || {
                    for i in 0..6u32 {
                        match server.try_predict(&[(c * 7 + i) % 128], &[1.0], 2) {
                            Ok(ids) => {
                                assert_eq!(ids.len(), 2);
                                oks.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::Overloaded(depth)) => {
                                assert!(depth >= 2, "shed below capacity: {depth}");
                                sheds.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
        });
        assert!(
            sheds.load(Ordering::Relaxed) > 0,
            "48 floods over a depth-2 queue never shed"
        );
        assert!(oks.load(Ordering::Relaxed) > 0, "nothing got through");
        // The server is still healthy after shedding.
        assert_eq!(server.predict(&[1], &[1.0], 3).unwrap().len(), 3);
    }

    #[test]
    fn expired_deadline_is_rejected_at_admission_without_compute() {
        let server = small_server(1, Duration::from_micros(100));
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            server.predict_within(&[1], &[1.0], 2, Some(past)),
            Err(ServeError::DeadlineExceeded)
        );
        let stats = server.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.served, 0, "expired request must never reach compute");
        assert_eq!(stats.errors, 0);
        // A live deadline is honoured normally.
        let topk = server
            .predict_within(
                &[1],
                &[1.0],
                2,
                Some(Instant::now() + Duration::from_secs(5)),
            )
            .unwrap();
        assert_eq!(topk.len(), 2);
    }

    #[test]
    fn deadline_expiring_in_queue_is_shed_from_the_drain_loop() {
        // One worker, 25ms per prediction, batches of 1: a request queued
        // behind a slow one with a 2ms budget must be shed when the
        // holder pops it, not scored 25ms late.
        let server = Arc::new(
            BatchingServer::start(
                SlowModel(tiny_frozen(4), Duration::from_millis(25)),
                BatchConfig {
                    max_batch: 1,
                    max_wait: Duration::ZERO,
                    queue_cap: 16,
                    threads: 1,
                },
            )
            .unwrap(),
        );
        std::thread::scope(|scope| {
            let blocker = {
                let server = Arc::clone(&server);
                scope.spawn(move || server.predict(&[1], &[1.0], 2))
            };
            // Let the blocker reach the worker before queueing the doomed
            // request behind it.
            std::thread::sleep(Duration::from_millis(8));
            let doomed = server.predict_within(
                &[2],
                &[1.0],
                2,
                Some(Instant::now() + Duration::from_millis(2)),
            );
            assert_eq!(doomed, Err(ServeError::DeadlineExceeded));
            assert_eq!(blocker.join().unwrap().unwrap().len(), 2);
        });
        let stats = stats_when_served(&server, 1);
        assert_eq!(stats.served, 1, "only the undeadlined request was scored");
        assert!(stats.deadline_exceeded >= 1);
        // The server is still healthy after shedding.
        assert_eq!(server.predict(&[3], &[1.0], 2).unwrap().len(), 2);
    }

    #[test]
    fn deadline_expiring_while_parked_on_a_full_queue_is_shed_without_a_slot() {
        // One worker, 40ms per prediction, batches of 1, queue depth 2, eight
        // undeadlined submitters: one is being scored, two hold the queue
        // slots, the rest are parked — the queue stays full. A blocking
        // request with a 5ms budget must come back when the budget lapses,
        // not when a 40ms prediction finally frees a slot.
        let predict_time = Duration::from_millis(40);
        let server = Arc::new(
            BatchingServer::start(
                SlowModel(tiny_frozen(5), predict_time),
                BatchConfig {
                    max_batch: 1,
                    max_wait: Duration::ZERO,
                    queue_cap: 2,
                    threads: 1,
                },
            )
            .unwrap(),
        );
        let blockers = 8u32;
        std::thread::scope(|scope| {
            for c in 0..blockers {
                let server = Arc::clone(&server);
                scope.spawn(move || server.predict(&[c], &[1.0], 2).unwrap());
            }
            // Submit right after a prediction starts (a batch is counted
            // before fan-out) with the queue refilled by a parked submitter:
            // the next slot is then a whole prediction away.
            wait_until("a full queue", &|| server.queue_len() == 2);
            let batches = server.stats().batches;
            wait_until("the next batch", &|| server.stats().batches > batches);
            wait_until("the queue refill", &|| server.queue_len() == 2);
            let submitted = Instant::now();
            let doomed = server.predict_within(
                &[100],
                &[1.0],
                2,
                Some(submitted + Duration::from_millis(5)),
            );
            let took = submitted.elapsed();
            assert_eq!(doomed, Err(ServeError::DeadlineExceeded));
            assert!(
                took < predict_time,
                "blocked {took:?} on a 5ms budget: bounded by queue drain, not by the deadline"
            );
        });
        let stats = stats_when_served(&server, blockers as u64);
        assert_eq!(
            stats.served, blockers as u64,
            "the shed request was counted"
        );
        assert_eq!(stats.deadline_exceeded, 1);
    }

    #[test]
    fn responses_are_deterministic_across_batch_positions() {
        // Content-derived salts: the same query answered alone and answered
        // inside a crowded batch returns bit-identical ids.
        let server = Arc::new(small_server(2, Duration::from_millis(2)));
        let expected = server.predict(&[3, 9], &[1.0, -0.5], 4).unwrap();
        std::thread::scope(|scope| {
            for c in 0..6 {
                let server = Arc::clone(&server);
                let expected = expected.clone();
                scope.spawn(move || {
                    for i in 0..20u32 {
                        // Interleave noise queries so the probe lands at
                        // varying batch offsets.
                        server.predict(&[(c * 11 + i) % 128], &[0.5], 2).unwrap();
                        let again = server.predict(&[3, 9], &[1.0, -0.5], 4).unwrap();
                        assert_eq!(again, expected, "client {c} iter {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn queue_len_reports_backlog() {
        let server = small_server(1, Duration::from_micros(100));
        assert_eq!(server.queue_len(), 0);
        server.predict(&[1], &[1.0], 1).unwrap();
        assert_eq!(server.queue_len(), 0); // drained after the response
    }

    #[test]
    fn query_salt_is_content_addressed() {
        let a = query_salt(&[1, 2, 3], &[1.0, 2.0, 3.0], 5);
        assert_eq!(a, query_salt(&[1, 2, 3], &[1.0, 2.0, 3.0], 5));
        assert_ne!(a, query_salt(&[1, 2, 4], &[1.0, 2.0, 3.0], 5));
        assert_ne!(a, query_salt(&[1, 2, 3], &[1.0, 2.0, 3.5], 5));
        assert_ne!(a, query_salt(&[1, 2, 3], &[1.0, 2.0, 3.0], 6));
        assert_ne!(query_salt(&[], &[], 1), query_salt(&[], &[], 2));
    }

    #[test]
    fn histogram_p99_stays_within_bucket_error_under_overflow() {
        // Regression for the capped-sample-vector bias this histogram path
        // replaced: the old ring kept the FIRST `cap` samples, so a
        // workload whose tail arrives late reported a p99 blind to it.
        // Feed 10× a notional cap with the heavy tail in the late 90%, and
        // require the histogram p99 to track exact `percentile_us` within
        // the bucket error bound.
        let notional_cap = 10_000usize;
        let total = 10 * notional_cap;
        let hist = Histogram::default();
        let mut samples = Vec::with_capacity(total);
        let mut state = 0xFEED_FACE_CAFE_BEEFu64;
        for i in 0..total {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // First 10% (what a first-N cap would keep): tight 100–300µs.
            // Remaining 90%: same body plus a 2% tail out to ~50ms.
            let v = if i < notional_cap {
                100 + state % 200
            } else if state.is_multiple_of(50) {
                10_000 + (state >> 32) % 40_000
            } else {
                100 + state % 200
            };
            hist.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        let exact_p99 = percentile_us(&samples, 99.0);
        assert!(exact_p99 >= 10_000, "workload tail not heavy enough");
        // A first-N-capped estimate would sit in the 100–300µs body.
        let capped_estimate = percentile_us(&samples[..notional_cap], 99.0);
        assert!(capped_estimate < 400, "cap bias precondition broken");
        for q in [50.0, 99.0] {
            let est = hist.quantile(q);
            let exact = percentile_us(&samples, q);
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            let allowed = (exact as f64 * Histogram::RELATIVE_ERROR_BOUND).ceil() as u64 + 1;
            assert!(
                est - exact <= allowed,
                "q={q}: est {est} off exact {exact} by more than {allowed}"
            );
        }
        assert_eq!(hist.count(), total as u64);
        assert_eq!(hist.max(), *samples.last().unwrap());
    }

    #[test]
    fn traced_request_records_replica_stage_spans() {
        let server = small_server(1, Duration::from_micros(100));
        let trace = slide_obs::derive_trace_id(0xA5A5, 1);
        let topk = server
            .try_predict_traced(&[1, 17], &[1.0, 0.5], 3, None, trace)
            .unwrap();
        assert_eq!(topk.len(), 3);
        let spans = server.obs().ring().spans_for(trace);
        // One span per replica-side stage the batching server owns.
        for stage in [
            Stage::Admission,
            Stage::BatchWait,
            Stage::Retrieval,
            Stage::Kernel,
            Stage::Merge,
        ] {
            assert_eq!(
                spans.iter().filter(|s| s.stage == stage).count(),
                1,
                "stage {} not recorded exactly once: {spans:?}",
                stage.as_str()
            );
        }
        // Untraced requests leave the ring untouched.
        server.predict(&[2], &[1.0], 2).unwrap();
        assert_eq!(server.obs().ring().snapshot().len(), spans.len());
    }

    #[test]
    fn stage_histograms_fill_for_untraced_traffic() {
        let server = small_server(1, Duration::from_micros(100));
        server.predict(&[1], &[1.0], 2).unwrap();
        stats_when_served(&server, 1);
        let text = server.obs().render();
        assert!(text.contains("slide_stage_us{stage=\"kernel\""), "{text}");
        assert!(
            text.contains("slide_stage_us_count{stage=\"batch_wait\"} 1"),
            "{text}"
        );
        assert!(text.contains("slide_serve_requests_total 1"), "{text}");
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[7], 50.0), 7);
        assert_eq!(percentile_us(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 50.0), 50);
        assert_eq!(percentile_us(&v, 99.0), 99);
        assert_eq!(percentile_us(&v, 100.0), 100);
    }
}
