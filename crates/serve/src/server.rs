//! The micro-batching request pipeline.
//!
//! Serving heavy traffic one request at a time wastes the batch-level
//! parallelism the SLIDE kernels and worker pool were built for. A
//! [`BatchingServer`] puts a bounded submission queue in front of a
//! [`FrozenNetwork`]: concurrent callers block in [`BatchingServer::predict`]
//! while a dispatcher thread coalesces their requests into micro-batches —
//! closing a batch when it reaches `max_batch` requests *or* `max_wait` has
//! elapsed since the batch opened, whichever comes first — and fans each
//! batch across a [`slide_core::ThreadPool`] with per-worker scratch.
//!
//! The model itself sits behind `RwLock<Arc<dyn FrozenModel>>`: a background
//! trainer can [`BatchingServer::publish`] a fresh snapshot at any moment —
//! of *any* layout or shard plan (f32 [`crate::FrozenNetwork`], int8
//! [`crate::QuantizedFrozenNetwork`], or whatever else implements
//! [`crate::FrozenModel`]) — and in-flight traffic migrates to it at the
//! next batch boundary, without dropping or erroring a single request (the
//! write lock is held only for a pointer swap; workers run on a cloned
//! `Arc`, never inside the lock, and rebuild their engine-owned scratch at
//! the first batch on a new snapshot).

use crate::error::{ServeBuildError, ServeError};
use crate::model::{FrozenModel, IntoFrozenModel};
use parking_lot::{Condvar, Mutex, RwLock};
use slide_core::ThreadPool;
use slide_mem::SparseVecRef;
use slide_obs::{Counter, Gauge, Histogram, ObsHub, Stage, StageSample};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tuning knobs for the micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Close a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// Close a batch this long after its first request arrived, even if it
    /// is not full (the latency/throughput trade-off knob).
    pub max_wait: Duration,
    /// Bound on queued requests; submitters block (backpressure) when full.
    pub queue_cap: usize,
    /// Worker threads scoring batches (0 = all available cores).
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

struct Request {
    indices: Vec<u32>,
    values: Vec<f32>,
    k: usize,
    enqueued: Instant,
    /// Absolute point past which the answer is worthless to the caller;
    /// `None` = wait forever. The dispatcher sheds expired requests from the
    /// drain loop *before* they reach a worker.
    deadline: Option<Instant>,
    /// Nonzero for traced requests: per-stage spans land in the server's
    /// trace ring under this id (0 = untraced, spans skipped).
    trace_id: u64,
    tx: mpsc::SyncSender<Response>,
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

struct Queue {
    items: VecDeque<Request>,
    closed: bool,
}

/// The server's registry-backed instruments, `Arc`s cached at start so the
/// hot path never touches the registry's name map. The latency histogram —
/// not a capped sample vector — is the source of truth for percentiles:
/// bounded memory at any traffic volume, with tail accuracy bounded by
/// [`Histogram::RELATIVE_ERROR_BOUND`] instead of silently degrading once
/// a sample cap is hit.
struct ServeObs {
    hub: Arc<ObsHub>,
    /// Requests answered (including error responses).
    served: Arc<Counter>,
    errors: Arc<Counter>,
    /// Requests shed because their deadline expired before compute
    /// (at admission, in the drain loop, or at the worker's last check).
    /// Kept separate from `served`/`errors`: a shed request was never
    /// answered with a prediction or a validation verdict.
    deadline_exceeded: Arc<Counter>,
    batches: Arc<Counter>,
    /// Requests per executed micro-batch.
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
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    model: RwLock<Arc<dyn FrozenModel>>,
    obs: ServeObs,
    swap_epoch: AtomicU64,
    config: BatchConfig,
    threads: usize,
}

/// Sendable pointer to per-worker slots; each pool worker dereferences only
/// its own index, so access is disjoint.
#[derive(Clone, Copy)]
struct SlotPtr {
    base: *mut WorkerSlot,
    len: usize,
}

unsafe impl Send for SlotPtr {}
unsafe impl Sync for SlotPtr {}

impl SlotPtr {
    /// Exclusive access to worker `i`'s slot.
    ///
    /// # Safety
    ///
    /// Each index must be used by at most one thread at a time (the pool
    /// hands every worker a distinct id) and the backing slice must outlive
    /// the parallel section.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut WorkerSlot {
        assert!(i < self.len, "SlotPtr: worker index out of range");
        &mut *self.base.add(i)
    }
}

struct WorkerSlot {
    /// Engine-owned query scratch, opaque to the server (built by —
    /// and downcast inside — the snapshot that created it).
    scratch: Box<dyn Any + Send>,
}

/// Summary of a latency distribution, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Worst observed.
    pub max_us: u64,
    /// Samples summarized.
    pub samples: u64,
}

impl LatencySummary {
    /// Summarize an unsorted sample set (empty input yields all zeros).
    pub fn from_unsorted(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencySummary {
            p50_us: percentile_us(&samples, 50.0),
            p99_us: percentile_us(&samples, 99.0),
            mean_us: if samples.is_empty() {
                0.0
            } else {
                samples.iter().sum::<u64>() as f64 / samples.len() as f64
            },
            max_us: samples.last().copied().unwrap_or(0),
            samples: samples.len() as u64,
        }
    }
}

/// The content-derived retrieval salt the batching server hands the model
/// for a query: a splitmix64 fold over `(indices, value bits, k)`. Using
/// query *content* rather than batch position makes serving deterministic —
/// the same query produces bit-identical top-k whatever batch it lands in
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Micro-batches executed.
    pub batches: u64,
    /// Snapshots published over the server's lifetime.
    pub hot_swaps: u64,
    /// Mean executed batch size (`served / batches`); the distribution is
    /// the `slide_serve_batch_size` histogram in [`BatchingServer::obs`].
    pub mean_batch: f64,
    /// End-to-end request latency (enqueue → response ready).
    pub latency: LatencySummary,
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
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl BatchingServer {
    /// Start the dispatcher thread serving `model` under `config`. The
    /// model may be any [`FrozenModel`] — the f32 [`crate::FrozenNetwork`],
    /// a quantized engine — or an already-erased `Arc<dyn FrozenModel>`
    /// (e.g. one loaded from a snapshot): [`IntoFrozenModel`] accepts both,
    /// so there is no separate `start_dyn`.
    ///
    /// # Errors
    ///
    /// [`ServeBuildError::InvalidBatchConfig`] with the message from
    /// [`BatchConfig::validate`], or [`ServeBuildError::Spawn`] if the
    /// dispatcher thread could not be created.
    pub fn start(
        model: impl IntoFrozenModel,
        config: BatchConfig,
    ) -> Result<Self, ServeBuildError> {
        let model = model.into_frozen();
        config
            .validate()
            .map_err(ServeBuildError::InvalidBatchConfig)?;
        let threads = config.effective_threads();
        let shared = Arc::new(ServerShared {
            queue: Mutex::new(Queue {
                items: VecDeque::with_capacity(config.queue_cap),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            model: RwLock::new(model),
            obs: ServeObs::new(ObsHub::shared()),
            swap_epoch: AtomicU64::new(0),
            config,
            threads,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("slide-serve-dispatch".into())
                .spawn(move || dispatcher_loop(&shared))
                .map_err(|e| ServeBuildError::Spawn(e.to_string()))?
        };
        Ok(BatchingServer {
            shared,
            dispatcher: Some(dispatcher),
        })
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
        self.shared.model.read().clone()
    }

    /// Publish a new snapshot; traffic migrates at the next batch boundary.
    /// The write lock is held only for the pointer swap, so publishing never
    /// stalls readers for longer than an `Arc` assignment. The new snapshot
    /// need not match the old one's precision (or engine type): workers
    /// rebuild their engine-owned scratch at the first batch on the new
    /// model, so f32 → i8 → f32 swaps are invisible to in-flight clients.
    /// Like [`BatchingServer::start`], accepts a concrete engine or an
    /// already-erased `Arc<dyn FrozenModel>`.
    pub fn publish(&self, model: impl IntoFrozenModel) {
        *self.shared.model.write() = model.into_frozen();
        let epoch = self.shared.swap_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.shared.obs.hot_swaps.set(epoch);
    }

    /// Submit one query and block until its top-`k` prediction is ready.
    /// Applies backpressure: blocks while the submission queue is full.
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
    /// no queue slot), or from the dispatcher's drain loop when it expires
    /// while queued. A request already being scored runs to completion
    /// (compute is never cancelled mid-batch); the deadline bounds
    /// *queueing*, which is where overload latency lives.
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
        let obs = &self.shared.obs;
        let admit_start_us = obs.hub.ring().now_us();
        // Already expired on arrival: reject before taking a queue slot —
        // the caller's budget is gone, compute would be pure waste.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            obs.deadline_exceeded.inc();
            return Err(ServeError::DeadlineExceeded);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        let request = Request {
            indices: indices.to_vec(),
            values: values.to_vec(),
            k,
            enqueued: Instant::now(),
            deadline,
            trace_id,
            tx,
        };
        {
            let mut q = self.shared.queue.lock();
            while q.items.len() >= self.shared.config.queue_cap && !q.closed {
                if !block {
                    return Err(ServeError::Overloaded(q.items.len()));
                }
                match deadline {
                    None => self.shared.not_full.wait(&mut q),
                    // The budget bounds the park too: a request that never
                    // got a queue slot is shed when it lapses, not when the
                    // queue happens to drain.
                    Some(d) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            obs.deadline_exceeded.inc();
                            return Err(ServeError::DeadlineExceeded);
                        }
                        self.shared.not_full.wait_for(&mut q, remaining);
                    }
                }
            }
            if q.closed {
                return Err(ServeError::Closed);
            }
            q.items.push_back(request);
            self.shared.not_empty.notify_one();
        }
        // Admission: validation + queue hand-off (ends when the request is
        // enqueued; waiting for the batch is the BatchWait stage).
        let admit_us = obs.hub.ring().now_us().saturating_sub(admit_start_us);
        obs.stage_admission.record(admit_us);
        if trace_id != 0 {
            obs.hub
                .ring()
                .record(trace_id, Stage::Admission, admit_start_us, admit_us);
        }
        rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Requests currently waiting in the submission queue (not including
    /// those already being scored in a batch).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().items.len()
    }

    /// Snapshot the request/latency counters.
    ///
    /// Counters are lock-free and workers record them as each response is
    /// sent, so a response a client just received may precede its own
    /// appearance here by nanoseconds. Quiesce traffic before comparing
    /// exact counts. Latency percentiles come from the bounded-memory
    /// registry histogram (p50/p99 within its 1/32 bucket error bound;
    /// mean/max exact).
    pub fn stats(&self) -> ServeStats {
        let precision = self.shared.model.read().precision().to_string();
        let obs = &self.shared.obs;
        let served = obs.served.get();
        let batches = obs.batches.get();
        let lat = obs.latency_us.snapshot();
        ServeStats {
            precision,
            served,
            errors: obs.errors.get(),
            deadline_exceeded: obs.deadline_exceeded.get(),
            batches,
            hot_swaps: self.shared.swap_epoch.load(Ordering::Acquire),
            mean_batch: if batches == 0 {
                0.0
            } else {
                served as f64 / batches as f64
            },
            latency: LatencySummary {
                p50_us: lat.quantile(50.0),
                p99_us: lat.quantile(99.0),
                mean_us: lat.mean(),
                max_us: lat.max,
                samples: lat.count,
            },
        }
    }

    /// Zero every per-server instrument (e.g. after warmup).
    pub fn reset_stats(&self) {
        self.shared.obs.reset();
    }

    /// Stop accepting new requests. Requests already queued are still served
    /// before the dispatcher exits; blocked submitters get
    /// [`ServeError::Closed`].
    pub fn close(&self) {
        let mut q = self.shared.queue.lock();
        q.closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

impl Drop for BatchingServer {
    fn drop(&mut self) {
        self.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// Closes and drains the queue when the dispatcher exits — normally (the
/// queue is already empty then) or by panic, in which case every pending
/// request's sender is dropped so blocked callers get [`ServeError::Closed`]
/// instead of hanging forever.
struct DrainOnExit<'a>(&'a ServerShared);

impl Drop for DrainOnExit<'_> {
    fn drop(&mut self) {
        let mut q = self.0.queue.lock();
        q.closed = true;
        q.items.clear();
        self.0.not_empty.notify_all();
        self.0.not_full.notify_all();
    }
}

fn dispatcher_loop(shared: &ServerShared) {
    let _drain_guard = DrainOnExit(shared);
    let config = shared.config;
    let pool = ThreadPool::new(shared.threads);
    let mut slots: Vec<WorkerSlot> = Vec::new();
    // The snapshot the current slots' scratches were built for; holding the
    // Arc pins the allocation, so pointer equality is ABA-safe and a
    // hot-swap always triggers a scratch rebuild (shapes — and the scratch's
    // concrete engine type — may differ across snapshots).
    let mut slots_model: Option<Arc<dyn FrozenModel>> = None;
    let mut batch: Vec<Request> = Vec::with_capacity(config.max_batch);

    let mut shed: Vec<Request> = Vec::new();

    loop {
        batch.clear();
        shed.clear();
        {
            let mut q = shared.queue.lock();
            // Wait for the first live request (or shutdown). Requests whose
            // deadline already passed are shed here — before they occupy a
            // batch slot or touch a worker — and answered after the lock
            // drops.
            loop {
                let now = Instant::now();
                while batch.len() < config.max_batch {
                    match q.items.pop_front() {
                        Some(r) if r.expired(now) => shed.push(r),
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                if !batch.is_empty() || !shed.is_empty() || q.closed {
                    break;
                }
                shared.not_empty.wait(&mut q);
            }
            if batch.is_empty() && shed.is_empty() {
                return; // closed and fully drained
            }
            // Coalescing window: keep absorbing requests until the batch is
            // full or `max_wait` has elapsed since it opened.
            if !batch.is_empty() && batch.len() < config.max_batch && !q.closed {
                let window_closes = batch[0].enqueued + config.max_wait;
                loop {
                    let now = Instant::now();
                    while batch.len() < config.max_batch {
                        match q.items.pop_front() {
                            Some(r) if r.expired(now) => shed.push(r),
                            Some(r) => batch.push(r),
                            None => break,
                        }
                    }
                    if batch.len() >= config.max_batch || q.closed {
                        break;
                    }
                    let Some(remaining) = window_closes
                        .checked_duration_since(now)
                        .filter(|d| !d.is_zero())
                    else {
                        break;
                    };
                    shared.not_empty.wait_for(&mut q, remaining);
                }
            }
        }
        shared.not_full.notify_all();

        if !shed.is_empty() {
            shared.obs.deadline_exceeded.add(shed.len() as u64);
            for req in shed.drain(..) {
                // A disappeared client (dropped receiver) is not an error.
                let _ = req.tx.send(Err(ServeError::DeadlineExceeded));
            }
        }
        if batch.is_empty() {
            continue; // this round only flushed expired requests
        }

        // Pin the snapshot for this whole batch (hot-swaps land between
        // batches, never inside one).
        let model = shared.model.read().clone();
        let stale = !matches!(&slots_model, Some(m) if Arc::ptr_eq(m, &model));
        if slots.len() != shared.threads || stale {
            slots = (0..shared.threads)
                .map(|_| WorkerSlot {
                    scratch: model.make_scratch_any(),
                })
                .collect();
            slots_model = Some(Arc::clone(&model));
        }

        let n = batch.len();
        let cursor = AtomicUsize::new(0);
        let slot_ptr = SlotPtr {
            base: slots.as_mut_ptr(),
            len: slots.len(),
        };
        let batch_ref: &[Request] = &batch;
        let model_ref: &dyn FrozenModel = &*model;
        let obs = &shared.obs;
        // Count the batch before fan-out so a client that just got its
        // response never observes served > 0 with batches == 0.
        obs.batches.inc();
        obs.batch_size.record(n as u64);
        pool.run(&|worker| {
            // SAFETY: worker ids are distinct; `slots` outlives `run`.
            let slot = unsafe { slot_ptr.get(worker) };
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let req = &batch_ref[i];
                if req.expired(Instant::now()) {
                    // Expired between batch assembly and pickup (e.g. a slow
                    // predecessor in this batch): shed without scoring.
                    obs.deadline_exceeded.inc();
                    let _ = req.tx.send(Err(ServeError::DeadlineExceeded));
                    continue;
                }
                // BatchWait: enqueue → this worker picking the request up.
                let pickup_us = obs.hub.ring().now_us();
                let wait_us = req.enqueued.elapsed().as_micros() as u64;
                obs.stage_batch_wait.record(wait_us);
                let mut stages = StageSample::default();
                let response = match model_ref.validate_query(&req.indices, &req.values) {
                    Ok(()) => {
                        let x = SparseVecRef::new(&req.indices, &req.values);
                        // Content-derived salt: the same query gets the same
                        // active-set padding — and therefore bit-identical
                        // top-k — on every call, in any batch position, on
                        // any replica of the same snapshot. A fleet needs
                        // that for failover answer-consistency; parity tests
                        // need it to compare socket vs in-process paths.
                        let salt = query_salt(&req.indices, &req.values, req.k);
                        Ok(model_ref.predict_any_timed(
                            x,
                            req.k,
                            slot.scratch.as_mut(),
                            salt,
                            &mut stages,
                        ))
                    }
                    Err(msg) => {
                        obs.errors.inc();
                        Err(ServeError::Invalid(msg))
                    }
                };
                obs.stage_retrieval.record(stages.retrieval_us);
                obs.stage_kernel.record(stages.kernel_us);
                obs.stage_merge.record(stages.merge_us);
                if req.trace_id != 0 {
                    // Spans in canonical pipeline order with synthesized
                    // sequential starts from pickup — monotone by
                    // construction (the engine interleaves kernel work
                    // around retrieval; attribution is by stage, not by
                    // wall-clock interleaving).
                    let ring = obs.hub.ring();
                    ring.record(
                        req.trace_id,
                        Stage::BatchWait,
                        pickup_us.saturating_sub(wait_us),
                        wait_us,
                    );
                    ring.record(
                        req.trace_id,
                        Stage::Retrieval,
                        pickup_us,
                        stages.retrieval_us,
                    );
                    ring.record(
                        req.trace_id,
                        Stage::Kernel,
                        pickup_us + stages.retrieval_us,
                        stages.kernel_us,
                    );
                    ring.record(
                        req.trace_id,
                        Stage::Merge,
                        pickup_us + stages.retrieval_us + stages.kernel_us,
                        stages.merge_us,
                    );
                }
                obs.latency_us
                    .record(req.enqueued.elapsed().as_micros() as u64);
                obs.served.inc();
                // A disappeared client (dropped receiver) is not an error.
                let _ = req.tx.send(response);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrozenNetwork;
    use slide_core::{LshConfig, Network, NetworkConfig};

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
        assert!(stats.latency.p50_us <= stats.latency.p99_us);
        assert!(stats.latency.p99_us <= stats.latency.max_us);
    }

    #[test]
    fn deadline_window_coalesces_concurrent_requests() {
        // One scoring thread + a generous window: requests arriving together
        // must share batches at least some of the time.
        let server = Arc::new(small_server(1, Duration::from_millis(20)));
        std::thread::scope(|scope| {
            for c in 0..8u32 {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    for i in 0..10u32 {
                        server.predict(&[(c * 16 + i) % 128], &[1.0], 2).unwrap();
                    }
                });
            }
        });
        let stats = stats_when_served(&server, 80);
        assert_eq!(stats.served, 80);
        let biggest = batch_sizes(&server).max();
        assert!(biggest >= 2, "no coalescing observed: largest {biggest}");
        assert!(stats.batches < 80, "every request ran alone");
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

    /// A FrozenModel wrapper that sleeps per prediction — slow enough that
    /// a flood deterministically backs the admission queue up.
    #[derive(Debug)]
    struct SlowModel(FrozenNetwork, Duration);

    impl FrozenModel for SlowModel {
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
            std::thread::sleep(self.1);
            let scratch = scratch.downcast_mut().expect("slow-model scratch");
            self.0.predict_sparse(x, k, scratch, salt)
        }
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
        // dispatcher pops it, not scored 25ms late.
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
            let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
                let give_up = Instant::now() + Duration::from_secs(5);
                while !cond() {
                    assert!(Instant::now() < give_up, "never saw {what}");
                    std::thread::yield_now();
                }
            };
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
