//! Continuous train→serve deployment loop: a background trainer that
//! periodically snapshots candidates, shadow-validates them against a
//! held-out stream, publishes the survivors to a [`ModelRegistry`], and a
//! registry watcher that hot-swaps a live [`BatchingServer`] onto each new
//! version with no restart.
//!
//! The loop closes ROADMAP item 3: training (the paper's contribution)
//! and serving (PRs 2–9) finally share a clock. Three pieces:
//!
//! * [`ShadowGate`] — a P@k regression gate. Every candidate replays the
//!   held-out query stream through the *candidate* engine with
//!   [`slide_serve::p_at_k`] (the same `predict_any` + `query_salt` path
//!   serving uses, so gate accuracy is serving accuracy, not training-eval
//!   accuracy); a candidate whose P@k drops more than `max_regression`
//!   below the best accepted so far is rejected and the registry pointer
//!   does not move.
//! * [`TrainerLoop`] — owns a persistent [`Trainer`] (SGD continues
//!   across rounds; the paper's §4.3.1 exponential rebuild schedule keeps
//!   amortizing as steps accumulate) and drives train → snapshot → gate →
//!   publish rounds.
//! * [`RegistryWatcher`] — polls `CURRENT`, mmap-loads new versions, and
//!   publishes them into a [`BatchingServer`] between requests. The
//!   **staleness** it records per swap is the full train-to-serve lag:
//!   version-file mtime (when the publisher made the bytes durable) to
//!   hot-swap completion, so it includes the pointer flip, the poll
//!   interval, the mmap + CRC verify, and the engine instantiation.
//!
//! Observability (all through the server's [`ObsHub`], so one scrape sees
//! serving and deployment together): `slide_gate_accepted_total` /
//! `slide_gate_rejected_total`, `slide_deploy_publish_us`,
//! `slide_deploy_swaps_total`, `slide_deploy_staleness_us` (histogram) +
//! `slide_deploy_staleness_last_us` (gauge), `slide_deploy_current_version`,
//! `slide_deploy_load_errors_total`.

use crate::model::FleetSpec;
use slide_core::{Network, Trainer};
use slide_data::{generate_synthetic, Dataset};
use slide_obs::{Counter, ObsHub};
use slide_serve::{p_at_k, BatchingServer, ModelRegistry, SnapshotError};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Shadow-validation policy for candidate models.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Precision@k cutoff the gate scores candidates at.
    pub k: usize,
    /// Held-out queries replayed per candidate (0 = the whole test split).
    pub holdout: usize,
    /// Largest tolerated P@k drop below the best accepted candidate.
    pub max_regression: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            k: 1,
            holdout: 0,
            max_regression: 0.005,
        }
    }
}

/// Outcome of one gate decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateDecision {
    /// Candidate met the bar and may be published.
    Accepted,
    /// Candidate regressed; `baseline` is the bar it missed.
    Rejected {
        /// The best accepted P@k the candidate was held against.
        baseline: f64,
    },
}

/// P@k regression gate: judges each candidate by its held-out P@k
/// ([`slide_serve::p_at_k`], computed by the caller) and refuses to let a
/// regressed model reach the registry.
///
/// The baseline ratchets: it is the best P@k among *accepted* candidates
/// (a model that merely clears the bar without beating it does not lower
/// the bar for its successors).
pub struct ShadowGate {
    cfg: GateConfig,
    baseline: Mutex<Option<f64>>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
}

impl ShadowGate {
    /// A gate whose accept/reject counters live in `hub`'s registry as
    /// `slide_gate_accepted_total` / `slide_gate_rejected_total`.
    pub fn new(hub: &ObsHub, cfg: GateConfig) -> Self {
        ShadowGate {
            cfg,
            baseline: Mutex::new(None),
            accepted: hub.registry().counter("slide_gate_accepted_total"),
            rejected: hub.registry().counter("slide_gate_rejected_total"),
        }
    }

    /// The gate's policy.
    pub fn config(&self) -> &GateConfig {
        &self.cfg
    }

    /// The current bar, `None` before the first accept/seed.
    pub fn baseline(&self) -> Option<f64> {
        *self.baseline.lock().expect("gate baseline lock")
    }

    /// Install a baseline without consuming a candidate — used when a
    /// restarted trainer finds an already-published version in the
    /// registry and must not treat its own first round as "first ever".
    pub fn seed_baseline(&self, p_at_k: f64) {
        let mut guard = self.baseline.lock().expect("gate baseline lock");
        *guard = Some(guard.map_or(p_at_k, |b: f64| b.max(p_at_k)));
    }

    /// Decide a candidate's fate from its shadow P@k, bump the matching
    /// counter, and (on accept) ratchet the baseline. The first candidate
    /// ever is always accepted — there is nothing to regress against.
    pub fn admit(&self, p_at_k: f64) -> GateDecision {
        let mut guard = self.baseline.lock().expect("gate baseline lock");
        match *guard {
            Some(baseline) if p_at_k < baseline - self.cfg.max_regression => {
                self.rejected.inc();
                GateDecision::Rejected { baseline }
            }
            prior => {
                *guard = Some(prior.map_or(p_at_k, |b| b.max(p_at_k)));
                self.accepted.inc();
                GateDecision::Accepted
            }
        }
    }
}

/// Configuration of one background-trainer loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainerLoopConfig {
    /// Fixture defining data, network, precision/shard axes; `spec.epochs`
    /// is the epochs trained *per round*.
    pub spec: FleetSpec,
    /// Gate policy.
    pub gate: GateConfig,
    /// `retain(n)` after each accepted publish (0 = keep every version).
    pub retain: usize,
    /// Deterministic gate-demo hook: at this 1-based round, snapshot a
    /// freshly initialized (untrained) network instead of the trainer's —
    /// a guaranteed regression the gate must catch.
    pub inject_regression_at: Option<usize>,
}

/// What one [`TrainerLoop::run_round`] did.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// 1-based round index.
    pub round: usize,
    /// Shadow P@k of the candidate.
    pub p_at_k: f64,
    /// The gate's verdict.
    pub decision: GateDecision,
    /// Version published (None when rejected).
    pub published: Option<u64>,
    /// Wall time of the train+snapshot step.
    pub train_time: Duration,
}

/// The background trainer: persistent SGD state, one candidate snapshot
/// per round, shadow gate in front of the registry.
pub struct TrainerLoop {
    cfg: TrainerLoopConfig,
    trainer: Trainer,
    holdout: Dataset,
    train_data: Dataset,
    registry: ModelRegistry,
    gate: ShadowGate,
    publish_us: Arc<slide_obs::Histogram>,
    round: usize,
    epoch: u64,
}

impl TrainerLoop {
    /// Open (or create) the registry at `root` and stand up the trainer.
    ///
    /// If the registry already holds a live version, it is loaded and its
    /// shadow P@k seeds the gate baseline, so a restarted trainer cannot
    /// laundromat a regression through a fresh "first candidate".
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] if the registry cannot be opened or an existing
    /// live version fails to load.
    pub fn new(
        root: impl AsRef<Path>,
        cfg: TrainerLoopConfig,
        hub: &ObsHub,
    ) -> Result<Self, SnapshotError> {
        let registry = ModelRegistry::open(root.as_ref())?;
        let synth = generate_synthetic(&cfg.spec.synth_config());
        let trainer = cfg.spec.trainer();
        let gate = ShadowGate::new(hub, cfg.gate);
        if let Some(path) = registry.current_path()? {
            let live = slide_serve::load(&path)?;
            gate.seed_baseline(p_at_k(&*live, &synth.test, cfg.gate.k, cfg.gate.holdout));
        }
        Ok(TrainerLoop {
            cfg,
            trainer,
            holdout: synth.test,
            train_data: synth.train,
            registry,
            gate,
            publish_us: hub.registry().histogram("slide_deploy_publish_us"),
            round: 0,
            epoch: 0,
        })
    }

    /// The registry this loop publishes into.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The gate in front of the registry.
    pub fn gate(&self) -> &ShadowGate {
        &self.gate
    }

    /// The held-out stream candidates are shadow-validated on.
    pub fn holdout(&self) -> &Dataset {
        &self.holdout
    }

    /// Train one round's epochs, snapshot the candidate, shadow-validate,
    /// and publish on accept.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] if the candidate snapshot cannot be built or an
    /// accepted publish fails; gate rejections are an `Ok` outcome.
    pub fn run_round(&mut self) -> Result<RoundOutcome, SnapshotError> {
        self.round += 1;
        let train_started = Instant::now();
        let snapshot = if self.cfg.inject_regression_at == Some(self.round) {
            // Injected regression: a freshly initialized network that
            // never saw a gradient — near-chance P@k, guaranteed to trip
            // a gate whose baseline came from real training.
            let fresh = Network::new(self.cfg.spec.network_config())
                .map_err(|e| SnapshotError::Corrupt(format!("fleet network config: {e}")))?;
            self.cfg.spec.snapshot(&fresh)
        } else {
            for _ in 0..self.cfg.spec.epochs.max(1) {
                self.trainer.train_epoch(&self.train_data, self.epoch);
                self.epoch += 1;
            }
            self.cfg.spec.snapshot(self.trainer.network())
        };
        let train_time = train_started.elapsed();

        let candidate = snapshot.model()?;
        let gate = &self.cfg.gate;
        let p_at_k = p_at_k(&*candidate, &self.holdout, gate.k, gate.holdout);
        let decision = self.gate.admit(p_at_k);
        let published = match decision {
            GateDecision::Accepted => {
                let publish_started = Instant::now();
                let version = self.registry.publish(snapshot.bytes())?;
                if self.cfg.retain > 0 {
                    self.registry.retain(self.cfg.retain)?;
                }
                self.publish_us
                    .record(publish_started.elapsed().as_micros() as u64);
                Some(version)
            }
            GateDecision::Rejected { .. } => None,
        };
        Ok(RoundOutcome {
            round: self.round,
            p_at_k,
            decision,
            published,
            train_time,
        })
    }
}

/// One observed hot-swap.
#[derive(Debug, Clone, Copy)]
pub struct SwapEvent {
    /// Registry version now live in the server.
    pub version: u64,
    /// Train-to-serve lag: version-file mtime → swap completion. Zero if
    /// the filesystem clock runs ahead of the publish (clock skew).
    pub staleness: Duration,
    /// When the swap completed (this process's monotonic clock).
    pub at: Instant,
}

/// Poll-based registry follower: watches `CURRENT` and hot-swaps a live
/// [`BatchingServer`] onto every version change (forward publishes *and*
/// rollbacks — the watcher follows the pointer, not the version order).
pub struct RegistryWatcher {
    stop: Arc<AtomicBool>,
    swaps: Arc<Mutex<Vec<SwapEvent>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Callback a [`RegistryWatcher`] runs after each completed hot-swap
/// (daemons print their `SWAPPED` line from it).
pub type SwapCallback = Box<dyn Fn(&SwapEvent) + Send>;

impl RegistryWatcher {
    /// Start following `registry`, publishing each new version into
    /// `server`. `initial` is the version the server is already serving
    /// (so the watcher does not immediately re-swap onto it); `poll` is
    /// the pointer-check interval. `on_swap`, when given, runs after every
    /// completed swap (daemons print their `SWAPPED` line from it).
    ///
    /// Metrics go to `server.obs()`: see the module docs for the names.
    pub fn spawn(
        registry: ModelRegistry,
        server: Arc<BatchingServer>,
        initial: Option<u64>,
        poll: Duration,
        on_swap: Option<SwapCallback>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let swaps = Arc::new(Mutex::new(Vec::new()));
        let hub = server.obs();
        let swaps_total = hub.registry().counter("slide_deploy_swaps_total");
        let staleness_us = hub.registry().histogram("slide_deploy_staleness_us");
        let staleness_last = hub.registry().gauge("slide_deploy_staleness_last_us");
        let current_version = hub.registry().gauge("slide_deploy_current_version");
        let load_errors = hub.registry().counter("slide_deploy_load_errors_total");
        if let Some(v) = initial {
            current_version.set(v);
        }
        let handle = {
            let stop = Arc::clone(&stop);
            let swaps = Arc::clone(&swaps);
            std::thread::Builder::new()
                .name("registry-watcher".into())
                .spawn(move || {
                    let mut live = initial;
                    while !stop.load(Ordering::Relaxed) {
                        match registry.current_version() {
                            Ok(Some(version)) if live != Some(version) => {
                                let path = registry.version_path(version);
                                // mtime *before* the load so slow loads
                                // count toward staleness, not against it.
                                let mtime = std::fs::metadata(&path).and_then(|m| m.modified());
                                match slide_serve::load(&path) {
                                    Ok(model) => {
                                        server.publish(model);
                                        live = Some(version);
                                        let staleness = mtime
                                            .ok()
                                            .and_then(|t| SystemTime::now().duration_since(t).ok())
                                            .unwrap_or(Duration::ZERO);
                                        let event = SwapEvent {
                                            version,
                                            staleness,
                                            at: Instant::now(),
                                        };
                                        swaps_total.inc();
                                        staleness_us.record(staleness.as_micros() as u64);
                                        staleness_last.set(staleness.as_micros() as u64);
                                        current_version.set(version);
                                        if let Some(cb) = &on_swap {
                                            cb(&event);
                                        }
                                        swaps.lock().expect("swap log lock").push(event);
                                    }
                                    Err(_) => {
                                        // Transient (reader raced retain) or
                                        // corrupt: count it, keep serving the
                                        // version we have, retry next poll.
                                        load_errors.inc();
                                    }
                                }
                            }
                            Ok(_) => {}
                            Err(_) => load_errors.inc(),
                        }
                        std::thread::sleep(poll);
                    }
                })
                .expect("spawn registry-watcher thread")
        };
        RegistryWatcher {
            stop,
            swaps,
            handle: Some(handle),
        }
    }

    /// Every swap observed so far, in order.
    pub fn swap_log(&self) -> Vec<SwapEvent> {
        self.swaps.lock().expect("swap log lock").clone()
    }

    /// Stop polling and join the watcher thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RegistryWatcher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Block until the registry has a live version (a cold-started follower
/// waiting for its first publish). Returns `None` on `patience` expiry.
///
/// # Errors
///
/// [`SnapshotError`] only on a *corrupt* `CURRENT`; an absent pointer is
/// the condition being waited out.
pub fn wait_for_current(
    registry: &ModelRegistry,
    patience: Duration,
    poll: Duration,
) -> Result<Option<u64>, SnapshotError> {
    let deadline = Instant::now() + patience;
    loop {
        if let Some(v) = registry.current_version()? {
            return Ok(Some(v));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_mem::SparseVecRef;
    use slide_serve::{query_salt, SnapshotPrecision};

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "slide_deploy_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn gate_accepts_first_and_ratchets_baseline() {
        let hub = ObsHub::new();
        let gate = ShadowGate::new(&hub, GateConfig::default());
        assert_eq!(gate.baseline(), None);
        assert_eq!(gate.admit(0.50), GateDecision::Accepted);
        assert_eq!(gate.baseline(), Some(0.50));
        // Better candidate raises the bar; equal-or-slightly-worse passes.
        assert_eq!(gate.admit(0.60), GateDecision::Accepted);
        assert_eq!(gate.baseline(), Some(0.60));
        assert_eq!(gate.admit(0.5975), GateDecision::Accepted);
        assert_eq!(gate.baseline(), Some(0.60), "bar must not drop on a clear");
        // A real regression is rejected and the bar holds.
        assert_eq!(gate.admit(0.40), GateDecision::Rejected { baseline: 0.60 });
        assert_eq!(gate.baseline(), Some(0.60));
        assert_eq!(hub.registry().counter("slide_gate_accepted_total").get(), 3);
        assert_eq!(hub.registry().counter("slide_gate_rejected_total").get(), 1);
    }

    #[test]
    fn gate_seed_baseline_blocks_first_candidate_regression() {
        let hub = ObsHub::new();
        let gate = ShadowGate::new(&hub, GateConfig::default());
        gate.seed_baseline(0.70);
        assert_eq!(gate.admit(0.10), GateDecision::Rejected { baseline: 0.70 });
        // Seeding never lowers an existing bar.
        gate.seed_baseline(0.20);
        assert_eq!(gate.baseline(), Some(0.70));
    }

    #[test]
    fn trainer_loop_publishes_accepted_and_holds_current_on_regression() {
        let root = tmp_root("loop_gate");
        let hub = ObsHub::new();
        let cfg = TrainerLoopConfig {
            spec: FleetSpec {
                epochs: 8, // per round; the fixture needs a few dozen SGD
                // steps before P@1 clears chance (~0.01) decisively
                precision: SnapshotPrecision::F32,
                ..Default::default()
            },
            inject_regression_at: Some(2),
            ..Default::default()
        };
        let mut looper = TrainerLoop::new(&root, cfg, &hub).expect("trainer loop");

        let r1 = looper.run_round().expect("round 1");
        assert_eq!(r1.decision, GateDecision::Accepted);
        assert_eq!(r1.published, Some(1));
        assert!(
            r1.p_at_k > 0.03,
            "trained candidate P@1 {} too low",
            r1.p_at_k
        );

        // Round 2: injected untrained network ⇒ rejected, pointer unmoved.
        let r2 = looper.run_round().expect("round 2");
        assert!(matches!(r2.decision, GateDecision::Rejected { .. }));
        assert_eq!(r2.published, None);
        assert!(r2.p_at_k < r1.p_at_k, "injected candidate should regress");
        let reg = looper.registry().clone();
        assert_eq!(reg.current_version().expect("current"), Some(1));
        assert_eq!(reg.versions().expect("versions"), vec![1]);
        assert_eq!(hub.registry().counter("slide_gate_rejected_total").get(), 1);

        // Round 3: training resumed ⇒ accepted, v2 published.
        let r3 = looper.run_round().expect("round 3");
        assert_eq!(r3.decision, GateDecision::Accepted);
        assert_eq!(r3.published, Some(2));
        assert_eq!(reg.current_version().expect("current"), Some(2));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restarted_loop_seeds_baseline_from_live_version() {
        let root = tmp_root("loop_restart");
        let hub = ObsHub::new();
        let cfg = TrainerLoopConfig {
            spec: FleetSpec {
                epochs: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        {
            let mut looper = TrainerLoop::new(&root, cfg, &hub).expect("first loop");
            looper.run_round().expect("publish v1");
        }
        // A fresh process (fresh hub) opening the same registry must not
        // accept an untrained first candidate: the live v1 seeds the bar.
        let hub2 = ObsHub::new();
        let cfg2 = TrainerLoopConfig {
            inject_regression_at: Some(1),
            ..cfg
        };
        let mut looper = TrainerLoop::new(&root, cfg2, &hub2).expect("restarted loop");
        assert!(looper.gate().baseline().expect("seeded") > 0.03);
        let r1 = looper.run_round().expect("round 1 after restart");
        assert!(matches!(r1.decision, GateDecision::Rejected { .. }));
        assert_eq!(
            looper.registry().current_version().expect("current"),
            Some(1),
            "CURRENT must not move for a rejected candidate"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn watcher_follows_publish_and_rollback() {
        let root = tmp_root("watcher");
        let registry = ModelRegistry::open(&root).expect("registry");
        let spec = FleetSpec::default();
        let (net0, _) = FleetSpec { epochs: 0, ..spec }.train();
        let (net1, test) = FleetSpec { epochs: 1, ..spec }.train();
        let snap_a = spec.snapshot(&net0);
        let snap_b = spec.snapshot(&net1);
        let v1 = registry.publish(snap_a.bytes()).expect("publish v1");

        let server = Arc::new(
            BatchingServer::start(
                snap_a.model().expect("model a"),
                slide_serve::BatchConfig {
                    threads: 1,
                    ..Default::default()
                },
            )
            .expect("batching server"),
        );
        let mut watcher = RegistryWatcher::spawn(
            registry.clone(),
            Arc::clone(&server),
            Some(v1),
            Duration::from_millis(5),
            None,
        );

        registry.publish(snap_b.bytes()).expect("publish v2");
        let deadline = Instant::now() + Duration::from_secs(10);
        while watcher.swap_log().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        registry.rollback().expect("rollback to v1");
        while watcher.swap_log().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        watcher.stop();

        let log = watcher.swap_log();
        assert_eq!(
            log.iter().map(|e| e.version).collect::<Vec<_>>(),
            vec![2, 1],
            "watcher must follow the pointer through publish AND rollback"
        );
        // After the rollback swap, the server answers with v1's model.
        let x = test.features(0);
        let k = 5;
        let salt = query_salt(x.indices, x.values, k);
        let got = server
            .predict(x.indices, x.values, k)
            .expect("predict after rollback");
        let mut scratch = snap_a.model().expect("model a").make_scratch_any();
        let want = snap_a.model().expect("model a").predict_any(
            SparseVecRef::new(x.indices, x.values),
            k,
            &mut *scratch,
            salt,
        );
        assert_eq!(got, want, "served answers must be v1's after rollback");
        let hub = server.obs();
        assert_eq!(hub.registry().counter("slide_deploy_swaps_total").get(), 2);
        assert_eq!(
            hub.registry().gauge("slide_deploy_current_version").get(),
            1
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wait_for_current_times_out_then_finds() {
        let root = tmp_root("wait");
        let registry = ModelRegistry::open(&root).expect("registry");
        assert_eq!(
            wait_for_current(
                &registry,
                Duration::from_millis(30),
                Duration::from_millis(5)
            )
            .expect("empty poll"),
            None
        );
        registry.publish(b"v1").expect("publish");
        assert_eq!(
            wait_for_current(&registry, Duration::from_secs(1), Duration::from_millis(5))
                .expect("poll"),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
