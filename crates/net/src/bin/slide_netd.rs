//! `slide_netd` — one serving replica: obtains its model either by
//! rebuilding the deterministic [`FleetSpec`] fixture (train + freeze) or,
//! with `--snapshot <dir>`, by mmap-loading the current version from a
//! `slide_serve::ModelRegistry` — no training, no re-quantization, weight
//! arenas viewing the mapped file. Either way the model is wrapped in a
//! [`slide_serve::BatchingServer`] and fronted with a [`NetServer`] on a
//! TCP address.
//!
//! With `--follow` (requires `--snapshot`), the replica keeps watching the
//! registry's `CURRENT` pointer after cold-start and hot-swaps onto every
//! new version a `slide_trainerd` publishes — no restart, in-flight
//! requests finish on the model they started on. Each swap prints
//! `SLIDE_NETD SWAPPED v<version> staleness_us <n>`. A follower pointed at
//! an *empty* registry waits (up to 120 s) for the first publish instead
//! of exiting.
//!
//! Prints `SLIDE_NETD LISTENING <addr>` once ready (parents parse this to
//! learn an OS-assigned port). Shuts down gracefully when stdin reaches
//! EOF — the portable SIGTERM-equivalent: the parent holds our stdin pipe
//! and dropping it (or the parent dying) drains us — or when a client
//! sends a `Drain` frame.

use slide_net::deploy::{wait_for_current, RegistryWatcher};
use slide_net::{jitter, FleetSpec, NetConfig, NetServer, StdinEof, WireError};
use slide_serve::{BatchConfig, BatchingServer, FrozenModel, ModelRegistry, SnapshotPrecision};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    seed: u64,
    precision: SnapshotPrecision,
    shards: usize,
    epochs: usize,
    threads: usize,
    max_batch: usize,
    queue_cap: usize,
    snapshot: Option<std::path::PathBuf>,
    follow: bool,
    poll_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        seed: FleetSpec::default().seed,
        precision: SnapshotPrecision::F32,
        shards: 0,
        epochs: 1,
        threads: 2,
        max_batch: 8,
        queue_cap: 64,
        snapshot: None,
        follow: false,
        poll_ms: 50,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = val()?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--precision" => args.precision = SnapshotPrecision::parse(&val()?)?,
            "--shards" => args.shards = val()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--epochs" => args.epochs = val()?.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--threads" => args.threads = val()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--max-batch" => {
                args.max_batch = val()?.parse().map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--queue-cap" => {
                args.queue_cap = val()?.parse().map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--snapshot" => args.snapshot = Some(val()?.into()),
            "--follow" => args.follow = true,
            "--poll-ms" => args.poll_ms = val()?.parse().map_err(|e| format!("--poll-ms: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.follow && args.snapshot.is_none() {
        return Err("--follow requires --snapshot <registry dir>".into());
    }
    Ok(args)
}

/// Cold-start path: mmap + verify the registry's current version. The
/// `--precision`/`--shards`/`--epochs` axes are ignored — the snapshot
/// header, not the command line, says what engine this is. With `follow`,
/// an empty registry is waited out (a follower may start before the
/// trainer's first publish); without it, empty is fatal.
fn load_registry_model(
    dir: &std::path::Path,
    follow: bool,
) -> Result<(Arc<dyn FrozenModel>, ModelRegistry, u64), String> {
    let registry = ModelRegistry::open(dir).map_err(|e| format!("registry {dir:?}: {e}"))?;
    let version = if follow {
        wait_for_current(
            &registry,
            Duration::from_secs(120),
            Duration::from_millis(50),
        )
        .map_err(|e| format!("registry {dir:?}: {e}"))?
        .ok_or_else(|| format!("registry {dir:?}: no version published within 120s"))?
    } else {
        registry
            .current_version()
            .map_err(|e| format!("registry {dir:?}: {e}"))?
            .ok_or_else(|| format!("registry {dir:?} has no published version"))?
    };
    let path = registry.version_path(version);
    let model = slide_serve::load(&path).map_err(|e| format!("snapshot {path:?}: {e}"))?;
    Ok((model, registry, version))
}

/// Bind with retries: a restarted replica reclaiming its old port can race
/// the kernel's release of the previous socket (no `SO_REUSEADDR` in plain
/// `std::net` binds on all platforms). Retries back off exponentially
/// (50 ms doubling, capped at 1 s) with a deterministic per-attempt jitter
/// so a herd of restarting replicas doesn't hammer the kernel in lockstep
/// the way the old fixed 100 ms cadence did. Returns how many retries it
/// took.
fn bind_retrying(addr: &str, patience: Duration) -> std::io::Result<u32> {
    let start = Instant::now();
    let mut retries = 0u32;
    loop {
        match TcpListener::bind(addr) {
            Ok(probe) => {
                drop(probe);
                return Ok(retries);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && start.elapsed() < patience => {
                let base = Duration::from_millis(50)
                    .saturating_mul(1u32 << retries.min(5))
                    .min(Duration::from_secs(1));
                // Jitter keyed on (pid, attempt): deterministic for a given
                // process so restarts are reproducible, but distinct
                // replicas desynchronize.
                let key = (u64::from(std::process::id()) << 32) ^ u64::from(retries);
                std::thread::sleep(jitter(base, key));
                retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("slide_netd: {msg}");
            std::process::exit(2);
        }
    };
    let mut registry_state: Option<(ModelRegistry, u64)> = None;
    let model: Arc<dyn FrozenModel> = match &args.snapshot {
        Some(dir) => match load_registry_model(dir, args.follow) {
            Ok((m, registry, version)) => {
                registry_state = Some((registry, version));
                m
            }
            Err(msg) => {
                eprintln!("slide_netd: {msg}");
                std::process::exit(1);
            }
        },
        None => {
            let spec = FleetSpec {
                seed: args.seed,
                precision: args.precision,
                shards: args.shards,
                epochs: args.epochs,
            };
            spec.build().0
        }
    };
    let batching = BatchingServer::start(
        model,
        BatchConfig {
            max_batch: args.max_batch,
            max_wait: Duration::from_millis(1),
            queue_cap: args.queue_cap,
            threads: args.threads,
        },
    )
    .map_err(WireError::from);
    let batching = match batching {
        Ok(b) => Arc::new(b),
        Err(e) => {
            eprintln!("slide_netd: {e}");
            std::process::exit(1);
        }
    };
    // A fixed (non-:0) address may still be in TIME_WAIT from the replica
    // we are replacing; wait it out before the real bind.
    if !args.addr.ends_with(":0") {
        match bind_retrying(&args.addr, Duration::from_secs(10)) {
            // On its own line: parents parse the LISTENING line's tail as
            // the address, so retry counts must never ride on it.
            Ok(retries) if retries > 0 => {
                println!("SLIDE_NETD BIND_RETRIES {retries}");
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("slide_netd: bind {}: {e}", args.addr);
                std::process::exit(1);
            }
        }
    }
    // --follow: keep tracking the registry pointer and hot-swap the
    // batching server onto each new version. The watcher prints its swap
    // line from the callback so parents can tail for it.
    let mut watcher = match (args.follow, registry_state) {
        (true, Some((registry, version))) => Some(RegistryWatcher::spawn(
            registry,
            Arc::clone(&batching),
            Some(version),
            Duration::from_millis(args.poll_ms.max(1)),
            Some(Box::new(|event: &slide_net::deploy::SwapEvent| {
                println!(
                    "SLIDE_NETD SWAPPED v{:06} staleness_us {}",
                    event.version,
                    event.staleness.as_micros()
                );
            })),
        )),
        _ => None,
    };
    let mut net = match NetServer::start(Arc::clone(&batching), &args.addr, NetConfig::default()) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("slide_netd: bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("SLIDE_NETD LISTENING {}", net.local_addr());
    let stdin = StdinEof::spawn();
    while !net.is_draining() && !stdin.wait(Duration::from_millis(50)) {}
    // Stop swapping before draining: a drain must report the stats of the
    // model mix it actually served, not race one last swap.
    if let Some(w) = watcher.as_mut() {
        w.stop();
    }
    net.drain();
    println!(
        "SLIDE_NETD METRICS\n{}",
        batching.obs().registry().render().trim_end()
    );
    println!("SLIDE_NETD DRAINED");
}
