//! `slide_trainerd` — the background trainer half of the continuous
//! deployment loop: train rounds of epochs on the deterministic
//! [`FleetSpec`] fixture, shadow-validate every candidate snapshot behind
//! a P@k regression gate, and publish the survivors to a
//! `slide_serve::ModelRegistry` for a `slide_netd --follow` fleet to
//! hot-swap onto.
//!
//! Per round it prints one of (machine-parseable, like `slide_netd`'s
//! tags):
//!
//! ```text
//! SLIDE_TRAINERD PUBLISHED v000002 p_at_1 0.2344
//! SLIDE_TRAINERD REJECTED round 3 p_at_1 0.0052 baseline 0.2344
//! ```
//!
//! then `SLIDE_TRAINERD METRICS`, its registry exposition (gate counters,
//! the `slide_deploy_publish_us` summary) and `SLIDE_TRAINERD DONE` at exit.
//! Stops early (between rounds) when stdin reaches EOF — the same
//! portable parent-died convention the other daemons use.

use slide_net::deploy::{GateConfig, GateDecision, TrainerLoop, TrainerLoopConfig};
use slide_net::{FleetPrecision, FleetSpec};
use slide_obs::ObsHub;
use std::io::Read;
use std::time::Duration;

struct Args {
    registry: std::path::PathBuf,
    rounds: usize,
    epochs_per_round: usize,
    seed: u64,
    precision: FleetPrecision,
    shards: usize,
    period_ms: u64,
    gate_k: usize,
    gate_regression: f64,
    holdout: usize,
    retain: usize,
    inject_regression_at: Option<usize>,
    rebuild_max_period: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        registry: std::path::PathBuf::new(),
        rounds: 4,
        epochs_per_round: 4,
        seed: FleetSpec::default().seed,
        precision: FleetPrecision::F32,
        shards: 0,
        period_ms: 0,
        gate_k: 1,
        gate_regression: 0.005,
        holdout: 0,
        retain: 0,
        inject_regression_at: None,
        rebuild_max_period: None,
    };
    let mut seen_registry = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--registry" => {
                args.registry = val()?.into();
                seen_registry = true;
            }
            "--rounds" => args.rounds = val()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--epochs-per-round" => {
                args.epochs_per_round = val()?
                    .parse()
                    .map_err(|e| format!("--epochs-per-round: {e}"))?;
            }
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--precision" => args.precision = FleetPrecision::parse(&val()?)?,
            "--shards" => args.shards = val()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--period-ms" => {
                args.period_ms = val()?.parse().map_err(|e| format!("--period-ms: {e}"))?;
            }
            "--gate-k" => args.gate_k = val()?.parse().map_err(|e| format!("--gate-k: {e}"))?,
            "--gate-regression" => {
                args.gate_regression = val()?
                    .parse()
                    .map_err(|e| format!("--gate-regression: {e}"))?;
            }
            "--holdout" => args.holdout = val()?.parse().map_err(|e| format!("--holdout: {e}"))?,
            "--retain" => args.retain = val()?.parse().map_err(|e| format!("--retain: {e}"))?,
            "--inject-regression-at" => {
                args.inject_regression_at = Some(
                    val()?
                        .parse()
                        .map_err(|e| format!("--inject-regression-at: {e}"))?,
                );
            }
            "--rebuild-max-period" => {
                args.rebuild_max_period = Some(
                    val()?
                        .parse()
                        .map_err(|e| format!("--rebuild-max-period: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !seen_registry {
        return Err("--registry <dir> is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("slide_trainerd: {msg}");
            std::process::exit(2);
        }
    };
    let hub = ObsHub::new();
    let cfg = TrainerLoopConfig {
        spec: FleetSpec {
            seed: args.seed,
            precision: args.precision,
            shards: args.shards,
            epochs: args.epochs_per_round,
        },
        gate: GateConfig {
            k: args.gate_k,
            holdout: args.holdout,
            max_regression: args.gate_regression,
        },
        retain: args.retain,
        inject_regression_at: args.inject_regression_at,
        rebuild_max_period: args.rebuild_max_period,
    };
    let mut looper = match TrainerLoop::new(&args.registry, cfg, &hub) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("slide_trainerd: registry {:?}: {e}", args.registry);
            std::process::exit(1);
        }
    };

    // Stdin watcher: EOF = parent says stop after the current round.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin().lock();
        loop {
            match stdin.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let _ = tx.send(());
    });
    let stopped = |timeout: Duration| -> bool {
        matches!(
            rx.recv_timeout(timeout),
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        )
    };

    for round in 1..=args.rounds {
        let outcome = match looper.run_round() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("slide_trainerd: round {round}: {e}");
                std::process::exit(1);
            }
        };
        let k = args.gate_k;
        match outcome.decision {
            GateDecision::Accepted => {
                println!(
                    "SLIDE_TRAINERD PUBLISHED v{:06} p_at_{k} {:.4}",
                    outcome.published.expect("accepted round has a version"),
                    outcome.p_at_k
                );
            }
            GateDecision::Rejected { baseline } => {
                println!(
                    "SLIDE_TRAINERD REJECTED round {round} p_at_{k} {:.4} baseline {baseline:.4}",
                    outcome.p_at_k
                );
            }
        }
        if round < args.rounds && stopped(Duration::from_millis(args.period_ms)) {
            println!("SLIDE_TRAINERD STOPPED round {round}");
            break;
        }
    }

    println!(
        "SLIDE_TRAINERD METRICS\n{}",
        hub.registry().render().trim_end()
    );
    println!("SLIDE_TRAINERD DONE");
}
