//! `slide_router` — the fleet front door: speaks the wire protocol to
//! clients and sends each predict to the least-loaded closed-breaker
//! replica, with per-replica circuit breakers, hedged requests, and
//! deadline-aware shedding. Routing has no policy flag: least-load is the
//! one rule.
//!
//! ```text
//! slide_router --replica <addr> [--replica <addr> ...] [--addr <addr>]
//!     [--health-interval-ms N] [--eject-after N] [--request-timeout-ms N]
//!     [--hedge on|off] [--hedge-fraction F] [--hedge-delay-ms N]
//!     [--breaker-backoff-ms N] [--breaker-max-backoff-ms N]
//! ```
//!
//! Prints `SLIDE_ROUTER LISTENING <addr>` once ready. Shuts down on stdin
//! EOF (the portable SIGTERM-equivalent) or a client `Drain` frame.

use slide_net::{NetConfig, Router, RouterConfig, StdinEof};
use std::net::SocketAddr;
use std::time::Duration;

struct Args {
    addr: String,
    replicas: Vec<SocketAddr>,
    cfg: RouterConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        replicas: Vec::new(),
        cfg: RouterConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = val()?,
            "--replica" => args
                .replicas
                .push(val()?.parse().map_err(|e| format!("--replica: {e}"))?),
            "--health-interval-ms" => {
                args.cfg.health_interval = Duration::from_millis(
                    val()?
                        .parse()
                        .map_err(|e| format!("--health-interval-ms: {e}"))?,
                );
            }
            "--eject-after" => {
                args.cfg.eject_after = val()?.parse().map_err(|e| format!("--eject-after: {e}"))?;
            }
            "--request-timeout-ms" => {
                args.cfg.request_timeout = Duration::from_millis(
                    val()?
                        .parse()
                        .map_err(|e| format!("--request-timeout-ms: {e}"))?,
                );
            }
            "--hedge" => {
                args.cfg.hedge = match val()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--hedge: want on or off, got '{other}'")),
                };
            }
            "--hedge-fraction" => {
                args.cfg.hedge_fraction = val()?
                    .parse()
                    .map_err(|e| format!("--hedge-fraction: {e}"))?;
            }
            "--hedge-delay-ms" => {
                args.cfg.hedge_delay = Duration::from_millis(
                    val()?
                        .parse()
                        .map_err(|e| format!("--hedge-delay-ms: {e}"))?,
                );
            }
            "--breaker-backoff-ms" => {
                args.cfg.breaker_backoff = Duration::from_millis(
                    val()?
                        .parse()
                        .map_err(|e| format!("--breaker-backoff-ms: {e}"))?,
                );
            }
            "--breaker-max-backoff-ms" => {
                args.cfg.breaker_max_backoff = Duration::from_millis(
                    val()?
                        .parse()
                        .map_err(|e| format!("--breaker-max-backoff-ms: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.replicas.is_empty() {
        return Err("need at least one --replica <addr>".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("slide_router: {msg}");
            std::process::exit(2);
        }
    };
    let cfg = RouterConfig {
        net: NetConfig::default(),
        ..args.cfg
    };
    let mut router = match Router::start(&args.addr, &args.replicas, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("slide_router: bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("SLIDE_ROUTER LISTENING {}", router.local_addr());
    let stdin = StdinEof::spawn();
    while !router.is_draining() && !stdin.wait(Duration::from_millis(50)) {}
    router.drain();
    println!(
        "SLIDE_ROUTER METRICS\n{}",
        router.obs().registry().render().trim_end()
    );
    println!("SLIDE_ROUTER DRAINED");
}
