//! Command-line interface plumbing for the `slide_cli` binary: a tiny,
//! dependency-free argument parser and the subcommands a downstream user
//! needs (`gen`, `train`, `eval`, `snapshot`, `obs scrape`). Kept in the
//! library so the parsing logic is unit-testable.

use crate::{
    load_checkpoint, parse_xc, save_checkpoint, write_xc, Dataset, EvalMode, HashFamilyKind,
    Network, NetworkConfig, Precision, SynthConfig, TextConfig, Trainer, TrainerConfig,
};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::time::Duration;

/// A parsed command line: subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CliArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    options: BTreeMap<String, String>,
}

/// Error for malformed command lines or failed runs.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

impl CliArgs {
    /// Parse raw arguments (without the program name). Flags take the form
    /// `--key value`; a trailing flag without a value is stored as `"true"`.
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is present or a positional
    /// argument appears after flags.
    ///
    /// # Examples
    ///
    /// ```
    /// let args = slide::cli::CliArgs::parse(["train", "--epochs", "5", "--naive"]).unwrap();
    /// assert_eq!(args.command, "train");
    /// assert_eq!(args.get_usize("epochs", 1).unwrap(), 5);
    /// assert!(args.get_flag("naive"));
    /// ```
    pub fn parse<I, S>(args: I) -> Result<CliArgs, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = args.into_iter().map(Into::into).peekable();
        let mut command = iter
            .next()
            .ok_or_else(|| CliError("missing subcommand (gen | train | eval)".into()))?;
        if command.starts_with("--") {
            return Err(CliError(format!(
                "expected a subcommand before flags, got '{command}'"
            )));
        }
        // `obs` is a command namespace (`obs scrape`): fold its action word
        // into the command so dispatch stays a flat string match.
        if command == "obs" {
            match iter.peek() {
                Some(action) if !action.starts_with("--") => {
                    command = format!("obs {}", iter.next().expect("peeked"));
                }
                _ => return Err(CliError("obs expects an action (obs scrape)".into())),
            }
        }
        let mut options = BTreeMap::new();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(CliError(format!("unexpected positional argument '{arg}'")));
            };
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                _ => "true".to_string(),
            };
            options.insert(key.to_string(), value);
        }
        Ok(CliArgs { command, options })
    }

    /// String option with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Required string option.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing flag.
    pub fn require_str(&self, key: &str) -> Result<String, CliError> {
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    /// Integer option with default.
    ///
    /// # Errors
    ///
    /// Returns an error if present but unparsable.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// Float option with default.
    ///
    /// # Errors
    ///
    /// Returns an error if present but unparsable.
    pub fn get_f32(&self, key: &str, default: f32) -> Result<f32, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    /// Boolean flag (present = true).
    pub fn get_flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

/// Usage text for the binary.
pub fn usage() -> &'static str {
    "slide_cli — train SLIDE models from the command line

USAGE:
  slide_cli gen   --out FILE [--workload amazon|wiki|text8] [--scale N]
  slide_cli train --data FILE [--test FILE] [--hidden N] [--epochs N]
                  [--batch N] [--lr F] [--tables N] [--key-bits N]
                  [--min-active N] [--bucket-cap N] [--simhash]
                  [--bf16 none|activations|both] [--threads N] [--naive]
                  [--checkpoint FILE]
  slide_cli eval  --data FILE --checkpoint FILE [--hidden N] [--tables N]
                  [--key-bits N] [--k N] [--simhash]
  slide_cli snapshot --registry DIR [--precision f32|i8] [--shards N]
                  [--seed N] [--train-epochs N] [--rollback] [--retain N]
  slide_cli obs scrape --addr HOST:PORT [--timeout-ms N]

Datasets use the XC repository format (`parse_xc`/`write_xc`).
`snapshot` trains the deterministic fleet fixture, cuts a `.slsnap` image
under the chosen precision/shard spec, and publishes it atomically to a
versioned registry directory; `slide_netd --snapshot DIR` then cold-starts
from it (mmap, no retraining). `--rollback` repoints the registry at the
previous version; `--retain N` prunes all but the N newest versions.
`obs scrape` connects to a running `slide_netd` or `slide_router`, sends a
`GetMetrics` frame, and prints the Prometheus-style exposition text
(counters, gauges, latency/stage summaries, breaker states, and recent
trace-span comment lines)."
}

fn build_network_config(args: &CliArgs, ds: &Dataset) -> Result<NetworkConfig, CliError> {
    let hidden = args.get_usize("hidden", 128)?;
    let mut cfg = NetworkConfig::standard(ds.feature_dim(), hidden, ds.label_dim());
    cfg.lsh.tables = args.get_usize("tables", 24)?;
    cfg.lsh.key_bits = args.get_usize("key-bits", 6)? as u32;
    cfg.lsh.min_active = args.get_usize("min-active", 128)?;
    cfg.lsh.bucket_cap = args.get_usize("bucket-cap", 128)?;
    if args.get_flag("simhash") {
        cfg.lsh.family = HashFamilyKind::SimHash;
    }
    cfg.precision = match args.get_str("bf16", "none").as_str() {
        "none" => Precision::Fp32,
        "activations" => Precision::Bf16Activations,
        "both" => Precision::Bf16Both,
        other => {
            return Err(CliError(format!(
                "--bf16 expects none|activations|both, got '{other}'"
            )))
        }
    };
    if args.get_flag("naive") {
        cfg.memory.coalesced_data = false;
        cfg.memory.coalesced_params = false;
        crate::set_policy(crate::SimdPolicy::Force(crate::SimdLevel::Scalar));
    }
    cfg.validate().map_err(CliError)?;
    Ok(cfg)
}

/// `gen`: write a synthetic workload to disk in XC format.
///
/// # Errors
///
/// Propagates flag and I/O errors.
pub fn cmd_gen(args: &CliArgs) -> Result<String, CliError> {
    let out = args.require_str("out")?;
    let scale = args.get_usize("scale", 1)?;
    let workload = args.get_str("workload", "amazon");
    let (train, test) = match workload.as_str() {
        "amazon" => {
            let d = crate::generate_synthetic(&SynthConfig::amazon_670k_scaled(scale));
            (d.train, d.test)
        }
        "wiki" => {
            let d = crate::generate_synthetic(&SynthConfig::wiki_lsh_325k_scaled(scale));
            (d.train, d.test)
        }
        "text8" => {
            let d = crate::generate_text(&TextConfig::text8_scaled(scale));
            (d.train, d.test)
        }
        other => return Err(CliError(format!("unknown workload '{other}'"))),
    };
    write_xc(BufWriter::new(File::create(&out)?), &train)?;
    let test_path = format!("{out}.test");
    write_xc(BufWriter::new(File::create(&test_path)?), &test)?;
    Ok(format!(
        "wrote {} train samples to {out} and {} test samples to {test_path}",
        train.len(),
        test.len()
    ))
}

/// `train`: fit a SLIDE model on an XC-format file.
///
/// # Errors
///
/// Propagates flag, parse, and I/O errors.
pub fn cmd_train(args: &CliArgs) -> Result<String, CliError> {
    let data_path = args.require_str("data")?;
    let train: Dataset =
        parse_xc(BufReader::new(File::open(&data_path)?)).map_err(|e| CliError(e.to_string()))?;
    let test = match args.options.get("test") {
        Some(p) => {
            Some(parse_xc(BufReader::new(File::open(p)?)).map_err(|e| CliError(e.to_string()))?)
        }
        None => None,
    };
    let cfg = build_network_config(args, &train)?;
    let trainer_cfg = TrainerConfig {
        batch_size: args.get_usize("batch", 128)?,
        learning_rate: args.get_f32("lr", 1e-3)?,
        threads: args.get_usize("threads", 0)?,
        ..Default::default()
    };
    let network = Network::new(cfg).map_err(CliError)?;
    let params = network.num_parameters();
    let mut trainer = Trainer::new(network, trainer_cfg).map_err(CliError)?;
    let epochs = args.get_usize("epochs", 5)? as u32;
    let mut report = format!(
        "training on {} samples ({} features -> {} labels, {params} parameters)\n",
        train.len(),
        train.feature_dim(),
        train.label_dim()
    );
    for epoch in 0..epochs {
        let stats = trainer.train_epoch(&train, epoch as u64);
        report.push_str(&format!(
            "epoch {}: loss {:.4} in {:.2}s\n",
            epoch + 1,
            stats.mean_loss,
            stats.seconds
        ));
    }
    if let Some(test) = &test {
        let p1 = trainer.evaluate(test, 1, EvalMode::Exact, None);
        report.push_str(&format!("test P@1 = {p1:.4}\n"));
    }
    if let Some(ckpt) = args.options.get("checkpoint") {
        save_checkpoint(trainer.network(), BufWriter::new(File::create(ckpt)?))?;
        report.push_str(&format!("checkpoint written to {ckpt}\n"));
    }
    Ok(report)
}

/// `eval`: restore a checkpoint and report P@k on a dataset.
///
/// # Errors
///
/// Propagates flag, parse, checkpoint, and I/O errors.
pub fn cmd_eval(args: &CliArgs) -> Result<String, CliError> {
    let data_path = args.require_str("data")?;
    let ckpt_path = args.require_str("checkpoint")?;
    let data: Dataset =
        parse_xc(BufReader::new(File::open(&data_path)?)).map_err(|e| CliError(e.to_string()))?;
    let cfg = build_network_config(args, &data)?;
    let mut network = Network::new(cfg).map_err(CliError)?;
    load_checkpoint(&mut network, BufReader::new(File::open(&ckpt_path)?))
        .map_err(|e| CliError(e.to_string()))?;
    let mut trainer = Trainer::new(
        network,
        TrainerConfig {
            threads: args.get_usize("threads", 0)?,
            ..Default::default()
        },
    )
    .map_err(CliError)?;
    let k = args.get_usize("k", 1)?;
    let p = trainer.evaluate(&data, k, EvalMode::Exact, None);
    Ok(format!("P@{k} = {p:.4} over {} samples", data.len()))
}

/// `snapshot`: manage a versioned model registry — publish a freshly
/// trained fleet-fixture snapshot (the artifact `slide_netd --snapshot`
/// cold-starts from), roll the live pointer back, or prune old versions.
///
/// # Errors
///
/// Propagates flag, registry, and snapshot errors.
pub fn cmd_snapshot(args: &CliArgs) -> Result<String, CliError> {
    let registry_dir = args.require_str("registry")?;
    let registry =
        crate::ModelRegistry::open(&registry_dir).map_err(|e| CliError(e.to_string()))?;

    if args.get_flag("rollback") {
        let v = registry.rollback().map_err(|e| CliError(e.to_string()))?;
        return Ok(format!(
            "rolled back: registry {registry_dir} now serves v{v:06}\n"
        ));
    }
    if let Some(keep) = args.options.get("retain") {
        let keep: usize = keep
            .parse()
            .map_err(|_| CliError(format!("--retain expects an integer, got '{keep}'")))?;
        let removed = registry.retain(keep).map_err(|e| CliError(e.to_string()))?;
        return Ok(format!(
            "retained {keep} newest version(s) in {registry_dir}; removed {removed:?}\n"
        ));
    }

    let spec = crate::net::FleetSpec {
        seed: args.get_usize("seed", crate::net::FleetSpec::default().seed as usize)? as u64,
        precision: crate::net::FleetPrecision::parse(&args.get_str("precision", "f32"))
            .map_err(CliError)?,
        shards: args.get_usize("shards", 0)?,
        epochs: args.get_usize("train-epochs", 1)?,
    };
    let (net, _test) = spec.train();
    let snapshot = spec.snapshot(&net);
    let version = registry
        .publish(snapshot.bytes())
        .map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "published v{version:06} to {registry_dir} ({} bytes, precision {}, {} shard(s))\n\
         cold-start it with: slide_netd --snapshot {registry_dir}\n",
        snapshot.bytes().len(),
        snapshot.spec().precision.label(),
        snapshot.spec().shards(),
    ))
}

/// `obs scrape`: fetch and print the metrics exposition of a running
/// `slide_netd` daemon or `slide_router` front-end over the wire.
///
/// # Errors
///
/// Propagates flag errors and connection/scrape failures.
pub fn cmd_obs_scrape(args: &CliArgs) -> Result<String, CliError> {
    let addr = args.require_str("addr")?;
    let timeout = Duration::from_millis(args.get_usize("timeout-ms", 5000)?.max(1) as u64);
    let mut client = crate::net::NetClient::connect(addr.as_str(), timeout)
        .map_err(|e| CliError(format!("connect {addr}: {e}")))?;
    client
        .metrics_text()
        .map_err(|e| CliError(format!("scrape {addr}: {e}")))
}

/// Dispatch a parsed command line.
///
/// # Errors
///
/// Returns usage help for unknown subcommands and propagates command errors.
pub fn run(args: &CliArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "gen" => cmd_gen(args),
        "train" => cmd_train(args),
        "eval" => cmd_eval(args),
        "snapshot" => cmd_snapshot(args),
        "obs scrape" => cmd_obs_scrape(args),
        "help" | "--help" => Ok(usage().to_string()),
        other => Err(CliError(format!(
            "unknown subcommand '{other}'\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchConfig, BatchingServer};
    use std::sync::Arc;

    #[test]
    fn parse_command_and_options() {
        let args =
            CliArgs::parse(["train", "--data", "x.txt", "--epochs", "3", "--naive"]).unwrap();
        assert_eq!(args.command, "train");
        assert_eq!(args.require_str("data").unwrap(), "x.txt");
        assert_eq!(args.get_usize("epochs", 1).unwrap(), 3);
        assert!(args.get_flag("naive"));
        assert!(!args.get_flag("bf16"));
        assert_eq!(args.get_str("missing", "dflt"), "dflt");
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        assert!(CliArgs::parse(Vec::<String>::new()).is_err());
        assert!(CliArgs::parse(["--flag-first"]).is_err());
        assert!(CliArgs::parse(["gen", "stray"]).is_err());
    }

    #[test]
    fn parse_obs_namespace() {
        let args = CliArgs::parse(["obs", "scrape", "--addr", "127.0.0.1:9"]).unwrap();
        assert_eq!(args.command, "obs scrape");
        assert_eq!(args.require_str("addr").unwrap(), "127.0.0.1:9");
        // A bare `obs` (or `obs --flag`) has no action and is rejected.
        assert!(CliArgs::parse(["obs"]).is_err());
        assert!(CliArgs::parse(["obs", "--addr", "x"]).is_err());
        // Unknown actions fall through to the usage error at dispatch.
        let args = CliArgs::parse(["obs", "emit"]).unwrap();
        assert!(run(&args).unwrap_err().to_string().contains("USAGE"));
    }

    #[test]
    fn obs_scrape_prints_exposition_from_a_live_daemon() {
        let spec = crate::net::FleetSpec {
            seed: 11,
            epochs: 0,
            ..Default::default()
        };
        let (model, test) = spec.build();
        let batching = Arc::new(
            BatchingServer::start(
                model,
                BatchConfig {
                    max_batch: 8,
                    max_wait: Duration::from_millis(1),
                    queue_cap: 64,
                    threads: 1,
                },
            )
            .unwrap(),
        );
        let net = crate::net::NetServer::start(
            Arc::clone(&batching),
            "127.0.0.1:0",
            crate::net::NetConfig::default(),
        )
        .unwrap();
        let queries = crate::net::query_battery(&test, 1);
        let mut client =
            crate::net::NetClient::connect(net.local_addr(), Duration::from_secs(5)).unwrap();
        client.predict(&queries[0].0, &queries[0].1, 3).unwrap();

        let args = CliArgs::parse([
            "obs",
            "scrape",
            "--addr",
            &net.local_addr().to_string(),
            "--timeout-ms",
            "5000",
        ])
        .unwrap();
        let text = run(&args).unwrap();
        for family in [
            "slide_net_requests_total",
            "slide_serve_requests_total",
            "slide_stage_us_count{stage=\"kernel\"}",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }

        // And a dead address reports a connect error, not a panic.
        drop(client);
        drop(net);
        let args = CliArgs::parse(["obs", "scrape", "--addr", "127.0.0.1:1"]).unwrap();
        assert!(run(&args).unwrap_err().to_string().contains("connect"));
    }

    #[test]
    fn numeric_parse_errors_name_the_flag() {
        let args = CliArgs::parse(["train", "--epochs", "many"]).unwrap();
        let err = args.get_usize("epochs", 1).unwrap_err();
        assert!(err.to_string().contains("--epochs"), "{err}");
        let args = CliArgs::parse(["train", "--lr", "fast"]).unwrap();
        assert!(args.get_f32("lr", 0.1).is_err());
    }

    #[test]
    fn missing_required_flag_is_reported() {
        let args = CliArgs::parse(["train"]).unwrap();
        let err = cmd_train(&args).unwrap_err();
        assert!(err.to_string().contains("--data"), "{err}");
    }

    #[test]
    fn unknown_subcommand_shows_usage() {
        let args = CliArgs::parse(["frobnicate"]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.to_string().contains("USAGE"), "{err}");
    }

    #[test]
    fn gen_train_eval_pipeline() {
        let dir = std::env::temp_dir().join(format!("slide_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.txt");
        let ckpt = dir.join("m.slide");

        // Generate a tiny dataset by hand (the presets are too large for a
        // unit test) and run train + eval through the CLI paths.
        let synth = crate::generate_synthetic(&SynthConfig {
            feature_dim: 128,
            label_dim: 32,
            n_train: 200,
            n_test: 50,
            ..Default::default()
        });
        write_xc(BufWriter::new(File::create(&data).unwrap()), &synth.train).unwrap();

        let train_args = CliArgs::parse([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--hidden",
            "8",
            "--epochs",
            "2",
            "--tables",
            "6",
            "--key-bits",
            "4",
            "--threads",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .unwrap();
        let report = run(&train_args).unwrap();
        assert!(report.contains("epoch 2"), "{report}");
        assert!(ckpt.exists());

        let eval_args = CliArgs::parse([
            "eval",
            "--data",
            data.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--hidden",
            "8",
            "--tables",
            "6",
            "--key-bits",
            "4",
            "--threads",
            "2",
        ])
        .unwrap();
        let report = run(&eval_args).unwrap();
        assert!(report.starts_with("P@1 = "), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
