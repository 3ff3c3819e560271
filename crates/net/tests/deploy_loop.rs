//! The continuous-deployment acceptance run (ISSUE 10 tentpole): a real
//! `slide_trainerd` process publishes gated versions into a registry while
//! a real `slide_netd --follow` process serves live TCP load and hot-swaps
//! onto each publish.
//!
//! The contract under a live train→serve loop:
//! * the follower starts against an **empty** registry and waits for the
//!   trainer's first publish instead of dying;
//! * **every swap is observed** — one `SLIDE_NETD SWAPPED` line per
//!   version after the cold-start one, and the gate's rejected round
//!   never produces a swap;
//! * **zero hard errors** — clients querying straight through the swap
//!   windows see only clean answers (or explicit `RetryLater` shedding);
//! * **bit-equality per version** — every answer equals the in-process
//!   replay of exactly one *published* version for that query (loaded
//!   back from the registry's own files post-hoc, so the check does not
//!   assume trainer determinism), and more than one version is seen, so
//!   the load provably straddled a swap.

mod daemon;

use slide_mem::SparseVecRef;
use slide_net::{query_battery, ClientError, FleetSpec, NetClient};
use slide_serve::query_salt;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const K: usize = 5;

/// A child whose full stdout is captured line-by-line (the `Daemon`
/// harness discards post-LISTENING lines; here the SWAPPED/PUBLISHED
/// lines *are* the assertions).
struct Tailed {
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
}

impl Tailed {
    fn spawn(bin: &str, args: &[&str]) -> Tailed {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn tailed child");
        let stdout = child.stdout.take().expect("piped stdout");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.lock().expect("line sink").push(line);
            }
        });
        Tailed { child, lines }
    }

    fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("line sink").clone()
    }

    /// Wait (bounded) for a line containing `needle`; returns it.
    fn await_line(&self, needle: &str, patience: Duration) -> String {
        let deadline = Instant::now() + patience;
        loop {
            if let Some(line) = self.lines().iter().find(|l| l.contains(needle)) {
                return line.clone();
            }
            assert!(
                Instant::now() < deadline,
                "no line containing {needle:?} within {patience:?}; saw {:?}",
                self.lines()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Close stdin (graceful stop) and wait for exit.
    fn shutdown(&mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        panic!("child did not exit after stdin EOF");
    }
}

impl Drop for Tailed {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn live_fleet_hot_swaps_every_published_version_with_zero_hard_errors() {
    let root = std::env::temp_dir().join(format!("slide_deploy_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let reg_dir = root.join("registry");
    std::fs::create_dir_all(&reg_dir).expect("mkdir registry");
    let reg_str = reg_dir.to_str().expect("utf-8 path").to_owned();

    // Follower first, against the EMPTY registry: it must wait for the
    // trainer's first publish, then report LISTENING.
    let mut netd = Tailed::spawn(
        env!("CARGO_BIN_EXE_slide_netd"),
        &[
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            &reg_str,
            "--follow",
            "--poll-ms",
            "20",
            "--threads",
            "2",
            "--queue-cap",
            "128",
        ],
    );

    // Trainer: 4 rounds, regression injected at round 4 ⇒ published
    // versions are exactly {1, 2, 3} and exactly one rejection. The
    // inter-round period keeps each version live long enough for the
    // client loop below to observe it.
    let mut trainerd = Tailed::spawn(
        env!("CARGO_BIN_EXE_slide_trainerd"),
        &[
            "--registry",
            &reg_str,
            "--rounds",
            "4",
            "--epochs-per-round",
            "2",
            "--period-ms",
            "1000",
            "--inject-regression-at",
            "4",
        ],
    );

    let listening = netd.await_line("SLIDE_NETD LISTENING", Duration::from_secs(60));
    let addr = listening
        .rsplit(' ')
        .next()
        .expect("LISTENING line has an address")
        .to_owned();

    // Open-loop-ish client: hammer the query battery until the trainer
    // finishes, remembering every answer for post-hoc version matching.
    let test = slide_data::generate_synthetic(&FleetSpec::default().synth_config()).test;
    let queries = query_battery(&test, 24);
    let done = Arc::new(AtomicBool::new(false));
    let client_handle = {
        let queries = queries.clone();
        let done = Arc::clone(&done);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client =
                NetClient::connect(&addr, Duration::from_secs(5)).expect("connect client");
            let mut answers: Vec<(usize, Vec<u32>)> = Vec::new();
            let mut hard_errors = 0usize;
            let mut ok = 0usize;
            let mut qi = 0usize;
            while !done.load(Ordering::Relaxed) {
                let (idx, val) = &queries[qi % queries.len()];
                match client.predict(idx, val, K) {
                    Ok(top) => {
                        ok += 1;
                        answers.push((qi % queries.len(), top));
                    }
                    Err(ClientError::RetryLater { .. }) => {}
                    Err(_) => hard_errors += 1,
                }
                qi += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            (answers, ok, hard_errors)
        })
    };

    trainerd.await_line("SLIDE_TRAINERD DONE", Duration::from_secs(120));
    // Let the watcher catch the final publish before stopping the load.
    netd.await_line("SWAPPED v000003", Duration::from_secs(30));
    done.store(true, Ordering::Relaxed);
    let (answers, ok, hard_errors) = client_handle.join().expect("client thread");

    // Scrape deployment metrics off the live daemon before draining it.
    let metrics = NetClient::connect(&addr, Duration::from_secs(5))
        .and_then(|mut c| c.metrics_text())
        .expect("scrape metrics");

    trainerd.shutdown();
    netd.shutdown();

    // Trainer-side contract: three publishes, one rejection.
    let tlines = trainerd.lines();
    let published: Vec<&String> = tlines
        .iter()
        .filter(|l| l.contains("SLIDE_TRAINERD PUBLISHED"))
        .collect();
    assert_eq!(published.len(), 3, "want 3 published rounds: {tlines:?}");
    assert_eq!(
        tlines
            .iter()
            .filter(|l| l.contains("SLIDE_TRAINERD REJECTED"))
            .count(),
        1,
        "want exactly one gate rejection: {tlines:?}"
    );

    // Registry-side contract: versions 1..=3 on disk, CURRENT at 3 (the
    // rejected round 4 must not have moved the pointer).
    let registry = slide_serve::ModelRegistry::open(&reg_dir).expect("open registry");
    assert_eq!(registry.versions().expect("versions"), vec![1, 2, 3]);
    assert_eq!(registry.current_version().expect("current"), Some(3));

    // Follower-side contract: cold-start on v1, then one SWAPPED line per
    // later version — every swap observed, none for the rejected round.
    let nlines = netd.lines();
    let swapped: Vec<&String> = nlines.iter().filter(|l| l.contains("SWAPPED")).collect();
    assert_eq!(
        swapped.len(),
        2,
        "want swaps onto v2 and v3 only: {nlines:?}"
    );
    assert!(swapped[0].contains("v000002"), "first swap: {swapped:?}");
    assert!(swapped[1].contains("v000003"), "second swap: {swapped:?}");
    for line in &swapped {
        let staleness: u64 = line
            .rsplit(' ')
            .next()
            .expect("staleness field")
            .parse()
            .expect("staleness_us parses");
        assert!(
            staleness < 60_000_000,
            "staleness {staleness}us is implausible: {line}"
        );
    }
    assert!(
        metrics.contains("slide_deploy_swaps_total 2"),
        "metrics must count both swaps: {metrics}"
    );
    assert!(
        metrics.contains("slide_deploy_staleness_us"),
        "staleness histogram missing from scrape"
    );

    // Client-side contract: clean answers only, and every answer is
    // bit-equal to exactly one published version's in-process replay.
    assert_eq!(hard_errors, 0, "hard errors under hot-swap load");
    assert!(ok > 50, "client barely ran ({ok} ok answers)");
    let mut per_version: Vec<Vec<Vec<u32>>> = Vec::new();
    for v in registry.versions().expect("versions") {
        let model = slide_serve::load(&registry.version_path(v)).expect("load version");
        let mut scratch = model.make_scratch_any();
        per_version.push(
            queries
                .iter()
                .map(|(idx, val)| {
                    let salt = query_salt(idx, val, K);
                    model.predict_any(SparseVecRef::new(idx, val), K, &mut *scratch, salt)
                })
                .collect(),
        );
    }
    let mut versions_seen = BTreeSet::new();
    for (qi, got) in &answers {
        let matches: Vec<usize> = per_version
            .iter()
            .enumerate()
            .filter(|(_, want)| &want[*qi] == got)
            .map(|(v, _)| v + 1)
            .collect();
        assert!(
            !matches.is_empty(),
            "answer for query {qi} matches NO published version: {got:?}"
        );
        // Distinct versions can legitimately agree on easy queries; an
        // answer is attributed when it is unambiguous.
        if matches.len() == 1 {
            versions_seen.insert(matches[0]);
        }
    }
    assert!(
        versions_seen.len() >= 2,
        "load never straddled a swap (unambiguous versions seen: {versions_seen:?})"
    );
}
