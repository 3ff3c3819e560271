//! Process plumbing the daemons share: shutdown on stdin EOF, and the one
//! deterministic jitter every retry backoff in the crate draws from.

use slide_core::mix::mix64;
use std::io::Read;
use std::sync::mpsc;
use std::time::Duration;

/// Watches stdin on a helper thread: EOF (or a read error) is the parent's
/// "shut down" — the portable SIGTERM-equivalent. The parent holds our
/// stdin pipe, so closing it, or the parent dying, stops the daemon.
pub struct StdinEof {
    rx: mpsc::Receiver<()>,
}

impl StdinEof {
    /// Start watching stdin.
    pub fn spawn() -> StdinEof {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            let mut stdin = std::io::stdin().lock();
            while let Ok(1..) = stdin.read(&mut buf) {}
            let _ = tx.send(());
        });
        StdinEof { rx }
    }

    /// Wait up to `timeout` for stdin to close; true once it has.
    pub fn wait(&self, timeout: Duration) -> bool {
        !matches!(
            self.rx.recv_timeout(timeout),
            Err(mpsc::RecvTimeoutError::Timeout)
        )
    }
}

/// Map a hash to a uniform fraction in [0, 1).
pub(crate) fn unit_fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// `base` scaled by a deterministic factor in [0.75, 1.25) keyed on `key`:
/// the same key always waits the same time, so runs repeat, while distinct
/// keys (replicas, processes, attempts) fall out of lockstep.
pub fn jitter(base: Duration, key: u64) -> Duration {
    base.mul_f64(0.75 + unit_fraction(mix64(key)) * 0.5)
}
