//! Watchdog helpers shared by the net integration tests: a lost wakeup or
//! a broken hand-off guard leaves a scenario blocked forever, so every wait
//! is bounded and a hang fails the test instead of stalling the suite.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a scenario may take before it counts as hung. Far above any
/// scheduling hiccup; a lost message or wakeup never completes at all.
pub const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `scenario` on its own thread and fails if it has not finished
/// within [`WATCHDOG`] (the stuck thread is abandoned to process exit).
pub fn within_watchdog<R: Send + 'static>(
    what: &str,
    scenario: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(scenario());
    });
    finished
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{what}: hung or panicked — a wakeup or message was lost"))
}

/// Spins (yielding) until `condition` holds; panics past the watchdog.
pub fn spin_until(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + WATCHDOG;
    while !condition() {
        assert!(Instant::now() < deadline, "{what}: never happened");
        std::thread::yield_now();
    }
}
