//! Transaction version assignment.
//!
//! The paper requires that "the version of a transaction is chosen to be
//! larger than the versions of all objects accessed by the transaction"
//! (§III-A) and that versions are totally ordered. A single monotone counter
//! that is always advanced past every observed version satisfies both.

use std::sync::atomic::{AtomicU64, Ordering};
use tcache_types::Version;

/// The database's monotone version clock.
#[derive(Debug, Default)]
pub struct VersionClock {
    current: AtomicU64,
}

impl VersionClock {
    /// Creates a clock starting just above [`Version::INITIAL`].
    pub fn new() -> Self {
        VersionClock {
            current: AtomicU64::new(Version::INITIAL.as_u64()),
        }
    }

    /// Returns the most recently assigned version without advancing.
    pub fn current(&self) -> Version {
        Version(self.current.load(Ordering::SeqCst))
    }

    /// Assigns a version for a transaction that observed the given object
    /// versions: the result is strictly larger than every observed version
    /// and than every previously assigned version.
    pub fn assign(&self, observed: impl IntoIterator<Item = Version>) -> Version {
        let max_observed = observed
            .into_iter()
            .map(Version::as_u64)
            .max()
            .unwrap_or(0);
        // Raise the clock to at least the max observed version, then tick.
        let mut cur = self.current.load(Ordering::SeqCst);
        loop {
            let target = cur.max(max_observed) + 1;
            match self.current.compare_exchange(
                cur,
                target,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Version(target),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_strictly_increasing() {
        let clock = VersionClock::new();
        let v1 = clock.assign(vec![]);
        let v2 = clock.assign(vec![]);
        let v3 = clock.assign(vec![]);
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(clock.current(), v3);
    }

    #[test]
    fn assigned_version_exceeds_observed() {
        let clock = VersionClock::new();
        let v = clock.assign(vec![Version(10), Version(3)]);
        assert!(v > Version(10));
        // Later assignments keep increasing even with smaller observations.
        let v2 = clock.assign(vec![Version(1)]);
        assert!(v2 > v);
    }

    #[test]
    fn concurrent_assignments_are_unique() {
        use std::sync::Arc;
        let clock = Arc::new(VersionClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| c.assign(vec![])).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Version> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "no two transactions share a version");
    }
}
