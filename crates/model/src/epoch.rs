//! Exhaustive interleaving model of the fetch-vs-invalidate race on one
//! cache stripe.
//!
//! `CacheStorage` admits a fetched entry only if the stripe's *admission
//! epoch* is unchanged since the miss that started the fetch; every
//! invalidation bumps the epoch and unlinks a strictly older entry.
//! [`explore_epoch`] interleaves an installer (miss: read the epoch; fetch
//! the database's version with no lock held; epoch and newer-cached veto;
//! install) with a committer-invalidator (commit the new version; bump the
//! epoch; unlink older) at the granularity of those sub-steps. The
//! invariant: **no invalidation is lost** — once the invalidation of
//! version `v` completes, the slot never holds a version `< v`. With the
//! stripe mutex ([`EpochModelConfig::locked`]) the veto + install and the
//! bump + unlink are each one atomic transition and the invariant holds;
//! with the lock removed ([`EpochModelConfig::unlocked`]) the check/install
//! split loses the race — the buried-invalidation bug the stripe mutex of
//! `ShardedCacheStorage` is the fix for, kept as a counterexample so
//! `model_check` demonstrates the model *detects* it.
//!
//! The explorer is a plain hand-rolled BFS over hashable states, in the
//! style of [`crate::explore()`], with parent links for counterexample
//! reconstruction. The state space is tiny (tens of states) so the
//! exploration is exact, not sampled.

use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Statistics of one exhaustive exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStats {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions generated (including edges into visited states).
    pub transitions: u64,
    /// Depth of the deepest newly-discovered state.
    pub depth: usize,
}

/// A counterexample: what went wrong plus the interleaving reaching it.
#[derive(Debug, Clone)]
pub struct EpochViolation {
    /// Human-readable description of the violated invariant.
    pub description: String,
    /// The action sequence from the initial state to the violation.
    pub trace: Vec<String>,
}

impl fmt::Display for EpochViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.description)
    }
}

/// Result of [`explore_epoch`].
#[derive(Debug, Clone)]
pub struct EpochExploration {
    /// Exploration statistics (exact when no violation was found).
    pub stats: EpochStats,
    /// First violation found (BFS order: depth-minimal), if any.
    pub violation: Option<EpochViolation>,
}

/// Scenario parameters for the admission epoch model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochModelConfig {
    /// Scenario name for reports.
    pub name: &'static str,
    /// Misses the installer serves one after the other, each fetching
    /// whatever version the database holds at that moment.
    pub attempts: u8,
    /// Version the committer installs in the database (it starts at 1)
    /// and then invalidates.
    pub committed: u64,
    /// Run the veto + install and the bump + unlink each as one atomic
    /// transition — the stripe lock. When `false` those sub-steps
    /// interleave freely. The miss and the fetch are separate steps either
    /// way: the fetch holds no lock.
    pub locked: bool,
}

impl EpochModelConfig {
    /// The implementation: storage operations serialized per stripe. Must
    /// hold.
    pub fn locked() -> Self {
        EpochModelConfig {
            name: "epoch_locked",
            attempts: 2,
            committed: 2,
            locked: true,
        }
    }

    /// The stripe lock removed: the epoch check and the entry install
    /// interleave with the invalidator, and an invalidation can be lost.
    pub fn unlocked() -> Self {
        EpochModelConfig {
            name: "epoch_unlocked",
            locked: false,
            ..Self::locked()
        }
    }
}

/// Where the installer is within one miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Installer {
    /// About to look the object up (and read the epoch on the miss).
    Miss,
    /// Holds the token; about to fetch.
    Fetch { token: u64 },
    /// Holds the token and the fetched version; about to admit.
    Admit { token: u64, version: u64 },
    /// Unlocked only: the vetoes are decided, the install is pending.
    Install { version: u64, admitted: bool },
}

/// Where the committer-invalidator is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Invalidator {
    Commit,
    Bump,
    /// Unlocked only: the epoch is bumped, the unlink is pending.
    Unlink,
    Done,
}

/// One interleaving state of the epoch model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EpochState {
    /// Cached version, if any.
    entry: Option<u64>,
    /// The stripe's admission epoch.
    epoch: u64,
    /// The database's version of the object.
    db: u64,
    /// Misses the installer has finished.
    done: u8,
    installer: Installer,
    invalidator: Invalidator,
}

/// One atomic step of the epoch model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochAction {
    Miss,
    Fetch(u64),
    AdmitAtomic(u64),
    CheckVetoes(u64),
    Install(u64),
    Commit,
    InvalidateAtomic,
    BumpEpoch,
    UnlinkOlder,
}

impl fmt::Display for EpochAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EpochAction::Miss => write!(f, "installer: miss, read epoch"),
            EpochAction::Fetch(v) => write!(f, "installer: fetch v{v} (no lock)"),
            EpochAction::AdmitAtomic(v) => write!(f, "installer: veto check+install v{v} (locked)"),
            EpochAction::CheckVetoes(v) => write!(f, "installer: epoch/newer check for v{v}"),
            EpochAction::Install(v) => write!(f, "installer: install v{v}"),
            EpochAction::Commit => write!(f, "committer: commit new version"),
            EpochAction::InvalidateAtomic => write!(f, "invalidator: bump+unlink (locked)"),
            EpochAction::BumpEpoch => write!(f, "invalidator: bump epoch"),
            EpochAction::UnlinkOlder => write!(f, "invalidator: unlink strictly older"),
        }
    }
}

/// The epoch veto and newer-cached veto as `CacheStorage::insert`
/// performs them.
fn admitted(state: &EpochState, token: u64, version: u64) -> bool {
    token == state.epoch && state.entry.is_none_or(|cached| version >= cached)
}

/// Installs `version` if `admitted` and moves on to the next miss.
fn finish_miss(next: &mut EpochState, version: u64, admitted: bool) {
    if admitted {
        next.entry = Some(version);
    }
    next.done += 1;
    next.installer = Installer::Miss;
}

fn unlink_older(next: &mut EpochState, config: &EpochModelConfig) {
    if next.entry.is_some_and(|cached| cached < config.committed) {
        next.entry = None;
    }
}

fn epoch_successors(
    state: &EpochState,
    config: &EpochModelConfig,
) -> Vec<(EpochAction, EpochState)> {
    let mut out = Vec::new();

    if state.done < config.attempts {
        let mut next = state.clone();
        let action = match state.installer {
            Installer::Miss => {
                next.installer = Installer::Fetch { token: state.epoch };
                EpochAction::Miss
            }
            Installer::Fetch { token } => {
                next.installer = Installer::Admit {
                    token,
                    version: state.db,
                };
                EpochAction::Fetch(state.db)
            }
            Installer::Admit { token, version } if config.locked => {
                finish_miss(&mut next, version, admitted(state, token, version));
                EpochAction::AdmitAtomic(version)
            }
            Installer::Admit { token, version } => {
                next.installer = Installer::Install {
                    version,
                    admitted: admitted(state, token, version),
                };
                EpochAction::CheckVetoes(version)
            }
            Installer::Install { version, admitted } => {
                finish_miss(&mut next, version, admitted);
                EpochAction::Install(version)
            }
        };
        out.push((action, next));
    }

    let mut next = state.clone();
    let action = match state.invalidator {
        Invalidator::Commit => {
            next.db = config.committed;
            next.invalidator = Invalidator::Bump;
            Some(EpochAction::Commit)
        }
        Invalidator::Bump if config.locked => {
            next.epoch += 1;
            unlink_older(&mut next, config);
            next.invalidator = Invalidator::Done;
            Some(EpochAction::InvalidateAtomic)
        }
        Invalidator::Bump => {
            next.epoch += 1;
            next.invalidator = Invalidator::Unlink;
            Some(EpochAction::BumpEpoch)
        }
        Invalidator::Unlink => {
            unlink_older(&mut next, config);
            next.invalidator = Invalidator::Done;
            Some(EpochAction::UnlinkOlder)
        }
        Invalidator::Done => None,
    };
    if let Some(action) = action {
        out.push((action, next));
    }

    out
}

/// Exhaustive BFS over the fetch/invalidate race, checking that once the
/// invalidation has completed the slot never holds a version older than
/// the committed one (no invalidation lost).
pub fn explore_epoch(config: &EpochModelConfig) -> EpochExploration {
    let initial = EpochState {
        entry: None,
        epoch: 0,
        db: 1,
        done: 0,
        installer: Installer::Miss,
        invalidator: Invalidator::Commit,
    };
    let mut states = vec![initial.clone()];
    let mut index: HashMap<EpochState, usize> = HashMap::from([(initial, 0)]);
    let mut parents: Vec<Option<(usize, EpochAction)>> = vec![None];
    let mut depths = vec![0usize];
    let mut queue = VecDeque::from([0usize]);
    let mut stats = EpochStats {
        states: 1,
        ..EpochStats::default()
    };

    while let Some(current) = queue.pop_front() {
        let state = states[current].clone();
        for (action, next) in epoch_successors(&state, config) {
            stats.transitions += 1;
            let lost = next.invalidator == Invalidator::Done
                && next.entry.is_some_and(|cached| cached < config.committed);
            if lost {
                let cached = next.entry.expect("violation requires a cached entry");
                let description = format!(
                    "invalidation of v{} lost: slot still caches v{} after completion",
                    config.committed, cached
                );
                let mut trace = vec![action.to_string()];
                let mut at = current;
                while let Some((parent, step)) = parents[at] {
                    trace.push(step.to_string());
                    at = parent;
                }
                trace.reverse();
                return EpochExploration {
                    stats,
                    violation: Some(EpochViolation { description, trace }),
                };
            }
            if index.contains_key(&next) {
                continue;
            }
            let id = states.len();
            index.insert(next.clone(), id);
            states.push(next);
            parents.push(Some((current, action)));
            let depth = depths[current] + 1;
            depths.push(depth);
            stats.depth = stats.depth.max(depth);
            stats.states += 1;
            queue.push_back(id);
        }
    }

    EpochExploration {
        stats,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_epoch_never_loses_an_invalidation() {
        let result = explore_epoch(&EpochModelConfig::locked());
        assert!(
            result.violation.is_none(),
            "locked epoch violated: {:?}",
            result.violation
        );
        // Both outcomes of the race are reachable: a stale fetch landing
        // before the invalidation (then unlinked) and one vetoed after it.
        assert!(result.stats.states > 10, "{:?}", result.stats);
    }

    #[test]
    fn unlocked_epoch_loses_the_race() {
        let result = explore_epoch(&EpochModelConfig::unlocked());
        let violation = result.violation.expect("split check/install must lose");
        assert!(violation.description.contains("lost"));
        // The depth-minimal counterexample: the stale fetch passes its
        // check, the invalidation completes, then the install lands.
        assert_eq!(
            violation.trace,
            [
                "installer: miss, read epoch",
                "installer: fetch v1 (no lock)",
                "installer: epoch/newer check for v1",
                "committer: commit new version",
                "invalidator: bump epoch",
                "invalidator: unlink strictly older",
                "installer: install v1",
            ]
        );
    }
}
