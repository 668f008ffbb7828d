//! Exhaustive interleaving model of the install-vs-invalidate race on one
//! cache slot.
//!
//! `CacheStorage` keeps, per object, the cached entry and an admission
//! *floor* raised by every invalidation. [`explore_floor`] interleaves an
//! installer (floor veto, newer-cached veto, install) with an invalidator
//! (raise floor, unlink strictly older) at the granularity of those
//! sub-steps. The invariant: **no invalidation is lost** — once an
//! invalidation to floor `f` completes, the slot never holds a version
//! `< f`. With the stripe mutex ([`FloorModelConfig::locked`]) each logical
//! operation is one atomic transition and the invariant holds; with the
//! lock removed ([`FloorModelConfig::unlocked`]) the check/install split
//! loses the race — the buried-invalidation bug the stripe mutex of
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
pub struct FloorStats {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions generated (including edges into visited states).
    pub transitions: u64,
    /// Depth of the deepest newly-discovered state.
    pub depth: usize,
}

/// A counterexample: what went wrong plus the interleaving reaching it.
#[derive(Debug, Clone)]
pub struct FloorViolation {
    /// Human-readable description of the violated invariant.
    pub description: String,
    /// The action sequence from the initial state to the violation.
    pub trace: Vec<String>,
}

impl fmt::Display for FloorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.description)
    }
}

/// Result of [`explore_floor`].
#[derive(Debug, Clone)]
pub struct FloorExploration {
    /// Exploration statistics (exact when no violation was found).
    pub stats: FloorStats,
    /// First violation found (BFS order: depth-minimal), if any.
    pub violation: Option<FloorViolation>,
}

/// Scenario parameters for the invalidation floor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloorModelConfig {
    /// Scenario name for reports.
    pub name: &'static str,
    /// Versions the installer tries to cache, in order.
    pub installs: [u64; 2],
    /// Floor the invalidator raises the slot to.
    pub floor: u64,
    /// Run each logical operation (floor-check + install; raise + unlink)
    /// as one atomic transition — the per-stripe write lock. When `false`
    /// every sub-step interleaves freely.
    pub locked: bool,
}

impl FloorModelConfig {
    /// The implementation: writers serialized per stripe. Must hold.
    pub fn locked() -> Self {
        FloorModelConfig {
            name: "floor_locked",
            installs: [1, 3],
            floor: 2,
            locked: true,
        }
    }

    /// The stripe lock removed: the floor check and the entry install
    /// interleave with the invalidator, and an invalidation can be lost.
    pub fn unlocked() -> Self {
        FloorModelConfig {
            name: "floor_unlocked",
            locked: false,
            ..Self::locked()
        }
    }
}

/// One interleaving state of the floor model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FloorState {
    /// Cached version, if any.
    entry: Option<u64>,
    /// Admission floor of the slot.
    floor: u64,
    /// Index of the installer's next script entry.
    install_idx: u8,
    /// Pending split install: `Some((version, passed_checks))` between the
    /// installer's check and install steps.
    pending: Option<(u64, bool)>,
    /// Invalidator program counter: 0 = raise, 1 = unlink, 2 = done.
    invalidator_pc: u8,
}

/// One atomic step of the floor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FloorAction {
    CheckFloor(u64),
    Install(u64),
    InstallAtomic(u64),
    RaiseFloor,
    UnlinkOlder,
    InvalidateAtomic,
    InvalidateDone,
}

impl fmt::Display for FloorAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FloorAction::CheckFloor(v) => write!(f, "installer: floor/newer check for v{v}"),
            FloorAction::Install(v) => write!(f, "installer: install v{v}"),
            FloorAction::InstallAtomic(v) => write!(f, "installer: check+install v{v} (locked)"),
            FloorAction::RaiseFloor => write!(f, "invalidator: raise floor"),
            FloorAction::UnlinkOlder => write!(f, "invalidator: unlink strictly older"),
            FloorAction::InvalidateAtomic => write!(f, "invalidator: raise+unlink (locked)"),
            FloorAction::InvalidateDone => write!(f, "invalidator: done"),
        }
    }
}

/// The floor check and newer-cached veto as `CacheStorage::insert`
/// performs them.
fn install_allowed(state: &FloorState, version: u64) -> bool {
    version >= state.floor && state.entry.is_none_or(|cached| version >= cached)
}

fn floor_successors(
    state: &FloorState,
    config: &FloorModelConfig,
) -> Vec<(FloorAction, FloorState)> {
    let mut out = Vec::new();

    if let Some((version, ok)) = state.pending {
        let mut next = state.clone();
        if ok {
            next.entry = Some(version);
        }
        next.pending = None;
        next.install_idx += 1;
        out.push((FloorAction::Install(version), next));
    } else if (state.install_idx as usize) < config.installs.len() {
        let version = config.installs[state.install_idx as usize];
        if config.locked {
            let mut next = state.clone();
            if install_allowed(state, version) {
                next.entry = Some(version);
            }
            next.install_idx += 1;
            out.push((FloorAction::InstallAtomic(version), next));
        } else {
            let mut next = state.clone();
            next.pending = Some((version, install_allowed(state, version)));
            out.push((FloorAction::CheckFloor(version), next));
        }
    }

    match (state.invalidator_pc, config.locked) {
        (0, true) => {
            let mut next = state.clone();
            next.floor = next.floor.max(config.floor);
            if next.entry.is_some_and(|cached| cached < config.floor) {
                next.entry = None;
            }
            next.invalidator_pc = 2;
            out.push((FloorAction::InvalidateAtomic, next));
        }
        (0, false) => {
            let mut next = state.clone();
            next.floor = next.floor.max(config.floor);
            next.invalidator_pc = 1;
            out.push((FloorAction::RaiseFloor, next));
        }
        (1, _) => {
            let mut next = state.clone();
            if next.entry.is_some_and(|cached| cached < config.floor) {
                next.entry = None;
            }
            next.invalidator_pc = 2;
            out.push((FloorAction::UnlinkOlder, next));
        }
        (2, _) => {
            let mut next = state.clone();
            next.invalidator_pc = 3;
            out.push((FloorAction::InvalidateDone, next));
        }
        _ => {}
    }

    out
}

/// Exhaustive BFS over the invalidation/apply race, checking that once the
/// invalidation has completed the slot never holds a version below its
/// floor (no invalidation lost).
pub fn explore_floor(config: &FloorModelConfig) -> FloorExploration {
    let initial = FloorState {
        entry: None,
        floor: 0,
        install_idx: 0,
        pending: None,
        invalidator_pc: 0,
    };
    let mut states = vec![initial.clone()];
    let mut index: HashMap<FloorState, usize> = HashMap::from([(initial, 0)]);
    let mut parents: Vec<Option<(usize, FloorAction)>> = vec![None];
    let mut depths = vec![0usize];
    let mut queue = VecDeque::from([0usize]);
    let mut stats = FloorStats {
        states: 1,
        ..FloorStats::default()
    };

    while let Some(current) = queue.pop_front() {
        let state = states[current].clone();
        for (action, next) in floor_successors(&state, config) {
            stats.transitions += 1;
            let lost = next.invalidator_pc >= 3
                && next.entry.is_some_and(|cached| cached < config.floor);
            if lost {
                let cached = next.entry.expect("violation requires a cached entry");
                let description = format!(
                    "invalidation to floor {} lost: slot still caches v{} after completion",
                    config.floor, cached
                );
                let mut trace = vec![action.to_string()];
                let mut at = current;
                while let Some((parent, step)) = parents[at] {
                    trace.push(step.to_string());
                    at = parent;
                }
                trace.reverse();
                return FloorExploration {
                    stats,
                    violation: Some(FloorViolation { description, trace }),
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

    FloorExploration {
        stats,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_floor_never_loses_an_invalidation() {
        let result = explore_floor(&FloorModelConfig::locked());
        assert!(
            result.violation.is_none(),
            "locked floor violated: {:?}",
            result.violation
        );
    }

    #[test]
    fn unlocked_floor_loses_the_race() {
        let result = explore_floor(&FloorModelConfig::unlocked());
        let violation = result.violation.expect("split check/install must lose");
        assert!(violation.description.contains("lost"));
    }
}
