//! Error types shared across the T-Cache crates.

use crate::ids::{CacheId, ObjectId, TxnId};
use std::error::Error;
use std::fmt;

/// Convenient result alias using [`TCacheError`].
pub type TCacheResult<T> = Result<T, TCacheError>;

/// Errors produced by the database, the cache and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TCacheError {
    /// The requested object does not exist in the database.
    UnknownObject(ObjectId),
    /// A read-only transaction observed (or would observe) inconsistent
    /// data and was aborted by the cache.
    InconsistencyAbort {
        /// The aborted transaction.
        txn: TxnId,
        /// The object whose stale version triggered the abort.
        violating_object: ObjectId,
    },
    /// An update transaction was aborted by the database concurrency
    /// control (lock conflict or deadlock avoidance).
    UpdateAborted {
        /// The aborted transaction.
        txn: TxnId,
        /// Human readable reason.
        reason: ConflictReason,
    },
    /// The transaction id is not known to the component (e.g. a commit for
    /// a transaction that was never started, or a read after `last_op`).
    UnknownTransaction(TxnId),
    /// The addressed cache server is not deployed in this system.
    UnknownCache(CacheId),
    /// The operation is invalid in the component's current state.
    InvalidOperation(&'static str),
    /// The cache is configured without a backing database connection and a
    /// miss cannot be served.
    NoBackend,
    /// The cache is deployed, but its lifecycle state forbids the operation
    /// (e.g. resuming a cache that was never paused, or pausing one that
    /// has crashed).
    InvalidCacheState {
        /// The cache the operation addressed.
        cache: CacheId,
        /// The operation that was requested.
        operation: &'static str,
        /// The state that forbids it.
        state: &'static str,
    },
}

/// Why the database aborted an update transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConflictReason {
    /// A lock could not be acquired because another in-flight transaction
    /// holds it.
    LockConflict,
}

impl fmt::Display for ConflictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictReason::LockConflict => write!(f, "lock conflict"),
        }
    }
}

impl fmt::Display for TCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TCacheError::UnknownObject(o) => write!(f, "unknown object {o}"),
            TCacheError::InconsistencyAbort {
                txn,
                violating_object,
            } => write!(
                f,
                "transaction {txn} aborted: inconsistency involving {violating_object}"
            ),
            TCacheError::UpdateAborted { txn, reason } => {
                write!(f, "update transaction {txn} aborted: {reason}")
            }
            TCacheError::UnknownTransaction(t) => write!(f, "unknown transaction {t}"),
            TCacheError::UnknownCache(c) => write!(f, "unknown cache server {c}"),
            TCacheError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            TCacheError::NoBackend => write!(f, "cache has no backend database configured"),
            TCacheError::InvalidCacheState {
                cache,
                operation,
                state,
            } => {
                write!(f, "cannot {operation} {cache}: cache is {state}")
            }
        }
    }
}

impl Error for TCacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TCacheError::UnknownObject(ObjectId(4));
        assert!(e.to_string().contains("o4"));
        let e = TCacheError::InconsistencyAbort {
            txn: TxnId(1),
            violating_object: ObjectId(2),
        };
        assert!(e.to_string().contains("t1"));
        assert!(e.to_string().contains("o2"));
        let e = TCacheError::UpdateAborted {
            txn: TxnId(9),
            reason: ConflictReason::LockConflict,
        };
        assert!(e.to_string().contains("lock conflict"));
        assert!(TCacheError::NoBackend.to_string().contains("backend"));
        assert!(TCacheError::UnknownTransaction(TxnId(5)).to_string().contains("t5"));
        assert!(TCacheError::UnknownCache(CacheId(3)).to_string().contains("cache3"));
        assert!(TCacheError::InvalidOperation("x").to_string().contains("x"));
        let e = TCacheError::InvalidCacheState {
            cache: CacheId(2),
            operation: "resume",
            state: "not paused",
        };
        assert!(e.to_string().contains("cache2"));
        assert!(e.to_string().contains("resume"));
        assert!(e.to_string().contains("not paused"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_error(TCacheError::NoBackend);
    }

    #[test]
    fn conflict_reason_display() {
        assert_eq!(ConflictReason::LockConflict.to_string(), "lock conflict");
    }
}
