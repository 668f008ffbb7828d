//! Convenience re-exports for downstream users.
//!
//! ```
//! use tcache::prelude::*;
//!
//! let system = SystemBuilder::new().dependency_bound(3).build();
//! system.populate((0..4u64).map(|i| (ObjectId(i), Value::new(0))));
//! let _ = system.update(&[ObjectId(0), ObjectId(1)]);
//! ```

pub use crate::builder::SystemBuilder;
pub use crate::system::{ReadOutcome, SystemStats, TCacheSystem};
pub use crate::transport::{DeliveryMode, TransportMode};
pub use tcache_cache::{EdgeCache, Strategy};
pub use tcache_net::pipe::OverflowPolicy;
pub use tcache_db::{Database, DatabaseConfig};
pub use tcache_types::{
    CachePolicyConfig, DependencyBound, DependencyList, ObjectId, SimDuration, SimTime, TxnId,
    Value, Version,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        let system = SystemBuilder::new().build();
        system.populate([(ObjectId(0), Value::new(0))]);
        assert_eq!(system.database().object_count(), 1);
        let _: Strategy = Strategy::Retry;
        let _: DependencyBound = DependencyBound::Bounded(2);
    }
}
