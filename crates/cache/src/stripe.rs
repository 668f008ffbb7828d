//! The lock-striping primitive shared by the cache's concurrent
//! structures.
//!
//! [`Striped<T>`] holds N independently locked copies of `T` (N rounded up
//! to a power of two) and routes a `u64` key to one of them with Fibonacci
//! hashing. [`crate::storage::ShardedCacheStorage`] stripes by `ObjectId`
//! and [`crate::txn_record::ShardedTransactionTable`] by `TxnId`; keeping
//! the selection logic in one place guarantees the two can never drift
//! apart.

use parking_lot::Mutex;

/// N independently locked stripes of `T`, selected by key hash.
#[derive(Debug)]
pub struct Striped<T> {
    stripes: Box<[Mutex<T>]>,
    mask: u64,
}

impl<T> Striped<T> {
    /// Creates `stripes` stripes (rounded up to a power of two), each
    /// initialised by `init`.
    ///
    /// # Panics
    /// Panics if `stripes` is zero.
    pub fn new(stripes: usize, mut init: impl FnMut() -> T) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        let stripes = stripes.next_power_of_two();
        let stripes: Vec<Mutex<T>> = (0..stripes).map(|_| Mutex::new(init())).collect();
        Striped {
            mask: stripes.len() as u64 - 1,
            stripes: stripes.into_boxed_slice(),
        }
    }

    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe responsible for `key`. Fibonacci hashing spreads the
    /// dense ids the workloads use evenly across stripes.
    pub fn stripe_for(&self, key: u64) -> &Mutex<T> {
        &self.stripes[self.index_for(key)]
    }

    /// The stripe *index* `key` routes to (diagnostics and budget
    /// rebalancing; same hash as [`Striped::stripe_for`]).
    pub fn index_for(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E3779B97F4A7C15) >> 32;
        (h & self.mask) as usize
    }

    /// The stripe at `index` (budget rebalancing; panics if out of range).
    pub fn stripe_at(&self, index: usize) -> &Mutex<T> {
        &self.stripes[index]
    }

    /// Iterates over all stripes (for aggregate queries; callers lock one
    /// stripe at a time).
    pub fn iter(&self) -> impl Iterator<Item = &Mutex<T>> {
        self.stripes.iter()
    }

    /// Iterates mutably over all stripes (construction-time configuration;
    /// `&mut self` proves no lock is needed).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Mutex<T>> {
        self.stripes.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_power_of_two_and_routes_stably() {
        let s: Striped<u32> = Striped::new(10, || 0);
        assert_eq!(s.len(), 16);
        for key in 0..1000u64 {
            let a = s.stripe_for(key) as *const _;
            let b = s.stripe_for(key) as *const _;
            assert_eq!(a, b, "routing must be stable");
        }
    }

    #[test]
    fn dense_keys_spread_over_all_stripes() {
        let s: Striped<u32> = Striped::new(8, || 0);
        for key in 0..1000u64 {
            *s.stripe_for(key).lock() += 1;
        }
        for stripe in s.iter() {
            let count = *stripe.lock();
            assert!(count > 0, "every stripe should receive some dense keys");
        }
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_panics() {
        let _: Striped<u32> = Striped::new(0, || 0);
    }
}
