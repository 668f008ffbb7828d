//! One [`LinkStep`](crate::LinkStep) per cache of a multi-cache
//! deployment: every cache's link drops and delays independently, seeded
//! from `(run_seed, CacheId)`, so the loss pattern a cache observes is a
//! pure function of the run seed and its id.

mod tests {
    use crate::delivery::{DeliveryModel, DeliveryStatsSnapshot, DeliveryTask, LinkStep};
    use crate::pipe::OverflowPolicy;
    use tcache_types::{cache_channel_seed, cache_delay_seed, CacheId, SimDuration, SimTime};

    /// One 10 ms link per entry of `losses`, seeded as the planes seed them.
    fn links(run_seed: u64, losses: &[f64]) -> Vec<LinkStep<u64>> {
        losses
            .iter()
            .enumerate()
            .map(|(i, &loss)| {
                let id = CacheId(i as u32);
                LinkStep::new(&DeliveryTask::new(
                    DeliveryModel::uniform(loss, SimDuration::from_millis(10)),
                    cache_channel_seed(run_seed, id),
                    cache_delay_seed(run_seed, id),
                ))
            })
            .collect()
    }

    fn broadcast(links: &mut [LinkStep<u64>], now: SimTime, messages: &[u64]) {
        for link in links {
            link.admit(now, messages.iter().copied());
        }
    }

    fn aggregate(links: &[LinkStep<u64>]) -> DeliveryStatsSnapshot {
        let mut total = DeliveryStatsSnapshot::default();
        for link in links {
            total.merge(link.stats());
        }
        total
    }

    #[test]
    fn broadcast_reaches_every_cache_independently() {
        let mut links = links(1, &[0.0, 0.0]);
        broadcast(&mut links, SimTime::ZERO, &[1, 2]);
        assert_eq!(links.iter().map(LinkStep::in_flight).sum::<usize>(), 4);
        let earliest = links.iter().filter_map(LinkStep::next_deadline).min();
        assert_eq!(earliest, Some(SimTime::from_millis(10)));
        for link in &mut links {
            let mut due = Vec::new();
            link.deliver_due(SimTime::from_millis(10), usize::MAX, |m| due.push(m));
            assert_eq!(due, vec![1, 2]);
        }
        let total = aggregate(&links);
        assert_eq!((total.offered, total.delivered), (4, 4));
    }

    #[test]
    fn per_cache_loss_is_heterogeneous_and_observed() {
        let mut links = links(9, &[0.0, 0.5]);
        for i in 0..4_000u64 {
            broadcast(&mut links, SimTime::from_millis(i), &[i]);
        }
        assert_eq!(links[0].stats().dropped, 0);
        let lossy = links[1].stats();
        let ratio = lossy.dropped as f64 / lossy.offered as f64;
        assert!((ratio - 0.5).abs() < 0.05, "lossy link ratio {ratio}");
    }

    #[test]
    fn channel_seeds_are_stable_per_cache_id() {
        // The loss pattern of cache 1 must not depend on how many other
        // caches are deployed.
        let drops = |n_caches: usize| -> u64 {
            let mut losses = vec![0.3; n_caches];
            losses[0] = 0.0;
            let mut links = links(7, &losses);
            for i in 0..2_000u64 {
                broadcast(&mut links, SimTime::from_millis(i), &[i]);
            }
            links[1].stats().dropped
        };
        assert_eq!(drops(2), drops(4));
    }

    #[test]
    fn bounded_links_report_per_cache_overflow() {
        // Cache 0 keeps an unbounded link, cache 1's holds only two
        // in-flight messages and sheds the oldest. Overflow must show up on
        // cache 1's counters alone, and in the aggregate.
        let mut links = links(1, &[0.0, 0.0]);
        let last = links.pop().expect("two links");
        links.push(last.bounded(2, OverflowPolicy::DropOldest));
        broadcast(&mut links, SimTime::ZERO, &[1, 2, 3, 4]);
        assert_eq!(links[0].stats().overflowed, 0);
        assert_eq!(links[1].stats().overflowed, 2);
        assert_eq!(aggregate(&links).overflowed, 2);
        assert_eq!(links[0].in_flight() + links[1].in_flight(), 4 + 2);
    }
}
