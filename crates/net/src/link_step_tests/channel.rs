//! [`LinkStep`](crate::LinkStep) as one cache's discrete-event link:
//! seeded loss, per-message latency, in-flight capacity and the overflow
//! policies, driven on a virtual clock.

mod tests {
    use crate::delivery::{DeliveryModel, DeliveryTask, LinkStep};
    use crate::fault::LossModel;
    use crate::latency::LatencyModel;
    use crate::pipe::OverflowPolicy;
    use tcache_types::{SimDuration, SimTime};

    fn step(loss: LossModel, latency: LatencyModel, seed: u64) -> LinkStep<u64> {
        LinkStep::new(&DeliveryTask::new(
            DeliveryModel { loss, latency },
            seed,
            seed + 1,
        ))
    }

    fn reliable() -> LinkStep<u64> {
        step(
            LossModel::None,
            LatencyModel::Constant(SimDuration::ZERO),
            1,
        )
    }

    fn constant(ms: u64) -> LatencyModel {
        LatencyModel::Constant(SimDuration::from_millis(ms))
    }

    /// Everything due by `now`, in delivery order.
    fn due(step: &mut LinkStep<u64>, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        step.deliver_due(now, usize::MAX, |m| out.push(m));
        out
    }

    /// Everything in flight, regardless of time.
    fn drain(step: &mut LinkStep<u64>) -> Vec<u64> {
        due(step, SimTime::from_micros(u64::MAX))
    }

    #[test]
    fn reliable_channel_delivers_everything_in_order() {
        let mut link = reliable();
        link.admit(SimTime::ZERO, [1, 2, 3]);
        assert_eq!(link.in_flight(), 3);
        assert_eq!(due(&mut link, SimTime::ZERO), vec![1, 2, 3]);
        let stats = link.stats();
        assert_eq!((stats.offered, stats.dropped, stats.delivered), (3, 0, 3));
    }

    #[test]
    fn messages_are_not_delivered_early() {
        let mut link = step(LossModel::None, constant(100), 1);
        link.admit(SimTime::ZERO, [1]);
        assert!(due(&mut link, SimTime::from_millis(50)).is_empty());
        assert_eq!(link.next_deadline(), Some(SimTime::from_millis(100)));
        assert_eq!(due(&mut link, SimTime::from_millis(100)), vec![1]);
        assert_eq!(link.next_deadline(), None);
    }

    #[test]
    fn uniform_loss_drops_roughly_the_configured_fraction() {
        let mut link = step(LossModel::paper_default(), LatencyModel::default(), 7);
        for i in 0..10_000u64 {
            link.admit(SimTime::from_millis(i), [i]);
        }
        let stats = link.stats();
        assert_eq!(stats.offered, 10_000);
        let ratio = stats.dropped as f64 / stats.offered as f64;
        assert!((ratio - 0.2).abs() < 0.03, "loss ratio {ratio}");
    }

    #[test]
    fn drain_flushes_in_flight_messages() {
        let mut link = step(LossModel::None, constant(1_000_000), 1);
        link.admit(SimTime::ZERO, [1, 2]);
        assert_eq!(link.in_flight(), 2);
        assert_eq!(drain(&mut link), vec![1, 2]);
        assert_eq!(link.in_flight(), 0);
        assert_eq!(link.stats().delivered, 2);
    }

    #[test]
    fn deliver_due_invokes_consumer_for_each_message() {
        let mut link = reliable();
        link.admit(SimTime::ZERO, [1, 2, 3]);
        let mut seen = Vec::new();
        assert_eq!(link.deliver_due(SimTime::ZERO, 2, |m| seen.push(m)), 2);
        assert_eq!(seen, vec![1, 2], "at most `max` per call");
        assert_eq!(link.deliver_due(SimTime::ZERO, 2, |m| seen.push(m)), 1);
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn variable_latency_can_reorder_messages() {
        // With a wide uniform latency, two messages sent in order can arrive
        // out of order. Send many and check for at least one inversion.
        let latency = LatencyModel::Uniform {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(1000),
        };
        let mut link = step(LossModel::None, latency, 3);
        for i in 0..200u64 {
            link.admit(SimTime::from_millis(i), [i]);
        }
        let all = drain(&mut link);
        assert_eq!(all.len(), 200);
        assert!(
            all.windows(2).any(|w| w[1] < w[0]),
            "expected at least one reordering"
        );
    }

    #[test]
    fn bounded_channel_drop_newest_rejects_the_incoming_message() {
        let mut link =
            step(LossModel::None, constant(100), 1).bounded(2, OverflowPolicy::DropNewest);
        link.admit(SimTime::ZERO, 0..5);
        assert_eq!(link.in_flight(), 2);
        let stats = link.stats();
        assert_eq!((stats.offered, stats.overflowed, stats.stalled), (5, 3, 0));
        assert_eq!(
            stats.processed(),
            3,
            "the rejected messages are finished with"
        );
        // The two oldest messages survived.
        assert_eq!(due(&mut link, SimTime::from_secs(1)), vec![0, 1]);
    }

    #[test]
    fn bounded_channel_drop_oldest_keeps_the_freshest_messages() {
        let mut link =
            step(LossModel::None, constant(100), 1).bounded(2, OverflowPolicy::DropOldest);
        link.admit(SimTime::ZERO, 0..5);
        assert_eq!(link.in_flight(), 2);
        assert_eq!(link.stats().overflowed, 3);
        assert_eq!(due(&mut link, SimTime::from_secs(1)), vec![3, 4]);
    }

    #[test]
    fn drop_oldest_evicts_by_send_order_not_delivery_order() {
        // With a wide uniform latency the earliest *delivery* need not be
        // the oldest *send*; eviction must follow send order (FIFO, like
        // the live pipe) no matter what delays were sampled.
        let latency = LatencyModel::Uniform {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_secs(1000),
        };
        let mut link = step(LossModel::None, latency, 3).bounded(2, OverflowPolicy::DropOldest);
        link.admit(SimTime::ZERO, 0..3);
        assert_eq!(link.stats().overflowed, 1);
        let mut survivors = drain(&mut link);
        survivors.sort();
        assert_eq!(
            survivors,
            vec![1, 2],
            "message 0 (the oldest send) must be the evicted one"
        );
    }

    #[test]
    fn bounded_channel_block_delays_behind_the_backlog() {
        let mut link = step(LossModel::None, constant(100), 1).bounded(1, OverflowPolicy::Block);
        link.admit(SimTime::ZERO, [1, 2, 3]);
        // Nothing is lost…
        assert_eq!(link.in_flight(), 3);
        assert_eq!(link.stats().overflowed, 0);
        assert_eq!(link.stats().stalled, 2);
        // …but each message only takes the single slot once its
        // predecessor has delivered: the backlog serializes, so the three
        // messages arrive a full latency apart (100 / 200 / 300 ms).
        assert_eq!(due(&mut link, SimTime::from_millis(100)), vec![1]);
        assert_eq!(link.next_deadline(), Some(SimTime::from_millis(200)));
        assert_eq!(due(&mut link, SimTime::from_millis(200)), vec![2]);
        assert_eq!(link.next_deadline(), Some(SimTime::from_millis(300)));
        // A later send that finds a free slot does not count as a stall.
        link.admit(SimTime::from_millis(400), [4]);
        assert_eq!(link.stats().stalled, 2);
        assert_eq!(link.next_deadline(), Some(SimTime::from_millis(300)));
    }

    #[test]
    fn delay_spikes_shift_only_subsequent_sends() {
        let mut link = step(LossModel::None, constant(10), 1);
        link.admit(SimTime::ZERO, [1]);
        link.set_extra_delay(SimDuration::from_millis(500));
        link.admit(SimTime::ZERO, [2]);
        // The in-flight message keeps its original deadline…
        assert_eq!(due(&mut link, SimTime::from_millis(10)), vec![1]);
        // …while the spiked send arrives only after latency + spike.
        assert_eq!(link.next_deadline(), Some(SimTime::from_millis(510)));
        link.set_extra_delay(SimDuration::ZERO);
        link.admit(SimTime::from_millis(600), [3]);
        assert_eq!(
            due(&mut link, SimTime::from_millis(610)),
            vec![2, 3],
            "spike cleared"
        );
        assert_eq!(link.stats().delay_micros, 10_000 + 510_000 + 10_000);
    }

    #[test]
    fn same_delivery_time_breaks_ties_by_send_order() {
        let mut link = reliable();
        link.admit(SimTime::ZERO, [9]);
        link.admit(SimTime::ZERO, [3]);
        assert_eq!(due(&mut link, SimTime::ZERO), vec![9, 3]);
    }
}
