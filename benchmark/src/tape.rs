//! The op tape: every input of a run, generated from the seed before timing.

use crate::spec::{WorkloadSpec, TAPE_LEN, TXN_KEYS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tcache::types::{ObjectId, SimTime};
use tcache::workload::{PerfectClusters, WorkloadGenerator};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Update,
}

/// One operation: a read transaction on `cache` or an update transaction,
/// over `keys`. 24 bytes, so a tape is 24 MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub keys: [u32; TXN_KEYS],
    pub kind: OpKind,
    /// The cache a read addresses (reads go round-robin over the caches);
    /// 0 for updates.
    pub cache: u8,
}

impl Op {
    pub fn object_ids(&self) -> [ObjectId; TXN_KEYS] {
        self.keys.map(|k| ObjectId(u64::from(k)))
    }
}

pub struct Tape {
    pub ops: Vec<Op>,
    /// Generation cost, the `workload` layer's metric.
    pub gen_ns_per_op: f64,
}

/// The seed of a workload's tape: the run seed mixed with the workload's
/// name, so workloads sharing a seed do not share keys.
fn tape_seed(spec: &WorkloadSpec, seed: u64) -> u64 {
    spec.name
        .bytes()
        .fold(seed ^ 0x9E37_79B9_7F4A_7C15, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Generates `spec`'s tape for `seed`: the mix decides each op's kind from
/// its position, `PerfectClusters` draws the keys.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> Tape {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(tape_seed(spec, seed));
    let mut generator = PerfectClusters::new(spec.objects, TXN_KEYS as u64, TXN_KEYS);
    let caches = spec.caches() as u64;
    let mut reads = 0u64;
    let mut ops = Vec::with_capacity(TAPE_LEN);
    for index in 0..TAPE_LEN as u64 {
        let access = generator.generate(SimTime::ZERO, &mut rng);
        let mut keys = [0u32; TXN_KEYS];
        for (slot, object) in keys.iter_mut().zip(access.objects()) {
            *slot = u32::try_from(object.0).expect("object ids fit in 32 bits");
        }
        let op = if index % spec.period() < spec.reads {
            let cache = (reads % caches) as u8;
            reads += 1;
            Op {
                keys,
                kind: OpKind::Read,
                cache,
            }
        } else {
            Op {
                keys,
                kind: OpKind::Update,
                cache: 0,
            }
        };
        ops.push(op);
    }
    let gen_ns_per_op = started.elapsed().as_nanos() as f64 / TAPE_LEN as f64;
    Tape { ops, gen_ns_per_op }
}

impl Tape {
    /// FNV-1a over every op; equal hashes mean equal inputs.
    pub fn hash(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |value: u64| {
            hash = (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3);
        };
        for op in &self.ops {
            for key in op.keys {
                mix(u64::from(key));
            }
            mix(op.kind as u64);
            mix(u64::from(op.cache));
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_tape_different_seed_different_tape() {
        let spec = &WORKLOADS[3];
        let a = generate(spec, 42);
        let b = generate(spec, 42);
        let c = generate(spec, 43);
        assert_eq!(a.hash(), b.hash());
        assert!(a.ops == b.ops);
        assert_ne!(a.hash(), c.hash());
        // Workloads sharing a seed do not share a key stream.
        assert_ne!(
            generate(&WORKLOADS[0], 42).hash(),
            generate(&WORKLOADS[2], 42).hash()
        );
    }

    #[test]
    fn tape_follows_the_mix_and_spreads_reads_over_caches() {
        for spec in &WORKLOADS {
            let tape = generate(spec, 7);
            assert_eq!(tape.ops.len(), TAPE_LEN);
            let reads = tape.ops.iter().filter(|op| op.kind == OpKind::Read).count() as f64;
            let share = reads / TAPE_LEN as f64;
            let expected = spec.reads as f64 / spec.period() as f64;
            assert!((share - expected).abs() < 1e-3, "{}: {share}", spec.name);
            let mut per_cache = vec![0u64; spec.caches()];
            for op in &tape.ops {
                assert!(op.keys.iter().all(|&k| u64::from(k) < spec.objects));
                // All keys of a transaction fall in one cluster.
                let cluster = op.keys[0] / TXN_KEYS as u32;
                assert!(op.keys.iter().all(|&k| k / TXN_KEYS as u32 == cluster));
                if op.kind == OpKind::Read {
                    per_cache[op.cache as usize] += 1;
                }
            }
            let (min, max) = (
                per_cache.iter().min().unwrap(),
                per_cache.iter().max().unwrap(),
            );
            assert!(max - min <= 1, "{}: {per_cache:?}", spec.name);
        }
    }
}
