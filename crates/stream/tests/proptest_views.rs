//! Property + stress tests for the epoch-swapped read path: for any
//! interleaving of reader pins and batch publishes under mixed churn,
//! every view a reader observes is **exactly** the post-batch state of
//! some prefix of the batch sequence — never a torn or intermediate
//! state — with remaps consistent with the view's epoch, and the
//! published view sequence is identical at threads 1 and 4. A
//! multi-threaded stress test hammers lookups from spinning readers
//! across ≥ 2 purges while the engine ingests, asserting zero
//! checksum failures and zero stale-epoch reads.

use mdbgp_core::GdConfig;
use mdbgp_graph::{gen, VertexWeights};
use mdbgp_stream::{StreamConfig, StreamingPartitioner, UpdateBatch, TOMBSTONE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine(threads: usize, seed: u64, frequent_purges: bool) -> StreamingPartitioner {
    const EPS: f64 = 0.05;
    let cg = gen::community_graph(
        &gen::CommunityGraphConfig::social(300),
        &mut StdRng::seed_from_u64(seed),
    );
    let w = VertexWeights::vertex_edge(&cg.graph);
    let mut cfg = StreamConfig::new(4, EPS).with_threads(threads);
    cfg.gd = GdConfig {
        iterations: 30,
        ..GdConfig::with_epsilon(EPS)
    };
    cfg.seed = seed;
    // A tiny slack forces a purging compaction nearly every batch, so
    // views cross id epochs often; the loose regime keeps tombstones
    // pending so readers see TOMBSTONE lookups within an epoch.
    cfg.compact_slack = if frequent_purges { 0.02 } else { 0.9 };
    StreamingPartitioner::bootstrap(cg.graph, w, cfg).expect("bootstrap")
}

/// One scripted mixed batch against the engine's current state (same
/// recipe as the churn/snapshot proptests).
fn build_batch(
    sp: &StreamingPartitioner,
    rng: &mut StdRng,
    arrivals: usize,
    removals: usize,
    drifts: usize,
) -> UpdateBatch {
    let n = sp.graph().num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    let mut removed: Vec<u32> = Vec::new();
    for _ in 0..removals {
        let v = rng.gen_range(0..n);
        if sp.graph().is_live(v) && !removed.contains(&v) {
            batch.remove_vertex(v);
            removed.push(v);
        }
    }
    let alive = |v: u32, removed: &[u32]| sp.graph().is_live(v) && !removed.contains(&v);
    for _ in 0..arrivals {
        let nbrs: Vec<u32> = (0..3)
            .map(|_| rng.gen_range(0..n))
            .filter(|&u| alive(u, &removed))
            .collect();
        batch.add_vertex(vec![1.0, (nbrs.len().max(1)) as f64], nbrs);
    }
    for _ in 0..removals {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if alive(u, &removed) && alive(v, &removed) {
            if rng.gen_range(0..2) == 0 {
                batch.add_edge(u, v);
            } else {
                batch.remove_edge(u, v);
            }
        }
    }
    let victims: Vec<u32> = (0..n)
        .filter(|&v| alive(v, &removed) && sp.shard_of(v) == 0)
        .collect();
    if !victims.is_empty() {
        for _ in 0..drifts {
            let v = victims[rng.gen_range(0..victims.len())];
            batch.set_weight(v, 0, rng.gen_range(1.2..2.5));
        }
    }
    batch
}

const READERS: usize = 4;
const BATCHES: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any interleaving of reader pins and publishes observes only exact
    /// prefix states: a pinned view at `batch_seq = s` is bitwise the
    /// engine's post-batch-`s` assignment, its checksum verifies (no torn
    /// reads), a view that crossed a purge carries the remap that
    /// translates ids into its epoch, and the published view sequence is
    /// identical at threads 1 and 4.
    #[test]
    fn pinned_views_are_exact_prefix_states(
        seed in 0u64..500,
        arrivals in 10usize..120,
        removals in 4usize..20,
        drifts in 0usize..30,
        frequent_purges in proptest::bool::ANY,
        refresh_mask in proptest::collection::vec(proptest::bool::ANY, READERS * BATCHES),
    ) {
        let mut serial = engine(1, seed, frequent_purges);
        let mut threaded = engine(4, seed, frequent_purges);
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0xBEEF);
        // Arrivals recycle tombstoned ids before extending the id space,
        // so purges only happen while removals outnumber arrivals — the
        // frequent-purge regime shrinks every batch to guarantee views
        // cross id epochs.
        let (arrivals, removals) = if frequent_purges {
            (4usize, removals + 8)
        } else {
            (arrivals, removals)
        };

        // expected[s] = (id_epoch, assignment) right after publish #s;
        // s = 0 is the bootstrap view.
        let mut expected: Vec<(u64, Vec<u32>)> =
            vec![(0, serial.store().as_slice().to_vec())];
        // Lazily-refreshing readers: pin on an arbitrary schedule.
        let mut lazy: Vec<_> = (0..READERS).map(|_| serial.reader()).collect();
        // A diligent reader: re-pins at every publish and carries a set of
        // tracked ids across epochs via the views' remaps.
        let mut diligent = serial.reader();
        let mut tracked: Vec<u32> = (0..serial.graph().num_vertices() as u32)
            .step_by(7)
            .collect();

        for batch_no in 0..BATCHES {
            let ba = build_batch(&serial, &mut rng_a, arrivals, removals, drifts);
            let bb = build_batch(&threaded, &mut rng_b, arrivals, removals, drifts);
            prop_assert_eq!(&ba, &bb, "script diverged");
            serial.ingest(&ba).expect("serial ingest");
            threaded.ingest(&bb).expect("threaded ingest");
            expected.push((serial.id_epoch(), serial.store().as_slice().to_vec()));

            // threads 1 ≡ 4, down to the published views.
            let vs = serial.read_view();
            let vt = threaded.read_view();
            prop_assert_eq!(vs.epoch(), vt.epoch(), "view epochs diverged");
            prop_assert_eq!(vs.as_slice(), vt.as_slice(), "view states diverged");
            prop_assert_eq!(vs.remap(), vt.remap(), "view remaps diverged");

            // Diligent reader: every publish observed, ids translated
            // through exactly the remap the view carries.
            prop_assert!(diligent.refresh(), "a publish per batch");
            if diligent.needs_adoption() {
                let remap = diligent
                    .view()
                    .remap()
                    .expect("epoch crossed without a remap")
                    .to_vec();
                prop_assert!(remap.len() >= tracked.iter().map(|&v| v as usize + 1).max().unwrap_or(0));
                tracked = tracked
                    .iter()
                    .filter_map(|&v| {
                        let nv = remap[v as usize];
                        (nv != TOMBSTONE).then_some(nv)
                    })
                    .collect();
                diligent.adopt();
            }
            for &v in &tracked {
                let oracle = match serial.store().as_slice()[v as usize] {
                    TOMBSTONE => None,
                    p => Some(p),
                };
                prop_assert_eq!(
                    diligent.lookup(v),
                    oracle,
                    "translated id {} answered wrong at batch {}",
                    v,
                    batch_no
                );
            }

            // Lazy readers: whatever they pin is an exact prefix state.
            for (r, h) in lazy.iter_mut().enumerate() {
                if refresh_mask[batch_no * READERS + r] {
                    h.refresh();
                    if h.needs_adoption() {
                        h.adopt();
                    }
                }
                let view = h.view();
                prop_assert!(view.verify_checksum(), "torn read observed");
                let (id_epoch, parts) = &expected[view.epoch().batch_seq as usize];
                prop_assert_eq!(view.epoch().id_epoch, *id_epoch);
                prop_assert_eq!(
                    view.as_slice(),
                    parts.as_slice(),
                    "reader {} pinned a non-prefix state at batch {}",
                    r,
                    batch_no
                );
            }
        }
        // A correct reader loop never reads across an unadopted epoch.
        prop_assert_eq!(serial.store().stale_epoch_read_count(), 0);
    }
}

/// Reader threads spin lookups against live handles while the engine
/// ingests churn heavy enough to purge (and renumber ids) at least twice.
/// Every pinned view must verify its checksum, every lookup answers from
/// a consistent epoch (readers adopt on refresh, so the stale-epoch
/// counter stays zero), and every reader serves lookups: the ingest side
/// stops the readers only once each one has counted its own.
#[test]
fn readers_spin_across_purges_without_torn_or_stale_reads() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let mut sp = engine(1, 7, true);
    let stop = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let served: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
    let handles: Vec<_> = (0..4).map(|_| sp.reader()).collect();

    std::thread::scope(|scope| {
        for (t, mut h) in handles.into_iter().enumerate() {
            let stop = &stop;
            let torn = &torn;
            let served = &served[t];
            scope.spawn(move || {
                let mut lcg = 0x2545_F491_4F6C_DD1Du64.wrapping_add(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    if h.refresh() {
                        if !h.view().verify_checksum() {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        if h.needs_adoption() {
                            // Ids are resampled below from the view's own
                            // id space — that *is* the re-resolution.
                            h.adopt();
                        }
                    }
                    let n = h.view().num_vertices();
                    for _ in 0..64 {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if n > 0 {
                            let v = ((lcg >> 33) as usize % n) as u32;
                            // Tombstoned ids answer None; both are valid.
                            let _ = h.lookup(v);
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..24 {
            // Removals outnumber arrivals so tombstones survive the batch
            // (arrivals recycle freed ids first) and compaction purges.
            let batch = build_batch(&sp, &mut rng, 10, 25, 10);
            sp.ingest(&batch).expect("ingest under readers");
            if sp.id_epoch() >= 2 {
                break;
            }
        }
        // The ingest loop can finish before a reader thread is scheduled
        // at all; wait (bounded) until every reader has served.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while served.iter().any(|c| c.load(Ordering::Relaxed) == 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        sp.id_epoch() >= 2,
        "stress run must cross at least two purges, got {}",
        sp.id_epoch()
    );
    assert_eq!(
        torn.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "torn reads"
    );
    assert_eq!(
        sp.store().stale_epoch_read_count(),
        0,
        "readers adopted on every refresh; no lookup may cross an epoch"
    );
    for (t, count) in served.iter().enumerate() {
        assert!(
            count.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "reader {t} served no lookups"
        );
    }
    assert!(
        sp.store().lookup_count() > 0,
        "readers must actually have served lookups"
    );
    assert!(sp.store().lookup_latency().count() > 0);
}
