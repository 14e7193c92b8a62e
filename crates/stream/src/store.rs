//! [`PartitionStore`]: the serving-side view of the evolving partition.
//!
//! A router in front of a sharded graph store needs exactly three things
//! from the partitioner: O(1) `vertex → shard` lookups, cheap imbalance /
//! locality telemetry to alarm on, and a stable snapshot to hand to the
//! refinement pass. The store keeps per-part per-dimension loads, live
//! per-dimension weight totals, and incremental intra/cut edge counters so
//! every query is O(1) or O(d·k) — nothing on the serving path ever
//! touches the graph itself.
//!
//! Under churn the store is the authority on *live* weight: a released
//! vertex ([`PartitionStore::release_vertex`]) leaves the loads **and**
//! the totals immediately, even though its weight row lingers in the
//! graph's [`mdbgp_graph::VertexWeights`] until the next purge — so the
//! imbalance/headroom telemetry and the placement capacities never count
//! weight that already left the system.
//!
//! ## Batch ingestion: snapshot → reserve → commit
//!
//! The staged ingest pipeline ([`crate::StreamingPartitioner`]) never
//! places arrivals against live, mutating loads. It takes a frozen
//! [`LoadSnapshot`] ([`PartitionStore::load_snapshot`]), scores
//! speculative placements against `snapshot + reservations` on worker
//! threads, repairs capacity conflicts, and only then commits the final
//! assignments — [`PartitionStore::push_assignment`] for a fresh id,
//! [`PartitionStore::assign_slot`] for a recycled one, and
//! [`PartitionStore::push_tombstone`] for an arrival that was removed
//! again inside its own batch (the slot must still exist so store ids stay
//! aligned with graph ids). The snapshot is plain owned data, which also
//! makes it the natural serialization unit for a future snapshot/restore.
//!
//! ## Rebalance heaps
//!
//! The store additionally maintains one lazy max-heap per `(part,
//! dimension)` pair, keyed by the **composite relief score** of the vertex
//! ([`PartitionStore::relief_key`]): its normalized weight in that
//! dimension minus the mean normalized weight across the other dimensions.
//! A move out of the part relieves the binding dimension most — and
//! disturbs the others least — when that score is large, so the top of
//! heap `(p, j)` is the best candidate queue for a rebalance step whose
//! binding dimension is `j` (a plain per-dimension weight key ranks heavy
//! all-around vertices first, which overshoot in the off-dimensions and
//! force full-membership rescans). Normalization uses the live totals at
//! push time; totals drift slowly between pushes, and candidate order is a
//! heuristic — the rebalance evaluates every candidate against the exact
//! potential before moving. The greedy rebalance pass pops the top few
//! candidates of the overloaded part's binding dimension instead of
//! rescanning every member, making candidate generation O(log n) per move
//! at serving scale. Entries are invalidated by a per-`(vertex, dimension)`
//! stamp — every move or weight drift bumps the stamp and pushes a fresh
//! entry, and stale entries are discarded when popped (with an occasional
//! compaction when a heap outgrows its live membership 4×, and an
//! immediate one when releases drain a part to zero live members — a
//! drained part sees no further pushes, so the ratio trigger alone would
//! leak its stale entries until process end), so maintenance stays
//! amortized O(d·log n) per mutation.
//!
//! ## Read path: epoch-stamped published views
//!
//! Everything above is the **write side** — engine-private mutable state.
//! Concurrent serving never touches it. At every batch boundary the engine
//! publishes an immutable [`ReadView`] — the frozen assignment vector, the
//! [`LoadSnapshot`] and the purge remap composed since the previous view —
//! stamped with a [`ViewEpoch`] `(id_epoch, batch_seq)`. [`ReadHandle`]s
//! (from [`PartitionStore::reader`]) pin the latest view with one relaxed
//! atomic probe and serve lock-free lookups from the pinned allocation, so
//! a reader fleet runs at full speed while the engine commits and refines.
//! Purge remaps are only ever observed at a pin switch (*swap-on-remap*):
//! a pinned view is internally consistent by construction, and the remap
//! it carries tells the reader how to translate ids it held against the
//! previous epoch. See the "Read path & epoch publication" section of
//! `docs/ARCHITECTURE.md` for the full lifecycle.

use crate::TOMBSTONE;
use mdbgp_core::parallel::{even_boundaries, for_each_chunk_mut, prefix_boundaries};
use mdbgp_graph::{Partition, VertexId, VertexWeights};
use mdbgp_obs::{Histogram, SharedHistogram};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One candidate in a per-`(part, dimension)` rebalance heap: vertex `v`
/// had weight `key` in that dimension at stamp `stamp`. Stale entries
/// (stamp mismatch, or `v` no longer in the part) are skipped on pop.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    key: f64,
    stamp: u64,
    v: VertexId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Weights are validated positive finite upstream; total_cmp keeps
        // the order total regardless. Ties break on vertex id for
        // determinism.
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.v.cmp(&other.v))
    }
}

/// A frozen copy of the per-`(part, dimension)` loads and the live
/// per-dimension totals — what the speculative placement stage scores
/// against while the real store stays untouched until commit, and the
/// accounting half of every published [`ReadView`].
///
/// `Arc`-backed: cloning shares one immutable allocation, so handing the
/// snapshot to placement workers (or embedding it in a view) is O(1). The
/// store caches the allocation and only rebuilds it after a load/total
/// mutation — consecutive pure-topology batches reuse the exact snapshot
/// the last view published ([`PartitionStore::snapshot_rebuild_count`]
/// regression-tests this).
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug, PartialEq)]
struct SnapshotInner {
    k: usize,
    dims: usize,
    loads: Vec<f64>,
    totals: Vec<f64>,
}

impl LoadSnapshot {
    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.inner.k
    }

    /// Number of weight dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.inner.dims
    }

    /// Frozen load of part `p` in dimension `j`.
    #[inline]
    pub fn load(&self, p: u32, j: usize) -> f64 {
        self.inner.loads[p as usize * self.inner.dims + j]
    }

    /// Frozen live total of dimension `j`.
    #[inline]
    pub fn total(&self, j: usize) -> f64 {
        self.inner.totals[j]
    }

    /// True when both snapshots share one underlying allocation — i.e. no
    /// rebuild happened between taking them (the hook the reuse-on-publish
    /// regression test asserts on).
    #[inline]
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

// ---------------------------------------------------------------------------
// Published read views
// ---------------------------------------------------------------------------

/// Version stamp of a published [`ReadView`]: which purge generation its
/// vertex ids belong to, and how many batches the engine had ingested when
/// it was published. Ordered lexicographically — `(id_epoch, batch_seq)`
/// both only ever grow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViewEpoch {
    /// Purge generation of the id space the view's slots are indexed in
    /// (mirrors [`crate::StreamingPartitioner::id_epoch`]).
    pub id_epoch: u64,
    /// Batches the engine had ingested when the view was published.
    pub batch_seq: u64,
}

/// One immutable published state of the partition: the vertex→part
/// assignment, the frozen [`LoadSnapshot`], and — when a purge happened
/// since the previous view — the composed old→new id remap. Readers get
/// views through a [`ReadHandle`]; the engine publishes one per batch at
/// the end of commit/refine.
///
/// A view is never mutated after publication (all fields are private and
/// behind an `Arc`), so any number of threads can read it without
/// synchronization; `verify_checksum` lets a paranoid reader prove that
/// empirically.
#[derive(Debug)]
pub struct ReadView {
    epoch: ViewEpoch,
    /// Assignment at publication; [`TOMBSTONE`] marks a released slot.
    parts: Vec<u32>,
    snapshot: LoadSnapshot,
    /// Old→new id map from the *previous published view's* id space into
    /// this one — present iff a purge happened between the two views, and
    /// composed across purges if several did. [`TOMBSTONE`] = dropped.
    remap: Option<Arc<Vec<u32>>>,
    /// FNV-1a over the epoch and the assignment vector, fixed at publish.
    checksum: u64,
}

impl ReadView {
    /// The `(id_epoch, batch_seq)` stamp of this view.
    #[inline]
    pub fn epoch(&self) -> ViewEpoch {
        self.epoch
    }

    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.snapshot.num_parts()
    }

    /// Size of the view's vertex-id space (tombstoned slots included).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.parts.len()
    }

    /// Shard of `v` in this view, or `None` when `v` is outside the
    /// view's id space or tombstoned — the forgiving accessor for readers
    /// holding ids that may predate the view.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        match self.parts.get(v as usize) {
            Some(&p) if p != TOMBSTONE => Some(p),
            _ => None,
        }
    }

    /// O(1) shard lookup, [`TOMBSTONE`] for a released slot. Panics when
    /// `v` is outside the view's id space (use [`Self::get`] across
    /// epochs).
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> u32 {
        self.parts[v as usize]
    }

    /// Raw assignment slice of the view.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.parts
    }

    /// The frozen load/total accounting published with the view.
    #[inline]
    pub fn load_snapshot(&self) -> &LoadSnapshot {
        &self.snapshot
    }

    /// Old→new remap from the previous published view's id space, present
    /// iff that view's `id_epoch` differs from this one.
    #[inline]
    pub fn remap(&self) -> Option<&[u32]> {
        self.remap.as_deref().map(Vec::as_slice)
    }

    /// Recomputes the publish-time checksum; `false` would mean the
    /// immutable view was somehow observed torn or corrupted. The stress
    /// tests call this on every pin and assert it never fails.
    pub fn verify_checksum(&self) -> bool {
        view_checksum(self.epoch, &self.parts) == self.checksum
    }

    /// The publish-time FNV-1a checksum over the epoch stamp and the
    /// assignment vector. Two engines that published bitwise-identical
    /// assignments at the same [`ViewEpoch`] report the same value — the
    /// comparison a replication follower makes against the leader's
    /// per-batch stamp stream to detect divergence.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// FNV-1a over the epoch stamp and the assignment vector.
fn view_checksum(epoch: ViewEpoch, parts: &[u32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(epoch.id_epoch);
    mix(epoch.batch_seq);
    mix(parts.len() as u64);
    for &p in parts {
        mix(p as u64);
    }
    h
}

/// The publication slot shared between the write side and every
/// [`ReadHandle`], plus the serving-path counters (atomics, so reader
/// threads record without the engine's involvement; the engine mirrors
/// them into its metrics registry at sync points).
///
/// The std-only stand-in for an `Arc`-swap: the current view lives behind
/// a mutex, but the mutex is only taken to *re-pin* after the atomic
/// `seq` probe says a new view was published — once per publish per
/// reader, never per lookup. Lookups themselves are lock-free reads of
/// the pinned immutable view.
#[derive(Debug)]
struct ViewShared {
    /// Publish sequence. Bumped under the `current` lock, read with a
    /// relaxed probe by readers deciding whether to re-pin.
    seq: AtomicU64,
    current: Mutex<Arc<ReadView>>,
    /// Views published after construction (`stream.store.view_swaps`).
    swaps: AtomicU64,
    /// Lookups served — handle lookups and the engine's counted serving
    /// path combined (`stream.store.lookups`).
    lookups: AtomicU64,
    /// Handle lookups served from a view whose `id_epoch` the reader had
    /// not adopted yet (`stream.store.stale_epoch_reads`): the caller was
    /// using ids from a pre-purge epoch. Zero in a correct reader loop.
    stale_epoch_reads: AtomicU64,
    /// Per-lookup latency in microseconds (`stream.store.lookup_us`).
    lookup_us: SharedHistogram,
}

impl ViewShared {
    fn new(initial: Arc<ReadView>) -> Arc<Self> {
        Arc::new(Self {
            seq: AtomicU64::new(0),
            current: Mutex::new(initial),
            swaps: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            stale_epoch_reads: AtomicU64::new(0),
            lookup_us: SharedHistogram::new(),
        })
    }

    fn current(&self) -> Arc<ReadView> {
        // Invariant: the publication lock only ever guards an Arc clone /
        // swap and a seq bump — none of which can panic — so the mutex
        // cannot be poisoned; the expect documents that, not an I/O path.
        Arc::clone(&self.current.lock().expect("view slot poisoned"))
    }
}

/// A reader's pin on the published view sequence. Obtained from
/// [`PartitionStore::reader`]; independent of the store's lifetime (the
/// handle owns `Arc`s), so serving threads keep answering while the engine
/// mutates — or even after it dropped.
///
/// The intended reader loop:
///
/// 1. [`Self::refresh`] — one relaxed atomic probe; re-pins only when a
///    new view was published since the last refresh.
/// 2. If [`Self::needs_adoption`], the pinned view crossed a purge: the
///    ids the reader holds belong to a previous epoch. Translate them
///    (via [`ReadView::remap`], or by re-resolving from the new view) and
///    call [`Self::adopt`].
/// 3. [`Self::lookup`] — lock-free lookups against the pinned view.
///
/// Lookups against a non-adopted epoch still answer (from the pinned
/// view) but tick the `stale_epoch_reads` counter — the observable signal
/// that a reader skipped step 2.
#[derive(Debug)]
pub struct ReadHandle {
    shared: Arc<ViewShared>,
    pinned: Arc<ReadView>,
    pinned_seq: u64,
    adopted_epoch: u64,
}

impl ReadHandle {
    /// Re-pins to the latest published view if one was published since
    /// the last refresh. Returns `true` when the pin moved. O(1); takes
    /// the publication lock only when the atomic probe saw a new seq.
    pub fn refresh(&mut self) -> bool {
        if self.shared.seq.load(Ordering::Acquire) == self.pinned_seq {
            return false;
        }
        // Poisoning unreachable: see `ViewShared::current` for the proof.
        let slot = self.shared.current.lock().expect("view slot poisoned");
        self.pinned = Arc::clone(&slot);
        // Re-read under the lock: seq and slot move together there.
        self.pinned_seq = self.shared.seq.load(Ordering::Acquire);
        true
    }

    /// The currently pinned view (no refresh — stable until the next
    /// [`Self::refresh`], however many publishes happen meanwhile).
    #[inline]
    pub fn view(&self) -> &Arc<ReadView> {
        &self.pinned
    }

    /// Refresh, then return the pinned view.
    pub fn pin(&mut self) -> &Arc<ReadView> {
        self.refresh();
        &self.pinned
    }

    /// True when the pinned view's id epoch differs from the one the
    /// reader last [`Self::adopt`]ed — i.e. a purge remap lies between
    /// the reader's ids and the view.
    #[inline]
    pub fn needs_adoption(&self) -> bool {
        self.pinned.epoch.id_epoch != self.adopted_epoch
    }

    /// Declares that the reader translated its held ids into the pinned
    /// view's epoch (after applying [`ReadView::remap`] or re-resolving).
    #[inline]
    pub fn adopt(&mut self) {
        self.adopted_epoch = self.pinned.epoch.id_epoch;
    }

    /// Serves `vertex → part` from the pinned view: lock-free, counted,
    /// and latency-sampled into the `stream.store.lookup_us` histogram.
    /// `None` for tombstoned or out-of-range ids. Ticks
    /// `stale_epoch_reads` when the reader hasn't adopted the pinned
    /// epoch (its ids may be pre-purge).
    pub fn lookup(&self, v: VertexId) -> Option<u32> {
        let start = Instant::now();
        let out = self.pinned.get(v);
        if self.needs_adoption() {
            self.shared
                .stale_epoch_reads
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared.lookups.fetch_add(1, Ordering::Relaxed);
        self.shared
            .lookup_us
            .observe(start.elapsed().as_micros() as u64);
        out
    }
}

/// Vertex→shard map plus live load / locality accounting.
#[derive(Debug)]
pub struct PartitionStore {
    /// Part of each vertex; [`TOMBSTONE`] marks a released vertex.
    parts: Vec<u32>,
    k: usize,
    dims: usize,
    /// `loads[p * dims + j] = w^{(j)}(V_p)` over currently assigned vertices.
    loads: Vec<f64>,
    /// `totals[j]` = live total weight in dimension `j` (assigned vertices
    /// only — released weight leaves immediately).
    totals: Vec<f64>,
    /// Vertices currently assigned to each part (drives heap compaction).
    part_sizes: Vec<usize>,
    /// `stamps[v * dims + j]`: version of the live heap entry of `(v, j)`.
    stamps: Vec<u64>,
    /// `heaps[p * dims + j]`: max-heap of part `p`'s members keyed by
    /// weight in dimension `j` (plus stale entries awaiting lazy removal).
    heaps: Vec<BinaryHeap<HeapEntry>>,
    intra_edges: usize,
    cut_edges: usize,
    /// Publication slot + serving counters, shared with every
    /// [`ReadHandle`] this store handed out. Not part of snapshots.
    views: Arc<ViewShared>,
    /// Cached [`LoadSnapshot`] allocation; `None` after any load/total
    /// mutation, refilled (and counted) by [`Self::load_snapshot`].
    snapshot_cache: Option<LoadSnapshot>,
    /// Times [`Self::load_snapshot`] had to rebuild the allocation (the
    /// reuse-on-publish regression hook). Not part of snapshots.
    snapshot_rebuilds: u64,
    /// Entries popped off the rebalance heaps by [`Self::top_movable`]
    /// (stale pops included). Not part of snapshots.
    heap_pops: u64,
    /// Worker count for the parallel remap scatter and heap rebuild. Not
    /// part of snapshots; never influences results — parallel passes here
    /// are pure data movement into disjoint ranges.
    threads: usize,
}

// Manual impl: the view cell is not `Clone` — and must not be shared: one
// writer per publication slot, so a cloned store gets a *fresh* cell
// seeded with the original's current view and counter values (the latter
// so observability mirrors stay monotone across engine clones).
impl Clone for PartitionStore {
    fn clone(&self) -> Self {
        let views = ViewShared::new(self.views.current());
        views
            .swaps
            .store(self.views.swaps.load(Ordering::Relaxed), Ordering::Relaxed);
        views.lookups.store(
            self.views.lookups.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        views.stale_epoch_reads.store(
            self.views.stale_epoch_reads.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Self {
            parts: self.parts.clone(),
            k: self.k,
            dims: self.dims,
            loads: self.loads.clone(),
            totals: self.totals.clone(),
            part_sizes: self.part_sizes.clone(),
            stamps: self.stamps.clone(),
            heaps: self.heaps.clone(),
            intra_edges: self.intra_edges,
            cut_edges: self.cut_edges,
            views,
            snapshot_cache: self.snapshot_cache.clone(),
            snapshot_rebuilds: self.snapshot_rebuilds,
            heap_pops: self.heap_pops,
            threads: self.threads,
        }
    }
}

impl PartitionStore {
    /// Builds the store from a partition and weights; edge counters start
    /// at zero — call [`Self::rebuild_edge_stats`] with the graph's edges.
    pub fn new(partition: &Partition, weights: &VertexWeights) -> Self {
        assert_eq!(partition.num_vertices(), weights.num_vertices());
        let k = partition.num_parts();
        let dims = weights.dims();
        let n = partition.num_vertices();
        let mut store = Self {
            parts: partition.as_slice().to_vec(),
            k,
            dims,
            loads: vec![0.0f64; k * dims],
            // Totals first: the composite heap keys normalize by them.
            totals: (0..dims).map(|j| weights.total(j)).collect(),
            part_sizes: vec![0usize; k],
            stamps: vec![0; n * dims],
            heaps: vec![BinaryHeap::new(); k * dims],
            intra_edges: 0,
            cut_edges: 0,
            views: ViewShared::new(Arc::new(ReadView {
                epoch: ViewEpoch::default(),
                parts: Vec::new(),
                snapshot: LoadSnapshot {
                    inner: Arc::new(SnapshotInner {
                        k,
                        dims,
                        loads: Vec::new(),
                        totals: Vec::new(),
                    }),
                },
                remap: None,
                checksum: view_checksum(ViewEpoch::default(), &[]),
            })),
            snapshot_cache: None,
            snapshot_rebuilds: 0,
            heap_pops: 0,
            threads: 1,
        };
        let mut row = vec![0.0f64; dims];
        for v in 0..n {
            let p = partition.part_of(v as VertexId) as usize;
            store.part_sizes[p] += 1;
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = weights.weight(j, v as VertexId);
                store.loads[p * dims + j] += *slot;
            }
            for j in 0..dims {
                let key = store.relief_key(j, &row);
                store.heaps[p * dims + j].push(HeapEntry {
                    key,
                    stamp: 0,
                    v: v as VertexId,
                });
            }
        }
        // Seed the publication slot with the bootstrap state so handles
        // taken before any ingest already see a real view. Construction is
        // not a swap: `view_swaps` counts publishes after this.
        store.install_view(ViewEpoch::default(), None, false);
        store
    }

    /// The composite relief score the rebalance heaps are keyed by: the
    /// vertex's weight in dimension `j` normalized by the live total of
    /// `j`, minus the mean normalized weight across the other dimensions.
    /// Moving a high-key vertex out of a part sheds a lot of the binding
    /// dimension `j` while disturbing the off-dimensions little — exactly
    /// the candidates a multi-constraint rebalance step wants first. With
    /// one dimension there is nothing to trade off and the key is the
    /// plain weight. Uses the *current* totals (push-time totals for heap
    /// entries); a drained dimension contributes 0.
    pub fn relief_key(&self, j: usize, row: &[f64]) -> f64 {
        if self.dims == 1 {
            return row[0];
        }
        let norm = |i: usize| {
            let t = self.totals[i];
            if t > 0.0 {
                row[i] / t
            } else {
                0.0
            }
        };
        let off: f64 = (0..self.dims).filter(|&i| i != j).map(norm).sum();
        norm(j) - off / (self.dims - 1) as f64
    }

    /// Sets the worker count for the parallel remap scatter and heap
    /// rebuild. Results are identical for every count — only wall-clock
    /// changes. Commits, moves and releases are always serial.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Number of parts `k`.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// Size of the vertex-id space (released vertices included — they keep
    /// their slot, mapped to [`TOMBSTONE`], until a remap drops them).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.parts.len()
    }

    /// Number of vertices currently assigned to a part.
    #[inline]
    pub fn num_assigned(&self) -> usize {
        self.part_sizes.iter().sum()
    }

    /// O(1) shard lookup — the serving hot path. Returns [`TOMBSTONE`] for
    /// a vertex released by [`Self::release_vertex`].
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> u32 {
        self.parts[v as usize]
    }

    /// [`Self::shard_of`] plus a lookup-count tick — the serving wrapper the
    /// engine's public `shard_of` goes through, so the observability layer
    /// sees query volume without taxing internal placement/refinement loops.
    /// Shares the counter with [`ReadHandle::lookup`]: `stream.store.
    /// lookups` is total serving volume regardless of the path.
    #[inline]
    pub fn shard_of_counted(&self, v: VertexId) -> u32 {
        self.views.lookups.fetch_add(1, Ordering::Relaxed);
        self.shard_of(v)
    }

    /// Lookups served through [`Self::shard_of_counted`] and
    /// [`ReadHandle::lookup`] combined.
    #[inline]
    pub fn lookup_count(&self) -> u64 {
        self.views.lookups.load(Ordering::Relaxed)
    }

    /// Views published (excluding the construction-time seed view).
    #[inline]
    pub fn view_swap_count(&self) -> u64 {
        self.views.swaps.load(Ordering::Relaxed)
    }

    /// Handle lookups served against a not-yet-adopted id epoch (see
    /// [`ReadHandle::adopt`]). Zero in a correct reader loop.
    #[inline]
    pub fn stale_epoch_read_count(&self) -> u64 {
        self.views.stale_epoch_reads.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of the serving-path lookup latency
    /// histogram (microseconds), for mirroring into a metrics registry.
    pub fn lookup_latency(&self) -> Histogram {
        self.views.lookup_us.snapshot()
    }

    /// Heap entries popped by [`Self::top_movable`] since construction.
    #[inline]
    pub fn heap_pop_count(&self) -> u64 {
        self.heap_pops
    }

    /// Raw assignment slice ([`TOMBSTONE`] entries are released vertices).
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.parts
    }

    /// Load of part `p` in dimension `j`.
    #[inline]
    pub fn load(&self, p: u32, j: usize) -> f64 {
        self.loads[p as usize * self.dims + j]
    }

    /// Live total weight of dimension `j` across all parts — the
    /// denominator of every capacity/imbalance ratio. Tracks releases
    /// immediately, unlike the graph-side weight totals which only shrink
    /// at the next purge.
    #[inline]
    pub fn total(&self, j: usize) -> f64 {
        self.totals[j]
    }

    /// Number of vertices currently assigned to part `p`.
    #[inline]
    pub fn part_size(&self, p: u32) -> usize {
        self.part_sizes[p as usize]
    }

    /// A frozen view of the loads and live totals for the speculative
    /// placement stage: decisions are scored against `snapshot +
    /// reservations` while the store itself stays unmutated until the
    /// commit stage.
    ///
    /// O(1) when the accounting hasn't changed since the last call — the
    /// `Arc`-backed allocation is cached and shared (typically with the
    /// last published [`ReadView`], making this a cheap clone-on-publish);
    /// any load/total mutation invalidates the cache and the next call
    /// rebuilds ([`Self::snapshot_rebuild_count`]).
    pub fn load_snapshot(&mut self) -> LoadSnapshot {
        if let Some(snap) = &self.snapshot_cache {
            return snap.clone();
        }
        self.snapshot_rebuilds += 1;
        let snap = LoadSnapshot {
            inner: Arc::new(SnapshotInner {
                k: self.k,
                dims: self.dims,
                loads: self.loads.clone(),
                totals: self.totals.clone(),
            }),
        };
        self.snapshot_cache = Some(snap.clone());
        snap
    }

    /// Times [`Self::load_snapshot`] rebuilt its allocation instead of
    /// reusing the cached one.
    #[inline]
    pub fn snapshot_rebuild_count(&self) -> u64 {
        self.snapshot_rebuilds
    }

    /// Drops the cached [`LoadSnapshot`]; called by every load/total
    /// mutation so a stale allocation can never be served.
    #[inline]
    fn invalidate_snapshot(&mut self) {
        self.snapshot_cache = None;
    }

    /// Publishes the current assignment + accounting as an immutable
    /// [`ReadView`] stamped `(id_epoch, batch_seq)`, swapping it into the
    /// slot every [`ReadHandle`] probes. `remap` is the old→new id map
    /// composed since the previous publish (present iff a purge happened);
    /// readers only ever observe remaps through this swap. Returns the
    /// published view.
    pub(crate) fn publish_view(
        &mut self,
        epoch: ViewEpoch,
        remap: Option<Vec<u32>>,
    ) -> Arc<ReadView> {
        self.install_view(epoch, remap, true)
    }

    fn install_view(
        &mut self,
        epoch: ViewEpoch,
        remap: Option<Vec<u32>>,
        count_swap: bool,
    ) -> Arc<ReadView> {
        let snapshot = self.load_snapshot();
        let parts = self.parts.clone();
        let checksum = view_checksum(epoch, &parts);
        let view = Arc::new(ReadView {
            epoch,
            parts,
            snapshot,
            remap: remap.map(Arc::new),
            checksum,
        });
        {
            // Swap + seq bump under the lock so a re-pinning reader can
            // never pair the new seq with the old view (or vice versa).
            // Poisoning unreachable: see `ViewShared::current` for the proof.
            let mut slot = self.views.current.lock().expect("view slot poisoned");
            *slot = Arc::clone(&view);
            self.views.seq.fetch_add(1, Ordering::Release);
        }
        if count_swap {
            self.views.swaps.fetch_add(1, Ordering::Relaxed);
        }
        view
    }

    /// The latest published [`ReadView`].
    pub fn read_view(&self) -> Arc<ReadView> {
        self.views.current()
    }

    /// A new [`ReadHandle`] pinned to the latest published view, with
    /// that view's id epoch already adopted. Handles are independent of
    /// the store's lifetime and cheap to create (two `Arc` clones).
    pub fn reader(&self) -> ReadHandle {
        let pinned = self.views.current();
        let pinned_seq = self.views.seq.load(Ordering::Acquire);
        let adopted_epoch = pinned.epoch.id_epoch;
        ReadHandle {
            shared: Arc::clone(&self.views),
            pinned,
            pinned_seq,
            adopted_epoch,
        }
    }

    /// Appends a newly placed vertex. Its heap entries take the same
    /// stale-backlog check as every other push, so arrivals into a part
    /// that releases have thinned out keep its heaps bounded.
    pub fn push_assignment(&mut self, part: u32, weight_row: &[f64]) {
        debug_assert!((part as usize) < self.k);
        debug_assert_eq!(weight_row.len(), self.dims);
        self.invalidate_snapshot();
        let v = self.parts.len() as VertexId;
        self.parts.push(part);
        self.part_sizes[part as usize] += 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[part as usize * self.dims + j] += w;
            self.totals[j] += w;
            self.stamps.push(0);
        }
        for j in 0..self.dims {
            let key = self.relief_key(j, weight_row);
            self.push_entry(part, j, HeapEntry { key, stamp: 0, v });
        }
    }

    /// Appends a slot that is already dead: an arrival that was removed
    /// again inside its own batch never gets an assignment, but its vertex
    /// id exists in the graph's id space until the next purge, so the
    /// store must keep the id→slot alignment. The slot reads
    /// [`TOMBSTONE`] and is dropped by the purge remap like any released
    /// vertex.
    pub fn push_tombstone(&mut self) {
        self.parts.push(TOMBSTONE);
        for _ in 0..self.dims {
            self.stamps.push(0);
        }
    }

    /// Re-activates the slot of a recycled vertex id: the commit stage's
    /// counterpart of [`Self::push_assignment`] for an arrival whose id
    /// came off the [`crate::DynamicGraph`] free list instead of extending
    /// the id space.
    ///
    /// # Panics
    /// Panics (in debug builds) if the slot is not currently released.
    pub fn assign_slot(&mut self, v: VertexId, part: u32, weight_row: &[f64]) {
        debug_assert!((part as usize) < self.k);
        debug_assert_eq!(weight_row.len(), self.dims);
        debug_assert_eq!(
            self.parts[v as usize], TOMBSTONE,
            "assign_slot target {v} is still assigned"
        );
        self.invalidate_snapshot();
        self.parts[v as usize] = part;
        self.part_sizes[part as usize] += 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[part as usize * self.dims + j] += w;
            self.totals[j] += w;
        }
        for j in 0..self.dims {
            let stamp = self.bump_stamp(v, j);
            let entry = HeapEntry {
                key: self.relief_key(j, weight_row),
                stamp,
                v,
            };
            self.push_entry(part, j, entry);
        }
    }

    /// Releases a removed vertex: its weight leaves the part loads and the
    /// live totals, its heap entries are invalidated, and its slot maps to
    /// [`TOMBSTONE`] until a purge-time [`Self::apply_remap`] drops it.
    ///
    /// # Panics
    /// Panics (in debug builds) if `v` was already released.
    pub fn release_vertex(&mut self, v: VertexId, weight_row: &[f64]) {
        debug_assert_eq!(weight_row.len(), self.dims);
        let p = self.parts[v as usize] as usize;
        debug_assert!(p != TOMBSTONE as usize, "vertex {v} already released");
        self.invalidate_snapshot();
        self.part_sizes[p] -= 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[p * self.dims + j] -= w;
            self.totals[j] -= w;
            self.bump_stamp(v, j);
        }
        self.parts[v as usize] = TOMBSTONE;
        self.compact_if_drained(p as u32);
    }

    /// Moves `v` to `part`, shifting its weight row between loads.
    pub fn move_vertex(&mut self, v: VertexId, part: u32, weight_row: &[f64]) {
        debug_assert!((part as usize) < self.k);
        let old = self.parts[v as usize] as usize;
        debug_assert!(old != TOMBSTONE as usize, "cannot move released vertex {v}");
        if old == part as usize {
            return;
        }
        self.invalidate_snapshot();
        self.part_sizes[old] -= 1;
        self.part_sizes[part as usize] += 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[old * self.dims + j] -= w;
            self.loads[part as usize * self.dims + j] += w;
        }
        for j in 0..self.dims {
            let stamp = self.bump_stamp(v, j);
            let entry = HeapEntry {
                key: self.relief_key(j, weight_row),
                stamp,
                v,
            };
            self.push_entry(part, j, entry);
        }
        self.parts[v as usize] = part;
        self.compact_if_drained(old as u32);
    }

    /// Accounts a weight drift of `v` in dimension `j`: `new_row` is the
    /// full weight row *after* the change, `old` the previous value of
    /// dimension `j`. The whole row is needed because the composite heap
    /// keys ([`Self::relief_key`]) mix every dimension — a drift in one
    /// dimension re-ranks the vertex in all of them.
    pub fn apply_weight_change(&mut self, v: VertexId, j: usize, old: f64, new_row: &[f64]) {
        debug_assert_eq!(new_row.len(), self.dims);
        let p = self.parts[v as usize];
        self.invalidate_snapshot();
        self.loads[p as usize * self.dims + j] += new_row[j] - old;
        self.totals[j] += new_row[j] - old;
        for i in 0..self.dims {
            let stamp = self.bump_stamp(v, i);
            let entry = HeapEntry {
                key: self.relief_key(i, new_row),
                stamp,
                v,
            };
            self.push_entry(p, i, entry);
        }
    }

    /// Invalidates the live heap entry of `(v, j)` and returns the new
    /// stamp for its replacement.
    fn bump_stamp(&mut self, v: VertexId, j: usize) -> u64 {
        let slot = &mut self.stamps[v as usize * self.dims + j];
        *slot += 1;
        *slot
    }

    /// Pushes a fresh entry, compacting the heap first when its stale
    /// backlog has outgrown the live membership 4×. The check must live on
    /// the *push* side: queries only ever touch the currently-binding
    /// `(part, dim)` slots, so a long stream whose drift never crosses the
    /// trigger would otherwise leak stale entries in every other heap
    /// linearly with the update count. Compaction removes ≥ 3/4 of the
    /// entries it scans, each of which paid O(1) at its own push —
    /// amortized constant.
    fn push_entry(&mut self, p: u32, j: usize, entry: HeapEntry) {
        let slot = p as usize * self.dims + j;
        if self.heaps[slot].len() >= 4 * self.part_sizes[p as usize] + 64 {
            self.compact_heap(p, j);
        }
        self.heaps[slot].push(entry);
    }

    /// Drops every heap of a part that just lost its last live member. A
    /// drained part receives neither pushes nor queries, so the ratio
    /// triggers in [`Self::push_entry`] / [`Self::top_movable`] never run
    /// for it and its stale backlog would leak until process end.
    fn compact_if_drained(&mut self, p: u32) {
        if self.part_sizes[p as usize] == 0 {
            for j in 0..self.dims {
                if !self.heaps[p as usize * self.dims + j].is_empty() {
                    self.compact_heap(p, j);
                }
            }
        }
    }

    /// The up-to-`limit` heaviest vertices of part `p` in dimension `j` —
    /// the rebalance candidate queue, heaviest first. Pops lazily: stale
    /// entries are discarded, live ones are pushed back, so the amortized
    /// cost is O(limit · log n) plus the stale backlog (bounded by the 4×
    /// compaction rule). Returns fewer than `limit` when the part is small.
    pub fn top_movable(&mut self, p: u32, j: usize, limit: usize) -> Vec<VertexId> {
        let slot = p as usize * self.dims + j;
        let live_members = self.part_sizes[p as usize];
        if self.heaps[slot].len() > 4 * live_members + 64
            || (live_members == 0 && !self.heaps[slot].is_empty())
        {
            self.compact_heap(p, j);
        }
        let mut live = Vec::with_capacity(limit.min(self.part_sizes[p as usize]));
        let mut out = Vec::with_capacity(limit);
        while out.len() < limit {
            let Some(entry) = self.heaps[slot].pop() else {
                break;
            };
            self.heap_pops += 1;
            if self.parts[entry.v as usize] == p
                && self.stamps[entry.v as usize * self.dims + j] == entry.stamp
            {
                out.push(entry.v);
                live.push(entry);
            }
        }
        for entry in live {
            self.heaps[slot].push(entry);
        }
        out
    }

    /// Raw entry count of heap `(p, j)`, stale entries included (tests the
    /// push-side compaction bound).
    #[cfg(test)]
    fn heap_len(&self, p: u32, j: usize) -> usize {
        self.heaps[p as usize * self.dims + j].len()
    }

    /// Drops every stale entry of heap `(p, j)` in one O(len) pass.
    fn compact_heap(&mut self, p: u32, j: usize) {
        let slot = p as usize * self.dims + j;
        let heap = std::mem::take(&mut self.heaps[slot]);
        self.heaps[slot] = heap
            .into_iter()
            .filter(|e| {
                self.parts[e.v as usize] == p
                    && self.stamps[e.v as usize * self.dims + j] == e.stamp
            })
            .collect();
    }

    /// Accounts a new edge for the locality counters. Callers must report
    /// each live edge exactly once: gate on the graph's own dedup (e.g.
    /// [`crate::DynamicGraph::add_edge`] returning `true`), or the
    /// counters drift from the graph until the next
    /// [`Self::rebuild_edge_stats`].
    pub fn on_edge_added(&mut self, u: VertexId, v: VertexId) {
        if self.parts[u as usize] == self.parts[v as usize] {
            self.intra_edges += 1;
        } else {
            self.cut_edges += 1;
        }
    }

    /// Reverses [`Self::on_edge_added`] for a removed edge, classified by
    /// the endpoints' *current* parts — correct because every move keeps
    /// the counters exact as it happens ([`Self::on_vertex_moved`]), so an
    /// edge is always counted under its endpoints' current parts. Call
    /// before releasing either endpoint.
    pub fn on_edge_removed(&mut self, u: VertexId, v: VertexId) {
        if self.parts[u as usize] == self.parts[v as usize] {
            debug_assert!(self.intra_edges > 0, "intra counter underflow");
            self.intra_edges = self.intra_edges.saturating_sub(1);
        } else {
            debug_assert!(self.cut_edges > 0, "cut counter underflow");
            self.cut_edges = self.cut_edges.saturating_sub(1);
        }
    }

    /// Accounts a vertex move for the locality counters: `gain` is the net
    /// intra-edge change it caused — the number of the vertex's neighbours
    /// in its new part minus those in its old part, counted before the
    /// move. Every move the engine makes reports here, so the counters
    /// stay exact without a wholesale recount.
    pub fn on_vertex_moved(&mut self, gain: i64) {
        let intra = self.intra_edges as i64 + gain;
        let cut = self.cut_edges as i64 - gain;
        debug_assert!(intra >= 0 && cut >= 0, "locality counter underflow");
        self.intra_edges = intra.max(0) as usize;
        self.cut_edges = cut.max(0) as usize;
    }

    /// Recomputes the locality counters from an edge iterator — the
    /// bootstrap initialization, and the oracle tests check the
    /// incremental counters against.
    pub fn rebuild_edge_stats(&mut self, edges: impl Iterator<Item = (VertexId, VertexId)>) {
        self.intra_edges = 0;
        self.cut_edges = 0;
        for (u, v) in edges {
            self.on_edge_added(u, v);
        }
    }

    /// Fraction of edges with both endpoints in one shard (1.0 when there
    /// are no edges, matching [`Partition::edge_locality`]).
    pub fn edge_locality(&self) -> f64 {
        let m = self.intra_edges + self.cut_edges;
        if m == 0 {
            1.0
        } else {
            self.intra_edges as f64 / m as f64
        }
    }

    /// Cut edges seen by the incremental counters.
    #[inline]
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// Intra-part edges seen by the incremental counters.
    #[inline]
    pub fn intra_edges(&self) -> usize {
        self.intra_edges
    }

    /// `max_j max_p w^{(j)}(V_p) / (w^{(j)}(V)/k) − 1`, the metric the
    /// ε-guarantee is stated in, over the **live** totals — so removals
    /// register in both directions: weight leaving an overloaded part
    /// relaxes its ratio, while draining one part shrinks the average and
    /// surfaces the *relative* overload of every other part. O(k·d).
    pub fn max_imbalance(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for j in 0..self.dims {
            let avg = self.totals[j] / self.k as f64;
            if avg <= 0.0 {
                continue;
            }
            for p in 0..self.k {
                worst = worst.max(self.loads[p * self.dims + j] / avg - 1.0);
            }
        }
        worst
    }

    /// Per-dimension normalized headroom `(cap_j − load_pj) / cap_j` of the
    /// least-loaded part — how close the stream is to violating ε
    /// (drift telemetry; negative means some part is over budget). Uses
    /// the live totals, like [`Self::max_imbalance`].
    pub fn min_headroom(&self, epsilon: f64) -> f64 {
        let mut min_head = f64::INFINITY;
        for j in 0..self.dims {
            let cap = (1.0 + epsilon) * self.totals[j] / self.k as f64;
            if cap <= 0.0 {
                continue;
            }
            for p in 0..self.k {
                min_head = min_head.min((cap - self.loads[p * self.dims + j]) / cap);
            }
        }
        min_head
    }

    /// Snapshot as a [`Partition`] (O(n); used at refinement boundaries).
    ///
    /// # Panics
    /// Panics if any vertex is released but not yet purged — a
    /// [`TOMBSTONE`] is not a valid part label. Compact the graph and
    /// [`Self::apply_remap`] first (the engine's `purge` does both).
    pub fn to_partition(&self) -> Partition {
        assert!(
            self.parts.iter().all(|&p| p != TOMBSTONE),
            "released vertices pending: apply the compaction remap before snapshotting"
        );
        Partition::new(self.parts.clone(), self.k)
    }

    /// Applies a purge-time id remap (`old_to_new[old]` = new id, or
    /// [`TOMBSTONE`] for a dropped vertex — the map returned by
    /// [`crate::DynamicGraph::compact`]): compresses the assignment vector
    /// and rebuilds loads, totals and heaps from the post-purge `weights`.
    /// Every released slot must be dropped by the map and vice versa; the
    /// edge counters are unaffected (they count edges, not ids).
    pub fn apply_remap(&mut self, old_to_new: &[u32], weights: &VertexWeights) {
        assert_eq!(old_to_new.len(), self.parts.len(), "remap length mismatch");
        let live = self.num_assigned();
        assert_eq!(
            weights.num_vertices(),
            live,
            "post-purge weights must cover exactly the live vertices"
        );
        // Serial validation pass doubles as the inverse-map build
        // (`live_olds[new] = old`); the purge renumbering is monotone, so
        // the inverse turns the scatter into a gather over disjoint
        // output ranges that parallelizes freely.
        let mut live_olds: Vec<u32> = Vec::with_capacity(live);
        for (old, &new) in old_to_new.iter().enumerate() {
            let assigned = self.parts[old] != TOMBSTONE;
            assert_eq!(
                new != TOMBSTONE,
                assigned,
                "remap disagrees with release state at old id {old}"
            );
            if new != TOMBSTONE {
                debug_assert_eq!(new as usize, live_olds.len(), "purge remap not monotone");
                live_olds.push(old as u32);
            }
        }
        let mut parts = vec![TOMBSTONE; live];
        let bounds = even_boundaries(live, self.threads);
        let old_parts = &self.parts;
        for_each_chunk_mut(&mut parts, &bounds, |range, chunk| {
            for (slot, &old) in chunk.iter_mut().zip(&live_olds[range]) {
                *slot = old_parts[old as usize];
            }
        });
        self.parts = parts;
        self.rebuild_loads(weights);
    }

    /// Recomputes loads, totals — and the rebalance heaps — from scratch
    /// (float-drift hygiene after long runs; also the second phase of
    /// [`Self::apply_remap`]). Released-but-unpurged slots contribute
    /// nothing.
    pub fn rebuild_loads(&mut self, weights: &VertexWeights) {
        assert_eq!(weights.num_vertices(), self.parts.len());
        self.invalidate_snapshot();
        self.loads.iter_mut().for_each(|l| *l = 0.0);
        self.totals.iter_mut().for_each(|t| *t = 0.0);
        self.part_sizes.iter_mut().for_each(|s| *s = 0);
        // The composite heap keys normalize by the live totals, so every
        // total must be final before `rebuild_heaps` pushes the first
        // entry.
        for (v, &p) in self.parts.iter().enumerate() {
            if p == TOMBSTONE {
                continue;
            }
            self.part_sizes[p as usize] += 1;
            for j in 0..self.dims {
                let w = weights.weight(j, v as VertexId);
                self.loads[p as usize * self.dims + j] += w;
                self.totals[j] += w;
            }
        }
        self.rebuild_heaps(weights);
    }

    /// Drops every heap entry and stamp and re-pushes one entry per
    /// assigned `(vertex, dimension)`, keyed at the **current** totals.
    /// This canonicalizes the candidate queues: a long-lived store holds
    /// mixed-vintage push-time keys, and two stores that agree on
    /// parts/loads/totals but diverge in entry vintage can pop different
    /// candidate orders. [`crate::StreamingPartitioner::save_snapshot`]
    /// calls this on the *live* store before serializing so that saver and
    /// restorer (whose heaps are rebuilt the same way) continue from
    /// identical state. O(n·d·log n).
    pub(crate) fn rebuild_heaps(&mut self, weights: &VertexWeights) {
        debug_assert_eq!(weights.num_vertices(), self.parts.len());
        self.stamps.iter_mut().for_each(|s| *s = 0);
        self.stamps.resize(self.parts.len() * self.dims, 0);
        // Serial bucket pass: one entry list per (part, dimension) slot in
        // ascending vertex order, keyed against the final totals (the
        // composite keys read `self.totals`, so key computation cannot
        // move off this thread anyway).
        let mut buckets: Vec<Vec<HeapEntry>> = vec![Vec::new(); self.k * self.dims];
        let mut row = vec![0.0f64; self.dims];
        for (v, &p) in self.parts.iter().enumerate() {
            if p == TOMBSTONE {
                continue;
            }
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = weights.weight(j, v as VertexId);
            }
            for j in 0..self.dims {
                let key = self.relief_key(j, &row);
                buckets[p as usize * self.dims + j].push(HeapEntry {
                    key,
                    stamp: 0,
                    v: v as VertexId,
                });
            }
        }
        // Parallel per-slot heap builds over disjoint slot ranges,
        // balanced by entry count. Each slot replays its bucket in the
        // exact order the serial loop would have pushed, so the heap
        // layout is bitwise identical for every thread count.
        let mut prefix = Vec::with_capacity(buckets.len() + 1);
        prefix.push(0usize);
        for b in &buckets {
            prefix.push(prefix.last().unwrap() + b.len() + 1);
        }
        let bounds = prefix_boundaries(&prefix, self.threads);
        for_each_chunk_mut(&mut self.heaps, &bounds, |range, chunk| {
            for (heap, bucket) in chunk.iter_mut().zip(&buckets[range]) {
                heap.clear();
                for &e in bucket {
                    heap.push(e);
                }
            }
        });
    }

    /// Serializes the accounting state — assignments, loads, live totals
    /// and edge counters, all **verbatim floats** (they are maintained
    /// incrementally; re-deriving them from the weights would diverge
    /// bitwise from the live store). Heaps, stamps and `part_sizes` are
    /// derived state and are rebuilt by [`Self::decode_snapshot`].
    pub(crate) fn encode_snapshot(&self, w: &mut crate::snapshot::PayloadWriter) {
        w.put_usize(self.k);
        w.put_usize(self.dims);
        w.put_vec_u32(&self.parts);
        w.put_vec_f64(&self.loads);
        w.put_vec_f64(&self.totals);
        w.put_usize(self.intra_edges);
        w.put_usize(self.cut_edges);
    }

    /// Rebuilds a store from [`Self::encode_snapshot`] bytes: serialized
    /// accounting verbatim, then `part_sizes` recounted from the
    /// assignments and the rebalance heaps/stamps rebuilt from `weights`
    /// at the restored totals (see [`Self::rebuild_heaps`]). The store's
    /// shape must be the config's `k` and the weights' dimension count;
    /// both are checked before anything is sized by them.
    pub(crate) fn decode_snapshot(
        r: &mut crate::snapshot::PayloadReader,
        k_config: usize,
        weights: &VertexWeights,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let corrupt = |why: String| SnapshotError::Corrupt(why);
        let k = r.get_usize("store.k")?;
        let dims = r.get_usize("store.dims")?;
        if k != k_config || dims != weights.dims() {
            return Err(corrupt(format!(
                "store shape k = {k}, dims = {dims}; config k = {k_config}, weights dims = {}",
                weights.dims()
            )));
        }
        let parts = r.get_vec_u32("store.parts")?;
        if parts.len() != weights.num_vertices() {
            return Err(corrupt(format!(
                "store covers {} vertices, weights {}",
                parts.len(),
                weights.num_vertices()
            )));
        }
        // One load per (part, dimension) in the payload bounds `k` before
        // it sizes the part counts and the heaps.
        let loads = r.get_vec_f64("store.loads")?;
        if Some(loads.len()) != k.checked_mul(dims) || loads.iter().any(|l| !l.is_finite()) {
            return Err(corrupt("per-part loads are malformed".into()));
        }
        let mut part_sizes = vec![0usize; k];
        for &p in &parts {
            if p == TOMBSTONE {
                continue;
            }
            if (p as usize) >= k {
                return Err(corrupt(format!("assignment names part {p} of {k}")));
            }
            part_sizes[p as usize] += 1;
        }
        let totals = r.get_vec_f64("store.totals")?;
        if totals.len() != dims || totals.iter().any(|t| !t.is_finite()) {
            return Err(corrupt("live totals are malformed".into()));
        }
        let n = parts.len();
        let mut store = Self {
            parts,
            k,
            dims,
            loads,
            totals,
            part_sizes,
            stamps: vec![0; n * dims],
            heaps: vec![BinaryHeap::new(); k * dims],
            intra_edges: r.get_usize("store.intra_edges")?,
            cut_edges: r.get_usize("store.cut_edges")?,
            views: ViewShared::new(Arc::new(ReadView {
                epoch: ViewEpoch::default(),
                parts: Vec::new(),
                snapshot: LoadSnapshot {
                    inner: Arc::new(SnapshotInner {
                        k,
                        dims,
                        loads: Vec::new(),
                        totals: Vec::new(),
                    }),
                },
                remap: None,
                checksum: view_checksum(ViewEpoch::default(), &[]),
            })),
            snapshot_cache: None,
            snapshot_rebuilds: 0,
            heap_pops: 0,
            threads: 1,
        };
        store.rebuild_heaps(weights);
        // The restoring engine publishes view #0 (at the restored id
        // epoch and batch_seq) once it is assembled; until then handles
        // see this seed. Not counted as a swap — mirrors `Self::new`.
        store.install_view(ViewEpoch::default(), None, false);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbgp_graph::builder::graph_from_edges;

    fn store() -> (PartitionStore, VertexWeights) {
        let g = graph_from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let w = VertexWeights::vertex_edge(&g);
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        let mut s = PartitionStore::new(&p, &w);
        s.rebuild_edge_stats(g.edges());
        (s, w)
    }

    #[test]
    fn lookups_and_loads() {
        let (s, _) = store();
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(3), 1);
        assert_eq!(s.load(0, 0), 2.0);
        assert_eq!(s.load(1, 0), 2.0);
        assert_eq!(s.total(0), 4.0);
        assert_eq!(s.edge_locality(), 2.0 / 3.0);
        assert_eq!(s.cut_edges(), 1);
    }

    #[test]
    fn push_and_move_update_loads() {
        let (mut s, mut w) = store();
        w.push_vertex(&[1.0, 1.0]);
        s.push_assignment(1, &[1.0, 1.0]);
        assert_eq!(s.shard_of(4), 1);
        assert_eq!(s.load(1, 0), 3.0);
        assert_eq!(s.total(0), 5.0);
        s.move_vertex(4, 0, &[1.0, 1.0]);
        assert_eq!(s.load(0, 0), 3.0);
        assert_eq!(s.load(1, 0), 2.0);
        assert_eq!(s.total(0), 5.0, "moves do not change the totals");
        s.move_vertex(4, 0, &[1.0, 1.0]); // no-op
        assert_eq!(s.load(0, 0), 3.0);
    }

    #[test]
    fn release_frees_capacity_and_tombstones_the_slot() {
        let (mut s, w) = store();
        let row: Vec<f64> = (0..w.dims()).map(|j| w.weight(j, 1)).collect();
        s.release_vertex(1, &row);
        assert_eq!(s.shard_of(1), TOMBSTONE);
        assert_eq!(s.part_size(0), 1);
        assert_eq!(s.num_assigned(), 3);
        assert_eq!(s.load(0, 0), 1.0);
        assert_eq!(s.total(0), 3.0, "released weight leaves the live total");
        assert_eq!(s.total(1), 6.0 - row[1]);
        // The released vertex never surfaces as a rebalance candidate.
        assert!(!s.top_movable(0, 0, 10).contains(&1));
    }

    #[test]
    fn edge_removal_reverses_the_counters() {
        let (mut s, _) = store();
        s.on_edge_removed(1, 2); // cut edge
        assert_eq!(s.cut_edges(), 0);
        assert_eq!(s.edge_locality(), 1.0);
        s.on_edge_removed(0, 1); // intra edge
        assert_eq!(s.edge_locality(), 1.0);
        s.on_edge_added(0, 1);
        assert_eq!(s.edge_locality(), 1.0, "1 intra of 1 edge");
    }

    #[test]
    fn imbalance_and_headroom() {
        let (mut s, _) = store();
        assert_eq!(s.max_imbalance(), 0.0);
        // Overload part 0: unit dimension hits 3/2 (imbalance 0.5), degree
        // dimension hits 5/3 (imbalance 2/3, the max).
        s.move_vertex(2, 0, &[1.0, 2.0]);
        assert!(
            (s.max_imbalance() - 2.0 / 3.0).abs() < 1e-12,
            "{}",
            s.max_imbalance()
        );
        assert!(s.min_headroom(0.05) < 0.0, "part over cap must go negative");
    }

    #[test]
    fn releases_register_in_the_imbalance_both_ways() {
        // k=2, unit weights, 3/3 split.
        let w = VertexWeights::unit(6);
        let p = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
        let mut s = PartitionStore::new(&p, &w);
        assert_eq!(s.max_imbalance(), 0.0);
        // Draining part 1 shrinks the average, so part 0 shows up as
        // relatively overloaded: 3 / (4/2) − 1 = 0.5.
        s.release_vertex(3, &[1.0]);
        s.release_vertex(4, &[1.0]);
        assert!(
            (s.max_imbalance() - 0.5).abs() < 1e-12,
            "{}",
            s.max_imbalance()
        );
        // Releasing from the (now relatively overloaded) part relaxes it.
        s.release_vertex(0, &[1.0]);
        assert!((s.max_imbalance() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weight_drift_accounted() {
        let (mut s, mut w) = store();
        let old = w.weight(1, 0);
        w.set_weight(1, 0, old + 4.0);
        let row: Vec<f64> = (0..w.dims()).map(|j| w.weight(j, 0)).collect();
        s.apply_weight_change(0, 1, old, &row);
        assert_eq!(s.load(0, 1), 3.0 + 4.0);
        assert_eq!(s.total(1), 6.0 + 4.0);
    }

    #[test]
    fn load_snapshot_freezes_the_accounting() {
        let (mut s, _) = store();
        let snap = s.load_snapshot();
        assert_eq!(snap.num_parts(), 2);
        assert_eq!(snap.dims(), 2);
        assert_eq!(snap.load(0, 0), s.load(0, 0));
        assert_eq!(snap.total(1), s.total(1));
        // Mutating the store afterwards leaves the snapshot untouched.
        s.push_assignment(0, &[1.0, 1.0]);
        assert_eq!(snap.load(0, 0), 2.0);
        assert_eq!(snap.total(0), 4.0);
        assert_eq!(s.total(0), 5.0);
    }

    #[test]
    fn tombstone_and_slot_reassignment_keep_alignment() {
        let (mut s, w) = store();
        // An arrival removed inside its own batch: the slot exists, reads
        // TOMBSTONE, and counts nowhere.
        s.push_tombstone();
        assert_eq!(s.num_vertices(), 5);
        assert_eq!(s.num_assigned(), 4);
        assert_eq!(s.shard_of(4), TOMBSTONE);
        assert_eq!(s.total(0), 4.0);
        // Releasing a vertex frees its id; assign_slot re-activates it for
        // a recycled arrival.
        let row: Vec<f64> = (0..w.dims()).map(|j| w.weight(j, 1)).collect();
        s.release_vertex(1, &row);
        assert_eq!(s.shard_of(1), TOMBSTONE);
        s.assign_slot(1, 1, &[1.0, 5.0]);
        assert_eq!(s.shard_of(1), 1);
        assert_eq!(s.part_size(1), 3);
        assert_eq!(s.load(1, 1), 3.0 + 5.0);
        assert_eq!(s.total(0), 4.0);
        // The recycled vertex surfaces as a rebalance candidate again (its
        // degree-dimension weight 5 tops part 1).
        assert_eq!(s.top_movable(1, 1, 1), vec![1]);
    }

    #[test]
    fn partition_snapshot_round_trips() {
        let (s, _) = store();
        let p = s.to_partition();
        assert_eq!(p.as_slice(), s.as_slice());
        assert_eq!(p.num_parts(), 2);
    }

    #[test]
    #[should_panic(expected = "released vertices pending")]
    fn partition_snapshot_rejects_unpurged_tombstones() {
        let (mut s, _) = store();
        s.release_vertex(0, &[1.0, 1.0]);
        let _ = s.to_partition();
    }

    #[test]
    fn apply_remap_compresses_and_rebuilds() {
        let (mut s, w) = store();
        let row: Vec<f64> = (0..w.dims()).map(|j| w.weight(j, 1)).collect();
        s.release_vertex(1, &row);
        // Purge: old ids [0, 2, 3] survive as [0, 1, 2].
        let live_w = w.restrict(&[0, 2, 3]);
        s.apply_remap(&[0, TOMBSTONE, 1, 2], &live_w);
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.as_slice(), &[0, 1, 1]);
        assert_eq!(s.load(0, 0), 1.0);
        assert_eq!(s.load(1, 0), 2.0);
        assert_eq!(s.total(0), 3.0);
        let p = s.to_partition();
        assert_eq!(p.num_vertices(), 3);
        // Heaps follow: part 1's heaviest in the degree dimension is old
        // vertex 2 (degree 2) at its new id 1.
        assert_eq!(s.top_movable(1, 1, 1), vec![1]);
    }

    #[test]
    fn heaps_stay_bounded_without_queries() {
        // A serving-scale stream may drift for hours without the rebalance
        // ever querying most (part, dim) slots; the push-side compaction
        // must keep every heap O(part size) regardless.
        let w = VertexWeights::unit(16);
        let p = Partition::new((0..16).map(|v| (v % 2) as u32).collect(), 2);
        let mut s = PartitionStore::new(&p, &w);
        let mut w = w;
        for round in 0..5_000 {
            let v = (round % 16) as u32;
            let old = w.weight(0, v);
            let new = 1.0 + (round % 9) as f64;
            w.set_weight(0, v, new);
            s.apply_weight_change(v, 0, old, &[new]);
        }
        for part in 0..2u32 {
            assert!(
                s.heap_len(part, 0) < 4 * s.part_size(part) + 64 + 1,
                "heap leaked: {} entries for {} members",
                s.heap_len(part, 0),
                s.part_size(part)
            );
        }
        // And the live view is still correct.
        let top = s.top_movable(0, 0, 1);
        let brute = brute_force_top(&s, &w, 0, 0);
        assert_eq!(w.weight(0, top[0]), w.weight(0, brute[0]));

        // Draining a part to zero live members must compact its heaps
        // immediately: a drained part sees no pushes and no queries, so
        // the ratio trigger alone would leak its stale entries forever.
        for v in (0..16u32).filter(|v| v % 2 == 1) {
            let row = [w.weight(0, v)];
            s.release_vertex(v, &row);
        }
        assert_eq!(s.part_size(1), 0);
        assert_eq!(
            s.heap_len(1, 0),
            0,
            "drained part kept {} stale heap entries",
            s.heap_len(1, 0)
        );
        assert!(s.top_movable(1, 0, 5).is_empty());
    }

    #[test]
    fn fresh_arrivals_keep_the_heap_bound() {
        // Releases never compact a part that keeps a live member, so its
        // heaps carry the released entries as stale backlog; the pushes of
        // fresh arrivals into that part must apply the same 4x bound as
        // every other push.
        let n = 200;
        let w = VertexWeights::from_vectors(vec![vec![1.0; n], vec![2.0; n]]);
        let mut s = PartitionStore::new(&Partition::new(vec![0; n], 2), &w);
        for v in 1..n as VertexId {
            s.release_vertex(v, &[1.0, 2.0]);
        }
        assert_eq!(s.part_size(0), 1);
        for _ in 0..8 {
            s.push_assignment(0, &[1.0, 2.0]);
            for j in 0..2 {
                assert!(
                    s.heap_len(0, j) <= 4 * s.part_size(0) + 64,
                    "heap (0, {j}) holds {} entries for {} members",
                    s.heap_len(0, j),
                    s.part_size(0)
                );
            }
        }
        assert_eq!(s.top_movable(0, 0, 16).len(), 9, "every live member ranks");
    }

    #[test]
    fn draining_via_moves_also_compacts() {
        let w = VertexWeights::unit(4);
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        let mut s = PartitionStore::new(&p, &w);
        s.move_vertex(2, 0, &[1.0]);
        s.move_vertex(3, 0, &[1.0]);
        assert_eq!(s.part_size(1), 0);
        assert_eq!(s.heap_len(1, 0), 0, "move-drained part must compact");
    }

    #[test]
    fn top_movable_returns_heaviest_first() {
        let w = VertexWeights::from_vectors(vec![vec![1.0, 4.0, 2.0, 3.0], vec![9.0; 4]]);
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let mut s = PartitionStore::new(&p, &w);
        assert_eq!(s.top_movable(0, 0, 2), vec![1, 2]);
        assert_eq!(
            s.top_movable(0, 0, 10),
            vec![1, 2, 0],
            "limit caps at membership"
        );
        assert_eq!(s.top_movable(1, 0, 10), vec![3]);
        // Repeat pops see the same live entries (pushed back).
        assert_eq!(s.top_movable(0, 0, 1), vec![1]);
    }

    /// Oracle: heaviest-first members of `p` in dimension `j` by rescoring
    /// every vertex.
    fn brute_force_top(s: &PartitionStore, w: &VertexWeights, p: u32, j: usize) -> Vec<u32> {
        let mut members: Vec<u32> = (0..s.num_vertices() as u32)
            .filter(|&v| s.shard_of(v) == p)
            .collect();
        members.sort_by(|&a, &b| {
            w.weight(j, b)
                .total_cmp(&w.weight(j, a))
                .then_with(|| b.cmp(&a))
        });
        members
    }

    #[test]
    fn rebalance_heap_matches_shadow_keys_after_random_drift() {
        // Stamp-invalidated heaps must agree with a shadow rescore no
        // matter how moves / drifts / arrivals / releases interleave. The
        // composite keys normalize by the live totals *at push time*, so
        // the oracle records the key alongside every operation (calling
        // the same `relief_key` right after the store op) instead of
        // recomputing from current weights.
        let mut rng_state = 0x9E37u64;
        let mut rng = move || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng_state >> 33) as usize
        };
        let n0 = 40;
        let dims = 2;
        let k = 3;
        let mut w = VertexWeights::from_vectors(vec![
            (0..n0).map(|v| 1.0 + (v % 7) as f64).collect(),
            (0..n0).map(|v| 1.0 + (v % 5) as f64).collect(),
        ]);
        let labels: Vec<u32> = (0..n0).map(|v| (v % k) as u32).collect();
        let mut s = PartitionStore::new(&Partition::new(labels, k), &w);
        let mut released = vec![false; n0];
        // Shadow of the live heap entry keys: `keys[v][j]` is the key the
        // store pushed last for `(v, j)` — recorded via the same
        // `relief_key` immediately after each operation.
        let rescore = |s: &PartitionStore, w: &VertexWeights, v: u32| -> Vec<f64> {
            let row: Vec<f64> = (0..dims).map(|j| w.weight(j, v)).collect();
            (0..dims).map(|j| s.relief_key(j, &row)).collect()
        };
        let mut keys: Vec<Vec<f64>> = (0..n0 as u32).map(|v| rescore(&s, &w, v)).collect();
        // Expected `top_movable(p, j, ..)`: live members of `p` by shadow
        // key descending, ties to the larger id (the heap tie-break).
        let expected_top = |s: &PartitionStore, keys: &[Vec<f64>], p: u32, j: usize| -> Vec<u32> {
            let mut members: Vec<u32> = (0..s.num_vertices() as u32)
                .filter(|&v| s.shard_of(v) == p)
                .collect();
            members.sort_by(|&a, &b| {
                keys[b as usize][j]
                    .total_cmp(&keys[a as usize][j])
                    .then_with(|| b.cmp(&a))
            });
            members
        };
        for step in 0..400 {
            match rng() % 4 {
                0 => {
                    // Weight drift.
                    let v = (rng() % s.num_vertices()) as u32;
                    if released[v as usize] {
                        continue;
                    }
                    let j = rng() % dims;
                    let old = w.weight(j, v);
                    let new = 0.5 + (rng() % 100) as f64 / 10.0;
                    w.set_weight(j, v, new);
                    let row: Vec<f64> = (0..dims).map(|i| w.weight(i, v)).collect();
                    s.apply_weight_change(v, j, old, &row);
                    keys[v as usize] = rescore(&s, &w, v);
                }
                1 => {
                    // Move between parts.
                    let v = (rng() % s.num_vertices()) as u32;
                    if released[v as usize] {
                        continue;
                    }
                    let dst = (rng() % k) as u32;
                    let moved = s.shard_of(v) != dst;
                    let row: Vec<f64> = (0..dims).map(|j| w.weight(j, v)).collect();
                    s.move_vertex(v, dst, &row);
                    if moved {
                        // A same-part move is a no-op: no re-push, so the
                        // live entry keeps its older push-time key.
                        keys[v as usize] = rescore(&s, &w, v);
                    }
                }
                2 => {
                    // Arrival.
                    let row = vec![1.0 + (rng() % 40) as f64 / 7.0, 1.0 + (rng() % 9) as f64];
                    w.push_vertex(&row);
                    released.push(false);
                    s.push_assignment((rng() % k) as u32, &row);
                    keys.push(rescore(&s, &w, (s.num_vertices() - 1) as u32));
                }
                _ => {
                    // Release (keep a healthy majority assigned).
                    let v = (rng() % s.num_vertices()) as u32;
                    if released[v as usize] || s.num_assigned() < 20 {
                        continue;
                    }
                    let row: Vec<f64> = (0..dims).map(|j| w.weight(j, v)).collect();
                    s.release_vertex(v, &row);
                    released[v as usize] = true;
                }
            }
            if step % 10 == 0 {
                for p in 0..k as u32 {
                    for j in 0..dims {
                        let expect = expected_top(&s, &keys, p, j);
                        let got = s.top_movable(p, j, expect.len() + 3);
                        // Keys must match position-wise (ids may differ
                        // only on exactly-equal keys; the tie-break makes
                        // even that deterministic, so compare keys).
                        assert_eq!(got.len(), expect.len(), "step {step} part {p} dim {j}");
                        for (a, b) in got.iter().zip(&expect) {
                            assert_eq!(
                                keys[*a as usize][j], keys[*b as usize][j],
                                "step {step} part {p} dim {j}: heap {got:?} vs shadow {expect:?}"
                            );
                        }
                    }
                }
            }
        }
        // A full rebuild re-keys every entry at the *current* totals; the
        // shadow oracle does the same and must still agree exactly.
        s.rebuild_loads(&w);
        for v in 0..s.num_vertices() as u32 {
            if s.shard_of(v) != TOMBSTONE {
                keys[v as usize] = rescore(&s, &w, v);
            }
        }
        for p in 0..k as u32 {
            let expect: Vec<u32> = expected_top(&s, &keys, p, 0).into_iter().take(5).collect();
            assert_eq!(s.top_movable(p, 0, 5), expect, "post-rebuild part {p}");
        }
    }

    #[test]
    fn snapshot_cache_reuses_until_a_load_mutation() {
        let (mut s, _) = store();
        let first = s.load_snapshot();
        let again = s.load_snapshot();
        assert!(
            first.shares_storage(&again),
            "no mutation between calls: same allocation expected"
        );
        let baseline = s.snapshot_rebuild_count();
        // Pure-topology mutations (edge counters) leave loads untouched —
        // the cache must survive them.
        s.on_edge_added(0, 2);
        s.on_edge_removed(0, 2);
        assert!(s.load_snapshot().shares_storage(&first));
        assert_eq!(s.snapshot_rebuild_count(), baseline);
        // A load mutation invalidates; the next call rebuilds once.
        s.push_assignment(0, &[1.0, 1.0]);
        let fresh = s.load_snapshot();
        assert!(!fresh.shares_storage(&first), "stale snapshot served");
        assert_eq!(fresh.total(0), 5.0);
        assert_eq!(s.snapshot_rebuild_count(), baseline + 1);
    }

    #[test]
    fn published_view_serves_the_frozen_assignment() {
        let (mut s, _) = store();
        // The constructor seeds an uncounted bootstrap view.
        assert_eq!(s.view_swap_count(), 0);
        let seed = s.read_view();
        assert_eq!(seed.epoch(), ViewEpoch::default());
        assert_eq!(seed.as_slice(), &[0, 0, 1, 1]);
        assert!(seed.verify_checksum());

        let epoch = ViewEpoch {
            id_epoch: 0,
            batch_seq: 1,
        };
        let view = s.publish_view(epoch, None);
        assert_eq!(s.view_swap_count(), 1);
        assert_eq!(view.epoch(), epoch);
        assert!(view.remap().is_none());
        // The view shares the snapshot allocation with the store's cache
        // (clone-on-publish, not rebuild).
        assert!(view.load_snapshot().shares_storage(&s.load_snapshot()));
        // Mutating the store does not leak into the published view.
        s.move_vertex(0, 1, &[1.0, 1.0]);
        assert_eq!(view.shard_of(0), 0);
        assert_eq!(view.get(0), Some(0));
        assert_eq!(s.shard_of(0), 1);
        assert!(view.verify_checksum());
        // get() is forgiving about dead / out-of-range ids.
        assert_eq!(view.get(17), None);
    }

    #[test]
    fn read_handle_repins_only_on_publish_and_flags_unadopted_epochs() {
        let (mut s, w) = store();
        let mut h = s.reader();
        assert!(!h.refresh(), "nothing published since the pin");
        assert_eq!(h.lookup(0), Some(0));

        // Publish within the same id epoch: re-pin, no adoption needed.
        s.move_vertex(0, 1, &[1.0, 1.0]);
        s.publish_view(
            ViewEpoch {
                id_epoch: 0,
                batch_seq: 1,
            },
            None,
        );
        assert_eq!(h.lookup(0), Some(0), "pinned view is stable");
        assert!(h.refresh());
        assert!(!h.refresh(), "second probe sees the same seq");
        assert_eq!(h.lookup(0), Some(1));
        assert!(!h.needs_adoption());
        assert_eq!(s.stale_epoch_read_count(), 0);

        // A purge crosses an id epoch: old id 1 dies, [0,2,3] -> [0,1,2].
        let row: Vec<f64> = (0..w.dims()).map(|j| w.weight(j, 1)).collect();
        s.release_vertex(1, &row);
        let remap = vec![0, TOMBSTONE, 1, 2];
        s.apply_remap(&remap, &w.restrict(&[0, 2, 3]));
        s.publish_view(
            ViewEpoch {
                id_epoch: 1,
                batch_seq: 2,
            },
            Some(remap),
        );
        h.refresh();
        assert!(h.needs_adoption(), "pinned view crossed a purge");
        // Serving before adopting answers but ticks the stale counter.
        assert_eq!(h.lookup(0), Some(1));
        assert_eq!(s.stale_epoch_read_count(), 1);
        // The view carries the remap the reader translates with.
        let carried = h.view().remap().expect("purge view carries its remap");
        assert_eq!(carried, &[0, TOMBSTONE, 1, 2]);
        h.adopt();
        assert!(!h.needs_adoption());
        assert_eq!(h.lookup(2), Some(1)); // old id 3, translated
        assert_eq!(s.stale_epoch_read_count(), 1, "adopted reads are clean");
        assert!(s.lookup_count() >= 5);
        assert!(s.lookup_latency().count() >= 5);
    }

    #[test]
    fn read_handles_outlive_the_store() {
        let (mut s, _) = store();
        s.publish_view(
            ViewEpoch {
                id_epoch: 0,
                batch_seq: 1,
            },
            None,
        );
        let h = s.reader();
        drop(s);
        assert_eq!(h.lookup(3), Some(1), "pinned view survives the engine");
        assert!(h.view().verify_checksum());
    }

    #[test]
    fn cloned_store_gets_an_independent_view_cell() {
        let (mut s, _) = store();
        s.publish_view(
            ViewEpoch {
                id_epoch: 0,
                batch_seq: 1,
            },
            None,
        );
        let mut c = s.clone();
        assert_eq!(c.view_swap_count(), 1, "counters carry over");
        assert_eq!(c.read_view().epoch(), s.read_view().epoch());
        // Publishing on the clone must not disturb the original's readers.
        let mut h = s.reader();
        c.move_vertex(0, 1, &[1.0, 1.0]);
        c.publish_view(
            ViewEpoch {
                id_epoch: 0,
                batch_seq: 2,
            },
            None,
        );
        assert!(!h.refresh(), "original's slot saw no publish");
        assert_eq!(s.read_view().epoch().batch_seq, 1);
        assert_eq!(c.read_view().epoch().batch_seq, 2);
    }
}
