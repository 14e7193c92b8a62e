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
//! ## Batch ingestion: reserve → commit
//!
//! The staged ingest pipeline ([`crate::StreamingPartitioner`]) places a
//! batch's arrivals against the store's loads as they stood after the
//! split stage: nothing writes the store between split and commit, so
//! placement workers score `&PartitionStore` plus their own reservations
//! ([`crate::ReservedView`]) concurrently, conflicts are repaired, and
//! only then the final assignments commit —
//! [`PartitionStore::push_assignment`] for a fresh id,
//! [`PartitionStore::assign_slot`] for a recycled one, and
//! [`PartitionStore::push_tombstone`] for an arrival that was removed
//! again inside its own batch (the slot must still exist so store ids stay
//! aligned with graph ids).
//!
//! ## Rebalance candidates
//!
//! The store keeps no rebalance state. [`PartitionStore::relief_key`]
//! scores a vertex for a rebalance step whose binding dimension is `j`,
//! at the live totals, and the greedy rebalance
//! ([`crate::StreamingPartitioner`]) ranks a part's members by that score
//! in heaps it builds and drops within one call. Candidate order is
//! therefore a function of the store as it stands: a snapshot, a restore
//! or a follower's promotion cannot change a later rebalance decision.
//!
//! ## Read path: epoch-stamped published views
//!
//! Everything above is the **write side** — engine-private mutable state.
//! Concurrent serving never touches it. At every batch boundary the engine
//! publishes an immutable [`ReadView`] — the frozen assignment vector and
//! the purge remap composed since the previous view — stamped with a
//! [`ViewEpoch`] `(id_epoch, batch_seq)`. [`ReadHandle`]s
//! (from [`PartitionStore::reader`]) pin the latest view with one relaxed
//! atomic probe and serve lock-free lookups from the pinned allocation —
//! one array read plus a count the handle keeps itself, nothing shared
//! written — so a reader fleet runs at full speed while the engine
//! commits and refines.
//! Purge remaps are only ever observed at a pin switch (*swap-on-remap*):
//! a pinned view is internally consistent by construction, and the remap
//! it carries tells the reader how to translate ids it held against the
//! previous epoch. See the "Read path & epoch publication" section of
//! `docs/ARCHITECTURE.md` for the full lifecycle.

use crate::snapshot::Checksum;
use crate::TOMBSTONE;
use mdbgp_graph::{Partition, VertexId, VertexWeights};
use mdbgp_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A [`ReadHandle`] times one lookup in this many, in ns: the first of
/// every run of `LOOKUP_SAMPLE_EVERY` it serves. Timing a lookup costs a
/// clock pair, many times the lookup itself; at this stride the clock
/// adds a fraction of a nanosecond per lookup.
pub const LOOKUP_SAMPLE_EVERY: u64 = 256;

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
/// assignment and — when a purge happened since the previous view — the
/// composed old→new id remap. Readers get
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
    /// Old→new id map from the *previous published view's* id space into
    /// this one — present iff a purge happened between the two views, and
    /// composed across purges if several did. [`TOMBSTONE`] = dropped.
    remap: Option<Arc<Vec<u32>>>,
    /// Checksum of the epoch and the assignment vector, fixed at publish.
    checksum: u64,
}

impl ReadView {
    /// The `(id_epoch, batch_seq)` stamp of this view.
    #[inline]
    pub fn epoch(&self) -> ViewEpoch {
        self.epoch
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

    /// The publish-time checksum over the epoch stamp and the assignment
    /// vector (the word-wise checksum snapshots and the batch log use).
    /// Two engines that published bitwise-identical assignments at the
    /// same [`ViewEpoch`] report the same value — the comparison a
    /// replication follower makes against the leader's per-batch stamp
    /// stream to detect divergence.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// [`Checksum`] of the epoch stamp, the length and the assignment, the
/// parts packed two per word (the last word's missing half is zero).
/// Allocates nothing.
fn view_checksum(epoch: ViewEpoch, parts: &[u32]) -> u64 {
    fn words(eight: &[u32]) -> [u64; 4] {
        std::array::from_fn(|i| eight[2 * i] as u64 | (eight[2 * i + 1] as u64) << 32)
    }
    let mut c = Checksum::new();
    c.block([epoch.id_epoch, epoch.batch_seq, parts.len() as u64, 0]);
    let mut chunks = parts.chunks_exact(8);
    for eight in &mut chunks {
        c.block(words(eight));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u32; 8];
        padded[..tail.len()].copy_from_slice(tail);
        c.block(words(&padded));
    }
    c.finish(32 + 4 * parts.len() as u64)
}

/// The publication slot shared between the write side and every
/// [`ReadHandle`], plus the serving-path tallies. Handles count their
/// lookups and sample their latency themselves and fold both in here when
/// their pin moves and when they drop; the engine mirrors the tallies
/// into its metrics registry at sync points.
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
    /// Lookups the handles folded in (`stream.store.lookups`).
    lookups: AtomicU64,
    /// Handle lookups served from a view whose `id_epoch` the reader had
    /// not adopted yet (`stream.store.stale_epoch_reads`): the caller was
    /// using ids from a pre-purge epoch. Zero in a correct reader loop.
    /// Counted as it happens, not folded, so it is exact while handles
    /// are alive.
    stale_epoch_reads: AtomicU64,
    /// Sampled lookup latencies in ns the handles folded in
    /// (`stream.store.lookup_ns`).
    lookup_ns: Mutex<Histogram>,
}

impl ViewShared {
    fn new(initial: Arc<ReadView>) -> Arc<Self> {
        Arc::new(Self {
            seq: AtomicU64::new(0),
            current: Mutex::new(initial),
            swaps: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            stale_epoch_reads: AtomicU64::new(0),
            lookup_ns: Mutex::new(Histogram::default()),
        })
    }

    /// The folded latency histogram. A merge cannot panic, so the lock is
    /// never poisoned; it is recovered anyway because a handle's `Drop`
    /// folds through it and must not panic.
    fn lookup_ns(&self) -> MutexGuard<'_, Histogram> {
        self.lookup_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
///
/// A lookup writes nothing shared: the handle counts it and times one in
/// [`LOOKUP_SAMPLE_EVERY`] into a histogram of its own, and folds both
/// into the store's tallies when a refresh moves its pin and when it
/// drops (see [`PartitionStore::lookup_count`]).
#[derive(Debug)]
pub struct ReadHandle {
    shared: Arc<ViewShared>,
    pinned: Arc<ReadView>,
    pinned_seq: u64,
    adopted_epoch: u64,
    /// [`Self::needs_adoption`], kept at each re-pin and adoption.
    stale: bool,
    /// Lookups this handle served.
    served: u64,
    /// How many of `served` are folded into the shared counter.
    folded: u64,
    /// Latency samples (ns) not folded yet.
    latency_ns: Histogram,
}

impl ReadHandle {
    /// Re-pins to the latest published view if one was published since
    /// the last refresh. Returns `true` when the pin moved. O(1); takes
    /// the publication lock only when the atomic probe saw a new seq.
    pub fn refresh(&mut self) -> bool {
        if self.shared.seq.load(Ordering::Acquire) == self.pinned_seq {
            return false;
        }
        {
            // Poisoning unreachable: see `ViewShared::current` for the proof.
            let slot = self.shared.current.lock().expect("view slot poisoned");
            self.pinned = Arc::clone(&slot);
            // Re-read under the lock: seq and slot move together there.
            self.pinned_seq = self.shared.seq.load(Ordering::Acquire);
        }
        self.stale = self.needs_adoption();
        self.fold();
        true
    }

    /// The currently pinned view (no refresh — stable until the next
    /// [`Self::refresh`], however many publishes happen meanwhile).
    #[inline]
    pub fn view(&self) -> &Arc<ReadView> {
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
        self.stale = false;
    }

    /// Serves `vertex → part` from the pinned view: one array read and a
    /// count this handle keeps, with one lookup in
    /// [`LOOKUP_SAMPLE_EVERY`] timed in ns (`stream.store.lookup_ns`).
    /// `None` for tombstoned or out-of-range ids. Ticks
    /// `stale_epoch_reads` when the reader hasn't adopted the pinned
    /// epoch (its ids may be pre-purge).
    #[inline]
    pub fn lookup(&mut self, v: VertexId) -> Option<u32> {
        if self.stale {
            self.count_stale_read();
        }
        let sample = self.served.is_multiple_of(LOOKUP_SAMPLE_EVERY);
        self.served += 1;
        if sample {
            return self.timed_lookup(v);
        }
        self.pinned.get(v)
    }

    #[cold]
    #[inline(never)]
    fn count_stale_read(&self) {
        self.shared
            .stale_epoch_reads
            .fetch_add(1, Ordering::Relaxed);
    }

    #[cold]
    #[inline(never)]
    fn timed_lookup(&mut self, v: VertexId) -> Option<u32> {
        let start = Instant::now();
        let out = std::hint::black_box(self.pinned.get(v));
        self.latency_ns.observe(start.elapsed().as_nanos() as u64);
        out
    }

    /// Adds the lookups served since the last fold to the store's counter
    /// (one atomic add) and merges the pending latency samples into its
    /// histogram (one short lock).
    fn fold(&mut self) {
        let pending = self.served - self.folded;
        if pending == 0 {
            return;
        }
        self.shared.lookups.fetch_add(pending, Ordering::Relaxed);
        self.folded = self.served;
        if self.latency_ns.count() > 0 {
            self.shared.lookup_ns().merge(&self.latency_ns);
            self.latency_ns = Histogram::default();
        }
    }
}

impl Drop for ReadHandle {
    fn drop(&mut self) {
        self.fold();
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
    /// Vertices currently assigned to each part.
    part_sizes: Vec<usize>,
    intra_edges: usize,
    cut_edges: usize,
    /// Publication slot + serving counters, shared with every
    /// [`ReadHandle`] this store handed out. Not part of snapshots.
    views: Arc<ViewShared>,
}

// Manual impl: the view cell is not `Clone` — and must not be shared: one
// writer per publication slot, so a cloned store gets a *fresh* cell
// seeded with the original's current view and tallies (the latter so
// observability mirrors stay monotone across engine clones).
impl Clone for PartitionStore {
    fn clone(&self) -> Self {
        let views = ViewShared::new(self.views.current());
        *views.lookup_ns() = self.views.lookup_ns().clone();
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
            intra_edges: self.intra_edges,
            cut_edges: self.cut_edges,
            views,
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
        let mut store = Self {
            parts: partition.as_slice().to_vec(),
            k,
            dims,
            loads: vec![0.0f64; k * dims],
            totals: (0..dims).map(|j| weights.total(j)).collect(),
            part_sizes: vec![0usize; k],
            intra_edges: 0,
            cut_edges: 0,
            views: ViewShared::new(Arc::new(ReadView {
                epoch: ViewEpoch::default(),
                parts: Vec::new(),
                remap: None,
                checksum: view_checksum(ViewEpoch::default(), &[]),
            })),
        };
        for (v, &p) in partition.as_slice().iter().enumerate() {
            store.part_sizes[p as usize] += 1;
            for j in 0..dims {
                store.loads[p as usize * dims + j] += weights.weight(j, v as VertexId);
            }
        }
        // Seed the publication slot with the bootstrap state so handles
        // taken before any ingest already see a real view. Construction is
        // not a swap: `view_swaps` counts publishes after this.
        store.install_view(ViewEpoch::default(), None, false);
        store
    }

    /// The composite relief score the greedy rebalance ranks candidates
    /// by: the vertex's weight in dimension `j` normalized by the live
    /// total of `j`, minus the mean normalized weight across the other
    /// dimensions. Moving a high-key vertex out of a part sheds a lot of
    /// the binding dimension `j` while disturbing the off-dimensions
    /// little — exactly the candidates a multi-constraint rebalance step
    /// wants first (a plain per-dimension weight key ranks heavy
    /// all-around vertices first, which overshoot in the off-dimensions).
    /// With one dimension there is nothing to trade off and the key is
    /// the plain weight. Uses the current totals; a drained dimension
    /// contributes 0.
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

    /// O(1) shard lookup of the live assignment. Returns [`TOMBSTONE`]
    /// for a vertex released by [`Self::release_vertex`]. Not counted:
    /// serving threads look up through [`ReadHandle`]s.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> u32 {
        self.parts[v as usize]
    }

    /// Lookups served by this store's [`ReadHandle`]s. A handle folds its
    /// count in when a refresh moves its pin and when it drops, so the
    /// value is exact for every handle that has re-pinned or dropped
    /// since its last lookup.
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

    /// The sampled lookup latencies (ns) of this store's handles, one
    /// lookup in [`LOOKUP_SAMPLE_EVERY`] per handle, folded in as
    /// [`Self::lookup_count`] is — for mirroring into a metrics registry.
    pub fn lookup_latency(&self) -> Histogram {
        self.views.lookup_ns().clone()
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

    /// Publishes the current assignment as an immutable [`ReadView`] stamped `(id_epoch, batch_seq)`, swapping it into the
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
        let parts = self.parts.clone();
        let checksum = view_checksum(epoch, &parts);
        let view = Arc::new(ReadView {
            epoch,
            parts,
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
            stale: false,
            served: 0,
            folded: 0,
            latency_ns: Histogram::default(),
        }
    }

    /// Appends a newly placed vertex.
    pub fn push_assignment(&mut self, part: u32, weight_row: &[f64]) {
        debug_assert!((part as usize) < self.k);
        debug_assert_eq!(weight_row.len(), self.dims);
        self.parts.push(part);
        self.part_sizes[part as usize] += 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[part as usize * self.dims + j] += w;
            self.totals[j] += w;
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
        self.parts[v as usize] = part;
        self.part_sizes[part as usize] += 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[part as usize * self.dims + j] += w;
            self.totals[j] += w;
        }
    }

    /// Releases a removed vertex: its weight leaves the part loads and the
    /// live totals, and its slot maps to [`TOMBSTONE`] until a purge-time
    /// [`Self::apply_remap`] drops it.
    ///
    /// # Panics
    /// Panics (in debug builds) if `v` was already released.
    pub fn release_vertex(&mut self, v: VertexId, weight_row: &[f64]) {
        debug_assert_eq!(weight_row.len(), self.dims);
        let p = self.parts[v as usize] as usize;
        debug_assert!(p != TOMBSTONE as usize, "vertex {v} already released");
        self.part_sizes[p] -= 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[p * self.dims + j] -= w;
            self.totals[j] -= w;
        }
        self.parts[v as usize] = TOMBSTONE;
    }

    /// Moves `v` to `part`, shifting its weight row between loads.
    pub fn move_vertex(&mut self, v: VertexId, part: u32, weight_row: &[f64]) {
        debug_assert!((part as usize) < self.k);
        let old = self.parts[v as usize] as usize;
        debug_assert!(old != TOMBSTONE as usize, "cannot move released vertex {v}");
        if old == part as usize {
            return;
        }
        self.part_sizes[old] -= 1;
        self.part_sizes[part as usize] += 1;
        for (j, &w) in weight_row.iter().enumerate() {
            self.loads[old * self.dims + j] -= w;
            self.loads[part as usize * self.dims + j] += w;
        }
        self.parts[v as usize] = part;
    }

    /// Accounts a weight drift of `v` in dimension `j` from `old` to
    /// `new`.
    pub fn apply_weight_change(&mut self, v: VertexId, j: usize, old: f64, new: f64) {
        let p = self.parts[v as usize];
        self.loads[p as usize * self.dims + j] += new - old;
        self.totals[j] += new - old;
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
    /// bootstrap initialization, the restore recount, and the oracle
    /// tests check the incremental counters against.
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
    /// and rebuilds loads and totals from the post-purge `weights`.
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
        let mut parts = Vec::with_capacity(live);
        for (old, &new) in old_to_new.iter().enumerate() {
            let part = self.parts[old];
            assert_eq!(
                new != TOMBSTONE,
                part != TOMBSTONE,
                "remap disagrees with release state at old id {old}"
            );
            if new != TOMBSTONE {
                debug_assert_eq!(new as usize, parts.len(), "purge remap not monotone");
                parts.push(part);
            }
        }
        self.parts = parts;
        self.rebuild_loads(weights);
    }

    /// Recomputes loads and totals from scratch (float-drift hygiene
    /// after long runs; also the second phase of [`Self::apply_remap`]).
    /// Released-but-unpurged slots contribute nothing.
    pub fn rebuild_loads(&mut self, weights: &VertexWeights) {
        assert_eq!(weights.num_vertices(), self.parts.len());
        self.loads.iter_mut().for_each(|l| *l = 0.0);
        self.totals.iter_mut().for_each(|t| *t = 0.0);
        self.part_sizes.iter_mut().for_each(|s| *s = 0);
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
    }

    /// Serializes the accounting state — assignments, loads and live
    /// totals, the floats **verbatim** (they are maintained incrementally;
    /// re-deriving them from the weights would diverge bitwise from the
    /// live store). `k` and `d` are the config's and the weights', and the
    /// part sizes and edge counters are exact integers the restore
    /// recounts.
    pub(crate) fn encode_snapshot(&self, w: &mut crate::snapshot::PayloadWriter) {
        w.put_vec_u32(&self.parts);
        w.put_vec_f64(&self.loads);
        w.put_vec_f64(&self.totals);
    }

    /// Rebuilds a store from [`Self::encode_snapshot`] bytes with `k`
    /// parts and the weights' dimensions: serialized accounting verbatim,
    /// then `part_sizes` recounted from the assignments. The edge counters
    /// start at zero; the restoring engine recounts them over the live
    /// edges with [`Self::rebuild_edge_stats`] once it has checked graph
    /// and store against each other. The store must cover the weights'
    /// vertices, which is checked before anything is sized by it.
    pub(crate) fn decode_snapshot(
        r: &mut crate::snapshot::PayloadReader,
        k: usize,
        weights: &VertexWeights,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let corrupt = |why: String| SnapshotError::Corrupt(why);
        let dims = weights.dims();
        let parts = r.get_vec_u32("store.parts")?;
        if parts.len() != weights.num_vertices() {
            return Err(corrupt(format!(
                "store covers {} vertices, weights {}",
                parts.len(),
                weights.num_vertices()
            )));
        }
        // One load per (part, dimension) in the payload bounds `k` before
        // it sizes the part counts.
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
        let mut store = Self {
            parts,
            k,
            dims,
            loads,
            totals,
            part_sizes,
            intra_edges: 0,
            cut_edges: 0,
            views: ViewShared::new(Arc::new(ReadView {
                epoch: ViewEpoch::default(),
                parts: Vec::new(),
                remap: None,
                checksum: view_checksum(ViewEpoch::default(), &[]),
            })),
        };
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
    use crate::engine::RebalanceCandidates;
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
        assert_eq!(top(&s, &w, 0, 0, 10), vec![0]);
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
        s.apply_weight_change(0, 1, old, old + 4.0);
        assert_eq!(s.load(0, 1), 3.0 + 4.0);
        assert_eq!(s.total(1), 6.0 + 4.0);
    }

    #[test]
    fn tombstone_and_slot_reassignment_keep_alignment() {
        let (mut s, mut w) = store();
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
        w.set_weight(1, 1, 5.0);
        s.assign_slot(1, 1, &[1.0, 5.0]);
        assert_eq!(s.shard_of(1), 1);
        assert_eq!(s.part_size(1), 3);
        assert_eq!(s.load(1, 1), 3.0 + 5.0);
        assert_eq!(s.total(0), 4.0);
        // The recycled vertex surfaces as a rebalance candidate again (its
        // degree-dimension weight 5 tops part 1).
        assert_eq!(top(&s, &w, 1, 1, 1), vec![1]);
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
        // Candidates follow: part 1's heaviest in the degree dimension is
        // old vertex 2 (degree 2) at its new id 1.
        assert_eq!(top(&s, &live_w, 1, 1, 1), vec![1]);
    }

    /// A fresh rebalance call's top `limit` candidates of part `p` in
    /// dimension `j`.
    fn top(s: &PartitionStore, w: &VertexWeights, p: u32, j: usize, limit: usize) -> Vec<u32> {
        RebalanceCandidates::new(s.num_parts(), w.dims()).top(s, w, p, j, limit)
    }

    #[test]
    fn rebalance_candidates_pop_highest_relief_first() {
        // Relief in dimension 0 is w0 / 10 − w1 / 36, so part 0 ranks
        // 1, 2, 0.
        let w = VertexWeights::from_vectors(vec![vec![1.0, 4.0, 2.0, 3.0], vec![9.0; 4]]);
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        let mut s = PartitionStore::new(&p, &w);
        let mut queues = RebalanceCandidates::new(2, 2);
        assert_eq!(queues.top(&s, &w, 0, 0, 2), vec![1, 2]);
        assert_eq!(
            queues.top(&s, &w, 0, 0, 10),
            vec![1, 2, 0],
            "limit caps at membership"
        );
        assert_eq!(queues.top(&s, &w, 1, 0, 10), vec![3]);
        // Repeat pops see the same entries (pushed back).
        assert_eq!(queues.top(&s, &w, 0, 0, 1), vec![1]);
        // Within a call, a leaver is dropped and an arrival joins the
        // built heap; a vertex that leaves and comes back ranks once.
        s.move_vertex(1, 1, &[4.0, 9.0]);
        queues.moved(&s, &w, 1, 1);
        s.move_vertex(3, 0, &[3.0, 9.0]);
        queues.moved(&s, &w, 3, 0);
        assert_eq!(queues.top(&s, &w, 0, 0, 10), vec![3, 2, 0]);
        assert_eq!(queues.top(&s, &w, 1, 0, 10), vec![1]);
        s.move_vertex(1, 0, &[4.0, 9.0]);
        queues.moved(&s, &w, 1, 0);
        assert_eq!(queues.top(&s, &w, 0, 0, 10), vec![1, 3, 2, 0]);
        assert!(queues.top(&s, &w, 1, 0, 10).is_empty());
    }

    /// Oracle: the members of `p` by relief key in dimension `j` at the
    /// current totals, ties to the larger id, by rescoring every vertex.
    fn brute_force_top(s: &PartitionStore, w: &VertexWeights, p: u32, j: usize) -> Vec<u32> {
        let key = |v: u32| {
            let row: Vec<f64> = (0..w.dims()).map(|i| w.weight(i, v)).collect();
            s.relief_key(j, &row)
        };
        let mut members: Vec<u32> = (0..s.num_vertices() as u32)
            .filter(|&v| s.shard_of(v) == p)
            .collect();
        members.sort_by(|&a, &b| key(b).total_cmp(&key(a)).then_with(|| b.cmp(&a)));
        members
    }

    #[test]
    fn rebalance_candidates_match_a_brute_force_ranking_after_churn_and_a_purge() {
        // Drifts, arrivals and releases move the totals between rebalance
        // calls; a call's heaps must rank every part as a rescore at the
        // current totals does, also after moves inside the call and after
        // a purge renumbers the ids.
        let mut rng_state = 0x9E37u64;
        let mut rng = move || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng_state >> 33) as usize
        };
        let (n0, dims, k) = (40, 2, 3);
        let mut w = VertexWeights::from_vectors(vec![
            (0..n0).map(|v| 1.0 + (v % 7) as f64).collect(),
            (0..n0).map(|v| 1.0 + (v % 5) as f64).collect(),
        ]);
        let labels: Vec<u32> = (0..n0).map(|v| (v % k) as u32).collect();
        let mut s = PartitionStore::new(&Partition::new(labels, k), &w);
        let row =
            |w: &VertexWeights, v: u32| -> Vec<f64> { (0..dims).map(|j| w.weight(j, v)).collect() };
        let check =
            |s: &PartitionStore, w: &VertexWeights, queues: &mut RebalanceCandidates, at: &str| {
                for p in 0..k as u32 {
                    for j in 0..dims {
                        let expect = brute_force_top(s, w, p, j);
                        let got = queues.top(s, w, p, j, expect.len() + 3);
                        assert_eq!(got, expect, "{at}: part {p} dim {j}");
                    }
                }
            };
        for step in 0..400 {
            let v = (rng() % s.num_vertices()) as u32;
            let live = s.shard_of(v) != TOMBSTONE;
            match rng() % 3 {
                0 if live => {
                    let j = rng() % dims;
                    let old = w.weight(j, v);
                    let new = 0.5 + (rng() % 100) as f64 / 10.0;
                    w.set_weight(j, v, new);
                    s.apply_weight_change(v, j, old, new);
                }
                1 => {
                    let r = vec![1.0 + (rng() % 40) as f64 / 7.0, 1.0 + (rng() % 9) as f64];
                    w.push_vertex(&r);
                    s.push_assignment((rng() % k) as u32, &r);
                }
                2 if live && s.num_assigned() > 20 => s.release_vertex(v, &row(&w, v)),
                _ => {}
            }
            if step % 10 == 0 {
                let mut queues = RebalanceCandidates::new(k, dims);
                check(&s, &w, &mut queues, &format!("step {step}"));
                // Moves inside the call, some of them straight back.
                for _ in 0..6 {
                    let v = (rng() % s.num_vertices()) as u32;
                    let src = s.shard_of(v);
                    if src == TOMBSTONE {
                        continue;
                    }
                    let dst = (src + 1 + (rng() % (k - 1)) as u32) % k as u32;
                    s.move_vertex(v, dst, &row(&w, v));
                    queues.moved(&s, &w, v, dst);
                    if rng() % 2 == 0 {
                        s.move_vertex(v, src, &row(&w, v));
                        queues.moved(&s, &w, v, src);
                    }
                }
                check(&s, &w, &mut queues, &format!("step {step}, after moves"));
            }
        }
        let live: Vec<u32> = (0..s.num_vertices() as u32)
            .filter(|&v| s.shard_of(v) != TOMBSTONE)
            .collect();
        assert!(live.len() < s.num_vertices(), "the stream released nothing");
        let mut remap = vec![TOMBSTONE; s.num_vertices()];
        for (new, &old) in live.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let w = w.restrict(&live);
        s.apply_remap(&remap, &w);
        check(
            &s,
            &w,
            &mut RebalanceCandidates::new(k, dims),
            "after the purge",
        );
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
        // Mutating the store does not leak into the published view.
        s.move_vertex(0, 1, &[1.0, 1.0]);
        assert_eq!(view.shard_of(0), 0);
        assert_eq!(view.get(0), Some(0));
        assert_eq!(s.shard_of(0), 1);
        assert!(view.verify_checksum());
        // get() is forgiving about dead / out-of-range ids.
        assert_eq!(view.get(17), None);
    }

    /// Changing any one vertex's part changes the view checksum, for every
    /// assignment length around the packing's block edges, and a view
    /// whose assignment differs from its checksum in one slot fails
    /// `verify_checksum`.
    #[test]
    fn view_checksum_sees_every_slot() {
        let epoch = ViewEpoch {
            id_epoch: 2,
            batch_seq: 9,
        };
        for n in 0..=20usize {
            let parts: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
            let clean = view_checksum(epoch, &parts);
            let next = ViewEpoch {
                batch_seq: 10,
                ..epoch
            };
            assert_ne!(view_checksum(next, &parts), clean, "n = {n}: stamp");
            for v in 0..n {
                for other in [parts[v] + 1, TOMBSTONE] {
                    let mut changed = parts.clone();
                    changed[v] = other;
                    assert_ne!(view_checksum(epoch, &changed), clean, "n = {n}, v = {v}");
                    let torn = ReadView {
                        epoch,
                        parts: changed,
                        remap: None,
                        checksum: clean,
                    };
                    assert!(!torn.verify_checksum(), "n = {n}, v = {v}");
                }
            }
        }
        // A trailing part 0 is not the missing half of a packed word.
        assert_ne!(
            view_checksum(epoch, &[1, 2, 0]),
            view_checksum(epoch, &[1, 2])
        );
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
        assert_eq!(s.lookup_count(), 0, "a handle folds its count at a re-pin");
        assert!(h.refresh());
        assert_eq!(s.lookup_count(), 2, "the re-pin folded both lookups");
        assert_eq!(s.lookup_latency().count(), 1, "the first lookup is timed");
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
        assert_eq!(s.lookup_count(), 3, "folded at the purge view's re-pin");
        drop(h);
        assert_eq!(s.lookup_count(), 5, "the drop folds the rest");
        assert_eq!(
            s.lookup_latency().count(),
            5u64.div_ceil(LOOKUP_SAMPLE_EVERY),
            "one timed lookup per stride"
        );
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
        let mut h = s.reader();
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
        s.reader().lookup(0);
        let mut c = s.clone();
        assert_eq!(c.view_swap_count(), 1, "counters carry over");
        assert_eq!(c.lookup_count(), 1);
        assert_eq!(
            c.lookup_latency().count(),
            1,
            "so does the latency histogram"
        );
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
