//! The synchronous slot-stepped execution engine.
//!
//! Each slot runs a three-phase pipeline. Every phase has exactly one
//! body, written once over `k` contiguous chunks of its input:
//!
//! 1. **Action collection**, over `k` node ranges. Each chunk calls
//!    [`Protocol::act`] for each of its nodes, in node order, with the
//!    node's own RNG stream, and sorts the actions into its own
//!    channel-bucketed action table: local labels are translated
//!    through a precomputed flat `(node, label) → dense channel` table,
//!    per-channel populations are counted with epoch-stamped first-touch
//!    detection (nothing is ever bulk-cleared), and a counting-sort scatter
//!    produces contiguous per-channel broadcaster and listener buckets (CSR
//!    layout, ascending node order). With one chunk, that table *is* the
//!    slot's table. With more, the chunk tables merge in chunk order, which
//!    reproduces the one-chunk first-touch channel order and ascending-node
//!    bucket order exactly.
//! 2. **Per-channel resolution**, over `k` cost-balanced groups of touched
//!    channels: a listener hears a message iff **exactly one** of its
//!    neighbors broadcast on the listened channel. Channels are independent
//!    within a slot, so each group resolves with its own scratch into a
//!    private buffer that is scattered after the join; a single group
//!    writes the outcomes in place.
//! 3. **Feedback delivery**, over `k` node ranges: a counting sweep folds
//!    each chunk's packed outcomes into a counter delta, then each node's
//!    outcome is decoded and handed to [`Protocol::feedback`], with heard
//!    messages passed by reference out of the slot's action buffer (the
//!    engine never clones a payload). The deltas merge in chunk order to
//!    exactly the one-chunk totals.
//!
//! `k` follows from the input alone, never from a clock: a
//! [`Resolver::ParallelSharded`] engine on a network of at least 2048 nodes
//! uses `k = threads` in every phase, chunk 0 on the calling thread and
//! chunks `1..k` on scoped threads ([`std::thread::scope`]) that the phase
//! spawns and joins. Every other engine uses `k = 1`, which runs inline: no
//! thread, no merge, no copy.
//!
//! This is precisely the communication model of paper §3 (no collision
//! detection, collision ≡ silence, broadcasters hear only themselves).
//!
//! When primary-user spectrum dynamics are installed
//! ([`Engine::set_spectrum`], see [`crate::spectrum`]), a **phase 0**
//! precedes collection: the PU process is advanced once into the new slot,
//! producing a busy mask over the dense channel universe. Phase 2 then
//! treats a busy channel as occupied — its broadcasts are swallowed and
//! every listener on it is resolved to the collision outcome — identically
//! under every resolver and thread count, because the mask is computed
//! sequentially from per-(slot, channel)-keyed streams before any
//! resolution begins.
//!
//! # Slot resolution strategies
//!
//! Resolution cost is where simulation time goes for every Θ(n·polylog n)
//! primitive in this repo, so [`Resolver::Auto`] adapts per channel and per
//! slot between two strategies:
//!
//! * **Broadcaster-centric sweep** — walk each broadcaster's CSR neighbor
//!   slice once, accumulating per-listener hit counts in epoch-stamped
//!   scratch arrays (no per-slot `O(n)` clears). Cost `Σ_b deg(b)`; wins on
//!   dense channels with many listeners (epidemic dissemination workloads).
//! * **Listener-centric probe** — per listener, the cheapest of: scanning
//!   the channel's broadcaster list with `O(1)` adjacency-bit tests,
//!   walking its own CSR slice against epoch-stamped broadcaster marks, or
//!   intersecting its adjacency row with the channel's broadcaster bit set
//!   word-by-word ([`BitSet::intersect_unique`]) — each with early exit at
//!   the second hit (a collision is a collision).
//!
//! The choice compares `Σ_b deg(b)` (weighted for its scattered writes)
//! against the summed per-listener probe bound `Σ_l min(B, deg(l), n/64)`
//! and picks the cheaper side for each channel independently;
//! [`Resolver::ParallelSharded`] applies the same choice inside each group.
//!
//! All resolvers, at any thread count, produce bit-identical counters,
//! feedbacks, and outputs; `Resolver::Naive` keeps the original quadratic
//! reference implementation for differential testing and benchmarking.
//! Resolution itself is deterministic (the model has no channel noise),
//! which is what makes sharding observationally invisible; any *future*
//! randomized channel effect must draw from the per-(slot, channel)
//! streams of [`Engine::channel_rng`], which are keyed by what is being
//! resolved rather than by visit order, preserving that invariant.
//!
//! # Internal renumbering and memory layout
//!
//! At construction the engine relabels nodes internally ([`Renumbering`],
//! default degree-sorted) and copies the network graph into a private
//! internal-id CSR with dense bit rows for hub nodes. Phase 2 runs entirely
//! on internal ids — hot rows pack into adjacent cache lines, which is what
//! keeps neighbor probes local at n = 10⁶ — and outcomes are written back
//! through the inverse permutation. Protocols, per-node RNG streams, action
//! collection, and feedback delivery stay keyed by external [`NodeId`]s, so
//! renumbering is observationally invisible (proven bit-identically by the
//! permutation differential in `tests/`). Per-node outcome state is a
//! packed `u32` array rather than an enum array, and when `c` is small the
//! `Auto` strategy fuses the listener pass across a group's channels: one
//! marking sweep tags every broadcaster with its channel, and each listener
//! walk checks tags instead of rebuilding a per-channel broadcaster bit set.

use crate::bitset::{BitSet, Intersection};
use crate::ids::{GlobalChannel, LocalChannel, NodeId, Slot};
use crate::network::Network;
use crate::protocol::{Action, Feedback, NodeCtx, Protocol, SlotCtx};
use crate::rng::{channel_slot_rng, stream_rng};
use crate::spectrum::{SpectrumDynamics, SpectrumState};
use rand::rngs::SmallRng;

/// Node count at or above which a [`Resolver::ParallelSharded`] engine
/// splits every phase across threads. Each split phase spawns and joins
/// its threads, so splitting pays only on large slots: on a 2-vCPU host
/// (the engine bench's `Chatter`, sparse Erdős–Rényi with average degree
/// 8, c = 3, fastest of 7 runs per round over 8 rounds), `sharded(2)`
/// took 1.75–2.17× the slot time of `Auto` at n = 2048, 1.07–1.41× at
/// 5000, 0.75–0.80× at 20 000 and 0.61–0.69× at 10⁵. Outside tests only
/// 10⁵- and 10⁶-node runs build a split engine; the value stays at 2048
/// so that the 2053-node differential legs keep exercising the split
/// path.
const POOL_MIN_NODES: usize = 2048;

/// Channels-per-node bound at or below which the `Auto` strategy may fuse
/// the listener pass across a group's touched channels; see
/// [`mark_broadcast_channels`].
const FUSED_MAX_C: usize = 8;

/// Average per-channel bucket population (broadcasters + listeners) at or
/// below which the fused pass actually engages. Fusion trades the
/// per-channel broadcaster-set build/teardown (a fixed cost per touched
/// channel) for heavier per-probe tag loads on every listener walk
/// (`mark_epoch` + `hit_src`, 12 bytes, vs one bit in a channel-local,
/// L1-resident set). That trade only wins when channels are numerous and
/// nearly empty — with well-populated buckets the walk term dominates and
/// fusion measured ~40% *slower* on the `small_slot_200` and
/// `dense_broadcast_5000` bench shapes, so the gate is deliberately tight.
const FUSED_MAX_AVG_BUCKET: usize = 16;

/// Node count at or below which [`IntGraph`] keeps a dense adjacency row
/// for *every* node rather than only above the degree threshold. The full
/// bit matrix costs n²/8 bytes — ≤ 2 MiB at this bound — and keeps every
/// pairwise adjacency test an O(1) probe, which the listener scan path
/// (and the `Naive` reference resolver) lean on heavily at small n.
const DENSE_ALL_MAX_N: usize = 4096;

/// Aggregate event counters for a run, useful for energy/traffic accounting
/// and for sanity-checking experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Slots executed.
    pub slots: u64,
    /// Broadcast actions.
    pub broadcasts: u64,
    /// Listen actions.
    pub listens: u64,
    /// Sleep actions.
    pub sleeps: u64,
    /// Successful deliveries (listener heard exactly one neighbor).
    pub deliveries: u64,
    /// Listener-slots lost to collision (≥ 2 broadcasting neighbors), or
    /// silenced by primary-user activity on the tuned channel — the two
    /// are indistinguishable to the listener, so they share this counter
    /// (the PU share is broken out in [`Counters::pu_blocked_listens`]).
    pub collisions: u64,
    /// Listener-slots in which no neighbor broadcast on the channel.
    pub idle_listens: u64,
    /// Listener-slots silenced *specifically* by primary-user activity
    /// (always ≤ [`Counters::collisions`]). Zero unless spectrum dynamics
    /// are installed ([`Engine::set_spectrum`]).
    pub pu_blocked_listens: u64,
    /// Broadcast actions transmitted into a PU-busy channel and lost (the
    /// broadcaster cannot tell; these are also counted in
    /// [`Counters::broadcasts`]).
    pub pu_blocked_broadcasts: u64,
    /// (Touched channel, slot) pairs observed PU-busy — channel-slots in
    /// which at least one node tuned to a busy channel.
    pub pu_busy_channel_slots: u64,
}

impl Counters {
    /// Folds one phase-3 counting-sweep delta in (see [`count_outcomes`]).
    fn apply(&mut self, d: DeliverDelta) {
        self.idle_listens += d.idle_listens;
        self.collisions += d.collisions;
        self.pu_blocked_listens += d.pu_blocked_listens;
        self.deliveries += d.deliveries;
    }
}

/// Outcome of [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Slots actually executed.
    pub slots_run: u64,
    /// First slot (1-based count of executed slots) at which the progress
    /// probe returned `true`, if it ever did.
    pub completed_at: Option<u64>,
    /// `true` if every protocol reported [`Protocol::is_complete`] when the
    /// run stopped.
    pub all_protocols_done: bool,
}

/// How the engine resolves deliveries on each channel, and on how many
/// threads it runs a slot. All variants are observationally identical;
/// they differ only in per-slot cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Resolver {
    /// Per channel, pick the cheaper of the broadcaster-centric sweep and
    /// the listener-centric probe by comparing (weighted) `Σ_b deg(b)`
    /// with `Σ_l min(B, deg(l), n/64)`. The right default.
    #[default]
    Auto,
    /// The original reference implementation: every listener linearly scans
    /// every broadcaster on its channel with a per-pair adjacency test.
    /// Kept for differential testing and as the benchmark baseline.
    Naive,
    /// [`Resolver::Auto`] on `threads` threads. On a network of at least
    /// 2048 nodes, every phase of every slot splits into `threads` chunks —
    /// node ranges for collection and delivery, cost-balanced groups of
    /// touched channels for resolution — with chunk 0 on the calling thread
    /// and the rest on scoped threads the phase spawns and joins. Below
    /// 2048 nodes, or with `threads ≤ 1`, the engine runs exactly the
    /// `Auto` path: spawning threads for a small slot costs more than
    /// splitting it saves. Bit-identical to `Auto` at any thread count.
    ParallelSharded {
        /// Threads per slot, the calling thread included.
        threads: usize,
    },
}

impl Resolver {
    /// Convenience constructor for [`Resolver::ParallelSharded`].
    pub fn sharded(threads: usize) -> Resolver {
        Resolver::ParallelSharded { threads }
    }
}

/// The execution engine. Owns one protocol instance and one RNG stream per
/// node; borrows the immutable [`Network`].
///
/// # Examples
/// ```
/// use crn_sim::*;
///
/// // Two nodes, one shared channel; node 0 beacons, node 1 listens.
/// struct Side { tx: bool, heard: Option<u32> }
/// impl Protocol for Side {
///     type Message = u32;
///     type Output = Option<u32>;
///     fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u32> {
///         if self.tx {
///             Action::Broadcast { channel: LocalChannel(0), message: 7 }
///         } else {
///             Action::Listen { channel: LocalChannel(0) }
///         }
///     }
///     fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
///         if let Feedback::Heard(m) = fb { self.heard = Some(*m); }
///     }
///     fn is_complete(&self) -> bool { self.heard.is_some() || self.tx }
///     fn into_output(self) -> Option<u32> { self.heard }
/// }
///
/// let mut b = Network::builder(2);
/// b.set_channels(NodeId(0), vec![GlobalChannel(0)]);
/// b.set_channels(NodeId(1), vec![GlobalChannel(0)]);
/// b.add_edge(NodeId(0), NodeId(1));
/// let net = b.build()?;
/// let mut eng = Engine::new(&net, 1, |ctx| Side { tx: ctx.id == NodeId(0), heard: None });
/// eng.run(10, None);
/// assert_eq!(eng.into_outputs()[1], Some(7));
/// # Ok::<(), crn_sim::NetworkError>(())
/// ```
pub struct Engine<'net, P: Protocol> {
    net: &'net Network,
    protocols: Vec<P>,
    rngs: Vec<SmallRng>,
    slot: u64,
    counters: Counters,
    resolver: Resolver,
    /// Master seed, retained to derive per-(slot, channel) streams.
    seed: u64,
    /// Channels per node.
    c: usize,
    /// Flat `(node, local label) → dense channel` translation table (`n·c`
    /// entries) — one lookup in the hot loop instead of a nested-`Vec`
    /// chase plus a raw-id remap.
    xlate: Vec<u32>,
    /// Dense channel → raw global id (the inverse of the remap behind
    /// `xlate`), kept for consumers that must key by *global* channel —
    /// the spectrum layer's per-(slot, channel) RNG streams.
    dense_to_raw: Vec<u32>,
    /// Primary-user spectrum dynamics, if installed ([`Engine::set_spectrum`]).
    /// `None` ≡ [`SpectrumDynamics::Static`]: every channel idle forever.
    spectrum: Option<SpectrumState>,
    /// Per-node packed plan for the current slot: the node's index into its
    /// collection chunk's touched channels, with [`BCAST_BIT`] for
    /// broadcasters, or [`SLEEPING`].
    node_plan: Vec<u32>,
    /// Per-node packed resolution results for the current slot (external
    /// node order; see [`OC_MIN_SENTINEL`]).
    outcomes: Vec<u32>,
    /// The active renumbering (see [`Renumbering`]).
    renumbering: Renumbering,
    /// `ext2int[external] = internal` under the active renumbering.
    ext2int: Vec<u32>,
    /// `int2ext[internal] = external` (inverse of `ext2int`).
    int2ext: Vec<u32>,
    /// Internal-id adjacency view phase 2 resolves against.
    ig: IntGraph,
    /// Per-chunk phase-1 state; `[0]` runs on the calling thread and, once
    /// collection ends, its action buffer holds the whole slot's actions.
    /// `[1..]` are allocated on the first multi-chunk slot.
    collect: Vec<CollectShard<P::Message>>,
    /// The merged channel table of a multi-chunk collection. A one-chunk
    /// collection leaves the slot's table in `collect[0]` instead.
    table: ChannelTable,
    /// Per-group resolution state, long-lived across slots: `[0]` runs on
    /// the calling thread, `[1..]` on scoped threads (allocated on the
    /// first multi-group slot).
    shards: Vec<ShardSlot>,
    /// Per-channel cost proxies and group bounds for the resolution
    /// partition, persisted across slots to avoid reallocation.
    shard_weights: Vec<u64>,
    shard_bounds: Vec<(usize, usize)>,
    /// Per-chunk phase-3 counter deltas, merged into [`Counters`] in chunk
    /// order after the join.
    deliver: Vec<DeliverDelta>,
    /// Cumulative per-phase wall-clock totals ([`Engine::set_phase_timing`]).
    /// `None` (the default) records nothing; `Some` pays ~5 monotonic clock
    /// reads per slot and is observationally invisible (see
    /// [`PhaseTimings`]).
    phase_timings: Option<PhaseTimings>,
}

/// A progress probe: evaluated every `interval` slots with the slot count
/// and the engine; returning `true` stops the run (ground-truth completion).
pub type Probe<'a, 'b, 'net, P> = (u64, &'a mut (dyn FnMut(u64, &Engine<'net, P>) -> bool + 'b));

/// Cumulative per-phase wall-clock totals for [`Engine::step`]. Each phase
/// is split by how many chunks it ran in: one (`*_sequential_*`), or two or
/// more (`*_pooled_*` for collection and delivery, `*_sharded_*` for
/// resolution). Off by default; enabled with [`Engine::set_phase_timing`]
/// and read with [`Engine::phase_timings`].
///
/// **Observationally invisible by construction:** the timers only *read*
/// the monotonic clock and accumulate into this struct — no engine control
/// flow, counter, RNG stream, or protocol callback depends on a measured
/// value, and they are the engine's only clock reads. The guarantee
/// "timers on vs off is bit-identical" is enforced by the lockstep
/// differential in `tests/tests/metrics_equiv.rs` across all resolvers and
/// thread counts, below and above the split threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Slots measured (== slots stepped while timing was enabled).
    pub slots: u64,
    /// Phase 0: spectrum/PU process advance (zero when no dynamics are
    /// installed — the phase is skipped entirely).
    pub spectrum_ns: u64,
    /// Phase 1 in one chunk.
    pub collect_sequential_ns: u64,
    /// Phase 1 in two or more chunks.
    pub collect_pooled_ns: u64,
    /// Slots whose phase 1 ran in two or more chunks.
    pub collect_pooled_slots: u64,
    /// Phase 2 in one channel group.
    pub resolve_sequential_ns: u64,
    /// Phase 2 in two or more channel groups.
    pub resolve_sharded_ns: u64,
    /// Slots whose phase 2 ran in two or more channel groups.
    pub resolve_sharded_slots: u64,
    /// Phase 3 in one chunk.
    pub deliver_sequential_ns: u64,
    /// Phase 3 in two or more chunks.
    pub deliver_pooled_ns: u64,
    /// Slots whose phase 3 ran in two or more chunks.
    pub deliver_pooled_slots: u64,
}

impl PhaseTimings {
    /// Phase-1 total across both splits.
    pub fn collect_ns(&self) -> u64 {
        self.collect_sequential_ns + self.collect_pooled_ns
    }

    /// Phase-2 total across both splits.
    pub fn resolve_ns(&self) -> u64 {
        self.resolve_sequential_ns + self.resolve_sharded_ns
    }

    /// Phase-3 total across both splits.
    pub fn deliver_ns(&self) -> u64 {
        self.deliver_sequential_ns + self.deliver_pooled_ns
    }

    /// Sum over all four phases.
    pub fn total_ns(&self) -> u64 {
        self.spectrum_ns + self.collect_ns() + self.resolve_ns() + self.deliver_ns()
    }
}

impl PhaseTimings {
    /// Accumulates one slot. Each phase arrives as `(chunks, ns)` and goes
    /// to its one-chunk or its multi-chunk total.
    fn record(
        &mut self,
        spectrum_ns: u64,
        collect: (usize, u64),
        resolve: (usize, u64),
        deliver: (usize, u64),
    ) {
        fn add((chunks, ns): (usize, u64), one: &mut u64, many: &mut u64, many_slots: &mut u64) {
            if chunks > 1 {
                *many += ns;
                *many_slots += 1;
            } else {
                *one += ns;
            }
        }
        self.slots += 1;
        self.spectrum_ns += spectrum_ns;
        add(
            collect,
            &mut self.collect_sequential_ns,
            &mut self.collect_pooled_ns,
            &mut self.collect_pooled_slots,
        );
        add(
            resolve,
            &mut self.resolve_sequential_ns,
            &mut self.resolve_sharded_ns,
            &mut self.resolve_sharded_slots,
        );
        add(
            deliver,
            &mut self.deliver_sequential_ns,
            &mut self.deliver_pooled_ns,
            &mut self.deliver_pooled_slots,
        );
    }
}

/// Reads the elapsed time since `*mark` and re-arms the mark at the same
/// clock read, so consecutive laps share boundaries (one read per phase
/// boundary, not two). `0` when timing is off (`mark` is `None`).
fn lap(mark: &mut Option<std::time::Instant>) -> u64 {
    match mark {
        Some(prev) => {
            let now = std::time::Instant::now();
            let ns = now.duration_since(*prev).as_nanos() as u64;
            *mark = Some(now);
            ns
        }
        None => 0,
    }
}

/// Per-outcome counter updates accumulated by one phase-3 delivery chunk
/// (see [`count_outcomes`]). Merging the chunks' deltas in chunk order
/// reproduces the one-chunk totals exactly: each counter is a sum of
/// per-node contributions, the chunks partition the node range, and `u64`
/// addition is associative — no ordering effect can survive the merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DeliverDelta {
    idle_listens: u64,
    collisions: u64,
    pu_blocked_listens: u64,
    deliveries: u64,
}

/// The phase-3 counting sweep: fold a packed-outcome range into per-outcome
/// counter deltas in one branch-predictable pass (comparison masks, no
/// data-dependent branches — the scalar loop's six-way match ran once per
/// node interleaved with the virtual feedback call). `OC_PU_BUSY` counts as
/// both a collision and a PU-blocked listen, exactly as the scalar arms did.
fn count_outcomes(outcomes: &[u32]) -> DeliverDelta {
    let mut d = DeliverDelta::default();
    for &oc in outcomes {
        d.idle_listens += u64::from(oc == OC_IDLE);
        d.collisions += u64::from(oc == OC_COLLISION) + u64::from(oc == OC_PU_BUSY);
        d.pu_blocked_listens += u64::from(oc == OC_PU_BUSY);
        d.deliveries += u64::from(oc < OC_MIN_SENTINEL);
    }
    d
}

/// `node_plan` bit marking a broadcaster.
const BCAST_BIT: u32 = 1 << 31;
/// `node_plan` sentinel for a sleeping node.
const SLEEPING: u32 = u32::MAX;

// Per-node resolution results are packed into one `u32` each — the
// struct-of-arrays layout the million-node path needs (half the bytes and
// no discriminant branch in the scatter loops). Values below
// `OC_MIN_SENTINEL` mean `Heard(broadcaster)`: an *internal* id while a
// channel is being resolved, converted to the external id at the final
// write into `Engine::outcomes` so the delivery phase can borrow the
// message straight out of the action buffer (`feedback_of`). A node count
// must stay strictly below `OC_MIN_SENTINEL` so a broadcaster id can never
// alias a sentinel (asserted at construction).

/// The node broadcast this slot.
const OC_SENT: u32 = u32::MAX;
/// The node slept this slot.
const OC_SLEPT: u32 = u32::MAX - 1;
/// The node listened and no neighbor broadcast on its channel.
const OC_IDLE: u32 = u32::MAX - 2;
/// The node listened and ≥ 2 neighbors broadcast on its channel.
const OC_COLLISION: u32 = u32::MAX - 3;
/// The node listened on a channel occupied by primary-user traffic.
const OC_PU_BUSY: u32 = u32::MAX - 4;
/// Smallest sentinel value: every outcome below it is a broadcaster id,
/// i.e. an actual delivery.
const OC_MIN_SENTINEL: u32 = OC_PU_BUSY;

/// Decodes a node's packed outcome into the [`Feedback`] it receives. A
/// delivery borrows the broadcaster's message in place out of the slot's
/// full action buffer (broadcaster ids are external, so they index it
/// from any chunk).
#[inline]
fn feedback_of<M>(oc: u32, actions: &[Action<M>]) -> Feedback<'_, M> {
    match oc {
        OC_SENT => Feedback::Sent,
        OC_SLEPT => Feedback::Slept,
        OC_IDLE | OC_COLLISION | OC_PU_BUSY => Feedback::Silence,
        b => match &actions[b as usize] {
            Action::Broadcast { message, .. } => Feedback::Heard(message),
            _ => unreachable!("resolved broadcaster must be broadcasting"),
        },
    }
}

/// Converts a resolved outcome to external ids: a `Heard` source goes
/// through the inverse permutation, sentinels pass unchanged.
#[inline]
fn external(int2ext: &[u32], oc: u32) -> u32 {
    if oc < OC_MIN_SENTINEL {
        int2ext[oc as usize]
    } else {
        oc
    }
}

/// Heap bytes held by a vector's allocation.
fn heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// How the engine relabels nodes internally for phase-2 cache locality.
///
/// Renumbering is *observationally invisible*: protocols, per-node RNG
/// streams, feedback order, counters, and outputs are all keyed by the
/// external [`NodeId`]s; only the engine-private CSR copy that resolution
/// walks is relabeled, and outcomes are written back through the inverse
/// permutation. The permutation differential in `tests/` proves
/// bit-identity against [`Renumbering::Identity`] under every resolver and
/// thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Renumbering {
    /// Hubs first: internal ids in descending external degree, ties by
    /// ascending external id. The rows every CSR probe keeps landing on
    /// pack into the first cache lines of the internal adjacency arrays.
    /// The default.
    #[default]
    DegreeSorted,
    /// Internal ids equal external ids (the pre-renumbering layout).
    Identity,
    /// Explicit permutation, `perm[external] = internal`. Must be a
    /// permutation of `0..n` (checked at construction); this is how the
    /// permutation-differential tests drive arbitrary relabelings.
    Custom(Vec<u32>),
}

/// Builds `(ext2int, int2ext)` for a renumbering.
///
/// # Panics
/// Panics if a [`Renumbering::Custom`] vector is not a permutation of
/// `0..n`.
fn renumber_perm(net: &Network, r: &Renumbering) -> (Vec<u32>, Vec<u32>) {
    let n = net.len();
    let g = net.graph();
    let int2ext: Vec<u32> = match r {
        Renumbering::Identity => (0..n as u32).collect(),
        Renumbering::DegreeSorted => {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                g.degree(b as usize).cmp(&g.degree(a as usize)).then(a.cmp(&b))
            });
            order
        }
        Renumbering::Custom(perm) => {
            assert_eq!(perm.len(), n, "renumbering permutation must cover all {n} nodes");
            let mut int2ext = vec![u32::MAX; n];
            for (ext, &int) in perm.iter().enumerate() {
                assert!((int as usize) < n, "renumbering target {int} out of range");
                let slot = &mut int2ext[int as usize];
                assert_eq!(*slot, u32::MAX, "renumbering maps two nodes to internal id {int}");
                *slot = ext as u32;
            }
            int2ext
        }
    };
    let mut ext2int = vec![0u32; n];
    for (int, &ext) in int2ext.iter().enumerate() {
        ext2int[ext as usize] = int as u32;
    }
    (ext2int, int2ext)
}

/// The engine-private adjacency view in internal-id space: a CSR copy of
/// the network graph relabeled by the active [`Renumbering`] (neighbor
/// slices sorted ascending by internal id), plus dense bit rows for nodes
/// whose degree crosses the same `max(64, n/64)` threshold the network's
/// index uses — `O(n + m)` memory overall. All of phase 2 runs on internal
/// ids against this structure; external ids reappear only when outcomes
/// are written back.
struct IntGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Per internal node: index into `rows`, or `u32::MAX`.
    row_of: Vec<u32>,
    rows: Vec<BitSet>,
}

impl IntGraph {
    fn build(net: &Network, ext2int: &[u32], int2ext: &[u32]) -> IntGraph {
        let n = net.len();
        let g = net.graph();
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[ext2int[v] as usize + 1] = g.degree(v) as u32;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Transpose-style fill: visiting internal ids in ascending order and
        // appending each to all of its neighbors' rows (adjacency is
        // symmetric) leaves every row sorted — O(n + m), no per-row sort,
        // which keeps engine construction cheap under arbitrary
        // renumberings (a comparison sort here tripled construction time at
        // n = 5000).
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        for ti in 0..n as u32 {
            for &w in g.neighbors(int2ext[ti as usize] as usize) {
                let row = ext2int[w as usize] as usize;
                targets[cursor[row] as usize] = ti;
                cursor[row] += 1;
            }
        }
        // Below `DENSE_ALL_MAX_N` the full bit matrix costs at most n²/8
        // ≤ 2 MiB, so every node gets a row and every adjacency test is an
        // O(1) probe — the degree threshold only starts to matter at scales
        // where the quadratic matrix would dominate memory.
        let threshold = if n <= DENSE_ALL_MAX_N { 0 } else { ((n / 64).max(64)) as u32 };
        let mut row_of = vec![u32::MAX; n];
        let mut rows = Vec::new();
        for v in 0..n {
            if offsets[v + 1] - offsets[v] >= threshold {
                let mut bits = BitSet::new(n);
                for &w in &targets[offsets[v] as usize..offsets[v + 1] as usize] {
                    bits.insert(w as usize);
                }
                row_of[v] = u32::try_from(rows.len()).expect("row count fits u32");
                rows.push(bits);
            }
        }
        IntGraph { offsets, targets, row_of, rows }
    }

    #[inline]
    fn neighbor_slice(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    #[inline]
    fn row(&self, v: u32) -> Option<&BitSet> {
        match self.row_of[v as usize] {
            u32::MAX => None,
            r => Some(&self.rows[r as usize]),
        }
    }

    /// `true` if internal nodes `u` and `v` are adjacent: dense-row probe
    /// when either endpoint has one, else a binary search of the shorter
    /// CSR slice.
    #[inline]
    fn are(&self, u: u32, v: u32) -> bool {
        if let Some(row) = self.row(u) {
            return row.contains(v as usize);
        }
        if let Some(row) = self.row(v) {
            return row.contains(u as usize);
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbor_slice(a).binary_search(&b).is_ok()
    }

    /// Heap bytes of the internal view — reported next to the network
    /// footprint in the huge-sparse bench row.
    fn memory_bytes(&self) -> usize {
        heap_bytes(&self.offsets)
            + heap_bytes(&self.targets)
            + heap_bytes(&self.row_of)
            + self.rows.iter().map(|b| b.words().len() * 8).sum::<usize>()
    }
}

/// Epoch-stamped per-thread resolution scratch. Sized to the node count;
/// nothing in it is ever bulk-cleared (a stamp comparison makes stale cells
/// invisible), so groups pay O(work) rather than O(n) per channel.
struct Scratch {
    /// Epoch stamps for `hit_count`/`hit_src` (broadcaster-centric) or for
    /// broadcaster marks (fused listener pass).
    mark_epoch: Vec<u64>,
    hit_count: Vec<u32>,
    hit_src: Vec<u32>,
    epoch: u64,
    /// Scratch bit set of the broadcasters on the channel being resolved
    /// (built and un-built per channel, O(B) each way).
    bcast_bits: BitSet,
}

/// One resolution group's long-lived state: the epoch-stamped [`Scratch`]
/// plus the outcome buffer a multi-group slot resolves into (group-local
/// listener-position order, internal `Heard` ids). Each thread of a split
/// phase mutates only its own slot.
struct ShardSlot {
    scratch: Scratch,
    out: Vec<u32>,
}

impl ShardSlot {
    fn new(n: usize) -> ShardSlot {
        let scratch = Scratch {
            mark_epoch: vec![0; n],
            hit_count: vec![0; n],
            hit_src: vec![0; n],
            epoch: 0,
            bcast_bits: BitSet::new(n),
        };
        ShardSlot { scratch, out: Vec::new() }
    }

    fn memory_bytes(&self) -> usize {
        let s = &self.scratch;
        heap_bytes(&s.mark_epoch)
            + heap_bytes(&s.hit_count)
            + heap_bytes(&s.hit_src)
            + s.bcast_bits.words().len() * 8
            + heap_bytes(&self.out)
    }
}

/// A channel-bucketed action table: the touched dense channels in
/// first-touch order, their broadcaster and listener populations, CSR
/// offsets, and the buckets themselves (internal ids, ascending external
/// order within each channel). Each collection chunk builds one over its
/// node range, and a multi-chunk slot merges them into the engine's.
/// First-touch detection stamps a universe-sized table with a private,
/// monotonic epoch, so nothing is ever bulk-cleared.
struct ChannelTable {
    /// Dense channels touched under the current epoch, in first-touch order.
    touched: Vec<u32>,
    /// Per dense channel: stamp marking it touched under `epoch`.
    ch_epoch: Vec<u64>,
    /// Per dense channel: its index into `touched` (valid iff stamped).
    ch_slot: Vec<u32>,
    epoch: u64,
    /// Per touched channel: population counts, then scatter cursors.
    b_cnt: Vec<u32>,
    l_cnt: Vec<u32>,
    /// Per touched channel: CSR offsets into the buckets (`touched + 1`
    /// entries once sealed).
    b_off: Vec<u32>,
    l_off: Vec<u32>,
    /// Broadcasters and listeners grouped by touched channel.
    b_nodes: Vec<u32>,
    l_nodes: Vec<u32>,
}

impl ChannelTable {
    fn new(universe: usize) -> ChannelTable {
        ChannelTable {
            touched: Vec::new(),
            ch_epoch: vec![0; universe],
            ch_slot: vec![0; universe],
            epoch: 0,
            b_cnt: Vec::new(),
            l_cnt: Vec::new(),
            b_off: vec![0],
            l_off: vec![0],
            b_nodes: Vec::new(),
            l_nodes: Vec::new(),
        }
    }

    /// Starts a new table under a fresh epoch: no channel is touched.
    fn begin(&mut self) {
        self.touched.clear();
        self.b_cnt.clear();
        self.l_cnt.clear();
        self.epoch += 1;
    }

    /// Registers dense channel `ch` as touched (idempotent per epoch) and
    /// returns its index into `touched`.
    #[inline]
    fn touch(&mut self, ch: usize) -> usize {
        if self.ch_epoch[ch] == self.epoch {
            return self.ch_slot[ch] as usize;
        }
        self.ch_epoch[ch] = self.epoch;
        let ti = self.touched.len() as u32;
        debug_assert!(ti < BCAST_BIT, "touched-channel index overflows the role bit");
        self.ch_slot[ch] = ti;
        self.touched.push(ch as u32);
        self.b_cnt.push(0);
        self.l_cnt.push(0);
        ti as usize
    }

    /// Prefix-sums the per-channel counts into CSR offsets, sizes the
    /// buckets, and turns the counts into scatter cursors (each channel's
    /// bucket start), ready for the nodes to be placed.
    fn seal(&mut self) {
        self.b_off.clear();
        self.l_off.clear();
        self.b_off.push(0);
        self.l_off.push(0);
        let (mut tb, mut tl) = (0u32, 0u32);
        for ti in 0..self.touched.len() {
            tb += self.b_cnt[ti];
            tl += self.l_cnt[ti];
            self.b_off.push(tb);
            self.l_off.push(tl);
        }
        self.b_nodes.resize(tb as usize, 0);
        self.l_nodes.resize(tl as usize, 0);
        let t = self.touched.len();
        self.b_cnt.copy_from_slice(&self.b_off[..t]);
        self.l_cnt.copy_from_slice(&self.l_off[..t]);
    }

    /// Rebuilds this table from `parts` in order: each channel's first
    /// occurrence across the parts fixes its place, counts are summed, and
    /// each part's bucket segments are copied in part order. For parts
    /// built over ascending node ranges, that is exactly the table one part
    /// over the whole range would have built.
    fn merge<'a>(&mut self, parts: impl Iterator<Item = &'a ChannelTable> + Clone) {
        self.begin();
        for part in parts.clone() {
            for (pti, &ch) in part.touched.iter().enumerate() {
                let ti = self.touch(ch as usize);
                self.b_cnt[ti] += part.bcasters(pti).len() as u32;
                self.l_cnt[ti] += part.listeners(pti).len() as u32;
            }
        }
        self.seal();
        for part in parts {
            for (pti, &ch) in part.touched.iter().enumerate() {
                let ti = self.ch_slot[ch as usize] as usize;
                let (bs, ls) = (part.bcasters(pti), part.listeners(pti));
                let at = self.b_cnt[ti] as usize;
                self.b_nodes[at..at + bs.len()].copy_from_slice(bs);
                self.b_cnt[ti] += bs.len() as u32;
                let at = self.l_cnt[ti] as usize;
                self.l_nodes[at..at + ls.len()].copy_from_slice(ls);
                self.l_cnt[ti] += ls.len() as u32;
            }
        }
    }

    /// Touched channel `ti`'s broadcaster bucket.
    #[inline]
    fn bcasters(&self, ti: usize) -> &[u32] {
        &self.b_nodes[self.b_off[ti] as usize..self.b_off[ti + 1] as usize]
    }

    /// Touched channel `ti`'s listener bucket.
    #[inline]
    fn listeners(&self, ti: usize) -> &[u32] {
        &self.l_nodes[self.l_off[ti] as usize..self.l_off[ti + 1] as usize]
    }

    fn memory_bytes(&self) -> usize {
        heap_bytes(&self.touched)
            + heap_bytes(&self.ch_epoch)
            + heap_bytes(&self.ch_slot)
            + heap_bytes(&self.b_cnt)
            + heap_bytes(&self.l_cnt)
            + heap_bytes(&self.b_off)
            + heap_bytes(&self.l_off)
            + heap_bytes(&self.b_nodes)
            + heap_bytes(&self.l_nodes)
    }
}

/// One collection chunk's long-lived state: its actions in node order, its
/// channel table, and its action tallies.
struct CollectShard<M> {
    out: Vec<Action<M>>,
    table: ChannelTable,
    broadcasts: u64,
    listens: u64,
    sleeps: u64,
}

impl<M> CollectShard<M> {
    fn new(universe: usize) -> CollectShard<M> {
        CollectShard {
            out: Vec::new(),
            table: ChannelTable::new(universe),
            broadcasts: 0,
            listens: 0,
            sleeps: 0,
        }
    }

    /// Heap bytes of the chunk's buffers. `out` counts by capacity ×
    /// element size: an `Action` payload may own heap of its own, which is
    /// the protocol's memory, not the engine's.
    fn memory_bytes(&self) -> usize {
        heap_bytes(&self.out) + self.table.memory_bytes()
    }
}

/// Translates node `v`'s local label through the flat `(node, label) →
/// dense channel` table.
///
/// # Panics
/// Panics if a protocol tunes to a label outside `0..c` — without the
/// check, a bad label would silently alias into the next node's
/// translation row.
#[inline]
fn translate_label(xlate: &[u32], c: usize, v: usize, channel: LocalChannel) -> usize {
    let l = channel.index();
    assert!(l < c, "node {v} tuned to local channel {l} but c = {c}");
    xlate[v * c + l] as usize
}

/// Phase-1 work for one contiguous node chunk `[base, base + len)`:
/// collect the chunk's actions through [`Protocol::act`], translate
/// and count them into the chunk's channel table, and counting-sort the
/// chunk's nodes into its per-channel buckets. Identical on the calling
/// thread and on a scoped thread; touches only the chunk's disjoint slices
/// plus the shard's private state.
#[allow(clippy::too_many_arguments)]
fn collect_chunk<P: Protocol>(
    slot: Slot,
    base: usize,
    xlate: &[u32],
    ext2int: &[u32],
    c: usize,
    protos: &mut [P],
    rngs: &mut [SmallRng],
    plan: &mut [u32],
    outcomes: &mut [u32],
    shard: &mut CollectShard<P::Message>,
) {
    let CollectShard { out, table, .. } = shard;
    out.clear();
    table.begin();
    for (p, rng) in protos.iter_mut().zip(rngs) {
        out.push(p.act(&mut SlotCtx { slot, rng }));
    }

    let (mut nb, mut nl, mut ns) = (0u64, 0u64, 0u64);
    for (i, action) in out.iter().enumerate() {
        (plan[i], outcomes[i]) = match action {
            Action::Broadcast { channel, .. } => {
                nb += 1;
                let ti = table.touch(translate_label(xlate, c, base + i, *channel));
                table.b_cnt[ti] += 1;
                (ti as u32 | BCAST_BIT, OC_SENT)
            }
            Action::Listen { channel } => {
                nl += 1;
                let ti = table.touch(translate_label(xlate, c, base + i, *channel));
                table.l_cnt[ti] += 1;
                (ti as u32, OC_IDLE)
            }
            Action::Sleep => {
                ns += 1;
                (SLEEPING, OC_SLEPT)
            }
        };
    }
    (shard.broadcasts, shard.listens, shard.sleeps) = (nb, nl, ns);

    // Counting-sort scatter: buckets hold *internal* ids, placed in
    // ascending external order within each channel.
    table.seal();
    for (i, &packed) in plan.iter().enumerate() {
        if packed == SLEEPING {
            continue;
        }
        let v = ext2int[base + i];
        if packed & BCAST_BIT != 0 {
            let ti = (packed & !BCAST_BIT) as usize;
            table.b_nodes[table.b_cnt[ti] as usize] = v;
            table.b_cnt[ti] += 1;
        } else {
            let ti = packed as usize;
            table.l_nodes[table.l_cnt[ti] as usize] = v;
            table.l_cnt[ti] += 1;
        }
    }
}

/// Runs `work(i, &mut task)` for the `i`-th of `tasks`: task 0 on the
/// calling thread, the others on scoped threads, returning once all are
/// done. A single task runs inline and spawns nothing.
///
/// A panic in any task reaches the caller with its own payload: each
/// handle is joined here and the first worker panic resumed, rather than
/// left to the scope, which would replace it with a generic "a scoped
/// thread panicked". A panic in task 0 unwinds out of the scope, which
/// still joins every worker first.
fn fork_join<T, F>(tasks: impl IntoIterator<Item = T>, work: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let mut tasks = tasks.into_iter();
    let Some(mut first) = tasks.next() else { return };
    let Some(second) = tasks.next() else { return work(0, &mut first) };
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = std::iter::once(second)
            .chain(tasks)
            .enumerate()
            .map(|(i, mut task)| s.spawn(move || work(i + 1, &mut task)))
            .collect();
        work(0, &mut first);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// `Σ_v min(deg(v), cap)` over `nodes`, estimated from at most 32
/// evenly-strided samples (exact below that). Deterministic — no RNG, no
/// dependence on thread count — so the `Auto` choice it feeds stays
/// reproducible; and since every strategy is observationally identical,
/// the approximation can only ever change *speed*, never results.
fn approx_degree_sum(ig: &IntGraph, nodes: &[u32], cap: usize) -> usize {
    const SAMPLE: usize = 32;
    if nodes.len() <= SAMPLE {
        nodes.iter().map(|&v| ig.degree(v).min(cap)).sum()
    } else {
        // Ceiling stride so the samples span the whole bucket — a floor
        // stride of 1 for lengths in (SAMPLE, 2·SAMPLE) would sample only
        // a prefix, and buckets are in ascending node order (hubs first in
        // star-like scenarios).
        let stride = nodes.len().div_ceil(SAMPLE);
        let taken = nodes.len().div_ceil(stride);
        let sampled: usize = nodes.iter().step_by(stride).map(|&v| ig.degree(v).min(cap)).sum();
        sampled * nodes.len() / taken
    }
}

/// One listener's scan over a channel broadcaster list (shared by the
/// naive reference resolver and the adaptive listener paths). Internal ids.
#[inline]
fn scan_listener(ig: &IntGraph, bcasters: &[u32], l: u32) -> u32 {
    let mut heard_from = 0u32;
    let mut adjacent = 0u32;
    for &b in bcasters {
        if ig.are(l, b) {
            adjacent += 1;
            if adjacent > 1 {
                break;
            }
            heard_from = b;
        }
    }
    match adjacent {
        0 => OC_IDLE,
        1 => heard_from,
        _ => OC_COLLISION,
    }
}

/// Marks every broadcaster of touched channels `lo..hi` with its channel
/// index under a fresh scratch epoch — one pass over the bucket range,
/// valid for the whole range because a node broadcasts on at most one
/// channel per slot and the fused walk only reads the marks. Enables the
/// fused listener walk of [`resolve_listener_fused`]. Returns the epoch.
fn mark_broadcast_channels(
    scratch: &mut Scratch,
    table: &ChannelTable,
    lo: usize,
    hi: usize,
) -> u64 {
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    for ti in lo..hi {
        for &b in table.bcasters(ti) {
            scratch.mark_epoch[b as usize] = epoch;
            scratch.hit_src[b as usize] = ti as u32;
        }
    }
    epoch
}

/// Fused listener probe for one channel: per listener, the cheaper of
/// scanning the channel's broadcaster list and walking its own CSR slice
/// against the group-wide `(epoch, channel)` marks laid down by
/// [`mark_broadcast_channels`] — no per-channel broadcaster-set build or
/// teardown. Early exit at the second hit, as everywhere.
fn resolve_listener_fused(
    ig: &IntGraph,
    scratch: &Scratch,
    epoch: u64,
    tag: u32,
    bcasters: &[u32],
    listeners: &[u32],
    emit: &mut impl FnMut(usize, u32, u32),
) {
    let nb = bcasters.len();
    for (pos, &l) in listeners.iter().enumerate() {
        let neighbors = ig.neighbor_slice(l);
        let outcome = if nb <= neighbors.len() {
            scan_listener(ig, bcasters, l)
        } else {
            let mut count = 0u32;
            let mut src = 0u32;
            for &w in neighbors {
                let hit = (scratch.mark_epoch[w as usize] == epoch
                    && scratch.hit_src[w as usize] == tag) as u32;
                src = if count == 0 && hit != 0 { w } else { src };
                count += hit;
                if count >= 2 {
                    break;
                }
            }
            match count {
                0 => OC_IDLE,
                1 => src,
                _ => OC_COLLISION,
            }
        };
        emit(pos, l, outcome);
    }
}

/// Broadcaster-centric sweep: stamp the channel's listeners with a fresh
/// epoch, then walk each broadcaster's CSR neighbor slice once,
/// accumulating hit counts only in stamped cells. `O(L + Σ_b deg(b))`,
/// independent of how many listeners each broadcaster reaches.
fn resolve_broadcaster_centric(
    ig: &IntGraph,
    scratch: &mut Scratch,
    bcasters: &[u32],
    listeners: &[u32],
    emit: &mut impl FnMut(usize, u32, u32),
) {
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    for &l in listeners {
        scratch.mark_epoch[l as usize] = epoch;
        scratch.hit_count[l as usize] = 0;
    }
    for &b in bcasters {
        for &w in ig.neighbor_slice(b) {
            let w = w as usize;
            if scratch.mark_epoch[w] == epoch {
                scratch.hit_count[w] += 1;
                scratch.hit_src[w] = b;
            }
        }
    }
    for (pos, &l) in listeners.iter().enumerate() {
        let outcome = match scratch.hit_count[l as usize] {
            0 => OC_IDLE,
            1 => scratch.hit_src[l as usize],
            _ => OC_COLLISION,
        };
        emit(pos, l, outcome);
    }
}

/// Listener-centric probe, adaptive per listener: each listener takes
/// the cheapest of three equivalent tests, all with early exit at the
/// second hit —
///
/// 1. *scan* the channel's broadcaster list with `O(1)` adjacency bits
///    (cost ≤ `B`, best when the list is shorter than the degree);
/// 2. *walk* its own CSR neighbor slice, testing each neighbor against the
///    channel's broadcaster bit set (cost ≤ `deg(l)` probes into an
///    `n/8`-byte, L1-resident set — for n = 5000 that is 632 bytes, versus
///    the 40 KB an epoch-stamp array would thrash; best for low-degree
///    listeners and crowded channels, where a couple of probes already
///    collide);
/// 3. *word-intersect* its adjacency row with the same broadcaster bit set
///    (cost ≤ `n/64` words, best for high-degree listeners on channels
///    with many broadcasters).
fn resolve_listener_centric(
    ig: &IntGraph,
    scratch: &mut Scratch,
    bcasters: &[u32],
    listeners: &[u32],
    emit: &mut impl FnMut(usize, u32, u32),
) {
    let nb = bcasters.len();
    let words = scratch.bcast_bits.words().len().max(1);
    // Both the walk and the word path probe the broadcaster bit set; build
    // it once per channel, un-build after (O(B) each way).
    for &b in bcasters {
        scratch.bcast_bits.insert(b as usize);
    }
    for (pos, &l) in listeners.iter().enumerate() {
        let neighbors = ig.neighbor_slice(l);
        let d = neighbors.len();
        // Dense rows only exist above the degree threshold; a listener in
        // the (rare) `words < d < threshold` band without one takes the
        // cheaper of the two remaining tests — any choice is
        // observationally identical.
        let has_row = ig.row(l).is_some();
        let outcome = if nb <= d && (nb <= words || !has_row) {
            scan_listener(ig, bcasters, l)
        } else if d <= words || !has_row {
            // Walk the listener's own neighbors against the bit set,
            // probing the backing words directly (the slice borrow keeps
            // the base pointer in a register across the walk). Hits are
            // accumulated as data dependencies, not an if-body: whether a
            // neighbor broadcasts is a coin flip the branch predictor
            // cannot learn, and a mispredict costs more than the probe.
            let bits = scratch.bcast_bits.words();
            let mut count = 0u32;
            let mut src = 0u32;
            for &w in neighbors {
                let hit = ((bits[(w >> 6) as usize] >> (w & 63)) & 1) as u32;
                src = if count == 0 && hit != 0 { w } else { src };
                count += hit;
                if count >= 2 {
                    break;
                }
            }
            match count {
                0 => OC_IDLE,
                1 => src,
                _ => OC_COLLISION,
            }
        } else {
            let row = ig.row(l).expect("checked above");
            match row.intersect_unique(&scratch.bcast_bits) {
                Intersection::Empty => OC_IDLE,
                Intersection::Unique(b) => b as u32,
                Intersection::Many => OC_COLLISION,
            }
        };
        emit(pos, l, outcome);
    }
    for &b in bcasters {
        scratch.bcast_bits.remove(b as usize);
    }
}

/// Resolves one channel with the `Auto` strategy, emitting
/// `(position-in-listener-list, listener, outcome)` triples (internal ids,
/// packed outcomes). The caller guarantees both populations are non-empty.
/// When `fused` carries the `(epoch, channel-tag)` of a
/// [`mark_broadcast_channels`] sweep covering this channel, the fused
/// listener walk resolves it outright: such groups hold near-empty
/// buckets (see [`FUSED_MAX_AVG_BUCKET`]), on which the broadcaster sweep
/// was never the cheaper estimate in the benchmark workloads or the
/// quick experiment suite.
fn resolve_channel_auto(
    ig: &IntGraph,
    scratch: &mut Scratch,
    fused: Option<(u64, u32)>,
    bcasters: &[u32],
    listeners: &[u32],
    emit: &mut impl FnMut(usize, u32, u32),
) {
    debug_assert!(!bcasters.is_empty() && !listeners.is_empty());
    if let Some((epoch, tag)) = fused {
        return resolve_listener_fused(ig, scratch, epoch, tag, bcasters, listeners, emit);
    }
    // Broadcaster side: one pass over all broadcasters' neighbor slices —
    // scattered increments, so weight them ~2× against the listener side's
    // sequential probes. Listener side: each listener pays the cheapest of
    // scanning the broadcaster list, walking its own CSR slice, or one word
    // sweep. Degree sums are estimated from a deterministic sample: the
    // choice needs the order of magnitude, and exact sums would cost a
    // random read per node — a measurable slice of dense slots. (Any choice
    // is observationally identical, so sampling can never change results.)
    let nb = bcasters.len();
    let bcast_cost = listeners.len() + 2 * approx_degree_sum(ig, bcasters, usize::MAX);
    let words = scratch.bcast_bits.words().len().max(1);
    let listen_cost = 2 * nb + approx_degree_sum(ig, listeners, nb.min(words));
    if bcast_cost <= listen_cost {
        resolve_broadcaster_centric(ig, scratch, bcasters, listeners, emit)
    } else {
        resolve_listener_centric(ig, scratch, bcasters, listeners, emit)
    }
}

/// Everything phase 2 reads, shared by every channel group: the internal
/// graph, the slot's channel table, the PU busy mask (fixed in phase 0, so
/// reading it from every group is race-free and order-independent), the
/// channels per node, and whether the `Naive` reference strategy runs.
struct SlotView<'a> {
    ig: &'a IntGraph,
    table: &'a ChannelTable,
    busy: Option<&'a BitSet>,
    c: usize,
    naive: bool,
}

/// Phase-2 work for touched channels `lo..hi`, identical inline and on a
/// scoped thread: emits `(position, listener, outcome)` for every listener
/// that a broadcast or the primary user decides, with the position counted
/// from the group's first listener and internal ids throughout. Listeners
/// on a channel without broadcasters are not emitted; they keep the `Idle`
/// that collection gave them.
fn resolve_group(
    view: &SlotView<'_>,
    lo: usize,
    hi: usize,
    scratch: &mut Scratch,
    emit: &mut impl FnMut(usize, u32, u32),
) {
    let SlotView { ig, table, busy, c, naive } = *view;
    // Many near-empty channels: one marking pass for the whole group lets
    // every listener-side probe run against `(epoch, channel)` tags
    // instead of a per-channel broadcaster set (the fused listener pass).
    // Tags are absolute channel indices, so groups never alias each
    // other's marks. With populated buckets the per-probe tag loads cost
    // more than the per-channel set builds they avoid — see
    // `FUSED_MAX_AVG_BUCKET`.
    let active = (table.b_off[hi] - table.b_off[lo] + table.l_off[hi] - table.l_off[lo]) as usize;
    let fused_epoch =
        (!naive && hi - lo >= 2 && c <= FUSED_MAX_C && active <= FUSED_MAX_AVG_BUCKET * (hi - lo))
            .then(|| mark_broadcast_channels(scratch, table, lo, hi));
    let group_start = table.l_off[lo] as usize;
    for ti in lo..hi {
        let (bs, ls) = (table.bcasters(ti), table.listeners(ti));
        let first = table.l_off[ti] as usize - group_start;
        let mut emit_at = |pos: usize, l: u32, oc: u32| emit(first + pos, l, oc);
        if busy.is_some_and(|m| m.contains(table.touched[ti] as usize)) {
            // PU-busy channel: broadcasts are lost, every listener hears
            // noise (even with zero broadcasters — the primary user itself
            // occupies the medium).
            for (pos, &l) in ls.iter().enumerate() {
                emit_at(pos, l, OC_PU_BUSY);
            }
        } else if bs.is_empty() || ls.is_empty() {
            // Nothing to hear, or nobody listening.
        } else if naive {
            for (pos, &l) in ls.iter().enumerate() {
                emit_at(pos, l, scan_listener(ig, bs, l));
            }
        } else {
            let fused = fused_epoch.map(|e| (e, ti as u32));
            resolve_channel_auto(ig, scratch, fused, bs, ls, &mut emit_at);
        }
    }
}

impl<'net, P: Protocol> Engine<'net, P> {
    /// Creates an engine for `net` with the default [`Resolver::Auto`],
    /// constructing each node's protocol via `make`, and deriving all node
    /// RNG streams from `seed`.
    pub fn new(net: &'net Network, seed: u64, make: impl FnMut(NodeCtx) -> P) -> Self {
        Engine::with_resolver(net, seed, Resolver::Auto, make)
    }

    /// Like [`Engine::new`] but with an explicit resolution strategy —
    /// used by differential tests, resolver benchmarks, and callers opting
    /// into [`Resolver::ParallelSharded`].
    pub fn with_resolver(
        net: &'net Network,
        seed: u64,
        resolver: Resolver,
        make: impl FnMut(NodeCtx) -> P,
    ) -> Self {
        Engine::with_renumbering(net, seed, resolver, Renumbering::default(), make)
    }

    /// Like [`Engine::with_resolver`] but with an explicit internal
    /// [`Renumbering`] — all renumberings are observationally identical, so
    /// this is a performance/testing knob, not a semantic one.
    pub fn with_renumbering(
        net: &'net Network,
        seed: u64,
        resolver: Resolver,
        renumbering: Renumbering,
        mut make: impl FnMut(NodeCtx) -> P,
    ) -> Self {
        let n = net.len();
        let c = net.channels_per_node();
        assert!(
            n < OC_MIN_SENTINEL as usize,
            "{n} nodes collide with the packed-outcome sentinel range"
        );
        // Dense channel remap so scratch vectors are O(universe), not
        // O(max raw id): mark the raw ids present, then number them in
        // ascending raw order (no sort — O(n·c + max_raw)).
        let mut max_raw = 0u32;
        for v in 0..n {
            for g in net.channel_map(NodeId(v as u32)) {
                max_raw = max_raw.max(g.0);
            }
        }
        let mut present = vec![false; max_raw as usize + 1];
        for v in 0..n {
            for g in net.channel_map(NodeId(v as u32)) {
                present[g.index()] = true;
            }
        }
        let mut dense = vec![u32::MAX; max_raw as usize + 1];
        let mut dense_to_raw = Vec::new();
        for (raw, &p) in present.iter().enumerate() {
            if p {
                dense[raw] = dense_to_raw.len() as u32;
                dense_to_raw.push(raw as u32);
            }
        }
        // Flat translation table: local label l of node v at xlate[v*c + l].
        let mut xlate = vec![0u32; n * c];
        for v in 0..n {
            for (l, g) in net.channel_map(NodeId(v as u32)).iter().enumerate() {
                xlate[v * c + l] = dense[g.index()];
            }
        }
        let universe = dense_to_raw.len();

        let protocols = (0..n)
            .map(|v| make(NodeCtx { id: NodeId(v as u32), num_channels: c as u16 }))
            .collect();
        let rngs = (0..n).map(|v| stream_rng(seed, v as u64)).collect();
        let (ext2int, int2ext) = renumber_perm(net, &renumbering);
        let ig = IntGraph::build(net, &ext2int, &int2ext);
        Engine {
            net,
            protocols,
            rngs,
            slot: 0,
            counters: Counters::default(),
            resolver,
            seed,
            c,
            xlate,
            dense_to_raw,
            spectrum: None,
            node_plan: vec![SLEEPING; n],
            outcomes: vec![OC_SLEPT; n],
            renumbering,
            ext2int,
            int2ext,
            ig,
            collect: vec![CollectShard::new(universe)],
            table: ChannelTable::new(0),
            shards: vec![ShardSlot::new(n)],
            shard_weights: Vec::new(),
            shard_bounds: Vec::new(),
            deliver: Vec::new(),
            phase_timings: None,
        }
    }

    /// Re-arms the engine for a fresh run on the same network: rebuilds
    /// every node's protocol via `make`, re-derives all node RNG streams
    /// from `seed`, and zeroes the slot counter and [`Counters`].
    ///
    /// Everything expensive survives: the channel translation table, the
    /// channel tables and buckets, and the per-chunk and per-group scratch.
    /// A reset engine is observationally indistinguishable from a freshly
    /// constructed one (the epoch-stamped scratch makes stale state
    /// invisible by construction; enforced by the reuse regression test in
    /// `tests/tests/engine_equiv.rs`), so trial harnesses can amortize
    /// engine setup across many runs.
    pub fn reset(&mut self, seed: u64, mut make: impl FnMut(NodeCtx) -> P) {
        let n = self.net.len();
        let c = self.c;
        self.protocols = (0..n)
            .map(|v| make(NodeCtx { id: NodeId(v as u32), num_channels: c as u16 }))
            .collect();
        self.rngs = (0..n).map(|v| stream_rng(seed, v as u64)).collect();
        self.seed = seed;
        self.slot = 0;
        self.counters = Counters::default();
        // The spectrum process rewinds to its pre-run state; its draws are
        // keyed by (seed, slot, channel), so a reset engine reproduces a
        // fresh engine's busy masks bit for bit.
        if let Some(sp) = self.spectrum.as_mut() {
            sp.reset();
        }
        // Every channel table and scratch epoch keeps counting
        // monotonically: stamps only ever compare for equality with the
        // *current* epoch, so continuing the sequence is exactly as
        // invisible as starting over — and cheaper.
    }

    /// The network this engine runs on.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The current slot index (number of slots already executed).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The master seed this engine's streams are currently derived from
    /// (the `seed` of the last [`Engine::new`] / [`Engine::reset`]).
    ///
    /// This is the only value checkpoint/resume machinery needs to
    /// persist to replay a run bit-identically: every node stream, every
    /// per-(slot, channel) stream, and the spectrum process are pure
    /// functions of it (plus the immutable network), so re-running
    /// `reset(seed, make)` reproduces the run exactly.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Aggregate counters so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The active resolution strategy.
    pub fn resolver(&self) -> Resolver {
        self.resolver
    }

    /// Switches the resolution strategy (takes effect from the next slot;
    /// all strategies, at any thread count, are observationally identical,
    /// so this never changes results).
    pub fn set_resolver(&mut self, resolver: Resolver) {
        self.resolver = resolver;
    }

    /// Turns per-phase wall-clock timing on or off (off for a fresh
    /// engine). Enabling zeroes any previous totals; disabling discards
    /// them. Costs ~5 monotonic clock reads per slot while on, and is
    /// observationally invisible — counters, traces, and RNG streams are
    /// bit-identical with timing on or off (see [`PhaseTimings`]).
    pub fn set_phase_timing(&mut self, on: bool) {
        self.phase_timings = on.then(PhaseTimings::default);
    }

    /// Cumulative per-phase timings since [`Engine::set_phase_timing`]
    /// enabled them; `None` while timing is off.
    pub fn phase_timings(&self) -> Option<PhaseTimings> {
        self.phase_timings
    }

    /// The active internal [`Renumbering`].
    pub fn renumbering(&self) -> &Renumbering {
        &self.renumbering
    }

    /// Heap bytes of every buffer the engine owns: the internal CSR and
    /// dense rows, the channel translation tables, the permutations, the
    /// per-node plan and packed outcomes, the channel tables and buckets of
    /// every collection chunk and of the merge, the action buffers, the
    /// per-group resolution scratch, and the delivery deltas. The protocol
    /// instances and their RNG streams are the run's state, not the
    /// engine's, and stay out. Reported next to the network footprint by
    /// the huge-sparse bench row to prove `O(n + m)` setup; the
    /// `huge_smoke` CI gate asserts it both before and after a split run,
    /// so an `O(n · threads)` buffer a multi-chunk slot allocates on first
    /// use shows up there.
    pub fn internal_memory_bytes(&self) -> usize {
        self.ig.memory_bytes()
            + heap_bytes(&self.xlate)
            + heap_bytes(&self.dense_to_raw)
            + heap_bytes(&self.ext2int)
            + heap_bytes(&self.int2ext)
            + heap_bytes(&self.node_plan)
            + heap_bytes(&self.outcomes)
            + self.collect.iter().map(CollectShard::memory_bytes).sum::<usize>()
            + self.table.memory_bytes()
            + self.shards.iter().map(ShardSlot::memory_bytes).sum::<usize>()
            + heap_bytes(&self.shard_weights)
            + heap_bytes(&self.shard_bounds)
            + heap_bytes(&self.deliver)
    }

    /// Installs primary-user spectrum dynamics (see [`crate::spectrum`]):
    /// from the next slot on, the process is advanced once per slot and
    /// channels it marks busy behave as occupied — broadcasts on them are
    /// lost and listeners hear noise (the existing collision outcome).
    ///
    /// [`SpectrumDynamics::Static`] uninstalls the layer entirely (an
    /// engine with `Static` dynamics is bit-identical to one that never
    /// had any). The process state is derived from the engine's master
    /// seed via the per-(slot, channel) streams of
    /// [`crate::rng::channel_slot_seed`], so results are deterministic and
    /// identical across all [`Resolver`] modes and thread counts; installing
    /// mid-run starts the process fresh at the current slot.
    pub fn set_spectrum(&mut self, dynamics: SpectrumDynamics) {
        self.spectrum = if dynamics.is_static() {
            None
        } else {
            Some(SpectrumState::new(dynamics, &self.dense_to_raw))
        };
    }

    /// The installed spectrum state (utilization, busy history), if any.
    /// `None` when no dynamics are installed (≡ [`SpectrumDynamics::Static`]).
    pub fn spectrum(&self) -> Option<&SpectrumState> {
        self.spectrum.as_ref()
    }

    /// Mutable access to the spectrum state — for knobs like
    /// [`SpectrumState::set_record_history`]. The process itself offers no
    /// public mutators, so determinism is not at risk.
    pub fn spectrum_mut(&mut self) -> Option<&mut SpectrumState> {
        self.spectrum.as_mut()
    }

    /// The deterministic RNG stream belonging to `channel` in the current
    /// slot. Phase-2 resolution is deterministic today; any future
    /// randomized channel effect (fading, capture, external noise) must
    /// draw from this stream, which is keyed by `(run seed, slot, channel)`
    /// — independent of channel visit order and shard thread count — so the
    /// sharded resolver stays bit-identical at any parallelism (see
    /// [`crate::rng::channel_slot_seed`]).
    pub fn channel_rng(&self, channel: GlobalChannel) -> SmallRng {
        channel_slot_rng(self.seed, self.slot, channel.0)
    }

    /// Read access to the protocol instances (for progress probes).
    pub fn protocol(&self, v: NodeId) -> &P {
        &self.protocols[v.index()]
    }

    /// Applies `f` to every protocol in node order.
    pub fn for_each_protocol(&self, mut f: impl FnMut(NodeId, &P)) {
        for (i, p) in self.protocols.iter().enumerate() {
            f(NodeId(i as u32), p);
        }
    }

    /// `true` once every node's protocol reports completion.
    pub fn all_complete(&self) -> bool {
        self.protocols.iter().all(|p| p.is_complete())
    }

    /// Chunks per phase: `threads` for a [`Resolver::ParallelSharded`]
    /// engine on at least [`POOL_MIN_NODES`] nodes, 1 otherwise. `k > 1`
    /// implies `n ≥ 2`, so a multi-chunk phase always has at least two
    /// non-empty node chunks.
    fn chunks(&self) -> usize {
        match self.resolver {
            Resolver::ParallelSharded { threads } if self.net.len() >= POOL_MIN_NODES => {
                threads.max(1)
            }
            _ => 1,
        }
    }

    /// Executes exactly one slot.
    ///
    /// The `Send` bounds exist for multi-chunk collection, which hands
    /// protocol and message state to worker threads; the `Sync` bound for
    /// multi-chunk delivery, whose workers share the slot's action buffer
    /// read-only while decoding `Heard` borrows. Every protocol in this
    /// workspace satisfies them.
    pub fn step(&mut self)
    where
        P: Send,
        P::Message: Send + Sync,
    {
        let slot = Slot(self.slot);
        let k = self.chunks();

        // Optional phase timing: one clock read here plus one per phase
        // boundary (laps share their boundary read). `None` when timing is
        // off — zero clock reads, and nothing below ever branches on a
        // measured value, so enabling this is observationally invisible.
        let mut mark = self.phase_timings.is_some().then(std::time::Instant::now);

        // Phase 0: advance the primary-user spectrum process into this
        // slot (sequential, per-(slot, channel)-keyed draws — the busy
        // mask is identical whatever resolver or thread count follows).
        // With no dynamics installed the phase is a no-op and its time is
        // exactly zero — skipping the lap (one clock read per slot) is
        // both cheaper and more accurate than measuring it.
        let spectrum_ns = if let Some(sp) = self.spectrum.as_mut() {
            sp.advance(self.seed, self.slot);
            lap(&mut mark)
        } else {
            0
        };

        self.collect(k, slot);
        let collect_ns = lap(&mut mark);
        let groups = self.resolve(k);
        let resolve_ns = lap(&mut mark);
        self.deliver(k, slot);
        let deliver_ns = lap(&mut mark);

        if let Some(pt) = self.phase_timings.as_mut() {
            pt.record(spectrum_ns, (k, collect_ns), (groups, resolve_ns), (k, deliver_ns));
        }

        self.slot += 1;
        self.counters.slots += 1;
    }

    /// Phase 1 over `k` contiguous node chunks ([`collect_chunk`] each),
    /// then, with `k > 1`, the merge: the chunk tables into the engine's
    /// ([`ChannelTable::merge`] — chunks cover ascending node ranges and
    /// each chunk list is in first-touch node order, so the merged
    /// first-touch order and ascending-node buckets are exactly the
    /// one-chunk table's), and the chunks' actions, in order, onto chunk
    /// 0's buffer.
    ///
    /// Node RNG streams are untouched by the split (stream `i` is only ever
    /// advanced by node `i`'s own draws, in slot order), so the result is
    /// bit-identical at any `k`. The phase ends with the PU accounting over
    /// the touched channels: a busy touched channel swallows its broadcasts
    /// (listener-side effects are applied during resolution).
    fn collect(&mut self, k: usize, slot: Slot)
    where
        P: Send,
        P::Message: Send,
    {
        let n = self.net.len();
        let chunk = n.div_ceil(k).max(1);
        let universe = self.dense_to_raw.len();
        while self.collect.len() < k {
            self.collect.push(CollectShard::new(universe));
        }
        let Engine {
            protocols,
            rngs,
            node_plan,
            outcomes,
            collect,
            table,
            xlate,
            ext2int,
            c,
            counters,
            spectrum,
            ..
        } = self;
        let (c, xlate, ext2int) = (*c, &xlate[..], &ext2int[..]);
        let tasks = protocols
            .chunks_mut(chunk)
            .zip(rngs.chunks_mut(chunk))
            .zip(node_plan.chunks_mut(chunk))
            .zip(outcomes.chunks_mut(chunk))
            .zip(collect.iter_mut());
        fork_join(tasks, |i, ((((protos, rngs), plan), outc), shard)| {
            collect_chunk(slot, i * chunk, xlate, ext2int, c, protos, rngs, plan, outc, shard);
        });

        let chunks = &mut collect[..n.div_ceil(chunk)];
        for shard in chunks.iter() {
            counters.broadcasts += shard.broadcasts;
            counters.listens += shard.listens;
            counters.sleeps += shard.sleeps;
        }
        if k > 1 {
            table.ch_epoch.resize(universe, 0);
            table.ch_slot.resize(universe, 0);
            table.merge(chunks.iter().map(|shard| &shard.table));
            let (first, rest) = chunks.split_first_mut().expect("k > 1 implies n >= 2");
            for shard in rest {
                first.out.append(&mut shard.out);
            }
        }
        debug_assert_eq!(collect[0].out.len(), n);

        let table: &ChannelTable = if k == 1 { &collect[0].table } else { table };
        if let Some(sp) = spectrum {
            let mask = sp.mask();
            for (ti, &ch) in table.touched.iter().enumerate() {
                if mask.contains(ch as usize) {
                    counters.pu_busy_channel_slots += 1;
                    counters.pu_blocked_broadcasts += table.bcasters(ti).len() as u64;
                }
            }
        }
    }

    /// Phase 2: resolves every touched channel of the slot's table, as one
    /// group inline when `k == 1` or fewer than two channels are touched,
    /// otherwise as up to `k` groups in parallel. Returns the group count.
    ///
    /// The partition is contiguous in touched order and balanced by a
    /// deterministic per-channel cost proxy (`1 + L + Σ_b deg(b)`). Each
    /// group resolves its channels into a private buffer with private
    /// scratch, and the buffers are scattered into `self.outcomes` after
    /// the join. Every listener belongs to exactly one channel (a node
    /// takes one action per slot), and resolution is deterministic, so the
    /// result is bit-identical at any group count. A single group writes
    /// the outcomes in place instead.
    fn resolve(&mut self, k: usize) -> usize {
        let n = self.net.len();
        let Engine {
            ig,
            int2ext,
            c,
            collect,
            table,
            shards,
            shard_weights,
            shard_bounds,
            outcomes,
            spectrum,
            resolver,
            ..
        } = self;
        let table: &ChannelTable = if k == 1 { &collect[0].table } else { table };
        let (ig, int2ext): (&IntGraph, &[u32]) = (ig, int2ext);
        let view = SlotView {
            ig,
            table,
            busy: spectrum.as_ref().map(SpectrumState::mask),
            c: *c,
            naive: *resolver == Resolver::Naive,
        };
        let t = table.touched.len();
        let groups = k.min(t);
        if groups < 2 {
            resolve_group(&view, 0, t, &mut shards[0].scratch, &mut |_, l, oc| {
                outcomes[int2ext[l as usize] as usize] = external(int2ext, oc);
            });
            return 1;
        }

        // Deterministic cost-balanced contiguous partition.
        shard_weights.clear();
        for ti in 0..t {
            let degrees = approx_degree_sum(ig, table.bcasters(ti), usize::MAX) as u64;
            shard_weights.push(1 + table.listeners(ti).len() as u64 + degrees);
        }
        let total: u64 = shard_weights.iter().sum();
        shard_bounds.clear();
        let mut start = 0usize;
        let mut cum = 0u64;
        for (ti, &w) in shard_weights.iter().enumerate() {
            cum += w;
            let g = shard_bounds.len() + 1; // group being filled (1-based)
            let must_close = t - ti - 1 == groups - g; // leave one channel per group
            if g < groups && (must_close || cum * groups as u64 >= total * g as u64) {
                shard_bounds.push((start, ti + 1));
                start = ti + 1;
            }
        }
        shard_bounds.push((start, t));
        while shards.len() < groups {
            shards.push(ShardSlot::new(n));
        }

        let bounds: &[(usize, usize)] = shard_bounds;
        fork_join(bounds.iter().zip(shards.iter_mut()), |_, (group, shard)| {
            let (lo, hi) = **group;
            let ShardSlot { scratch, out } = &mut **shard;
            out.clear();
            out.resize((table.l_off[hi] - table.l_off[lo]) as usize, OC_IDLE);
            resolve_group(&view, lo, hi, scratch, &mut |pos, _, oc| out[pos] = oc);
        });
        for (&(lo, hi), shard) in bounds.iter().zip(shards.iter()) {
            let listeners = &table.l_nodes[table.l_off[lo] as usize..table.l_off[hi] as usize];
            for (&l, &oc) in listeners.iter().zip(&shard.out) {
                outcomes[int2ext[l as usize] as usize] = external(int2ext, oc);
            }
        }
        groups
    }

    /// Phase 3 over `k` contiguous node chunks of (protocols, RNG streams,
    /// outcomes): each chunk folds its counter delta and hands each node
    /// its decoded outcome, reading the *full* slot action buffer
    /// (broadcaster ids are global). A node's feedback depends only on its
    /// own outcome, the action buffer and its own RNG stream, and the
    /// deltas merge in chunk order, so the result is bit-identical at any
    /// `k`.
    fn deliver(&mut self, k: usize, slot: Slot)
    where
        P: Send,
        P::Message: Sync,
    {
        let n = self.net.len();
        let chunk = n.div_ceil(k).max(1);
        self.deliver.resize(n.div_ceil(chunk), DeliverDelta::default());
        let Engine { protocols, rngs, outcomes, collect, deliver, counters, .. } = self;
        let actions: &[Action<P::Message>] = &collect[0].out;
        let tasks = protocols
            .chunks_mut(chunk)
            .zip(rngs.chunks_mut(chunk))
            .zip(outcomes.chunks(chunk))
            .zip(deliver.iter_mut());
        fork_join(tasks, |_, (((protos, rngs), outc), delta)| {
            **delta = count_outcomes(outc);
            for ((p, rng), &oc) in protos.iter_mut().zip(rngs.iter_mut()).zip(outc.iter()) {
                p.feedback(&mut SlotCtx { slot, rng }, feedback_of(oc, actions));
            }
        });
        for d in deliver.iter() {
            counters.apply(*d);
        }
    }

    /// Runs until `max_slots` slots have executed, every protocol is
    /// complete, or the optional probe returns `true`.
    ///
    /// The probe (if provided as `Some((interval, f))`) is evaluated with
    /// the current slot count before the first slot, every `interval`
    /// slots, and once more when the run stops; it is how experiments
    /// measure *time-to-completion* against external ground truth. The run
    /// stops at the first slot the probe returns `true` — completion-time
    /// experiments don't need the tail.
    pub fn run(&mut self, max_slots: u64, mut probe: Option<Probe<'_, '_, 'net, P>>) -> RunOutcome
    where
        P: Send,
        P::Message: Send + Sync,
    {
        let mut completed_at = None;
        // Evaluate the probe at slot 0 too: some scenarios are trivially
        // complete before any communication.
        if let Some((_, f)) = probe.as_mut() {
            if f(0, self) {
                completed_at = Some(0);
            }
        }
        while completed_at.is_none() && self.slot < max_slots && !self.all_complete() {
            self.step();
            if let Some((interval, f)) = probe.as_mut() {
                if self.slot.is_multiple_of(*interval) && f(self.slot, self) {
                    completed_at = Some(self.slot);
                }
            }
        }
        // One final probe evaluation at the end of the schedule, so that a
        // coarse probe interval cannot miss a completion at the tail.
        if completed_at.is_none() {
            if let Some((_, f)) = probe.as_mut() {
                if f(self.slot, self) {
                    completed_at = Some(self.slot);
                }
            }
        }
        RunOutcome { slots_run: self.slot, completed_at, all_protocols_done: self.all_complete() }
    }

    /// Runs the protocols' full fixed schedule (up to `max_slots`) with no
    /// probe.
    pub fn run_to_completion(&mut self, max_slots: u64) -> RunOutcome
    where
        P: Send,
        P::Message: Send + Sync,
    {
        self.run(max_slots, None)
    }

    /// Consumes the engine and extracts each node's protocol output.
    pub fn into_outputs(self) -> Vec<P::Output> {
        self.protocols.into_iter().map(P::into_output).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LocalChannel;

    /// Below 2048 nodes a sharded engine runs exactly the `Auto` path, so
    /// these small networks have two distinct resolvers; the multi-chunk
    /// paths are exercised at n ≥ 2048 here and in `tests/`.
    const ALL_RESOLVERS: [Resolver; 2] = [Resolver::Auto, Resolver::Naive];

    /// Test protocol: node 0..k broadcast a constant each slot on local
    /// channel `ch`; others listen on local channel `lch`; records hears.
    struct Fixed {
        bcast: bool,
        ch: LocalChannel,
        heard: Vec<u32>,
        id: u32,
    }

    impl Protocol for Fixed {
        type Message = u32;
        type Output = Vec<u32>;
        fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u32> {
            if self.bcast {
                Action::Broadcast { channel: self.ch, message: self.id }
            } else {
                Action::Listen { channel: self.ch }
            }
        }
        fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
            if let Feedback::Heard(m) = fb {
                self.heard.push(*m);
            }
        }
        fn is_complete(&self) -> bool {
            false
        }
        fn into_output(self) -> Vec<u32> {
            self.heard
        }
    }

    /// Star network: node 0 center; all share global channel 0; optionally
    /// extra private channels to make c uniform.
    fn star(leaves: usize) -> Network {
        let n = leaves + 1;
        let mut b = Network::builder(n);
        for v in 0..n {
            b.set_channels(NodeId(v as u32), vec![GlobalChannel(0), GlobalChannel(1 + v as u32)]);
        }
        for l in 1..n {
            b.add_edge(NodeId(0), NodeId(l as u32));
        }
        b.build().unwrap()
    }

    #[test]
    fn single_broadcaster_is_heard_under_every_resolver() {
        let net = star(1);
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 7, resolver, |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            let out = eng.into_outputs();
            assert_eq!(out[0], vec![1], "center hears the lone leaf ({resolver:?})");
            assert!(out[1].is_empty(), "broadcaster hears nothing ({resolver:?})");
        }
    }

    #[test]
    fn two_broadcasters_collide_to_silence() {
        let net = star(2);
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 7, resolver, |ctx| Fixed {
                bcast: ctx.id != NodeId(0),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            assert_eq!(eng.counters().collisions, 1, "{resolver:?}");
            let out = eng.into_outputs();
            assert!(out[0].is_empty(), "collision is silence ({resolver:?})");
        }
    }

    #[test]
    fn non_neighbor_broadcasts_are_inaudible() {
        // Path 0-1 plus isolated node 2 broadcasting on the same channel:
        // node 2's broadcast must not interfere at node 0.
        let mut b = Network::builder(3);
        for v in 0..3u32 {
            b.set_channels(NodeId(v), vec![GlobalChannel(0)]);
        }
        b.add_edge(NodeId(0), NodeId(1));
        let net = b.build().unwrap();
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 3, resolver, |ctx| Fixed {
                bcast: ctx.id != NodeId(0),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            let out = eng.into_outputs();
            assert_eq!(out[0], vec![1], "only the true neighbor is audible ({resolver:?})");
        }
    }

    #[test]
    fn different_channels_do_not_interfere() {
        // Node 1 and node 2 broadcast on *different* global channels; the
        // center listens on channel 0 and must cleanly hear node 1.
        let mut b = Network::builder(3);
        b.set_channels(NodeId(0), vec![GlobalChannel(0), GlobalChannel(9)]);
        b.set_channels(NodeId(1), vec![GlobalChannel(0), GlobalChannel(5)]);
        b.set_channels(NodeId(2), vec![GlobalChannel(5), GlobalChannel(0)]);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        let net = b.build().unwrap();
        let mut eng = Engine::new(&net, 3, |ctx| Fixed {
            bcast: ctx.id != NodeId(0),
            // Local channel 0 maps to g0 for nodes 0 and 1, but to g5 for
            // node 2 — local labels are node-private.
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        eng.step();
        let out = eng.into_outputs();
        assert_eq!(out[0], vec![1]);
    }

    #[test]
    fn counters_track_actions() {
        let net = star(3);
        let mut eng = Engine::new(&net, 7, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        eng.step();
        eng.step();
        let c = eng.counters();
        assert_eq!(c.slots, 2);
        assert_eq!(c.broadcasts, 2);
        assert_eq!(c.listens, 6);
        // Center hears leaf 1 twice; leaves 2 and 3 are not adjacent to leaf
        // 1, so they idle-listen.
        assert_eq!(c.deliveries, 2);
        assert_eq!(c.idle_listens, 4);
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        struct Rnd {
            heard: u64,
        }
        impl Protocol for Rnd {
            type Message = u8;
            type Output = u64;
            fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u8> {
                use rand::Rng;
                if ctx.rng.gen_bool(0.5) {
                    Action::Broadcast { channel: LocalChannel(ctx.rng.gen_range(0..2)), message: 1 }
                } else {
                    Action::Listen { channel: LocalChannel(ctx.rng.gen_range(0..2)) }
                }
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u8>) {
                if matches!(fb, Feedback::Heard(_)) {
                    self.heard += 1;
                }
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) -> u64 {
                self.heard
            }
        }
        let net = star(4);
        let run = |seed: u64, resolver: Resolver| {
            let mut eng = Engine::with_resolver(&net, seed, resolver, |_| Rnd { heard: 0 });
            eng.run_to_completion(200);
            (eng.counters(), eng.into_outputs())
        };
        let (c1, o1) = run(42, Resolver::Auto);
        let (c2, o2) = run(42, Resolver::Auto);
        let (c3, _) = run(43, Resolver::Auto);
        assert_eq!(c1, c2);
        assert_eq!(o1, o2);
        assert_ne!(c1, c3, "different seeds should (generically) differ");
        // Every resolver is observationally identical.
        for resolver in ALL_RESOLVERS {
            let (c, o) = run(42, resolver);
            assert_eq!(c, c1, "{resolver:?} diverges on counters");
            assert_eq!(o, o1, "{resolver:?} diverges on outputs");
        }
    }

    #[test]
    fn probe_stops_run_early() {
        let net = star(1);
        let mut eng = Engine::new(&net, 7, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        let mut probe = |_slot: u64, eng: &Engine<'_, Fixed>| -> bool {
            !eng.protocol(NodeId(0)).heard.is_empty()
        };
        let outcome = eng.run(1000, Some((1, &mut probe)));
        assert_eq!(outcome.completed_at, Some(1));
        assert_eq!(outcome.slots_run, 1);
    }

    #[test]
    fn run_respects_max_slots() {
        let net = star(1);
        let mut eng = Engine::new(&net, 7, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        let outcome = eng.run_to_completion(17);
        assert_eq!(outcome.slots_run, 17);
        assert!(!outcome.all_protocols_done);
    }

    #[test]
    fn sleeping_nodes_neither_send_nor_hear() {
        struct Sleepy;
        impl Protocol for Sleepy {
            type Message = u8;
            type Output = ();
            fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u8> {
                Action::Sleep
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u8>) {
                assert_eq!(fb, Feedback::Slept);
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) {}
        }
        let net = star(2);
        let mut eng = Engine::new(&net, 7, |_| Sleepy);
        eng.step();
        assert_eq!(eng.counters().sleeps, 3);
    }

    #[test]
    fn packed_outcomes_decode_to_feedback() {
        let actions: Vec<Action<u32>> = vec![
            Action::Broadcast { channel: LocalChannel(0), message: 11 },
            Action::Sleep,
            Action::Broadcast { channel: LocalChannel(1), message: 22 },
        ];
        // Broadcaster ids index the full action buffer, whatever chunk the
        // decoded outcome belongs to.
        assert_eq!(feedback_of(OC_SENT, &actions), Feedback::Sent);
        assert_eq!(feedback_of(OC_SLEPT, &actions), Feedback::Slept);
        assert_eq!(feedback_of(OC_IDLE, &actions), Feedback::Silence);
        assert_eq!(feedback_of(OC_COLLISION, &actions), Feedback::Silence);
        assert_eq!(feedback_of(OC_PU_BUSY, &actions), Feedback::Silence);
        assert_eq!(feedback_of(2, &actions), Feedback::Heard(&22));
        const { assert!(OC_MIN_SENTINEL <= OC_PU_BUSY) };
    }

    #[test]
    fn heard_messages_are_not_cloned_by_the_engine() {
        // A message type whose clone count is observable: the engine must
        // never clone it, even across many deliveries.
        use std::sync::atomic::{AtomicU64, Ordering};
        static CLONES: AtomicU64 = AtomicU64::new(0);

        #[derive(Debug, PartialEq, Eq)]
        struct Counted(u32);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }

        struct Payload {
            bcast: bool,
            heard: u64,
        }
        impl Protocol for Payload {
            type Message = Counted;
            type Output = u64;
            fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<Counted> {
                if self.bcast {
                    Action::Broadcast { channel: LocalChannel(0), message: Counted(9) }
                } else {
                    Action::Listen { channel: LocalChannel(0) }
                }
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, Counted>) {
                if let Feedback::Heard(m) = fb {
                    assert_eq!(m.0, 9);
                    self.heard += 1;
                }
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) -> u64 {
                self.heard
            }
        }

        // One leaf broadcasting to the center: a delivery in every slot.
        let net = star(1);
        let mut eng = Engine::new(&net, 5, |ctx| Payload { bcast: ctx.id == NodeId(1), heard: 0 });
        for _ in 0..50 {
            eng.step();
        }
        assert_eq!(eng.counters().deliveries, 50);
        let outputs = eng.into_outputs();
        assert_eq!(outputs[0], 50, "center heard every slot");
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "engine cloned a message");
    }

    #[test]
    fn dense_channel_mix_is_resolver_invariant() {
        // A tougher scenario than the unit cases above: several overlapping
        // channels, random roles, non-trivial topology. All resolvers must
        // agree on every counter and output.
        struct Rnd {
            c: u16,
            heard: Vec<u32>,
        }
        impl Protocol for Rnd {
            type Message = u32;
            type Output = Vec<u32>;
            fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u32> {
                use rand::Rng;
                let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
                if ctx.rng.gen_bool(0.4) {
                    Action::Broadcast { channel, message: ctx.rng.gen_range(0..1000u32) }
                } else {
                    Action::Listen { channel }
                }
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
                if let Feedback::Heard(m) = fb {
                    self.heard.push(*m);
                }
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) -> Vec<u32> {
                self.heard
            }
        }

        // Wheel graph: hub 0 plus a cycle of 12, all sharing 3 channels.
        let n = 13usize;
        let mut b = Network::builder(n);
        for v in 0..n {
            b.set_channels(
                NodeId(v as u32),
                vec![GlobalChannel(0), GlobalChannel(1), GlobalChannel(2)],
            );
        }
        for v in 1..n as u32 {
            b.add_edge(NodeId(0), NodeId(v));
            let next = if v as usize == n - 1 { 1 } else { v + 1 };
            b.add_edge(NodeId(v), NodeId(next));
        }
        let net = b.build().unwrap();

        let run = |resolver: Resolver| {
            let mut eng =
                Engine::with_resolver(&net, 99, resolver, |_| Rnd { c: 3, heard: Vec::new() });
            eng.run_to_completion(300);
            (eng.counters(), eng.into_outputs())
        };
        let (c0, o0) = run(Resolver::Naive);
        assert!(c0.deliveries > 0, "scenario must exercise deliveries");
        assert!(c0.collisions > 0, "scenario must exercise collisions");
        for resolver in ALL_RESOLVERS {
            let (c, o) = run(resolver);
            assert_eq!(c, c0, "{resolver:?} counters diverge from naive");
            assert_eq!(o, o0, "{resolver:?} outputs diverge from naive");
        }
    }

    #[test]
    fn sharded_resolver_with_one_thread_is_sequential_auto() {
        // threads ≤ 1 must take the one-chunk path (and still be correct).
        let net = star(5);
        for threads in [0usize, 1] {
            let mut eng = Engine::with_resolver(&net, 7, Resolver::sharded(threads), |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            assert_eq!(eng.counters().deliveries, 1, "threads={threads}");
        }
    }

    #[test]
    fn pu_busy_channel_blocks_delivery_under_every_resolver() {
        // Lone leaf broadcasting to the center, but the PU camps on the
        // shared channel every slot: no delivery ever, listeners hear
        // noise, and the PU counters account for every blocked slot —
        // identically under every resolver.
        let net = star(1);
        let always_busy = SpectrumDynamics::TraceReplay(vec![vec![GlobalChannel(0)]]);
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 7, resolver, |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.set_spectrum(always_busy.clone());
            for _ in 0..5 {
                eng.step();
            }
            let c = eng.counters();
            assert_eq!(c.deliveries, 0, "{resolver:?}");
            assert_eq!(c.collisions, 5, "{resolver:?}: PU noise is a collision");
            assert_eq!(c.pu_blocked_listens, 5, "{resolver:?}");
            assert_eq!(c.pu_blocked_broadcasts, 5, "{resolver:?}");
            assert_eq!(c.pu_busy_channel_slots, 5, "{resolver:?}");
            assert_eq!(c.broadcasts, 5, "{resolver:?}: the action itself still counts");
            let out = eng.into_outputs();
            assert!(out[0].is_empty(), "{resolver:?}: nothing audible through the PU");
        }
    }

    #[test]
    fn pu_mask_is_per_channel() {
        // Two leaves on different global channels; the PU occupies only
        // channel 0, so the center still hears cleanly on channel 5.
        let mut b = Network::builder(3);
        b.set_channels(NodeId(0), vec![GlobalChannel(0), GlobalChannel(5)]);
        b.set_channels(NodeId(1), vec![GlobalChannel(0), GlobalChannel(9)]);
        b.set_channels(NodeId(2), vec![GlobalChannel(5), GlobalChannel(7)]);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        let net = b.build().unwrap();
        // Node 1 broadcasts on g0 (busy), node 2 on g5 (free); the center
        // listens on g5 (its local label 1).
        let mut eng = Engine::new(&net, 3, |ctx| Fixed {
            bcast: ctx.id != NodeId(0),
            ch: if ctx.id == NodeId(0) { LocalChannel(1) } else { LocalChannel(0) },
            heard: Vec::new(),
            id: ctx.id.0,
        });
        eng.set_spectrum(SpectrumDynamics::TraceReplay(vec![vec![GlobalChannel(0)]]));
        eng.step();
        let c = eng.counters();
        assert_eq!(c.deliveries, 1);
        assert_eq!(c.pu_blocked_broadcasts, 1, "only the g0 broadcast is lost");
        assert_eq!(c.pu_blocked_listens, 0, "the center listened on the free channel");
        let out = eng.into_outputs();
        assert_eq!(out[0], vec![2], "channel 5 is unaffected by the PU on channel 0");
    }

    #[test]
    fn static_spectrum_is_observationally_absent() {
        let net = star(3);
        let run = |install: bool| {
            let mut eng = Engine::new(&net, 7, |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            if install {
                eng.set_spectrum(SpectrumDynamics::Static);
                assert!(eng.spectrum().is_none(), "Static uninstalls the layer");
            }
            eng.step();
            eng.step();
            (eng.counters(), eng.into_outputs())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn channel_rng_is_keyed_by_slot_and_channel() {
        use rand::Rng;
        let net = star(1);
        let mut eng = Engine::new(&net, 9, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        let before: u64 = eng.channel_rng(GlobalChannel(0)).gen();
        let again: u64 = eng.channel_rng(GlobalChannel(0)).gen();
        assert_eq!(before, again, "same (seed, slot, channel) — same stream");
        let other: u64 = eng.channel_rng(GlobalChannel(1)).gen();
        assert_ne!(before, other, "different channels get different streams");
        eng.step();
        let after: u64 = eng.channel_rng(GlobalChannel(0)).gen();
        assert_ne!(before, after, "different slots get different streams");
    }
    /// Deterministic traffic for the routing tests: a third of the nodes
    /// broadcast, the rest listen; on even slots each node tunes to local
    /// channel `id % 4` (four touched channels), on odd slots everyone
    /// tunes to local channel 0 (one touched channel).
    struct Spread {
        id: u32,
    }

    impl Protocol for Spread {
        type Message = u32;
        type Output = ();
        fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u32> {
            let channel =
                LocalChannel(if ctx.slot.0.is_multiple_of(2) { (self.id % 4) as u16 } else { 0 });
            if self.id.is_multiple_of(3) {
                Action::Broadcast { channel, message: self.id }
            } else {
                Action::Listen { channel }
            }
        }
        fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, _fb: Feedback<'_, u32>) {}
        fn is_complete(&self) -> bool {
            false
        }
        fn into_output(self) {}
    }

    /// A ring of `n` nodes, every node on the same four global channels.
    fn ring4(n: usize) -> Network {
        let mut b = Network::builder(n);
        for v in 0..n as u32 {
            b.set_channels(NodeId(v), (0..4).map(GlobalChannel).collect());
            b.add_edge(NodeId(v), NodeId((v + 1) % n as u32));
        }
        b.build().unwrap()
    }

    #[test]
    fn pooling_follows_the_node_count_from_the_first_slot() {
        // Below the threshold a sharded engine never splits a phase; at it,
        // collection and delivery split on every slot from the first, and
        // resolution whenever at least two channels are touched (the even
        // slots here). No warm-up slots, no clock.
        for (n, pooled) in [(POOL_MIN_NODES - 1, false), (POOL_MIN_NODES, true)] {
            let net = ring4(n);
            let mut eng =
                Engine::with_resolver(&net, 3, Resolver::sharded(4), |ctx| Spread { id: ctx.id.0 });
            eng.set_phase_timing(true);
            for slots in 1..=6u64 {
                eng.step();
                let pt = eng.phase_timings().expect("timing is on");
                let (split, sharded) = if pooled { (slots, slots.div_ceil(2)) } else { (0, 0) };
                assert_eq!(pt.collect_pooled_slots, split, "n={n} after {slots} slots");
                assert_eq!(pt.deliver_pooled_slots, split, "n={n} after {slots} slots");
                assert_eq!(pt.resolve_sharded_slots, sharded, "n={n} after {slots} slots");
            }
            assert!(eng.counters().deliveries > 0, "n={n}: the ring must deliver");
        }
    }

    #[test]
    fn a_panic_in_a_split_chunk_reaches_the_caller_with_its_message() {
        // The last node tunes to label c = 4, which `translate_label`
        // rejects. On the split engines that node sits in a spawned
        // thread's chunk, so its message must survive the join.
        let n = POOL_MIN_NODES + 5;
        let net = ring4(n);
        for resolver in [Resolver::Auto, Resolver::sharded(2), Resolver::sharded(3)] {
            let mut eng = Engine::with_resolver(&net, 3, resolver, |ctx| Fixed {
                bcast: false,
                ch: LocalChannel(if ctx.id.index() == n - 1 { 4 } else { 0 }),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.step()))
                .expect_err("an out-of-range label must panic");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("tuned to local channel"), "{resolver:?}: {message:?}");
        }
    }

    #[test]
    fn internal_memory_counts_the_scratch_a_pooled_slot_allocates() {
        // The first slot on a 4-thread engine resolves four channels in
        // four groups, so it allocates the scratch of groups 1..4 (16 bytes
        // and one bit per node each) on top of its collection chunks. The
        // reported growth must cover at least that.
        let n = POOL_MIN_NODES;
        let net = ring4(n);
        let mut eng =
            Engine::with_resolver(&net, 3, Resolver::sharded(4), |ctx| Spread { id: ctx.id.0 });
        let before = eng.internal_memory_bytes();
        eng.set_phase_timing(true);
        eng.step();
        assert_eq!(eng.phase_timings().map(|pt| pt.resolve_sharded_slots), Some(1));
        let group_scratch = 3 * (16 * n + n / 8);
        let grown = eng.internal_memory_bytes() - before;
        assert!(
            grown >= group_scratch,
            "grew {grown} bytes, group scratch alone is {group_scratch}"
        );
    }
}
