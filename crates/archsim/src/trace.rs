//! Synthetic trace generation from reuse-distance distributions.
//!
//! [`StackMapper`] maintains a true LRU stack (a rank-addressed
//! [`RankList`]) over every line/page a workload has touched; each access
//! samples a reuse distance from the workload's distribution and performs a
//! move-to-front at that rank, yielding a concrete id whose stream
//! reproduces the distribution. [`TraceGenerator`] composes four mappers
//! (code lines, data lines, code pages, data pages) with the instruction
//! mix to emit per-instruction events for the cache/TLB/branch simulators —
//! one at a time via [`TraceGenerator::next_event`], or into reusable
//! structure-of-arrays buffers via [`TraceGenerator::fill_batch`]. The
//! engine fills one batch with a whole window's trace and drives its
//! structures over consecutive chunks of it.

use crate::ranklist::RankList;
use crate::reuse::ReuseDistanceDist;
use crate::stream::StreamSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_telemetry::streams::{StreamFamily, StreamRegistry};

/// Maps sampled reuse distances to concrete line/page ids via an LRU stack.
#[derive(Debug, Clone)]
pub struct StackMapper {
    stack: RankList,
    dist: ReuseDistanceDist,
    next_id: u64,
}

/// Pre-warm ceiling: stacks larger than this start truncated; sampled
/// distances beyond the live stack are treated as cold (they would miss
/// every structure of interest anyway).
const PREWARM_CAP: u64 = 1 << 20;

/// Number of ids a mapper for `dist` starts with (its steady-state stack),
/// and therefore the id range `[prewarm_len - k, prewarm_len)` that holds
/// the `k` most-recently-used ids at construction time. The engine uses
/// this to pre-fill caches/TLBs with steady-state contents.
pub fn prewarm_len(dist: &ReuseDistanceDist) -> u64 {
    dist.footprint().min(PREWARM_CAP)
}

impl StackMapper {
    /// Creates a mapper for one reuse-distance distribution. `seed` is
    /// unused: sampling randomness is supplied per access, and the stack
    /// itself is deterministic.
    ///
    /// The stack is pre-warmed to the distribution's footprint (capped at
    /// 2^20 ids) so that long reuse distances resolve to real "old" ids
    /// from the first access instead of being clamped into a short history
    /// — without this, short measurement windows would systematically
    /// under-report large-capacity misses. The pre-warmed stack is
    /// implicit ([`RankList::descending`]): building it costs O(n/64) and
    /// copies no values.
    pub fn new(dist: ReuseDistanceDist, _seed: u64) -> Self {
        let prewarm = prewarm_len(&dist);
        // Front of the stack = most recently used; ids descend so that the
        // next cold id continues the sequence.
        StackMapper {
            stack: RankList::descending(prewarm),
            dist,
            next_id: prewarm,
        }
    }

    /// Performs one access: samples a distance, returns the touched id.
    pub fn access<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        match self.dist.sample(rng) {
            None => self.touch_new(),
            Some(d) => {
                let len = self.stack.len();
                // Distance d means "d-th most recently used distinct id",
                // with d = 1 the most recent. A distance beyond the live
                // history refers to an id we no longer track — equivalent to
                // a cold access for every downstream structure.
                if len == 0 || d as usize > len {
                    return self.touch_new();
                }
                let rank = (d - 1) as usize;
                let id = self
                    .stack
                    .remove_at(rank)
                    .expect("rank < len by construction");
                self.stack.push_front(id);
                id
            }
        }
    }

    fn touch_new(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push_front(id);
        // Bound the stack by the declared footprint: the LRU tail "dies".
        if self.stack.len() as u64 > self.dist.footprint() {
            self.stack.pop_back();
        }
        id
    }

    /// Number of distinct ids currently live.
    pub fn live_ids(&self) -> usize {
        self.stack.len()
    }

    /// Total distinct ids ever created.
    pub fn total_ids(&self) -> u64 {
        self.next_id
    }
}

/// The instruction class sampled from the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsnClass {
    /// Conditional or indirect branch.
    Branch,
    /// Floating-point operation.
    Fp,
    /// Integer ALU operation.
    Arith,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
}

/// One synthetic instruction event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsnEvent {
    /// Instruction class.
    pub class: InsnClass,
    /// Code cache line touched by the fetch.
    pub code_line: u64,
    /// Code page touched by the fetch (4 KiB- or 2 MiB-granular id).
    pub code_page: PageAccess,
    /// Data line/page for loads and stores.
    pub data: Option<DataAccess>,
}

/// One page translation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageAccess {
    /// Page id (granularity given by `is_huge`).
    pub page: u64,
    /// True when the page is 2 MiB-backed.
    pub is_huge: bool,
}

/// A data-side access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataAccess {
    /// True for stores.
    pub is_store: bool,
    /// Data cache line id.
    pub line: u64,
    /// Data page access.
    pub page: PageAccess,
}

/// Huge-page coverage fractions resolved by the page policy; the generator
/// routes each translation to the 4 KiB or 2 MiB page stream accordingly.
///
/// Huge-page streams sample from the *compacted* page distribution: when a
/// workload's 4 KiB pages pack into 2 MiB pages with density `c`, page-level
/// reuse distances shrink by `c`. Deriving huge ids arithmetically from the
/// 4 KiB id stream would be wrong — the LRU stack shuffles ids over time,
/// destroying the spatial adjacency that huge pages exploit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HugePageMix {
    /// Fraction of code translations that are 2 MiB-backed.
    pub code_huge_fraction: f64,
    /// Fraction of data translations that are 2 MiB-backed.
    pub data_huge_fraction: f64,
}

/// A batch of instruction events in structure-of-arrays layout.
///
/// The per-event arrays (`classes`, `code_lines`, `code_pages`,
/// `code_huge`) are indexed by position in the batch. The data-side arrays
/// are *compacted*: only loads and stores contribute a slot, in event
/// order, with `data_event[k]` giving the owning event index. The engine
/// drives each simulated structure over a whole batch (one array sweep per
/// structure) instead of interleaving six structure probes per event, and
/// uses the precomputed class tallies instead of per-event `match`
/// dispatch. Buffers are reused across [`TraceGenerator::fill_batch`]
/// calls, so steady-state filling does not allocate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    /// Instruction class per event.
    pub classes: Vec<InsnClass>,
    /// Code cache line per event.
    pub code_lines: Vec<u64>,
    /// Code page id per event (granularity per `code_huge`).
    pub code_pages: Vec<u64>,
    /// True where the code page is 2 MiB-backed.
    pub code_huge: Vec<bool>,
    /// Owning event index for each data access (loads/stores, event order).
    pub data_event: Vec<u32>,
    /// True for stores.
    pub data_is_store: Vec<bool>,
    /// Data cache line per data access.
    pub data_lines: Vec<u64>,
    /// Data page id per data access.
    pub data_pages: Vec<u64>,
    /// True where the data page is 2 MiB-backed.
    pub data_huge: Vec<bool>,
    /// Branch events in the batch.
    pub branches: u64,
    /// Floating-point events in the batch.
    pub fp_ops: u64,
    /// Load events in the batch.
    pub loads: u64,
    /// Store events in the batch.
    pub stores: u64,
}

impl EventBatch {
    /// Creates a batch with buffers sized for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventBatch {
            classes: Vec::with_capacity(n),
            code_lines: Vec::with_capacity(n),
            code_pages: Vec::with_capacity(n),
            code_huge: Vec::with_capacity(n),
            data_event: Vec::with_capacity(n),
            data_is_store: Vec::with_capacity(n),
            data_lines: Vec::with_capacity(n),
            data_pages: Vec::with_capacity(n),
            data_huge: Vec::with_capacity(n),
            branches: 0,
            fp_ops: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Heap bytes held by the buffers (their capacity, not their length).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.classes.capacity() * size_of::<InsnClass>()
            + (self.code_lines.capacity()
                + self.code_pages.capacity()
                + self.data_lines.capacity()
                + self.data_pages.capacity())
                * size_of::<u64>()
            + (self.code_huge.capacity()
                + self.data_is_store.capacity()
                + self.data_huge.capacity())
                * size_of::<bool>()
            + self.data_event.capacity() * size_of::<u32>()
    }

    /// Releases spare buffer capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.classes.shrink_to_fit();
        self.code_lines.shrink_to_fit();
        self.code_pages.shrink_to_fit();
        self.code_huge.shrink_to_fit();
        self.data_event.shrink_to_fit();
        self.data_is_store.shrink_to_fit();
        self.data_lines.shrink_to_fit();
        self.data_pages.shrink_to_fit();
        self.data_huge.shrink_to_fit();
    }

    /// Replaces this batch's contents with the consecutive events
    /// `events` (a range of event indices) of `trace`: the same events a
    /// chunked [`TraceGenerator::fill_batch`] would have produced, tallies
    /// included, with data owners indexed from the chunk's first event.
    pub(crate) fn copy_chunk(&mut self, trace: &EventBatch, events: std::ops::Range<usize>) {
        // `data_event` is sorted (event order), so the chunk's loads and
        // stores are one contiguous run of data slots.
        let data_event = &trace.data_event;
        let lo = data_event.partition_point(|&e| (e as usize) < events.start);
        let hi = lo + data_event[lo..].partition_point(|&e| (e as usize) < events.end);
        let first = events.start as u32;
        self.clear();
        self.classes
            .extend_from_slice(&trace.classes[events.clone()]);
        self.code_lines
            .extend_from_slice(&trace.code_lines[events.clone()]);
        self.code_pages
            .extend_from_slice(&trace.code_pages[events.clone()]);
        self.code_huge.extend_from_slice(&trace.code_huge[events]);
        self.data_event
            .extend(data_event[lo..hi].iter().map(|&e| e - first));
        self.data_is_store
            .extend_from_slice(&trace.data_is_store[lo..hi]);
        self.data_lines.extend_from_slice(&trace.data_lines[lo..hi]);
        self.data_pages.extend_from_slice(&trace.data_pages[lo..hi]);
        self.data_huge.extend_from_slice(&trace.data_huge[lo..hi]);
        for class in &self.classes {
            match class {
                InsnClass::Branch => self.branches += 1,
                InsnClass::Fp => self.fp_ops += 1,
                InsnClass::Load => self.loads += 1,
                InsnClass::Store => self.stores += 1,
                InsnClass::Arith => {}
            }
        }
    }

    /// Empties the batch, retaining buffer capacity.
    pub fn clear(&mut self) {
        self.classes.clear();
        self.code_lines.clear();
        self.code_pages.clear();
        self.code_huge.clear();
        self.data_event.clear();
        self.data_is_store.clear();
        self.data_lines.clear();
        self.data_pages.clear();
        self.data_huge.clear();
        self.branches = 0;
        self.fp_ops = 0;
        self.loads = 0;
        self.stores = 0;
    }
}

/// Per-instruction event generator for one workload.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    code_lines: StackMapper,
    data_lines: StackMapper,
    code_pages_4k: StackMapper,
    data_pages_4k: StackMapper,
    code_pages_2m: StackMapper,
    data_pages_2m: StackMapper,
    huge: HugePageMix,
    // Cumulative mix thresholds, ordered branch/fp/arith/load/store.
    thresholds: [f64; 4],
    rng: SmallRng,
}

impl TraceGenerator {
    /// Builds a generator for `spec` under huge-page coverage `huge`,
    /// deterministically seeded.
    pub fn new(spec: &StreamSpec, huge: HugePageMix, seed: u64) -> Self {
        let m = &spec.mix;
        let t1 = m.branch;
        let t2 = t1 + m.fp;
        let t3 = t2 + m.arith;
        let t4 = t3 + m.load;
        let code_2m = spec
            .code_page_reuse
            .compacted(spec.pages.code_compaction.max(1.0));
        let data_2m = spec
            .data_page_reuse
            .compacted(spec.pages.data_compaction.max(1.0));
        let mut streams = StreamRegistry::new(seed);
        TraceGenerator {
            code_lines: StackMapper::new(
                spec.code_reuse.clone(),
                streams.derive(StreamFamily::TraceCodeLines),
            ),
            data_lines: StackMapper::new(
                spec.data_reuse.clone(),
                streams.derive(StreamFamily::TraceDataLines),
            ),
            code_pages_4k: StackMapper::new(
                spec.code_page_reuse.clone(),
                streams.derive(StreamFamily::TraceCodePages4k),
            ),
            data_pages_4k: StackMapper::new(
                spec.data_page_reuse.clone(),
                streams.derive(StreamFamily::TraceDataPages4k),
            ),
            code_pages_2m: StackMapper::new(
                code_2m,
                streams.derive(StreamFamily::TraceCodePages2m),
            ),
            data_pages_2m: StackMapper::new(
                data_2m,
                streams.derive(StreamFamily::TraceDataPages2m),
            ),
            huge,
            thresholds: [t1, t2, t3, t4],
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Generates the next instruction event.
    pub fn next_event(&mut self) -> InsnEvent {
        let u: f64 = self.rng.gen();
        let class = if u < self.thresholds[0] {
            InsnClass::Branch
        } else if u < self.thresholds[1] {
            InsnClass::Fp
        } else if u < self.thresholds[2] {
            InsnClass::Arith
        } else if u < self.thresholds[3] {
            InsnClass::Load
        } else {
            InsnClass::Store
        };
        let code_line = self.code_lines.access(&mut self.rng);
        let code_huge = self.rng.gen::<f64>() < self.huge.code_huge_fraction;
        let code_page = if code_huge {
            PageAccess {
                page: self.code_pages_2m.access(&mut self.rng),
                is_huge: true,
            }
        } else {
            PageAccess {
                page: self.code_pages_4k.access(&mut self.rng),
                is_huge: false,
            }
        };
        let data = match class {
            InsnClass::Load | InsnClass::Store => {
                let data_huge = self.rng.gen::<f64>() < self.huge.data_huge_fraction;
                let page = if data_huge {
                    PageAccess {
                        page: self.data_pages_2m.access(&mut self.rng),
                        is_huge: true,
                    }
                } else {
                    PageAccess {
                        page: self.data_pages_4k.access(&mut self.rng),
                        is_huge: false,
                    }
                };
                Some(DataAccess {
                    is_store: class == InsnClass::Store,
                    line: self.data_lines.access(&mut self.rng),
                    page,
                })
            }
            _ => None,
        };
        InsnEvent {
            class,
            code_line,
            code_page,
            data,
        }
    }

    /// Fills `batch` with exactly `n` events, reusing its buffers.
    ///
    /// Bit-identical to `n` successive [`TraceGenerator::next_event`] calls:
    /// the RNG draw order per event (class, code line, code-huge coin, code
    /// page, then for loads/stores data-huge coin, data page, data line) is
    /// the same statement sequence, so the generator state after the call
    /// matches the per-event path exactly for every `n`.
    pub fn fill_batch(&mut self, batch: &mut EventBatch, n: usize) {
        batch.clear();
        for i in 0..n {
            let u: f64 = self.rng.gen();
            let class = if u < self.thresholds[0] {
                InsnClass::Branch
            } else if u < self.thresholds[1] {
                InsnClass::Fp
            } else if u < self.thresholds[2] {
                InsnClass::Arith
            } else if u < self.thresholds[3] {
                InsnClass::Load
            } else {
                InsnClass::Store
            };
            batch.classes.push(class);
            batch.code_lines.push(self.code_lines.access(&mut self.rng));
            let code_huge = self.rng.gen::<f64>() < self.huge.code_huge_fraction;
            let code_page = if code_huge {
                self.code_pages_2m.access(&mut self.rng)
            } else {
                self.code_pages_4k.access(&mut self.rng)
            };
            batch.code_pages.push(code_page);
            batch.code_huge.push(code_huge);
            match class {
                InsnClass::Branch => batch.branches += 1,
                InsnClass::Fp => batch.fp_ops += 1,
                InsnClass::Load | InsnClass::Store => {
                    let is_store = class == InsnClass::Store;
                    if is_store {
                        batch.stores += 1;
                    } else {
                        batch.loads += 1;
                    }
                    let data_huge = self.rng.gen::<f64>() < self.huge.data_huge_fraction;
                    let page = if data_huge {
                        self.data_pages_2m.access(&mut self.rng)
                    } else {
                        self.data_pages_4k.access(&mut self.rng)
                    };
                    batch.data_event.push(i as u32);
                    batch.data_is_store.push(is_store);
                    batch.data_pages.push(page);
                    batch.data_huge.push(data_huge);
                    batch.data_lines.push(self.data_lines.access(&mut self.rng));
                }
                InsnClass::Arith => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseDistanceDist;
    use crate::stream::{
        BranchProfile, ContextSwitchProfile, InstructionMix, PageProfile, PrefetchAffinity,
    };

    fn spec() -> StreamSpec {
        let line =
            ReuseDistanceDist::from_survival_points(&[(512, 0.25), (16_384, 0.05)], 0.01, 200_000)
                .unwrap();
        let page = ReuseDistanceDist::single_knee(64, 0.08, 0.01, 10_000).unwrap();
        StreamSpec {
            name: "test".to_string(),
            mix: InstructionMix::new(0.20, 0.05, 0.30, 0.30, 0.15).unwrap(),
            code_reuse: line.clone(),
            data_reuse: line,
            code_page_reuse: page.clone(),
            data_page_reuse: page,
            branch: BranchProfile {
                taken_rate: 0.6,
                base_mispredict: 0.02,
                branch_working_set: 1024,
            },
            prefetch: PrefetchAffinity::modest(),
            pages: PageProfile {
                data_compaction: 16.0,
                code_compaction: 64.0,
                madvise_fraction: 0.3,
                uses_shp: false,
                shp_target_bytes: 0,
            },
            context_switch: ContextSwitchProfile::quiet(),
            mlp: 3.0,
            smt_gain: 0.25,
            base_cpi_scale: 1.0,
            writeback_factor: 0.4,
            burstiness: 1.0,
            llc_contention: 0.5,
            natural_code_llc_share: 0.35,
            extra_mem_lines_per_ki: 0.0,
            extra_traffic_prefetch_fraction: 0.3,
            frontend_exposure: 0.6,
        }
    }

    #[test]
    fn stack_mapper_reproduces_miss_ratio() {
        // Direct check of the central claim: for a fully-associative LRU of
        // capacity C, the fraction of accesses whose sampled id was NOT in
        // the C most-recent distinct ids equals miss_ratio(C).
        let dist =
            ReuseDistanceDist::from_survival_points(&[(128, 0.3), (4096, 0.05)], 0.02, 100_000)
                .unwrap();
        let mut mapper = StackMapper::new(dist.clone(), 7);
        let mut rng = SmallRng::seed_from_u64(42);
        // Model LRU cache of capacity 128 as a recency list.
        let mut recency: Vec<u64> = Vec::new();
        let cap = 128usize;
        let mut misses = 0u64;
        let n = 60_000u64;
        for _ in 0..n {
            let id = mapper.access(&mut rng);
            if let Some(pos) = recency.iter().position(|&x| x == id) {
                recency.remove(pos);
            } else {
                misses += 1;
            }
            recency.insert(0, id);
            recency.truncate(cap);
        }
        let empirical = misses as f64 / n as f64;
        let analytic = dist.miss_ratio(cap as u64);
        assert!(
            (empirical - analytic).abs() < 0.03,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn mapper_footprint_is_bounded() {
        let dist = ReuseDistanceDist::single_knee(16, 0.5, 0.4, 64).unwrap();
        let mut mapper = StackMapper::new(dist, 1);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            mapper.access(&mut rng);
        }
        assert!(mapper.live_ids() as u64 <= 64);
        assert!(mapper.total_ids() > 64, "cold accesses keep minting ids");
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut g = TraceGenerator::new(&spec(), HugePageMix::default(), 3);
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            let e = g.next_event();
            let idx = match e.class {
                InsnClass::Branch => 0,
                InsnClass::Fp => 1,
                InsnClass::Arith => 2,
                InsnClass::Load => 3,
                InsnClass::Store => 4,
            };
            counts[idx] += 1;
            // Loads/stores carry data accesses; others must not.
            match e.class {
                InsnClass::Load => assert!(e.data.is_some() && !e.data.unwrap().is_store),
                InsnClass::Store => assert!(e.data.is_some() && e.data.unwrap().is_store),
                _ => assert!(e.data.is_none()),
            }
        }
        let expect = [0.20, 0.05, 0.30, 0.30, 0.15];
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - expect[i]).abs() < 0.01,
                "class {i}: {frac} vs {}",
                expect[i]
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = TraceGenerator::new(&spec(), HugePageMix::default(), 9);
        let mut b = TraceGenerator::new(&spec(), HugePageMix::default(), 9);
        for _ in 0..1000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn huge_mix_routes_translations() {
        let mix = HugePageMix {
            code_huge_fraction: 1.0,
            data_huge_fraction: 0.0,
        };
        let mut g = TraceGenerator::new(&spec(), mix, 4);
        for _ in 0..2_000 {
            let e = g.next_event();
            assert!(e.code_page.is_huge);
            if let Some(d) = e.data {
                assert!(!d.page.is_huge);
            }
        }
    }

    #[test]
    fn huge_stream_has_compacted_working_set() {
        // With compaction 64, the 2 MiB code-page stream should touch far
        // fewer distinct ids than the 4 KiB stream over the same window.
        let all_4k = HugePageMix::default();
        let all_2m = HugePageMix {
            code_huge_fraction: 1.0,
            data_huge_fraction: 1.0,
        };
        let mut small = TraceGenerator::new(&spec(), all_4k, 8);
        let mut big = TraceGenerator::new(&spec(), all_2m, 8);
        let mut ids_4k = std::collections::HashSet::new();
        let mut ids_2m = std::collections::HashSet::new();
        for _ in 0..20_000 {
            ids_4k.insert(small.next_event().code_page.page);
            ids_2m.insert(big.next_event().code_page.page);
        }
        assert!(
            (ids_2m.len() as f64) < (ids_4k.len() as f64) / 2.5,
            "2M ids {} vs 4K ids {}",
            ids_2m.len(),
            ids_4k.len()
        );
    }

    #[test]
    fn fill_batch_matches_next_event_sequence() {
        // Chunked batched generation (odd sizes included) must replicate the
        // per-event stream and leave the generator in the same state.
        let mix = HugePageMix {
            code_huge_fraction: 0.4,
            data_huge_fraction: 0.7,
        };
        let mut per_event = TraceGenerator::new(&spec(), mix, 21);
        let mut batched = TraceGenerator::new(&spec(), mix, 21);
        let mut batch = EventBatch::with_capacity(64);
        for chunk in [1usize, 7, 64, 13, 256] {
            batched.fill_batch(&mut batch, chunk);
            assert_eq!(batch.len(), chunk);
            let mut data_cursor = 0usize;
            for i in 0..chunk {
                let e = per_event.next_event();
                assert_eq!(batch.classes[i], e.class);
                assert_eq!(batch.code_lines[i], e.code_line);
                assert_eq!(batch.code_pages[i], e.code_page.page);
                assert_eq!(batch.code_huge[i], e.code_page.is_huge);
                if let Some(d) = e.data {
                    assert_eq!(batch.data_event[data_cursor], i as u32);
                    assert_eq!(batch.data_is_store[data_cursor], d.is_store);
                    assert_eq!(batch.data_lines[data_cursor], d.line);
                    assert_eq!(batch.data_pages[data_cursor], d.page.page);
                    assert_eq!(batch.data_huge[data_cursor], d.page.is_huge);
                    data_cursor += 1;
                }
            }
            assert_eq!(data_cursor, batch.data_event.len());
            assert_eq!(
                batch.branches + batch.fp_ops + batch.loads + batch.stores,
                batch
                    .classes
                    .iter()
                    .filter(|c| !matches!(c, InsnClass::Arith))
                    .count() as u64
            );
        }
        // Generator states converged: the next events still agree.
        for _ in 0..100 {
            assert_eq!(per_event.next_event(), batched.next_event());
        }
    }

    #[test]
    fn chunks_copied_from_one_batch_match_chunked_fills() {
        // The engine fills one batch with a whole window and drives copies
        // of its chunks; each copy must equal the batch a chunked fill of
        // the same events produces.
        let mix = HugePageMix {
            code_huge_fraction: 0.4,
            data_huge_fraction: 0.7,
        };
        let chunks = [1usize, 7, 64, 13, 256, 659];
        let total: usize = chunks.iter().sum();
        let mut whole = EventBatch::with_capacity(total);
        TraceGenerator::new(&spec(), mix, 21).fill_batch(&mut whole, total);
        let mut chunked = TraceGenerator::new(&spec(), mix, 21);
        let (mut filled, mut copied) = (EventBatch::default(), EventBatch::default());
        let mut start = 0;
        for n in chunks {
            chunked.fill_batch(&mut filled, n);
            copied.copy_chunk(&whole, start..start + n);
            assert_eq!(copied, filled, "chunk at {start}");
            start += n;
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TraceGenerator::new(&spec(), HugePageMix::default(), 1);
        let mut b = TraceGenerator::new(&spec(), HugePageMix::default(), 2);
        let same = (0..100)
            .filter(|_| a.next_event() == b.next_event())
            .count();
        assert!(same < 100);
    }
}
