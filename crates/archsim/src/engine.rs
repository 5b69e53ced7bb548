//! The simulation engine: ties trace generation, cache/TLB/branch structures,
//! prefetch effects, the memory model, and the CPI/TMAM accounting into one
//! window-level evaluation with a bandwidth↔latency fixed point.

use crate::branch::BranchPredictor;
use crate::cache::{CdpPartition, SetAssocCache, SharedLlc};
use crate::counters::Counters;
use crate::error::ArchSimError;
use crate::memory::MemoryModel;
use crate::pagemap::{PagePolicy, ThpMode, ThpPlatformTraits};
use crate::platform::{CacheGeometry, PlatformKind, PlatformSpec, TlbGeometry, CACHE_LINE_BYTES};
use crate::prefetch::{PrefetchEffect, PrefetcherConfig};
use crate::stream::{
    BranchProfile, ContextSwitchProfile, InstructionMix, PageProfile, PrefetchAffinity, StreamSpec,
};
use crate::tlb::TlbHierarchy;
use crate::tmam::TmamBreakdown;
use crate::trace::{EventBatch, HugePageMix, TraceGenerator};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Everything the seven µSKU knobs can change about a server, plus the
/// platform it runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The hardware platform.
    pub platform: PlatformSpec,
    /// Core-domain frequency in GHz (knob 1).
    pub core_freq_ghz: f64,
    /// Uncore-domain frequency in GHz (knob 2).
    pub uncore_freq_ghz: f64,
    /// Active physical cores (knob 3; the rest are `isolcpus`-parked).
    pub active_cores: u32,
    /// CAT: LLC ways enabled for the workload.
    pub llc_ways_enabled: u32,
    /// CDP partition of the enabled ways, if any (knob 4).
    pub cdp: Option<CdpPartition>,
    /// Hardware prefetcher enables (knob 5).
    pub prefetchers: PrefetcherConfig,
    /// Transparent huge page mode (knob 6).
    pub thp: ThpMode,
    /// Statically-reserved 2 MiB pages (knob 7).
    pub shp_pages: u32,
    /// Machine DRAM capacity (for SHP over-reservation pressure).
    pub machine_memory_bytes: u64,
}

impl ServerConfig {
    /// The *stock* configuration of Sec. 6.2: maximum core and uncore
    /// frequency, all cores active, no CDP, all prefetchers on, THP always
    /// on, and no SHPs.
    pub fn stock(platform: PlatformSpec) -> Self {
        let core = platform.core_freq_range_ghz.1;
        let uncore = platform.uncore_freq_range_ghz.1;
        let cores = platform.total_cores();
        let ways = platform.llc.ways;
        ServerConfig {
            platform,
            core_freq_ghz: core,
            uncore_freq_ghz: uncore,
            active_cores: cores,
            llc_ways_enabled: ways,
            cdp: None,
            prefetchers: PrefetcherConfig::all_on(),
            thp: ThpMode::AlwaysOn,
            shp_pages: 0,
            machine_memory_bytes: 64 << 30,
        }
    }

    /// Validates every field against the platform.
    ///
    /// # Errors
    ///
    /// The specific [`ArchSimError`] for the first invalid field.
    pub fn validate(&self) -> Result<(), ArchSimError> {
        self.platform.validate_core_freq(self.core_freq_ghz)?;
        self.platform.validate_uncore_freq(self.uncore_freq_ghz)?;
        self.platform.validate_core_count(self.active_cores)?;
        if self.llc_ways_enabled == 0 || self.llc_ways_enabled > self.platform.llc.ways {
            return Err(ArchSimError::InvalidGeometry(format!(
                "{} of {} LLC ways enabled",
                self.llc_ways_enabled, self.platform.llc.ways
            )));
        }
        if let Some(p) = self.cdp {
            if !self.platform.supports_rdt {
                // Broadwell in this fleet lacks RDT kernel support only for
                // *some* extensions; the paper still sweeps CDP on it, so we
                // allow CDP and only validate the partition shape.
            }
            if p.data_ways + p.code_ways != self.llc_ways_enabled {
                return Err(ArchSimError::InvalidCdpPartition {
                    data_ways: p.data_ways,
                    code_ways: p.code_ways,
                    total_ways: self.llc_ways_enabled,
                });
            }
        }
        Ok(())
    }

    /// THP allocation behaviour for this platform (older Broadwell fleet is
    /// modelled as fragmented; see `pagemap`).
    pub fn thp_traits(&self) -> ThpPlatformTraits {
        match self.platform.kind {
            PlatformKind::Broadwell16 => ThpPlatformTraits::fragmented(),
            _ => ThpPlatformTraits::healthy(),
        }
    }

    /// Core frequency after the AVX power-budget tax (paper Sec. 6.1: Ads1
    /// runs at 2.0 GHz because AVX eats part of the budget).
    pub fn effective_core_freq_ghz(&self, fp_fraction: f64) -> f64 {
        if fp_fraction >= self.platform.avx_fp_threshold {
            (self.core_freq_ghz - self.platform.avx_freq_tax_ghz)
                .max(self.platform.core_freq_range_ghz.0)
        } else {
            self.core_freq_ghz
        }
    }
}

/// Cycle attribution produced by the CPI model (per simulated window).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpiParts {
    /// Issue/execute cycles (retiring + core-bound).
    pub base: f64,
    /// Instruction-supply stall cycles.
    pub frontend: f64,
    /// Branch misprediction recovery cycles.
    pub bad_speculation: f64,
    /// Data-supply stall cycles.
    pub backend_memory: f64,
    /// Context-switch overhead cycles.
    pub context_switch: f64,
}

impl CpiParts {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.base + self.frontend + self.bad_speculation + self.backend_memory + self.context_switch
    }
}

/// Result of simulating one window at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Raw event counts.
    pub counters: Counters,
    /// Single-thread IPC.
    pub ipc_thread: f64,
    /// Per-core IPC with SMT (what Fig. 6 reports).
    pub ipc_core: f64,
    /// Millions of instructions per second, one core.
    pub mips_per_core: f64,
    /// MIPS across all active cores at the given load (µSKU's metric).
    pub mips_total: f64,
    /// Average memory bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Loaded memory latency, ns.
    pub mem_latency_ns: f64,
    /// Memory-bandwidth utilization (0–1).
    pub mem_utilization: f64,
    /// True when the operating point is effectively bandwidth-bound.
    pub bandwidth_bound: bool,
    /// Cycle attribution.
    pub cpi: CpiParts,
    /// Top-down pipeline-slot breakdown.
    pub tmam: TmamBreakdown,
    /// Core frequency actually applied (after the AVX tax).
    pub effective_core_freq_ghz: f64,
    /// Fraction of CPU time spent context switching (Fig. 4 midpoint).
    pub context_switch_fraction: f64,
}

/// Fraction of the window used to warm structures before counting.
const WARMUP_FRACTION: f64 = 0.25;
/// STLB hit penalty in cycles.
const STLB_HIT_CYCLES: f64 = 9.0;
/// Exposed fraction of an L1i-miss/L2-hit refill (decoupled front ends and
/// fetch-ahead hide most of it).
const FE_L2_CHARGE: f64 = 0.25;
/// Exposed fraction of an L2-code-miss/LLC-hit refill.
const FE_LLC_CHARGE: f64 = 0.35;
/// Exposed fraction of a code fetch from memory ("the latency of code
/// misses is not hidden" — but fetch-ahead still overlaps a tail).
const FE_MEM_CHARGE: f64 = 0.55;
/// Exposed fraction of an ITLB page walk.
const ITLB_WALK_CHARGE: f64 = 0.40;
/// Exposed fraction of a DTLB page walk (overlaps OoO execution).
const DTLB_WALK_CHARGE: f64 = 0.40;
/// SHP pressure to extra-LLC-miss conversion gain.
const SHP_PRESSURE_GAIN: f64 = 10.0;
/// Extra backend cycles per FP op when the FP fraction is high (port
/// pressure under dense AVX work).
const FP_PRESSURE_CPI: f64 = 0.15;
/// Events copied from the window's trace per batched tick. Large enough
/// to amortize per-chunk pass setup, small enough that the SoA buffers and
/// miss lists stay L2-resident.
const DEFAULT_BATCH_EVENTS: usize = 4096;
/// Entry bound for the process-wide report memo. At the bound the map is
/// cleared wholesale rather than evicted piecemeal: LRU bookkeeping would
/// cost more than re-simulating the handful of live entries, and a sweep
/// repopulates its working set within one round.
const REPORT_MEMO_CAP: usize = 1 << 16;

/// Process-wide memo of completed window evaluations, keyed by a 128-bit
/// content fingerprint of every input that determines the report (config,
/// stream spec, seed, window length, load, co-location terms, warm-up
/// override). This is the snapshot/restore path for warmed structures:
/// forked replicas (`AbEnvironment::fork`) evaluate the *same* engine
/// tuples as their parent, so instead of re-running the 50k–400k-instruction
/// warm-up per replica they get the finished report back as a lookup. Safe
/// because `run_colocated` is a pure function of the fingerprinted inputs —
/// all RNG streams are derived from the seed, and results are bit-identical
/// across batch sizes (which is why `batch_events` is *excluded* from the
/// key).
static REPORT_MEMO: OnceLock<Mutex<HashMap<u128, WindowReport>>> = OnceLock::new();

/// Code ids share the unified L2/LLC with data ids; tag them apart.
const CODE_TAG: u64 = 1 << 62;

/// Entry bound for the warm-structure snapshot cache. Entries are a few
/// megabytes each (the LLC array dominates), so the bound is small; as
/// with [`REPORT_MEMO`], the map clears wholesale at the bound.
const STRUCT_MEMO_CAP: usize = 32;

/// Cache/TLB hierarchy in its pre-filled steady state, ready to simulate a
/// window. Building one replays on the order of the LLC's line count in
/// LRU accesses (plus the allocations behind it); cloning one is a few
/// memcpys. Construction and pre-fill are deterministic functions of the
/// geometry, the LLC share, and the reuse distributions — no RNG — so a
/// clone is bit-identical to a rebuild.
#[derive(Clone)]
struct WarmStructures {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    llc: SharedLlc,
    tlb: TlbHierarchy,
}

/// Process-wide snapshot cache of pre-filled structure hierarchies, keyed
/// by a content fingerprint of everything that shapes them. This is the
/// *cold-evaluation* half of snapshot/restore: [`REPORT_MEMO`] short-cuts
/// evaluations that repeat verbatim, while this cache accelerates genuinely
/// new tuples that reuse a hierarchy shape — every point of a load curve,
/// every A/B window of an arm, and every knob setting that leaves the
/// cache/TLB geometry untouched (THP, SHP, frequencies) share one entry.
static STRUCT_MEMO: OnceLock<Mutex<HashMap<u128, WarmStructures>>> = OnceLock::new();

/// Resident-byte bound for the trace memo. A trace costs about 29 bytes
/// per event (≈ 3 MiB for a 60k-instruction window plus its 50k warm-up),
/// so this holds about twenty such traces: what a seven-service tuning
/// campaign keeps reusing at a time. As with the other memos, the map
/// clears wholesale when the next trace would not fit.
const TRACE_MEMO_BYTES: usize = 64 << 20;

/// Process-wide memo of generated traces: a window's whole event stream
/// (warm-up included), keyed by exactly what the trace generator reads
/// ([`Engine::trace_key`]). The trace never depends on frequencies, CDP,
/// LLC ways, prefetchers, core count or load, so every arm, fork and knob
/// setting of an A/B test that shares a seed and page mix replays one
/// trace instead of regenerating it.
static TRACE_MEMO: OnceLock<Mutex<TraceMemo>> = OnceLock::new();

/// The trace memo's map and the heap bytes its traces hold.
#[derive(Default)]
struct TraceMemo {
    traces: HashMap<u128, Arc<EventBatch>>,
    bytes: usize,
}

/// Incremental 128-bit FNV-1a hasher fed 64-bit words (little-endian).
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        self.push(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    fn push_f64(&mut self, value: f64) {
        self.push(value.to_bits());
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

/// The window-level simulator for one (platform config, workload) pair.
#[derive(Debug)]
pub struct Engine {
    config: ServerConfig,
    spec: StreamSpec,
    seed: u64,
    batch_events: usize,
    warmup_override: Option<u64>,
    use_memo: bool,
}

impl Engine {
    /// Creates an engine after validating the configuration and stream spec.
    ///
    /// # Errors
    ///
    /// Any validation error from [`ServerConfig::validate`] or
    /// [`StreamSpec::validate`].
    pub fn new(config: ServerConfig, spec: StreamSpec, seed: u64) -> Result<Self, ArchSimError> {
        config.validate()?;
        spec.validate()?;
        Ok(Engine {
            config,
            spec,
            seed,
            batch_events: DEFAULT_BATCH_EVENTS,
            warmup_override: None,
            use_memo: true,
        })
    }

    /// Enables or disables the process-wide memos for this engine: reports,
    /// structure snapshots and traces (default on). Identity tests and
    /// throughput benchmarks turn them off to force a full evaluation; memo
    /// hits are bit-identical to evaluation, so production callers never
    /// need to.
    pub fn with_memo(mut self, enabled: bool) -> Self {
        self.use_memo = enabled;
        self
    }

    /// Sets the number of events simulated per batched tick (default 4096).
    ///
    /// Results are bit-identical at every batch size — chunking never moves
    /// a warm-up reset or context-switch flush relative to the event stream,
    /// and each structure sees its exact per-event access sequence — so this
    /// is a performance and test-surface control only.
    pub fn with_batch_size(mut self, events: usize) -> Self {
        self.batch_events = events.max(1);
        self
    }

    /// Overrides the computed warm-up length, in instructions.
    ///
    /// Used by regression tests to demonstrate measured-window statistics
    /// are insensitive to the warm-up length (the warm-up events consumed
    /// differ, so this is a statistical property, not bit-identity).
    /// Production callers leave it unset.
    pub fn with_warmup_instructions(mut self, warmup: u64) -> Self {
        self.warmup_override = Some(warmup);
        self
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The workload stream specification.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// 128-bit content fingerprint of one window evaluation: every field of
    /// the config and spec the simulation reads, the seed, and the call
    /// arguments. `batch_events` is deliberately excluded — results are
    /// bit-identical at every batch size, so including it would only split
    /// the memo. Collisions at 128 bits are negligible against the ~1e5
    /// distinct tuples a long sweep evaluates.
    ///
    /// Every struct is destructured without `..`: a field added to the
    /// engine, config, platform or stream spec is a compile error here
    /// until it is hashed or explicitly marked unread (`_`).
    fn fingerprint(
        &self,
        instructions: u64,
        load_fraction: f64,
        background_bw_gbps: f64,
        llc_share: Option<f64>,
    ) -> u128 {
        let Engine {
            config,
            spec,
            seed,
            batch_events: _,
            warmup_override,
            use_memo: _,
        } = self;
        let ServerConfig {
            platform,
            core_freq_ghz,
            uncore_freq_ghz,
            active_cores,
            llc_ways_enabled,
            cdp,
            prefetchers,
            thp,
            shp_pages,
            machine_memory_bytes,
        } = config;
        let PlatformSpec {
            kind,
            // A display label; `kind` identifies the part.
            microarchitecture: _,
            sockets,
            cores_per_socket,
            smt,
            l1i,
            l1d,
            l2,
            llc,
            itlb,
            dtlb,
            stlb_entries,
            page_walk_cycles,
            issue_width,
            mispredict_penalty_cycles,
            btb_entries,
            core_freq_range_ghz,
            uncore_freq_range_ghz,
            avx_freq_tax_ghz,
            avx_fp_threshold,
            mem_unloaded_latency_ns,
            mem_peak_bw_gbps,
            supports_rdt,
        } = platform;
        let mut h = Fnv128::new();

        // Platform.
        h.push(match kind {
            PlatformKind::Skylake18 => 0,
            PlatformKind::Skylake20 => 1,
            PlatformKind::Broadwell16 => 2,
        });
        for n in [sockets, cores_per_socket, smt] {
            h.push(u64::from(*n));
        }
        for &CacheGeometry {
            capacity_bytes,
            ways,
            latency_cycles,
        } in [l1i, l1d, l2, llc]
        {
            h.push(capacity_bytes);
            h.push(u64::from(ways));
            h.push(u64::from(latency_cycles));
        }
        for &TlbGeometry {
            entries_4k,
            entries_2m,
        } in [itlb, dtlb]
        {
            h.push(u64::from(entries_4k));
            h.push(u64::from(entries_2m));
        }
        for n in [
            stlb_entries,
            page_walk_cycles,
            issue_width,
            mispredict_penalty_cycles,
            btb_entries,
        ] {
            h.push(u64::from(*n));
        }
        for v in [
            core_freq_range_ghz.0,
            core_freq_range_ghz.1,
            uncore_freq_range_ghz.0,
            uncore_freq_range_ghz.1,
            *avx_freq_tax_ghz,
            *avx_fp_threshold,
            *mem_unloaded_latency_ns,
            *mem_peak_bw_gbps,
        ] {
            h.push_f64(v);
        }
        h.push(u64::from(*supports_rdt));

        // Knob settings.
        h.push_f64(*core_freq_ghz);
        h.push_f64(*uncore_freq_ghz);
        h.push(u64::from(*active_cores));
        h.push(u64::from(*llc_ways_enabled));
        match cdp {
            Some(CdpPartition {
                data_ways,
                code_ways,
            }) => {
                h.push(1);
                h.push(u64::from(*data_ways));
                h.push(u64::from(*code_ways));
            }
            None => h.push(0),
        }
        let PrefetcherConfig {
            l2_stream,
            l2_adjacent,
            dcu,
            dcu_ip,
        } = *prefetchers;
        h.push(
            u64::from(l2_stream)
                | u64::from(l2_adjacent) << 1
                | u64::from(dcu) << 2
                | u64::from(dcu_ip) << 3,
        );
        h.push(match thp {
            ThpMode::Madvise => 0,
            ThpMode::AlwaysOn => 1,
            ThpMode::NeverOn => 2,
        });
        h.push(u64::from(*shp_pages));
        h.push(*machine_memory_bytes);

        // Stream spec.
        let StreamSpec {
            name,
            mix,
            code_reuse,
            data_reuse,
            code_page_reuse,
            data_page_reuse,
            branch,
            prefetch,
            pages,
            context_switch,
            mlp,
            smt_gain,
            base_cpi_scale,
            writeback_factor,
            burstiness,
            llc_contention,
            natural_code_llc_share,
            extra_mem_lines_per_ki,
            extra_traffic_prefetch_fraction,
            frontend_exposure,
        } = spec;
        let InstructionMix {
            branch: branch_share,
            fp,
            arith,
            load,
            store,
        } = *mix;
        let BranchProfile {
            taken_rate,
            base_mispredict,
            branch_working_set,
        } = *branch;
        let PrefetchAffinity {
            sequential,
            ip_stride,
            accuracy,
        } = *prefetch;
        let PageProfile {
            data_compaction,
            code_compaction,
            madvise_fraction,
            uses_shp,
            shp_target_bytes,
        } = *pages;
        let ContextSwitchProfile {
            rate_per_sec,
            direct_cost_us_low,
            direct_cost_us_high,
            pollution_fraction,
        } = *context_switch;
        h.push_bytes(name.as_bytes());
        for v in [branch_share, fp, arith, load, store] {
            h.push_f64(v);
        }
        for dist in [code_reuse, data_reuse, code_page_reuse, data_page_reuse] {
            dist.fingerprint_words(&mut |w| h.push(w));
        }
        h.push_f64(taken_rate);
        h.push_f64(base_mispredict);
        h.push(u64::from(branch_working_set));
        for v in [
            sequential,
            ip_stride,
            accuracy,
            data_compaction,
            code_compaction,
            madvise_fraction,
        ] {
            h.push_f64(v);
        }
        h.push(u64::from(uses_shp));
        h.push(shp_target_bytes);
        for v in [
            rate_per_sec,
            direct_cost_us_low,
            direct_cost_us_high,
            pollution_fraction,
        ] {
            h.push_f64(v);
        }
        for v in [
            mlp,
            smt_gain,
            base_cpi_scale,
            writeback_factor,
            burstiness,
            llc_contention,
            natural_code_llc_share,
            extra_mem_lines_per_ki,
            extra_traffic_prefetch_fraction,
            frontend_exposure,
        ] {
            h.push_f64(*v);
        }

        // Seed, warm-up override, and call arguments.
        h.push(*seed);
        match warmup_override {
            Some(w) => {
                h.push(1);
                h.push(*w);
            }
            None => h.push(0),
        }
        h.push(instructions);
        h.push_f64(load_fraction);
        h.push_f64(background_bw_gbps);
        match llc_share {
            Some(share) => {
                h.push(1);
                h.push_f64(share);
            }
            None => h.push(0),
        }
        h.finish()
    }

    /// Content fingerprint of everything that shapes the pre-filled
    /// cache/TLB hierarchy: geometries, enabled ways, the CDP partition (or
    /// the natural code share), the resolved LLC share, and the four reuse
    /// distributions (whose footprints set the pre-fill depths). Knobs that
    /// leave the hierarchy untouched — THP, SHP, frequencies, the seed —
    /// are deliberately absent so their settings share one snapshot. As in
    /// [`Engine::fingerprint`], every struct is destructured without `..`.
    fn structure_key(&self, share: f64) -> u128 {
        let ServerConfig {
            platform,
            core_freq_ghz: _,
            uncore_freq_ghz: _,
            active_cores: _,
            llc_ways_enabled,
            cdp,
            prefetchers: _,
            thp: _,
            shp_pages: _,
            machine_memory_bytes: _,
        } = &self.config;
        let PlatformSpec {
            kind: _,
            microarchitecture: _,
            sockets: _,
            cores_per_socket: _,
            smt: _,
            l1i,
            l1d,
            l2,
            llc,
            itlb,
            dtlb,
            stlb_entries,
            page_walk_cycles: _,
            issue_width: _,
            mispredict_penalty_cycles: _,
            btb_entries: _,
            core_freq_range_ghz: _,
            uncore_freq_range_ghz: _,
            avx_freq_tax_ghz: _,
            avx_fp_threshold: _,
            mem_unloaded_latency_ns: _,
            mem_peak_bw_gbps: _,
            supports_rdt: _,
        } = platform;
        let StreamSpec {
            name: _,
            mix: _,
            code_reuse,
            data_reuse,
            code_page_reuse,
            data_page_reuse,
            branch: _,
            prefetch: _,
            pages: _,
            context_switch: _,
            mlp: _,
            smt_gain: _,
            base_cpi_scale: _,
            writeback_factor: _,
            burstiness: _,
            llc_contention: _,
            natural_code_llc_share,
            extra_mem_lines_per_ki: _,
            extra_traffic_prefetch_fraction: _,
            frontend_exposure: _,
        } = &self.spec;
        let mut h = Fnv128::new();
        // Domain separator against REPORT_MEMO keys (different maps, but
        // cheap insurance against cross-use).
        h.push(0x5741_524d); // "WARM"
        for &CacheGeometry {
            capacity_bytes,
            ways,
            latency_cycles: _,
        } in [l1i, l1d, l2, llc]
        {
            h.push(capacity_bytes);
            h.push(u64::from(ways));
        }
        for &TlbGeometry {
            entries_4k,
            entries_2m,
        } in [itlb, dtlb]
        {
            h.push(u64::from(entries_4k));
            h.push(u64::from(entries_2m));
        }
        h.push(u64::from(*stlb_entries));
        h.push(u64::from(*llc_ways_enabled));
        match cdp {
            Some(CdpPartition {
                data_ways,
                code_ways,
            }) => {
                h.push(1);
                h.push(u64::from(*data_ways));
                h.push(u64::from(*code_ways));
            }
            None => {
                h.push(0);
                h.push_f64(*natural_code_llc_share);
            }
        }
        h.push_f64(share);
        for dist in [code_reuse, data_reuse, code_page_reuse, data_page_reuse] {
            dist.fingerprint_words(&mut |w| h.push(w));
        }
        h.finish()
    }

    /// Content fingerprint of one window's trace: exactly the inputs
    /// [`TraceGenerator::new`] and the event count read — the instruction
    /// mix, the four reuse distributions, the huge-page compaction factors,
    /// the resolved huge-page mix, the seed and the number of events.
    /// Everything else is deliberately absent, so knob settings that leave
    /// the page mix alone (frequencies, cores, CDP, LLC ways, prefetchers)
    /// and every load share one trace. `StreamSpec` is destructured
    /// without `..`: a new field is a compile error here until it is
    /// hashed or marked unread.
    fn trace_key(&self, huge: HugePageMix, events: u64) -> u128 {
        let StreamSpec {
            mix,
            code_reuse,
            data_reuse,
            code_page_reuse,
            data_page_reuse,
            pages,
            // Read by the structure pass, the BPU or the CPI model, never
            // by the trace generator.
            name: _,
            branch: _,
            prefetch: _,
            context_switch: _,
            mlp: _,
            smt_gain: _,
            base_cpi_scale: _,
            writeback_factor: _,
            burstiness: _,
            llc_contention: _,
            natural_code_llc_share: _,
            extra_mem_lines_per_ki: _,
            extra_traffic_prefetch_fraction: _,
            frontend_exposure: _,
        } = &self.spec;
        let InstructionMix {
            branch,
            fp,
            arith,
            load,
            store,
        } = *mix;
        let PageProfile {
            data_compaction,
            code_compaction,
            // These reach the trace only through the resolved page mix.
            madvise_fraction: _,
            uses_shp: _,
            shp_target_bytes: _,
        } = *pages;
        let HugePageMix {
            code_huge_fraction,
            data_huge_fraction,
        } = huge;
        let mut h = Fnv128::new();
        h.push(0x5452_4143); // "TRAC"
        for v in [branch, fp, arith, load, store] {
            h.push_f64(v);
        }
        for dist in [code_reuse, data_reuse, code_page_reuse, data_page_reuse] {
            dist.fingerprint_words(&mut |w| h.push(w));
        }
        for v in [
            code_compaction,
            data_compaction,
            code_huge_fraction,
            data_huge_fraction,
        ] {
            h.push_f64(v);
        }
        h.push(self.seed);
        h.push(events);
        h.finish()
    }

    /// Returns this engine's trace of `events` events under page mix
    /// `huge` — shared from the process-wide trace memo when the memo is
    /// enabled, generated afresh otherwise. A memoised trace is the same
    /// event stream a fresh generator produces, so this only trades wall
    /// time and memory.
    fn trace_for(&self, huge: HugePageMix, events: u64) -> Arc<EventBatch> {
        let generate = || {
            let n = events as usize;
            let mut trace = EventBatch::with_capacity(n);
            TraceGenerator::new(&self.spec, huge, self.seed).fill_batch(&mut trace, n);
            trace.shrink_to_fit();
            Arc::new(trace)
        };
        if !self.use_memo {
            return generate();
        }
        let key = self.trace_key(huge, events);
        let memo = TRACE_MEMO.get_or_init(|| Mutex::new(TraceMemo::default()));
        if let Ok(guard) = memo.lock() {
            if let Some(trace) = guard.traces.get(&key) {
                return Arc::clone(trace);
            }
        }
        // Build outside the lock; a racing builder produces the same trace
        // and the first one to publish wins.
        let trace = generate();
        let bytes = trace.heap_bytes();
        if bytes > TRACE_MEMO_BYTES {
            return trace;
        }
        if let Ok(mut guard) = memo.lock() {
            if let Some(first) = guard.traces.get(&key) {
                return Arc::clone(first);
            }
            if guard.bytes + bytes > TRACE_MEMO_BYTES {
                guard.traces.clear();
                guard.bytes = 0;
            }
            guard.bytes += bytes;
            guard.traces.insert(key, Arc::clone(&trace));
        }
        trace
    }

    /// Returns the pre-filled structure hierarchy for this engine's config
    /// at the given LLC share — from the process-wide snapshot cache when
    /// the memo is enabled, built from scratch otherwise. A restored
    /// snapshot is bit-identical to a rebuild (construction and pre-fill
    /// are deterministic), so this only trades wall time.
    fn structures_for(&self, share: f64) -> Result<WarmStructures, ArchSimError> {
        if !self.use_memo {
            return build_warm_structures(&self.config, &self.spec, share);
        }
        let key = self.structure_key(share);
        let memo = STRUCT_MEMO.get_or_init(|| Mutex::new(HashMap::new()));
        if let Ok(guard) = memo.lock() {
            if let Some(warm) = guard.get(&key) {
                return Ok(warm.clone());
            }
        }
        let warm = build_warm_structures(&self.config, &self.spec, share)?;
        if let Ok(mut guard) = memo.lock() {
            if guard.len() >= STRUCT_MEMO_CAP {
                guard.clear();
            }
            guard.insert(key, warm.clone());
        }
        Ok(warm)
    }

    /// Simulates `instructions` instructions at `load_fraction` of peak
    /// offered load and returns the full report: the one-load case of
    /// [`Engine::run_loads`].
    ///
    /// # Errors
    ///
    /// As [`Engine::run_loads`].
    pub fn run_window(
        &self,
        instructions: u64,
        load_fraction: f64,
    ) -> Result<WindowReport, ArchSimError> {
        self.run_colocated(instructions, load_fraction, 0.0, None)
    }

    /// Simulates one window at each of `loads` (fractions of peak offered
    /// load, clamped to `[0.05, 1]`) and returns one report per load, in
    /// order. Each report is bit-identical to `run_window(instructions,
    /// load)` for its load.
    ///
    /// Load reaches the structure pass only through the context-switch
    /// flush points, so all loads share one trace, one branch-sampling
    /// sequence and one chunk schedule, and each drives a private copy of
    /// the cache/TLB hierarchy (see DESIGN.md §13.5). Loads already in the
    /// report memo are served from it under their single-load keys; the
    /// misses are evaluated together in one pass. An empty slice returns
    /// an empty vector.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::NonFinite`] for a NaN or infinite load;
    /// [`ArchSimError::FixedPointDiverged`] if the bandwidth/latency
    /// iteration fails to settle (does not happen for valid configs; the
    /// queueing curve is a contraction under damping).
    pub fn run_loads(
        &self,
        instructions: u64,
        loads: &[f64],
    ) -> Result<Vec<WindowReport>, ArchSimError> {
        self.run_points(instructions, loads, 0.0, None)
    }

    /// Simulates a window while sharing the socket with a co-runner: the
    /// co-runner contributes `background_bw_gbps` of memory traffic to the
    /// loaded-latency queue (a negative value counts as none), and
    /// `llc_share` (when given) overrides this workload's effective LLC
    /// fraction (paper Sec. 7: "µSKU and co-location"). `run_window` is the
    /// dedicated-server special case.
    ///
    /// Repeated evaluations of the same tuple — the common case when
    /// `AbEnvironment::fork` spins up replicas that re-measure their
    /// parent's operating points — are served from a process-wide memo
    /// (see `REPORT_MEMO` in this module) instead of re-running the warm-up
    /// and window.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_loads`], plus [`ArchSimError::NonFinite`] for
    /// a NaN or infinite `background_bw_gbps` and
    /// [`ArchSimError::InvalidFraction`] for an out-of-range `llc_share`.
    pub fn run_colocated(
        &self,
        instructions: u64,
        load_fraction: f64,
        background_bw_gbps: f64,
        llc_share: Option<f64>,
    ) -> Result<WindowReport, ArchSimError> {
        let mut reports = self.run_points(
            instructions,
            &[load_fraction],
            background_bw_gbps,
            llc_share,
        )?;
        // One report per load.
        Ok(reports.swap_remove(0))
    }

    /// The body of every entry point: validates the call arguments, serves
    /// memo hits, and evaluates the misses in one shared pass.
    fn run_points(
        &self,
        instructions: u64,
        loads: &[f64],
        background_bw_gbps: f64,
        llc_share: Option<f64>,
    ) -> Result<Vec<WindowReport>, ArchSimError> {
        if let Some(s) = llc_share {
            if !(s > 0.0 && s <= 1.0) {
                return Err(ArchSimError::InvalidFraction {
                    name: "llc_share".to_string(),
                    value: s,
                });
            }
        }
        let arguments = std::iter::once(("background_bw_gbps", background_bw_gbps))
            .chain(loads.iter().map(|&l| ("load_fraction", l)));
        for (name, value) in arguments {
            if !value.is_finite() {
                return Err(ArchSimError::NonFinite {
                    name: name.to_string(),
                    value,
                });
            }
        }
        if loads.is_empty() {
            return Ok(Vec::new());
        }
        if !self.use_memo {
            return self.evaluate(instructions, loads, background_bw_gbps, llc_share);
        }
        let keys: Vec<u128> = loads
            .iter()
            .map(|&l| self.fingerprint(instructions, l, background_bw_gbps, llc_share))
            .collect();
        let memo = REPORT_MEMO.get_or_init(|| Mutex::new(HashMap::new()));
        // A poisoned lock only disables the memo (another thread panicked
        // mid-simulation elsewhere); correctness never depends on it.
        let mut reports: Vec<Option<WindowReport>> = match memo.lock() {
            Ok(guard) => keys.iter().map(|k| guard.get(k).cloned()).collect(),
            Err(_) => vec![None; keys.len()],
        };
        let misses: Vec<f64> = loads
            .iter()
            .zip(&reports)
            .filter(|(_, hit)| hit.is_none())
            .map(|(&l, _)| l)
            .collect();
        if !misses.is_empty() {
            let fresh = self.evaluate(instructions, &misses, background_bw_gbps, llc_share)?;
            let mut guard = memo.lock().ok();
            let empty = reports
                .iter_mut()
                .zip(&keys)
                .filter(|(slot, _)| slot.is_none());
            for ((slot, &key), report) in empty.zip(fresh) {
                if let Some(map) = guard.as_mut() {
                    if map.len() >= REPORT_MEMO_CAP {
                        map.clear();
                    }
                    map.insert(key, report.clone());
                }
                *slot = Some(report);
            }
        }
        Ok(reports.into_iter().flatten().collect())
    }

    /// The window simulation behind [`Engine::run_points`]: one trace pass
    /// that evaluates every load and returns one report per load, in
    /// order. A pure function of the fingerprinted inputs.
    fn evaluate(
        &self,
        instructions: u64,
        loads: &[f64],
        background_bw_gbps: f64,
        llc_share: Option<f64>,
    ) -> Result<Vec<WindowReport>, ArchSimError> {
        let cfg = &self.config;
        let spec = &self.spec;
        let plat = &cfg.platform;

        // ------------------------------------------------------------------
        // 1. Resolve derived policies (none depends on load).
        // ------------------------------------------------------------------
        let freq = cfg.effective_core_freq_ghz(spec.mix.fp);
        let policy = self.page_policy();
        let resolved = Resolved {
            freq,
            policy,
            pf: PrefetchEffect::resolve(cfg.prefetchers, &spec.prefetch),
            memory: MemoryModel::new(plat, cfg.uncore_freq_ghz),
        };

        // Per-core effective LLC share under multi-core contention. The LLC
        // is per-socket, so only cores within a socket contend. A co-runner
        // override replaces the same-workload contention estimate.
        let contending = (cfg.active_cores as f64).min(plat.cores_per_socket as f64);
        let share = match llc_share {
            Some(s) => s,
            None => 1.0 / (1.0 + (contending - 1.0) * spec.llc_contention),
        };

        // ------------------------------------------------------------------
        // 2. One lane per distinct clamped load (duplicates share a lane),
        //    each with a private copy of the pre-filled hierarchy.
        // ------------------------------------------------------------------
        let mut lane_loads: Vec<f64> = Vec::new();
        let lane_of: Vec<usize> = loads
            .iter()
            .map(|l| {
                let load = l.clamp(0.05, 1.0);
                match lane_loads
                    .iter()
                    .position(|x| x.to_bits() == load.to_bits())
                {
                    Some(k) => k,
                    None => {
                        lane_loads.push(load);
                        lane_loads.len() - 1
                    }
                }
            })
            .collect();
        let warm = self.structures_for(share)?;
        let mut lanes: Vec<Lane> = vec![warm; lane_loads.len()]
            .into_iter()
            .zip(&lane_loads)
            .map(|(warm, &load)| {
                // Context-switch injection interval (instructions); uses a
                // nominal IPC guess of 1 — only the *pollution placement*
                // depends on it, the direct cost is computed analytically
                // in `settle`.
                let cs_rate = spec.context_switch.rate_per_sec * load;
                let switch_every =
                    (cs_rate > 0.0).then(|| ((freq * 1e9) / cs_rate).max(1_000.0) as u64);
                Lane {
                    load,
                    warm,
                    c: Counters::default(),
                    switch_every,
                }
            })
            .collect();
        let mut bpu = BranchPredictor::new(
            spec.branch.base_mispredict,
            spec.branch.branch_working_set,
            plat.btb_entries,
        );
        let mut rng = rand_for(softsku_telemetry::stream_seed(
            self.seed,
            softsku_telemetry::StreamFamily::EngineSampling,
        ));

        // ------------------------------------------------------------------
        // 3. Drive the structures (batched tick).
        //
        // The per-event probe chain is restructured into per-structure
        // passes over an SoA event batch. Bit-identity with the per-event
        // loop holds because (a) `fill_batch` consumes the trace RNG in the
        // exact per-event draw order, (b) the independent structures (L1i,
        // L1d, first-level ITLB/DTLB, partitioned LLC sides, BPU) each see
        // their exact per-event access subsequence, and (c) the *shared*
        // structures (unified L2, unified STLB) are driven by an
        // event-ordered merge of the first-level misses, code before data
        // within an event — the per-event probe order. Chunk boundaries are
        // clamped so the warm-up reset and every lane's context-switch
        // flushes land between the same events as in the per-event loop;
        // a boundary another lane needs only splits a chunk, which no
        // result depends on.
        // ------------------------------------------------------------------
        let warmup = self.warmup(instructions);
        let total = instructions + warmup;
        let poll = spec.context_switch.pollution_fraction;
        let trace = self.trace_for(huge_mix(&policy), total);

        let batch_events = self.batch_events as u64;
        let mut batch = EventBatch::with_capacity(self.batch_events.min(total as usize));
        let mut misses = MissLists::default();

        let mut i: u64 = 0;
        while i < total {
            if i == warmup {
                bpu.reset_stats();
                for lane in &mut lanes {
                    lane.warm.reset_stats();
                    lane.c = Counters::default();
                }
            }
            // Chunk end: never cross the warm-up reset, and end exactly at
            // each lane's next context-switch point (the flush lands after
            // that event).
            let mut end = total.min(i.saturating_add(batch_events));
            if i < warmup {
                end = end.min(warmup);
            }
            for lane in &lanes {
                if let Some(next) = lane.next_switch(i) {
                    end = end.min(next.saturating_add(1));
                }
            }
            let n = (end - i) as usize;
            batch.copy_chunk(&trace, i as usize..end as usize);

            // Branch pass, shared by every lane: the BPU carries no state
            // between draws, so replaying the batch's branch count consumes
            // the engine sampling stream in exactly the per-event order.
            let mut mispredicts = 0;
            for _ in 0..batch.branches {
                if bpu.predict(&mut rng) {
                    mispredicts += 1;
                }
            }

            let last = end - 1;
            for lane in &mut lanes {
                // Whole-batch class tallies (no per-event dispatch).
                let c = &mut lane.c;
                c.instructions += n as u64;
                c.code_accesses += n as u64;
                c.branches += batch.branches;
                c.fp_ops += batch.fp_ops;
                c.loads += batch.loads;
                c.stores += batch.stores;
                c.data_accesses += batch.loads + batch.stores;
                c.branch_mispredicts += mispredicts;
                lane.warm.drive(&batch, c, &mut misses);
                // Context-switch pollution after the event at the switch
                // point.
                if last > 0 && lane.switch_every.is_some_and(|p| last.is_multiple_of(p)) {
                    lane.warm.flush_fraction(poll);
                }
            }
            i = end;
        }

        // Fill TLB/branch aggregate stats into counters, then settle each
        // lane's operating point.
        let (_, _, btb_misses) = bpu.stats();
        let mut reports = Vec::with_capacity(lanes.len());
        for Lane {
            load, warm, mut c, ..
        } in lanes
        {
            let (_, itlb_misses, itlb_walks) = warm.tlb.itlb_stats();
            let (_, dtlb_misses, dtlb_walks) = warm.tlb.dtlb_stats();
            c.itlb_misses = itlb_misses;
            c.itlb_walks = itlb_walks;
            c.dtlb_misses = dtlb_misses;
            c.dtlb_walks = dtlb_walks;
            c.btb_misses = btb_misses;
            reports.push(self.settle(c, load, background_bw_gbps, &resolved)?);
        }
        Ok(lane_of.iter().map(|&k| reports[k].clone()).collect())
    }

    /// The page policy (huge-page coverage and SHP pressure) this engine's
    /// THP/SHP knobs resolve to for its workload.
    fn page_policy(&self) -> PagePolicy {
        let cfg = &self.config;
        PagePolicy::resolve(
            &self.spec.pages,
            cfg.thp,
            cfg.shp_pages,
            cfg.thp_traits(),
            cfg.machine_memory_bytes,
        )
    }

    /// Warm-up instructions simulated before a window of `instructions`.
    /// The pre-fill supplies steady-state contents; the warm-up only needs
    /// to mix the interleaved structures.
    fn warmup(&self, instructions: u64) -> u64 {
        self.warmup_override.unwrap_or_else(|| {
            ((instructions as f64 * WARMUP_FRACTION) as u64).clamp(50_000, 400_000)
        })
    }

    /// Turns one lane's measured counters into its report: prefetch and SHP
    /// transforms, then the CPI fixed point at `load`.
    fn settle(
        &self,
        mut c: Counters,
        load: f64,
        background_bw_gbps: f64,
        resolved: &Resolved,
    ) -> Result<WindowReport, ArchSimError> {
        let cfg = &self.config;
        let spec = &self.spec;
        let plat = &cfg.platform;
        let Resolved {
            freq,
            policy,
            pf,
            memory,
        } = *resolved;
        let n = cfg.active_cores as f64;
        let cs_rate = spec.context_switch.rate_per_sec * load;

        // ------------------------------------------------------------------
        // 4. Prefetch coverage + SHP pressure transforms (aggregate).
        // ------------------------------------------------------------------
        let ins = c.instructions as f64;
        let shp_bump = 1.0 + policy.shp_pressure_penalty * SHP_PRESSURE_GAIN;

        let m1 = c.l1d_misses as f64;
        let m2 = c.l2_data_misses as f64 * shp_bump;
        let m3 = c.llc_data_misses as f64 * shp_bump;
        let l1d_eff = m1 * (1.0 - pf.l1d_coverage);
        let l2d_eff = m2 * (1.0 - pf.l1d_coverage * 0.5) * (1.0 - pf.l2_coverage);
        let llcd_eff = m3 * (1.0 - pf.l1d_coverage * 0.3) * (1.0 - pf.l2_coverage * 0.5);
        // Memory-latency exposure after stream-prefetch hiding.
        let llcd_exposed = llcd_eff * (1.0 - pf.llc_coverage);

        // Prefetch waste at the *memory interface*: only prefetches that
        // fill from DRAM cost bandwidth — the DCU units fill from L2/LLC.
        // Waste scales with the LLC-miss fill volume initiated by the L2
        // stream machinery.
        let mem_prefetch_share = pf.llc_coverage + 0.3 * pf.l2_coverage;
        let waste_lines = m3 * mem_prefetch_share * pf.traffic_overhead;

        // Memory traffic (lines): all LLC data misses move a line regardless
        // of latency hiding, plus code misses, prefetch waste, writebacks.
        let store_share = if c.data_accesses > 0 {
            c.stores as f64 / c.data_accesses as f64
        } else {
            0.0
        };
        c.mem_demand_lines = m3 + c.llc_code_misses as f64;
        c.mem_prefetch_lines = waste_lines;
        c.mem_writeback_lines = m3 * store_share * spec.writeback_factor * 2.0;
        let pf_frac = spec.extra_traffic_prefetch_fraction.clamp(0.0, 1.0);
        let extra_scale = (1.0 - pf_frac) + pf_frac * cfg.prefetchers.traffic_weight();
        c.mem_extra_lines = spec.extra_mem_lines_per_ki * extra_scale * ins / 1000.0;

        // ------------------------------------------------------------------
        // 5. CPI fixed point (memory latency <-> bandwidth).
        // ------------------------------------------------------------------
        // Latencies in core cycles at frequency `freq`.
        let l2_lat = plat.l2.latency_cycles as f64;
        // LLC and memory live in the uncore clock domain: express their
        // nominal latencies in ns at nominal uncore, then convert.
        let uncore_nominal = plat.uncore_freq_range_ghz.1;
        let llc_ns = plat.llc.latency_cycles as f64 / uncore_nominal
            * (uncore_nominal / cfg.uncore_freq_ghz);
        let llc_lat = llc_ns * freq;
        let walk_cycles = plat.page_walk_cycles as f64;

        let mispredicts = c.branch_mispredicts as f64;
        let base = ins * base_cpi(&spec.mix) * spec.base_cpi_scale;
        let fp_extra = if spec.mix.fp >= plat.avx_fp_threshold {
            c.fp_ops as f64 * FP_PRESSURE_CPI
        } else {
            0.0
        };

        let l1i_to_l2 = (c.l1i_misses - c.l2_code_misses.min(c.l1i_misses)) as f64;
        let l2c_to_llc = (c.l2_code_misses - c.llc_code_misses.min(c.l2_code_misses)) as f64;
        let llcc_to_mem = c.llc_code_misses as f64;
        let itlb_stlb_hits = (c.itlb_misses - c.itlb_walks) as f64;
        let dtlb_stlb_hits = (c.dtlb_misses - c.dtlb_walks) as f64;

        let l1d_to_l2 = (l1d_eff - l2d_eff).max(0.0);
        let l2d_to_llc = (l2d_eff - llcd_eff).max(0.0);

        let mut mem_lat_ns = memory.unloaded_latency_ns();
        let mut report = None;
        let max_iter = 400;
        for iter in 0..max_iter {
            let mem_lat = mem_lat_ns * freq; // cycles

            let frontend = spec.frontend_exposure
                * (l1i_to_l2 * l2_lat * FE_L2_CHARGE
                    + l2c_to_llc * llc_lat * FE_LLC_CHARGE
                    + llcc_to_mem * mem_lat * FE_MEM_CHARGE
                    + itlb_stlb_hits * STLB_HIT_CYCLES
                    + c.itlb_walks as f64 * walk_cycles * ITLB_WALK_CHARGE);
            let bad_spec = mispredicts * plat.mispredict_penalty_cycles as f64;
            let backend = (l1d_to_l2 * l2_lat
                + l2d_to_llc * llc_lat
                + llcd_exposed * mem_lat
                + (llcd_eff - llcd_exposed) * llc_lat)
                / spec.mlp
                + dtlb_stlb_hits * STLB_HIT_CYCLES
                + c.dtlb_walks as f64 * walk_cycles * DTLB_WALK_CHARGE
                + fp_extra;

            // Context switch direct cost: midpoint of the bound range.
            let time_guess_s = (base + frontend + bad_spec + backend).max(1.0) / (freq * 1e9);
            let switches = cs_rate * time_guess_s;
            let cs_us = 0.5
                * (spec.context_switch.direct_cost_us_low
                    + spec.context_switch.direct_cost_us_high);
            let cs_cycles = switches * cs_us * 1e-6 * freq * 1e9;

            let parts = CpiParts {
                base,
                frontend,
                bad_speculation: bad_spec,
                backend_memory: backend,
                context_switch: cs_cycles,
            };
            let cycles = parts.total();
            let ipc_thread = ins / cycles;
            let width = plat.issue_width as f64;
            let ipc_core = (ipc_thread * (1.0 + spec.smt_gain)).min(width);
            let mips_core = ipc_core * freq * 1e3; // MIPS (million insn/s)
            let mips_total = mips_core * n * load;

            let lines_per_insn = c.mem_total_lines() / ins;
            let bytes_per_sec = lines_per_insn * CACHE_LINE_BYTES as f64 * mips_total * 1e6;
            let offered_gbps = bytes_per_sec / 1e9;
            // A co-runner's traffic loads the same memory queue.
            let offered_total = offered_gbps + background_bw_gbps.max(0.0);
            let bw = memory.deliverable_bandwidth_gbps(offered_gbps);
            let new_lat = memory.loaded_latency_ns(offered_total, spec.burstiness);

            let converged = (new_lat - mem_lat_ns).abs() < 1e-3 * new_lat.max(1.0);
            if converged || iter == max_iter - 1 {
                let utilization = memory.utilization(bw + background_bw_gbps.max(0.0));
                let mut final_c = c;
                final_c.cycles = cycles;
                final_c.context_switches = switches;
                let tmam = TmamBreakdown::from_cycles(ins, cycles, frontend, bad_spec, width);
                report = Some(WindowReport {
                    counters: final_c,
                    ipc_thread,
                    ipc_core,
                    mips_per_core: mips_core,
                    mips_total,
                    bandwidth_gbps: bw,
                    mem_latency_ns: new_lat,
                    mem_utilization: utilization,
                    bandwidth_bound: utilization > 0.90,
                    cpi: parts,
                    tmam,
                    effective_core_freq_ghz: freq,
                    context_switch_fraction: cs_cycles / cycles,
                });
                break;
            }
            // Heavily damped update: the loaded-latency curve is steep near
            // saturation and an undamped (or lightly damped) iteration
            // oscillates between a high-latency/low-throughput state and its
            // mirror image.
            mem_lat_ns = 0.85 * mem_lat_ns + 0.15 * new_lat;
        }
        report.ok_or(ArchSimError::FixedPointDiverged {
            iterations: max_iter,
        })
    }
}

/// The load-independent policies one evaluation resolves from its config
/// and spec before the structure pass.
struct Resolved {
    /// Core frequency after the AVX tax, GHz.
    freq: f64,
    policy: PagePolicy,
    pf: PrefetchEffect,
    memory: MemoryModel,
}

/// One load's private state in a shared trace pass: its own copy of the
/// hierarchy and its own counters, flushed only at its own
/// context-switch points.
struct Lane {
    /// Clamped load fraction.
    load: f64,
    warm: WarmStructures,
    c: Counters,
    /// Instructions between context switches; `None` when the workload
    /// never switches.
    switch_every: Option<u64>,
}

impl Lane {
    /// The first switch point at or after event `i` (event 0 never
    /// switches).
    fn next_switch(&self, i: u64) -> Option<u64> {
        self.switch_every
            .map(|p| if i == 0 { p } else { i.div_ceil(p) * p })
    }
}

/// First-level miss lists reused across chunks and lanes: event indices
/// for the code side, data-slot indices for the data side.
#[derive(Default)]
struct MissLists {
    l1i: Vec<u32>,
    l1d: Vec<u32>,
    itlb: Vec<u32>,
    dtlb: Vec<u32>,
}

impl WarmStructures {
    /// Drives one chunk of events through the hierarchy and tallies the
    /// structure counters into `c`.
    fn drive(&mut self, batch: &EventBatch, c: &mut Counters, miss: &mut MissLists) {
        let WarmStructures {
            l1i,
            l1d,
            l2,
            llc,
            tlb,
        } = self;

        // Independent first-level passes: one array sweep per structure.
        // The LLC is probed (and its recency updated) on every L1 miss —
        // mostly-inclusive behaviour; without the recency refresh, lines
        // hot in L2 would go LLC-stale and the capacity between L2 and
        // LLC would be invisible.
        miss.l1i.clear();
        for (k, &line) in batch.code_lines.iter().enumerate() {
            if !l1i.access(line) {
                miss.l1i.push(k as u32);
            }
        }
        c.l1i_misses += miss.l1i.len() as u64;

        miss.itlb.clear();
        for (k, &page) in batch.code_pages.iter().enumerate() {
            if !tlb.probe_code_l1(page, batch.code_huge[k]) {
                miss.itlb.push(k as u32);
            }
        }

        miss.l1d.clear();
        for (s, &line) in batch.data_lines.iter().enumerate() {
            if !l1d.access(line) {
                miss.l1d.push(s as u32);
            }
        }
        c.l1d_misses += miss.l1d.len() as u64;

        miss.dtlb.clear();
        for (s, &page) in batch.data_pages.iter().enumerate() {
            if !tlb.probe_data_l1(page, batch.data_huge[s]) {
                miss.dtlb.push(s as u32);
                if batch.data_is_store[s] {
                    c.dtlb_store_misses += 1;
                } else {
                    c.dtlb_load_misses += 1;
                }
            }
        }

        // Ordered fix-up over the shared L2 (and the LLC, probed right
        // after it per missing event): event-ordered merge of the
        // first-level misses, code before data within an event.
        let (mut ci, mut di) = (0usize, 0usize);
        while ci < miss.l1i.len() || di < miss.l1d.len() {
            let ce = miss.l1i.get(ci).copied().unwrap_or(u32::MAX);
            let de = miss
                .l1d
                .get(di)
                .map_or(u32::MAX, |&s| batch.data_event[s as usize]);
            if ce <= de {
                let line = batch.code_lines[ce as usize];
                let l2_hit = l2.access(line | CODE_TAG);
                let llc_hit = llc.access_code(line);
                if !l2_hit {
                    c.l2_code_misses += 1;
                    if !llc_hit {
                        c.llc_code_misses += 1;
                    }
                }
                ci += 1;
            } else {
                let s = miss.l1d[di] as usize;
                let line = batch.data_lines[s];
                let l2_hit = l2.access(line);
                let llc_hit = llc.access_data(line);
                if !l2_hit {
                    c.l2_data_misses += 1;
                    if !llc_hit {
                        c.llc_data_misses += 1;
                    }
                }
                di += 1;
            }
        }

        // Same event-ordered merge for the shared STLB.
        let (mut ci, mut di) = (0usize, 0usize);
        while ci < miss.itlb.len() || di < miss.dtlb.len() {
            let ce = miss.itlb.get(ci).copied().unwrap_or(u32::MAX);
            let de = miss
                .dtlb
                .get(di)
                .map_or(u32::MAX, |&s| batch.data_event[s as usize]);
            if ce <= de {
                let k = ce as usize;
                let _ = tlb.probe_stlb_code(batch.code_pages[k], batch.code_huge[k]);
                ci += 1;
            } else {
                let s = miss.dtlb[di] as usize;
                let _ = tlb.probe_stlb_data(batch.data_pages[s], batch.data_huge[s]);
                di += 1;
            }
        }
    }

    /// Clears every structure's statistics (the warm-up reset).
    fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.tlb.reset_stats();
    }

    /// Context-switch pollution: drops `poll` of the private structures'
    /// contents (half of it in the L2); the LLC is left intact.
    fn flush_fraction(&mut self, poll: f64) {
        self.l1i.flush_fraction(poll);
        self.l1d.flush_fraction(poll);
        self.l2.flush_fraction(poll * 0.5);
        self.tlb.flush_fraction(poll);
    }
}

/// Builds the cache/TLB hierarchy and pre-fills it with steady-state MRU
/// contents.
///
/// The stack mappers start at steady state (pre-warmed stacks), but a cold
/// cache would need millions of accesses before lines at LLC-scale reuse
/// distances could hit: every deep re-reference would be an in-structure
/// compulsory miss and large-capacity hits would be invisible in a short
/// window. Seed each structure with the top of the corresponding stream's
/// LRU stack, deepest-first so recency order matches.
///
/// Deterministic — no RNG is consumed — so the result is a pure function
/// of the geometry, the LLC share, and the reuse distributions, and a
/// cached clone (see [`STRUCT_MEMO`]) is bit-identical to a rebuild.
fn build_warm_structures(
    cfg: &ServerConfig,
    spec: &StreamSpec,
    share: f64,
) -> Result<WarmStructures, ArchSimError> {
    use crate::trace::prewarm_len;
    let plat = &cfg.platform;
    let mut l1i = SetAssocCache::from_geometry(&plat.l1i, plat.l1i.ways, 1.0)?;
    let mut l1d = SetAssocCache::from_geometry(&plat.l1d, plat.l1d.ways, 1.0)?;
    let mut l2 = SetAssocCache::from_geometry(&plat.l2, plat.l2.ways, 1.0)?;
    let mut llc = match cfg.cdp {
        Some(p) => SharedLlc::build(&plat.llc, cfg.llc_ways_enabled, Some(p), share)?,
        None => SharedLlc::natural_split(
            &plat.llc,
            cfg.llc_ways_enabled,
            spec.natural_code_llc_share.clamp(0.05, 0.95),
            share,
        )?,
    };
    let mut tlb = TlbHierarchy::new(&plat.itlb, &plat.dtlb, plat.stlb_entries)?;

    let code_pw = prewarm_len(&spec.code_reuse);
    let data_pw = prewarm_len(&spec.data_reuse);
    let (code_cap, data_cap) = llc.capacities();
    for id in code_pw.saturating_sub(code_cap)..code_pw {
        llc.access_code(id);
    }
    for id in data_pw.saturating_sub(data_cap)..data_pw {
        llc.access_data(id);
    }
    // L2 is unified: interleave the two streams' MRU halves.
    let half = plat.l2.lines() / 2;
    for i in (1..=half).rev() {
        if i <= code_pw {
            l2.access((code_pw - i) | CODE_TAG);
        }
        if i <= data_pw {
            l2.access(data_pw - i);
        }
    }
    for id in code_pw.saturating_sub(plat.l1i.lines())..code_pw {
        l1i.access(id);
    }
    for id in data_pw.saturating_sub(plat.l1d.lines())..data_pw {
        l1d.access(id);
    }
    // TLBs: seed the 4 KiB sides (the dominant arrays) with the top pages
    // of each page stream; accesses insert into the STLB too.
    let cp_pw = prewarm_len(&spec.code_page_reuse);
    let dp_pw = prewarm_len(&spec.data_page_reuse);
    let seedn = plat.stlb_entries as u64 / 2;
    for id in cp_pw.saturating_sub(seedn)..cp_pw {
        let _ = tlb.access_code(id, false);
    }
    for id in dp_pw.saturating_sub(seedn)..dp_pw {
        let _ = tlb.access_data(id, false);
    }
    let mut warm = WarmStructures {
        l1i,
        l1d,
        l2,
        llc,
        tlb,
    };
    warm.reset_stats();
    Ok(warm)
}

/// The huge-page coverage a page policy gives the trace generator.
fn huge_mix(policy: &PagePolicy) -> HugePageMix {
    HugePageMix {
        code_huge_fraction: policy.huge_code_fraction,
        data_huge_fraction: policy.huge_data_fraction,
    }
}

/// Base (no-stall) CPI from the instruction mix: per-class issue costs on a
/// 4-wide machine with typical port pressure.
fn base_cpi(mix: &crate::stream::InstructionMix) -> f64 {
    0.25 * mix.arith + 0.28 * mix.branch + 0.40 * mix.fp + 0.30 * mix.load + 0.30 * mix.store
}

fn rand_for(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseDistanceDist;
    use crate::stream::{
        BranchProfile, ContextSwitchProfile, InstructionMix, PageProfile, PrefetchAffinity,
    };

    fn test_spec() -> StreamSpec {
        let line = ReuseDistanceDist::from_survival_points(
            &[(400, 0.12), (12_000, 0.03), (300_000, 0.008)],
            0.002,
            2_000_000,
        )
        .unwrap();
        let code = ReuseDistanceDist::from_survival_points(
            &[(400, 0.06), (12_000, 0.01)],
            0.0005,
            200_000,
        )
        .unwrap();
        let page = ReuseDistanceDist::single_knee(48, 0.02, 0.002, 60_000).unwrap();
        StreamSpec {
            name: "engine-test".to_string(),
            mix: InstructionMix::new(0.20, 0.02, 0.29, 0.34, 0.15).unwrap(),
            code_reuse: code,
            data_reuse: line,
            code_page_reuse: page.clone(),
            data_page_reuse: page,
            branch: BranchProfile {
                taken_rate: 0.6,
                base_mispredict: 0.02,
                branch_working_set: 2000,
            },
            prefetch: PrefetchAffinity::modest(),
            pages: PageProfile {
                data_compaction: 32.0,
                code_compaction: 128.0,
                madvise_fraction: 0.25,
                uses_shp: true,
                shp_target_bytes: 300 * (2 << 20),
            },
            context_switch: ContextSwitchProfile::quiet(),
            mlp: 3.5,
            smt_gain: 0.25,
            base_cpi_scale: 1.0,
            writeback_factor: 0.4,
            burstiness: 1.0,
            llc_contention: 0.3,
            natural_code_llc_share: 0.35,
            extra_mem_lines_per_ki: 0.0,
            extra_traffic_prefetch_fraction: 0.3,
            frontend_exposure: 0.6,
        }
    }

    fn engine_with(cfg: ServerConfig) -> Engine {
        Engine::new(cfg, test_spec(), 7).unwrap()
    }

    const WINDOW: u64 = 150_000;

    #[test]
    fn stock_config_runs_and_is_sane() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        let r = e.run_window(WINDOW, 1.0).unwrap();
        assert!(
            r.ipc_thread > 0.1 && r.ipc_thread < 4.0,
            "ipc {}",
            r.ipc_thread
        );
        assert!(r.ipc_core >= r.ipc_thread);
        assert!(r.mips_total > 0.0);
        assert!(r.mem_latency_ns >= 85.0);
        let t = r.tmam;
        let sum = t.retiring + t.frontend + t.bad_speculation + t.backend;
        assert!((sum - 1.0).abs() < 1e-9, "TMAM must sum to 1, got {sum}");
        assert!(t.retiring > 0.0 && t.retiring < 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        let a = e.run_window(WINDOW, 1.0).unwrap();
        let b = e.run_window(WINDOW, 1.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn higher_core_frequency_means_more_mips() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.core_freq_ghz = 2.2;
        let fast = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.core_freq_ghz = 1.6;
        let slow = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(fast.mips_total > slow.mips_total * 1.05);
        // Sub-linear: memory latency in cycles grows with frequency.
        let ratio = fast.mips_total / slow.mips_total;
        assert!(ratio < 2.2 / 1.6, "scaling must be sub-linear, got {ratio}");
    }

    #[test]
    fn lower_uncore_frequency_hurts() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.uncore_freq_ghz = 1.8;
        let fast = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.uncore_freq_ghz = 1.4;
        let slow = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(fast.mips_total > slow.mips_total);
    }

    #[test]
    fn fewer_llc_ways_more_misses() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.llc_ways_enabled = 11;
        let full = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.llc_ways_enabled = 2;
        let tiny = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(
            tiny.counters.llc_data_mpki() > full.counters.llc_data_mpki(),
            "2 ways {} vs 11 ways {}",
            tiny.counters.llc_data_mpki(),
            full.counters.llc_data_mpki()
        );
    }

    #[test]
    fn invalid_configs_rejected_at_construction() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.core_freq_ghz = 3.0;
        assert!(Engine::new(cfg, test_spec(), 0).is_err());

        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.cdp = Some(CdpPartition {
            data_ways: 6,
            code_ways: 6,
        });
        assert!(Engine::new(cfg, test_spec(), 0).is_err());

        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.active_cores = 0;
        assert!(Engine::new(cfg, test_spec(), 0).is_err());
    }

    #[test]
    fn avx_tax_applies_to_fp_heavy_mix() {
        let cfg = ServerConfig::stock(PlatformSpec::skylake18());
        assert_eq!(cfg.effective_core_freq_ghz(0.05), 2.2);
        assert_eq!(cfg.effective_core_freq_ghz(0.30), 2.0);
    }

    #[test]
    fn prefetchers_help_when_bandwidth_is_free() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.prefetchers = PrefetcherConfig::all_on();
        let on = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.prefetchers = PrefetcherConfig::all_off();
        let off = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(
            on.mips_total > off.mips_total,
            "prefetch on {} vs off {}",
            on.mips_total,
            off.mips_total
        );
        assert!(
            on.bandwidth_gbps > off.bandwidth_gbps,
            "prefetch adds traffic"
        );
    }

    #[test]
    fn context_switch_fraction_scales_with_rate() {
        let mut spec = test_spec();
        spec.context_switch.rate_per_sec = 150_000.0;
        spec.context_switch.pollution_fraction = 0.3;
        let busy = Engine::new(ServerConfig::stock(PlatformSpec::skylake18()), spec, 7)
            .unwrap()
            .run_window(WINDOW, 1.0)
            .unwrap();
        let quiet = engine_with(ServerConfig::stock(PlatformSpec::skylake18()))
            .run_window(WINDOW, 1.0)
            .unwrap();
        assert!(busy.context_switch_fraction > 10.0 * quiet.context_switch_fraction);
        assert!(busy.context_switch_fraction > 0.02 && busy.context_switch_fraction < 0.5);
    }

    #[test]
    fn load_fraction_scales_bandwidth_not_ipc_much() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        let full = e.run_window(WINDOW, 1.0).unwrap();
        let half = e.run_window(WINDOW, 0.5).unwrap();
        assert!(half.mips_total < full.mips_total);
        assert!(half.bandwidth_gbps < full.bandwidth_gbps);
    }

    #[test]
    fn thp_always_reduces_dtlb_misses() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.thp = ThpMode::AlwaysOn;
        let always = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.thp = ThpMode::NeverOn;
        let never = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(
            always.counters.dtlb_misses < never.counters.dtlb_misses,
            "always {} vs never {}",
            always.counters.dtlb_misses,
            never.counters.dtlb_misses
        );
    }

    fn is_non_finite(r: Result<impl std::fmt::Debug, ArchSimError>, arg: &str) -> bool {
        matches!(r, Err(ArchSimError::NonFinite { ref name, .. }) if name == arg)
    }

    #[test]
    fn non_finite_loads_are_rejected_on_every_entry_point() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(is_non_finite(e.run_window(WINDOW, bad), "load_fraction"));
            assert!(is_non_finite(
                e.run_colocated(WINDOW, bad, 0.0, None),
                "load_fraction"
            ));
            assert!(is_non_finite(
                e.run_loads(WINDOW, &[0.5, bad, 1.0]),
                "load_fraction"
            ));
        }
    }

    #[test]
    fn non_finite_background_bandwidth_is_rejected() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(is_non_finite(
                e.run_colocated(WINDOW, 1.0, bad, None),
                "background_bw_gbps"
            ));
        }
        // A negative co-runner bandwidth still counts as none.
        assert_eq!(
            e.run_colocated(WINDOW, 1.0, -3.0, None).unwrap(),
            e.run_window(WINDOW, 1.0).unwrap()
        );
    }

    const REPORT: u8 = 1;
    const STRUCTURE: u8 = 2;
    const TRACE: u8 = 4;

    /// One engine call's memo inputs: the engine, the call arguments, the
    /// LLC share its structure lookup resolves to, and (when set) a page
    /// mix that replaces the one its THP/SHP knobs resolve to.
    struct Lookup {
        engine: Engine,
        instructions: u64,
        load: f64,
        background_bw_gbps: f64,
        llc_share: Option<f64>,
        share: f64,
        huge: Option<HugePageMix>,
    }

    impl Lookup {
        fn new(seed: u64, load: f64) -> Self {
            Lookup {
                engine: Engine::new(
                    ServerConfig::stock(PlatformSpec::skylake18()),
                    test_spec(),
                    seed,
                )
                .unwrap(),
                instructions: WINDOW,
                load,
                background_bw_gbps: 0.0,
                llc_share: None,
                share: 0.5,
                huge: None,
            }
        }

        /// The page mix the trace lookup uses.
        fn huge(&self) -> HugePageMix {
            self.huge
                .unwrap_or_else(|| huge_mix(&self.engine.page_policy()))
        }

        /// The report, structure and trace keys of this call.
        fn keys(&self) -> [u128; 3] {
            let e = &self.engine;
            [
                e.fingerprint(
                    self.instructions,
                    self.load,
                    self.background_bw_gbps,
                    self.llc_share,
                ),
                e.structure_key(self.share),
                e.trace_key(self.huge(), self.instructions + e.warmup(self.instructions)),
            ]
        }
    }

    type Perturb = fn(&mut Lookup, f64);

    /// One perturbation per input field: the field, the keys it must
    /// change, the keys it may change (THP/SHP inputs reach the trace only
    /// through the resolved page mix, which a given nudge may leave
    /// alone), and the nudge by `k` > 0. Every key outside both sets must
    /// stay the same.
    fn perturbations() -> Vec<(&'static str, u8, u8, Perturb)> {
        let any = REPORT | STRUCTURE | TRACE;
        vec![
            ("core_freq_ghz", REPORT, 0, |l, k| {
                l.engine.config.core_freq_ghz += k
            }),
            ("uncore_freq_ghz", REPORT, 0, |l, k| {
                l.engine.config.uncore_freq_ghz += k
            }),
            ("active_cores", REPORT, 0, |l, _| {
                l.engine.config.active_cores -= 1
            }),
            ("llc_ways_enabled", REPORT | STRUCTURE, 0, |l, _| {
                l.engine.config.llc_ways_enabled -= 1
            }),
            ("cdp", REPORT | STRUCTURE, 0, |l, _| {
                l.engine.config.cdp = Some(CdpPartition {
                    data_ways: 9,
                    code_ways: 2,
                })
            }),
            ("prefetchers", REPORT, 0, |l, _| {
                l.engine.config.prefetchers.dcu ^= true
            }),
            ("thp", REPORT, TRACE, |l, _| {
                l.engine.config.thp = ThpMode::NeverOn
            }),
            ("shp_pages", REPORT, TRACE, |l, _| {
                l.engine.config.shp_pages += 100
            }),
            ("machine_memory_bytes", REPORT, TRACE, |l, _| {
                l.engine.config.machine_memory_bytes /= 2
            }),
            ("platform.kind", REPORT, TRACE, |l, _| {
                l.engine.config.platform.kind = PlatformKind::Broadwell16
            }),
            ("platform.microarchitecture", 0, 0, |l, _| {
                l.engine.config.platform.microarchitecture = "relabelled"
            }),
            (
                "platform.l1d.capacity_bytes",
                REPORT | STRUCTURE,
                0,
                |l, _| l.engine.config.platform.l1d.capacity_bytes *= 2,
            ),
            ("platform.llc.latency_cycles", REPORT, 0, |l, _| {
                l.engine.config.platform.llc.latency_cycles += 1
            }),
            ("platform.itlb.entries_4k", REPORT | STRUCTURE, 0, |l, _| {
                l.engine.config.platform.itlb.entries_4k *= 2
            }),
            ("platform.stlb_entries", REPORT | STRUCTURE, 0, |l, _| {
                l.engine.config.platform.stlb_entries *= 2
            }),
            ("platform.page_walk_cycles", REPORT, 0, |l, _| {
                l.engine.config.platform.page_walk_cycles += 1
            }),
            ("platform.btb_entries", REPORT, 0, |l, _| {
                l.engine.config.platform.btb_entries += 1
            }),
            ("platform.core_freq_range_ghz", REPORT, 0, |l, k| {
                l.engine.config.platform.core_freq_range_ghz.1 += k
            }),
            ("platform.mem_peak_bw_gbps", REPORT, 0, |l, k| {
                l.engine.config.platform.mem_peak_bw_gbps += k
            }),
            ("platform.supports_rdt", REPORT, 0, |l, _| {
                l.engine.config.platform.supports_rdt ^= true
            }),
            ("spec.name", REPORT, 0, |l, _| l.engine.spec.name.push('*')),
            ("spec.mix.branch", REPORT | TRACE, 0, |l, k| {
                l.engine.spec.mix.branch += k
            }),
            ("spec.mix.store", REPORT | TRACE, 0, |l, k| {
                l.engine.spec.mix.store += k
            }),
            ("spec.code_reuse", any, 0, |l, k| {
                l.engine.spec.code_reuse = l.engine.spec.code_reuse.compacted(1.5 + k)
            }),
            ("spec.data_reuse", any, 0, |l, k| {
                l.engine.spec.data_reuse = l.engine.spec.data_reuse.compacted(1.5 + k)
            }),
            ("spec.code_page_reuse", any, 0, |l, k| {
                l.engine.spec.code_page_reuse = l.engine.spec.code_page_reuse.compacted(1.5 + k)
            }),
            ("spec.data_page_reuse", any, 0, |l, k| {
                l.engine.spec.data_page_reuse = l.engine.spec.data_page_reuse.compacted(1.5 + k)
            }),
            ("spec.branch.base_mispredict", REPORT, 0, |l, k| {
                l.engine.spec.branch.base_mispredict += k
            }),
            ("spec.branch.branch_working_set", REPORT, 0, |l, _| {
                l.engine.spec.branch.branch_working_set += 1
            }),
            ("spec.prefetch.accuracy", REPORT, 0, |l, k| {
                l.engine.spec.prefetch.accuracy += k
            }),
            ("spec.pages.data_compaction", REPORT | TRACE, 0, |l, k| {
                l.engine.spec.pages.data_compaction += k
            }),
            ("spec.pages.code_compaction", REPORT | TRACE, 0, |l, k| {
                l.engine.spec.pages.code_compaction += k
            }),
            ("spec.pages.madvise_fraction", REPORT, TRACE, |l, k| {
                l.engine.spec.pages.madvise_fraction += k
            }),
            ("spec.pages.uses_shp", REPORT, TRACE, |l, _| {
                l.engine.spec.pages.uses_shp ^= true
            }),
            ("spec.pages.shp_target_bytes", REPORT, TRACE, |l, _| {
                l.engine.spec.pages.shp_target_bytes += 1 << 21
            }),
            ("spec.context_switch.rate_per_sec", REPORT, 0, |l, k| {
                l.engine.spec.context_switch.rate_per_sec += k
            }),
            (
                "spec.context_switch.pollution_fraction",
                REPORT,
                0,
                |l, k| l.engine.spec.context_switch.pollution_fraction += k,
            ),
            (
                "spec.context_switch.direct_cost_us_low",
                REPORT,
                0,
                |l, k| l.engine.spec.context_switch.direct_cost_us_low += k,
            ),
            ("spec.mlp", REPORT, 0, |l, k| l.engine.spec.mlp += k),
            ("spec.smt_gain", REPORT, 0, |l, k| {
                l.engine.spec.smt_gain += k
            }),
            ("spec.base_cpi_scale", REPORT, 0, |l, k| {
                l.engine.spec.base_cpi_scale += k
            }),
            ("spec.writeback_factor", REPORT, 0, |l, k| {
                l.engine.spec.writeback_factor += k
            }),
            ("spec.burstiness", REPORT, 0, |l, k| {
                l.engine.spec.burstiness += k
            }),
            ("spec.llc_contention", REPORT, 0, |l, k| {
                l.engine.spec.llc_contention += k
            }),
            (
                "spec.natural_code_llc_share",
                REPORT | STRUCTURE,
                0,
                |l, k| l.engine.spec.natural_code_llc_share += k,
            ),
            ("spec.extra_mem_lines_per_ki", REPORT, 0, |l, k| {
                l.engine.spec.extra_mem_lines_per_ki += k
            }),
            ("spec.extra_traffic_prefetch_fraction", REPORT, 0, |l, k| {
                l.engine.spec.extra_traffic_prefetch_fraction += k
            }),
            ("spec.frontend_exposure", REPORT, 0, |l, k| {
                l.engine.spec.frontend_exposure += k
            }),
            ("seed", REPORT | TRACE, 0, |l, _| {
                l.engine.seed = l.engine.seed.wrapping_add(1)
            }),
            ("warmup_override", REPORT | TRACE, 0, |l, _| {
                l.engine.warmup_override = Some(123_457)
            }),
            ("batch_events", 0, 0, |l, _| l.engine.batch_events = 7),
            ("use_memo", 0, 0, |l, _| l.engine.use_memo = false),
            ("instructions", REPORT | TRACE, 0, |l, _| {
                l.instructions += 1_000
            }),
            ("load_fraction", REPORT, 0, |l, k| l.load += k),
            ("background_bw_gbps", REPORT, 0, |l, k| {
                l.background_bw_gbps += k
            }),
            ("llc_share", REPORT, 0, |l, _| l.llc_share = Some(0.5)),
            ("share", STRUCTURE, 0, |l, k| l.share += k),
            ("huge.code_huge_fraction", TRACE, 0, |l, k| {
                let mut huge = l.huge();
                huge.code_huge_fraction += k;
                l.huge = Some(huge);
            }),
            ("huge.data_huge_fraction", TRACE, 0, |l, k| {
                let mut huge = l.huge();
                huge.data_huge_fraction += k;
                l.huge = Some(huge);
            }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Every memo key covers exactly its inputs: a nudge to a field a
        /// key reads changes the key (so the memo cannot serve a stale
        /// result), and a nudge to a field it does not read leaves the key
        /// alone. The second half pins the trace memo's sharing: knobs
        /// other than THP/SHP, the CPI model's terms and the load never
        /// split a trace.
        #[test]
        fn memo_keys_change_exactly_with_the_fields_they_cover(
            seed in proptest::prelude::any::<u64>(),
            load in 0.05f64..1.0,
            k in 0.01f64..2.0,
        ) {
            let before = Lookup::new(seed, load).keys();
            for (field, changes, may_change, perturb) in perturbations() {
                let mut lookup = Lookup::new(seed, load);
                perturb(&mut lookup, k);
                let after = lookup.keys();
                for (i, key) in ["report", "structure", "trace"].into_iter().enumerate() {
                    let bit = 1u8 << i;
                    if changes & bit != 0 {
                        proptest::prop_assert_ne!(before[i], after[i], "{} must change the {} key", field, key);
                    } else if may_change & bit == 0 {
                        proptest::prop_assert_eq!(before[i], after[i], "{} must not change the {} key", field, key);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_load_slice_is_an_empty_result() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        assert!(e.run_loads(WINDOW, &[]).unwrap().is_empty());
        assert!(e
            .with_memo(false)
            .run_loads(WINDOW, &[])
            .unwrap()
            .is_empty());
    }
}
