//! The threaded run: every workload goes through the same three
//! measured phases against the crates' public API.
//!
//! 1. **Drain** (closed loop, repeated on a fresh file system and
//!    monitor): a pre-generated changelog backlog is drained until the
//!    last event is in every consumer's hands *and* appended to every
//!    store. Yields `events_per_s`, `cpu_us_per_event`, `setup_s`.
//! 2. **Paced** (open loop, on each repetition's monitor once it has
//!    drained): a generator thread issues `create(s<seq>)` +
//!    `unlink(s<seq−W>)` ticks on a fixed schedule, first at an idle
//!    rate then at a busy rate; delivery latency is timed from when
//!    each tick was *due*.
//! 3. **Read-back** (single thread, after each repetition's monitor
//!    stopped, so the samples spread over the run): consumers replay
//!    the stores, indexes fold them, seeded queries run.
//!
//! Load comes from at most two benchmark threads: the generator and
//! one drain thread polling every consumer round-robin.

use crate::check::{check_dense, diff_multisets, event_key, Tally};
use crate::gen::{
    generate_backlog, FirstSeen, Layout, LiveNames, Rng, LIVE_WINDOW, TEPID_TICK_SHARE,
};
use crate::host::process_cpu_ns;
use crate::spec::Workload;
use crate::stats::{mean_of_percentiles, median, spread};
use fsmon_core::{shard_of, EventFilter};
use fsmon_events::kind::KindMask;
use fsmon_events::{EventKind, StandardEvent};
use fsmon_index::{EntryKind, FindQuery, IndexService, PolicyEngine};
use fsmon_lustre::{
    Consumer, FederatedConsumer, FederatedFilteredConsumer, FederatedFilteredSubscriber,
    ScalableConfig, ScalableMonitor,
};
use fsmon_rules::{CompiledFilter, FilterSpec};
use fsmon_store::EventStore;
use lustre_sim::{CostModel, LustreConfig, LustreFs, TestbedKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one invocation is sized.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget, seconds (repetition counts and phase lengths
    /// scale with it; the records per repetition do not).
    pub seconds: f64,
    /// Traced run: alternate traced and untraced drains, sample the
    /// collector backlog, and keep telemetry deltas.
    pub trace: bool,
    /// Divide every record count by this (the smoke run uses 20).
    pub shrink: u64,
    /// Directory for store/snapshot scratch and traces.
    pub out_dir: PathBuf,
}

/// Paced-phase tick rates (ticks/s; a tick is two events). The busy
/// rate stays below ~10k events/s: above it the generator's spin-wait
/// fights the pipeline for the second core and p50 doubles run to run.
const IDLE_TICKS_PER_S: f64 = 500.0;
const BUSY_TICKS_PER_S: f64 = 4000.0;
/// `drain_durable` commits one fsync per event; its busy rate is set
/// at the same ≈1/5 of capacity the other workloads sit below.
const DURABLE_TICKS_PER_S: (f64, f64) = (250.0, 1000.0);
/// Seeded queries after each repetition.
const QUERIES_PER_REP: usize = 300;
/// Least latencies one busy phase hands the 10% pushdown consumer.
const FILTERED_SAMPLES: f64 = 60.0;
/// Least events a CPU twin drains (see [`cpu_twin_us_per_event`]).
const TWIN_EVENTS: u64 = 120_000;
/// Least work one read-back sample times, and the most rounds it may
/// take to get there.
const MIN_SAMPLE: Duration = Duration::from_millis(60);
const MAX_ROUNDS: usize = 24;
/// The filter the pushdown consumer of every workload registers: the
/// 10% subtree.
const TEPID: &str = "/tepid";

/// What the three phases measured, before it is cut into metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per-repetition set-up time (file system, backlog), s.
    pub setup_s: Vec<f64>,
    /// Per-repetition drain rate of untraced repetitions, events/s.
    pub events_per_s: Vec<f64>,
    /// Per-repetition CPU per event of untraced repetitions, µs.
    pub cpu_us_per_event: Vec<f64>,
    /// Per-repetition drain rate of traced repetitions, events/s.
    pub traced_events_per_s: Vec<f64>,
    /// Events per repetition.
    pub events_per_rep: u64,
    /// Paced-phase observations.
    pub paced: Paced,
    /// Read-back observations.
    pub readback: Readback,
    /// Counters of the last drain repetition (traced if any was).
    pub last: DrainCounters,
    /// Telemetry delta over the last traced repetition.
    pub traced_delta: Option<fsmon_telemetry::Snapshot>,
    /// `VmHWM` once the repetitions are done (before any CPU twin), MB.
    pub peak_rss_mb: f64,
    /// Correctness totals.
    pub tally: Tally,
}

/// Paced-phase observations: one [`PacedRep`] per repetition. Thread
/// placement and timer behaviour are drawn afresh with every monitor,
/// and a latency percentile takes one of a few values per monitor; the
/// mean over several monitors holds still where any single one, or
/// their median, flips between those values.
#[derive(Debug, Default)]
pub struct Paced {
    /// Latencies of each repetition's paced segment.
    pub reps: Vec<PacedRep>,
    /// How late each tick was issued, ms (all repetitions).
    pub late_ms: Vec<f64>,
}

/// One repetition's paced latencies, due → delivered in ms (ticks due
/// in a phase's first `discard_s` are not recorded).
#[derive(Debug, Default)]
pub struct PacedRep {
    /// Busy phase, unfiltered consumer.
    pub busy: Vec<f64>,
    /// Idle phase, unfiltered consumer.
    pub idle: Vec<f64>,
    /// Busy phase, 10%-subtree pushdown consumer.
    pub filtered_busy: Vec<f64>,
}

/// Read-back observations, one sample per round so medians can be
/// taken over rounds spread across the run.
#[derive(Debug, Default)]
pub struct Readback {
    /// Events ÷ time of each consumer catch-up, events/s.
    pub replay_events_per_s: Vec<f64>,
    /// Events ÷ time of each `IndexService::catch_up`, events/s.
    pub fold_events_per_s: Vec<f64>,
    /// Events per replay / fold.
    pub events: u64,
    /// Per-call query wall time, µs: one group per repetition.
    pub query_us: Vec<Vec<f64>>,
    /// Entries in the last caught-up indexes.
    pub index_entries: u64,
    /// Resident bytes of the last caught-up indexes.
    pub index_resident_bytes: u64,
    /// Index rebuilds observed (must stay 0: nothing purges).
    pub index_rebuilds: u64,
}

/// Counters read from public stats after one drain repetition.
#[derive(Debug, Default, Clone)]
pub struct DrainCounters {
    /// Aggregator totals.
    pub aggregator: fsmon_lustre::AggregatorStats,
    /// Σ collector busy ns ÷ (wall × collectors).
    pub collector_busy_share: f64,
    /// Σ collector busy ns ÷ records.
    pub collector_step_ns_per_record: f64,
    /// Peak sampled `total_backlog()` (traced runs only).
    pub backlog_peak: u64,
    /// Collector cache hits ÷ (hits + misses).
    pub cache_hit_ratio: f64,
    /// `fid2path` invocations.
    pub fid2path_calls: u64,
    /// Fan-out class counters summed over classes.
    pub fanout_frames: u64,
    /// Class publish stalls.
    pub fanout_stalls: u64,
    /// Class consumers degraded to catch-up.
    pub fanout_degraded: u64,
    /// Events shed by class rate limits.
    pub fanout_shed: u64,
    /// Non-empty receives at the unfiltered consumer.
    pub recv_calls: u64,
    /// Events per non-empty receive.
    pub events_per_recv: f64,
    /// Consumer recovery counters.
    pub recovery: fsmon_lustre::consumer::ConsumerRecoveryStats,
    /// Supervisor collector restarts.
    pub supervisor_restarts: u64,
    /// Store-complete minus consumer-complete, ms.
    pub commit_lag_ms: f64,
    /// Store resident bytes, summed over shards.
    pub store_resident_bytes: u64,
    /// Store retained events, summed over shards.
    pub store_retained: u64,
    /// Slowest single generator operation, ms.
    pub gen_op_max_ms: f64,
}

/// The file-system configuration of a workload: every operation cost
/// `Free`; the AWS profile's `fid2path` wait (a sleep, `WaitNs`) kept
/// when the workload asks.
pub fn fs_config(w: &Workload) -> LustreConfig {
    if w.fid2path_wait {
        let mut cfg = TestbedKind::Aws.config();
        cfg.n_mdt = w.mdts;
        cfg.create_cost = CostModel::Free;
        cfg.modify_cost = CostModel::Free;
        cfg.delete_cost = CostModel::Free;
        // The profile charges a failed lookup as a 12 µs *spin*: CPU
        // the process burns without it being our code's. It made
        // `cpu_us_per_event` mostly simulator (and 63% apart between
        // identical runs); the wait of a successful lookup stays.
        cfg.fid2path_miss_cost = CostModel::Free;
        cfg
    } else {
        LustreConfig::small_dne(w.mdts)
    }
}

fn monitor_config(w: &Workload, store_dir: &Path, traced: bool) -> ScalableConfig {
    let defaults = ScalableConfig::default();
    ScalableConfig {
        cache_size: w.cache,
        transport: w.transport,
        store_dir: Some(store_dir.to_path_buf()),
        store_segment_bytes: w.segment_bytes.unwrap_or(defaults.store_segment_bytes),
        durability: w.durability,
        aggregator_shards: w.shards,
        store_group_max: w.group_max.unwrap_or(defaults.store_group_max),
        trace_sample_per_10k: if traced { 100 } else { 0 },
        // The simulated clock stands still while a backlog drains, so
        // traces are stamped with wall time.
        trace_clock: traced.then(fsmon_telemetry::trace::wall_clock),
        ..defaults
    }
}

/// The 8 filter classes of `crates/bench/src/bin/fanout.rs`: four
/// path selectivities crossed with all-kinds and creates-only.
pub fn filter_classes() -> Vec<FilterSpec> {
    let creates = KindMask::from_kinds([EventKind::Create]);
    let mut specs = vec![FilterSpec::all(), FilterSpec::all().with_kinds(creates)];
    for dir in ["/tepid", "/warm", "/hot"] {
        specs.push(FilterSpec::subtree(dir));
        specs.push(FilterSpec::subtree(dir).with_kinds(creates));
    }
    specs
}

enum Feed {
    Ring(FederatedFilteredSubscriber),
    Sock(FederatedFilteredConsumer),
}

/// One filtered subscriber and what it has been handed so far.
struct Sub {
    name: String,
    filter: CompiledFilter,
    feed: Feed,
    keys: Vec<u64>,
    last_progress: Option<Instant>,
}

impl Sub {
    fn absorb(
        &mut self,
        events: Vec<StandardEvent>,
        shards: usize,
        now: Instant,
    ) -> Vec<StandardEvent> {
        if !events.is_empty() {
            self.last_progress = Some(now);
            self.keys.extend(
                events
                    .iter()
                    .map(|e| event_key(shard_of(e.mdt_index, shards), e)),
            );
        }
        events
    }

    fn poll(&mut self, shards: usize) -> Vec<StandardEvent> {
        let events = match &mut self.feed {
            Feed::Ring(r) => r.poll(),
            Feed::Sock(s) => s.poll(),
        };
        self.absorb(events, shards, Instant::now())
    }

    fn catch_up(&mut self, shards: usize) -> usize {
        let events = match &mut self.feed {
            Feed::Ring(r) => r.catch_up(),
            Feed::Sock(s) => s.catch_up(),
        };
        self.absorb(events, shards, Instant::now()).len()
    }
}

/// Index of the 10%-subtree socket consumer in [`attach_subs`]' result.
const TEPID_SUB: usize = 0;

fn attach_subs(monitor: &ScalableMonitor, fanout: bool) -> Vec<Sub> {
    let mut subs = Vec::new();
    let tepid = FilterSpec::subtree(TEPID);
    subs.push(Sub {
        name: "sock:tepid".to_string(),
        filter: tepid.compile(),
        feed: Feed::Sock(
            monitor
                .new_filtered_consumer(&tepid, "bench-tepid")
                .expect("attach tepid consumer"),
        ),
        keys: Vec::new(),
        last_progress: None,
    });
    if fanout {
        for (i, spec) in filter_classes().into_iter().enumerate() {
            subs.push(Sub {
                name: format!("ring:{}", spec.canonical()),
                filter: spec.compile(),
                feed: Feed::Ring(monitor.subscribe_filtered(&spec, &format!("bench-ring{i}"))),
                keys: Vec::new(),
                last_progress: None,
            });
        }
        let creates = FilterSpec::all().with_kinds(KindMask::from_kinds([EventKind::Create]));
        subs.push(Sub {
            name: "sock:creates".to_string(),
            filter: creates.compile(),
            feed: Feed::Sock(
                monitor
                    .new_filtered_consumer(&creates, "bench-creates")
                    .expect("attach creates consumer"),
            ),
            keys: Vec::new(),
            last_progress: None,
        });
    }
    subs
}

/// The unfiltered consumer's side of the drain thread.
struct MainFeed {
    consumer: Arc<FederatedConsumer>,
    delivered: Vec<StandardEvent>,
    last_progress: Option<Instant>,
    recv_calls: u64,
}

impl MainFeed {
    /// One sweep of the unfiltered consumer (blocks ≤ 1 ms when idle).
    /// Returns the index of the first newly delivered event.
    fn sweep(&mut self) -> usize {
        let from = self.delivered.len();
        let batch = self.consumer.drain();
        if !batch.is_empty() {
            self.last_progress = Some(Instant::now());
            self.recv_calls += 1;
            self.delivered.extend(batch);
        }
        from
    }
}

/// What each filtered subscriber must hold: the unfiltered delivery
/// pushed through its own predicate.
fn wanted(subs: &[Sub], delivered: &[StandardEvent]) -> Vec<usize> {
    subs.iter()
        .map(|s| {
            delivered
                .iter()
                .filter(|e| s.filter.matches_event(e))
                .count()
        })
        .collect()
}

fn check_subsets(when: &str, subs: &[Sub], want: &[usize], tally: &mut Tally) {
    for (sub, want) in subs.iter().zip(want) {
        tally.add(
            &format!("{when}: {} holds its subset", sub.name),
            *want as u64,
            (*want as u64).abs_diff(sub.keys.len() as u64),
        );
    }
}

fn stores_appended(stores: &[Arc<dyn EventStore>]) -> u64 {
    stores.iter().map(|s| s.stats().appended).sum()
}

/// Scratch directory of one repetition: unique per process, workload
/// and repetition, removed when the repetition ends.
pub fn scratch_dir(out_dir: &Path, workload: &str, rep: usize) -> PathBuf {
    out_dir.join(format!("tmp-{}-{workload}-{rep}", std::process::id()))
}

struct PacedPlan {
    idle_s: f64,
    busy_s: f64,
    discard_s: f64,
    idle_rate: f64,
    busy_rate: f64,
    /// Seeds the jitter of the schedule.
    salt: u64,
}

impl PacedPlan {
    fn idle_ticks(&self) -> u64 {
        (self.idle_s * self.idle_rate) as u64
    }

    fn busy_ticks(&self) -> u64 {
        (self.busy_s * self.busy_rate) as u64
    }

    /// When tick `k` is due, ns since the phase epoch: somewhere
    /// (seeded) inside its own slot of the schedule. A strictly
    /// periodic generator beats against the collectors' poll period,
    /// and the latency it sees depends on the phase the two happened
    /// to start in; jitter makes every tick's phase independent while
    /// keeping the rate and the order.
    fn due_ns(&self, tick: u64) -> u64 {
        let jitter = (Rng::new(tick ^ self.salt).next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let idle = self.idle_ticks();
        if tick < idle {
            ((tick as f64 + jitter) / self.idle_rate * 1e9) as u64
        } else {
            (self.idle_s * 1e9 + ((tick - idle) as f64 + jitter) / self.busy_rate * 1e9) as u64
        }
    }
}

/// Wait until `deadline`: sleep while it is far, yield-spin the rest.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(1500) {
            std::thread::sleep(left - Duration::from_micros(1000));
        } else if left > Duration::from_micros(5) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sizes of one invocation, from the workload and the options.
struct Plan {
    drain_reps: usize,
    records_per_mdt: u64,
    paced: PacedPlan,
}

fn plan(w: &Workload, opts: &Options) -> Plan {
    let scale = opts.seconds / 10.0;
    let (idle_rate, busy_rate) = if w.group_max == Some(1) {
        DURABLE_TICKS_PER_S
    } else {
        (IDLE_TICKS_PER_S, BUSY_TICKS_PER_S)
    };
    let reps = ((w.drain_reps as f64 * scale).round() as usize).max(2);
    // A third of the budget is paced traffic, shared evenly between
    // the repetitions' idle and busy phases. A traced run has fewer
    // repetitions and spends the difference on the serial walk. A busy
    // phase lasts at least long enough to hand the filtered consumer
    // FILTERED_SAMPLES latencies.
    let discard_s = 0.1;
    let filtered_floor = discard_s
        + FILTERED_SAMPLES / opts.shrink.clamp(1, 4) as f64 / (busy_rate * TEPID_TICK_SHARE);
    let phase_s = (opts.seconds / 6.0 / reps as f64).max(filtered_floor);
    Plan {
        // Traced and untraced repetitions alternate: an even count.
        drain_reps: if opts.trace {
            reps.next_multiple_of(2).min(4)
        } else {
            reps
        },
        records_per_mdt: (w.records_per_mdt / opts.shrink.max(1)).max(600),
        paced: PacedPlan {
            idle_s: phase_s,
            busy_s: phase_s,
            discard_s,
            idle_rate,
            busy_rate,
            salt: Rng::new(opts.seed ^ 0x7ac3).next_u64(),
        },
    }
}

/// Bring the host and the process to a steady state before anything
/// is timed. After a few idle seconds this host runs a two-core
/// pipeline at about half speed until both cores have been busy for
/// ~2 s (measured: `drain_hot` 0.53 M events/s for the first three
/// repetitions, 0.95 M after), so two threads spin for a tenth of the
/// budget first; a discarded drain repetition then faults in the
/// allocator's arenas and the store directory.
fn warm_up(w: &Workload, opts: &Options, plan: &Plan) {
    let until = Instant::now() + Duration::from_secs_f64(0.1 * opts.seconds);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            });
        }
    });
    drain_rep(
        w,
        opts,
        plan,
        WARM_UP_REP,
        false,
        false,
        &mut Measured::default(),
    );
}

/// Scratch-directory index of the discarded warm-up repetition.
const WARM_UP_REP: usize = 999;
/// Scratch-directory indices of the CPU twins start here.
const TWIN_REP: usize = 1000;

/// Run the three phases of `w`.
pub fn run(w: &Workload, opts: &Options) -> Measured {
    let plan = plan(w, opts);
    let mut m = Measured::default();
    std::fs::create_dir_all(&opts.out_dir).expect("create out dir");
    warm_up(w, opts, &plan);
    for rep in 0..plan.drain_reps {
        // Traced runs alternate: even repetitions untraced (they
        // yield the end-to-end figures), odd ones traced.
        let traced = opts.trace && rep % 2 == 1;
        let last = rep + 1 == plan.drain_reps;
        drain_rep(w, opts, &plan, rep, traced, last, &mut m);
    }
    m.peak_rss_mb = crate::host::peak_rss_mb();
    if w.fid2path_wait {
        // One twin per untraced repetition, after the peak was read:
        // a twin drains more events than a repetition and must not set
        // the workload's memory figure.
        for rep in 0..m.events_per_s.len() {
            let twin = cpu_twin_us_per_event(w, opts, &plan, rep);
            m.cpu_us_per_event.push(twin);
        }
    }
    m
}

/// A fresh file system carrying one repetition's backlog.
struct Backlog {
    fs: Arc<LustreFs>,
    layout: Layout,
    /// Events the drain must deliver (records map 1:1 to events: the
    /// scripts issue no renames).
    expected: u64,
    /// Slowest single generator operation, ms.
    gen_op_max_ms: f64,
}

fn backlog(
    w: &Workload,
    opts: &Options,
    records_per_mdt: u64,
    rep: usize,
    config: LustreConfig,
) -> Backlog {
    let fs = LustreFs::new(config);
    let layout = Layout::create(&fs, &fs.client());
    let gen_op_max_ms = generate_backlog(
        &fs,
        &layout,
        w.script,
        (w.working_set as u64 / opts.shrink.max(1)).max(8) as usize,
        records_per_mdt,
        opts.seed.wrapping_add(rep as u64),
    );
    let expected = (0..fs.mdt_count())
        .map(|i| fs.mdt(i).changelog_stats().appended)
        .sum();
    Backlog {
        fs,
        layout,
        expected,
        gen_op_max_ms,
    }
}

/// A monitor that has drained its backlog, with what the drain thread
/// saw on the way.
struct Drained {
    monitor: ScalableMonitor,
    main: MainFeed,
    subs: Vec<Sub>,
    stores: Vec<Arc<dyn EventStore>>,
    /// What each filtered subscriber must hold: the unfiltered
    /// delivery pushed through its own predicate.
    want: Vec<usize>,
    /// `ScalableMonitor::start` → last event in every consumer's hands
    /// and appended to every store, s.
    wall_s: f64,
    /// Process CPU over the drain, ns.
    cpu_ns: u64,
    /// When every store held every event (`None`: deadline hit).
    store_done: Option<Instant>,
    /// When the last consumer received its last event.
    consumer_done: Instant,
    /// Peak sampled `total_backlog()`.
    backlog_peak: u64,
}

/// The timed drain: start the monitor over `fs`, attach the
/// subscribers, and poll every consumer round-robin until the
/// unfiltered one holds every event and every store has appended
/// every event.
fn drain(
    w: &Workload,
    fs: &Arc<LustreFs>,
    store_dir: &Path,
    traced: bool,
    sample_backlog: bool,
    expected: u64,
) -> Drained {
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let monitor = ScalableMonitor::start(fs, monitor_config(w, store_dir, traced))
        .expect("start scalable monitor");
    let mut subs = attach_subs(&monitor, w.fanout);
    let stores = monitor.shard_stores();
    let mut main = MainFeed {
        consumer: monitor.consumer().clone(),
        delivered: Vec::with_capacity(expected as usize),
        last_progress: None,
        recv_calls: 0,
    };
    let deadline = t0 + Duration::from_secs(120);
    let mut store_done: Option<Instant> = None;
    let mut backlog_peak = 0u64;
    let mut next_backlog_sample = t0;
    loop {
        main.sweep();
        for sub in &mut subs {
            sub.poll(w.shards);
        }
        let now = Instant::now();
        if sample_backlog && now >= next_backlog_sample {
            backlog_peak = backlog_peak.max(monitor.total_backlog());
            next_backlog_sample = now + Duration::from_millis(50);
        }
        if main.delivered.len() as u64 >= expected {
            if store_done.is_none() && stores_appended(&stores) >= expected {
                store_done = Some(now);
            }
            if store_done.is_some() {
                break;
            }
        }
        if now >= deadline {
            break;
        }
    }
    let cpu_ns = process_cpu_ns() - cpu0;
    // Settle the filtered subscribers. Time spent here counts only up
    // to each subscriber's last delivery.
    let want = wanted(&subs, &main.delivered);
    settle(&mut subs, &want, w.shards);
    let consumer_done = main
        .last_progress
        .into_iter()
        .chain(subs.iter().filter_map(|s| s.last_progress))
        .max()
        .unwrap_or(t0);
    let window_end = consumer_done.max(store_done.unwrap_or(consumer_done));
    Drained {
        monitor,
        main,
        subs,
        stores,
        want,
        wall_s: (window_end - t0).as_secs_f64(),
        cpu_ns,
        store_done,
        consumer_done,
        backlog_peak,
    }
}

/// `cpu_us_per_event` of a workload that keeps the `fid2path` wait: the
/// same backlog drained through the same configuration with the wait
/// removed. Every modelled wait is a timer sleep, and a sleep costs the
/// process 4–10 µs of kernel time on this host depending on the
/// hypervisor's mood, not on our code: with one sleep per event that
/// was most of the figure and doubled between identical runs. The twin
/// drain prices our code on this input; the wait shows in
/// `events_per_s`. Without the wait the drain is over in milliseconds,
/// so the twin runs the same script for more steps (same working set,
/// same cache) until it drains at least [`TWIN_EVENTS`].
fn cpu_twin_us_per_event(w: &Workload, opts: &Options, plan: &Plan, rep: usize) -> f64 {
    let dir = scratch_dir(&opts.out_dir, w.name, TWIN_REP + rep);
    let _ = std::fs::remove_dir_all(&dir);
    let _cleanup = RemoveOnDrop(dir.clone());
    let records = plan
        .records_per_mdt
        .max(TWIN_EVENTS / u64::from(w.mdts) / opts.shrink.max(1));
    let b = backlog(w, opts, records, rep, LustreConfig::small_dne(w.mdts));
    let d = drain(w, &b.fs, &dir.join("twin-store"), false, false, b.expected);
    d.monitor.stop();
    d.cpu_ns as f64 / 1e3 / b.expected as f64
}

/// One repetition: set-up, timed drain, paced segment on the same
/// monitor, then read-back of its stores. The warm-up repetition stops
/// after the drain.
fn drain_rep(
    w: &Workload,
    opts: &Options,
    plan: &Plan,
    rep: usize,
    traced: bool,
    last: bool,
    m: &mut Measured,
) {
    let dir = scratch_dir(&opts.out_dir, w.name, rep);
    let _ = std::fs::remove_dir_all(&dir);
    let _cleanup = RemoveOnDrop(dir.clone());
    let measured = rep != WARM_UP_REP;

    // Set-up: fresh file system, directory skeleton, backlog.
    let t_setup = Instant::now();
    let b = backlog(w, opts, plan.records_per_mdt, rep, fs_config(w));
    m.setup_s.push(t_setup.elapsed().as_secs_f64());
    m.events_per_rep = b.expected;

    let before = traced.then(|| fsmon_telemetry::global().snapshot());
    let fid2path_before = b.fs.fid2path_call_count();
    let mut d = drain(w, &b.fs, &dir.join("store"), traced, opts.trace, b.expected);
    let events_per_s = b.expected as f64 / d.wall_s;
    if traced {
        m.traced_events_per_s.push(events_per_s);
    } else {
        m.events_per_s.push(events_per_s);
        if !w.fid2path_wait {
            m.cpu_us_per_event
                .push(d.cpu_ns as f64 / 1e3 / b.expected as f64);
        }
    }

    // Cheap checks, every repetition.
    let tally = &mut m.tally;
    check_ids(&d.main.delivered, &d.stores, w.shards, tally);
    check_subsets(&format!("rep {rep}"), &d.subs, &d.want, tally);
    tally.require(
        &format!("rep {rep} drained before the deadline"),
        d.store_done.is_some(),
    );
    let agg = d.monitor.aggregator_stats();
    tally.require(
        &format!("rep {rep} decode_errors == 0"),
        agg.decode_errors == 0,
    );

    if last || traced {
        let busy: u64 = d.monitor.collector_busy_ns().iter().sum();
        let cstats = d.monitor.total_collector_stats();
        let classes = d.monitor.class_stats();
        let sstats: Vec<_> = d.stores.iter().map(|s| s.stats()).collect();
        m.last = DrainCounters {
            aggregator: agg,
            collector_busy_share: busy as f64 / (d.wall_s * 1e9 * f64::from(w.mdts)),
            collector_step_ns_per_record: busy as f64 / cstats.records.max(1) as f64,
            backlog_peak: d.backlog_peak,
            cache_hit_ratio: cstats.cache_hits as f64
                / (cstats.cache_hits + cstats.cache_misses).max(1) as f64,
            fid2path_calls: b.fs.fid2path_call_count() - fid2path_before,
            fanout_frames: classes.iter().map(|c| c.frames).sum(),
            fanout_stalls: classes.iter().map(|c| c.stalls).sum(),
            fanout_degraded: classes.iter().map(|c| c.degraded as u64).sum(),
            fanout_shed: classes.iter().map(|c| c.shed).sum(),
            recv_calls: d.main.recv_calls,
            events_per_recv: d.main.delivered.len() as f64 / d.main.recv_calls.max(1) as f64,
            recovery: d.main.consumer.recovery_stats(),
            supervisor_restarts: d.monitor.supervisor_restarts(),
            commit_lag_ms: d.store_done.map_or(0.0, |s| {
                s.saturating_duration_since(d.consumer_done).as_secs_f64() * 1e3
            }),
            store_resident_bytes: sstats.iter().map(|s| s.resident_bytes).sum(),
            store_retained: sstats.iter().map(|s| s.retained).sum(),
            gen_op_max_ms: b.gen_op_max_ms,
        };
    }
    if let Some(before) = before {
        m.traced_delta = Some(fsmon_telemetry::global().snapshot().delta_from(&before));
    }

    if measured {
        paced_phase(w, opts, plan, &b, &mut d, rep, m);
    }
    d.monitor.stop();
    drop(d.main.consumer);
    if measured {
        readback(
            opts,
            rep,
            last,
            &d.stores,
            &d.main.delivered,
            &d.subs,
            &dir,
            m,
        );
    }
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Poll the filtered subscribers until each holds `want` events. A
/// subscriber that stops making progress for a second is told to
/// `catch_up()` — the designed recovery for a lost tail — once.
fn settle(subs: &mut [Sub], want: &[usize], shards: usize) {
    let mut quiet_since = Instant::now();
    let mut caught_up = false;
    loop {
        if subs.iter().zip(want).all(|(s, w)| s.keys.len() >= *w) {
            return;
        }
        let mut progressed = false;
        for sub in subs.iter_mut() {
            progressed |= !sub.poll(shards).is_empty();
        }
        if progressed {
            quiet_since = Instant::now();
        } else if quiet_since.elapsed() > Duration::from_secs(1) {
            if caught_up {
                return;
            }
            caught_up = true;
            for (sub, w) in subs.iter_mut().zip(want) {
                if sub.keys.len() < *w {
                    sub.catch_up(shards);
                }
            }
            quiet_since = Instant::now();
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Delivered ids are exactly `1..=N` per shard, once each, and every
/// store appended as many events as its shard delivered.
fn check_ids(
    delivered: &[StandardEvent],
    stores: &[Arc<dyn EventStore>],
    shards: usize,
    tally: &mut Tally,
) {
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for ev in delivered {
        per_shard[shard_of(ev.mdt_index, shards)].push(ev.id);
    }
    for (shard, (ids, store)) in per_shard.iter().zip(stores).enumerate() {
        let appended = store.stats().appended;
        let (missing, extra) = check_dense(ids, appended);
        tally.add(
            &format!("shard {shard} ids dense 1..={appended}"),
            appended,
            missing + extra,
        );
    }
}

/// The paced segment of one repetition, on its drained monitor.
fn paced_phase(
    w: &Workload,
    opts: &Options,
    plan: &Plan,
    backlog: &Backlog,
    drained: &mut Drained,
    rep: usize,
    m: &mut Measured,
) {
    let Drained {
        monitor,
        main,
        subs,
        stores,
        ..
    } = drained;
    let (fs, layout) = (&backlog.fs, &backlog.layout);
    let p = &plan.paced;
    let ticks = p.idle_ticks() + p.busy_ticks();
    let idle_ticks = p.idle_ticks();
    let drained = main.delivered.len() as u64;
    let expected_total = drained + 2 * ticks;
    let stop = AtomicBool::new(false);
    let issued = AtomicU64::new(0);
    let mut late_ms: Vec<f64> = Vec::with_capacity(ticks as usize);
    let mut segment = PacedRep::default();
    let mut main_seen = FirstSeen::new(LIVE_WINDOW, ticks as usize);
    let mut tepid_seen = FirstSeen::new(LIVE_WINDOW, ticks as usize);
    let names = LiveNames::new(
        layout,
        fs.mdt_count() as usize,
        opts.seed.wrapping_add(rep as u64),
    );
    let epoch = Instant::now() + Duration::from_millis(20);
    let latency_ms = |tick: u64, now: Instant| {
        now.saturating_duration_since(epoch + Duration::from_nanos(p.due_ns(tick)))
            .as_secs_f64()
            * 1e3
    };
    // Ticks due in a phase's first `discard_s` warm the phase up.
    let discard_ns = (p.discard_s * 1e9) as u64;
    let busy_from_ns = (p.idle_s * 1e9) as u64 + discard_ns;
    let is_busy = |tick: u64| tick >= idle_ticks;
    let counts = |tick: u64| {
        p.due_ns(tick)
            >= if is_busy(tick) {
                busy_from_ns
            } else {
                discard_ns
            }
    };

    std::thread::scope(|scope| {
        // The generator: an open loop — ticks are issued on schedule
        // whether or not the pipeline keeps up.
        let generator = scope.spawn(|| {
            let client = fs.client();
            for tick in 0..ticks {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let due = epoch + Duration::from_nanos(p.due_ns(tick));
                wait_until(due);
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                client
                    .create(&names.path_of(LIVE_WINDOW + tick))
                    .expect("paced create");
                client.unlink(&names.path_of(tick)).expect("paced unlink");
                issued.store(tick + 1, Ordering::Release);
            }
        });

        // The drain thread: this one.
        let deadline = epoch + Duration::from_secs_f64(p.idle_s + p.busy_s + 20.0);
        loop {
            let from = main.sweep();
            let now = main.last_progress.unwrap_or(epoch);
            for ev in &main.delivered[from..] {
                if let Some(seq) = main_seen.first(&ev.path) {
                    let tick = seq - LIVE_WINDOW;
                    if counts(tick) {
                        let phase = if is_busy(tick) {
                            &mut segment.busy
                        } else {
                            &mut segment.idle
                        };
                        phase.push(latency_ms(tick, now));
                    }
                }
            }
            for (i, sub) in subs.iter_mut().enumerate() {
                let events = sub.poll(w.shards);
                if i == TEPID_SUB {
                    let now = Instant::now();
                    for ev in &events {
                        if let Some(seq) = tepid_seen.first(&ev.path) {
                            let tick = seq - LIVE_WINDOW;
                            if is_busy(tick) && counts(tick) {
                                segment.filtered_busy.push(latency_ms(tick, now));
                            }
                        }
                    }
                }
            }
            if main.delivered.len() as u64 >= expected_total
                && issued.load(Ordering::Acquire) == ticks
                && stores_appended(stores) >= expected_total
            {
                break;
            }
            if Instant::now() >= deadline {
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        generator.join().expect("generator thread");
    });
    m.paced.late_ms.extend(late_ms);

    m.paced.reps.push(segment);

    // The live stream must still be exactly-once and complete.
    let want = wanted(subs, &main.delivered);
    settle(subs, &want, w.shards);
    let tally = &mut m.tally;
    tally.add(
        "paced: every tick's events delivered",
        2 * ticks,
        expected_total.saturating_sub(main.delivered.len() as u64),
    );
    tally.add(
        "paced: every create timed once",
        ticks,
        ticks - main_seen.count() as u64,
    );
    check_ids(&main.delivered, stores, w.shards, tally);
    check_subsets("paced", subs, &want, tally);
    tally.require(
        "paced: decode_errors == 0",
        monitor.aggregator_stats().decode_errors == 0,
    );
}

/// Run `round(i)`, which returns the time it measured, until the
/// rounds add up to [`MIN_SAMPLE`] (a small store is read several
/// times over). Returns the rounds run and their summed time.
fn sample_rounds(mut round: impl FnMut(usize) -> Duration) -> (u64, Duration) {
    let (mut rounds, mut timed) = (0, Duration::ZERO);
    while rounds == 0 || (timed < MIN_SAMPLE && rounds < MAX_ROUNDS) {
        timed += round(rounds);
        rounds += 1;
    }
    (rounds as u64, timed)
}

/// A throw-away publisher for read-back consumers to connect to: the
/// monitor is stopped, so nothing is ever published on it and every
/// event they see comes from the store.
fn readback_endpoints(
    ctx: &fsmon_mq::Context,
    shards: usize,
    round: usize,
) -> (Vec<fsmon_mq::PubSocket>, Vec<String>) {
    let mut pubs = Vec::new();
    let mut endpoints = Vec::new();
    for k in 0..shards {
        let endpoint = format!("inproc://bench-readback-{round}-s{k}");
        let publisher = ctx.publisher();
        publisher.bind(&endpoint).expect("bind read-back endpoint");
        pubs.push(publisher);
        endpoints.push(endpoint);
    }
    (pubs, endpoints)
}

/// Read one repetition's stores back on this thread: one unfiltered
/// and one filtered consumer catch-up, one index fold, a slice of the
/// seeded queries, and the check of the repetition's deliveries
/// against the linear replay. The last repetition also checks the
/// index itself (live ingest vs catch-up, snapshot round-trip).
#[allow(clippy::too_many_arguments)]
fn readback(
    opts: &Options,
    rep: usize,
    last: bool,
    stores: &[Arc<dyn EventStore>],
    delivered: &[StandardEvent],
    subs: &[Sub],
    dir: &Path,
    m: &mut Measured,
) {
    let total: u64 = stores_appended(stores);
    let shards = stores.len();
    let ctx = fsmon_mq::Context::new();
    let tepid = FilterSpec::subtree(TEPID);
    m.readback.events = total;

    // A fresh consumer resumes from 0 and catches up from the store:
    // first the unfiltered consumer, then the 10% pushdown consumer.
    // Both read every stored event.
    let mut replayed: Vec<StandardEvent> = Vec::new();
    let (rounds, timed) = sample_rounds(|round| {
        let (_pubs, endpoints) = readback_endpoints(&ctx, shards, 2 * round);
        let lanes = endpoints
            .iter()
            .zip(stores)
            .map(|(ep, store)| {
                Arc::new(
                    Consumer::connect(&ctx, ep, EventFilter::all(), Some(store.clone()))
                        .expect("connect read-back consumer"),
                )
            })
            .collect();
        let consumer = FederatedConsumer::from_parts(lanes);
        let t0 = Instant::now();
        consumer.resume_from_vector(&fsmon_core::VectorWatermark::zero(shards));
        let recovered = consumer.catch_up();
        replayed = consumer.drain();
        let elapsed = t0.elapsed();
        m.tally.add(
            "replay: catch_up recovers every stored event",
            total,
            total.abs_diff(recovered as u64) + total.abs_diff(replayed.len() as u64),
        );
        elapsed
    });
    m.readback
        .replay_events_per_s
        .push((total * rounds) as f64 / timed.as_secs_f64());
    let mut tepid_replayed: Vec<StandardEvent> = Vec::new();
    let (rounds, timed) = sample_rounds(|round| {
        let (_pubs, endpoints) = readback_endpoints(&ctx, shards, 2 * round + 1);
        let mut filtered =
            FederatedFilteredConsumer::connect(&ctx, &endpoints, stores, &tepid, "bench-replay")
                .expect("connect read-back filtered consumer");
        let t0 = Instant::now();
        tepid_replayed = filtered.catch_up();
        t0.elapsed()
    });
    m.readback
        .replay_events_per_s
        .push((total * rounds) as f64 / timed.as_secs_f64());

    // The linear replay of each store is the reference: the live
    // delivery must be the same multiset, and each filtered
    // subscriber's deliveries must equal the replay pushed through its
    // own predicate.
    let key_of = |e: &StandardEvent| event_key(shard_of(e.mdt_index, shards), e);
    let mut reference: Vec<u64> = replayed.iter().map(key_of).collect();
    let mut live: Vec<u64> = delivered.iter().map(key_of).collect();
    let (missing, extra) = diff_multisets(&mut reference, &mut live);
    m.tally.add(
        "live delivery == linear store replay",
        total,
        missing + extra,
    );
    let through = |filter: &CompiledFilter| -> Vec<u64> {
        replayed
            .iter()
            .filter(|e| filter.matches_event(e))
            .map(key_of)
            .collect()
    };
    for sub in subs {
        let mut want = through(&sub.filter);
        let mut got = sub.keys.clone();
        let n = want.len() as u64;
        let (missing, extra) = diff_multisets(&mut want, &mut got);
        m.tally.add(
            &format!("{} == replay through its filter", sub.name),
            n,
            missing + extra,
        );
    }
    let mut want = through(&tepid.compile());
    let mut got: Vec<u64> = tepid_replayed.iter().map(key_of).collect();
    let n = want.len() as u64;
    let (missing, extra) = diff_multisets(&mut want, &mut got);
    m.tally.add(
        "filtered catch_up == replay through its filter",
        n,
        missing + extra,
    );
    drop(replayed);

    // Index fold: a fresh IndexService per shard catches up from the
    // shard's store.
    let rebuilds = || {
        fsmon_telemetry::global()
            .snapshot()
            .counter("fsmon_index_rebuilds_total")
    };
    let rebuilds_before = rebuilds();
    let mut indexes: Vec<IndexService> = Vec::new();
    let mut folded = 0u64;
    let (rounds, timed) = sample_rounds(|_| {
        let t0 = Instant::now();
        indexes = stores
            .iter()
            .map(|store| {
                let mut svc = IndexService::new(policies());
                folded += svc.catch_up(store.as_ref()).expect("index catch_up") as u64;
                svc
            })
            .collect();
        t0.elapsed()
    });
    m.readback
        .fold_events_per_s
        .push((total * rounds) as f64 / timed.as_secs_f64());
    m.readback.index_rebuilds += rebuilds() - rebuilds_before;
    m.tally.add(
        "index folds applied every stored event",
        total * rounds,
        (total * rounds).abs_diff(folded),
    );
    m.readback.index_entries = indexes.iter().map(|i| i.index().len() as u64).sum();
    m.readback.index_resident_bytes = indexes.iter().map(|i| i.index().resident_bytes()).sum();

    let now_ns = delivered.iter().map(|e| e.timestamp_ns).max().unwrap_or(0) + 1;
    let mut rng = Rng::new(opts.seed ^ 0x1d8 ^ rep as u64);
    if last {
        check_index(
            dir,
            stores,
            delivered,
            &indexes,
            now_ns,
            &mut rng,
            &mut m.tally,
        );
    }

    // Queries: 60% pattern finds, 20% shallow du, 20% full-tree work
    // (age finds, deep du, a policy evaluation every 160th) — p50
    // sits inside the first group and p90 inside the last, not on a
    // border between two kinds of query.
    let mut rows = 0usize;
    let mut query_us = Vec::with_capacity(QUERIES_PER_REP);
    for q in 0..QUERIES_PER_REP {
        let svc = &indexes[q % shards];
        let t0 = Instant::now();
        rows += match q % 10 {
            0..=5 => svc.find(&seeded_find(&mut rng), now_ns).len(),
            6 | 7 => svc.du("/", 1).len(),
            8 => {
                let query = FindQuery::default()
                    .older_than_ns(rng.below(1_000_000_000))
                    .kind(EntryKind::File);
                svc.find(&query, now_ns).len()
            }
            _ => {
                if q % 160 == 9 {
                    svc.evaluate(now_ns).len()
                } else {
                    svc.du("/", usize::MAX).len()
                }
            }
        };
        query_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.readback.query_us.push(query_us);
    std::hint::black_box(rows);
    m.tally.add("queries answered", QUERIES_PER_REP as u64, 0);
}

/// The index agrees with itself: a live-ingest index (delivery order,
/// through the reorder stage) matches the caught-up one on `len()` and
/// on 200 seeded `find`s, and a snapshot reloads to the same cursor.
fn check_index(
    dir: &Path,
    stores: &[Arc<dyn EventStore>],
    delivered: &[StandardEvent],
    indexes: &[IndexService],
    now_ns: u64,
    rng: &mut Rng,
    tally: &mut Tally,
) {
    let shards = stores.len();
    let mut lanes: Vec<Vec<StandardEvent>> = vec![Vec::new(); shards];
    for ev in delivered {
        lanes[shard_of(ev.mdt_index, shards)].push(ev.clone());
    }
    let live_indexes: Vec<IndexService> = lanes
        .iter()
        .map(|lane| {
            let mut svc = IndexService::new(policies());
            for chunk in lane.chunks(512) {
                svc.ingest(chunk);
            }
            svc
        })
        .collect();
    for (shard, (live, caught)) in live_indexes.iter().zip(indexes).enumerate() {
        tally.require(
            &format!("shard {shard}: live-ingest index len == catch_up index len"),
            live.index().len() == caught.index().len(),
        );
    }
    let mut find_mismatch = 0u64;
    for i in 0..200usize {
        let query = seeded_find(rng);
        let paths = |svc: &IndexService| -> Vec<String> {
            svc.find(&query, now_ns)
                .into_iter()
                .map(|(p, _)| p)
                .collect()
        };
        find_mismatch += u64::from(paths(&live_indexes[i % shards]) != paths(&indexes[i % shards]));
    }
    tally.add(
        "live-ingest and catch_up indexes agree on find",
        200,
        find_mismatch,
    );

    let snap = dir.join("index.snap");
    let mut durable = IndexService::open(&snap, policies());
    durable
        .catch_up(stores[0].as_ref())
        .expect("index catch_up");
    durable.save().expect("save index snapshot");
    let reloaded = IndexService::open(&snap, policies());
    tally.require(
        "index snapshot reloads to the same cursor and size",
        reloaded.index().applied_seq() == durable.index().applied_seq()
            && reloaded.index().len() == durable.index().len(),
    );
}

/// The standard policy set every read-back index carries.
fn policies() -> PolicyEngine {
    PolicyEngine::standard("/**", 3_600_000_000_000, 1.0)
}

/// A pattern find with seeded predicates over the class directories.
fn seeded_find(rng: &mut Rng) -> FindQuery {
    let class = crate::gen::CLASS_DIRS[rng.below(4) as usize];
    FindQuery::default()
        .pattern(&format!("/{class}/**"))
        .min_size(rng.below(1 << 18))
}

/// The end-to-end metrics of a run, by name (every one of
/// [`crate::spec::END_TO_END`]), each with the line that states its
/// sample count.
pub fn end_to_end(m: &Measured) -> BTreeMap<&'static str, (f64, String)> {
    let mut out = BTreeMap::new();
    let reps = m.events_per_s.len();
    out.insert(
        "setup_s",
        (
            median(&m.setup_s),
            format!("median of {} set-ups", m.setup_s.len()),
        ),
    );
    out.insert(
        "events_per_s",
        (
            median(&m.events_per_s),
            format!("median of {reps} drains of {} events", m.events_per_rep),
        ),
    );
    out.insert(
        "cpu_us_per_event",
        (
            median(&m.cpu_us_per_event),
            format!(
                "median of {} drains of {} events",
                m.cpu_us_per_event.len(),
                m.events_per_rep
            ),
        ),
    );
    out.insert(
        "peak_rss_mb",
        (m.peak_rss_mb, "VmHWM after the last repetition".to_string()),
    );
    let mut latency = |name: &'static str, pick: fn(&PacedRep) -> &Vec<f64>, q: f64| {
        let groups: Vec<Vec<f64>> = m.paced.reps.iter().map(|rep| pick(rep).clone()).collect();
        let samples: usize = groups.iter().map(Vec::len).sum();
        let (value, note) = match mean_of_percentiles(&groups, q) {
            Some((v, n)) => (
                v,
                format!("trimmed mean over {n} repetitions of the per-repetition percentile, {samples} samples"),
            ),
            None => (f64::NAN, "no samples".to_string()),
        };
        out.insert(name, (value, note));
    };
    latency("latency_p50_ms", |r| &r.busy, 0.5);
    latency("latency_p90_ms", |r| &r.busy, 0.9);
    latency("idle_latency_p50_ms", |r| &r.idle, 0.5);
    latency("idle_latency_p90_ms", |r| &r.idle, 0.9);
    latency("filtered_latency_p50_ms", |r| &r.filtered_busy, 0.5);
    let rb = &m.readback;
    out.insert(
        "replay_events_per_s",
        (
            median(&rb.replay_events_per_s),
            format!(
                "median of {} catch-ups of {} events",
                rb.replay_events_per_s.len(),
                rb.events
            ),
        ),
    );
    out.insert(
        "index_fold_events_per_s",
        (
            median(&rb.fold_events_per_s),
            format!(
                "median of {} folds of {} events",
                rb.fold_events_per_s.len(),
                rb.events
            ),
        ),
    );
    let queries: usize = rb.query_us.iter().map(Vec::len).sum();
    for (name, pct) in [("index_query_p50_us", 0.5), ("index_query_p90_us", 0.9)] {
        let (value, n) = mean_of_percentiles(&rb.query_us, pct).unwrap_or((f64::NAN, 0));
        out.insert(
            name,
            (
                value,
                format!("trimmed mean over {n} repetitions of the per-repetition percentile, {queries} queries"),
            ),
        );
    }
    out
}

/// `gen.rep_spread_pct`: IQR ÷ median of the per-repetition drain
/// rate, percent — the noise inside one run.
pub fn rep_spread_pct(m: &Measured) -> f64 {
    spread(&m.events_per_s) * 100.0
}
