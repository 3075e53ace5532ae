//! Workload generation: every input is a fixed *count* of operations
//! derived from the seed, never a duration, so two runs of one seed
//! drain the same records.
//!
//! The namespace is four top-level class directories whose shares of
//! the traffic set the filter selectivities of `drain_fanout`
//! (`/hot` 0.1%, `/warm` 1%, `/tepid` 10%, `/cold` the rest), each
//! with one sub-directory per MDT so every MDT has a stream.

use lustre_sim::{LustreClient, LustreFs};
use std::sync::Arc;

/// Deterministic xorshift64* generator (no dependency, reproducible).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed through splitmix64 so nearby seeds diverge at once.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The four traffic classes, by share of operations.
pub const CLASS_DIRS: [&str; 4] = ["hot", "warm", "tepid", "cold"];

/// Class of a per-mille roll: 1‰ hot, 10‰ warm, 100‰ tepid, rest cold.
pub fn class_of_roll(roll: u64) -> &'static str {
    match roll % 1000 {
        0 => "hot",
        1..=10 => "warm",
        11..=110 => "tepid",
        _ => "cold",
    }
}

/// The directory skeleton: `/<class>/<sub>` for every class and one
/// `sub` per MDT (sub-directory names are probed until each MDT owns
/// one — the simulator places a directory by hashing its name).
#[derive(Debug, Clone)]
pub struct Layout {
    /// Sub-directory name owned by each MDT, indexed by MDT.
    pub subs: Vec<String>,
}

impl Layout {
    /// Create the skeleton on a fresh file system. Its MKDIR records
    /// are part of the backlog like any other.
    pub fn create(fs: &Arc<LustreFs>, client: &LustreClient) -> Layout {
        let n = fs.mdt_count() as usize;
        for class in CLASS_DIRS {
            client.mkdir(&format!("/{class}")).expect("mkdir class dir");
        }
        let mut subs: Vec<Option<String>> = vec![None; n];
        let mut i = 0;
        while subs.iter().any(Option::is_none) {
            assert!(i < 4096, "no sub-directory name lands on every MDT");
            let name = format!("d{i}");
            let probe = format!("/cold/{name}");
            client.mkdir(&probe).expect("mkdir probe");
            let mdt = fs.mdt_of(&probe).expect("probe exists") as usize;
            if subs[mdt].is_none() {
                subs[mdt] = Some(name);
            } else {
                client.rmdir(&probe).expect("rmdir probe");
            }
            i += 1;
        }
        let subs: Vec<String> = subs.into_iter().map(|s| s.expect("filled")).collect();
        for class in &CLASS_DIRS[..3] {
            for sub in &subs {
                client
                    .mkdir(&format!("/{class}/{sub}"))
                    .expect("mkdir class sub");
            }
        }
        Layout { subs }
    }

    /// `/<class>/<sub of mdt>/<name>`.
    pub fn path(&self, class: &str, mdt: usize, name: &str) -> String {
        format!("/{class}/{}/{name}", self.subs[mdt])
    }
}

/// The shape of the backlog script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Pipelined create / write / unlink over a bounded working set
    /// per MDT: the paper's `Evaluate_Performance_Script`, with the
    /// namespace held at `working_set` live files so the simulator's
    /// tables never grow.
    Churn,
    /// Namespace building: files persist under project directories,
    /// are written, re-owned and truncated, and one in eight is
    /// unlinked — the index ends with a real population for
    /// `find`/`du`/policies to walk.
    Build,
}

/// How many paced-phase files exist at any time: tick `k` creates
/// `s<k + LIVE_WINDOW>` and unlinks `s<k>`, so every tick unlinks.
/// Twice the smallest collector cache (1024, `drain_resolve`) and
/// well under the default one (5000): an unlinked file's mapping is
/// then surely evicted on the one and surely cached on the others.
/// At exactly the cache size the hit depended on how the seed spread
/// FIDs over the cache's shards, and idle latency took one of two
/// values a `fid2path` wait apart.
pub const LIVE_WINDOW: u64 = 2048;

/// Generate the backlog on `fs`: `records_per_mdt` script records on
/// every MDT, then the first [`LIVE_WINDOW`] paced files `s0..`.
/// Returns the slowest single client operation, ms (a simulator table
/// resize shows up here, not in the pipeline's numbers).
pub fn generate_backlog(
    fs: &Arc<LustreFs>,
    layout: &Layout,
    script: Script,
    working_set: usize,
    records_per_mdt: u64,
    seed: u64,
) -> f64 {
    let client = fs.client();
    let n_mdt = fs.mdt_count() as usize;
    let mut rng = Rng::new(seed);
    // A slot's class is fixed for the run (so create/write/unlink of
    // one slot hit one path) but reshuffled by the seed.
    let class_salt = rng.next_u64();
    let slot_class = |slot: u64| {
        let mut h = Rng::new(slot ^ class_salt);
        class_of_roll(h.next_u64())
    };
    let mut slowest = std::time::Duration::ZERO;
    let mut timed = |op: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        op();
        slowest = slowest.max(t0.elapsed());
    };
    let w = working_set as u64;
    match script {
        Script::Churn => {
            // Step t: unlink the file created `w` steps ago, create
            // this step's, write the one created `w/2` steps ago.
            let steps = records_per_mdt / 3;
            for t in 0..steps {
                for mdt in 0..n_mdt {
                    let name = |step: u64| {
                        layout.path(slot_class(step % w), mdt, &format!("f{}", step % w))
                    };
                    if t >= w {
                        timed(&mut || client.unlink(&name(t - w)).expect("unlink"));
                    }
                    timed(&mut || client.create(&name(t)).expect("create"));
                    if t >= w / 2 {
                        let len = 1 + rng.below(1 << 16);
                        timed(&mut || client.write(&name(t - w / 2), 0, len).expect("write"));
                    }
                }
            }
        }
        Script::Build => {
            // Files persist under `working_set` project directories
            // per class sub-directory: create, write, chown, then
            // either truncate + write or (every eighth file) unlink.
            // A project directory lands on whichever MDT its name
            // hashes to, as on a real DNE mount.
            let files = records_per_mdt / 5;
            let mut made = std::collections::HashSet::new();
            for f in 0..files {
                for mdt in 0..n_mdt {
                    let project = rng.below(w.max(1));
                    let dir = layout.path(slot_class(project), mdt, &format!("p{project}"));
                    if made.insert(dir.clone()) {
                        timed(&mut || client.mkdir(&dir).expect("mkdir project"));
                    }
                    let path = format!("{dir}/b{f}");
                    timed(&mut || client.create(&path).expect("create"));
                    // Small writes: the simulated OSTs hold 1 GiB in all.
                    let len = 2 + rng.below(1 << 13);
                    timed(&mut || client.write(&path, 0, len).expect("write"));
                    let uid = rng.below(8) as u32;
                    timed(&mut || client.chown(&path, uid).expect("chown"));
                    if f % 8 == 7 {
                        timed(&mut || client.unlink(&path).expect("unlink"));
                    } else {
                        timed(&mut || client.truncate(&path, len / 2).expect("truncate"));
                        timed(&mut || client.write(&path, len / 2, 512).expect("write"));
                    }
                }
            }
        }
    }
    let live = LiveNames::new(layout, n_mdt, seed);
    for seq in 0..LIVE_WINDOW {
        timed(&mut || client.create(&live.path_of(seq)).expect("create live"));
    }
    slowest.as_secs_f64() * 1e3
}

/// Share of paced ticks that land in the filtered consumer's subtree.
/// The subtree carries 10% of the *script's* traffic (that sets the
/// filter's selectivity in the drain); the paced phase sends it three
/// ticks in ten so that a sub-second busy phase still hands the
/// filtered consumer enough latencies for a median — a tick's latency
/// does not depend on how many others share its directory.
pub const TEPID_TICK_SHARE: f64 = 0.3;

/// Where paced-phase file `s<seq>` lives. Deterministic in `(seed,
/// seq)`, so the generator can unlink a file it created a window ago
/// without remembering its path.
#[derive(Debug, Clone)]
pub struct LiveNames {
    layout: Layout,
    n_mdt: usize,
    salt: u64,
}

impl LiveNames {
    /// Names for one run.
    pub fn new(layout: &Layout, n_mdt: usize, seed: u64) -> LiveNames {
        LiveNames {
            layout: layout.clone(),
            n_mdt,
            salt: Rng::new(seed ^ 0x11fe).next_u64(),
        }
    }

    /// Path of `s<seq>`: MDTs round-robin; [`TEPID_TICK_SHARE`] of
    /// the ticks land in `/tepid` (the filtered consumer's subtree),
    /// the rest in `/cold`.
    pub fn path_of(&self, seq: u64) -> String {
        let mut h = Rng::new(seq ^ self.salt);
        let class = if (h.below(100) as f64) < TEPID_TICK_SHARE * 100.0 {
            "tepid"
        } else {
            "cold"
        };
        self.layout.path(
            class,
            (seq % self.n_mdt as u64) as usize,
            &format!("s{seq}"),
        )
    }
}

/// The sequence number coded in a paced file's name: the last path
/// component must be `s` followed by decimal digits only.
pub fn parse_seq(path: &str) -> Option<u64> {
    let name = path.rsplit('/').next()?;
    let digits = name.strip_prefix('s')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// First-event-wins bookkeeping for paced latencies: the CREAT of
/// `s<seq>` is timed, the UNLNK a window later (same name) is not.
#[derive(Debug, Clone)]
pub struct FirstSeen {
    seen: Vec<bool>,
    base: u64,
}

impl FirstSeen {
    /// Track sequence numbers `base..base + len`.
    pub fn new(base: u64, len: usize) -> FirstSeen {
        FirstSeen {
            seen: vec![false; len],
            base,
        }
    }

    /// Sequence numbers seen so far.
    pub fn count(&self) -> usize {
        self.seen.iter().filter(|s| **s).count()
    }

    /// `Some(seq)` the first time a path naming a tracked sequence
    /// number is offered; `None` for repeats, other names, and
    /// sequence numbers outside the tracked range.
    pub fn first(&mut self, path: &str) -> Option<u64> {
        let seq = parse_seq(path)?;
        let slot = self
            .seen
            .get_mut(usize::try_from(seq.checked_sub(self.base)?).ok()?)?;
        if *slot {
            None
        } else {
            *slot = true;
            Some(seq)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_parser_accepts_only_s_digits() {
        assert_eq!(parse_seq("/cold/d0/s123"), Some(123));
        assert_eq!(parse_seq("s7"), Some(7));
        assert_eq!(parse_seq("/cold/d0/s"), None);
        assert_eq!(parse_seq("/cold/d0/s12x"), None);
        assert_eq!(parse_seq("/cold/d0/f12"), None);
        assert_eq!(parse_seq("/s12/f3"), None, "only the last component counts");
        assert_eq!(parse_seq("/cold/d0/s-1"), None);
        assert_eq!(parse_seq("/cold/d0/s99999999999999999999999"), None);
    }

    #[test]
    fn first_event_wins() {
        let mut seen = FirstSeen::new(100, 50);
        assert_eq!(seen.first("/cold/d0/s120"), Some(120), "the CREAT");
        assert_eq!(seen.first("/cold/d0/s120"), None, "the later UNLNK");
        assert_eq!(seen.first("/cold/d0/s99"), None, "below the phase");
        assert_eq!(seen.first("/cold/d0/s150"), None, "past the phase");
        assert_eq!(seen.first("/cold/d0/f120"), None);
        assert_eq!(seen.first("/tepid/d1/s149"), Some(149));
    }

    #[test]
    fn same_seed_same_stream_and_class_shares_hold() {
        let (mut a, mut b, mut c) = (Rng::new(5), Rng::new(5), Rng::new(6));
        let (xa, xb, xc): (Vec<u64>, Vec<u64>, Vec<u64>) = (
            (0..8).map(|_| a.next_u64()).collect(),
            (0..8).map(|_| b.next_u64()).collect(),
            (0..8).map(|_| c.next_u64()).collect(),
        );
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        let mut counts = std::collections::BTreeMap::new();
        for roll in 0..1000 {
            *counts.entry(class_of_roll(roll)).or_insert(0) += 1;
        }
        assert_eq!(counts["hot"], 1);
        assert_eq!(counts["warm"], 10);
        assert_eq!(counts["tepid"], 100);
        assert_eq!(counts["cold"], 889);
    }

    #[test]
    fn backlog_has_the_stated_record_count_on_every_mdt() {
        let fs = LustreFs::new(lustre_sim::LustreConfig::small_dne(2));
        let client = fs.client();
        let layout = Layout::create(&fs, &client);
        let skeleton: Vec<u64> = (0..2)
            .map(|m| fs.mdt(m).changelog_stats().appended)
            .collect();
        generate_backlog(&fs, &layout, Script::Churn, 64, 3000, 9);
        let script: u64 = (0..2u16)
            .map(|m| fs.mdt(m).changelog_stats().appended - skeleton[m as usize])
            .sum();
        // 1000 steps per MDT: 1000 creates, 1000-64 unlinks, 1000-32
        // writes, plus the live window.
        assert_eq!(script, 2 * (1000 + 936 + 968) + LIVE_WINDOW);
        // Same seed, same records.
        let fs2 = LustreFs::new(lustre_sim::LustreConfig::small_dne(2));
        let layout2 = Layout::create(&fs2, &fs2.client());
        generate_backlog(&fs2, &layout2, Script::Churn, 64, 3000, 9);
        let render = |fs: &Arc<LustreFs>| -> Vec<String> {
            fs.mdt(1)
                .read_changelog(0, 100_000)
                .iter()
                .map(|r| format!("{:?} {}", r.kind, r.target_name))
                .collect()
        };
        assert_eq!(render(&fs), render(&fs2));
    }
}
