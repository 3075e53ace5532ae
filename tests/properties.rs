//! Property-based tests over cross-crate invariants.

use bytes::Bytes;
use fsmon_events::{
    decode_event, decode_event_batch, encode_event, encode_event_batch, walk_event_batch,
    EventFields, EventKind, EventView, MonitorSource, StandardEvent,
};
use fsmon_lustre::Collector;
use lustre_sim::{ChangelogRecord, Fid, LustreConfig, LustreFs};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop::sample::select(EventKind::ALL.to_vec())
}

fn arb_source() -> impl Strategy<Value = MonitorSource> {
    prop::sample::select(MonitorSource::ALL.to_vec())
}

/// Namespace-mutating event sequences over a small path pool, so
/// rename chains, re-created paths, and delete/create races all show
/// up. Ids are dense from 1, matching the sequencer's stamping.
fn arb_index_ops() -> impl Strategy<Value = Vec<StandardEvent>> {
    prop::collection::vec(
        (
            0u8..5,
            0usize..6,
            0usize..6,
            1u64..1_000_000,
            0u32..4,
            0u64..10_000_000_000u64,
        ),
        1..80,
    )
    .prop_map(|ops| {
        let path = |n: usize| format!("/d{}/f{}", n % 2, n);
        ops.into_iter()
            .enumerate()
            .map(|(i, (which, a, b, size, owner, ts))| {
                let mut ev = match which {
                    0 => StandardEvent::new(EventKind::Create, "/r", path(a))
                        .with_size(size)
                        .with_owner(owner),
                    1 => StandardEvent::new(EventKind::Delete, "/r", path(a)),
                    2 => {
                        StandardEvent::new(EventKind::MovedTo, "/r", path(b)).with_old_path(path(a))
                    }
                    3 => StandardEvent::new(EventKind::CloseWrite, "/r", path(a)).with_size(size),
                    _ => StandardEvent::new(EventKind::Attrib, "/r", path(a)).with_owner(owner),
                };
                ev.id = (i + 1) as u64;
                ev.timestamp_ns = ts;
                ev
            })
            .collect()
    })
}

prop_compose! {
    fn arb_event()(
        kind in arb_kind(),
        source in arb_source(),
        is_dir in any::<bool>(),
        id in any::<u64>(),
        cookie in any::<u32>(),
        ts in any::<u64>(),
        mdt in prop::option::of(0u16..4),
        root in "/[a-z]{1,8}(/[a-z]{1,8}){0,2}",
        path in "/[a-zA-Z0-9._-]{1,12}(/[a-zA-Z0-9._-]{1,12}){0,3}",
        old in prop::option::of("/[a-z]{1,12}"),
        size in prop::option::of(any::<u64>()),
        owner in prop::option::of(any::<u32>()),
    ) -> StandardEvent {
        StandardEvent {
            id, kind, is_dir,
            watch_root: root,
            path,
            old_path: old,
            cookie,
            timestamp_ns: ts,
            source,
            mdt_index: mdt,
            size,
            owner,
        }
    }
}

/// Walk `raw` as a batch frame and check the walk against
/// `decode_event_batch`: both accept or both reject, and on acceptance
/// every view equals its decoded event field for field and its byte
/// range tiles the frame from offset 4. Returns the record count of an
/// accepted frame.
fn walker_agrees_with_decoder(raw: &[u8]) -> Option<usize> {
    let decoded = decode_event_batch(&Bytes::copy_from_slice(raw));
    let walked: Result<Vec<(std::ops::Range<usize>, EventView<'_>)>, _> =
        walk_event_batch(raw).and_then(|walk| walk.collect());
    match (&walked, &decoded) {
        (Ok(views), Ok(events)) => {
            assert_eq!(views.len(), events.len());
            let mut at = 4;
            for ((range, view), ev) in views.iter().zip(events) {
                assert_eq!(range.start, at);
                at = range.end;
                assert_eq!(view.to_event(), *ev);
                assert_eq!(
                    (view.id(), view.kind(), view.is_dir(), view.mdt_index()),
                    (ev.id, ev.kind, ev.is_dir, ev.mdt_index)
                );
                assert_eq!(view.path(), ev.path);
                assert_eq!(view.old_path(), ev.old_path.as_deref());
            }
            Some(views.len())
        }
        (Err(w), Err(d)) => {
            assert_eq!(w, d, "walker and decoder reject for different reasons");
            None
        }
        _ => panic!("walker {walked:?} and decoder {decoded:?} disagree on {raw:?}"),
    }
}

/// Random pushdown predicates: glob patterns assembled from the same
/// component alphabet the event stream draws paths from (so literal
/// trie prefixes collide and diverge), random kind subsets, and
/// occasional MDT restrictions.
fn arb_filter_specs() -> impl Strategy<Value = Vec<fsmon_rules::FilterSpec>> {
    let component = prop::sample::select(vec![
        "a", "b", "d0", "d1", "f1", "*", "**", "*.h5", "f*", "x.h5",
    ]);
    let pattern =
        prop::collection::vec(component, 1..4).prop_map(|comps| format!("/{}", comps.join("/")));
    let kinds = prop::collection::vec(arb_kind(), 0..4).prop_map(|picked| {
        if picked.is_empty() {
            fsmon_events::kind::KindMask::ALL
        } else {
            fsmon_events::kind::KindMask::from_kinds(picked)
        }
    });
    let mdts = prop::option::of(prop::collection::vec(0u16..4, 1..3));
    let spec = (pattern, kinds, mdts).prop_map(|(pattern, kinds, mdts)| {
        let mut spec = fsmon_rules::FilterSpec::all().with_kinds(kinds);
        spec.pattern = pattern;
        if let Some(set) = mdts {
            spec = spec.with_mdts(set);
        }
        spec
    });
    prop::collection::vec(spec, 0..12)
}

/// Event streams for the index-equivalence property: paths over the
/// filter alphabet, every kind, renames carrying old paths, and a mix
/// of unstamped / low / high MDT indices (high ones exercise the
/// bitmask fallback).
fn arb_filter_stream() -> impl Strategy<Value = Vec<StandardEvent>> {
    fn path() -> impl Strategy<Value = String> {
        let component = prop::sample::select(vec!["a", "b", "d0", "d1", "f1", "x.h5", "deep"]);
        prop::collection::vec(component, 1..5).prop_map(|c| format!("/{}", c.join("/")))
    }
    let ev = (
        arb_kind(),
        path(),
        prop::option::of(path()),
        prop::option::of(prop_oneof![0u16..4, Just(200u16)]),
    )
        .prop_map(|(kind, path, old, mdt)| {
            let mut ev = StandardEvent::new(kind, "/", path);
            ev.old_path = old;
            ev.mdt_index = mdt;
            ev
        });
    prop::collection::vec(ev, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_roundtrip_any_event(ev in arb_event()) {
        let frame = encode_event(&ev);
        prop_assert_eq!(decode_event(&frame).unwrap(), ev);
    }

    #[test]
    fn wire_roundtrip_batches(evs in prop::collection::vec(arb_event(), 0..50)) {
        let frame = encode_event_batch(&evs);
        prop_assert_eq!(decode_event_batch(&frame).unwrap(), evs);
    }

    #[test]
    fn decoder_never_panics_on_garbage(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        // Must return an error or a value, never panic.
        let _ = decode_event(&Bytes::from(raw.clone()));
        walker_agrees_with_decoder(&raw);
        let _ = decode_event_batch(&Bytes::from(raw));
    }

    /// The allocation-free walker and the owning decoder are one
    /// parser: on random batches (renames with old paths, size/owner
    /// tails, both `is_dir` values), on every truncation of them and
    /// on random byte flips, the walker accepts exactly the frames the
    /// decoder accepts, and each view carries the decoded event's
    /// fields.
    #[test]
    fn batch_walker_agrees_with_decoder(
        evs in prop::collection::vec(arb_event(), 0..12),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        let frame = encode_event_batch(&evs);
        let walked = walker_agrees_with_decoder(&frame).expect("intact frame walks");
        prop_assert_eq!(walked, evs.len());
        for cut in 0..frame.len() {
            walker_agrees_with_decoder(&frame[..cut]);
        }
        let mut flipped = frame.to_vec();
        for (at, mask) in flips {
            let at = at % flipped.len();
            flipped[at] ^= mask;
        }
        walker_agrees_with_decoder(&flipped);
    }

    /// Fan-out matches on frame-borrowed views: over views the index
    /// selects exactly what it selects over the decoded events, and
    /// both equal the brute-force per-class evaluation.
    #[test]
    fn subscription_index_matches_views_as_events(
        specs in arb_filter_specs(),
        events in arb_filter_stream(),
    ) {
        use fsmon_rules::SubscriptionIndex;
        let index = SubscriptionIndex::build(specs.iter().map(|s| s.compile()).collect());
        let frame = encode_event_batch(&events);
        let decoded = decode_event_batch(&frame).unwrap();
        let (mut on_view, mut on_event) = (Vec::new(), Vec::new());
        for (record, ev) in walk_event_batch(&frame).unwrap().zip(&decoded) {
            let (_, view) = record.unwrap();
            index.matches_into(&view, &mut on_view);
            index.matches_into(ev, &mut on_event);
            prop_assert_eq!(&on_view, &on_event, "view and event disagree on {:?}", ev);
            prop_assert_eq!(&on_view, &index.brute_force(&view));
        }
    }

    #[test]
    fn changelog_record_render_parse_roundtrip(
        oid in 1u32..1_000_000,
        parent_oid in 1u32..1_000_000,
        // Names without whitespace (the textual format is
        // whitespace-delimited, as lfs changelog output is).
        name in "[a-zA-Z0-9._-]{1,32}",
        code in prop::sample::select(
            fsmon_events::changelog::ChangelogKind::ALL.to_vec()
        ),
        ts in 0u64..4_000_000_000_000_000_000,
    ) {
        let rec = ChangelogRecord {
            index: 42,
            kind: code,
            time_ns: ts,
            flags: 0,
            target_fid: Fid::new(0x200000400, oid, 0),
            parent_fid: Fid::new(0x200000400, parent_oid, 0),
            target_name: name,
            rename: None,
            rename_target_name: None,
            mdt_index: 0,
        };
        let parsed = ChangelogRecord::parse(&rec.render(), 0).unwrap();
        prop_assert_eq!(parsed.kind, rec.kind);
        prop_assert_eq!(parsed.target_fid, rec.target_fid);
        prop_assert_eq!(parsed.parent_fid, rec.parent_fid);
        prop_assert_eq!(parsed.target_name, rec.target_name);
    }

    #[test]
    fn collector_resolves_every_live_path_correctly(
        names in prop::collection::hash_set("[a-z]{1,10}", 1..20),
        depth in 0usize..3,
    ) {
        let fs = LustreFs::new(LustreConfig::small());
        let client = fs.client();
        let mut dir = String::new();
        for d in 0..depth {
            dir = format!("{dir}/level{d}");
            client.mkdir(&dir).unwrap();
        }
        let mut collector = Collector::new(fs.mdt(0), "/mnt/lustre", 1000, 4096, None);
        let mut expected: Vec<String> = Vec::new();
        for name in &names {
            let path = format!("{dir}/{name}");
            client.create(&path).unwrap();
            expected.push(path);
        }
        let events = collector.drain(100);
        let got: std::collections::HashSet<String> = events
            .iter()
            .filter(|e| e.kind == EventKind::Create && !e.is_dir)
            .map(|e| e.path.clone())
            .collect();
        for path in expected {
            prop_assert!(got.contains(&path), "missing {}", path);
        }
    }

    #[test]
    fn resolver_pool_width_never_changes_the_event_stream(
        ops in prop::collection::vec((0u8..7, 0usize..24, 0usize..24), 1..120),
        cache in prop::sample::select(vec![0usize, 3, 64]),
        batch in prop::sample::select(vec![2usize, 7, 1024]),
        mdts in prop::sample::select(vec![1u16, 2]),
    ) {
        // A random namespace script, fully applied before any collector
        // steps — so records outlive their FIDs, the case where the
        // cache is the only source of a path — must resolve to exactly
        // the events of `resolver_threads = 1` for every pool width, on
        // every MDT (with two, cached directories are re-checked).
        let fs = LustreFs::new(LustreConfig::small_dne(mdts));
        let client = fs.client();
        let widths = [1usize, 2, 4, 8];
        let mut collectors: Vec<Collector> = (0..mdts)
            .flat_map(|mdt| widths.map(|t| (mdt, t)))
            .map(|(mdt, t)| {
                Collector::new(fs.mdt(mdt), "/mnt/lustre", cache, batch, None)
                    .with_resolver_threads(t)
            })
            .collect();
        let dir = |n: usize| ["/a", "/b", "/a/a", "/a/b", "/b/a", "/b/b"][n % 6];
        let file = |n: usize| format!("{}/f{}", dir(n), n / 6);
        let any = |n: usize| if n.is_multiple_of(4) { dir(n / 4).to_string() } else { file(n) };
        for d in ["/a", "/b", "/a/a"] {
            client.mkdir(d).unwrap();
        }
        // Most scripts ask for something the namespace cannot do just
        // then (unlink of a missing file, ...): those ops emit nothing.
        for (op, a, b) in ops {
            let _ = match op {
                0 => client.mkdir(dir(a)),
                1 => client.create(&file(a)),
                2 => client.write(&file(a), 0, 1 + b as u64),
                3 => client.rename(&any(a), &any(b)),
                4 => client.link(&file(a), &file(b)),
                5 => client.unlink(&file(a)),
                _ => client.rmdir(dir(a)),
            };
        }
        let streams: Vec<Vec<StandardEvent>> =
            collectors.iter_mut().map(|c| c.drain(10_000)).collect();
        prop_assert!(streams.iter().step_by(widths.len()).map(Vec::len).sum::<usize>() >= 3);
        for per_mdt in streams.chunks(widths.len()) {
            for (width, stream) in widths.iter().zip(per_mdt).skip(1) {
                prop_assert_eq!(stream, &per_mdt[0], "resolver_threads = {}", width);
            }
        }
    }

    #[test]
    fn fid_display_parse_roundtrip(seq in any::<u64>(), oid in any::<u32>(), ver in any::<u32>()) {
        let fid = Fid::new(seq, oid, ver);
        prop_assert_eq!(Fid::parse(&fid.to_string()), Some(fid));
    }

    #[test]
    fn fleet_merge_equals_concatenated_workload(
        shards in prop::collection::vec(
            prop::collection::vec((0usize..3, 1u64..100_000), 0..30),
            1..5,
        )
    ) {
        // Fleet aggregation invariant: folding N per-collector snapshots
        // with `merge_fleet` must equal one registry that saw every
        // shard's workload concatenated — counters sum and histograms
        // add, independent of how the work was split.
        use fsmon_telemetry::{Registry, Snapshot};
        let combined = Registry::new();
        let mut fleet = Snapshot::default();
        for ops in &shards {
            let local = Registry::new();
            for &(which, amount) in ops {
                for reg in [&local, &combined] {
                    let scope = reg.scope("fsmon").scope("prop");
                    match which {
                        0 => scope.counter("alpha_total").add(amount),
                        1 => scope.counter("beta_total").add(amount),
                        _ => scope.histogram("lat_ns").record(amount),
                    }
                }
            }
            fleet.merge_fleet(&local.snapshot());
        }
        let all = combined.snapshot();
        prop_assert_eq!(
            fleet.counter("fsmon_prop_alpha_total"),
            all.counter("fsmon_prop_alpha_total")
        );
        prop_assert_eq!(
            fleet.counter("fsmon_prop_beta_total"),
            all.counter("fsmon_prop_beta_total")
        );
        match (
            fleet.histogram("fsmon_prop_lat_ns"),
            all.histogram("fsmon_prop_lat_ns"),
        ) {
            (Some(f), Some(a)) => {
                prop_assert_eq!(f.count(), a.count());
                prop_assert_eq!(f.quantile(0.5), a.quantile(0.5));
                prop_assert_eq!(f.quantile(0.99), a.quantile(0.99));
            }
            (f, a) => prop_assert_eq!(f.is_none(), a.is_none()),
        }
    }

    #[test]
    fn trace_records_roundtrip_the_wire(
        records in prop::collection::vec(
            (any::<u32>(), any::<u16>(), any::<u64>(),
             prop::collection::vec(any::<u64>(), 7)),
            0..20,
        )
    ) {
        use fsmon_telemetry::TraceRecord;
        let records: Vec<TraceRecord> = records
            .into_iter()
            .map(|(pos, mdt, event_id, stamps)| TraceRecord {
                pos,
                mdt,
                event_id,
                stamps: stamps.try_into().unwrap(),
            })
            .collect();
        let encoded = TraceRecord::encode_all(&records);
        prop_assert_eq!(TraceRecord::decode_all(&encoded).unwrap(), records);
    }

    #[test]
    fn filter_matches_are_prefix_consistent(
        prefix in "/[a-z]{1,6}",
        rest in "(/[a-z]{1,6}){0,3}",
    ) {
        use fsmon_core::EventFilter;
        let filter = EventFilter::subtree(prefix.clone());
        let inside = StandardEvent::new(EventKind::Create, "/r", format!("{prefix}{rest}"));
        prop_assert!(filter.matches(&inside));
        let outside = StandardEvent::new(EventKind::Create, "/r", format!("{prefix}x{rest}"));
        prop_assert!(!filter.matches(&outside), "{}", outside.path);
    }

    #[test]
    fn index_fold_of_any_interleaving_equals_linear_replay(
        events in arb_index_ops(),
        swaps in prop::collection::vec(any::<prop::sample::Index>(), 0..80),
        chunk in 1usize..5,
    ) {
        use fsmon_index::{IndexService, NamespaceIndex, PolicyEngine};
        // Reference: one linear replay of the stamped sequence, the
        // way `catch_up` would read it back from the store.
        let mut linear = NamespaceIndex::new();
        for ev in &events {
            linear.apply(ev);
        }
        // Live side: the same events delivered in an arbitrary order
        // (gap heals surface late), in small batches, then the whole
        // original batch redelivered once more as duplicates. The
        // permutation is a Fisher-Yates driven by generated indices.
        let mut order: Vec<usize> = (0..events.len()).collect();
        for (i, pick) in swaps.iter().enumerate() {
            let a = i % order.len();
            let b = pick.index(order.len());
            order.swap(a, b);
        }
        let mut svc = IndexService::new(PolicyEngine::empty());
        let shuffled: Vec<StandardEvent> =
            order.iter().map(|&i| events[i].clone()).collect();
        for batch in shuffled.chunks(chunk) {
            svc.ingest(batch);
        }
        prop_assert_eq!(svc.ingest(&events), 0, "redelivery folds to zero");
        prop_assert_eq!(svc.index().applied_seq(), events.len() as u64);
        prop_assert_eq!(svc.pending_len(), 0);
        prop_assert_eq!(svc.index(), &linear);
    }

    #[test]
    fn index_snapshot_roundtrips_any_folded_state(events in arb_index_ops()) {
        use fsmon_index::NamespaceIndex;
        let mut idx = NamespaceIndex::new();
        for ev in &events {
            idx.apply(ev);
        }
        let decoded = NamespaceIndex::decode_snapshot(&idx.encode_snapshot())
            .expect("snapshot decodes");
        prop_assert_eq!(decoded, idx);
    }

    /// The aggregator's compiled subscription index prunes candidates
    /// through a literal-prefix trie; pruning must never change the
    /// outcome. Random predicate sets (glob patterns with mid-pattern
    /// wildcards, kind subsets, MDT subsets) over random event streams
    /// (shared component alphabet so prefixes collide, renames, mixed
    /// MDT stamps) must match exactly the brute-force per-class
    /// evaluation.
    #[test]
    fn subscription_index_equals_brute_force(
        specs in arb_filter_specs(),
        events in arb_filter_stream(),
    ) {
        use fsmon_rules::SubscriptionIndex;
        let index = SubscriptionIndex::build(specs.iter().map(|s| s.compile()).collect());
        for ev in &events {
            let indexed = index.matches(ev);
            let brute = index.brute_force(ev);
            prop_assert_eq!(
                &indexed, &brute,
                "index and brute-force disagree on {:?} across {:?}",
                ev, specs
            );
        }
    }

    /// The federation resume contract: resuming a federated consumer
    /// from an arbitrary vector watermark and catching up heals
    /// exactly the union of per-shard linear replays past each
    /// shard's cursor — no loss, no duplicates, no cross-shard
    /// bleed. One designated shard additionally purges a prefix of
    /// its store (the janitor ran past this consumer's cursor):
    /// replay then starts at that shard's purge floor, exactly as a
    /// linear replay of that shard alone would.
    #[test]
    fn federated_resume_heals_union_of_shard_replays(
        case in federation_resume_case(),
    ) {
        use fsmon_core::VectorWatermark;
        use fsmon_lustre::{Consumer, FederatedConsumer};
        use fsmon_store::{EventStore, MemStore};
        use std::sync::Arc;

        let (per_shard, purge_shard, purge_depth) = case;
        let ctx = fsmon_mq::Context::new();
        let mut stores: Vec<Arc<dyn EventStore>> = Vec::new();
        let mut publishers = Vec::new();
        let mut lanes = Vec::new();
        for (k, &(n_events, _)) in per_shard.iter().enumerate() {
            let store: Arc<dyn EventStore> = Arc::new(MemStore::new());
            let events: Vec<StandardEvent> = (0..n_events)
                .map(|i| {
                    let mut ev = StandardEvent::new(
                        EventKind::Create,
                        "/",
                        format!("/s{k}/f{i}"),
                    );
                    ev.mdt_index = Some(k as u16);
                    ev.timestamp_ns = (i + 1) * 1000 + k as u64;
                    ev
                })
                .collect();
            if !events.is_empty() {
                store.append_batch(&events).unwrap();
            }
            if k == purge_shard && purge_depth > 0 {
                store.mark_reported(purge_depth.min(n_events)).unwrap();
                store.purge_reported().unwrap();
            }
            let endpoint = format!("inproc://fed-resume-{k}");
            let publisher = ctx.publisher();
            publisher.bind(&endpoint).unwrap();
            publishers.push(publisher);
            lanes.push(Arc::new(
                Consumer::connect_traced(
                    &ctx,
                    &endpoint,
                    fsmon_core::EventFilter::all(),
                    Some(store.clone()),
                    &format!("prop-s{k}"),
                    fsmon_telemetry::Tracer::disabled(),
                )
                .unwrap(),
            ));
            stores.push(store);
        }
        let consumer = FederatedConsumer::from_parts(lanes);
        let cursors: Vec<u64> = per_shard.iter().map(|&(_, cursor)| cursor).collect();
        consumer.resume_from_vector(&VectorWatermark::from_cursors(cursors.clone()));
        consumer.catch_up();
        let mut delivered: Vec<(u16, u64)> = Vec::new();
        loop {
            let batch = consumer.drain();
            if batch.is_empty() {
                break;
            }
            delivered.extend(batch.iter().map(|e| (e.mdt_index.unwrap(), e.id)));
        }
        // The reference: each shard's linear replay past its own
        // cursor (which already reflects what the purge dropped).
        let mut expected: Vec<(u16, u64)> = Vec::new();
        for (k, store) in stores.iter().enumerate() {
            let mut since = cursors[k];
            loop {
                let chunk = store.get_since(since, 512).unwrap();
                if chunk.is_empty() {
                    break;
                }
                since = chunk.last().unwrap().id;
                expected.extend(chunk.iter().map(|e| (k as u16, e.id)));
            }
        }
        let total = delivered.len();
        delivered.sort_unstable();
        delivered.dedup();
        prop_assert_eq!(total, delivered.len(), "duplicate delivery");
        expected.sort_unstable();
        prop_assert_eq!(delivered, expected);
        // The consumer's own watermark must now dominate the resume
        // vector: cursors never regress, even past a purged prefix.
        let after = consumer.vector_watermark();
        let resumed = VectorWatermark::from_cursors(cursors);
        prop_assert!(after.dominates(&resumed));
        // The publishers outlive the drain so the lanes never see a
        // disconnect mid-heal.
        drop(publishers);
    }
}

/// Cases for the federation-resume property: K shard streams, each a
/// (event count, resume cursor) pair with cursors allowed past the
/// end of the stream, plus one designated shard and a purge depth so
/// a prefix of that shard's store is gone before the resume.
fn federation_resume_case() -> impl Strategy<Value = (Vec<(u64, u64)>, usize, u64)> {
    (1usize..5).prop_flat_map(|k| {
        (
            prop::collection::vec((0u64..32, 0u64..36), k..=k),
            0..k,
            0u64..32,
        )
    })
}
