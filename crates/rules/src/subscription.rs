//! Compiled consumer subscriptions and the shared subscription index.
//!
//! Server-side filter pushdown (ISSUE 8): instead of shipping the full
//! event firehose to every consumer and filtering client-side, consumers
//! register a predicate *at subscribe time* — a path pattern (the
//! [`PathPattern`] glob grammar), an event-kind set, and an optional MDT
//! set. Predicates with the same canonical spelling share one **filter
//! class**: the aggregator matches each sequenced event against the set
//! of distinct classes exactly once and fans pre-encoded frames out per
//! class, so fan-out cost is O(events × classes), not O(events ×
//! consumers).
//!
//! The wire format is the canonical spec string (see [`FilterSpec`]):
//! the mq layer treats it as an opaque class key, and this module is the
//! single place that parses and compiles it.
//!
//! [`SubscriptionIndex`] folds all active classes into a prefix trie
//! over the *literal* leading path components of each pattern: an event
//! walks its path components once, collecting candidate classes anchored
//! along the way, and each candidate is verified against the full
//! predicate (residual glob, kind mask, MDT set). The trie only ever
//! *prunes* — a class whose literal prefix does not lie on the event's
//! path can never match it — so index matching is exactly equivalent to
//! brute-force per-class evaluation (a property test holds this
//! invariant across randomized predicate sets and streams).

use crate::pattern::PathPattern;
use fsmon_events::kind::KindMask;
use fsmon_events::{EventFields, EventKind};
use std::collections::HashMap;

/// A parse error for a [`FilterSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpecError(pub String);

impl std::fmt::Display for FilterSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid filter spec: {}", self.0)
    }
}

impl std::error::Error for FilterSpecError {}

/// A consumer's declared interest, in canonical form.
///
/// The text grammar is `path=<pattern>;kinds=<k1,k2,…|*>;mdts=<m1,m2,…|*>`
/// with an optional `;rate=<N>` QoS clause, where `<pattern>` uses the
/// [`PathPattern`] glob grammar, kinds are [`EventKind::as_str`] names,
/// mdts are decimal MDT indices, and `N` is a per-class delivery budget
/// in events/second. `*` (or an omitted clause) means "all".
/// [`FilterSpec::canonical`] renders the normalized form — kinds in
/// wire-tag order, mdts sorted, `rate=` only when set — and that string
/// **is** the filter-class key: two subscribers whose specs canonicalize
/// identically share one class end to end. Rate-limited variants of the
/// same predicate are therefore *distinct* classes: the limit is a
/// property of the class, enforced once at its broadcast ring, not per
/// subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Path pattern source (anchored glob; `/**` matches everything).
    pub pattern: String,
    /// Accepted event kinds.
    pub kinds: KindMask,
    /// Accepted MDT indices (`None` = any, including non-Lustre events).
    pub mdts: Option<Vec<u16>>,
    /// Per-class delivery budget in events/second (`None` = unlimited).
    /// Enforced at the class's broadcast ring by a token bucket: events
    /// over budget are *shed as policy* — the class's frames still carry
    /// the full sequenced id span, so subscriber watermarks advance
    /// without triggering gap heals, and the shed count is reported on
    /// the class, never mistaken for loss.
    pub rate: Option<u32>,
}

impl FilterSpec {
    /// Match everything.
    pub fn all() -> FilterSpec {
        FilterSpec {
            pattern: "/**".to_string(),
            kinds: KindMask::ALL,
            mdts: None,
            rate: None,
        }
    }

    /// Match `prefix` and everything beneath it (any kind, any MDT).
    pub fn subtree(prefix: &str) -> FilterSpec {
        let trimmed = prefix.trim_end_matches('/');
        let pattern = if trimmed.is_empty() {
            "/**".to_string()
        } else {
            format!("{trimmed}/**")
        };
        FilterSpec {
            pattern,
            kinds: KindMask::ALL,
            mdts: None,
            rate: None,
        }
    }

    /// Restrict to a kind set.
    #[must_use]
    pub fn with_kinds(mut self, kinds: KindMask) -> FilterSpec {
        self.kinds = kinds;
        self
    }

    /// Restrict to an MDT set.
    #[must_use]
    pub fn with_mdts(mut self, mdts: impl IntoIterator<Item = u16>) -> FilterSpec {
        let mut v: Vec<u16> = mdts.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        self.mdts = Some(v);
        self
    }

    /// Cap delivery at `rate` events/second (QoS knob; see
    /// [`FilterSpec::rate`]).
    #[must_use]
    pub fn with_rate(mut self, rate: u32) -> FilterSpec {
        self.rate = Some(rate);
        self
    }

    /// Parse a spec string (see the type docs for the grammar).
    pub fn parse(text: &str) -> Result<FilterSpec, FilterSpecError> {
        let mut spec = FilterSpec::all();
        let mut saw_path = false;
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| FilterSpecError(format!("clause `{clause}` has no `=`")))?;
            match key.trim() {
                "path" => {
                    let value = value.trim();
                    if value.is_empty() {
                        return Err(FilterSpecError("empty path pattern".into()));
                    }
                    spec.pattern = value.to_string();
                    saw_path = true;
                }
                "kinds" => {
                    let value = value.trim();
                    if value == "*" {
                        spec.kinds = KindMask::ALL;
                    } else {
                        let mut mask = KindMask::NONE;
                        for name in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                            let kind = EventKind::from_str_name(name).ok_or_else(|| {
                                FilterSpecError(format!("unknown event kind `{name}`"))
                            })?;
                            mask = mask.with(kind);
                        }
                        if mask.is_empty() {
                            return Err(FilterSpecError("empty kind set".into()));
                        }
                        spec.kinds = mask;
                    }
                }
                "mdts" => {
                    let value = value.trim();
                    if value == "*" {
                        spec.mdts = None;
                    } else {
                        let mut set = Vec::new();
                        for num in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                            let mdt: u16 = num
                                .parse()
                                .map_err(|_| FilterSpecError(format!("bad mdt index `{num}`")))?;
                            set.push(mdt);
                        }
                        if set.is_empty() {
                            return Err(FilterSpecError("empty mdt set".into()));
                        }
                        set.sort_unstable();
                        set.dedup();
                        spec.mdts = Some(set);
                    }
                }
                "rate" => {
                    let value = value.trim();
                    if value == "*" {
                        spec.rate = None;
                    } else {
                        let rate: u32 = value
                            .parse()
                            .map_err(|_| FilterSpecError(format!("bad rate `{value}`")))?;
                        if rate == 0 {
                            return Err(FilterSpecError(
                                "rate must be at least 1 event/second (omit the clause \
                                 for unlimited)"
                                    .into(),
                            ));
                        }
                        spec.rate = Some(rate);
                    }
                }
                other => {
                    return Err(FilterSpecError(format!("unknown clause `{other}`")));
                }
            }
        }
        if !saw_path {
            return Err(FilterSpecError("missing `path=` clause".into()));
        }
        Ok(spec)
    }

    /// The normalized spec string — the filter-class key.
    pub fn canonical(&self) -> String {
        let kinds = if EventKind::ALL.iter().all(|k| self.kinds.contains(*k)) {
            "*".to_string()
        } else {
            EventKind::ALL
                .iter()
                .filter(|k| self.kinds.contains(**k))
                .map(|k| k.as_str())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mdts = match &self.mdts {
            None => "*".to_string(),
            Some(set) => set
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>()
                .join(","),
        };
        // `rate=` is rendered only when set so every pre-QoS class key
        // (and any stored cursor keyed by one) stays byte-identical.
        match self.rate {
            None => format!("path={};kinds={kinds};mdts={mdts}", self.pattern),
            Some(rate) => format!(
                "path={};kinds={kinds};mdts={mdts};rate={rate}",
                self.pattern
            ),
        }
    }

    /// Compile to a matcher.
    pub fn compile(&self) -> CompiledFilter {
        CompiledFilter::new(self.clone())
    }
}

/// A [`FilterSpec`] compiled for per-event evaluation: the glob is
/// pre-parsed, the literal leading components are extracted for trie
/// anchoring, and small MDT sets become a bitmask.
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    spec: FilterSpec,
    pattern: PathPattern,
    /// Leading pattern components containing no wildcard — the trie
    /// anchor. A path can only match the pattern if its first
    /// `literal_prefix.len()` components equal these exactly.
    literal_prefix: Vec<String>,
    /// Bitmask for MDT indices < 128; larger indices fall back to the
    /// sorted vec in `spec.mdts`.
    mdt_bits: u128,
    mdt_any: bool,
}

impl CompiledFilter {
    /// Compile a spec.
    pub fn new(spec: FilterSpec) -> CompiledFilter {
        let pattern = PathPattern::new(&spec.pattern);
        let literal_prefix: Vec<String> = spec
            .pattern
            .split('/')
            .filter(|c| !c.is_empty())
            .take_while(|c| !c.contains('*'))
            .map(|c| c.to_string())
            .collect();
        let (mdt_bits, mdt_any) = match &spec.mdts {
            None => (0u128, true),
            Some(set) => {
                let mut bits = 0u128;
                for m in set {
                    if *m < 128 {
                        bits |= 1u128 << *m;
                    }
                }
                (bits, false)
            }
        };
        CompiledFilter {
            spec,
            pattern,
            literal_prefix,
            mdt_bits,
            mdt_any,
        }
    }

    /// The source spec.
    pub fn spec(&self) -> &FilterSpec {
        &self.spec
    }

    /// The class key ([`FilterSpec::canonical`]).
    pub fn class_key(&self) -> String {
        self.spec.canonical()
    }

    /// Literal leading components (trie anchor).
    pub fn literal_prefix(&self) -> &[String] {
        &self.literal_prefix
    }

    fn mdt_matches(&self, mdt: Option<u16>) -> bool {
        if self.mdt_any {
            return true;
        }
        match mdt {
            None => false,
            Some(m) if m < 128 => self.mdt_bits & (1u128 << m) != 0,
            Some(m) => self
                .spec
                .mdts
                .as_ref()
                .is_some_and(|set| set.binary_search(&m).is_ok()),
        }
    }

    /// Full predicate: kind mask, MDT set, and the path pattern against
    /// the event's path (or, for renames, its old path). Works on an
    /// owned event or a frame-borrowed view alike.
    pub fn matches_event<E: EventFields + ?Sized>(&self, ev: &E) -> bool {
        if !self.spec.kinds.contains(ev.kind()) {
            return false;
        }
        if !self.mdt_matches(ev.mdt_index()) {
            return false;
        }
        self.pattern.matches(ev.path()) || ev.old_path().is_some_and(|p| self.pattern.matches(p))
    }
}

#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<String, TrieNode>,
    /// Indices (into the index's filter vec) anchored at this node.
    anchored: Vec<u32>,
}

/// The shared subscription index: every active filter class folded into
/// one prefix trie so each event is matched once against all classes.
///
/// Build it from the distinct compiled classes
/// ([`SubscriptionIndex::build`]), then call
/// [`matches_into`](SubscriptionIndex::matches_into) per event; the
/// output is the sorted set of matching class indices — identical to
/// evaluating [`CompiledFilter::matches_event`] for every class.
#[derive(Debug, Default)]
pub struct SubscriptionIndex {
    filters: Vec<CompiledFilter>,
    root: TrieNode,
}

impl SubscriptionIndex {
    /// Build the index over a set of filter classes. The index keeps the
    /// given order: class `i` in the output refers to `filters[i]`.
    pub fn build(filters: Vec<CompiledFilter>) -> SubscriptionIndex {
        let mut root = TrieNode::default();
        for (i, filter) in filters.iter().enumerate() {
            let mut node = &mut root;
            for comp in filter.literal_prefix() {
                node = node.children.entry(comp.clone()).or_default();
            }
            node.anchored.push(i as u32);
        }
        SubscriptionIndex { filters, root }
    }

    /// The indexed filter classes, in build order.
    pub fn filters(&self) -> &[CompiledFilter] {
        &self.filters
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the index holds no classes.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    fn walk_path<E: EventFields + ?Sized>(&self, path: &str, ev: &E, out: &mut Vec<u32>) {
        // Root-anchored candidates (patterns with no literal prefix)
        // are checked for every event; deeper anchors only when the
        // event's path actually passes through them.
        for &i in &self.root.anchored {
            if self.filters[i as usize].matches_event(ev) {
                out.push(i);
            }
        }
        let mut current = &self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            match current.children.get(comp) {
                Some(child) => {
                    for &i in &child.anchored {
                        if self.filters[i as usize].matches_event(ev) {
                            out.push(i);
                        }
                    }
                    current = child;
                }
                None => break,
            }
        }
    }

    /// Collect the sorted, deduplicated class indices matching `ev` (an
    /// owned event or a frame-borrowed view).
    pub fn matches_into<E: EventFields + ?Sized>(&self, ev: &E, out: &mut Vec<u32>) {
        out.clear();
        if self.filters.is_empty() {
            return;
        }
        self.walk_path(ev.path(), ev, out);
        if let Some(old) = ev.old_path() {
            self.walk_path(old, ev, out);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Allocating convenience wrapper around
    /// [`matches_into`](SubscriptionIndex::matches_into).
    pub fn matches<E: EventFields + ?Sized>(&self, ev: &E) -> Vec<u32> {
        let mut out = Vec::new();
        self.matches_into(ev, &mut out);
        out
    }

    /// Reference semantics: evaluate every class directly, no trie.
    /// The property test pins `matches == brute_force` across random
    /// predicate sets and event streams.
    pub fn brute_force<E: EventFields + ?Sized>(&self, ev: &E) -> Vec<u32> {
        self.filters
            .iter()
            .enumerate()
            .filter(|(_, f)| f.matches_event(ev))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::StandardEvent;

    fn ev(kind: EventKind, path: &str) -> StandardEvent {
        StandardEvent::new(kind, "/r", path)
    }

    #[test]
    fn spec_parse_and_canonical_roundtrip() {
        let spec = FilterSpec::parse("path=/data/**;kinds=CREATE,DELETE;mdts=2,0").unwrap();
        assert_eq!(
            spec.canonical(),
            "path=/data/**;kinds=CREATE,DELETE;mdts=0,2"
        );
        let again = FilterSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn spec_defaults_are_match_all() {
        let spec = FilterSpec::parse("path=/**").unwrap();
        assert_eq!(spec, FilterSpec::all());
        assert_eq!(spec.canonical(), "path=/**;kinds=*;mdts=*");
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FilterSpec::parse("").is_err());
        assert!(FilterSpec::parse("kinds=CREATE").is_err(), "path required");
        assert!(FilterSpec::parse("path=/a;kinds=NOPE").is_err());
        assert!(FilterSpec::parse("path=/a;mdts=x").is_err());
        assert!(FilterSpec::parse("path=/a;color=red").is_err());
        assert!(FilterSpec::parse("path=/a;kinds=").is_err());
    }

    #[test]
    fn rate_clause_parses_and_canonicalizes() {
        let spec = FilterSpec::parse("path=/data/**;rate=500").unwrap();
        assert_eq!(spec.rate, Some(500));
        assert_eq!(spec.canonical(), "path=/data/**;kinds=*;mdts=*;rate=500");
        assert_eq!(FilterSpec::parse(&spec.canonical()).unwrap(), spec);
        // `rate=*` and an omitted clause both mean unlimited, and the
        // unlimited canonical form carries no rate clause at all so
        // pre-QoS class keys are unchanged.
        let unlimited = FilterSpec::parse("path=/data/**;rate=*").unwrap();
        assert_eq!(unlimited.rate, None);
        assert_eq!(unlimited.canonical(), "path=/data/**;kinds=*;mdts=*");
        assert_eq!(FilterSpec::all().with_rate(7).rate, Some(7));
        // A rate-limited class is distinct from the unlimited one.
        assert_ne!(spec.canonical(), unlimited.canonical());
    }

    #[test]
    fn rate_clause_rejects_garbage() {
        assert!(
            FilterSpec::parse("path=/a;rate=0").is_err(),
            "0 is not a budget"
        );
        assert!(FilterSpec::parse("path=/a;rate=-1").is_err());
        assert!(FilterSpec::parse("path=/a;rate=fast").is_err());
        assert!(FilterSpec::parse("path=/a;rate=").is_err());
    }

    #[test]
    fn identical_specs_share_a_class_key() {
        let a = FilterSpec::parse("path=/p/**;kinds=DELETE,CREATE;mdts=1,1,0").unwrap();
        let b = FilterSpec::parse("path=/p/**;mdts=0,1;kinds=CREATE,DELETE").unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn subtree_matches_root_and_descendants() {
        let f = FilterSpec::subtree("/keep").compile();
        assert!(f.matches_event(&ev(EventKind::Create, "/keep")));
        assert!(f.matches_event(&ev(EventKind::Create, "/keep/a/b")));
        assert!(!f.matches_event(&ev(EventKind::Create, "/keeper")));
        assert!(!f.matches_event(&ev(EventKind::Create, "/drop/x")));
    }

    #[test]
    fn kind_and_mdt_clauses_restrict() {
        let f = FilterSpec::parse("path=/**;kinds=CREATE;mdts=1")
            .unwrap()
            .compile();
        assert!(f.matches_event(&ev(EventKind::Create, "/x").with_mdt(1)));
        assert!(!f.matches_event(&ev(EventKind::Delete, "/x").with_mdt(1)));
        assert!(!f.matches_event(&ev(EventKind::Create, "/x").with_mdt(2)));
        assert!(
            !f.matches_event(&ev(EventKind::Create, "/x")),
            "an mdt-restricted filter rejects events with no mdt"
        );
    }

    #[test]
    fn large_mdt_indices_use_the_fallback_set() {
        let f = FilterSpec::parse("path=/**;mdts=4000").unwrap().compile();
        assert!(f.matches_event(&ev(EventKind::Create, "/x").with_mdt(4000)));
        assert!(!f.matches_event(&ev(EventKind::Create, "/x").with_mdt(3999)));
    }

    #[test]
    fn old_path_of_renames_is_considered() {
        let f = FilterSpec::subtree("/old").compile();
        let moved = ev(EventKind::MovedTo, "/new/f").with_old_path("/old/f");
        assert!(f.matches_event(&moved));
    }

    #[test]
    fn literal_prefix_extraction() {
        assert_eq!(
            FilterSpec::parse("path=/a/b/*.h5")
                .unwrap()
                .compile()
                .literal_prefix(),
            ["a", "b"]
        );
        assert_eq!(
            FilterSpec::parse("path=/**/x")
                .unwrap()
                .compile()
                .literal_prefix(),
            [] as [&str; 0]
        );
        assert_eq!(
            FilterSpec::parse("path=/a/**/b")
                .unwrap()
                .compile()
                .literal_prefix(),
            ["a"]
        );
    }

    #[test]
    fn index_equals_brute_force_on_fixed_cases() {
        let specs = [
            "path=/**",
            "path=/a/**",
            "path=/a/b/**;kinds=CREATE",
            "path=/a/*.h5",
            "path=/**/*.h5",
            "path=/b/**;mdts=0",
            "path=/a/b/c",
        ];
        let index = SubscriptionIndex::build(
            specs
                .iter()
                .map(|s| FilterSpec::parse(s).unwrap().compile())
                .collect(),
        );
        let events = [
            ev(EventKind::Create, "/a/b/c"),
            ev(EventKind::Delete, "/a/b/c"),
            ev(EventKind::Create, "/a/shot.h5"),
            ev(EventKind::Create, "/x/deep/shot.h5"),
            ev(EventKind::Modify, "/b/q").with_mdt(0),
            ev(EventKind::Modify, "/b/q").with_mdt(1),
            ev(EventKind::MovedTo, "/z/f").with_old_path("/a/b/f"),
            ev(EventKind::Create, "/"),
        ];
        for e in &events {
            assert_eq!(index.matches(e), index.brute_force(e), "event {:?}", e.path);
        }
    }

    #[test]
    fn empty_index_matches_nothing() {
        let index = SubscriptionIndex::build(Vec::new());
        assert!(index.matches(&ev(EventKind::Create, "/x")).is_empty());
        assert!(index.is_empty());
    }
}
