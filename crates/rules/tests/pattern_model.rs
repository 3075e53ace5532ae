//! Property tests for path patterns.

use fsmon_rules::PathPattern;
use proptest::prelude::*;

fn arb_component() -> impl Strategy<Value = String> {
    "[a-z0-9._-]{1,8}".prop_map(|s| s)
}

fn arb_path() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_component(), 1..6)
}

/// The matcher `PathPattern::matches` replaced, kept as the reference:
/// split the path into a component vector, then match segment by
/// segment. Same grammar — empty components skipped, `**` spans whole
/// components, `*` stays inside one.
fn oracle_matches(pattern: &str, path: &str) -> bool {
    fn component(pat: &[char], s: &[char]) -> bool {
        match pat.split_first() {
            None => s.is_empty(),
            Some(('*', rest)) => (0..=s.len()).any(|k| component(rest, &s[k..])),
            Some((c, rest)) => s.first() == Some(c) && component(rest, &s[1..]),
        }
    }
    fn segments(segs: &[&str], comps: &[&str]) -> bool {
        match segs.split_first() {
            None => comps.is_empty(),
            Some((&"**", rest)) => (0..=comps.len()).any(|k| segments(rest, &comps[k..])),
            Some((seg, rest)) => comps.split_first().is_some_and(|(comp, comp_rest)| {
                let (seg, comp): (Vec<char>, Vec<char>) =
                    (seg.chars().collect(), comp.chars().collect());
                component(&seg, &comp) && segments(rest, comp_rest)
            }),
        }
    }
    let segs: Vec<&str> = pattern.split('/').filter(|c| !c.is_empty()).collect();
    let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    segments(&segs, &comps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The allocation-free matcher answers exactly as the
    /// component-vector one did, on a small alphabet so that random
    /// patterns do match random paths: doubled and trailing `/`,
    /// `*`/`**` anywhere, multi-byte characters.
    #[test]
    fn lazy_matcher_agrees_with_component_vector_oracle(
        pattern in r"/?((\*\*|\*|a|b|é|a\*|\*b|ab)/{1,2}){0,4}(\*\*|\*|a|é|a\*|\*b)?",
        paths in prop::collection::vec("/{0,3}((a|b|é|ab|aab|éb)/{1,3}){0,4}(a|b|é|ab)?", 1..8),
    ) {
        let compiled = PathPattern::new(&pattern);
        for path in &paths {
            prop_assert_eq!(
                compiled.matches(path),
                oracle_matches(&pattern, path),
                "{} vs {}", pattern, path
            );
        }
    }

    /// A pattern built from a path by literal copying matches exactly
    /// that path.
    #[test]
    fn literal_pattern_matches_its_own_path(comps in arb_path()) {
        let path = format!("/{}", comps.join("/"));
        prop_assert!(PathPattern::new(&path).matches(&path));
    }

    /// Replacing any single component with `*` still matches.
    #[test]
    fn star_generalizes_one_component(comps in arb_path(), idx in any::<prop::sample::Index>()) {
        let path = format!("/{}", comps.join("/"));
        let i = idx.index(comps.len());
        let mut generalized = comps.clone();
        generalized[i] = "*".to_string();
        let pattern = format!("/{}", generalized.join("/"));
        prop_assert!(PathPattern::new(&pattern).matches(&path), "{pattern} vs {path}");
    }

    /// Replacing any contiguous run of components with `**` still
    /// matches.
    #[test]
    fn double_star_generalizes_a_run(
        comps in arb_path(),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        let path = format!("/{}", comps.join("/"));
        let (mut i, mut j) = (a.index(comps.len()), b.index(comps.len()));
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let mut generalized: Vec<String> = comps[..i].to_vec();
        generalized.push("**".to_string());
        generalized.extend_from_slice(&comps[j + 1..]);
        let pattern = format!("/{}", generalized.join("/"));
        prop_assert!(PathPattern::new(&pattern).matches(&path), "{pattern} vs {path}");
    }

    /// Truncating or extending the path breaks a literal match.
    #[test]
    fn literal_pattern_rejects_different_lengths(comps in arb_path()) {
        let path = format!("/{}", comps.join("/"));
        let pattern = PathPattern::new(&path);
        let longer = format!("{path}/extra");
        prop_assert!(!pattern.matches(&longer));
        if comps.len() > 1 {
            let shorter = format!("/{}", comps[..comps.len() - 1].join("/"));
            prop_assert!(!pattern.matches(&shorter));
        }
    }

    /// `/**` matches every path.
    #[test]
    fn universal_pattern(comps in arb_path()) {
        let path = format!("/{}", comps.join("/"));
        prop_assert!(PathPattern::new("/**").matches(&path));
    }

    /// Prefixing with a component the path does not start with rejects.
    #[test]
    fn wrong_anchor_rejects(comps in arb_path()) {
        let path = format!("/{}", comps.join("/"));
        let pattern = format!("/zz-not-there/{}", comps.join("/"));
        prop_assert!(!PathPattern::new(&pattern).matches(&path));
    }
}
