//! Path patterns for rule scoping.
//!
//! Two wildcards, glob-style: `*` matches within one path component,
//! `**` matches any number of components (including zero). Everything
//! else matches literally. Patterns are anchored (they must match the
//! whole path).

/// A compiled path pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPattern {
    segments: Vec<Segment>,
    source: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    /// Matches any number of whole components.
    DoubleStar,
    /// A component matcher: literal runs separated by `*`.
    Component(Vec<Piece>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Piece {
    Literal(String),
    Star,
}

impl PathPattern {
    /// Compile a pattern. Leading `/` is optional (paths are matched
    /// component-wise either way).
    pub fn new(pattern: &str) -> PathPattern {
        let segments = pattern
            .split('/')
            .filter(|c| !c.is_empty())
            .map(|comp| {
                if comp == "**" {
                    Segment::DoubleStar
                } else {
                    let mut pieces = Vec::new();
                    let mut lit = String::new();
                    for ch in comp.chars() {
                        if ch == '*' {
                            if !lit.is_empty() {
                                pieces.push(Piece::Literal(std::mem::take(&mut lit)));
                            }
                            pieces.push(Piece::Star);
                        } else {
                            lit.push(ch);
                        }
                    }
                    if !lit.is_empty() {
                        pieces.push(Piece::Literal(lit));
                    }
                    Segment::Component(pieces)
                }
            })
            .collect();
        PathPattern {
            segments,
            source: pattern.to_string(),
        }
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether `path` (leading `/`, component-separated) matches.
    /// Allocates nothing: components are split off the `&str`
    /// remainder as the pattern asks for them.
    pub fn matches(&self, path: &str) -> bool {
        Self::match_segments(&self.segments, path)
    }

    /// Split the first non-empty component off `path`. `/` is ASCII, so
    /// both halves stay on UTF-8 boundaries.
    fn next_component(path: &str) -> Option<(&str, &str)> {
        let path = path.trim_start_matches('/');
        if path.is_empty() {
            return None;
        }
        Some(path.split_once('/').unwrap_or((path, "")))
    }

    fn match_segments(segments: &[Segment], path: &str) -> bool {
        match segments.split_first() {
            None => Self::next_component(path).is_none(),
            // A trailing `**` matches whatever is left, unwalked.
            Some((Segment::DoubleStar, [])) => true,
            Some((Segment::DoubleStar, rest)) => {
                // `**` absorbs 0..=all leading components.
                let mut tail = path;
                loop {
                    if Self::match_segments(rest, tail) {
                        return true;
                    }
                    match Self::next_component(tail) {
                        Some((_, after)) => tail = after,
                        None => return false,
                    }
                }
            }
            Some((Segment::Component(pieces), rest)) => {
                Self::next_component(path).is_some_and(|(comp, tail)| {
                    Self::match_component(pieces, comp) && Self::match_segments(rest, tail)
                })
            }
        }
    }

    fn match_component(pieces: &[Piece], comp: &str) -> bool {
        fn inner(pieces: &[Piece], s: &str) -> bool {
            match pieces.split_first() {
                None => s.is_empty(),
                Some((Piece::Literal(lit), rest)) => s
                    .strip_prefix(lit.as_str())
                    .is_some_and(|tail| inner(rest, tail)),
                Some((Piece::Star, rest)) => {
                    (0..=s.len()).any(|k| s.is_char_boundary(k) && inner(rest, &s[k..]))
                }
            }
        }
        inner(pieces, comp)
    }
}

impl From<&str> for PathPattern {
    fn from(s: &str) -> Self {
        PathPattern::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pattern: &str, path: &str) -> bool {
        PathPattern::new(pattern).matches(path)
    }

    #[test]
    fn literal_paths() {
        assert!(m("/a/b.txt", "/a/b.txt"));
        assert!(!m("/a/b.txt", "/a/c.txt"));
        assert!(!m("/a/b.txt", "/a/b.txt/c"));
        assert!(!m("/a/b.txt", "/a"));
    }

    #[test]
    fn single_star_within_component() {
        assert!(m("/data/*.h5", "/data/shot.h5"));
        assert!(m("/data/*.h5", "/data/.h5"));
        assert!(!m("/data/*.h5", "/data/sub/shot.h5"), "* does not cross /");
        assert!(m("/data/run-*-final", "/data/run-42-final"));
        assert!(!m("/data/*.h5", "/data/shot.h5x"));
    }

    #[test]
    fn double_star_crosses_components() {
        assert!(m("/**/*.h5", "/a/b/c/shot.h5"));
        assert!(m("/**/*.h5", "/shot.h5"), "** matches zero components");
        assert!(m("/proj/**", "/proj/a/b/c"));
        assert!(!m("/proj/**/x", "/proj/a/b/c"));
        assert!(m("/proj/**/x", "/proj/x"));
        assert!(m("/**", "/anything/at/all"));
    }

    #[test]
    fn multiple_stars_in_component() {
        assert!(m("/d/*-*.dat", "/d/a-b.dat"));
        assert!(!m("/d/*-*.dat", "/d/ab.dat"));
    }

    #[test]
    fn unicode_paths() {
        assert!(m("/データ/*.h5", "/データ/実験.h5"));
    }

    #[test]
    fn empty_and_root() {
        assert!(m("/", "/"));
        assert!(m("/**", "/"));
        assert!(!m("/a", "/"));
    }

    #[test]
    fn source_retained() {
        assert_eq!(PathPattern::new("/a/*.h5").source(), "/a/*.h5");
        let p: PathPattern = "/x/**".into();
        assert!(p.matches("/x/y"));
    }
}
