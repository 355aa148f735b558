//! Concrete rules and rule sets.
//!
//! A [`Rule`] is a template instance with the slots bound to concrete
//! attributes, plus the statistics gathered during inference.  Rules render
//! to (and parse from) a line format so that, as in the paper, "the inferred
//! rules are written to a file with detailed description of the attributes
//! involved and the relation type" (§5).

use crate::relation::{evaluate, Applicability, SystemView};
use crate::template::Relation;
use encore_model::AttrName;
use std::fmt;

/// One concrete correlation rule.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Rule {
    /// First bound attribute (the template's `A` slot).
    pub a: AttrName,
    /// Second bound attribute (the template's `B` slot).
    pub b: AttrName,
    /// The relation.
    pub relation: Relation,
    /// Number of training systems where the rule was applicable.
    pub support: usize,
    /// Fraction of applicable systems where the relation held.
    pub confidence: f64,
}

impl Rule {
    /// Construct a rule with its statistics.
    pub fn new(
        a: AttrName,
        relation: Relation,
        b: AttrName,
        support: usize,
        confidence: f64,
    ) -> Rule {
        Rule {
            a,
            b,
            relation,
            support,
            confidence,
        }
    }

    /// Evaluate the rule on one target system.
    pub fn evaluate(&self, view: SystemView<'_>) -> Applicability {
        evaluate(self.relation, &self.a, &self.b, view)
    }

    /// One-line render: `datadir => user [Owns] sup=187 conf=0.99`.
    ///
    /// Confidence is rendered with the shortest representation that parses
    /// back to the identical `f64` (`{:?}`), so render→parse is lossless —
    /// a requirement once rule sets round-trip through detector snapshots
    /// on disk.  [`Rule::parse`] still accepts the historical fixed-width
    /// `conf=0.990` form.
    pub fn render(&self) -> String {
        format!(
            "{} {} {} [{}] sup={} conf={:?}",
            self.a,
            self.relation.symbol(),
            self.b,
            self.relation,
            self.support,
            self.confidence
        )
    }

    /// Render the unambiguous tab-separated form used by detector
    /// snapshots: `<a-tagged>\t<Relation>\t<b-tagged>\t<sup>\t<conf>`.
    ///
    /// The readable [`Rule::render`] form prints attributes with their
    /// display names, which cannot distinguish an original dotted entry
    /// (php's `session.use_cookies`) from an augmented property; the tagged
    /// form can, so snapshots reload every rule exactly.
    pub fn render_tagged(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:?}",
            self.a.render_tagged(),
            self.relation,
            self.b.render_tagged(),
            self.support,
            self.confidence
        )
    }

    /// Parse the tagged form produced by [`Rule::render_tagged`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem with the line.
    pub fn parse_tagged(line: &str) -> Result<Rule, String> {
        let mut fields = line.split('\t');
        let mut next = |what: &str| fields.next().ok_or_else(|| format!("missing {what} field"));
        let a = AttrName::parse_tagged(next("attribute A")?).map_err(|e| e.to_string())?;
        let relation_name = next("relation")?;
        let relation = Relation::parse_name(relation_name)
            .ok_or_else(|| format!("unknown relation `{relation_name}`"))?;
        let b = AttrName::parse_tagged(next("attribute B")?).map_err(|e| e.to_string())?;
        let support = next("support")?
            .parse::<usize>()
            .map_err(|e| format!("bad support: {e}"))?;
        let confidence = next("confidence")?
            .parse::<f64>()
            .map_err(|e| format!("bad confidence: {e}"))
            .and_then(checked_confidence)?;
        if fields.next().is_some() {
            return Err("trailing fields after confidence".to_string());
        }
        Ok(Rule {
            a,
            b,
            relation,
            support,
            confidence,
        })
    }

    /// Parse one rendered rule line (the inverse of [`Rule::render`]).
    ///
    /// The operator symbol is ambiguous (`<` serves three relations), so
    /// parsing is anchored on the bracketed relation name.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem with the line.
    pub fn parse(line: &str) -> Result<Rule, String> {
        let line = line.trim();
        let open = line.find('[').ok_or("missing `[Relation]` marker")?;
        let close = line[open..]
            .find(']')
            .map(|i| open + i)
            .ok_or("unclosed `[Relation]` marker")?;
        let relation = Relation::parse_name(&line[open + 1..close])
            .ok_or_else(|| format!("unknown relation `{}`", &line[open + 1..close]))?;
        let head = line[..open].trim();
        let symbol = relation.symbol();
        let (a_text, b_text) = head
            .split_once(&format!(" {symbol} "))
            .ok_or_else(|| format!("expected `A {symbol} B` before the relation marker"))?;
        let a = AttrName::parse(a_text).map_err(|e| e.to_string())?;
        let b = AttrName::parse(b_text).map_err(|e| e.to_string())?;
        let mut support = None;
        let mut confidence = None;
        for token in line[close + 1..].split_whitespace() {
            if let Some(v) = token.strip_prefix("sup=") {
                support = Some(v.parse::<usize>().map_err(|e| format!("bad sup: {e}"))?);
            } else if let Some(v) = token.strip_prefix("conf=") {
                let parsed = v.parse::<f64>().map_err(|e| format!("bad conf: {e}"))?;
                confidence = Some(checked_confidence(parsed)?);
            }
        }
        Ok(Rule {
            a,
            b,
            relation,
            support: support.ok_or("missing `sup=`")?,
            confidence: confidence.ok_or("missing `conf=`")?,
        })
    }
}

/// A confidence is a ratio of support counts: reject anything that could
/// not have been learned (NaN, infinities, values outside `[0, 1]`), so a
/// corrupt snapshot fails to load instead of loading silently.
fn checked_confidence(confidence: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&confidence) {
        Ok(confidence)
    } else {
        Err(format!("confidence {confidence} outside [0, 1]"))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered collection of learned rules.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The rules, in learned order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules using a given relation.
    pub fn by_relation(&self, relation: Relation) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.relation == relation)
    }

    /// Render the whole set, one rule per line (the paper's rule file).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// Parse a rendered rule file (the inverse of [`RuleSet::render`]).
    /// Blank lines and `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns the 1-based line number and description of the first
    /// malformed line.
    pub fn parse(text: &str) -> Result<RuleSet, String> {
        let mut rules = RuleSet::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rule = Rule::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            rules.push(rule);
        }
        Ok(rules)
    }
}

impl FromIterator<Rule> for RuleSet {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        RuleSet {
            rules: iter.into_iter().collect(),
        }
    }
}

impl Extend<Rule> for RuleSet {
    fn extend<T: IntoIterator<Item = Rule>>(&mut self, iter: T) {
        self.rules.extend(iter);
    }
}

impl<'a> IntoIterator for &'a RuleSet {
    type Item = &'a Rule;
    type IntoIter = std::slice::Iter<'a, Rule>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> Rule {
        Rule::new(
            AttrName::entry("datadir"),
            Relation::Owns,
            AttrName::entry("user"),
            187,
            0.99,
        )
    }

    #[test]
    fn render_mentions_everything() {
        let s = rule().render();
        assert!(s.contains("datadir"));
        assert!(s.contains("user"));
        assert!(s.contains("Owns"));
        assert!(s.contains("sup=187"));
    }

    #[test]
    fn parse_round_trips_render() {
        let rules: Vec<Rule> = vec![
            rule(),
            Rule::new(
                AttrName::entry("upload_max_filesize"),
                Relation::LessSize,
                AttrName::entry("post_max_size"),
                42,
                0.955,
            ),
            Rule::new(
                AttrName::entry("datadir").augmented("owner"),
                Relation::Equal,
                AttrName::entry("user"),
                10,
                1.0,
            ),
            // Confidence values with no short decimal form must survive
            // exactly: 0.8999 vs 0.900 flips a 0.90 threshold.
            Rule::new(
                AttrName::entry("max_connections"),
                Relation::LessNum,
                AttrName::entry("table_open_cache"),
                187,
                0.899_900_000_000_1,
            ),
        ];
        for r in &rules {
            let back = Rule::parse(&r.render()).unwrap_or_else(|e| panic!("{e}: {}", r.render()));
            assert_eq!(&back, r, "render→parse must be exact: {}", r.render());
        }
        let set: RuleSet = rules.into_iter().collect();
        let reparsed = RuleSet::parse(&format!("# learned rules\n\n{}", set.render())).unwrap();
        assert_eq!(reparsed, set);
    }

    #[test]
    fn parse_accepts_fixed_width_confidence() {
        // The historical `{:.3}` rendering must still load.
        let r = Rule::parse("datadir => user [Owns] sup=187 conf=0.990").unwrap();
        assert_eq!(r.confidence, 0.99);
        assert_eq!(r.support, 187);
    }

    #[test]
    fn tagged_form_round_trips_exactly() {
        let rules = [
            rule(),
            // A dotted original entry: ambiguous in the display form,
            // exact in the tagged form.
            Rule::new(
                AttrName::entry("session.use_cookies"),
                Relation::Equal,
                AttrName::entry("session.use_only_cookies"),
                21,
                0.912_345_678_9,
            ),
            Rule::new(
                AttrName::entry("datadir").augmented("owner"),
                Relation::Equal,
                AttrName::entry("user"),
                10,
                1.0,
            ),
        ];
        for r in &rules {
            let back = Rule::parse_tagged(&r.render_tagged())
                .unwrap_or_else(|e| panic!("{e}: {}", r.render_tagged()));
            assert_eq!(&back, r, "{}", r.render_tagged());
        }
        assert!(Rule::parse_tagged("O:a\tOwns\tO:b\t1").is_err());
        assert!(Rule::parse_tagged("O:a\tNotARel\tO:b\t1\t1.0").is_err());
        assert!(Rule::parse_tagged("O:a\tOwns\tO:b\t1\t1.0\textra").is_err());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Rule::parse("datadir => user").is_err());
        assert!(Rule::parse("datadir => user [NotARel] sup=1 conf=1.0").is_err());
        assert!(Rule::parse("datadir => user [Owns] conf=1.0").is_err());
        assert!(RuleSet::parse("datadir => user [Owns] sup=x conf=1.0").is_err());
    }

    #[test]
    fn both_forms_reject_confidences_that_cannot_be_learned() {
        for conf in ["NaN", "inf", "-inf", "-0.5", "1.5"] {
            let display = format!("datadir => user [Owns] sup=1 conf={conf}");
            let err = Rule::parse(&display).expect_err(&display);
            assert!(err.contains("outside [0, 1]"), "{err}");
            let tagged = format!("O:datadir\tOwns\tO:user\t1\t{conf}");
            let err = Rule::parse_tagged(&tagged).expect_err(&tagged);
            assert!(err.contains("outside [0, 1]"), "{err}");
        }
        for conf in ["0.0", "1.0"] {
            assert!(Rule::parse_tagged(&format!("O:datadir\tOwns\tO:user\t1\t{conf}")).is_ok());
        }
    }

    #[test]
    fn ruleset_collects_and_filters() {
        let set: RuleSet = vec![
            rule(),
            Rule::new(
                AttrName::entry("a"),
                Relation::LessSize,
                AttrName::entry("b"),
                10,
                1.0,
            ),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
        assert_eq!(set.by_relation(Relation::Owns).count(), 1);
        assert_eq!(set.render().lines().count(), 2);
    }
}
