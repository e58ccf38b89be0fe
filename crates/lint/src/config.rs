//! The committed `lint.toml` configuration: which rules run over which
//! crates.
//!
//! A deliberately small TOML subset, parsed by hand (the analyzer must
//! stay zero-dependency): `[lint]` and `[rule.<id>]` sections, `key =
//! "string"` and `key = ["a", "b"]` entries, `#` comments. Anything the
//! parser does not understand is an error, not a silent default — a typo
//! in a rule id must not quietly disable a gate.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::RULE_IDS;

/// Rules that understand `cross_crate = true` (reachability upgrades are
/// implemented per rule, so accepting the key anywhere else would be a
/// silently dead setting).
const CROSS_CRATE_RULES: &[&str] = &["no_hash_collections", "no_wall_clock"];

/// Parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Root-relative path prefixes to skip entirely (on top of the
    /// built-in `target/` and hidden-directory exclusions).
    pub exclude: Vec<String>,
    /// Root-relative path of the probe-name registry file scanned by the
    /// probe-coverage rules.
    pub probe_registry: Option<String>,
    /// Rule id → crate names it applies to (`"*"` = every crate; the
    /// root package's `src/` is the crate `"gps"`). A rule with no entry
    /// is off.
    pub rule_crates: BTreeMap<String, Vec<String>>,
    /// Rules with the cross-crate reachability upgrade enabled
    /// (`cross_crate = true`): hazards outside the rule's crate scope are
    /// still reported when reachable from inside it.
    pub cross_crate: BTreeSet<String>,
}

impl Config {
    /// Is `rule` enabled for `crate_name`?
    pub fn applies(&self, rule: &str, crate_name: &str) -> bool {
        self.rule_crates
            .get(rule)
            .is_some_and(|crates| crates.iter().any(|c| c == "*" || c == crate_name))
    }

    /// Is `rule` enabled anywhere at all?
    pub fn enabled(&self, rule: &str) -> bool {
        self.rule_crates
            .get(rule)
            .is_some_and(|crates| !crates.is_empty())
    }

    /// Parses the config text.
    ///
    /// # Errors
    ///
    /// Returns a `<line>: <problem>` description for malformed syntax,
    /// unknown sections, unknown keys, or unknown rule ids.
    pub fn parse(text: &str) -> Result<Config, String> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Lint,
            Rule(String),
        }
        let mut cfg = Config::default();
        let mut section = Section::None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match name.trim() {
                    "lint" => Section::Lint,
                    other => match other.strip_prefix("rule.") {
                        Some(id) if RULE_IDS.contains(&id) => {
                            cfg.rule_crates.entry(id.to_owned()).or_default();
                            Section::Rule(id.to_owned())
                        }
                        Some(id) => {
                            return Err(format!("{lineno}: unknown rule id {id:?}"));
                        }
                        None => return Err(format!("{lineno}: unknown section [{other}]")),
                    },
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("{lineno}: expected `key = value`"))?;
            match (&section, key) {
                (Section::Lint, "exclude") => cfg.exclude = parse_string_array(value, lineno)?,
                (Section::Lint, "probe_registry") => {
                    cfg.probe_registry = Some(parse_string(value, lineno)?);
                }
                (Section::Lint, other) => {
                    return Err(format!("{lineno}: unknown [lint] key {other:?}"));
                }
                (Section::Rule(id), "crates") => {
                    cfg.rule_crates
                        .insert(id.clone(), parse_string_array(value, lineno)?);
                }
                (Section::Rule(id), "cross_crate") => {
                    if !CROSS_CRATE_RULES.contains(&id.as_str()) {
                        return Err(format!(
                            "{lineno}: cross_crate is not supported for rule {id:?} \
                             (only {CROSS_CRATE_RULES:?})"
                        ));
                    }
                    if parse_bool(value, lineno)? {
                        cfg.cross_crate.insert(id.clone());
                    } else {
                        cfg.cross_crate.remove(id);
                    }
                }
                (Section::Rule(_), other) => {
                    return Err(format!("{lineno}: unknown rule key {other:?}"));
                }
                (Section::None, _) => {
                    return Err(format!("{lineno}: entry before any [section]"));
                }
            }
        }
        Ok(cfg)
    }
}

/// Strips a `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            // gps-lint: allow(no_slice_index) -- i is a char_indices boundary, i < line.len()
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_bool(value: &str, lineno: usize) -> Result<bool, String> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("{lineno}: expected true or false, got {other}")),
    }
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| format!("{lineno}: expected a \"quoted string\", got {value}"))
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("{lineno}: expected a [\"..\", ..] array, got {value}"))?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_string(s, lineno))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_comments() {
        let cfg = Config::parse(
            "# header\n\
             [lint]\n\
             exclude = [\"target\", \"crates/lint/tests/fixtures\"] # trailing\n\
             probe_registry = \"crates/obs/src/names.rs\"\n\
             \n\
             [rule.no_unwrap]\n\
             crates = [\"harness\", \"lint\"]\n\
             [rule.no_hash_collections]\n\
             crates = [\"*\"]\n",
        )
        .expect("parses");
        assert_eq!(cfg.exclude.len(), 2);
        assert_eq!(
            cfg.probe_registry.as_deref(),
            Some("crates/obs/src/names.rs")
        );
        assert!(cfg.applies("no_unwrap", "harness"));
        assert!(!cfg.applies("no_unwrap", "sim"));
        assert!(cfg.applies("no_hash_collections", "anything"));
        assert!(!cfg.enabled("no_expect"));
    }

    #[test]
    fn unknown_rule_ids_and_keys_are_errors() {
        assert!(Config::parse("[rule.no_unrwap]\n").is_err(), "typo'd id");
        assert!(Config::parse("[lint]\nbogus = \"x\"\n").is_err());
        assert!(Config::parse("[rule.no_unwrap]\nfiles = []\n").is_err());
        assert!(Config::parse("orphan = 1\n").is_err());
        assert!(Config::parse("[weird]\n").is_err());
    }

    #[test]
    fn cross_crate_key_is_parsed_and_restricted() {
        let cfg = Config::parse(
            "[rule.no_hash_collections]\ncrates = [\"sim\"]\ncross_crate = true\n\
             [rule.no_wall_clock]\ncrates = [\"sim\"]\ncross_crate = false\n",
        )
        .expect("parses");
        assert!(cfg.cross_crate.contains("no_hash_collections"));
        assert!(!cfg.cross_crate.contains("no_wall_clock"));
        assert!(
            Config::parse("[rule.no_unwrap]\ncross_crate = true\n").is_err(),
            "unsupported rule"
        );
        assert!(Config::parse("[rule.no_wall_clock]\ncross_crate = yes\n").is_err());
    }

    #[test]
    fn empty_crate_list_disables_a_rule() {
        let cfg = Config::parse("[rule.no_unwrap]\ncrates = []\n").expect("parses");
        assert!(!cfg.enabled("no_unwrap"));
        assert!(!cfg.applies("no_unwrap", "harness"));
    }

    /// SplitMix64: the lint crate stays dependency-free, so the mutation
    /// loop below carries its own generator.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }
    }

    /// Byte flips, line drops, duplicates and splices of the committed
    /// `lint.toml`: `Config::parse` must answer `Ok` or `Err` for every
    /// mutant, never panic.
    #[test]
    fn mutated_configs_never_panic_the_parser() {
        let base = include_str!("../../../lint.toml");
        assert!(Config::parse(base).is_ok());
        let lines: Vec<&str> = base.lines().collect();
        let mut rng = SplitMix64(19);
        let (mut ok, mut err) = (0usize, 0usize);
        for _ in 0..10_000 {
            let mut text: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
            for _ in 0..=rng.below(3) {
                let at = rng.below(text.len());
                match rng.below(4) {
                    0 => {
                        // Flip one bit of one byte; repair invalid UTF-8.
                        let mut bytes = text[at].clone().into_bytes();
                        if !bytes.is_empty() {
                            let b = rng.below(bytes.len());
                            bytes[b] ^= 1 << rng.below(8);
                        }
                        text[at] = String::from_utf8_lossy(&bytes).into_owned();
                    }
                    1 => {
                        text.remove(at);
                    }
                    2 => text.insert(at, text[at].clone()),
                    _ => {
                        // Splice part of another line into this one.
                        let from = lines[rng.below(lines.len())];
                        let cut = rng.below(from.len() + 1);
                        let line = &mut text[at];
                        let pos = rng.below(line.len() + 1);
                        if from.is_char_boundary(cut) && line.is_char_boundary(pos) {
                            line.insert_str(pos, &from[cut..]);
                        }
                    }
                }
                if text.is_empty() {
                    text.push(String::new());
                }
            }
            match Config::parse(&text.join("\n")) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        assert!(
            ok > 0 && err > 0,
            "mutations hit both outcomes: {ok} ok, {err} err"
        );
    }
}
