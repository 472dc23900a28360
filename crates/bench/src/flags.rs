//! Declarative command-line flags.
//!
//! A [`FlagSet`] describes a binary's flags once — name, whether a value
//! follows, placeholder, help text — and from that single description
//! derives the parser *and* the `--help` page, so the two can never
//! drift apart. Parsing is strict: an unknown flag or a flag missing
//! its value is a [`FlagError`], which the binary turns into a nonzero
//! exit.
//!
//! The grammar is the subset the `repro` binary needs: `--flag` switches
//! and `--flag VALUE` pairs (space-separated only), plus bare positional
//! words (subcommands). `--` ends flag processing; everything after it
//! is positional.

use std::collections::BTreeMap;
use std::fmt;

/// Whether a flag stands alone or consumes the next argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// `--quick` — presence is the signal.
    Switch,
    /// `--samples N` — the next argument is the value.
    Value(&'static str),
}

/// One flag's declaration.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The spelling, including leading dashes (`"--samples"`).
    pub name: &'static str,
    /// Switch or value-taking (with the placeholder shown in help).
    pub kind: FlagKind,
    /// One-line description for the help page.
    pub help: &'static str,
}

/// A binary's complete flag vocabulary.
#[derive(Debug, Clone)]
pub struct FlagSet {
    program: &'static str,
    usage: String,
    specs: Vec<FlagSpec>,
}

/// Result of a successful parse: positional words in order, plus the
/// flags that appeared.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// Non-flag arguments, in command-line order.
    pub positionals: Vec<String>,
    values: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Parsed {
    /// The value of `--name VALUE`, if it appeared (last wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// True when the switch `--name` appeared.
    pub fn is_set(&self, name: &str) -> bool {
        self.switches.contains(&name) || self.values.contains_key(name)
    }
}

/// A parse failure, precise enough for a helpful one-line diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// An argument started with `-` but matches no declared flag.
    Unknown(String),
    /// A value-taking flag was the last argument.
    MissingValue(&'static str),
    /// A flag's value parsed but is outside its domain (zero where a
    /// positive count is needed, a non-finite threshold, …).
    Invalid {
        /// The offending flag's spelling.
        flag: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Unknown(flag) => write!(f, "unknown flag: {flag}"),
            FlagError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            FlagError::Invalid { flag, reason } => write!(f, "invalid value for {flag}: {reason}"),
        }
    }
}

impl std::error::Error for FlagError {}

impl FlagSet {
    /// Declares a flag set for `program` with a one-line `usage`
    /// synopsis (shown under "usage:" in help).
    pub fn new(program: &'static str, usage: impl Into<String>) -> Self {
        FlagSet {
            program,
            usage: usage.into(),
            specs: Vec::new(),
        }
    }

    /// Adds a presence-only flag.
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.specs.push(FlagSpec {
            name,
            kind: FlagKind::Switch,
            help,
        });
        self
    }

    /// Adds a value-taking flag; `placeholder` names the value in help
    /// (`--samples <N>`).
    pub fn value(
        mut self,
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> Self {
        self.specs.push(FlagSpec {
            name,
            kind: FlagKind::Value(placeholder),
            help,
        });
        self
    }

    /// The declared specs, in declaration order.
    pub fn specs(&self) -> &[FlagSpec] {
        &self.specs
    }

    fn spec(&self, name: &str) -> Option<&FlagSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// [`FlagError::Unknown`] for an undeclared `-`-prefixed argument,
    /// [`FlagError::MissingValue`] when a value-taking flag ends the
    /// line.
    pub fn parse<I, S>(&self, args: I) -> Result<Parsed, FlagError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = Parsed::default();
        let mut it = args.into_iter().map(Into::into);
        let mut only_positionals = false;
        while let Some(arg) = it.next() {
            if only_positionals {
                parsed.positionals.push(arg);
                continue;
            }
            if arg == "--" {
                only_positionals = true;
                continue;
            }
            if !arg.starts_with('-') || arg == "-" {
                parsed.positionals.push(arg);
                continue;
            }
            let Some(spec) = self.spec(&arg) else {
                return Err(FlagError::Unknown(arg));
            };
            match spec.kind {
                FlagKind::Switch => {
                    if !parsed.switches.contains(&spec.name) {
                        parsed.switches.push(spec.name);
                    }
                }
                FlagKind::Value(_) => match it.next() {
                    Some(value) => {
                        parsed.values.insert(spec.name, value);
                    }
                    None => return Err(FlagError::MissingValue(spec.name)),
                },
            }
        }
        Ok(parsed)
    }

    /// The generated help page.
    pub fn help(&self) -> String {
        let mut out = format!("usage: {} {}\n\noptions:\n", self.program, self.usage);
        let width = self
            .specs
            .iter()
            .map(|s| match s.kind {
                FlagKind::Switch => s.name.len(),
                FlagKind::Value(ph) => s.name.len() + ph.len() + 3,
            })
            .max()
            .unwrap_or(0);
        for spec in &self.specs {
            let left = match spec.kind {
                FlagKind::Switch => spec.name.to_owned(),
                FlagKind::Value(ph) => format!("{} <{}>", spec.name, ph),
            };
            out.push_str(&format!("  {left:<width$}  {}\n", spec.help));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> FlagSet {
        FlagSet::new("demo", "<command> [options]")
            .switch("--quick", "small models")
            .value("--samples", "N", "measurements per category")
            .value("--out", "PATH", "output file")
    }

    #[test]
    fn switches_values_and_positionals_parse() {
        let p = demo()
            .parse(["run", "--quick", "--samples", "42", "extra"])
            .unwrap();
        assert_eq!(p.positionals, ["run", "extra"]);
        assert!(p.is_set("--quick"));
        assert_eq!(p.value("--samples"), Some("42"));
        assert_eq!(p.value("--out"), None);
        assert!(!p.is_set("--out"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            demo().parse(["--bogus"]).unwrap_err(),
            FlagError::Unknown("--bogus".into())
        );
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            demo().parse(["--samples"]).unwrap_err(),
            FlagError::MissingValue("--samples")
        );
    }

    #[test]
    fn invalid_value_displays_flag_and_reason() {
        let e = FlagError::Invalid {
            flag: "--dummy-events",
            reason: "must be positive".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid value for --dummy-events: must be positive"
        );
    }

    #[test]
    fn double_dash_ends_flag_processing() {
        let p = demo().parse(["--", "--samples"]).unwrap();
        assert_eq!(p.positionals, ["--samples"]);
    }

    #[test]
    fn last_value_wins() {
        let p = demo().parse(["--samples", "1", "--samples", "2"]).unwrap();
        assert_eq!(p.value("--samples"), Some("2"));
    }

    #[test]
    fn help_lists_every_flag_with_placeholder() {
        let help = demo().help();
        assert!(help.starts_with("usage: demo <command> [options]"));
        for needle in ["--quick", "--samples <N>", "--out <PATH>", "small models"] {
            assert!(help.contains(needle), "missing {needle:?} in:\n{help}");
        }
    }
}
