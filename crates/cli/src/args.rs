//! Minimal `--key value` option parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    /// Parses alternating `--key value` pairs. Every key must be one of
    /// `accepted`, so a misspelt or unsupported option is an error rather
    /// than silently ignored.
    pub fn parse(argv: &[String], accepted: &[&str]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected `--option`, got `{key}`"));
            };
            if !accepted.contains(&name) {
                return Err(format!(
                    "unknown option `--{name}` (accepted: --{})",
                    accepted.join(", --")
                ));
            }
            let Some(value) = it.next() else {
                return Err(format!("option `--{name}` needs a value"));
            };
            if values.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("option `--{name}` given twice"));
            }
        }
        Ok(Self { values })
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option `--{name}`"))
    }

    /// An optional string option.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required `usize` option.
    pub fn required_usize(&self, name: &str) -> Result<usize, String> {
        self.required(name)?
            .parse()
            .map_err(|e| format!("option `--{name}`: {e}"))
    }

    /// A required `u64` option.
    pub fn required_u64(&self, name: &str) -> Result<u64, String> {
        self.required(name)?
            .parse()
            .map_err(|e| format!("option `--{name}`: {e}"))
    }

    /// A required `f64` option.
    pub fn required_f64(&self, name: &str) -> Result<f64, String> {
        self.required(name)?
            .parse()
            .map_err(|e| format!("option `--{name}`: {e}"))
    }

    /// An optional `usize` with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.optional(name) {
            Some(v) => v.parse().map_err(|e| format!("option `--{name}`: {e}")),
            None => Ok(default),
        }
    }

    /// The `--threads` knob: absent or `auto`/`0` → [`Parallelism::Auto`],
    /// `1` → sequential, `N` → exactly `N` workers.
    pub fn parallelism(&self) -> Result<wcm_par::Parallelism, String> {
        match self.optional("threads") {
            None => Ok(wcm_par::Parallelism::Auto),
            Some(v) => wcm_par::Parallelism::parse(v).map_err(|e| format!("option `--threads`: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &["k", "demands", "stride", "threads"];

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_pairs() {
        let o = Options::parse(&argv("--k 32 --demands trace.txt"), KEYS).unwrap();
        assert_eq!(o.required_usize("k").unwrap(), 32);
        assert_eq!(o.required("demands").unwrap(), "trace.txt");
        assert!(o.optional("nope").is_none());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Options::parse(&argv("k 32"), KEYS).is_err());
        assert!(Options::parse(&argv("--k"), KEYS).is_err());
        assert!(Options::parse(&argv("--k 1 --k 2"), KEYS).is_err());
        assert!(Options::parse(&argv("--k 1 --thread 2"), KEYS).is_err());
    }

    #[test]
    fn missing_required_is_reported() {
        let o = Options::parse(&argv("--k 32"), KEYS).unwrap();
        let err = o.required("demands").unwrap_err();
        assert!(err.contains("demands"));
    }

    #[test]
    fn defaults() {
        let o = Options::parse(&argv(""), KEYS).unwrap();
        assert_eq!(o.usize_or("stride", 7).unwrap(), 7);
        let o = Options::parse(&argv("--stride 3"), KEYS).unwrap();
        assert_eq!(o.usize_or("stride", 7).unwrap(), 3);
    }

    #[test]
    fn threads_knob() {
        use wcm_par::Parallelism;
        let o = Options::parse(&argv(""), KEYS).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Auto);
        let o = Options::parse(&argv("--threads auto"), KEYS).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Auto);
        let o = Options::parse(&argv("--threads 1"), KEYS).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Seq);
        let o = Options::parse(&argv("--threads 6"), KEYS).unwrap();
        assert_eq!(o.parallelism().unwrap(), Parallelism::Threads(6));
        let o = Options::parse(&argv("--threads many"), KEYS).unwrap();
        assert!(o.parallelism().unwrap_err().contains("threads"));
    }
}
