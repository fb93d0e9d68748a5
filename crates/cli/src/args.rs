//! Minimal argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments, and `--key
/// value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub command: String,
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name). Options may appear
    /// anywhere; an option followed by another option or nothing is a flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = argv.iter().peekable();
        match iter.next() {
            Some(cmd) if !cmd.starts_with("--") => out.command = cmd.clone(),
            Some(cmd) => return Err(format!("expected a subcommand, got option {cmd}")),
            None => return Err("no subcommand given".into()),
        }
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("empty option name".into());
                }
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.options
                            .insert(name.to_string(), iter.next().unwrap().clone());
                    }
                    _ => out.flags.push(name.to_string()),
                }
            } else {
                out.positional.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// String option by name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// Returns `true` when `--name` was given without a value.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The name of every option and flag given, in no particular order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let options = self.options.keys().map(String::as_str);
        options.chain(self.flags.iter().map(String::as_str))
    }

    /// Typed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{name}")),
            None => Ok(default),
        }
    }

    /// Required positional argument.
    pub fn positional(&self, index: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(index)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing argument: {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_positionals_and_options() {
        let a = Args::parse(&argv(
            "search data.ustr PAT --tau 0.3 --quiet --tau-min 0.1",
        ))
        .unwrap();
        assert_eq!(a.command, "search");
        assert_eq!(a.positional, vec!["data.ustr", "PAT"]);
        assert_eq!(a.get("tau"), Some("0.3"));
        assert_eq!(a.get("tau-min"), Some("0.1"));
        assert!(a.flag("quiet"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn typed_options_with_defaults() {
        let a = Args::parse(&argv("gen --n 500")).unwrap();
        assert_eq!(a.get_parsed("n", 10usize).unwrap(), 500);
        assert_eq!(a.get_parsed("theta", 0.25f64).unwrap(), 0.25);
        assert!(a.get_parsed::<usize>("n", 0).is_ok());
        let bad = Args::parse(&argv("gen --n abc")).unwrap();
        assert!(bad.get_parsed::<usize>("n", 0).is_err());
    }

    #[test]
    fn rejects_missing_subcommand() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&argv("--tau 0.3")).is_err());
    }

    #[test]
    fn missing_positional_reports_what() {
        let a = Args::parse(&argv("search file.ustr")).unwrap();
        let err = a.positional(1, "PATTERN").unwrap_err();
        assert!(err.contains("PATTERN"));
    }
}
