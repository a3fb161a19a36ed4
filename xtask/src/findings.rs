//! Shared machine-readable finding schema for the xtask static passes.
//!
//! `lint-concurrency`, `lint-trace` and `analyze-locks` all emit the same
//! JSON document under `--json` (or `--out <path>`), so CI uploads one
//! artifact format regardless of which pass produced it:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "tool": "lint-concurrency",
//!   "findings": [
//!     {"rule": "hot-path-std-mutex", "severity": "error",
//!      "file": "crates/core/src/x.rs", "line": 12, "message": "..."}
//!   ]
//! }
//! ```
//!
//! `line` is 1-based; `0` means the finding applies to the file (or run)
//! as a whole. Exit status is derived from severities: any `error`
//! finding fails the command, `warning` and `info` do not.

use std::fmt;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
    Info,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    pub severity: Severity,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(
        rule: impl Into<String>,
        severity: Severity,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule: rule.into(),
            severity,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Renders the shared JSON document for `tool`.
pub fn render_json(tool: &str, findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"tool\": \"{}\",\n", crate::json::escape(tool)));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"message\": \"{}\"}}",
            crate::json::escape(&f.rule),
            f.severity.as_str(),
            crate::json::escape(&f.file),
            f.line,
            crate::json::escape(&f.message),
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Output options shared by every pass that emits findings.
#[derive(Debug, Default)]
pub struct OutputOpts {
    /// Print the JSON document to stdout instead of human-readable lines.
    pub json: bool,
    /// Also write the JSON document to this path.
    pub out: Option<PathBuf>,
}

impl OutputOpts {
    /// Extracts `--json` / `--out <path>` from `args`, returning the
    /// options plus the remaining (pass-specific) arguments.
    pub fn parse(args: &[String]) -> Result<(OutputOpts, Vec<String>), String> {
        let mut opts = OutputOpts::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => opts.json = true,
                "--out" => {
                    let path = it.next().ok_or("--out requires a path argument")?;
                    opts.out = Some(PathBuf::from(path));
                }
                _ => rest.push(a.clone()),
            }
        }
        Ok((opts, rest))
    }

    /// Emits the document per the options. Human-readable rendering stays
    /// in the caller (each pass has its own summary line); this only
    /// handles the machine-readable side. Returns false on I/O failure.
    pub fn emit(&self, tool: &str, findings: &[Finding]) -> bool {
        if !self.json && self.out.is_none() {
            return true;
        }
        let doc = render_json(tool, findings);
        if self.json {
            println!("{doc}");
        }
        if let Some(path) = &self.out {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("{tool}: cannot write {}: {e}", path.display());
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn rendered_document_parses_and_round_trips() {
        let findings = vec![
            Finding::new(
                "lock-order-cycle",
                Severity::Error,
                "crates/core/src/comm.rs",
                42,
                "cycle: \"a\" -> b\n -> a",
            ),
            Finding::new("coverage-gap", Severity::Info, "", 0, "never observed"),
        ];
        let doc = render_json("analyze-locks", &findings);
        let Json::Object(top) = Json::parse(&doc).unwrap() else {
            panic!("not an object");
        };
        assert_eq!(top["schema"], Json::Number(1.0));
        assert_eq!(top["tool"], Json::String("analyze-locks".into()));
        let Json::Array(items) = &top["findings"] else {
            panic!("findings not an array");
        };
        assert_eq!(items.len(), 2);
        let Json::Object(f0) = &items[0] else {
            panic!()
        };
        assert_eq!(f0["severity"], Json::String("error".into()));
        assert_eq!(f0["line"], Json::Number(42.0));
        assert_eq!(
            f0["message"],
            Json::String("cycle: \"a\" -> b\n -> a".into())
        );
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        let doc = render_json("lint-trace", &[]);
        let Json::Object(top) = Json::parse(&doc).unwrap() else {
            panic!()
        };
        assert_eq!(top["findings"], Json::Array(vec![]));
    }

    #[test]
    fn parse_extracts_output_flags() {
        let args: Vec<String> = ["--static-only", "--json", "--out", "x.json", "--foo"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, rest) = OutputOpts::parse(&args).unwrap();
        assert!(opts.json);
        assert_eq!(opts.out.as_deref(), Some(std::path::Path::new("x.json")));
        assert_eq!(rest, ["--static-only", "--foo"]);
        assert!(OutputOpts::parse(&["--out".to_string()]).is_err());
    }
}
