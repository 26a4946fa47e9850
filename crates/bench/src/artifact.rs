//! Serialization contract for the `BENCH_0x.json` search-mode artifacts.
//!
//! The perf-regression gate diffs artifacts across commits, so their
//! byte layout is a compatibility surface: key order, float widths
//! (`{:.6}` wall clocks, `{:.3}` ratios), and one-row-per-line framing
//! are all load-bearing for the line-oriented parser below. [`render`]
//! and [`parse`] are exact inverses over well-formed artifacts — the
//! `artifact_snapshot` integration test round-trips the committed
//! `results/BENCH_07.json` through both and asserts byte identity.

/// One `(algorithm, bank, jobs, fault)` row of a search-mode artifact,
/// carrying the already-derived ratios exactly as serialized.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchModeRow {
    /// Algorithm name (`pagerank`, `bfs`, ...).
    pub algorithm: String,
    /// Bank geometry label (`paper` or `deep`).
    pub bank: String,
    /// Shard-level parallelism of the run.
    pub jobs: usize,
    /// Whether the fault-injection campaign was active.
    pub fault: bool,
    /// Linear-search wall clock, seconds (`{:.6}` in the artifact).
    pub linear_wall_s: f64,
    /// Indexed-search wall clock, seconds (`{:.6}` in the artifact).
    pub indexed_wall_s: f64,
    /// Auto-mode wall clock, seconds (`{:.6}` in the artifact).
    pub auto_wall_s: f64,
    /// Linear/indexed speedup ratio (`{:.3}` in the artifact).
    pub speedup: f64,
    /// Auto vs best-fixed-mode ratio (`{:.3}` in the artifact).
    pub auto_vs_best: f64,
    /// Linear-search wall clock under the retired *scalar* host kernel,
    /// seconds (`{:.6}`). Only BENCH_08 measured it: `None` in earlier
    /// artifacts and in new runs, which time the one word-parallel
    /// matcher. Both scalar fields are present together.
    pub scalar_linear_wall_s: Option<f64>,
    /// Packed-over-scalar speedup on the Linear scan (`{:.3}`): the
    /// realized word-parallel win of a BENCH_08 row, `None` otherwise.
    pub packed_vs_scalar: Option<f64>,
}

/// A parsed search-mode artifact: run metadata plus its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchModeArtifact {
    /// Edge cap the benchmark graphs were built with.
    pub edges: u64,
    /// PageRank iteration count of the run.
    pub pr_iterations: u32,
    /// One row per `(algorithm, bank, jobs, fault)` matrix cell.
    pub rows: Vec<SearchModeRow>,
}

/// Extracts the raw text of `"key": <value>` from one JSON line,
/// tolerating optional whitespace after the colon; string values lose
/// their quotes.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// Renders the artifact in the committed layout. Floats are re-rounded
/// through the same format strings the original writer used, so feeding
/// back [`parse`]d values reproduces the input bytes exactly.
pub fn render(artifact: &SearchModeArtifact) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"search_modes\",\n");
    s.push_str(&format!("  \"edges\": {},\n", artifact.edges));
    s.push_str(&format!(
        "  \"pr_iterations\": {},\n",
        artifact.pr_iterations
    ));
    s.push_str("  \"identity\": \"every row bit-identical (RunReport + output) across modes\",\n");
    s.push_str("  \"runs\": [\n");
    for (i, r) in artifact.rows.iter().enumerate() {
        // The scalar-kernel columns only render when present, so BENCH_08
        // and every other artifact keep round-tripping byte-identically.
        let packed = match (r.scalar_linear_wall_s, r.packed_vs_scalar) {
            (Some(wall), Some(ratio)) => {
                format!(", \"scalar_linear_wall_s\": {wall:.6}, \"packed_vs_scalar\": {ratio:.3}")
            }
            _ => String::new(),
        };
        s.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"bank\": \"{}\", \"jobs\": {}, \"fault\": {}, \
             \"linear_wall_s\": {:.6}, \"indexed_wall_s\": {:.6}, \"auto_wall_s\": {:.6}, \
             \"speedup\": {:.3}, \"auto_vs_best\": {:.3}{}}}{}\n",
            r.algorithm,
            r.bank,
            r.jobs,
            r.fault,
            r.linear_wall_s,
            r.indexed_wall_s,
            r.auto_wall_s,
            r.speedup,
            r.auto_vs_best,
            packed,
            if i + 1 == artifact.rows.len() {
                ""
            } else {
                ","
            },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses a search-mode artifact produced by [`render`] (or the older
/// writers sharing the layout). Lines without an `algorithm` field
/// (header, brackets) carry the metadata or are skipped.
pub fn parse(text: &str) -> Result<SearchModeArtifact, String> {
    let mut edges = None;
    let mut pr_iterations = None;
    let mut rows = Vec::new();
    for line in text.lines() {
        if field(line, "algorithm").is_some() {
            rows.push(parse_row(line)?);
            continue;
        }
        if let Some(v) = field(line, "edges") {
            edges = Some(v.parse().map_err(|e| format!("edges: {e}"))?);
        }
        if let Some(v) = field(line, "pr_iterations") {
            pr_iterations = Some(v.parse().map_err(|e| format!("pr_iterations: {e}"))?);
        }
    }
    Ok(SearchModeArtifact {
        edges: edges.ok_or("artifact has no `edges` field")?,
        pr_iterations: pr_iterations.ok_or("artifact has no `pr_iterations` field")?,
        rows,
    })
}

fn parse_row(line: &str) -> Result<SearchModeRow, String> {
    fn req<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
        field(line, key).ok_or_else(|| format!("row is missing `{key}`: {line}"))
    }
    fn num<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        req(line, key)?
            .parse()
            .map_err(|e| format!("row field `{key}`: {e}"))
    }
    Ok(SearchModeRow {
        algorithm: req(line, "algorithm")?.to_string(),
        bank: req(line, "bank")?.to_string(),
        jobs: num(line, "jobs")?,
        fault: num(line, "fault")?,
        linear_wall_s: num(line, "linear_wall_s")?,
        indexed_wall_s: num(line, "indexed_wall_s")?,
        auto_wall_s: num(line, "auto_wall_s")?,
        speedup: num(line, "speedup")?,
        auto_vs_best: num(line, "auto_vs_best")?,
        scalar_linear_wall_s: opt(line, "scalar_linear_wall_s")?,
        packed_vs_scalar: opt(line, "packed_vs_scalar")?,
    })
}

/// Parses an optional numeric field: absent keys yield `Ok(None)`,
/// malformed values still fail loudly.
fn opt(line: &str, key: &str) -> Result<Option<f64>, String> {
    field(line, key)
        .map(|v| v.parse().map_err(|e| format!("row field `{key}`: {e}")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchModeArtifact {
        SearchModeArtifact {
            edges: 60000,
            pr_iterations: 5,
            rows: vec![
                SearchModeRow {
                    algorithm: "pagerank".into(),
                    bank: "paper".into(),
                    jobs: 1,
                    fault: false,
                    linear_wall_s: 0.03651,
                    indexed_wall_s: 0.034021,
                    auto_wall_s: 0.032632,
                    speedup: 1.073,
                    auto_vs_best: 1.043,
                    scalar_linear_wall_s: None,
                    packed_vs_scalar: None,
                },
                SearchModeRow {
                    algorithm: "bfs".into(),
                    bank: "deep".into(),
                    jobs: 4,
                    fault: true,
                    linear_wall_s: 0.1,
                    indexed_wall_s: 0.05,
                    auto_wall_s: 0.05,
                    speedup: 2.0,
                    auto_vs_best: 1.0,
                    scalar_linear_wall_s: Some(0.21),
                    packed_vs_scalar: Some(2.1),
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trips_values() {
        let a = sample();
        assert_eq!(parse(&render(&a)).unwrap(), a);
    }

    #[test]
    fn parse_render_round_trips_bytes() {
        let text = render(&sample());
        assert_eq!(render(&parse(&text).unwrap()), text);
    }

    #[test]
    fn field_handles_strings_numbers_and_bools() {
        let line = r#"    {"algorithm": "bfs", "jobs": 4, "fault": false, "speedup": 2.000},"#;
        assert_eq!(field(line, "algorithm"), Some("bfs"));
        assert_eq!(field(line, "jobs"), Some("4"));
        assert_eq!(field(line, "fault"), Some("false"));
        assert_eq!(field(line, "speedup"), Some("2.000"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn packed_columns_are_optional_and_round_trip() {
        let a = sample();
        let text = render(&a);
        // Row 0 (no packed columns) renders the pre-BENCH_08 layout.
        assert!(!text.lines().nth(6).unwrap().contains("packed_vs_scalar"));
        assert!(text
            .lines()
            .nth(7)
            .unwrap()
            .contains("\"packed_vs_scalar\": 2.100"));
        assert_eq!(parse(&text).unwrap(), a);
    }

    #[test]
    fn parse_rejects_incomplete_rows() {
        let text = "{\n  \"edges\": 1,\n  \"pr_iterations\": 1,\n  {\"algorithm\": \"bfs\"}\n}\n";
        assert!(parse(text).unwrap_err().contains("missing"));
    }
}
