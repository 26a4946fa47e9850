//! Graph serialization: SNAP-style text edge lists and a compact binary
//! format.
//!
//! The paper's datasets ship as SNAP text edge lists; these readers accept
//! that format (`src dst [weight]` per line, `#`/`%` comments). The binary
//! format is a little-endian dump used by the shard-streaming model to
//! emulate sequential disk reads with realistic byte counts.

use std::io::{BufRead, BufReader, Read, Write};

use crate::coo::CooGraph;
use crate::error::GraphError;
use crate::types::Edge;

/// Reads a text edge list: one `src dst [weight]` triple per line,
/// whitespace separated, with `#` or `%` comment lines ignored.
///
/// The vertex count is inferred as `max id + 1`. A missing weight defaults
/// to 1.0.
///
/// ```
/// let text = "# demo\n0 1\n1 2 5.5\n";
/// let g = gaasx_graph::io::read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.edges()[1].weight, 5.5);
/// # Ok::<(), gaasx_graph::GraphError>(())
/// ```
///
/// # Errors
///
/// Returns [`GraphError::Parse`] with a line number for malformed lines,
/// [`GraphError::VertexOutOfRange`] naming vertex `u32::MAX` when a line
/// uses that id (the `u32` vertex count tops out one below it), and
/// [`GraphError::Io`] for read failures.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CooGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges = Vec::new();
    let mut max_vertex = 0u32;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_u32 = |tok: Option<&str>, what: &str| -> Result<u32, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: idx + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u32>()
            .map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let src = parse_u32(parts.next(), "source vertex")?;
        let dst = parse_u32(parts.next(), "destination vertex")?;
        let weight = match parts.next() {
            None => 1.0,
            Some(tok) => tok.parse::<f32>().map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: format!("bad weight: {e}"),
            })?,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: idx + 1,
                message: "trailing tokens after weight".into(),
            });
        }
        max_vertex = max_vertex.max(src).max(dst);
        edges.push(Edge::new(src, dst, weight));
    }
    // Id `u32::MAX` would need a vertex count of 2^32; saturating leaves
    // the count at `u32::MAX`, which `from_edges` rejects that id against.
    let n = if edges.is_empty() {
        0
    } else {
        max_vertex.saturating_add(1)
    };
    CooGraph::from_edges(n, edges)
}

/// Writes a graph as a text edge list with weights.
///
/// # Errors
///
/// Propagates I/O failures from the writer, including those of the final
/// flush (a `BufWriter` dropped unflushed would discard them).
pub fn write_edge_list<W: Write>(mut writer: W, graph: &CooGraph) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# gaasx edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.iter() {
        writeln!(writer, "{} {} {}", e.src.raw(), e.dst.raw(), e.weight)?;
    }
    writer.flush()?;
    Ok(())
}

const BINARY_MAGIC: u32 = 0x6758_4147; // "GAxg"
const BINARY_VERSION: u32 = 1;
/// Magic, version, vertex count (`u32` each) and edge count (`u64`).
const HEADER_BYTES: usize = 20;
/// Source and destination ids (`u32` each) and the weight (`f32`).
const RECORD_BYTES: usize = 12;

/// Encodes a graph into the compact little-endian binary format
/// (magic, version, vertex count, edge count, then 12-byte edge records).
pub fn to_binary(graph: &CooGraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + graph.num_edges() * RECORD_BYTES);
    buf.extend_from_slice(&BINARY_MAGIC.to_le_bytes());
    buf.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    buf.extend_from_slice(&graph.num_vertices().to_le_bytes());
    buf.extend_from_slice(&(graph.num_edges() as u64).to_le_bytes());
    for e in graph.iter() {
        buf.extend_from_slice(&e.src.raw().to_le_bytes());
        buf.extend_from_slice(&e.dst.raw().to_le_bytes());
        buf.extend_from_slice(&e.weight.to_le_bytes());
    }
    buf
}

/// The `N` bytes at `at`, for `from_le_bytes`; the caller has checked
/// that they exist.
fn field<const N: usize>(data: &[u8], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&data[at..at + N]);
    out
}

/// Decodes a graph from the binary format produced by [`to_binary`].
///
/// # Errors
///
/// Returns [`GraphError::MalformedBinary`] on truncation, bad magic, or an
/// unsupported version, and [`GraphError::VertexOutOfRange`] if a record
/// references a vertex beyond the declared count. The declared edge count
/// is checked against the bytes present before anything is allocated.
pub fn from_binary(data: &[u8]) -> Result<CooGraph, GraphError> {
    let truncated = |what: &str| GraphError::MalformedBinary(format!("truncated {what}"));
    if data.len() < HEADER_BYTES {
        return Err(truncated("header"));
    }
    let (header, records) = data.split_at(HEADER_BYTES);
    let magic = u32::from_le_bytes(field(header, 0));
    if magic != BINARY_MAGIC {
        return Err(GraphError::MalformedBinary(format!(
            "bad magic {magic:#010x}"
        )));
    }
    let version = u32::from_le_bytes(field(header, 4));
    if version != BINARY_VERSION {
        return Err(GraphError::MalformedBinary(format!(
            "unsupported version {version}"
        )));
    }
    let num_vertices = u32::from_le_bytes(field(header, 8));
    let num_edges = usize::try_from(u64::from_le_bytes(field(header, 12)))
        .ok()
        .filter(|&n| n <= records.len() / RECORD_BYTES)
        .ok_or_else(|| truncated("edge records"))?;
    let edges = records
        .chunks_exact(RECORD_BYTES)
        .take(num_edges)
        .map(|r| {
            Edge::new(
                u32::from_le_bytes(field(r, 0)),
                u32::from_le_bytes(field(r, 4)),
                f32::from_le_bytes(field(r, 8)),
            )
        })
        .collect();
    CooGraph::from_edges(num_vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn text_roundtrip() {
        let g = generators::paper_fig7_graph();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn text_writer_reports_a_failed_flush() {
        /// A device with no room left, like `/dev/full`.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WriteZero.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // The buffer holds the whole small graph, so only the flush
        // reaches the device.
        let out = std::io::BufWriter::new(Full);
        let result = write_edge_list(out, &generators::path_graph(3));
        assert!(matches!(result, Err(GraphError::Io(_))), "{result:?}");
    }

    #[test]
    fn text_reader_accepts_unweighted_and_comments() {
        let text = "# comment\n% another\n\n0 1\n2 3 4.5\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.edges()[0].weight, 1.0);
        assert_eq!(g.edges()[1].weight, 4.5);
    }

    #[test]
    fn text_reader_reports_line_numbers() {
        let text = "0 1\nbogus line\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_reader_rejects_trailing_tokens() {
        assert!(read_edge_list("0 1 2.0 junk\n".as_bytes()).is_err());
    }

    #[test]
    fn text_reader_rejects_the_id_past_the_largest_vertex_count() {
        for text in ["0 4294967295\n", "4294967295 0 2.0\n"] {
            match read_edge_list(text.as_bytes()) {
                Err(GraphError::VertexOutOfRange {
                    vertex,
                    num_vertices,
                }) => {
                    assert_eq!(vertex, u32::MAX);
                    assert_eq!(num_vertices, u32::MAX);
                }
                other => panic!("{text:?}: expected VertexOutOfRange, got {other:?}"),
            }
        }
        // The largest representable id still loads.
        let g = read_edge_list("0 4294967294\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), u32::MAX);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn binary_roundtrip() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 300).with_seed(5)).unwrap();
        let bytes = to_binary(&g);
        assert_eq!(bytes.len(), 20 + 300 * 12);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_layout_is_pinned_byte_for_byte() {
        let g =
            CooGraph::from_edges(3, vec![Edge::new(0, 1, 1.5), Edge::new(2, 0, -0.25)]).unwrap();
        #[rustfmt::skip]
        let golden: [u8; 44] = [
            0x47, 0x41, 0x58, 0x67, // magic "GAXg"
            0x01, 0x00, 0x00, 0x00, // version 1
            0x03, 0x00, 0x00, 0x00, // 3 vertices
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 2 edges (u64)
            0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, // 0 -> 1, 1.5
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0xbe, // 2 -> 0, -0.25
        ];
        assert_eq!(to_binary(&g)[..], golden[..]);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut raw = to_binary(&generators::path_graph(3));
        raw[0] ^= 0xff;
        assert!(matches!(
            from_binary(&raw),
            Err(GraphError::MalformedBinary(_))
        ));
    }

    #[test]
    fn binary_rejects_truncation() {
        let raw = to_binary(&generators::path_graph(3));
        for cut in [raw.len() - 4, 19] {
            assert!(matches!(
                from_binary(&raw[..cut]),
                Err(GraphError::MalformedBinary(_))
            ));
        }
    }

    #[test]
    fn binary_rejects_bad_version() {
        let mut raw = to_binary(&generators::path_graph(3));
        raw[4] = 99;
        assert!(matches!(
            from_binary(&raw),
            Err(GraphError::MalformedBinary(_))
        ));
    }
}
