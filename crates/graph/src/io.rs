//! Graph serialization: SNAP-style text edge lists and a compact binary
//! format.
//!
//! The paper's datasets ship as SNAP text edge lists; these readers accept
//! that format (`src dst [weight]` per line, `#`/`%` comments). The binary
//! format is a little-endian dump used by the shard-streaming model to
//! emulate sequential disk reads with realistic byte counts.

use std::io::{BufRead, BufReader, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

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
/// Propagates I/O failures from the writer.
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
    Ok(())
}

const BINARY_MAGIC: u32 = 0x6758_4147; // "GAxg"
const BINARY_VERSION: u32 = 1;

/// Encodes a graph into the compact little-endian binary format
/// (magic, version, vertex count, edge count, then 12-byte edge records).
pub fn to_binary(graph: &CooGraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + graph.num_edges() * 12);
    buf.put_u32_le(BINARY_MAGIC);
    buf.put_u32_le(BINARY_VERSION);
    buf.put_u32_le(graph.num_vertices());
    buf.put_u64_le(graph.num_edges() as u64);
    for e in graph.iter() {
        buf.put_u32_le(e.src.raw());
        buf.put_u32_le(e.dst.raw());
        buf.put_f32_le(e.weight);
    }
    buf.freeze()
}

/// Decodes a graph from the binary format produced by [`to_binary`].
///
/// # Errors
///
/// Returns [`GraphError::MalformedBinary`] on truncation, bad magic, or an
/// unsupported version, and [`GraphError::VertexOutOfRange`] if a record
/// references a vertex beyond the declared count.
pub fn from_binary(mut data: Bytes) -> Result<CooGraph, GraphError> {
    let need = |data: &Bytes, n: usize, what: &str| -> Result<(), GraphError> {
        if data.remaining() < n {
            Err(GraphError::MalformedBinary(format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(&data, 20, "header")?;
    let magic = data.get_u32_le();
    if magic != BINARY_MAGIC {
        return Err(GraphError::MalformedBinary(format!(
            "bad magic {magic:#010x}"
        )));
    }
    let version = data.get_u32_le();
    if version != BINARY_VERSION {
        return Err(GraphError::MalformedBinary(format!(
            "unsupported version {version}"
        )));
    }
    let num_vertices = data.get_u32_le();
    let num_edges = data.get_u64_le() as usize;
    need(&data, num_edges.saturating_mul(12), "edge records")?;
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let src = data.get_u32_le();
        let dst = data.get_u32_le();
        let weight = data.get_f32_le();
        edges.push(Edge::new(src, dst, weight));
    }
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
        let back = from_binary(bytes).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut raw = to_binary(&generators::path_graph(3)).to_vec();
        raw[0] ^= 0xff;
        assert!(matches!(
            from_binary(Bytes::from(raw)),
            Err(GraphError::MalformedBinary(_))
        ));
    }

    #[test]
    fn binary_rejects_truncation() {
        let raw = to_binary(&generators::path_graph(3));
        let cut = raw.slice(0..raw.len() - 4);
        assert!(from_binary(cut).is_err());
    }

    #[test]
    fn binary_rejects_bad_version() {
        let mut raw = to_binary(&generators::path_graph(3)).to_vec();
        raw[4] = 99;
        assert!(from_binary(Bytes::from(raw)).is_err());
    }
}
