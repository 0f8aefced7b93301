//! A minimal keep-alive HTTP/1.1 client: the measuring instrument of the
//! serve workloads. It is the benchmark's own rather than
//! `evcap_serve::client`, so a change to the program cannot change how a
//! request is sent or timed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The `x-evcap-cache` header of a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHeader {
    Absent,
    Hit,
    Miss,
    Coalesced,
    Other,
}

impl CacheHeader {
    pub const ALL: [CacheHeader; 5] = [
        CacheHeader::Absent,
        CacheHeader::Hit,
        CacheHeader::Miss,
        CacheHeader::Coalesced,
        CacheHeader::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CacheHeader::Absent => "none",
            CacheHeader::Hit => "hit",
            CacheHeader::Miss => "miss",
            CacheHeader::Coalesced => "coalesced",
            CacheHeader::Other => "other",
        }
    }

    fn parse(value: &[u8]) -> Self {
        match value {
            b"hit" => CacheHeader::Hit,
            b"miss" => CacheHeader::Miss,
            b"coalesced" => CacheHeader::Coalesced,
            _ => CacheHeader::Other,
        }
    }
}

/// Status line and headers of one reply; the body lands in the caller's
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    pub cache: CacheHeader,
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(1024),
            line: Vec::with_capacity(256),
        })
    }

    /// Sends one request (`POST` with a JSON payload, or `GET` when the
    /// payload is empty) and reads the whole reply, its body into `body`.
    pub fn send(
        &mut self,
        path: &str,
        request_id: &str,
        payload: &[u8],
        body: &mut Vec<u8>,
    ) -> io::Result<Reply> {
        self.out.clear();
        let method = if payload.is_empty() { "GET" } else { "POST" };
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\nx-request-id: {request_id}\r\n"
        )?;
        if !payload.is_empty() {
            write!(
                self.out,
                "content-type: application/json\r\ncontent-length: {}\r\n",
                payload.len()
            )?;
        }
        self.out.extend_from_slice(b"\r\n");
        self.out.extend_from_slice(payload);
        self.writer.write_all(&self.out)?;

        let status = {
            self.next_line()?;
            let line = trim_crlf(&self.line);
            let code = line
                .split(|&b| b == b' ')
                .nth(1)
                .and_then(|c| std::str::from_utf8(c).ok())
                .and_then(|c| c.parse::<u16>().ok());
            code.ok_or_else(|| bad("malformed status line"))?
        };
        let mut length = None;
        let mut cache = CacheHeader::Absent;
        loop {
            self.next_line()?;
            let line = trim_crlf(&self.line);
            if line.is_empty() {
                break;
            }
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                return Err(bad("malformed header"));
            };
            let (name, value) = (&line[..colon], trim_space(&line[colon + 1..]));
            if name.eq_ignore_ascii_case(b"content-length") {
                let text = std::str::from_utf8(value).map_err(|_| bad("bad length"))?;
                length = Some(text.parse::<usize>().map_err(|_| bad("bad length"))?);
            } else if name.eq_ignore_ascii_case(b"x-evcap-cache") {
                cache = CacheHeader::parse(value);
            }
        }
        let length = length.ok_or_else(|| bad("reply without content-length"))?;
        body.clear();
        body.resize(length, 0);
        io::Read::read_exact(&mut self.reader, body)?;
        Ok(Reply { status, cache })
    }

    fn next_line(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        Ok(())
    }
}

fn trim_crlf(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

fn trim_space(v: &[u8]) -> &[u8] {
    let start = v
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(v.len());
    let end = v
        .iter()
        .rposition(|b| !b.is_ascii_whitespace())
        .map_or(start, |i| i + 1);
    &v[start..end]
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}
