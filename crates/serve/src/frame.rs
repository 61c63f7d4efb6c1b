//! Length-prefixed frame codec for the wire protocol.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 BE | payload: JSON bytes |
//! +----------------+---------------------+
//! ```
//!
//! The length covers the payload only (not itself) and is bounded by
//! [`MAX_FRAME_LEN`]; a peer announcing a larger frame is rejected
//! before any payload is read, so a malicious or corrupted length word
//! cannot make the reader allocate unboundedly. A stream that ends
//! mid-header (other than exactly at a frame boundary) or mid-payload
//! surfaces as [`FrameError::Truncated`], distinct from a clean
//! [`FrameError::Closed`] end-of-stream between frames.

use std::io::{self, Read, Write};

/// Upper bound on a frame's payload length in bytes (16 MiB) — far
/// above any real snapshot, far below anything that could hurt.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary.
    Closed,
    /// The stream ended mid-header or mid-payload.
    Truncated,
    /// The announced payload length exceeds [`MAX_FRAME_LEN`].
    Oversize(u32),
    /// Transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversize(n) => {
                write!(f, "frame length {n} exceeds maximum {MAX_FRAME_LEN}")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length header + payload) with one `write_all` call
/// and flushes. One write per frame matters on a socket: a header
/// written alone wakes the reader, which then blocks again on the
/// payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32 range",
        )
    })?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {len} exceeds maximum {MAX_FRAME_LEN}"),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame's payload.
///
/// Distinguishes a clean close (EOF before any header byte →
/// [`FrameError::Closed`]) from a torn one (EOF inside the header or
/// payload → [`FrameError::Truncated`]).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    match r.read_exact(&mut payload) {
        Ok(()) => Ok(payload),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world!").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), b"world!");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn one_write_per_frame() {
        /// Records the bytes of every `write` call.
        #[derive(Default)]
        struct Recorder(Vec<Vec<u8>>);
        impl Write for Recorder {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.push(b.to_vec());
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut rec = Recorder::default();
        write_frame(&mut rec, b"hello").unwrap();
        write_frame(&mut rec, b"").unwrap();
        assert_eq!(
            rec.0,
            vec![b"\0\0\0\x05hello".to_vec(), b"\0\0\0\0".to_vec()]
        );
    }

    #[test]
    fn truncated_header_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mut r = &buf[..2];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mut r = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversize_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        // No payload bytes at all: the reader must reject on the header
        // alone rather than try to allocate/read the announced length.
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversize(n)) if n == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn oversize_write_rejected() {
        struct NullSink;
        impl Write for NullSink {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let big = vec![0u8; (MAX_FRAME_LEN as usize) + 1];
        assert!(write_frame(&mut NullSink, &big).is_err());
    }
}
