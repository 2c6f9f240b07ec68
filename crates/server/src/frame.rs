//! Length-prefixed frame codec for the serving protocol.
//!
//! A frame is `[u32 big-endian payload length][payload bytes]`. The
//! payload is a UTF-8 JSON document (see [`crate::json`]); the codec
//! itself is payload-agnostic. Frames larger than [`MAX_FRAME`] are
//! rejected on both sides, so a corrupt or hostile length prefix cannot
//! drive an unbounded allocation.

use std::io::{self, Read, Write};

use crate::json::Json;

/// Maximum accepted payload size (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Write one frame — header and payload in one `write_all`, so one
/// segment under `TCP_NODELAY` — and flush it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let header = header(payload.len())?;
    w.write_all(&[&header[..], payload].concat())?;
    w.flush()
}

/// Encode `doc` into `buf` as one whole frame, ready for one
/// `write_all`: four header bytes reserved, the document encoded after
/// them, its length patched in — one allocation, `buf`'s, reused. A
/// payload over [`MAX_FRAME`] is refused and leaves `buf` empty.
pub(crate) fn encode_frame(buf: &mut Vec<u8>, doc: &Json) -> io::Result<()> {
    buf.clear();
    let mut text = String::from_utf8(std::mem::take(buf)).expect("an empty buffer");
    text.push_str("\0\0\0\0");
    doc.write_into(&mut text);
    *buf = text.into_bytes();
    let header = header(buf.len() - 4).inspect_err(|_| buf.clear())?;
    buf[..4].copy_from_slice(&header);
    Ok(())
}

/// The header of a `len`-byte payload, or its refusal over [`MAX_FRAME`].
fn header(len: usize) -> io::Result<[u8; 4]> {
    if len > MAX_FRAME {
        let msg = format!("frame of {len} bytes exceeds MAX_FRAME");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok((len as u32).to_be_bytes())
}

/// Read one frame. Returns `Ok(None)` on a clean EOF (the peer closed
/// the connection between frames); a mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "unicode \u{1F600}".as_bytes()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            "unicode \u{1F600}".as_bytes()
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// A `Write` that records each call's bytes.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Header and payload leave in one write, on both the client's
    /// `write_frame` and the server's `encode_frame`, and the frames
    /// read back.
    #[test]
    fn a_frame_is_one_write() {
        let doc = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("s", Json::Str("é\n".into())),
        ]);
        let mut calls = Calls::default();
        write_frame(&mut calls, doc.to_string().as_bytes()).unwrap();
        let mut buf = vec![7; 3];
        encode_frame(&mut buf, &doc).unwrap();
        calls.write_all(&buf).unwrap();
        write_frame(&mut calls, b"").unwrap();
        assert_eq!(calls.0.len(), 3, "one write per frame");
        assert_eq!(calls.0[0], calls.0[1], "both encoders frame alike");
        let stream = calls.0.concat();
        let mut r = &stream[..];
        for want in [doc.to_string().as_bytes(), doc.to_string().as_bytes(), b""] {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), want);
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// An oversized document is refused, naming its size, and leaves
    /// the buffer empty for the reply that replaces it.
    #[test]
    fn encode_frame_refuses_an_oversized_document() {
        let mut buf = Vec::new();
        let big = Json::Raw("x".repeat(MAX_FRAME + 1));
        let refused = encode_frame(&mut buf, &big).unwrap_err();
        assert!(
            refused.to_string().contains(&(MAX_FRAME + 1).to_string()),
            "{refused}"
        );
        assert!(buf.is_empty());
        let fits = Json::Raw("y".repeat(MAX_FRAME));
        encode_frame(&mut buf, &fits).unwrap();
        assert_eq!(buf.len(), 4 + MAX_FRAME);
    }

    #[test]
    fn eof_inside_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Truncate inside the payload, and inside the header.
        for cut in [buf.len() - 3, 2] {
            let mut r = &buf[..cut];
            assert!(read_frame(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_frames_rejected_on_both_sides() {
        let mut sink = Vec::new();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut sink, &huge).is_err());
        let mut bytes = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        let mut r = &bytes[..];
        assert!(read_frame(&mut r).is_err());
    }
}
