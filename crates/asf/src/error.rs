//! Error type for parsing and building ASF content.

use std::error::Error;
use std::fmt;

/// Errors raised while reading or writing ASF content.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsfError {
    /// The input ended before an object or field was complete.
    UnexpectedEof {
        /// What was being parsed.
        context: &'static str,
    },
    /// An object GUID did not match what the grammar requires here.
    UnexpectedObject {
        /// What was expected.
        expected: &'static str,
    },
    /// A declared size is impossible (too small for its header, or larger
    /// than the remaining input).
    BadSize {
        /// What was being parsed.
        context: &'static str,
        /// The offending size.
        size: u64,
    },
    /// A string field was not valid UTF-8.
    BadString,
    /// A stream number appeared in a packet but was never declared in the
    /// header.
    UnknownStream(u16),
    /// A sample was larger than the declared packet size allows.
    SampleTooLarge {
        /// Bytes in the sample.
        sample: usize,
        /// Usable payload bytes per packet.
        capacity: usize,
    },
    /// Packet size too small to hold even one payload header.
    PacketSizeTooSmall(u32),
    /// DRM license missing or wrong for protected content.
    LicenseRejected {
        /// Key id the content was protected with.
        key_id: String,
    },
    /// A fragment arrived that is inconsistent with fragments seen before.
    FragmentMismatch {
        /// Stream of the fragment.
        stream: u16,
        /// Media object id of the fragment.
        object: u32,
    },
    /// A fragment declared a sample larger than
    /// [`crate::packet::MAX_SAMPLE_BYTES`]; nothing was allocated for it.
    OversizedSample {
        /// Stream of the fragment.
        stream: u16,
        /// Media object id of the fragment.
        object: u32,
        /// The declared sample size in bytes.
        total: u32,
    },
}

impl fmt::Display for AsfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsfError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            AsfError::UnexpectedObject { expected } => {
                write!(f, "expected {expected} object")
            }
            AsfError::BadSize { context, size } => {
                write!(f, "impossible size {size} for {context}")
            }
            AsfError::BadString => write!(f, "string field is not valid utf-8"),
            AsfError::UnknownStream(s) => write!(f, "packet references undeclared stream {s}"),
            AsfError::SampleTooLarge { sample, capacity } => write!(
                f,
                "sample of {sample} bytes cannot fit fragment capacity {capacity}"
            ),
            AsfError::PacketSizeTooSmall(s) => {
                write!(f, "packet size {s} cannot hold a payload header")
            }
            AsfError::LicenseRejected { key_id } => {
                write!(f, "license rejected for key id \"{key_id}\"")
            }
            AsfError::FragmentMismatch { stream, object } => write!(
                f,
                "inconsistent fragment for stream {stream} object {object}"
            ),
            AsfError::OversizedSample {
                stream,
                object,
                total,
            } => write!(
                f,
                "fragment for stream {stream} object {object} declares a {total}-byte sample"
            ),
        }
    }
}

impl Error for AsfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase() {
        let e = AsfError::UnexpectedEof { context: "packet" };
        assert!(e.to_string().starts_with("unexpected"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<AsfError>();
    }
}
