//! Error types for lash-core.

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by vocabulary construction, parameter validation, and the
/// mining pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An operation referenced an item id that is not part of the vocabulary.
    UnknownItem(u32),
    /// Attempted to assign a second parent to an item (the hierarchy must be a
    /// forest).
    DuplicateParent {
        /// The child that already has a parent.
        child: u32,
    },
    /// Assigning this parent would create a cycle.
    HierarchyCycle {
        /// The item at which the cycle was detected.
        item: u32,
    },
    /// Invalid mining parameters (σ must be ≥ 1 and λ ≥ 2).
    InvalidParams(&'static str),
    /// A decoding error from the wire format.
    Decode(lash_encoding::DecodeError),
    /// The MapReduce engine failed (e.g. a task exceeded its retry budget).
    Engine(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownItem(id) => write!(f, "unknown item id {id}"),
            Error::DuplicateParent { child } => {
                write!(
                    f,
                    "item {child} already has a parent; hierarchy must be a forest"
                )
            }
            Error::HierarchyCycle { item } => {
                write!(
                    f,
                    "assigning this parent would create a cycle at item {item}"
                )
            }
            Error::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            Error::Decode(e) => write!(f, "decode error: {e}"),
            Error::Engine(msg) => write!(f, "mapreduce engine error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lash_encoding::DecodeError> for Error {
    fn from(e: lash_encoding::DecodeError) -> Self {
        Error::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(Error::UnknownItem(7).to_string().contains('7'));
        assert!(Error::DuplicateParent { child: 3 }
            .to_string()
            .contains("forest"));
        assert!(Error::HierarchyCycle { item: 2 }
            .to_string()
            .contains("cycle"));
        assert!(Error::InvalidParams("λ").to_string().contains("invalid"));
    }

    #[test]
    fn decode_error_converts() {
        let e: Error = lash_encoding::DecodeError::UnexpectedEof.into();
        assert!(matches!(e, Error::Decode(_)));
    }
}
