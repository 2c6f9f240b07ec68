//! Error type for model-level operations.

use std::fmt;

/// Errors raised while building or querying the data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An LDS name was not found in the registry.
    UnknownSource(String),
    /// An object id was not found within an LDS.
    UnknownObject { lds: String, id: String },
    /// An attribute name is not part of an LDS schema.
    UnknownAttribute { lds: String, attr: String },
    /// Two sources were expected to share an object type but do not.
    TypeMismatch { left: String, right: String },
    /// An instance id was inserted twice into the same LDS.
    DuplicateId { lds: String, id: String },
    /// A value did not conform to the declared attribute kind.
    KindMismatch {
        attr: String,
        expected: String,
        got: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownSource(name) => write!(f, "unknown logical data source `{name}`"),
            ModelError::UnknownObject { lds, id } => {
                write!(f, "object `{id}` not found in LDS `{lds}`")
            }
            ModelError::UnknownAttribute { lds, attr } => {
                write!(f, "attribute `{attr}` is not in the schema of LDS `{lds}`")
            }
            ModelError::TypeMismatch { left, right } => {
                write!(f, "object type mismatch between `{left}` and `{right}`")
            }
            ModelError::DuplicateId { lds, id } => {
                write!(f, "duplicate object id `{id}` in LDS `{lds}`")
            }
            ModelError::KindMismatch {
                attr,
                expected,
                got,
            } => {
                write!(f, "attribute `{attr}` expects kind {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Convenience alias used throughout `moma-model`.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_source() {
        let e = ModelError::UnknownSource("Publication@DBLP".into());
        assert_eq!(
            e.to_string(),
            "unknown logical data source `Publication@DBLP`"
        );
    }

    #[test]
    fn display_unknown_object() {
        let e = ModelError::UnknownObject {
            lds: "Pub@ACM".into(),
            id: "P-1".into(),
        };
        assert_eq!(e.to_string(), "object `P-1` not found in LDS `Pub@ACM`");
    }

    #[test]
    fn display_kind_mismatch() {
        let e = ModelError::KindMismatch {
            attr: "year".into(),
            expected: "Year".into(),
            got: "Text".into(),
        };
        assert!(e.to_string().contains("expects kind Year"));
    }

    #[test]
    fn error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(ModelError::UnknownSource("x".into()));
        assert!(e.to_string().contains("unknown logical data source"));
    }
}
