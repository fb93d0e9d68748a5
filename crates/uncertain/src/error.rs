//! Error type for model construction and validation.

use std::fmt;

/// Errors raised while constructing or validating uncertain strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A position was given no character choices.
    NoChoices { position: usize },
    /// A probability was outside `(0, 1]`.
    InvalidProbability { position: usize, ch: u8, prob: f64 },
    /// The same character appeared twice at one position.
    DuplicateChar { position: usize, ch: u8 },
    /// Probabilities at a position sum to more than 1.
    ProbabilitySumExceedsOne { position: usize, sum: f64 },
    /// The reserved sentinel byte (0) was used as a character.
    ReservedByte { position: usize },
    /// A threshold parameter was outside `(0, 1]`.
    InvalidThreshold { value: f64 },
    /// A query pattern was empty.
    EmptyPattern,
    /// A correlation referenced a position/character that does not exist.
    InvalidCorrelation { detail: String },
    /// Possible-world enumeration would exceed the safety limit.
    WorldExplosion { worlds_at_least: u128, limit: u128 },
    /// The text to index would exceed [`MAX_TEXT_LEN`](crate::MAX_TEXT_LEN)
    /// characters.
    TransformTooLarge { produced: usize, limit: usize },
    /// Failure while parsing the text format.
    Parse { detail: String },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoChoices { position } => {
                write!(f, "position {position} has no character choices")
            }
            ModelError::InvalidProbability { position, ch, prob } => write!(
                f,
                "character {:?} at position {position} has probability {prob} outside (0, 1]",
                *ch as char
            ),
            ModelError::DuplicateChar { position, ch } => write!(
                f,
                "character {:?} appears twice at position {position}",
                *ch as char
            ),
            ModelError::ProbabilitySumExceedsOne { position, sum } => {
                write!(f, "probabilities at position {position} sum to {sum} > 1")
            }
            ModelError::ReservedByte { position } => write!(
                f,
                "byte 0 at position {position} is reserved as the factor separator"
            ),
            ModelError::InvalidThreshold { value } => {
                write!(f, "threshold {value} is outside (0, 1]")
            }
            ModelError::EmptyPattern => write!(f, "query pattern is empty"),
            ModelError::InvalidCorrelation { detail } => {
                write!(f, "invalid correlation: {detail}")
            }
            ModelError::WorldExplosion {
                worlds_at_least,
                limit,
            } => write!(
                f,
                "possible-world enumeration needs at least {worlds_at_least} worlds (limit {limit})"
            ),
            ModelError::TransformTooLarge { produced, limit } => write!(
                f,
                "the text to index has {produced} characters, exceeding the limit {limit}"
            ),
            ModelError::Parse { detail } => write!(f, "parse error: {detail}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvalidProbability {
            position: 3,
            ch: b'A',
            prob: 1.5,
        };
        let msg = e.to_string();
        assert!(msg.contains("'A'") && msg.contains("1.5") && msg.contains("position 3"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&ModelError::NoChoices { position: 0 });
    }
}
