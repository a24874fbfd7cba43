//! Trained-model persistence.
//!
//! A trained classifier is the valuable artifact of this framework — it
//! encodes fault-injection knowledge that took a campaign to produce.
//! This module saves and restores [`GcnClassifier`]s in a small,
//! versioned, human-inspectable text format (no external serialization
//! dependency).

use crate::model::{GcnClassifier, GcnConfig};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

const MAGIC: &str = "fusa-gcn-classifier";
const VERSION: u32 = 1;

/// Errors from [`load_classifier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The stream does not start with the expected magic/version line.
    BadHeader,
    /// A structural line (shape, keyword) was malformed.
    Malformed {
        /// Description of what went wrong.
        detail: String,
    },
    /// The parameter payload does not match the declared architecture.
    ShapeMismatch,
    /// Underlying I/O failure, stringified.
    Io {
        /// The I/O error text.
        message: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "not a fusa-gcn-classifier file"),
            PersistError::Malformed { detail } => write!(f, "malformed model file: {detail}"),
            PersistError::ShapeMismatch => write!(f, "parameter shapes do not match header"),
            PersistError::Io { message } => write!(f, "i/o error: {message}"),
        }
    }
}

impl Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io {
            message: e.to_string(),
        }
    }
}

/// Writes a trained classifier to `writer`.
///
/// The caller can pass `&mut file` thanks to the blanket `Write` impl
/// for mutable references.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use fusa_gcn::persist::{load_classifier, save_classifier};
/// use fusa_gcn::{GcnClassifier, GcnConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = GcnClassifier::new(GcnConfig::default());
/// let mut buffer = Vec::new();
/// save_classifier(&model, &mut buffer)?;
/// let restored = load_classifier(buffer.as_slice())?;
/// assert_eq!(restored.config(), model.config());
/// # Ok(())
/// # }
/// ```
pub fn save_classifier<W: Write>(model: &GcnClassifier, mut writer: W) -> Result<(), PersistError> {
    let config = model.config();
    writeln!(writer, "{MAGIC} v{VERSION}")?;
    writeln!(writer, "in_features {}", config.in_features)?;
    let hidden: Vec<String> = config.hidden.iter().map(|h| h.to_string()).collect();
    writeln!(writer, "hidden {}", hidden.join(" "))?;
    writeln!(writer, "dropout {}", config.dropout)?;
    writeln!(writer, "seed {}", config.seed)?;

    // Parameters in the model's stable ordering.
    for param in model.params() {
        writeln!(
            writer,
            "param {} {}",
            param.value.rows(),
            param.value.cols()
        )?;
        for r in 0..param.value.rows() {
            let row: Vec<String> = param
                .value
                .row(r)
                .iter()
                .map(|v| format!("{v:e}"))
                .collect();
            writeln!(writer, "{}", row.join(" "))?;
        }
    }
    writeln!(writer, "end")?;
    Ok(())
}

/// Reads a classifier previously written by [`save_classifier`].
///
/// # Errors
///
/// Returns [`PersistError`] for header, format, shape or I/O problems.
pub fn load_classifier<R: std::io::Read>(reader: R) -> Result<GcnClassifier, PersistError> {
    let mut lines = std::io::BufReader::new(reader).lines();
    let mut next_line = || -> Result<String, PersistError> {
        lines
            .next()
            .ok_or(PersistError::Malformed {
                detail: "unexpected end of file".into(),
            })?
            .map_err(PersistError::from)
    };

    let header = next_line()?;
    if header.trim() != format!("{MAGIC} v{VERSION}") {
        return Err(PersistError::BadHeader);
    }
    let in_features: usize = parse_keyword(&next_line()?, "in_features")?;
    let hidden_line = next_line()?;
    let hidden: Vec<usize> = hidden_line
        .strip_prefix("hidden ")
        .ok_or_else(|| malformed("missing hidden"))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| malformed("bad hidden width")))
        .collect::<Result<_, _>>()?;
    if hidden.is_empty() {
        return Err(malformed("hidden lists no width"));
    }
    let dropout: f64 = parse_keyword(&next_line()?, "dropout")?;
    if !(0.0..1.0).contains(&dropout) {
        return Err(malformed("dropout outside [0, 1)"));
    }
    let seed: u64 = parse_keyword(&next_line()?, "seed")?;

    let mut model = GcnClassifier::new(GcnConfig {
        in_features,
        hidden,
        dropout,
        seed,
    });

    for param in model.params_mut() {
        let shape_line = next_line()?;
        let mut tokens = shape_line.split_whitespace();
        if tokens.next() != Some("param") {
            return Err(malformed("expected `param`"));
        }
        let rows: usize = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| malformed("bad param rows"))?;
        let cols: usize = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| malformed("bad param cols"))?;
        if (rows, cols) != param.value.shape() {
            return Err(PersistError::ShapeMismatch);
        }
        for r in 0..rows {
            let row_line = next_line()?;
            let values: Vec<f64> = row_line
                .split_whitespace()
                .map(|t| t.parse().map_err(|_| malformed("bad weight")))
                .collect::<Result<_, _>>()?;
            if values.len() != cols {
                return Err(PersistError::ShapeMismatch);
            }
            param.value.row_mut(r).copy_from_slice(&values);
        }
    }
    if next_line()?.trim() != "end" {
        return Err(malformed("missing `end`"));
    }
    Ok(model)
}

fn parse_keyword<T: std::str::FromStr>(line: &str, keyword: &str) -> Result<T, PersistError> {
    line.strip_prefix(keyword)
        .map(str::trim)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed(&format!("missing {keyword}")))
}

fn malformed(detail: &str) -> PersistError {
    PersistError::Malformed {
        detail: detail.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_neuro::{CsrMatrix, Matrix};

    fn trained_ish_model() -> GcnClassifier {
        // A freshly initialized model with a nonstandard config; the
        // Glorot weights are as good as trained ones for round-trip
        // purposes.
        GcnClassifier::new(GcnConfig {
            in_features: 3,
            hidden: vec![4, 8],
            dropout: 0.2,
            seed: 77,
        })
    }

    fn predictions(model: &GcnClassifier) -> Vec<f64> {
        let adj =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 0.3), (1, 0, 0.3)]);
        let x = Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.3, 0.9, -1.0]]);
        model.predict_critical_probability(&adj, &x)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let model = trained_ish_model();
        let mut buffer = Vec::new();
        save_classifier(&model, &mut buffer).unwrap();
        let restored = load_classifier(buffer.as_slice()).unwrap();
        let original = predictions(&model);
        let recovered = predictions(&restored);
        for (a, b) in original.iter().zip(&recovered) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(restored.config(), model.config());
    }

    #[test]
    fn bad_header_rejected() {
        let err = load_classifier("not a model\n".as_bytes()).unwrap_err();
        assert_eq!(err, PersistError::BadHeader);
    }

    #[test]
    fn truncated_file_rejected() {
        let model = trained_ish_model();
        let mut buffer = Vec::new();
        save_classifier(&model, &mut buffer).unwrap();
        let truncated = &buffer[..buffer.len() / 2];
        assert!(load_classifier(truncated).is_err());
    }

    #[test]
    fn tampered_shape_rejected() {
        let model = trained_ish_model();
        let mut buffer = Vec::new();
        save_classifier(&model, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let tampered = text.replacen("param 3 4", "param 4 3", 1);
        assert_eq!(
            load_classifier(tampered.as_bytes()).unwrap_err(),
            PersistError::ShapeMismatch
        );
    }

    #[test]
    fn architectures_a_classifier_cannot_have_are_malformed() {
        let mut buffer = Vec::new();
        save_classifier(&trained_ish_model(), &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        for (line, detail) in [
            ("hidden ", "hidden lists no width"),
            ("dropout 1", "dropout outside [0, 1)"),
            ("dropout NaN", "dropout outside [0, 1)"),
            ("dropout -0.5", "dropout outside [0, 1)"),
        ] {
            let keyword = line.split(' ').next().unwrap();
            let original = text.lines().find(|l| l.starts_with(keyword)).unwrap();
            let tampered = text.replacen(original, line, 1);
            assert_eq!(
                load_classifier(tampered.as_bytes()).unwrap_err(),
                malformed(detail),
                "{line}"
            );
        }
    }

    #[test]
    fn error_display_is_informative() {
        let err = PersistError::Malformed {
            detail: "bad weight".into(),
        };
        assert!(err.to_string().contains("bad weight"));
    }
}
