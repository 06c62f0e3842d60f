//! JSON import/export of models.
//!
//! Task graphs and architectures serialize to JSON (the interchange
//! format of the `rdse` CLI and the examples).

use crate::{Architecture, ModelError, TaskGraph};
use serde::Deserialize;
use serde_json::Value;
use std::fs;
use std::path::Path;

fn parse(json: &str) -> Result<Value, ModelError> {
    serde_json::from_str(json).map_err(|e| ModelError::Io(e.to_string()))
}

/// Decodes a model, naming a failure as [`serde_json::from_str`] would.
fn decode<T: Deserialize>(value: &Value) -> Result<T, ModelError> {
    T::from_value(value).map_err(|e| ModelError::Io(serde_json::Error::custom(e).to_string()))
}

impl TaskGraph {
    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on serialization failure.
    pub fn to_json(&self) -> Result<String, ModelError> {
        serde_json::to_string_pretty(self).map_err(|e| ModelError::Io(e.to_string()))
    }

    /// Parses a task graph from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on parse failure or any validation
    /// error (e.g. [`ModelError::CyclicPrecedence`]).
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        TaskGraph::from_json_value(&parse(json)?)
    }

    /// Decodes an already-parsed JSON value and validates it, exactly
    /// as [`TaskGraph::from_json`] does for text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] if the value is not a task graph, or
    /// any validation error.
    pub fn from_json_value(value: &Value) -> Result<Self, ModelError> {
        let g: TaskGraph = decode(value)?;
        g.validate()?;
        Ok(g)
    }

    /// Writes the graph to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on file-system or serialization
    /// failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        fs::write(path, self.to_json()?).map_err(|e| ModelError::Io(e.to_string()))
    }

    /// Reads a graph from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on file-system or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let json = fs::read_to_string(path).map_err(|e| ModelError::Io(e.to_string()))?;
        TaskGraph::from_json(&json)
    }
}

impl Architecture {
    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on serialization failure.
    pub fn to_json(&self) -> Result<String, ModelError> {
        serde_json::to_string_pretty(self).map_err(|e| ModelError::Io(e.to_string()))
    }

    /// Parses an architecture from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on parse failure, or any error of
    /// [`Architecture::validate`].
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        Architecture::from_json_value(&parse(json)?)
    }

    /// Decodes an already-parsed JSON value and validates it, exactly
    /// as [`Architecture::from_json`] does for text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] if the value is not an architecture,
    /// or any error of [`Architecture::validate`].
    pub fn from_json_value(value: &Value) -> Result<Self, ModelError> {
        let a: Architecture = decode(value)?;
        a.validate()?;
        Ok(a)
    }

    /// Writes the architecture to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on file-system or serialization
    /// failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        fs::write(path, self.to_json()?).map_err(|e| ModelError::Io(e.to_string()))
    }

    /// Reads an architecture from a JSON file and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on file-system or parse failure, or
    /// any error of [`Architecture::validate`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let json = fs::read_to_string(path).map_err(|e| ModelError::Io(e.to_string()))?;
        Architecture::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Bytes, Clbs, Micros};
    use crate::HwImpl;

    fn sample_graph() -> TaskGraph {
        let mut g = TaskGraph::new("sample");
        let a = g
            .add_task(
                "a",
                "FFT",
                Micros::new(10.0),
                vec![HwImpl::new(Clbs::new(64), Micros::new(1.5))],
            )
            .unwrap();
        let b = g.add_task("b", "SINK", Micros::new(5.0), vec![]).unwrap();
        g.add_data_edge(a, b, Bytes::new(256)).unwrap();
        g
    }

    #[test]
    fn task_graph_json_roundtrip() {
        let g = sample_graph();
        let json = g.to_json().unwrap();
        let g2 = TaskGraph::from_json(&json).unwrap();
        assert_eq!(g2.n_tasks(), 2);
        assert_eq!(g2.edges().len(), 1);
        assert_eq!(g2.task(crate::TaskId(0)).unwrap().name(), "a");
        assert_eq!(g2.to_json().unwrap(), json);
    }

    #[test]
    fn architecture_json_roundtrip() {
        let a = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(500), Micros::new(22.5), 2.0)
            .bus_rate(64.0)
            .build()
            .unwrap();
        let json = a.to_json().unwrap();
        let a2 = Architecture::from_json(&json).unwrap();
        assert_eq!(a, a2);
    }

    #[test]
    fn from_json_rejects_cycles() {
        // Build a cyclic edge list by hand in JSON.
        let mut g = sample_graph();
        // add reverse edge to create cycle, bypassing validate
        g.add_data_edge(crate::TaskId(1), crate::TaskId(0), Bytes::ZERO)
            .unwrap();
        let json = serde_json::to_string(&g).unwrap();
        assert!(TaskGraph::from_json(&json).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("rdse_model_io_test.json");
        let g = sample_graph();
        g.save(&path).unwrap();
        let g2 = TaskGraph::load(&path).unwrap();
        assert_eq!(g2.n_tasks(), g.n_tasks());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            TaskGraph::load("/nonexistent/nowhere.json"),
            Err(ModelError::Io(_))
        ));
    }
}
