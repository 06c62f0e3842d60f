//! The architecture model of §3.2.
//!
//! The paper's method "is not restricted to a particular target
//! architecture since it can explore the types and numbers of
//! programmable and dedicated computing resources"; the experiments fix
//! one processor plus one partially reconfigurable FPGA communicating
//! through a shared memory on a bus. [`Architecture`] captures the
//! general inventory. The per-component `cost` fields are the system
//! cost that the mapping layer's architecture co-exploration minimizes
//! under a deadline; they are part of the model JSON and so of every
//! store key.

use crate::error::ModelError;
use crate::units::{Bytes, Clbs, Micros};
use serde::{Deserialize, Serialize};

/// A programmable processor (e.g. the ARM922 of the benchmark).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorSpec {
    name: String,
    cost: f64,
}

impl ProcessorSpec {
    /// Creates a processor spec.
    pub fn new(name: impl Into<String>, cost: f64) -> Self {
        ProcessorSpec {
            name: name.into(),
            cost,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Component cost (arbitrary units, used by architecture
    /// exploration).
    pub fn cost(&self) -> f64 {
        self.cost
    }
}

/// A dynamically reconfigurable logic circuit (DRLC / FPGA).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrlcSpec {
    name: String,
    n_clbs: Clbs,
    reconfig_time_per_clb: Micros,
    cost: f64,
}

impl DrlcSpec {
    /// Creates a DRLC with total capacity `n_clbs` and partial
    /// reconfiguration time `reconfig_time_per_clb` (`tR` in the paper;
    /// 22.5 µs/CLB for the Virtex-E benchmark).
    pub fn new(
        name: impl Into<String>,
        n_clbs: Clbs,
        reconfig_time_per_clb: Micros,
        cost: f64,
    ) -> Self {
        DrlcSpec {
            name: name.into(),
            n_clbs,
            reconfig_time_per_clb,
            cost,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total CLB capacity (`NCLB`).
    pub fn n_clbs(&self) -> Clbs {
        self.n_clbs
    }

    /// Reconfiguration time per CLB (`tR`).
    pub fn reconfig_time_per_clb(&self) -> Micros {
        self.reconfig_time_per_clb
    }

    /// Component cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Time to (re)configure a context using `clbs` CLBs:
    /// `tR × nCLB` — the weight of a context sequentialization edge.
    pub fn reconfiguration_time(&self, clbs: Clbs) -> Micros {
        self.reconfig_time_per_clb * clbs.value() as f64
    }
}

/// A dedicated circuit: tasks assigned to it execute with maximal
/// parallelism and no reconfiguration (the partial-order extreme of the
/// paper's resource taxonomy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsicSpec {
    name: String,
    cost: f64,
}

impl AsicSpec {
    /// Creates an ASIC spec.
    pub fn new(name: impl Into<String>, cost: f64) -> Self {
        AsicSpec {
            name: name.into(),
            cost,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Component cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }
}

/// The shared communication medium: processor and RC exchange data
/// through a shared memory over this bus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusSpec {
    bytes_per_micro: f64,
}

impl BusSpec {
    /// Creates a bus with transfer rate `bytes_per_micro` (the `D` of
    /// the paper, in bytes per microsecond).
    pub fn new(bytes_per_micro: f64) -> Self {
        BusSpec { bytes_per_micro }
    }

    /// Transfer rate in bytes/µs.
    pub fn bytes_per_micro(&self) -> f64 {
        self.bytes_per_micro
    }

    /// Transfer time of `bytes` over the bus: `tij = qij / D`.
    pub fn transfer_time(&self, bytes: Bytes) -> Micros {
        Micros::new(bytes.value() as f64 / self.bytes_per_micro)
    }
}

/// The complete target architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    name: String,
    processors: Vec<ProcessorSpec>,
    drlcs: Vec<DrlcSpec>,
    asics: Vec<AsicSpec>,
    bus: BusSpec,
}

impl Architecture {
    /// Starts building an architecture named `name`.
    pub fn builder(name: impl Into<String>) -> ArchitectureBuilder {
        ArchitectureBuilder {
            name: name.into(),
            processors: Vec::new(),
            drlcs: Vec::new(),
            asics: Vec::new(),
            bus: BusSpec::new(100.0),
        }
    }

    /// Architecture name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The programmable processors.
    pub fn processors(&self) -> &[ProcessorSpec] {
        &self.processors
    }

    /// The reconfigurable devices.
    pub fn drlcs(&self) -> &[DrlcSpec] {
        &self.drlcs
    }

    /// The dedicated circuits.
    pub fn asics(&self) -> &[AsicSpec] {
        &self.asics
    }

    /// The shared bus.
    pub fn bus(&self) -> BusSpec {
        self.bus
    }

    /// Total component cost (objective of the general method when the
    /// architecture itself is explored).
    pub fn total_cost(&self) -> f64 {
        self.processors.iter().map(ProcessorSpec::cost).sum::<f64>()
            + self.drlcs.iter().map(DrlcSpec::cost).sum::<f64>()
            + self.asics.iter().map(AsicSpec::cost).sum::<f64>()
    }

    /// Checks what the builder checks, for an architecture that skipped
    /// it (a deserialized one).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoResources`] if there is no computing
    /// resource, [`ModelError::ZeroCapacityDrlc`] for an empty FPGA,
    /// [`ModelError::InvalidReconfigTime`] for an FPGA whose
    /// reconfiguration time per CLB is negative, NaN or infinite, and
    /// [`ModelError::InvalidBusRate`] for a bus rate that is not a
    /// positive finite number.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.processors.is_empty() && self.drlcs.is_empty() && self.asics.is_empty() {
            return Err(ModelError::NoResources);
        }
        for d in &self.drlcs {
            let name = d.name().to_owned();
            if d.n_clbs() == Clbs::ZERO {
                return Err(ModelError::ZeroCapacityDrlc { name });
            }
            if !d.reconfig_time_per_clb().is_valid() {
                return Err(ModelError::InvalidReconfigTime { name });
            }
        }
        let rate = self.bus.bytes_per_micro();
        if rate <= 0.0 || !rate.is_finite() {
            return Err(ModelError::InvalidBusRate(rate));
        }
        Ok(())
    }
}

/// Builder for [`Architecture`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct ArchitectureBuilder {
    name: String,
    processors: Vec<ProcessorSpec>,
    drlcs: Vec<DrlcSpec>,
    asics: Vec<AsicSpec>,
    bus: BusSpec,
}

impl ArchitectureBuilder {
    /// Adds a programmable processor.
    pub fn processor(mut self, name: impl Into<String>, cost: f64) -> Self {
        self.processors.push(ProcessorSpec::new(name, cost));
        self
    }

    /// Adds a reconfigurable device.
    pub fn drlc(
        mut self,
        name: impl Into<String>,
        n_clbs: Clbs,
        reconfig_time_per_clb: Micros,
        cost: f64,
    ) -> Self {
        self.drlcs
            .push(DrlcSpec::new(name, n_clbs, reconfig_time_per_clb, cost));
        self
    }

    /// Adds a dedicated circuit.
    pub fn asic(mut self, name: impl Into<String>, cost: f64) -> Self {
        self.asics.push(AsicSpec::new(name, cost));
        self
    }

    /// Sets the shared-bus transfer rate in bytes/µs.
    pub fn bus_rate(mut self, bytes_per_micro: f64) -> Self {
        self.bus = BusSpec::new(bytes_per_micro);
        self
    }

    /// Finalizes the architecture.
    ///
    /// # Errors
    ///
    /// Any error of [`Architecture::validate`].
    pub fn build(self) -> Result<Architecture, ModelError> {
        let arch = Architecture {
            name: self.name,
            processors: self.processors,
            drlcs: self.drlcs,
            asics: self.asics,
            bus: self.bus,
        };
        arch.validate()?;
        Ok(arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_arch() -> Architecture {
        Architecture::builder("epicure")
            .processor("arm922", 10.0)
            .drlc("virtex-e", Clbs::new(2000), Micros::new(22.5), 25.0)
            .bus_rate(100.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_inventory() {
        let a = reference_arch();
        assert_eq!(a.processors().len(), 1);
        assert_eq!(a.drlcs().len(), 1);
        assert!(a.asics().is_empty());
        assert_eq!(a.total_cost(), 35.0);
        assert_eq!(a.name(), "epicure");
    }

    #[test]
    fn reconfiguration_time_scales_with_clbs() {
        let a = reference_arch();
        let d = &a.drlcs()[0];
        assert_eq!(
            d.reconfiguration_time(Clbs::new(1000)),
            Micros::new(22_500.0)
        );
        assert_eq!(d.reconfiguration_time(Clbs::ZERO), Micros::ZERO);
    }

    #[test]
    fn bus_transfer_time() {
        let bus = BusSpec::new(50.0);
        assert_eq!(bus.transfer_time(Bytes::new(5000)), Micros::new(100.0));
        assert_eq!(bus.transfer_time(Bytes::ZERO), Micros::ZERO);
    }

    #[test]
    fn empty_architecture_rejected() {
        assert_eq!(
            Architecture::builder("x").build().unwrap_err(),
            ModelError::NoResources
        );
    }

    #[test]
    fn zero_capacity_drlc_rejected() {
        let err = Architecture::builder("x")
            .drlc("d", Clbs::ZERO, Micros::new(1.0), 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::ZeroCapacityDrlc { .. }));
    }

    #[test]
    fn bad_bus_rate_rejected() {
        let err = Architecture::builder("x")
            .processor("p", 1.0)
            .bus_rate(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::InvalidBusRate(0.0));
    }

    #[test]
    fn invalid_reconfiguration_time_rejected() {
        for t in [-22.5, f64::NAN, f64::INFINITY] {
            let err = Architecture::builder("x")
                .drlc("d", Clbs::new(10), Micros::new(t), 0.0)
                .build()
                .unwrap_err();
            let name = "d".to_owned();
            assert_eq!(err, ModelError::InvalidReconfigTime { name });
        }
    }

    #[test]
    fn from_json_rejects_what_the_builder_rejects() {
        let json = reference_arch().to_json().unwrap();
        for (from, to) in [
            (r#""n_clbs": 2000"#, r#""n_clbs": 0"#),
            (
                r#""reconfig_time_per_clb": 22.5"#,
                r#""reconfig_time_per_clb": -22.5"#,
            ),
            (r#""bytes_per_micro": 100.0"#, r#""bytes_per_micro": 0"#),
            (r#""bytes_per_micro": 100.0"#, r#""bytes_per_micro": -3"#),
        ] {
            let edited = json.replacen(from, to, 1);
            assert_ne!(edited, json, "{from}");
            assert!(Architecture::from_json(&edited).is_err(), "{to}");
        }
        assert_eq!(Architecture::from_json(&json).unwrap(), reference_arch());
    }

    #[test]
    fn asic_only_architecture_is_legal() {
        let a = Architecture::builder("hw")
            .asic("accel", 5.0)
            .build()
            .unwrap();
        assert_eq!(a.asics().len(), 1);
    }
}
