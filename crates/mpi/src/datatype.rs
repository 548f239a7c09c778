//! MPI datatypes and their sizes.

use serde::Serialize;
use std::fmt;

/// A (simplified) MPI datatype.
///
/// Message sizes in traces are `count × datatype size`. The paper notes that
/// the dumpi repository carries no size information for MPI *derived*
/// datatypes and therefore assigns them a size of **one byte**
/// ("we selected one byte as the according size", §4.3); [`Datatype::Derived`]
/// follows the same convention so results can be rescaled later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Datatype {
    /// `MPI_BYTE` / `MPI_CHAR` — 1 byte.
    Byte,
    /// `MPI_SHORT` — 2 bytes.
    Short,
    /// `MPI_INT` / `MPI_FLOAT` — 4 bytes.
    Int,
    /// `MPI_FLOAT` — 4 bytes.
    Float,
    /// `MPI_LONG` / `MPI_DOUBLE` — 8 bytes.
    Long,
    /// `MPI_DOUBLE` — 8 bytes.
    Double,
    /// An MPI derived datatype of unknown extent; counted as 1 byte,
    /// matching the paper's convention for the starred (*) applications.
    Derived,
}

impl Datatype {
    /// Size of one element of this datatype in bytes.
    #[inline]
    pub const fn size_bytes(self) -> u64 {
        match self {
            Datatype::Byte => 1,
            Datatype::Short => 2,
            Datatype::Int | Datatype::Float => 4,
            Datatype::Long | Datatype::Double => 8,
            Datatype::Derived => 1,
        }
    }

    /// Total size of `count` elements in bytes.
    #[inline]
    pub const fn volume(self, count: u64) -> u64 {
        count * self.size_bytes()
    }

    /// Parse from the short name used in the dumpi-like text format.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "byte" | "char" => Datatype::Byte,
            "short" => Datatype::Short,
            "int" => Datatype::Int,
            "float" => Datatype::Float,
            "long" => Datatype::Long,
            "double" => Datatype::Double,
            "derived" => Datatype::Derived,
            _ => return None,
        })
    }

    /// Short name used in the dumpi-like text format.
    pub const fn name(self) -> &'static str {
        match self {
            Datatype::Byte => "byte",
            Datatype::Short => "short",
            Datatype::Int => "int",
            Datatype::Float => "float",
            Datatype::Long => "long",
            Datatype::Double => "double",
            Datatype::Derived => "derived",
        }
    }
}

impl fmt::Display for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_mpi_conventions() {
        assert_eq!(Datatype::Byte.size_bytes(), 1);
        assert_eq!(Datatype::Int.size_bytes(), 4);
        assert_eq!(Datatype::Double.size_bytes(), 8);
    }

    #[test]
    fn derived_types_count_as_one_byte() {
        // The paper's convention for applications marked with (*).
        assert_eq!(Datatype::Derived.size_bytes(), 1);
        assert_eq!(Datatype::Derived.volume(4096), 4096);
    }

    #[test]
    fn name_roundtrip() {
        for dt in [
            Datatype::Byte,
            Datatype::Short,
            Datatype::Int,
            Datatype::Float,
            Datatype::Long,
            Datatype::Double,
            Datatype::Derived,
        ] {
            assert_eq!(Datatype::from_name(dt.name()), Some(dt));
        }
        assert_eq!(Datatype::from_name("complex128"), None);
    }
}
